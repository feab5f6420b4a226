import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import memvo
from memvo.cli import main
from memvo.evaluation import (Trajectory, format_kitti, load_trajectory,
                              save_trajectory)
from memvo.geometry import euler_to_matrix, make_se3
from memvo.net import VONet, save_checkpoint
from memvo.votb import read_votb


def write_spec(path, frames=6, seed=3):
    spec = {"frames": frames, "height": 32, "width": 32, "kind": "mixed",
            "max_shift": 1.0, "max_yaw": 0.05, "noise": 0.0, "seed": seed}
    with open(path, "w") as fh:
        json.dump(spec, fh)
    return path


def write_config(path, **kw):
    cfg = {"window_length": 4, "batch_size": 2, "base_lr": 1e-3, "k": 10.0,
           "theta_rot": 0.0, "theta_trans": 0.0, "memory_size": 4,
           "seed": 0, "preset": "tiny", "iterations": 2}
    cfg.update(kw)
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path


def tree_digest(root):
    """One hash over every file (relative path + bytes) under root."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            h.update(os.path.relpath(full, root).encode())
            h.update(Path(full).read_bytes())
    return h.hexdigest()


def make_container(tmp_path, name="seq", frames=6, seed=3):
    spec = write_spec(str(tmp_path / "spec.json"), frames=frames, seed=seed)
    out = str(tmp_path / name)
    assert main(["synth-data", "--spec", spec, "--out", out]) == 0
    return out


def make_checkpoint(tmp_path, seed=0):
    path = str(tmp_path / "ckpt")
    save_checkpoint(VONet(preset="tiny", seed=seed), path)
    return path


def straight_line_file(path, n=900, scale=1.0):
    poses = [make_se3(np.eye(3), [i * scale, 0.0, 0.0]) for i in range(n)]
    with open(path, "w") as fh:
        fh.write(format_kitti(poses))
    return path


class TestSynthData:
    def test_writes_container(self, tmp_path, capsys):
        out = make_container(tmp_path)
        assert sorted(os.listdir(out)) == ["frames.votb", "manifest.json", "poses_gt.txt"]
        manifest = json.loads(Path(out, "manifest.json").read_text())
        assert manifest == {"format": "memvo-sequence", "version": 2, "poses": True}
        assert read_votb(os.path.join(out, "frames.votb")).shape == (6, 3, 32, 32)
        assert len(load_trajectory(os.path.join(out, "poses_gt.txt"), "kitti")) == 6
        assert "wrote 6 frames" in capsys.readouterr().out

    def test_seed_override_and_determinism(self, tmp_path):
        spec = write_spec(str(tmp_path / "spec.json"))
        a, b, c = (str(tmp_path / n) for n in "abc")
        main(["synth-data", "--spec", spec, "--out", a, "--seed", "7"])
        main(["synth-data", "--spec", spec, "--out", b, "--seed", "7"])
        main(["synth-data", "--spec", spec, "--out", c, "--seed", "8"])
        assert tree_digest(a) == tree_digest(b)
        assert tree_digest(a) != tree_digest(c)

    def test_missing_spec_errors(self, tmp_path, capsys):
        rc = main(["synth-data", "--spec", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_wrong_type_in_spec_errors(self, tmp_path, capsys):
        spec = str(tmp_path / "spec.json")
        with open(spec, "w") as fh:
            json.dump({"frames": "11"}, fh)
        rc = main(["synth-data", "--spec", spec, "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == "error: %s: frames must be int, got '11'\n" % spec


@pytest.mark.parametrize("command", ["synth-data", "train"])
def test_negative_seed_override_prints_one_error_line(tmp_path, capsys, command):
    out = str(tmp_path / "out")
    if command == "synth-data":
        argv = ["synth-data", "--spec", write_spec(str(tmp_path / "spec.json"))]
    else:
        argv = ["train", "--config", write_config(str(tmp_path / "cfg.json")),
                "--data", make_container(tmp_path)]
    capsys.readouterr()
    rc = main(argv + ["--out", out, "--seed", "-1"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == "error: seed must be >= 0\n"
    assert not os.path.exists(out)


class TestTrain:
    def test_end_to_end_outputs(self, tmp_path, capsys):
        data = make_container(tmp_path)
        cfg = write_config(str(tmp_path / "cfg.json"))
        out = str(tmp_path / "run")
        assert main(["train", "--config", cfg, "--data", data, "--out", out]) == 0
        lines = Path(out, "loss.csv").read_text().splitlines()
        assert lines[0] == "iteration,loss_local,loss_global,loss_total"
        iters = [int(l.split(",")[0]) for l in lines[1:]]
        assert iters == sorted(iters) == [0, 1]
        assert os.path.isfile(os.path.join(out, "checkpoint", "manifest.json"))
        assert "trained 2 iterations" in capsys.readouterr().out

    def test_seed_rerun_byte_identical(self, tmp_path):
        data = make_container(tmp_path)
        cfg = write_config(str(tmp_path / "cfg.json"))
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        main(["train", "--config", cfg, "--data", data, "--out", a, "--seed", "7"])
        main(["train", "--config", cfg, "--data", data, "--out", b, "--seed", "7"])
        assert tree_digest(a) == tree_digest(b)

    def test_directory_of_containers_and_comma_list(self, tmp_path):
        parent = tmp_path / "corpus"
        parent.mkdir()
        s1 = make_container(parent, name="s1", seed=1)
        s2 = make_container(parent, name="s2", seed=2)
        cfg = write_config(str(tmp_path / "cfg.json"))
        out1 = str(tmp_path / "o1")
        assert main(["train", "--config", cfg, "--data", str(parent), "--out", out1]) == 0
        out2 = str(tmp_path / "o2")
        assert main(["train", "--config", cfg, "--data", "%s,%s" % (s1, s2),
                     "--out", out2]) == 0
        assert tree_digest(out1) == tree_digest(out2)

    def test_container_without_poses_errors(self, tmp_path, capsys):
        from memvo.evaluation import save_sequence
        bare = str(tmp_path / "bare")
        save_sequence(bare, np.zeros((6, 3, 32, 32)))
        cfg = write_config(str(tmp_path / "cfg.json"))
        rc = main(["train", "--config", cfg, "--data", bare,
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "ground-truth" in capsys.readouterr().err

    def test_short_container_is_named(self, tmp_path, capsys):
        # with several containers, only the path tells which one is too short
        long_ = make_container(tmp_path, name="long", frames=6)
        short = make_container(tmp_path, name="short", frames=3)
        cfg = write_config(str(tmp_path / "cfg.json"))
        capsys.readouterr()
        rc = main(["train", "--config", cfg, "--data", "%s,%s" % (long_, short),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: %s: 3 frames, shorter than the 4-frame window\n" % short)

    @pytest.mark.parametrize("bad", ["list", "frames"])
    def test_bad_manifest_prints_one_error_line(self, tmp_path, capsys, bad):
        data = make_container(tmp_path)
        mpath = os.path.join(data, "manifest.json")
        with open(mpath) as fh:
            manifest = json.load(fh)
        manifest["frames"] = 5
        with open(mpath, "w") as fh:
            json.dump([1] if bad == "list" else manifest, fh)
        cfg = write_config(str(tmp_path / "cfg.json"))
        capsys.readouterr()
        rc = main(["train", "--config", cfg, "--data", data, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: %s: " % mpath) and err.count("\n") == 1, err
        assert "Traceback" not in err

    def test_bad_config_fails_before_any_data_is_read(self, tmp_path, capsys):
        cfg = write_config(str(tmp_path / "cfg.json"), theta_rot=-1)
        capsys.readouterr()
        rc = main(["train", "--config", cfg, "--data", str(tmp_path / "missing"),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == "error: %s: thresholds must be nonnegative\n" % cfg
        assert not os.path.exists(str(tmp_path / "out"))

    def test_preset_override_rejects_unknown(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["train", "--config", "x", "--data", "y", "--out", "z",
                  "--preset", "gigantic"])


class TestInfer:
    def test_writes_parseable_trajectory(self, tmp_path, capsys):
        data = make_container(tmp_path)
        ckpt = make_checkpoint(tmp_path)
        out = str(tmp_path / "est.txt")
        rc = main(["infer", "--ckpt", ckpt, "--data", data, "--out", out,
                   "--window", "4"])
        assert rc == 0
        traj = load_trajectory(out, "kitti")
        assert len(traj) == 6
        assert np.array_equal(traj.poses[0], np.eye(4))
        assert "wrote 6 poses" in capsys.readouterr().out

    def test_tum_format_output(self, tmp_path):
        data = make_container(tmp_path)
        ckpt = make_checkpoint(tmp_path)
        out = str(tmp_path / "est_tum.txt")
        rc = main(["infer", "--ckpt", ckpt, "--data", data, "--out", out,
                   "--window", "4", "--format", "tum"])
        assert rc == 0
        traj = load_trajectory(out, "tum")
        assert len(traj) == 6
        assert abs(traj.stamps[1] - 0.1) < 1e-12  # container frame rate

    def test_deterministic(self, tmp_path):
        data = make_container(tmp_path)
        ckpt = make_checkpoint(tmp_path)
        a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        main(["infer", "--ckpt", ckpt, "--data", data, "--out", a, "--window", "4"])
        main(["infer", "--ckpt", ckpt, "--data", data, "--out", b, "--window", "4"])
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_stride_flag(self, tmp_path):
        data = make_container(tmp_path)
        ckpt = make_checkpoint(tmp_path)
        out = str(tmp_path / "est.txt")
        rc = main(["infer", "--ckpt", ckpt, "--data", data, "--out", out,
                   "--window", "4", "--stride", "2"])
        assert rc == 0 and len(load_trajectory(out, "kitti")) == 6

    def test_missing_checkpoint_errors(self, tmp_path, capsys):
        data = make_container(tmp_path)
        rc = main(["infer", "--ckpt", str(tmp_path / "none"), "--data", data,
                   "--out", str(tmp_path / "est.txt")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")


class TestEval:
    def test_kitti_self_comparison_zero(self, tmp_path, capsys):
        gt = straight_line_file(str(tmp_path / "gt.txt"))
        assert main(["eval", "--format", "kitti", "--est", gt, "--gt", gt]) == 0
        out = capsys.readouterr().out
        assert "t_rel 0 %" in out and "r_rel 0 deg/100m" in out

    def test_kitti_csv_with_all_row(self, tmp_path):
        gt = straight_line_file(str(tmp_path / "gt.txt"))
        est = straight_line_file(str(tmp_path / "est.txt"), scale=1.01)
        csv = str(tmp_path / "metrics.csv")
        rc = main(["eval", "--format", "kitti", "--est", est, "--gt", gt,
                   "--out", csv])
        assert rc == 0
        lines = Path(csv).read_text().splitlines()
        assert lines[0] == "length_m,t_rel_percent,r_rel_deg_per_100m,segments"
        assert lines[1].startswith("100,1,")
        assert lines[-1].startswith("all,1,")

    def test_kitti_step_and_aggregate_flags(self, tmp_path, capsys):
        gt = straight_line_file(str(tmp_path / "gt.txt"))
        est = straight_line_file(str(tmp_path / "est.txt"), scale=1.01)
        rc = main(["eval", "--format", "kitti", "--est", est, "--gt", gt,
                   "--step", "5", "--aggregate", "rmse"])
        assert rc == 0
        assert "t_rel 1 %" in capsys.readouterr().out

    def test_tum_rmse_output(self, tmp_path, capsys):
        stamps = np.arange(0.0, 30.0, 0.1)
        poses = [make_se3(np.eye(3), [np.cos(t), np.sin(t), 0.0]) for t in stamps]
        path = str(tmp_path / "traj.txt")
        save_trajectory(path, Trajectory(stamps, poses), "tum")
        csv = str(tmp_path / "metrics.csv")
        rc = main(["eval", "--format", "tum", "--est", path, "--gt", path,
                   "--out", csv])
        assert rc == 0
        assert "rmse" in capsys.readouterr().out
        lines = Path(csv).read_text().splitlines()
        assert lines[0] == "metric,value"
        assert lines[1].startswith("rmse_m_per_s,")

    def test_malformed_est_errors(self, tmp_path, capsys):
        gt = straight_line_file(str(tmp_path / "gt.txt"))
        bad = str(tmp_path / "bad.txt")
        with open(bad, "w") as fh:
            fh.write("garbage\n")
        rc = main(["eval", "--format", "kitti", "--est", bad, "--gt", gt])
        assert rc == 1
        assert "line 1" in capsys.readouterr().err


class TestSaliency:
    def test_writes_maps(self, tmp_path, capsys):
        data = make_container(tmp_path)
        ckpt = make_checkpoint(tmp_path)
        out = str(tmp_path / "sal")
        rc = main(["saliency", "--ckpt", ckpt, "--data", data, "--out", out,
                   "--window", "4", "--frame", "2", "--which", "tracking"])
        assert rc == 0
        maps = sorted(os.listdir(out))
        assert maps == ["saliency_%04d.votb" % t for t in range(4)]
        assert read_votb(os.path.join(out, maps[0])).shape == (32, 32)
        assert "wrote 4 saliency maps" in capsys.readouterr().out

    def test_deterministic(self, tmp_path):
        data = make_container(tmp_path)
        ckpt = make_checkpoint(tmp_path)
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (a, b):
            main(["saliency", "--ckpt", ckpt, "--data", data, "--out", out,
                  "--window", "4"])
        assert tree_digest(a) == tree_digest(b)

    def test_bad_frame_errors(self, tmp_path, capsys):
        data = make_container(tmp_path)
        ckpt = make_checkpoint(tmp_path)
        rc = main(["saliency", "--ckpt", ckpt, "--data", data,
                   "--out", str(tmp_path / "sal"), "--window", "4",
                   "--frame", "99"])
        assert rc == 1
        assert "target" in capsys.readouterr().err

    @pytest.mark.parametrize("window", ["-1", "1"])
    def test_bad_window_errors_before_any_map(self, tmp_path, capsys, window):
        data = make_container(tmp_path)
        ckpt = make_checkpoint(tmp_path)
        out = str(tmp_path / "sal")
        rc = main(["saliency", "--ckpt", ckpt, "--data", data, "--out", out,
                   "--window", window])
        assert rc == 1
        assert capsys.readouterr().err == "error: window must be an int >= 2, got %s\n" % window
        assert not os.path.exists(out)


class TestPlotData:
    def test_writes_both_tables(self, tmp_path, capsys):
        gt = straight_line_file(str(tmp_path / "gt.txt"))
        est = straight_line_file(str(tmp_path / "est.txt"), scale=1.01)
        out = str(tmp_path / "plots")
        rc = main(["plot-data", "--est", est, "--gt", gt, "--out", out,
                   "--step", "5"])
        assert rc == 0
        length = Path(out, "error_vs_length.csv").read_text().splitlines()
        speed = Path(out, "error_vs_speed.csv").read_text().splitlines()
        assert length[0] == "length_m,t_rel_percent,r_rel_deg_per_100m,segments"
        assert speed[0] == "speed_mps,t_rel_percent,r_rel_deg_per_100m,segments"
        assert len(length) >= 2 and len(speed) >= 2
        assert "drift tables" in capsys.readouterr().out


def rotating_walk_files(tmp_path):
    """A fixed 900-pose walk that turns and changes speed, and an estimate
    that drifts off it in scale, yaw, pitch and height. Closed form, no RNG."""
    i = np.arange(900)
    yaw = 0.6 * np.sin(i / 90.0)
    step = 1.0 + 0.7 * np.sin(i / 120.0)
    x, y = np.cumsum(step * np.cos(yaw)), np.cumsum(step * np.sin(yaw))
    gt = [make_se3(euler_to_matrix((0.0, 0.0, yaw[k])), (x[k], y[k], 0.0)) for k in i]
    est = [make_se3(euler_to_matrix((0.0, 0.001 * np.sin(k / 50.0), 1.01 * yaw[k])),
                    (1.01 * x[k], y[k], 0.002 * k)) for k in i]
    paths = []
    for name, poses in (("gt.txt", gt), ("est.txt", est)):
        paths.append(str(tmp_path / name))
        with open(paths[-1], "w") as fh:
            fh.write(format_kitti(poses))
    return paths


LENGTH_ROWS = """\
length_m,t_rel_percent,r_rel_deg_per_100m,segments
100,1.13365129,0.26164176,835
200,1.07644157,0.17127374,754
300,1.02791133,0.100707206,581
400,1.03490287,0.0671582602,386
500,1.03500452,0.0476769943,302
600,1.06539182,0.0331461948,237
700,1.08390624,0.0375388715,178
800,1.05528148,0.0316681006,117
"""


class TestDriftCsvBytes:
    """The drift CSVs of a fixed walk, digit for digit: a refactor of the
    drift tables must not move any printed value."""

    def test_eval_csv(self, tmp_path, capsys):
        gt, est = rotating_walk_files(tmp_path)
        csv = str(tmp_path / "metrics.csv")
        assert main(["eval", "--format", "kitti", "--est", est, "--gt", gt, "--out", csv]) == 0
        assert capsys.readouterr().out == (
            "t_rel 1.07268 %  r_rel 0.137076 deg/100m over 3390 segments\n")
        with open(csv) as fh:
            assert fh.read() == LENGTH_ROWS + "all,1.07268355,0.137075643,3390\n"

    def test_plot_data_csvs(self, tmp_path):
        gt, est = rotating_walk_files(tmp_path)
        out = str(tmp_path / "plots")
        assert main(["plot-data", "--est", est, "--gt", gt, "--out", out]) == 0
        with open(os.path.join(out, "error_vs_length.csv")) as fh:
            assert fh.read() == LENGTH_ROWS
        with open(os.path.join(out, "error_vs_speed.csv")) as fh:
            assert fh.read() == """\
speed_mps,t_rel_percent,r_rel_deg_per_100m,segments
4,1.09982243,0.583332646,154
6,1.01487632,0.199570745,512
8,1.00801558,0.041114318,686
10,1.09516892,0.065302949,728
12,1.08901082,0.194943698,267
14,1.0461162,0.174432785,420
16,1.16932833,0.114953894,623
"""


class TestParser:
    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--est", "a", "--gt", "b", "--frobnicate"])
        assert exc.value.code == 2

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["synth-data", "--out", "somewhere"])
        assert exc.value.code == 2

    def test_console_script_help(self):
        # Run the `memvo` entry point declared in pyproject.toml through the
        # same launcher pip generates for it, so no install is needed.
        tomllib = pytest.importorskip("tomllib")
        root = os.path.join(os.path.dirname(__file__), os.pardir)
        with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
            entry = tomllib.load(fh)["project"]["scripts"]["memvo"]
        module, func = entry.split(":")
        launcher = "import sys; from %s import %s; sys.exit(%s())" % (
            module, func, func)
        # The child imports the same memvo as this suite.
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(memvo.__file__))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        out = subprocess.run([sys.executable, "-c", launcher, "--help"],
                             capture_output=True, text=True, env=env)
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith("usage: memvo")
        for cmd in ("synth-data", "train", "infer", "eval", "saliency", "plot-data"):
            assert cmd in out.stdout
        # Where the package is installed, its script must say the same.
        script = shutil.which("memvo")
        if script is not None:
            installed = subprocess.run([script, "--help"], capture_output=True,
                                       text=True)
            assert installed.returncode == out.returncode
            assert installed.stdout == out.stdout
