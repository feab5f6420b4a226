import importlib.util
import json
import os
import re
from collections import namedtuple

import numpy as np
import pytest

import memvo.evaluation as evaluation
import memvo.tensor as T
from memvo.evaluation import (KITTI_LENGTHS, SPEED_BIN, STAMP_TOL_S, TUM_DELTA_S,
                              KittiDriftResult, Trajectory, _delta_pairs,
                              _pair_errors, associate_stamps, error_vs_length_rows,
                              error_vs_speed_rows, export_csv, format_kitti, format_tum,
                              kitti_drift, load_sequence, load_trajectory,
                              parse_kitti, parse_tum, saliency_map,
                              save_sequence, save_trajectory, tum_rmse_drift)
from memvo.geometry import (StackError, apply_similarity, euler_to_matrix, make_se3,
                            pose_inverse, rotation_angle, umeyama_align)
from memvo.memory import MemoryPolicy
from memvo.net import VONet
from memvo.synthetic import SyntheticSpec, generate_sequence
from memvo.training import run_window
from memvo.votb import write_votb


def positions(traj):
    """The (N,3) camera positions of a Trajectory."""
    return traj.poses[:, :3, 3].copy()


def random_trajectory(rng, n=400, step_len=1.0, rot_scale=0.03, wobble=0.1):
    """Forward-dominated random walk; covers roughly n*step_len meters."""
    poses, pose = [], np.eye(4)
    for _ in range(n):
        rot = euler_to_matrix(rng.uniform(-rot_scale, rot_scale, 3))
        t = [step_len + rng.uniform(-wobble, wobble),
             rng.uniform(-wobble, wobble), rng.uniform(-wobble, wobble)]
        pose = pose @ make_se3(rot, t)
        # accumulated products drift off SO(3); snap back for valid fixtures
        u, _, vt = np.linalg.svd(pose[:3, :3])
        pose = make_se3(u @ vt, pose[:3, 3])
        poses.append(pose.copy())
    return poses


def perturb(rng, poses, rot_eps=0.002, trans_eps=0.05):
    out = []
    for p in poses:
        noise = make_se3(euler_to_matrix(rng.uniform(-rot_eps, rot_eps, 3)),
                         rng.uniform(-trans_eps, trans_eps, 3))
        q = p @ noise
        u, _, vt = np.linalg.svd(q[:3, :3])
        out.append(make_se3(u @ vt, q[:3, 3]))
    return out


def straight_line(n=900, spacing=1.0):
    return [make_se3(np.eye(3), [i * spacing, 0.0, 0.0]) for i in range(n)]


def kitti_drift_reference(est, gt, lengths, step=1, aggregate="mean"):
    """Definitional re-implementation: linear scans, textbook formulas."""
    pos = np.array([p[:3, 3] for p in gt])
    d = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(pos, axis=0), axis=1))])
    t_errs, r_errs = [], []
    for s in range(0, len(gt), step):
        for length in lengths:
            e = None
            for j in range(s, len(gt)):
                if d[j] >= d[s] + length:
                    e = j
                    break
            if e is None:
                continue
            gt_rel = np.linalg.inv(gt[s]) @ gt[e]
            est_rel = np.linalg.inv(est[s]) @ est[e]
            err = np.linalg.inv(gt_rel) @ est_rel
            t_errs.append(np.linalg.norm(err[:3, 3]) / length)
            c = np.clip((np.trace(err[:3, :3]) - 1.0) / 2.0, -1.0, 1.0)
            r_errs.append(np.arccos(c) / length)
    agg = (lambda v: float(np.mean(v))) if aggregate == "mean" else \
        (lambda v: float(np.sqrt(np.mean(np.square(v)))))
    return 100.0 * agg(t_errs), np.degrees(agg(r_errs)) * 100.0


LoopSegment = namedtuple("LoopSegment", "start length t_err r_err speed")


def kitti_drift_loop(est, gt, lengths, step=1, frame_hz=10.0):
    """The per-segment loop kitti_drift ran before it was vectorised.

    It stopped at the first length that did not fit, which dropped segments
    when lengths were not ascending; here every fitting length is kept, as
    the vectorised code does. Returns LoopSegments in (start, length) order.
    """
    gt_pos = np.array([p[:3, 3] for p in gt])
    dist = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(gt_pos, axis=0), axis=1))])
    segments = []
    for s in range(0, len(gt), step):
        for length in lengths:
            e = int(np.searchsorted(dist, dist[s] + length, side="left"))
            if e >= len(gt):
                continue
            gt_rel = pose_inverse(gt[s]) @ gt[e]
            est_rel = pose_inverse(est[s]) @ est[e]
            err = pose_inverse(gt_rel) @ est_rel
            segments.append(LoopSegment(s, length, float(np.linalg.norm(err[:3, 3])) / length,
                                        rotation_angle(err[:3, :3]) / length,
                                        length / ((e - s) / frame_hz)))
    return segments


def error_vs_speed_rows_loop(result):
    """The dict-of-lists binning error_vs_speed_rows ran before it shared
    kitti_drift's row aggregate."""
    bins = {}
    for seg in result.segments:
        key = round(seg.speed / SPEED_BIN) * SPEED_BIN
        bins.setdefault(key, []).append(seg)
    return [(key, 100.0 * float(np.mean([g.t_err for g in bins[key]])),
             float(np.degrees(float(np.mean([g.r_err for g in bins[key]]))) * 100.0),
             len(bins[key])) for key in sorted(bins)]


def associate_stamps_loop(a, b, tol):
    """The per-stamp loop associate_stamps ran before its candidates were
    built with one searchsorted."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    cands = []
    for i, ta in enumerate(a):
        j0 = int(np.searchsorted(b, ta))
        for j in (j0 - 1, j0):
            if 0 <= j < len(b) and abs(b[j] - ta) <= tol:
                cands.append((abs(b[j] - ta), i, j))
    cands.sort()
    used_a, used_b, pairs = set(), set(), []
    for _, i, j in cands:
        if i in used_a or j in used_b:
            continue
        used_a.add(i)
        used_b.add(j)
        pairs.append((i, j))
    pairs.sort()
    return pairs


def polar_factor(m):
    """The nearest rotation to a 3x3 m in Frobenius norm, from its SVD."""
    u, _, vt = np.linalg.svd(m)
    u[:, 2] *= np.sign(np.linalg.det(u @ vt))
    return u @ vt


def tum_pairs_loop(est, gt, delta=TUM_DELTA_S, tol=STAMP_TOL_S):
    """The pairing and scoring loop tum_rmse_drift ran before it was vectorised.

    Returns ((a, b, error per second) per pair, rmse), with the per-pose
    similarity alignment of that version.
    """
    matches = associate_stamps_loop(est.stamps, gt.stamps, tol)
    est_m = [est.poses[i] for i, _ in matches]
    gt_m = [gt.poses[j] for _, j in matches]
    stamps = np.array([est.stamps[i] for i, _ in matches])
    scale, rot, trans = umeyama_align(np.array([p[:3, 3] for p in est_m]),
                                      np.array([p[:3, 3] for p in gt_m]))
    est_aligned = []
    for pose in est_m:
        q = np.eye(4)
        q[:3, :3] = polar_factor(rot @ pose[:3, :3])
        q[:3, 3] = scale * (rot @ pose[:3, 3]) + trans
        est_aligned.append(q)
    pairs = []
    for a in range(len(stamps)):
        b = int(np.searchsorted(stamps, stamps[a] + delta))
        best = None
        for j in (b - 1, b):
            if a < j < len(stamps) and abs(stamps[j] - stamps[a] - delta) <= tol:
                if best is None or abs(stamps[j] - stamps[a] - delta) < abs(stamps[best] - stamps[a] - delta):
                    best = j
        if best is None:
            continue
        dt = stamps[best] - stamps[a]
        gt_rel = pose_inverse(gt_m[a]) @ gt_m[best]
        est_rel = pose_inverse(est_aligned[a]) @ est_aligned[best]
        err = pose_inverse(gt_rel) @ est_rel
        pairs.append((a, best, float(np.linalg.norm(err[:3, 3])) / dt))
    return pairs, float(np.sqrt(np.mean(np.square([p[2] for p in pairs]))))


def circle_with_z_drift(radius=2000.0, duration=60.0, dt=0.1, rate=0.05):
    """Out-and-back circle plus a linear vertical drift on the estimate.

    The palindromic sweep makes the time-position cross-covariance vanish,
    so similarity alignment cannot absorb the drift into a rotation.
    """
    stamps = np.arange(0.0, duration + dt / 2, dt)
    half = duration / 2.0
    sweep = 2.0 * np.pi
    gt_poses, est_poses = [], []
    for t in stamps:
        u = t if t <= half else duration - t
        ang = sweep * u / half
        p = np.array([radius * np.cos(ang), radius * np.sin(ang), 0.0])
        gt_poses.append(make_se3(np.eye(3), p))
        est_poses.append(make_se3(np.eye(3), p + [0.0, 0.0, rate * t]))
    return Trajectory(stamps, est_poses), Trajectory(stamps, gt_poses)


class TestKittiFormat:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(0)
        poses = random_trajectory(rng, n=20)
        back = parse_kitti(format_kitti(poses))
        assert len(back) == 20
        for a, b in zip(poses, back.poses):
            assert np.array_equal(a, b)

    def test_frame_index_stamps(self):
        traj = parse_kitti(format_kitti(straight_line(5)))
        assert np.array_equal(traj.stamps, np.arange(5.0))

    def test_wrong_token_count_names_line(self):
        good = format_kitti(straight_line(3)).splitlines()
        bad = "\n".join([good[0], "1 2 3", good[2]])
        with pytest.raises(ValueError, match="line 2"):
            parse_kitti(bad)

    def test_non_numeric_names_line(self):
        text = format_kitti(straight_line(2)).replace("0", "zero", 1)
        with pytest.raises(ValueError, match="non-numeric"):
            parse_kitti(text)

    def test_invalid_rotation_rejected(self):
        line = " ".join(["2", "0", "0", "0"] * 3)  # scaled rows, not a rotation
        with pytest.raises(ValueError, match="line 1"):
            parse_kitti(line + "\n")

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no poses"):
            parse_kitti("\n \n")

    def test_blank_lines_skipped(self):
        text = format_kitti(straight_line(2))
        assert len(parse_kitti(text + "\n\n")) == 2

    def test_bad_pose_names_its_line_in_a_stack(self):
        lines = format_kitti(straight_line(5)).splitlines()
        lines[3] = " ".join(["1", "0", "0", "0", "0", "1", "0", "0", "0", "0", "-1", "0"])
        with pytest.raises(ValueError, match="^line 5: matrix has negative determinant"):
            parse_kitti("\n".join(lines[:2] + [""] + lines[2:]))

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "1e999"])
    @pytest.mark.parametrize("where", [0, 3])  # a rotation entry, a translation
    def test_non_finite_rejected(self, token, where):
        lines = format_kitti(straight_line(3)).splitlines()
        values = lines[1].split()
        values[where] = token
        lines[1] = " ".join(values)
        with pytest.raises(ValueError, match="^line 2: non-finite value$"):
            parse_kitti("\n".join(lines))

    @pytest.mark.parametrize("head, line", [
        (b"", 1), (b"1", 1), (b"a\n", 2), (b"a\nb", 2), (b"a\r\n", 2), (b"a\r", 2),
        (b"a\n\n\x0c", 4), ("# \u00e9\n".encode(), 2), (b"a\r\n\r\n1 2", 3)])
    @pytest.mark.parametrize("bad", [b"\xff", b"\x85", b"\xe2\x82"])  # the last one truncated
    def test_non_utf8_byte_names_its_line(self, tmp_path, head, line, bad):
        path = str(tmp_path / "traj.txt")
        with open(path, "wb") as fh:
            fh.write(head + bad + b" 0\n" + format_kitti(straight_line(2)).encode())
        want = "^%s: line %d: not UTF-8 text$" % (re.escape(path), line)
        with pytest.raises(ValueError, match=want):
            load_trajectory(path, "kitti")

    def test_poses_are_one_stack(self):
        traj = parse_kitti(format_kitti(straight_line(4)))
        assert traj.poses.shape == (4, 4, 4)
        assert np.array_equal(positions(traj)[:, 0], np.arange(4.0))


class TestTrajectoryStamps:
    @pytest.mark.parametrize("stamps, index, reason", [
        # associate_stamps pairs only (0, 0) and (3, 3) of these against
        # [0, 1, 2, 3], so tum_rmse_drift would score the wrong pairs
        ([0.0, 2.0, 1.0, 3.0], 2, "timestamps must be strictly increasing"),
        ([0.0, 1.0, 1.0, 3.0], 2, "timestamps must be strictly increasing"),
        ([0.0, np.nan, 2.0, 3.0], 1, "non-finite value"),
        ([-np.inf, 1.0, 2.0, 3.0], 0, "non-finite value"),
        ([0.0, 1.0, 2.0, np.inf], 3, "non-finite value"),
    ])
    def test_bad_stamps_name_the_first(self, stamps, index, reason):
        with pytest.raises(StackError, match="^stamp %d: %s$" % (index, reason)) as info:
            Trajectory(stamps, straight_line(4))
        assert info.value.index == index

    def test_nan_stamp_cannot_reach_a_file(self, tmp_path):
        # it would be written, then refused by load_trajectory
        path = str(tmp_path / "traj.txt")
        with pytest.raises(StackError, match="^stamp 1: non-finite value$"):
            save_trajectory(path, Trajectory([0.0, np.nan], straight_line(2)), "tum")
        assert not os.path.exists(path)

    def test_empty_and_single_stamps_accepted(self):
        assert len(Trajectory([], [])) == 0
        assert len(Trajectory([5.0], straight_line(1))) == 1

    @pytest.mark.parametrize("fmt", ["kitti", "tum"])
    def test_empty_trajectory_cannot_reach_a_file(self, tmp_path, fmt):
        # it would be written as one blank line, then refused by load_trajectory
        path = str(tmp_path / "traj.txt")
        with pytest.raises(ValueError, match="^%s: empty trajectory" % re.escape(path)):
            save_trajectory(path, Trajectory([], []), fmt)
        assert not os.path.exists(path)


class TestTumFormat:
    def _traj(self, n=15, seed=1):
        rng = np.random.default_rng(seed)
        return Trajectory(np.cumsum(rng.uniform(0.05, 0.2, n)),
                          random_trajectory(rng, n=n))

    def test_round_trip(self):
        traj = self._traj()
        back = parse_tum(format_tum(traj))
        assert np.array_equal(back.stamps, traj.stamps)
        for a, b in zip(traj.poses, back.poses):
            assert np.array_equal(a[:3, 3], b[:3, 3])        # positions lossless
            assert np.max(np.abs(a[:3, :3] - b[:3, :3])) < 1e-12  # via quaternion

    def test_comments_and_blanks_skipped_line_numbers_physical(self):
        body = format_tum(self._traj(n=3)).splitlines()
        text = "# header\n\n" + body[0] + "\n" + body[1] + "\nbad line here\n"
        with pytest.raises(ValueError, match="line 5"):
            parse_tum(text)

    def test_non_increasing_stamps_rejected(self):
        t = self._traj(n=3)
        t.stamps[2] = t.stamps[1]
        with pytest.raises(ValueError, match="increasing"):
            parse_tum(format_tum(t))

    def test_bad_quaternion_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_tum("0.0 1 2 3 0 0 0 0\n")

    def test_token_count_rejected(self):
        with pytest.raises(ValueError, match="expected 8"):
            parse_tum("0.0 1 2 3 0 0 0\n")

    @pytest.mark.parametrize("column,token", [(0, "nan"), (0, "inf"), (2, "inf"),
                                              (3, "-inf"), (5, "nan"), (7, "inf")])
    def test_non_finite_rejected(self, column, token):
        lines = format_tum(self._traj(n=4)).splitlines()
        values = lines[2].split()
        values[column] = token
        lines[2] = " ".join(values)
        with pytest.raises(ValueError, match="^line 4: non-finite value$"):
            parse_tum("# comment\n" + "\n".join(lines))

    def test_stack_errors_name_physical_lines(self):
        lines = format_tum(self._traj(n=5)).splitlines()
        text = "# header\n\n" + "\n".join(lines[:3]) + "\n# note\n"
        bad_quat = lines[3].split()[:4] + ["0", "0", "0", "0"]
        with pytest.raises(ValueError, match="^line 7: zero-norm quaternion$"):
            parse_tum(text + " ".join(bad_quat) + "\n" + lines[4])
        stamp = lines[1].split()[0]
        repeat = " ".join([stamp] + lines[3].split()[1:])
        with pytest.raises(ValueError, match="^line 7: timestamps must be strictly increasing$"):
            parse_tum(text + repeat + "\n" + lines[4])

    def test_file_round_trip_and_error_names_file(self, tmp_path):
        traj = self._traj(n=4)
        path = str(tmp_path / "traj.txt")
        save_trajectory(path, traj, "tum")
        back = load_trajectory(path, "tum")
        assert len(back) == 4
        bad = str(tmp_path / "bad.txt")
        with open(bad, "w") as fh:
            fh.write("not a pose\n")
        with pytest.raises(ValueError, match="bad.txt"):
            load_trajectory(bad, "tum")

    @pytest.mark.parametrize("fmt", ["KITTI", "euroc", None])
    def test_unknown_format_names_the_file(self, tmp_path, fmt):
        path = str(tmp_path / "traj.txt")
        with pytest.raises(ValueError, match="^" + re.escape(path) + ": .*'kitti' or 'tum'"):
            save_trajectory(path, self._traj(n=4), fmt)
        assert not os.path.exists(path)
        save_trajectory(path, self._traj(n=4), "tum")
        with pytest.raises(ValueError, match="^" + re.escape(path) + ": .*'kitti' or 'tum'"):
            load_trajectory(path, fmt)


class TestSequenceContainer:
    def test_round_trip_with_poses(self, tmp_path):
        rng = np.random.default_rng(2)
        frames = rng.normal(size=(4, 3, 8, 8))
        frames[1, 2, 3, 4] = -0.0
        poses = random_trajectory(rng, n=4)
        d = str(tmp_path / "seq")
        save_sequence(d, frames, poses)
        assert sorted(os.listdir(d)) == ["frames.votb", "manifest.json", "poses_gt.txt"]
        with open(os.path.join(d, "manifest.json")) as fh:
            assert json.load(fh) == {"format": "memvo-sequence", "version": 2, "poses": True}
        back_frames, back_poses = load_sequence(d)
        assert back_frames.shape == (4, 3, 8, 8)
        assert back_frames.tobytes() == frames.tobytes()  # -0.0 included
        assert back_poses.tobytes() == np.array(poses).tobytes()

    def test_round_trip_without_poses(self, tmp_path):
        frames = np.zeros((2, 3, 4, 4))
        d = str(tmp_path / "seq")
        save_sequence(d, frames)
        assert sorted(os.listdir(d)) == ["frames.votb", "manifest.json"]
        with open(os.path.join(d, "manifest.json")) as fh:
            assert json.load(fh)["poses"] is False
        _, poses = load_sequence(d)
        assert poses is None

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ValueError, match="manifest"):
            load_sequence(str(tmp_path))

    def test_frame_shape_mismatch(self, tmp_path):
        d = str(tmp_path / "seq")
        save_sequence(d, np.zeros((2, 3, 4, 4)))
        blob = os.path.join(d, "frames.votb")
        write_votb(blob, np.zeros((3, 4, 5)))
        with pytest.raises(ValueError, match="^%s: frames has shape \\(3, 4, 5\\), "
                           "want \\(any, any, any, any\\)$" % re.escape(blob)):
            load_sequence(d)

    def test_non_finite_frame_names_the_blob(self, tmp_path):
        d = str(tmp_path / "seq")
        save_sequence(d, np.zeros((3, 3, 4, 4)))
        frames = np.zeros((3, 3, 4, 4))
        frames[1, 2, 0, 3] = np.nan
        blob = os.path.join(d, "frames.votb")
        write_votb(blob, frames)
        with pytest.raises(ValueError, match="^" + re.escape(blob) + ": frames has non-finite"):
            load_sequence(d)

    @pytest.mark.parametrize("what, name", [("frames", "frames.votb"), ("poses", "poses_gt.txt")])
    def test_missing_file_names_it(self, tmp_path, what, name):
        d = str(tmp_path / "seq")
        save_sequence(d, np.zeros((2, 3, 4, 4)), straight_line(2))
        os.remove(os.path.join(d, name))
        mpath = os.path.join(d, "manifest.json")
        with pytest.raises(ValueError, match="^%s: %s names '%s', not a file beside the manifest$"
                           % (re.escape(mpath), what, re.escape(name))):
            load_sequence(d)

    def test_pose_file_with_another_count_names_the_manifest(self, tmp_path):
        d = str(tmp_path / "seq")
        save_sequence(d, np.zeros((3, 3, 4, 4)), straight_line(3))
        with open(os.path.join(d, "poses_gt.txt"), "w") as fh:
            fh.write(format_kitti(straight_line(2)))
        mpath = os.path.join(d, "manifest.json")
        with pytest.raises(ValueError, match="^%s: pose count 2 != frame count 3$"
                           % re.escape(mpath)):
            load_sequence(d)

    def _rewrite_manifest(self, d, **changes):
        mpath = os.path.join(d, "manifest.json")
        with open(mpath) as fh:
            manifest = json.load(fh)
        manifest.update(changes)
        with open(mpath, "w") as fh:
            json.dump(manifest, fh)
        return mpath

    def test_version_1_manifest_refused(self, tmp_path):
        # version 1 restated the blob headers' sizes and named one blob per frame
        d = str(tmp_path / "seq")
        save_sequence(d, np.zeros((2, 3, 4, 4)), straight_line(2))
        mpath = self._rewrite_manifest(
            d, version=1, frame_count=2, channels=3, height=4, width=4,
            frames=["frame_0000.votb", "frame_0001.votb"], pose_file="poses_gt.txt",
            pose_format="kitti")
        with pytest.raises(ValueError, match="^%s: unsupported memvo-sequence version 1$"
                           % re.escape(mpath)):
            load_sequence(d)

    @pytest.mark.parametrize("changes, why", [
        ({"poses": 1}, "poses (true or false) alone"),
        ({"poses": None}, "poses (true or false) alone"),
        ({"frames": ["frames.votb"]}, "poses (true or false) alone"),
        ({"version": 3}, "version 3"),
        ({"poses": "true"}, "poses (true or false) alone"),
        ({"format": "memvo-checkpoint"}, "not a memvo-sequence manifest"),
        ({"version": True}, "version True"),
        ({"version": 2.0}, "version 2.0"),  # 2.0 == 2, the current version
    ])
    def test_bad_manifest_names_the_file(self, tmp_path, changes, why):
        d = str(tmp_path / "seq")
        save_sequence(d, np.zeros((2, 3, 4, 4)))
        mpath = self._rewrite_manifest(d, **changes)
        with pytest.raises(ValueError, match="^" + re.escape(mpath) + ": .*" + re.escape(why)):
            load_sequence(d)

    def test_missing_poses_key_names_the_file(self, tmp_path):
        d = str(tmp_path / "seq")
        save_sequence(d, np.zeros((2, 3, 4, 4)))
        mpath = os.path.join(d, "manifest.json")
        with open(mpath, "w") as fh:
            json.dump({"format": "memvo-sequence", "version": 2}, fh)
        with pytest.raises(ValueError, match="^" + re.escape(mpath) + ": .*alone"):
            load_sequence(d)

    def test_pose_count_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="pose count"):
            save_sequence(str(tmp_path / "seq"), np.zeros((3, 3, 4, 4)),
                          straight_line(2))

    def test_bad_pose_writes_nothing(self, tmp_path):
        poses = straight_line(3)
        poses[2][0, 0] = np.nan
        d = str(tmp_path / "seq")
        os.makedirs(d)
        with pytest.raises(ValueError, match="non-finite"):
            save_sequence(d, np.zeros((3, 3, 4, 4)), poses)
        assert os.listdir(d) == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_frames_write_nothing(self, tmp_path, bad):
        frames = np.zeros((2, 3, 4, 4))
        frames[1, 0, 2, 3] = bad
        d = str(tmp_path / "seq")
        os.makedirs(d)
        with pytest.raises(ValueError, match="^frames have non-finite values$"):
            save_sequence(d, frames, straight_line(2))
        assert os.listdir(d) == []

    def test_bad_frame_rank_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="T,C,H,W"):
            save_sequence(str(tmp_path / "seq"), np.zeros((3, 4, 4)))

    @pytest.mark.parametrize("shape", [(0, 3, 4, 4), (2, 3, 0, 4)])
    def test_empty_extent_writes_nothing(self, tmp_path, shape):
        d = str(tmp_path / "seq")
        os.makedirs(d)
        with pytest.raises(ValueError, match="every extent >= 1"):
            save_sequence(d, np.zeros(shape))
        assert os.listdir(d) == []


class TestKittiDrift:
    def test_est_equals_gt_exactly_zero(self):
        rng = np.random.default_rng(3)
        poses = random_trajectory(rng)
        res = kitti_drift(poses, [p.copy() for p in poses], lengths=(100.0, 200.0))
        assert res.t_rel_percent == 0.0
        assert res.r_rel_deg_per_100m == 0.0

    def test_one_percent_scale_on_straight_line(self):
        gt = straight_line()
        est = [make_se3(np.eye(3), p[:3, 3] * 1.01) for p in gt]
        res = kitti_drift(est, gt)
        assert abs(res.t_rel_percent - 1.0) < 1e-6
        assert res.r_rel_deg_per_100m == 0.0
        # all eight lengths fit in a 899 m track
        assert [row[0] for row in res.per_length] == list(KITTI_LENGTHS)
        assert res.per_length[0][3] == 800  # starts 0..799 close a 100 m segment

    def test_matches_definitional_reference(self):
        rng = np.random.default_rng(4)
        for trial in range(6):
            gt = random_trajectory(rng, n=300)
            est = perturb(rng, gt)
            step = (1, 3)[trial % 2]
            agg = ("mean", "rmse")[trial % 2]
            res = kitti_drift(est, gt, lengths=(50.0, 120.0), step=step, aggregate=agg)
            t_ref, r_ref = kitti_drift_reference(est, gt, (50.0, 120.0), step, agg)
            assert abs(res.t_rel_percent - t_ref) < 1e-9, trial
            assert abs(res.r_rel_deg_per_100m - r_ref) < 1e-9, trial

    def test_rigid_invariance(self):
        rng = np.random.default_rng(5)
        gt = random_trajectory(rng, n=250)
        est = perturb(rng, gt)
        g = make_se3(euler_to_matrix(np.array([0.4, -0.2, 1.1])), [50.0, -20.0, 7.0])
        res = kitti_drift(est, gt, lengths=(60.0, 150.0))
        moved = kitti_drift([g @ p for p in est], [g @ p for p in gt],
                            lengths=(60.0, 150.0))
        assert abs(res.t_rel_percent - moved.t_rel_percent) < 1e-9
        assert abs(res.r_rel_deg_per_100m - moved.r_rel_deg_per_100m) < 1e-9

    def test_rmse_at_least_mean(self):
        rng = np.random.default_rng(6)
        gt = random_trajectory(rng, n=250)
        est = perturb(rng, gt)
        mean = kitti_drift(est, gt, lengths=(60.0,), aggregate="mean")
        rmse = kitti_drift(est, gt, lengths=(60.0,), aggregate="rmse")
        assert rmse.t_rel_percent >= mean.t_rel_percent

    def test_step_thins_segments(self):
        gt = straight_line()
        est = [make_se3(np.eye(3), p[:3, 3] * 1.01) for p in gt]
        res = kitti_drift(est, gt, lengths=(100.0,), step=5)
        assert res.per_length[0][3] == 160
        assert abs(res.t_rel_percent - 1.0) < 1e-6

    def test_speed_uses_frame_rate(self):
        gt = straight_line()  # 1 m per frame
        res = kitti_drift(gt, gt, lengths=(100.0,), frame_hz=10.0)
        assert abs(res.segments[0].speed - 10.0) < 1e-9

    def test_lengths_in_any_order(self):
        gt = straight_line(300)
        est = [make_se3(np.eye(3), p[:3, 3] * 1.01) for p in gt]
        up = kitti_drift(est, gt, lengths=(100.0, 200.0))
        down = kitti_drift(est, gt, lengths=(200.0, 100.0))
        assert [row[3] for row in up.per_length] == [200, 100]
        assert down.per_length == up.per_length[::-1]
        assert len(down.segments) == len(up.segments) == 300
        assert down.t_rel_percent == up.t_rel_percent
        assert down.r_rel_deg_per_100m == up.r_rel_deg_per_100m
        rng = np.random.default_rng(8)
        gt = random_trajectory(rng, n=300)
        est = perturb(rng, gt)
        want = kitti_drift_reference(est, gt, (100.0, 200.0))
        for lengths in ((100.0, 200.0), (200.0, 100.0)):
            res = kitti_drift(est, gt, lengths=lengths)
            assert abs(res.t_rel_percent - want[0]) < 1e-9
            assert abs(res.r_rel_deg_per_100m - want[1]) < 1e-9

    @pytest.mark.parametrize("lengths", [(0.0,), (-5.0,), (100.0, np.nan), (np.inf,)])
    def test_bad_lengths_rejected(self, lengths):
        gt = straight_line(200)
        with pytest.raises(ValueError, match="lengths"):
            kitti_drift(gt, gt, lengths=lengths)

    def test_empty_lengths_rejected_before_any_pose(self):
        gt = straight_line(300)
        for lengths in ([], (), np.array([])):
            with pytest.raises(ValueError, match="^lengths must hold at least one length"):
                kitti_drift(gt, gt, lengths=lengths)
            with pytest.raises(ValueError, match="^lengths must hold"):
                kitti_drift(gt[:-1], [np.full((4, 4), np.nan)] * 3, lengths=lengths)

    def test_repeated_length_rejected(self):
        # each segment of the repeated length would be scored twice
        gt = straight_line(20, spacing=30.0)
        assert len(kitti_drift(gt, gt, lengths=(100.0,)).segments) == 16
        for lengths in ((100.0, 100.0), (100, 200.0, 100.0)):
            with pytest.raises(ValueError, match="^lengths must be distinct"):
                kitti_drift(gt, gt, lengths=lengths)

    @pytest.mark.parametrize("frame_hz", [0.0, -10.0, np.nan, np.inf, True, "10", None])
    def test_bad_frame_hz_rejected(self, frame_hz):
        gt = straight_line(200)
        with pytest.raises(ValueError, match="frame_hz"):
            kitti_drift(gt, gt, lengths=(100.0,), frame_hz=frame_hz)

    def test_numpy_and_int_frame_hz_accepted(self):
        gt = straight_line(200)
        want = kitti_drift(gt, gt, lengths=(100.0,), frame_hz=10.0).segments
        for frame_hz in (10, np.float64(10.0), np.int64(10)):
            got = kitti_drift(gt, gt, lengths=(100.0,), frame_hz=frame_hz).segments
            assert np.array_equal(got, want)

    def test_non_finite_pose_rejected(self):
        gt = straight_line(200)
        est = [p.copy() for p in gt]
        est[17][1, 3] = np.nan
        with pytest.raises(ValueError, match="pose 17: pose has non-finite"):
            kitti_drift(est, gt, lengths=(100.0,))

    def test_validation(self):
        gt = straight_line(200)
        with pytest.raises(ValueError, match="poses"):
            kitti_drift(gt[:-1], gt)
        for step in (0, 1.5, np.nan, "2", True):
            with pytest.raises(ValueError, match="^step must be an int >= 1"):
                kitti_drift(gt, gt, step=step)
        numpy_step = kitti_drift(gt, gt, lengths=(100.0,), step=np.int64(3))
        assert len(numpy_step.segments) == len(kitti_drift(gt, gt, lengths=(100.0,), step=3).segments)
        with pytest.raises(ValueError, match="aggregate"):
            kitti_drift(gt, gt, lengths=(100.0,), aggregate="median")
        # the arguments are checked before any pose is
        with pytest.raises(ValueError, match="aggregate"):
            kitti_drift(gt[:-1], gt, aggregate="median")
        with pytest.raises(ValueError, match="too short"):
            kitti_drift(gt[:5], gt[:5])

    def test_csv_row_helpers(self, tmp_path):
        gt = straight_line()
        est = [make_se3(np.eye(3), p[:3, 3] * 1.01) for p in gt]
        res = kitti_drift(est, gt, lengths=(100.0, 200.0))
        header, rows = error_vs_length_rows(res)
        assert header[0] == "length_m"
        assert [r[0] for r in rows] == [100, 200]
        # a length is written as given: the defaults as before, fractions kept
        for lengths, want in ((KITTI_LENGTHS[:2], ["100", "200"]),
                              ((50.5, 50.7), ["50.5", "50.7"]), ((45, 90.0), ["45", "90"])):
            path = str(tmp_path / "lengths.csv")
            export_csv(path, *error_vs_length_rows(kitti_drift(est, gt, lengths=lengths)))
            with open(path) as fh:
                assert [row.split(",")[0] for row in fh.read().splitlines()[1:]] == want
        header, rows = error_vs_speed_rows(res)
        assert header[0] == "speed_mps"
        assert sum(r[3] for r in rows) == len(res.segments)

    def test_speed_rows_match_hand_binning(self):
        # 2 m/s bins, rounded half to even: 3.0 and 5.0 both land in 4.0
        speeds = [0.9, 1.1, 3.0, 5.0, 4.9, 7.2, 2.99, 8.8]
        t_err = [0.01 * (i + 1) for i in range(len(speeds))]
        r_err = [0.001 * (i + 2) for i in range(len(speeds))]
        segs = np.rec.fromrecords([(i, 100.0, t, r, v)
                                   for i, (t, r, v) in enumerate(zip(t_err, r_err, speeds))],
                                  names="start,length,t_err,r_err,speed")
        res = KittiDriftResult(0.0, 0.0, [], segs)
        bins = {0.0: [0], 2.0: [1, 6], 4.0: [2, 3, 4], 8.0: [5, 7]}
        want = [(key, 100.0 * np.mean([t_err[i] for i in idx]),
                 np.degrees(np.mean([r_err[i] for i in idx])) * 100.0, len(idx))
                for key, idx in bins.items()]
        header, rows = error_vs_speed_rows(res)
        assert [r[0] for r in rows] == [0.0, 2.0, 4.0, 8.0]
        assert [r[3] for r in rows] == [1, 2, 3, 2]
        assert rows == want

    def test_speed_rows_match_loop(self):
        rng = np.random.default_rng(31)
        for step, agg in ((1, "mean"), (3, "rmse")):
            # varied step lengths give segments across several speed bins
            gt = random_trajectory(rng, n=300, wobble=0.9)
            res = kitti_drift(perturb(rng, gt), gt, lengths=(20.0, 45, 90.0), step=step,
                              aggregate=agg)
            rows = error_vs_speed_rows(res)[1]
            assert len(rows) >= 3
            assert rows == error_vs_speed_rows_loop(res)


class TestVectorisedAgainstLoop:
    """The vectorised drift metrics against the loops they replaced."""

    def test_kitti_segments_match_loop(self):
        rng = np.random.default_rng(30)
        for trial in range(4):
            gt = random_trajectory(rng, n=250)
            est = perturb(rng, gt)
            step = (1, 3)[trial % 2]
            agg = ("mean", "rmse")[trial // 2]
            lengths = ((40.0, 90.0, 150.0), (150.0, 40.0, 90.0))[trial % 2]
            res = kitti_drift(est, gt, lengths=lengths, step=step, aggregate=agg, frame_hz=7.0)
            want = kitti_drift_loop(est, gt, lengths, step=step, frame_hz=7.0)
            assert len(res.segments) == len(want) > 0
            for got, ref in zip(res.segments, want):
                assert (got.start, got.length) == (ref.start, ref.length)
                assert abs(got.t_err - ref.t_err) < 1e-12
                assert abs(got.r_err - ref.r_err) < 1e-12
                assert abs(got.speed - ref.speed) < 1e-12
            t_ref, r_ref = kitti_drift_reference(est, gt, lengths, step, agg)
            assert abs(res.t_rel_percent - t_ref) < 1e-9
            assert abs(res.r_rel_deg_per_100m - r_ref) < 1e-9

    def test_segment_table_contract(self):
        # the benchmark reads segments by len, by row attribute and by column
        rng = np.random.default_rng(32)
        gt = random_trajectory(rng, n=250)
        est = perturb(rng, gt)
        segs = kitti_drift(est, gt, lengths=(90.0, 40.0), step=2, frame_hz=7.0).segments
        want = kitti_drift_loop(est, gt, (90.0, 40.0), step=2, frame_hz=7.0)
        assert isinstance(segs, np.recarray)
        assert segs.dtype.names == LoopSegment._fields
        assert [segs.dtype[k] for k in range(5)] == ([np.dtype(np.int64)]
                                                     + [np.dtype(np.float64)] * 4)
        assert len(segs) == len(want) > 0
        rows = list(segs)
        assert len(rows) == len(want)
        for name in LoopSegment._fields:
            ref = np.array([getattr(w, name) for w in want])
            assert np.array_equal([getattr(g, name) for g in rows], getattr(segs, name))
            if name in ("start", "length"):
                assert np.array_equal(getattr(segs, name), ref), name
            else:
                assert np.max(np.abs(getattr(segs, name) - ref)) < 1e-12, name
        assert segs[0].speed == segs.speed[0]

    def _jittered(self, rng, n=400):
        """Stamps 1/64 s apart with delta 1 + 1/128 s: every target falls exactly
        midway between two stamps, so the b-1/b tie rule decides. A quarter
        of the stamps are jittered, which breaks some ties either way."""
        stamps = np.arange(n) / 64.0
        moved = rng.random(n) < 0.25
        stamps[moved] += rng.choice([-1.0, 1.0], moved.sum()) / 1024.0
        gt = Trajectory(stamps, random_trajectory(rng, n=n, step_len=0.1))
        est = Trajectory(stamps, perturb(rng, list(gt.poses), trans_eps=0.01))
        return est, gt

    def test_tum_pairs_match_loop(self):
        rng = np.random.default_rng(31)
        delta, tol = 1.0 + 1.0 / 128.0, 1.0 / 64.0
        for _ in range(3):
            est, gt = self._jittered(rng)
            want, rmse = tum_pairs_loop(est, gt, delta=delta, tol=tol)
            a, b = _delta_pairs(est.stamps, delta, tol)
            assert list(zip(a.tolist(), b.tolist())) == [(p[0], p[1]) for p in want]
            s = est.stamps
            after = np.minimum(b + 1, len(s) - 1)
            ties = (b + 1 < len(s)) & (np.abs(s[b] - s[a] - delta) == np.abs(s[after] - s[a] - delta))
            assert ties.sum() > 10  # pairs where b-1 won a tie against b
            want, rmse = tum_pairs_loop(est, gt)
            res = tum_rmse_drift(est, gt)
            assert res.pairs == len(want)
            assert abs(res.rmse_m_per_s - rmse) < 1e-12

    def test_tum_pair_errors_match_loop(self):
        rng = np.random.default_rng(32)
        est, gt = self._jittered(rng)
        want, _ = tum_pairs_loop(est, gt)
        a = np.array([p[0] for p in want])
        b = np.array([p[1] for p in want])
        scale, rot, trans = umeyama_align(positions(est), positions(gt))
        aligned = apply_similarity(scale, rot, trans, est.poses)
        t_err, _ = _pair_errors(aligned, pose_inverse(aligned), gt.poses, pose_inverse(gt.poses),
                                a, b)
        per_s = t_err / (est.stamps[b] - est.stamps[a])
        assert np.max(np.abs(per_s - [p[2] for p in want])) < 1e-12


def bench_workloads():
    """perfbench/workloads.py, loaded by path: it builds the benchmark's inputs."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed, before", [(1, 0.0001000000000795591),
                                          (1001, 0.00010000000008073882)])
def test_tum_drift_on_the_benchmark_walk(tmp_path, seed, before):
    # before: the eval-drift value while apply_similarity still re-projected
    # each aligned rotation with an SVD; TUM scores them as the alignment gives them
    bench = bench_workloads().EvalDrift("full", seed, str(tmp_path))
    bench.setup()
    res = bench.run("tum")[2]
    assert res.pairs == 4531 and res.matches == 4541
    assert abs(res.rmse_m_per_s - before) <= 1e-12 * before


def stamped(stamps):
    """A Trajectory of identity poses at the given stamps."""
    return Trajectory(stamps, np.tile(np.eye(4), (len(stamps), 1, 1)))


class TestAssociate:
    def test_identical_stamps(self):
        s = stamped(np.arange(10, dtype=np.float64))
        assert associate_stamps(s, s) == [(i, i) for i in range(10)]

    def test_offset_within_tolerance(self):
        a = np.arange(5, dtype=np.float64)
        assert associate_stamps(stamped(a), stamped(a + 0.015)) == [(i, i) for i in range(5)]

    def test_outside_tolerance_unmatched(self):
        assert associate_stamps(stamped([0.0, 1.0]), stamped([0.5])) == []
        assert associate_stamps(stamped([0.0]), stamped([STAMP_TOL_S * 1.5])) == []

    def test_one_to_one_greedy(self):
        # two est stamps near one gt stamp: only the closer one matches
        pairs = associate_stamps(stamped([0.99, 1.0]), stamped([1.0]))
        assert pairs == [(1, 0)]

    def test_matches_loop(self):
        rng = np.random.default_rng(32)
        for trial in range(300):
            if trial % 2:
                # stamps on a 1/64 s grid: gaps of 0 and 1/64 s lie within the
                # tolerance, so many are exactly equal and broken by (i, j)
                a = np.sort(rng.choice(200, size=rng.integers(0, 60), replace=False)) / 64.0
                b = np.sort(rng.choice(200, size=rng.integers(0, 60), replace=False)) / 64.0
            else:
                a = np.sort(rng.uniform(0.0, 3.0, size=rng.integers(0, 60)))
                b = np.sort(rng.uniform(0.0, 3.0, size=rng.integers(0, 60)))
            got = associate_stamps(stamped(a), stamped(b))
            assert got == associate_stamps_loop(a, b, STAMP_TOL_S)
            assert all(type(i) is int and type(j) is int for i, j in got)

    def test_unordered_stamps_are_refused(self):
        # as raw arrays, [0, 2, 1, 3] was silently paired with [0, 1, 2, 3]
        # as [(0, 0), (3, 3)]; a Trajectory refuses it before any matching
        with pytest.raises(ValueError, match="^stamp 2: timestamps must be strictly increasing$"):
            associate_stamps(stamped([0.0, 1.0, 2.0, 3.0]), stamped([0.0, 2.0, 1.0, 3.0]))

    def test_takes_only_trajectories(self):
        s = stamped([0.0, 1.0])
        for a, b in ((s.stamps, s), (s, [0.0, 1.0]), (s.stamps, s.stamps)):
            with pytest.raises(TypeError, match="^associate_stamps needs two Trajectory objects, "
                               "got "):
                associate_stamps(a, b)


class TestTumDrift:
    def _circle(self, **kw):
        return circle_with_z_drift(**kw)

    def test_est_equals_gt_is_zero(self):
        est, gt = self._circle(rate=0.0)
        res = tum_rmse_drift(est, gt)
        assert res.rmse_m_per_s < 1e-9
        assert abs(res.scale - 1.0) < 1e-9

    def test_scale_recovered(self):
        est, gt = self._circle(rate=0.0)
        doubled = Trajectory(est.stamps,
                             [make_se3(p[:3, :3], p[:3, 3] * 2.0) for p in est.poses])
        res = tum_rmse_drift(doubled, gt)
        assert res.rmse_m_per_s < 1e-9
        assert abs(res.scale - 0.5) < 1e-9

    def test_linear_drift_recovered(self):
        est, gt = self._circle(rate=0.05)
        res = tum_rmse_drift(est, gt)
        assert abs(res.rmse_m_per_s - 0.05) < 1e-6
        assert res.pairs > 500

    def test_association_offset_tolerated(self):
        est, gt = self._circle(rate=0.0)
        shifted = Trajectory(est.stamps + 0.004, est.poses)
        res = tum_rmse_drift(shifted, gt)
        assert res.matches == len(gt)

    def test_too_few_matches(self):
        est, gt = self._circle()
        lone = Trajectory(est.stamps[:2], est.poses[:2])
        with pytest.raises(ValueError, match="matches"):
            tum_rmse_drift(lone, Trajectory(gt.stamps[:2], gt.poses[:2]))

    def test_no_pairs_delta_apart(self):
        est, gt = self._circle(duration=0.5)
        with pytest.raises(ValueError, match="apart"):
            tum_rmse_drift(est, gt)


class TestSaliency:
    def _setup(self, frames=5, seed=0):
        model = VONet(preset="tiny", seed=seed)
        seq = generate_sequence(SyntheticSpec(frames=frames, height=32, width=32,
                                              seed=seed))
        policy = MemoryPolicy(theta_rot=0.0, theta_trans=0.0, max_slots=10)
        return model, seq.frames, policy

    def test_tracking_target_ignores_future_frames(self):
        model, frames, policy = self._setup()
        maps = saliency_map(model, frames, policy, target=2, which="tracking")
        assert len(maps) == 5
        assert all(m.shape == (32, 32) for m in maps)
        assert np.any(maps[1] > 0) and np.any(maps[2] > 0)
        assert np.all(maps[3] == 0) and np.all(maps[4] == 0)

    def test_refined_live_memory_sees_whole_window(self):
        # slots from later frames feed attention at step 1, so even the last
        # frame influences the first refined pose
        model, frames, policy = self._setup(seed=1)
        maps = saliency_map(model, frames, policy, target=1, which="refined")
        assert all(np.any(m > 0) for m in maps)

    def test_refined_detached_memory_blocks_future(self):
        # the saliency of the first refined pose through a detached memory, as
        # training runs it: later frames reach that pose through no path
        model, frames, policy = self._setup(seed=2)
        leaves = [T.Tensor(f, requires_grad=True) for f in frames]
        pose = run_window(model, leaves, policy, detach_memory=True).abs_tensors[0]
        T.div(T.tsum(pose), float(pose.data.size)).backward()
        assert leaves[0].grad is not None and np.any(leaves[0].grad != 0)
        assert leaves[1].grad is not None and np.any(leaves[1].grad != 0)
        assert all(leaf.grad is None or np.all(leaf.grad == 0) for leaf in leaves[2:])

    def test_validation(self, monkeypatch):
        model, frames, policy = self._setup(seed=3)
        # which and target are checked before the window runs
        monkeypatch.setattr(evaluation, "run_window", None)
        with pytest.raises(ValueError, match="which"):
            saliency_map(model, frames, policy, which="magic")
        for target in (0, -1, 1.5, True, "2", float("nan")):
            with pytest.raises(ValueError, match="^target must be an int >= 1"):
                saliency_map(model, frames, policy, target=target)
        with pytest.raises(ValueError, match=re.escape("target must be a frame index in [1, 4]")):
            saliency_map(model, frames, policy, target=5)


class TestExportCsv:
    def test_formats(self, tmp_path):
        path = str(tmp_path / "out.csv")
        export_csv(path, ["a", "b", "c"], [(1, 0.123456789123, "x")])
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "a,b,c"
        assert lines[1] == "1,0.123456789,x"
