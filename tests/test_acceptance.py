"""Acceptance suite: nine release criteria, one pass/fail line each.

Every test prints its verdict with the measured numbers straight to the
terminal (bypassing capture) so a full run always shows nine lines.
Tolerances are part of the release contract; do not loosen them.
"""

import hashlib
import json
import os
import time

import numpy as np
import pytest

import memvo.tensor as T
from memvo.evaluation import (Trajectory, format_kitti, kitti_drift,
                              parse_kitti, parse_tum, tum_rmse_drift)
from memvo.geometry import (euler_to_matrix, integrate_relative, make_se3,
                            matrix_to_euler, matrix_to_quat, pose_compose,
                            pose_inverse, quat_to_matrix, translation,
                            umeyama_align)
from memvo.memory import MemoryBuffer, MemoryPolicy, MemorySlot
from memvo.net import VONet, load_checkpoint, save_checkpoint
from memvo.refining import guided_memory, spatial_weights, temporal_weights
from memvo.synthetic import SyntheticSpec, generate_dataset, generate_sequence
from memvo.training import (TrainConfig, loss_global, loss_local, loss_total,
                            run_window, train, window_ground_truth)
from memvo.votb import read_votb, write_votb


def report(capsys, number, name, ok, detail):
    with capsys.disabled():
        print("criterion %d %s  %s: %s" % (number, "PASS" if ok else "FAIL",
                                           name, detail))
    assert ok, "criterion %d (%s): %s" % (number, name, detail)


# --- criterion 1: gradient correctness on the desk preset -------------------

def test_criterion_1_gradient_correctness(capsys):
    start = time.monotonic()
    model = VONet(preset="desk", seed=0)
    seq = generate_sequence(SyntheticSpec(frames=3, height=64, width=64,
                                          kind="mixed", seed=21))
    gt_rels, gt_abs = window_ground_truth(seq.poses, 0, 3)
    policy = MemoryPolicy(theta_rot=0.0, theta_trans=0.0, max_slots=10)

    def full_loss(_):
        res = run_window(model, list(seq.frames), policy, detach_memory=False)
        return loss_total(res.track.rels, gt_rels, res.abs_tensors, gt_abs, k=100.0)

    rng = np.random.default_rng(0)
    worst, worst_name = 0.0, ""
    for name, param in model.params.items():
        coords = rng.choice(param.data.size, size=min(3, param.data.size),
                            replace=False)
        err = T.finite_diff_check(full_loss, param, h=1e-5, coords=coords)
        if err > worst:
            worst, worst_name = err, name
    elapsed = time.monotonic() - start
    ok = worst < 1e-4 and elapsed < 120.0
    report(capsys, 1, "gradient correctness",
           ok, "max rel err %.3g (< 1e-4) at %s, all %d param tensors, %.0f s (< 120)"
           % (worst, worst_name, len(model.params), elapsed))


# --- criterion 2: attention invariants ---------------------------------------

def _softmax_ref(x):
    e = np.exp(x - np.max(x))
    return e / e.sum()


def _cos_ref(a, b):
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a.ravel(), b.ravel()) / (na * nb))


def _guided_memory_ref(guidance, states):
    c = states[0].shape[0]
    alpha = _softmax_ref(np.array([_cos_ref(guidance, m) for m in states]))
    total = np.zeros_like(states[0])
    for a, m in zip(alpha, states):
        cc = np.array([_cos_ref(guidance[ch], m[ch]) for ch in range(c)])
        total += a * ((c * _softmax_ref(cc))[:, None, None] * m)
    return total


def test_criterion_2_attention_invariants(capsys):
    rng = np.random.default_rng(2)
    worst_alpha = worst_beta = worst_mem = 0.0
    scaling_exact = True
    for _ in range(1000):
        c = int(rng.choice([2, 3, 4, 8]))
        hw = int(rng.integers(2, 4))
        n = int(rng.integers(1, 9))
        states = [rng.normal(size=(c, hw, hw)) for _ in range(n)]
        slots = [MemorySlot(i, T.Tensor(s), np.eye(4)) for i, s in enumerate(states)]
        g = rng.normal(size=(c, hw, hw))

        memory = T.stack([s.state for s in slots])
        alpha = temporal_weights(T.Tensor(g), memory).data
        worst_alpha = max(worst_alpha, abs(alpha.sum() - 1.0))
        for s in slots:
            beta = spatial_weights(T.Tensor(g), s.state).data
            worst_beta = max(worst_beta, abs(beta.mean() - 1.0))
        mem = guided_memory(T.Tensor(g), memory).data
        worst_mem = max(worst_mem, float(np.max(np.abs(mem - _guided_memory_ref(g, states)))))
        scale = float(2.0 ** rng.integers(-3, 4))
        scaled = temporal_weights(T.Tensor(g * scale), memory).data
        scaling_exact = scaling_exact and np.array_equal(scaled, alpha)
    ok = worst_alpha < 1e-9 and worst_beta < 1e-9 and worst_mem < 1e-12 and scaling_exact
    report(capsys, 2, "attention invariants", ok,
           "1000 cases: |sum a - 1| %.2g (< 1e-9), |mean b - 1| %.2g (< 1e-9), "
           "|guided - oracle| %.2g (< 1e-12), scaling exact %s"
           % (worst_alpha, worst_beta, worst_mem, scaling_exact))


# --- criterion 3: memory selection equals brute-force replay -----------------

def _replay_ref(poses, theta_rot, theta_trans, max_slots, require_both):
    kept, anchor = [], None
    for i, pose in enumerate(poses):
        if anchor is not None:
            rel = np.linalg.inv(anchor) @ pose
            rot = np.linalg.norm(matrix_to_euler(rel[:3, :3]))
            trans = np.linalg.norm(rel[:3, 3])
            hit_r, hit_t = rot >= theta_rot, trans >= theta_trans
            if not ((hit_r and hit_t) if require_both else (hit_r or hit_t)):
                continue
        kept.append(i)
        anchor = pose
    return kept[-max_slots:]


def _random_stream(rng, n=50):
    pose, poses = np.eye(4), []
    for _ in range(n):
        step = make_se3(euler_to_matrix(rng.uniform(-0.15, 0.15, 3)),
                        rng.uniform(-0.8, 0.8, 3))
        pose = pose @ step
        u, _, vt = np.linalg.svd(pose[:3, :3])
        pose = make_se3(u @ vt, pose[:3, 3])
        poses.append(pose.copy())
    return poses


def test_criterion_3_memory_selection_oracle(capsys):
    rng = np.random.default_rng(3)
    mismatches = 0
    for _ in range(500):
        poses = _random_stream(rng)
        theta_rot = float(rng.uniform(0.0, 0.3))
        theta_trans = float(rng.uniform(0.0, 2.0))
        max_slots = int(rng.integers(1, 13))
        require_both = bool(rng.integers(0, 2))
        buf = MemoryBuffer(MemoryPolicy(theta_rot=theta_rot, theta_trans=theta_trans,
                                        max_slots=max_slots, require_both=require_both))
        for i, p in enumerate(poses):
            buf.observe(T.Tensor(np.zeros((2, 2, 2))), p, frame=i)
        if buf.frames() != _replay_ref(poses, theta_rot, theta_trans, max_slots,
                                       require_both):
            mismatches += 1

    poses = _random_stream(rng)
    zero = MemoryBuffer(MemoryPolicy(theta_rot=0.0, theta_trans=0.0, max_slots=100))
    for i, p in enumerate(poses):
        zero.observe(T.Tensor(np.zeros((2, 2, 2))), p, frame=i)
    stores_all = zero.frames() == list(range(50))

    def count(tr, tt):
        buf = MemoryBuffer(MemoryPolicy(theta_rot=tr, theta_trans=tt, max_slots=1000))
        for i, p in enumerate(poses):
            buf.observe(T.Tensor(np.zeros((2, 2, 2))), p, frame=i)
        return len(buf)

    grid = [0.0, 0.02, 0.1, 0.5, 2.0]
    monotone = all(count(hi, 0.5) <= count(lo, 0.5) and count(0.05, hi) <= count(0.05, lo)
                   for lo, hi in zip(grid, grid[1:]))
    ok = mismatches == 0 and stores_all and monotone
    report(capsys, 3, "memory selection oracle", ok,
           "500 streams, %d mismatches; theta=0 stores all %s; monotone %s"
           % (mismatches, stores_all, monotone))


# --- criterion 4: geometry round trips ----------------------------------------

def test_criterion_4_geometry(capsys):
    rng = np.random.default_rng(4)
    worst_euler = worst_quat = 0.0
    for _ in range(300):
        phi = np.array([rng.uniform(-np.pi, np.pi), rng.uniform(-1.4, 1.4),
                        rng.uniform(-np.pi, np.pi)])
        r = euler_to_matrix(phi)
        worst_euler = max(worst_euler, float(np.max(np.abs(matrix_to_euler(r) - phi))))
        q = matrix_to_quat(r)
        worst_quat = max(worst_quat, float(np.max(np.abs(quat_to_matrix(q) - r))))

    worst_chain = 0.0
    for _ in range(50):
        pose, poses = np.eye(4), [np.eye(4)]
        for _ in range(30):
            pose = pose_compose(pose, make_se3(euler_to_matrix(rng.uniform(-0.4, 0.4, 3)),
                                               rng.uniform(-1, 1, 3)))
            poses.append(pose)
        rels = [pose_compose(pose_inverse(a), b) for a, b in zip(poses, poses[1:])]
        rebuilt = integrate_relative([p for p in rels], origin=poses[0])
        worst_chain = max(worst_chain,
                          max(float(np.max(np.abs(a - b))) for a, b in zip(rebuilt, poses)))

    worst_umeyama = 0.0
    for _ in range(100):
        pts = rng.normal(size=(12, 3)) * 5.0
        s_true = float(rng.uniform(0.2, 5.0))
        r_true = euler_to_matrix(rng.uniform(-np.pi, np.pi, 3) * [1, 0.44, 1])
        t_true = rng.uniform(-10, 10, 3)
        moved = s_true * (pts @ r_true.T) + t_true
        s, r, t = umeyama_align(pts, moved)
        worst_umeyama = max(worst_umeyama, abs(s - s_true),
                            float(np.max(np.abs(r - r_true))),
                            float(np.max(np.abs(t - t_true))))
    ok = max(worst_euler, worst_quat, worst_chain, worst_umeyama) < 1e-9
    report(capsys, 4, "geometry round trips", ok,
           "euler %.2g, quat %.2g, integrate %.2g, umeyama %.2g (all < 1e-9)"
           % (worst_euler, worst_quat, worst_chain, worst_umeyama))


# --- criterion 5: drift metrics ------------------------------------------------

def _kitti_ref(est, gt, lengths, step):
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
    return 100.0 * float(np.mean(t_errs)), float(np.degrees(np.mean(r_errs))) * 100.0


def _wander(rng, n, step_len=1.0):
    pose, poses = np.eye(4), []
    for _ in range(n):
        pose = pose @ make_se3(euler_to_matrix(rng.uniform(-0.03, 0.03, 3)),
                               [step_len + rng.uniform(-0.1, 0.1),
                                rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1)])
        u, _, vt = np.linalg.svd(pose[:3, :3])
        pose = make_se3(u @ vt, pose[:3, 3])
        poses.append(pose.copy())
    return poses


def test_criterion_5_drift_metrics(capsys):
    rng = np.random.default_rng(5)

    ident = _wander(rng, 300)
    self_res = kitti_drift(ident, [p.copy() for p in ident], lengths=(100.0, 200.0))
    zero_ok = self_res.t_rel_percent == 0.0 and self_res.r_rel_deg_per_100m == 0.0

    gt_line = [make_se3(np.eye(3), [i * 1.0, 0, 0]) for i in range(900)]
    est_line = [make_se3(np.eye(3), [i * 1.01, 0, 0]) for i in range(900)]
    line_err = abs(kitti_drift(est_line, gt_line).t_rel_percent - 1.0)

    worst_ref = 0.0
    for _ in range(100):
        gt = _wander(rng, 150)
        est = []
        for p in gt:
            q = p @ make_se3(euler_to_matrix(rng.uniform(-0.002, 0.002, 3)),
                             rng.uniform(-0.05, 0.05, 3))
            u, _, vt = np.linalg.svd(q[:3, :3])
            est.append(make_se3(u @ vt, q[:3, 3]))
        mine = kitti_drift(est, gt, lengths=(30.0, 60.0), step=3)
        t_ref, r_ref = _kitti_ref(est, gt, (30.0, 60.0), 3)
        worst_ref = max(worst_ref, abs(mine.t_rel_percent - t_ref),
                        abs(mine.r_rel_deg_per_100m - r_ref))

    stamps = np.arange(0.0, 60.0 + 0.05, 0.1)
    half, sweep, radius, rate = 30.0, 2 * np.pi, 2000.0, 0.05
    gt_poses, est_poses = [], []
    for t in stamps:
        u = t if t <= half else 60.0 - t
        ang = sweep * u / half
        p = np.array([radius * np.cos(ang), radius * np.sin(ang), 0.0])
        gt_poses.append(make_se3(np.eye(3), p))
        est_poses.append(make_se3(np.eye(3), p + [0.0, 0.0, rate * t]))
    tum = tum_rmse_drift(Trajectory(stamps, est_poses), Trajectory(stamps, gt_poses))
    tum_err = abs(tum.rmse_m_per_s - rate)

    ok = zero_ok and line_err < 1e-6 and worst_ref < 1e-9 and tum_err < 1e-6
    report(capsys, 5, "drift metrics", ok,
           "est=gt exact (0,0) %s; straight-line |t_rel-1%%| %.2g (< 1e-6); "
           "ref delta %.2g over 100 trajectories (< 1e-9); tum drift err %.2g (< 1e-6)"
           % (zero_ok, line_err, worst_ref, tum_err))


# --- criterion 6: toy training improves and refinement helps -------------------

def test_criterion_6_toy_training(capsys):
    start = time.monotonic()
    base = SyntheticSpec(frames=11, height=64, width=64, kind="mixed",
                         max_shift=1.5, max_yaw=0.02, seed=0)
    dataset = generate_dataset(8, base, seed=1)
    held_out = generate_sequence(SyntheticSpec(frames=11, height=64, width=64,
                                               kind="mixed", max_shift=1.5,
                                               max_yaw=0.02, seed=999))
    config = TrainConfig(window_length=11, batch_size=4, base_lr=1e-3, k=100.0,
                         seed=0, preset="desk", iterations=500)
    model, history = train(dataset, config)
    ratio = history[-1][3] / history[0][3]

    res = run_window(model, list(held_out.frames), config.policy())
    _, gt_abs = window_ground_truth(held_out.poses, 0, 11)
    gt_end = gt_abs[-1].p
    track_end = translation(integrate_relative(res.track.rel_poses())[-1])
    refined_end = res.refined_poses()[-1].p
    e_track = float(np.linalg.norm(track_end - gt_end))
    e_refined = float(np.linalg.norm(refined_end - gt_end))
    elapsed = time.monotonic() - start
    ok = ratio < 0.5 and e_refined <= e_track and elapsed < 600.0
    report(capsys, 6, "toy training", ok,
           "loss ratio %.3f (< 0.5); held-out endpoint refined %.4f <= tracking %.4f; "
           "%.0f s (< 600)" % (ratio, e_refined, e_track, elapsed))


# --- criterion 7: loss hand cases ---------------------------------------------

def test_criterion_7_loss_formulas(capsys):
    def vec(p=(0, 0, 0), phi=(0, 0, 0)):
        return T.Tensor(np.array(list(p) + list(phi), dtype=np.float64))

    zero = [np.zeros(6), np.zeros(6)]
    local = loss_local([vec(p=(1, 0, 0), phi=(0.1, 0, 0)),
                        vec(p=(0, 2, 0), phi=(0, 0.1, 0))], zero, k=100.0)
    local_err = abs(local.data - 11.5)

    e1, e2 = 0.75, 0.5
    glob = loss_global([vec(p=(e1, 0, 0)), vec(p=(0, 0, e2))], zero, k=100.0)
    glob_err = abs(glob.data - (e1 + e2 / 2.0))

    rng = np.random.default_rng(7)
    pred = [T.Tensor(rng.normal(size=6)) for _ in range(3)]
    gt = [rng.normal(size=6) * 0.1 for _ in range(3)]
    at0 = loss_local(pred, gt, k=0.0).data
    slope = loss_local(pred, gt, k=1.0).data - at0
    lin_err = max(abs(loss_local(pred, gt, k=k).data - (at0 + k * slope))
                  / max(1.0, abs(at0 + k * slope))
                  for k in (0.5, 2.0, 7.25, 100.0))
    ok = local_err < 1e-12 and glob_err < 1e-12 and lin_err < 1e-12
    report(capsys, 7, "loss formulas", ok,
           "11.5 case err %.2g, weighted-sum case err %.2g, k-linearity err %.2g "
           "(all < 1e-12)" % (local_err, glob_err, lin_err))


# --- criterion 8: CLI determinism ----------------------------------------------

def _tree_digest(root):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            h.update(os.path.relpath(full, root).encode())
            h.update(open(full, "rb").read())
    return h.hexdigest()


def test_criterion_8_cli_determinism(capsys, tmp_path):
    from memvo.cli import main

    spec_path = str(tmp_path / "spec.json")
    with open(spec_path, "w") as fh:
        json.dump({"frames": 6, "height": 32, "width": 32, "max_shift": 1.0,
                   "max_yaw": 0.05, "seed": 3}, fh)
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump({"window_length": 4, "batch_size": 2, "base_lr": 1e-3,
                   "k": 10.0, "theta_rot": 0.0, "theta_trans": 0.0,
                   "memory_size": 4, "preset": "tiny", "iterations": 2}, fh)

    same = {}
    for tag in ("a", "b"):
        d = tmp_path / tag
        d.mkdir()
        seq = str(d / "seq")
        run = str(d / "run")
        est = str(d / "est.txt")
        sal = str(d / "sal")
        plots = str(d / "plots")
        csv = str(d / "metrics.csv")
        assert main(["synth-data", "--spec", spec_path, "--out", seq, "--seed", "7"]) == 0
        assert main(["train", "--config", cfg_path, "--data", seq, "--out", run,
                     "--seed", "7"]) == 0
        ckpt = os.path.join(run, "checkpoint")
        assert main(["infer", "--ckpt", ckpt, "--data", seq, "--out", est,
                     "--window", "4"]) == 0
        # eval and plot-data need >= 100 m of path; feed a synthetic line
        line = str(d / "line.txt")
        with open(line, "w") as fh:
            fh.write(format_kitti([make_se3(np.eye(3), [i, 0, 0]) for i in range(300)]))
        assert main(["eval", "--format", "kitti", "--est", line, "--gt", line,
                     "--out", csv]) == 0
        assert main(["saliency", "--ckpt", ckpt, "--data", seq, "--out", sal,
                     "--window", "4"]) == 0
        assert main(["plot-data", "--est", line, "--gt", line, "--out", plots]) == 0
        same[tag] = _tree_digest(str(d))
    ok = same["a"] == same["b"]
    report(capsys, 8, "CLI determinism", ok,
           "six subcommands rerun with seed 7: digests %s" %
           ("identical" if ok else "differ"))


# --- criterion 9: format rejection and bit-exact round trips --------------------

def test_criterion_9_formats(capsys, tmp_path):
    rejected = 0
    for bad in ("1 2 3\n", "a b c d e f g h i j k l\n",
                "2 0 0 0 0 2 0 0 0 0 2 0\n"):
        with pytest.raises(ValueError):
            parse_kitti(bad)
        rejected += 1
    for bad in ("1 2 3 4 5 6 7\n", "1 0 0 0 0 0 0 1\n0.5 0 0 0 0 0 0 1\n",
                "0 1 2 3 0 0 0 0\n"):
        with pytest.raises(ValueError):
            parse_tum(bad)
        rejected += 1

    rng = np.random.default_rng(9)
    arr = rng.normal(size=(3, 5, 7))
    arr[0, 0, 0] = -0.0
    path = str(tmp_path / "x.votb")
    write_votb(path, arr)
    votb_exact = read_votb(path).tobytes() == arr.tobytes()
    with open(path, "rb") as fh:
        blob = fh.read()
    with open(path, "wb") as fh:
        fh.write(blob[:-8])
    with pytest.raises(ValueError):
        read_votb(path)
    rejected += 1

    model = VONet(preset="tiny", seed=9)
    for p in model.params.values():
        p.data += rng.normal(size=p.data.shape) * 0.01
    ck = str(tmp_path / "ckpt")
    save_checkpoint(model, ck)
    back = load_checkpoint(ck)
    ckpt_exact = all(model.params[n].data.tobytes() == back.params[n].data.tobytes()
                     for n in model.params)
    write_votb(os.path.join(ck, "head.track.bias.votb"), np.zeros(7))
    with pytest.raises(ValueError):
        load_checkpoint(ck)
    rejected += 1

    ok = votb_exact and ckpt_exact
    report(capsys, 9, "formats", ok,
           "%d malformed inputs rejected; votb bit-exact %s; checkpoint bit-exact %s"
           % (rejected, votb_exact, ckpt_exact))
