import dataclasses
import json
import os
import re
import subprocess
import sys
import weakref

import numpy as np
import pytest

import memvo.geometry as geometry
import memvo.memory as memory
import memvo.tensor as T
import memvo.training as training
from memvo.geometry import (Pose6DoF, StackError, euler_to_matrix, integrate_relative, make_se3,
                            matrix_to_euler, pose_compose, pose_inverse)
from memvo.memory import MemoryBuffer, MemoryPolicy
from memvo.net import PRESETS, VONet
from memvo.refining import guided_observation, recalibrate
from memvo.synthetic import SyntheticSpec, generate_dataset, generate_sequence
from memvo.training import (ADAM_WEIGHT_DECAY, Adam, TrainConfig, TrainingDiverged,
                            _pose_term, loss_global, loss_local, loss_total, lr_at,
                            run_window, sliding_window_infer, track_windows, train,
                            window_ground_truth, window_loss)
from test_net import use_fused_cell
from test_tensor import conv2d_tensordot


def vec(p=(0, 0, 0), phi=(0, 0, 0)):
    return T.Tensor(np.array(list(p) + list(phi), dtype=np.float64))


def pose6dof(pose):
    """The Pose6DoF of a checked 4x4 pose: its translation and Euler angles."""
    return Pose6DoF(pose[:3, 3], matrix_to_euler(pose[:3, :3]))


def zero_pose():
    return Pose6DoF(p=np.zeros(3), phi=np.zeros(3))


class TestTrainConfig:
    def test_defaults(self):
        c = TrainConfig()
        assert c.window_length == 11 and c.batch_size == 4
        assert c.base_lr == 1e-4 and c.decay_every == 60000
        assert c.k == 100.0 and c.memory_size == 11

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(window_length=1)
        with pytest.raises(ValueError):
            TrainConfig(base_lr=0.0)
        with pytest.raises(ValueError, match="base_lr must be positive and finite"):
            TrainConfig(base_lr=float("inf"))
        with pytest.raises(ValueError, match="k must be non-negative and finite"):
            TrainConfig(k=float("inf"))
        with pytest.raises(ValueError):
            TrainConfig(iterations=0)
        with pytest.raises(ValueError):
            TrainConfig(preset="nope")

    def test_json_round_trip(self, tmp_path):
        c = TrainConfig(window_length=5, base_lr=3e-4, preset="tiny", seed=9)
        path = str(tmp_path / "cfg.json")
        c.to_json(path)
        assert TrainConfig.from_json(path) == c

    def test_unknown_field_rejected(self, tmp_path):
        path = str(tmp_path / "cfg.json")
        with open(path, "w") as fh:
            fh.write('{"window_length": 5, "warp_drive": true}')
        with pytest.raises(ValueError, match="warp_drive"):
            TrainConfig.from_json(path)

    @pytest.mark.parametrize("raw, why", [
        ({"seed": "x"}, "seed must be int"),
        ({"batch_size": True}, "batch_size must be int"),
        ({"memory_require_both": 1}, "memory_require_both must be bool"),
        ({"base_lr": "1e-3"}, "base_lr must be float"),
        ({"preset": 3}, "preset must be str"),
        ({"window_length": 1}, "window_length must be at least 2"),
        ([1, 2], "must be a JSON object"),
        ({"base_lr": float("nan")}, "malformed JSON"),
        ({"k": float("inf")}, "malformed JSON"),
        ({"theta_rot": -1}, "thresholds must be nonnegative"),
        ({"memory_size": 0}, "max_slots must be at least 1"),
        ({"seed": -1}, "seed must be >= 0"),
        ({"k": -1}, "k must be non-negative"),
    ])
    def test_bad_values_name_the_file(self, tmp_path, raw, why):
        path = str(tmp_path / "cfg.json")
        with open(path, "w") as fh:
            json.dump(raw, fh)
        with pytest.raises(ValueError) as err:
            TrainConfig.from_json(path)
        assert str(err.value).startswith(path + ": ") and why in str(err.value)

    def test_malformed_json_names_the_file(self, tmp_path):
        path = str(tmp_path / "cfg.json")
        with open(path, "w") as fh:
            fh.write('{"seed": ')
        with pytest.raises(ValueError, match="^" + re.escape(path + ": ")):
            TrainConfig.from_json(path)

    def test_overflowing_number_names_the_file(self, tmp_path):
        path = str(tmp_path / "cfg.json")
        with open(path, "w") as fh:
            fh.write('{"k": 1e999}')
        want = "^" + re.escape(path) + ": malformed JSON: non-finite"
        with pytest.raises(ValueError, match=want):
            TrainConfig.from_json(path)

    def test_int_accepted_for_float(self, tmp_path):
        path = str(tmp_path / "cfg.json")
        with open(path, "w") as fh:
            json.dump({"base_lr": 1, "k": 10}, fh)
        c = TrainConfig.from_json(path)
        assert c.base_lr == 1.0 and c.k == 10.0

    def test_memory_fields_checked_when_built(self):
        for bad in ({"theta_rot": float("nan")}, {"theta_trans": -0.1}, {"memory_size": 0},
                    {"base_lr": float("nan")}):
            with pytest.raises(ValueError):
                TrainConfig(**bad)
        assert TrainConfig().policy() == MemoryPolicy()

    def test_fields_cannot_be_assigned(self):
        c = TrainConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.seed = 3
        assert dataclasses.replace(c, seed=3).seed == 3 and c.seed == 0

    def test_policy_mapping(self):
        c = TrainConfig(theta_rot=0.1, theta_trans=2.0, memory_size=3,
                        memory_require_both=True)
        p = c.policy()
        assert p == MemoryPolicy(theta_rot=0.1, theta_trans=2.0, max_slots=3,
                                 require_both=True)


class TestLrSchedule:
    def test_halving_boundaries(self):
        assert lr_at(0, 1e-4, 60000) == 1e-4
        assert lr_at(59999, 1e-4, 60000) == 1e-4
        assert lr_at(60000, 1e-4, 60000) == 0.5e-4
        assert lr_at(120000, 1e-4, 60000) == 0.25e-4

    def test_small_period(self):
        assert [lr_at(i, 8.0, 2) for i in range(6)] == [8, 8, 4, 4, 2, 2]


class TestLossLocal:
    def test_pred_equals_gt_is_zero(self):
        gt = [Pose6DoF(p=np.array([1.0, 2, 3]), phi=np.array([0.1, 0, 0]))]
        pred = [T.Tensor(gt[0].to_vector())]
        assert loss_local(pred, gt, k=100.0).data == 0.0

    def test_unit_translation_any_k(self):
        gt = [zero_pose()]
        for k in (0.0, 1.0, 100.0):
            out = loss_local([vec(p=(1, 0, 0))], gt, k=k)
            assert abs(out.data - 1.0) < 1e-15

    def test_hand_case_eleven_point_five(self):
        # two steps, translation error norms 1 and 2, rotation error norm 0.1
        # each, k=100: (1/2)*((1 + 100*0.1) + (2 + 100*0.1)) = 11.5
        pred = [vec(p=(1, 0, 0), phi=(0.1, 0, 0)),
                vec(p=(0, 2, 0), phi=(0, 0.1, 0))]
        gt = [zero_pose(), zero_pose()]
        out = loss_local(pred, gt, k=100.0)
        assert abs(out.data - 11.5) < 1e-12

    def test_angle_difference_wraps(self):
        # yaw +pi-eps against -pi+eps is 2 eps apart, not 2 pi - 2 eps
        eps, k = 1e-3, 100.0
        pred = vec(p=(0.3, -0.2, 0.1), phi=(0.0, 0.0, np.pi - eps))
        gt = np.array([0.3, -0.2, 0.1, 0.0, 0.0, -np.pi + eps])
        assert abs(_pose_term(pred, gt, k).data - 2 * eps * k) < 1e-12
        flipped = vec(p=(0.3, -0.2, 0.1), phi=(0.0, 0.0, -np.pi + eps))
        gt_flipped = np.array([0.3, -0.2, 0.1, 0.0, 0.0, np.pi - eps])
        assert abs(_pose_term(flipped, gt_flipped, k).data - 2 * eps * k) < 1e-12
        half_turn = _pose_term(vec(phi=(np.pi, 0.0, 0.0)), np.array([0, 0, 0, -np.pi, 0, 0]), k)
        assert abs(half_turn.data) < 1e-12
        # the wrap is a constant shift, so the gradient is the unwrapped one
        x = T.Tensor(pred.data.copy(), requires_grad=True)
        gt_full = gt + np.array([0.0, 0.0, 0.0, 0.4, -2.0 * np.pi + 0.2, 0.0])
        assert T.finite_diff_check(lambda t: _pose_term(t, gt_full, k), x) < 1e-7
        x.zero_grad()
        _pose_term(x, gt, k).backward()
        # raising the predicted yaw toward pi closes the wrapped gap
        assert np.allclose(x.grad[3:], [0.0, 0.0, -k])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            loss_local([vec()], [zero_pose(), zero_pose()], k=1.0)
        with pytest.raises(ValueError):
            loss_local([], [], k=1.0)

    def test_k_linearity(self):
        rng = np.random.default_rng(0)
        pred = [T.Tensor(rng.normal(size=6)) for _ in range(3)]
        gt = [Pose6DoF.from_vector(rng.normal(size=6) * 0.1) for _ in range(3)]
        at0 = loss_local(pred, gt, k=0.0).data
        slope = loss_local(pred, gt, k=1.0).data - at0
        for k in (0.5, 2.0, 7.25, 100.0):
            got = loss_local(pred, gt, k=k).data
            assert abs(got - (at0 + k * slope)) < 1e-12 * max(1.0, abs(got))


class TestLossGlobal:
    def test_pred_equals_gt_is_zero(self):
        gt = [Pose6DoF(p=np.array([0.5, 0, 0]), phi=np.zeros(3))] * 2
        pred = [T.Tensor(g.to_vector()) for g in gt]
        assert loss_global(pred, gt, k=100.0).data == 0.0

    def test_hand_case_inverse_index_weights(self):
        # errors e1, e2 with exact rotations weight as e1 + e2/2
        e1, e2 = 0.75, 0.5
        pred = [vec(p=(e1, 0, 0)), vec(p=(0, 0, e2))]
        gt = [zero_pose(), zero_pose()]
        out = loss_global(pred, gt, k=100.0)
        assert abs(out.data - (e1 + e2 / 2.0)) < 1e-12

    def test_four_frame_term_by_term(self):
        rng = np.random.default_rng(1)
        k = 37.5
        pred = [T.Tensor(rng.normal(size=6)) for _ in range(4)]
        gt = [Pose6DoF.from_vector(rng.normal(size=6) * 0.1) for _ in range(4)]
        expect = 0.0
        for i, (pr, g) in enumerate(zip(pred, gt), start=1):
            d = pr.data - g.to_vector()
            expect += (np.linalg.norm(d[:3]) + k * np.linalg.norm(d[3:])) / i
        out = loss_global(pred, gt, k=k)
        assert abs(out.data - expect) < 1e-12

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            loss_global([vec()], [], k=1.0)


def loop_losses(pred_rels, gt_rels, pred_abs, gt_abs, k):
    """The two summing loops and the ceil-based angle wrap the losses had
    before they shared _pose_terms and geometry.wrap_angle."""
    def term(pred, gt):
        diff = T.add(pred, T.Tensor(-gt.to_vector()))
        dp, dphi = T.slice1d(diff, 0, 3), T.slice1d(diff, 3, 6)
        dphi = T.add(dphi, T.Tensor(-2.0 * np.pi * np.ceil((dphi.data - np.pi) / (2.0 * np.pi))))
        return T.add(T.l2_norm(dp), T.mul(T.l2_norm(dphi), float(k)))

    local = None
    for pred, gt in zip(pred_rels, gt_rels):
        t = term(pred, gt)
        local = t if local is None else T.add(local, t)
    glob = None
    for i, (pred, gt) in enumerate(zip(pred_abs, gt_abs), start=1):
        t = T.div(term(pred, gt), float(i))
        glob = t if glob is None else T.add(glob, t)
    return T.div(local, float(len(pred_rels))), glob


class TestLossesAgainstLoops:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_values_and_gradients_bit_identical(self, seed):
        # angle differences inside (-pi, pi], where both wraps are exact
        rng = np.random.default_rng(seed)
        x = T.Tensor(rng.normal(size=6), requires_grad=True)
        preds = [T.mul(x, float(s)) for s in rng.uniform(-0.4, 0.4, size=5)]
        gts = [Pose6DoF.from_vector(rng.normal(size=6) * 0.2) for _ in range(5)]
        got = []
        for losses in (lambda: (loss_local(preds[:3], gts[:3], 37.5),
                                loss_global(preds, gts, 37.5)),
                       lambda: loop_losses(preds[:3], gts[:3], preds, gts, 37.5)):
            local, glob = losses()
            x.zero_grad()
            T.add(local, glob).backward()
            got.append((local.data.tobytes(), glob.data.tobytes(), x.grad.tobytes()))
        assert got[0] == got[1]

    def test_error_messages_name_the_loss(self):
        with pytest.raises(ValueError, match="^loss_local needs matching non-empty pose lists$"):
            loss_local([vec()], [], k=1.0)
        with pytest.raises(ValueError, match="^loss_global needs matching non-empty pose lists$"):
            loss_global([], [], k=1.0)


class TestLossTotal:
    def test_simple_sum(self):
        pred_r = [vec(p=(1.5, 0, 0))]
        pred_a = [vec(p=(0, 2.5, 0))]
        gt = [zero_pose()]
        out = loss_total(pred_r, gt, pred_a, gt, k=100.0)
        assert abs(out.data - 4.0) < 1e-12

    def test_gradcheck(self):
        rng = np.random.default_rng(2)
        x = T.Tensor(rng.normal(size=6), requires_grad=True)
        gt = [Pose6DoF.from_vector(rng.normal(size=6))]

        def f(_):
            return loss_total([x], gt, [T.mul(x, 2.0)], gt, k=3.0)

        assert T.finite_diff_check(f, x) < 1e-7


class TestAdam:
    def test_none_grad_skipped_entirely(self):
        p = T.Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam({"p": p})
        opt.step(lr=0.1)
        assert p.data[0] == 1.0  # decay only applies to touched params

    def test_single_step_matches_hand_formula(self):
        g = np.array([2.0, -0.5])
        p = T.Tensor(np.array([1.0, 1.0]), requires_grad=True)
        p.grad = g.copy()
        opt = Adam({"p": p})
        opt.step(lr=0.01)
        # bias correction cancels the (1-beta) factors on the first step
        expect = (1.0 - 0.01 * ADAM_WEIGHT_DECAY) - 0.01 * g / (np.abs(g) + 1e-8)
        assert np.max(np.abs(p.data - expect)) < 1e-15

    def test_decay_applied_before_update(self):
        p = T.Tensor(np.array([10.0]), requires_grad=True)
        p.grad = np.zeros(1)
        opt = Adam({"p": p})
        opt.step(lr=0.5)
        assert p.data[0] == 10.0 - 0.5 * ADAM_WEIGHT_DECAY * 10.0

    def test_nonfinite_gradient_names_parameter(self):
        p = T.Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([np.nan])
        opt = Adam({"encoder.l1.kernel": p})
        with pytest.raises(TrainingDiverged, match="encoder.l1.kernel"):
            opt.step(lr=0.1)

    def test_nan_in_last_gradient_changes_nothing(self):
        params = VONet(preset="tiny", seed=0).params
        opt = Adam(params)
        for p in params.values():
            p.grad = np.ones_like(p.data)
        opt.step(lr=0.1)  # nonzero moments to watch
        last = list(params)[-1]
        params[last].grad[-1] = np.nan
        before = {n: (p.data.copy(), opt.m[n].copy(), opt.v[n].copy()) for n, p in params.items()}
        with pytest.raises(TrainingDiverged, match=last):
            opt.step(lr=0.1)
        assert opt.t == 1
        for n, p in params.items():
            assert np.array_equal(p.data, before[n][0]), n
            assert np.array_equal(opt.m[n], before[n][1]), n
            assert np.array_equal(opt.v[n], before[n][2]), n

    def test_two_params_independent(self):
        a = T.Tensor(np.array([1.0]), requires_grad=True)
        b = T.Tensor(np.array([1.0]), requires_grad=True)
        a.grad = np.array([1.0])
        b.grad = np.array([-1.0])
        opt = Adam({"a": a, "b": b})
        opt.step(lr=0.1)
        assert a.data[0] < 1.0 < b.data[0]


def tiny_dataset(n=2, frames=6, seed=0):
    spec = SyntheticSpec(frames=frames, height=32, width=32, max_shift=1.0,
                         max_yaw=0.05, seed=seed)
    return generate_dataset(n, spec, seed=seed)


def tiny_config(**kw):
    base = dict(window_length=4, batch_size=2, base_lr=1e-3, k=10.0,
                theta_rot=0.0, theta_trans=0.0, memory_size=4, seed=0,
                preset="tiny", iterations=3)
    base.update(kw)
    return TrainConfig(**base)


class TestWindowPipeline:
    def test_window_ground_truth_consistency(self):
        seq = generate_sequence(SyntheticSpec(frames=8, height=32, width=32, seed=3))
        gt_rels, gt_abs = window_ground_truth(seq.poses, start=2, length=5)
        assert len(gt_rels) == len(gt_abs) == 4
        # composing the relatives from identity must land on the anchored abs
        chain = integrate_relative(gt_rels)
        for got, want in zip(chain[1:], gt_abs):
            assert np.max(np.abs(got - want.to_matrix())) < 1e-9

    def test_window_ground_truth_bit_identical_to_per_pose_calls(self):
        # the per-pose form window_ground_truth had before it took stacks
        rng = np.random.default_rng(9)
        poses = [np.eye(4)]
        for _ in range(12):
            step = make_se3(euler_to_matrix(rng.uniform(-0.4, 0.4, 3)), rng.normal(size=3))
            poses.append(pose_compose(poses[-1], step))
        for seq_poses in (poses, np.stack(poses)):
            for start, length in ((0, 13), (3, 5), (11, 2)):
                gt_rels, gt_abs = window_ground_truth(seq_poses, start, length)
                origin_inv = pose_inverse(poses[start])
                for i, t in enumerate(range(start + 1, start + length)):
                    rel = pose6dof(pose_compose(pose_inverse(poses[t - 1]), poses[t]))
                    glob = pose6dof(pose_compose(origin_inv, poses[t]))
                    for got, want in ((gt_rels[i], rel), (gt_abs[i], glob)):
                        assert np.array_equal(got.p, want.p) and np.array_equal(got.phi, want.phi)
                assert len(gt_rels) == len(gt_abs) == length - 1
        assert window_ground_truth(poses, 4, 1) == ([], [])
        for start, length in ((-1, 3), (11, 3), (0, 14), (0, 0), (13, 1)):
            with pytest.raises(ValueError, match=r"^window \[%d, %d\) does not lie inside "
                               r"the 13 poses$" % (start, start + length)):
                window_ground_truth(poses, start, length)

    def test_window_ground_truth_checks_the_window_once(self, monkeypatch):
        real, calls = geometry._rotation_faults, []

        def counted(r):
            calls.append(r.shape)
            return real(r)

        seq = generate_sequence(SyntheticSpec(frames=8, height=32, width=32, seed=3))
        monkeypatch.setattr(geometry, "_rotation_faults", counted)
        window_ground_truth(seq.poses, start=2, length=5)
        assert calls == [(5, 3, 3)]
        bad = list(seq.poses)
        bad[4] = bad[4].copy()
        bad[4][:3, :3] *= 1.01
        with pytest.raises(StackError, match="^pose 2: matrix is not orthonormal"):
            window_ground_truth(bad, start=2, length=5)

    def test_run_window_shapes_and_memory(self):
        model = VONet(preset="tiny", seed=0)
        seq = generate_sequence(SyntheticSpec(frames=5, height=32, width=32, seed=4))
        res = run_window(model, seq.frames, MemoryPolicy(theta_rot=0.0, theta_trans=0.0,
                                                         max_slots=10))
        assert len(res.track.rels) == 4
        assert len(res.abs_tensors) == 4
        assert len(res.buffer) == 4
        assert len(res.refined_poses()) == 4

    def test_run_window_detach_flag(self):
        model = VONet(preset="tiny", seed=0)
        seq = generate_sequence(SyntheticSpec(frames=3, height=32, width=32, seed=5))
        policy = MemoryPolicy(theta_rot=0.0, theta_trans=0.0, max_slots=5)
        detached = run_window(model, seq.frames, policy, detach_memory=True)
        live = run_window(model, seq.frames, policy, detach_memory=False)
        assert all(not s.state.requires_grad for s in detached.buffer.slots)
        assert any(s.state.requires_grad for s in live.buffer.slots)

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_run_window_refine_steps_keeps_the_first_k_poses(self, k):
        # a 3-slot FIFO over 5 stored frames: selection must still see the whole window
        model = VONet(preset="tiny", seed=0)
        seq = generate_sequence(SyntheticSpec(frames=6, height=32, width=32, seed=4))
        policy = MemoryPolicy(theta_rot=0.0, theta_trans=0.0, max_slots=3)
        full = run_window(model, seq.frames, policy)
        part = run_window(model, seq.frames, policy, refine_steps=k)
        assert len(part.abs_tensors) == k
        for got, want in zip(part.abs_tensors, full.abs_tensors[:k]):
            assert np.array_equal(got.data, want.data)
        for name in ("feats", "outs", "rels"):
            for got, want in zip(getattr(part.track, name), getattr(full.track, name),
                                 strict=True):
                assert np.array_equal(got.data, want.data), name
        assert part.buffer.frames() == full.buffer.frames() == [3, 4, 5]

    def test_run_window_refine_steps_validation(self):
        model = VONet(preset="tiny", seed=0)
        seq = generate_sequence(SyntheticSpec(frames=4, height=32, width=32, seed=4))
        policy = MemoryPolicy(theta_rot=0.0, theta_trans=0.0, max_slots=3)
        for k in (0, 4, 1.5, True, np.nan):  # 4 is the window, one more than its pairs
            with pytest.raises(ValueError, match="^refine_steps must be"):
                run_window(model, seq.frames, policy, refine_steps=k)

    @pytest.mark.parametrize("detach_memory", [False, True])
    def test_gradients_match_per_step_stack_oracle(self, monkeypatch, detach_memory):
        # window_loss always detaches the memory, so the live case runs its steps here
        seq = generate_sequence(SyntheticSpec(frames=6, height=32, width=32, seed=6))
        cfg = tiny_config(window_length=6, memory_size=6)
        gt_rels, gt_abs = window_ground_truth(seq.poses, 0, 6)
        grads = []
        for refine in (training.refine_sequence, refine_sequence_per_step_stack):
            monkeypatch.setattr(training, "refine_sequence", refine)
            model = VONet(preset="tiny", seed=1)
            res = run_window(model, seq.frames, cfg.policy(), detach_memory=detach_memory)
            local = loss_local(res.track.rels, gt_rels, cfg.k)
            glob = loss_global(res.abs_tensors, gt_abs, cfg.k)
            assert len(res.buffer) == 5
            T.add(local, glob).backward()
            grads.append({name: p.grad for name, p in model.params.items()})
        for name, g in grads[0].items():
            assert np.max(np.abs(g - grads[1][name])) < 1e-12, name

    @pytest.mark.parametrize("preset", ["tiny", "desk"])
    def test_window_matches_the_fused_oracle(self, monkeypatch, preset):
        # the split cell against the fused conv over [x; h] it replaced: the
        # tracked and refined poses and every parameter gradient of window_loss
        side = PRESETS[preset].height
        seq = generate_sequence(SyntheticSpec(frames=7, height=side, width=side, seed=12))
        cfg = TrainConfig(preset=preset, window_length=7, theta_rot=0.0, theta_trans=0.0)
        runs = []
        for fused in (False, True):
            if fused:
                use_fused_cell(monkeypatch)
            model = VONet(preset=preset, seed=4)
            local, glob, res = window_loss(model, seq, 0, cfg, cfg.policy())
            T.add(local, glob).backward()
            runs.append((res, {name: p.grad for name, p in model.params.items()}))
        (got, got_grads), (want, want_grads) = runs
        for a, b in zip(got.track.rels + got.abs_tensors, want.track.rels + want.abs_tensors,
                        strict=True):
            assert np.max(np.abs(a.data - b.data)) < 1e-12
        assert got.buffer.frames() == want.buffer.frames()
        for name, g in got_grads.items():
            assert np.max(np.abs(g - want_grads[name])) < 1e-12, name

    def test_window_loss_finite_and_positive(self):
        model = VONet(preset="tiny", seed=1)
        seq = generate_sequence(SyntheticSpec(frames=6, height=32, width=32, seed=6))
        cfg = tiny_config()
        local, glob, _ = window_loss(model, seq, 0, cfg, cfg.policy())
        assert np.isfinite(local.data) and local.data > 0
        assert np.isfinite(glob.data) and glob.data > 0



def refine_sequence_per_step_stack(model, feats, slots):
    """refine_sequence before the memory was stacked once per window: both
    attentions stack the slot states again at every step. The oracle for the
    gradients a live memory (detach_memory=False) passes back."""
    state = None
    guidance = T.Tensor(np.zeros((model.hidden,) + model.extents))
    abs_poses = []
    for feat in feats:
        alpha = T.softmax(T.cosine_similarity(guidance, T.stack([s.state for s in slots])))
        mem = T.weighted_sum(alpha, recalibrate(guidance, T.stack([s.state for s in slots])))
        fused = model.fuse(mem, guided_observation(guidance, feat))
        state = model.refine_step(model.cell_input("refine", fused), state)
        guidance = state[0]
        abs_poses.append(model.pose_head("refine", guidance))
    return abs_poses


def batch_mean_one_graph(dataset, config):
    """First-iteration gradients as one graph over the whole batch mean and one
    backward(): the oracle for train's per-window backward. Returns the model,
    holding the gradients, and the batch-mean loss."""
    rng = np.random.default_rng(config.seed)
    model = VONet(preset=config.preset, seed=config.seed)
    policy = config.policy()
    batch_total = None
    for _ in range(config.batch_size):
        seq = dataset[int(rng.integers(len(dataset)))]
        start = int(rng.integers(len(seq.frames) - config.window_length + 1))
        local, glob, _ = window_loss(model, seq, start, config, policy)
        total = T.add(local, glob)
        batch_total = total if batch_total is None else T.add(batch_total, total)
    batch_total = T.div(batch_total, float(config.batch_size))
    batch_total.backward()
    return model, float(batch_total.data)


class TestDeferredKernelGradients:
    """Every VONet.params gradient on the desk preset, where the encoder's
    l5-l9, both ConvLSTM stages and both fuse convs defer their kernel
    gradients, against the immediate conv2d of the tests' oracle."""

    @staticmethod
    def both(monkeypatch, run):
        grads = []
        for conv in (T.conv2d, conv2d_tensordot):
            monkeypatch.setattr(T, "conv2d", conv)
            grads.append({name: p.grad for name, p in run().params.items()})
        for name, g in grads[0].items():
            assert np.max(np.abs(g - grads[1][name])) < 1e-12, name

    def test_one_desk_window(self, monkeypatch):
        seq = generate_sequence(SyntheticSpec(frames=11, height=64, width=64, seed=8))
        cfg = TrainConfig(preset="desk", window_length=11)

        def run():
            model = VONet(preset="desk", seed=0)
            T.add(*window_loss(model, seq, 0, cfg, cfg.policy())[:2]).backward()
            return model

        self.both(monkeypatch, run)

    def test_four_window_desk_batch(self, monkeypatch):
        data = generate_dataset(3, SyntheticSpec(frames=12, height=64, width=64, seed=9), seed=9)
        cfg = TrainConfig(preset="desk", window_length=11, batch_size=4, iterations=1, seed=3)
        self.both(monkeypatch, lambda: train(data, cfg)[0])  # p.grad keeps the batch's gradients


class TestTrain:
    def test_history_and_determinism(self):
        data = tiny_dataset()
        cfg = tiny_config()
        model_a, hist_a = train(data, cfg)
        model_b, hist_b = train(data, cfg)
        assert len(hist_a) == 3
        assert all(len(row) == 4 for row in hist_a)
        assert [r[0] for r in hist_a] == [0, 1, 2]
        assert hist_a == hist_b
        for name in model_a.params:
            assert np.array_equal(model_a.params[name].data, model_b.params[name].data)

    def test_loss_components_sum(self):
        data = tiny_dataset(seed=1)
        _, hist = train(data, tiny_config(batch_size=1))
        for _, local, glob, total in hist:
            assert abs(total - (local + glob)) < 1e-9

    @pytest.mark.parametrize("batch_size", [1, 2, 4])
    def test_per_window_backward_matches_one_graph(self, batch_size):
        data = tiny_dataset(n=3, seed=2)
        cfg = tiny_config(batch_size=batch_size, iterations=1)
        model, hist = train(data, cfg)  # p.grad keeps the iteration's gradients
        oracle, loss = batch_mean_one_graph(data, cfg)
        assert hist[0][3] == loss
        for name, p in oracle.params.items():
            assert np.max(np.abs(model.params[name].grad - p.grad)) < 1e-12, name

    def test_non_finite_window_raises_before_any_step(self, monkeypatch):
        real, calls = training.window_loss, []

        def third_window_nan(*args):
            local, glob, res = real(*args)
            calls.append(len(calls))
            return (T.mul(local, float("nan")) if len(calls) == 3 else local), glob, res

        monkeypatch.setattr(training, "window_loss", third_window_nan)
        model = VONet(preset="tiny", seed=0)
        before = {name: p.data.copy() for name, p in model.params.items()}
        with pytest.raises(TrainingDiverged, match="iteration 0"):
            train(tiny_dataset(), tiny_config(batch_size=4), model=model)
        assert len(calls) == 3
        for name, p in model.params.items():
            assert np.array_equal(p.data, before[name]), name

    def test_short_sequence_rejected(self):
        data = tiny_dataset(n=1) + tiny_dataset(n=1, frames=3)
        with pytest.raises(ValueError, match="^sequence 1: 3 frames, shorter than the 4-frame window$"):
            train(data, tiny_config(window_length=4))
        data[1].name = "seq_b"  # a name, such as a container's path, replaces the index
        with pytest.raises(ValueError, match="^seq_b: 3 frames, shorter than the 4-frame window$"):
            train(data, tiny_config(window_length=4))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train([], tiny_config())

    def test_nan_frames_diverge(self):
        data = tiny_dataset()
        data[0].frames[1][:] = np.nan
        with pytest.raises(TrainingDiverged):
            train(data, tiny_config(iterations=50))


def sliding_window_infer_taped(model, frames, policy, window=11, stride=None):
    """The inference loop before the shared, tape-free encoding: every window
    encodes its own pairs and records a full graph. The oracle for
    sliding_window_infer."""
    n = len(frames)
    window = min(window, n)
    if stride is None:
        stride = window - 1
    starts = list(range(0, n - window + 1, stride))
    if starts[-1] != n - window:
        starts.append(n - window)
    traj = [np.eye(4) for _ in range(n)]
    for s in starts:
        result = run_window(model, [frames[t] for t in range(s, s + window)], policy)
        anchor = traj[s]
        for t, pose in enumerate(result.refined_poses(), start=1):
            traj[s + t] = pose_compose(anchor, pose.to_matrix())
    return traj


class TestSlidingWindowInfer:
    policy = MemoryPolicy(theta_rot=0.0, theta_trans=0.0, max_slots=11)

    def _infer(self, n_frames, **kw):
        model = VONet(preset="tiny", seed=2)
        seq = generate_sequence(SyntheticSpec(frames=n_frames, height=32, width=32, seed=7))
        return sliding_window_infer(model, seq.frames, self.policy, **kw)

    def test_one_pose_per_frame_identity_start(self):
        traj = self._infer(9, window=4)
        assert len(traj) == 9
        assert np.array_equal(traj[0], np.eye(4))
        for pose in traj[1:]:
            assert not np.array_equal(pose, np.eye(4))

    def test_window_clamped_to_length(self):
        assert len(self._infer(3, window=11)) == 3

    def test_stride_validation(self):
        with pytest.raises(ValueError):
            self._infer(9, window=4, stride=0)
        with pytest.raises(ValueError):
            self._infer(9, window=4, stride=4)
        for stride in (1.5, np.nan, "2", True):
            with pytest.raises(ValueError, match="^stride must be an int >= 1"):
                self._infer(9, window=4, stride=stride)
        for window in (1, 5.5, np.nan, "4", True):
            with pytest.raises(ValueError, match="^window must be an int >= 2"):
                self._infer(9, window=window)

    def test_stride_one_still_covers_all_frames(self):
        traj = self._infer(6, window=3, stride=1)
        assert len(traj) == 6

    def test_deterministic(self):
        a = self._infer(7, window=4)
        b = self._infer(7, window=4)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa, pb)

    def test_too_few_frames(self):
        model = VONet(preset="tiny", seed=0)
        with pytest.raises(ValueError):
            sliding_window_infer(model, [np.zeros((3, 32, 32))],
                                 MemoryPolicy(), window=4)

    @staticmethod
    def frames(n, side=32):
        spec = SyntheticSpec(frames=n, height=side, width=side, max_shift=1.0, seed=11)
        return list(generate_sequence(spec).frames)

    @pytest.mark.parametrize("preset, n, window, stride", [
        pytest.param("tiny", 9, 4, 1, id="9-4-1"),    # every pair shared by up to 3 windows
        pytest.param("tiny", 10, 4, 3, id="10-4-3"),  # stride window - 1: a shared frame, no pair
        pytest.param("tiny", 9, 4, 2, id="9-4-2"),    # starts 0, 2, 4 and the clamped last 5
        pytest.param("tiny", 14, 5, 3, id="14-5-3"),  # stride 3 below window - 1
        # two batches of 4 windows and a last one of 1, on the desk preset,
        # whose GEMMs are above OpenBLAS's small-matrix path
        pytest.param("desk", 14, 5, 1, id="desk-14-5-1"),
        pytest.param("desk", 14, 5, 4, id="desk-14-5-4"),
    ])
    def test_bit_identical_to_taped_oracle(self, preset, n, window, stride):
        model = VONet(preset=preset, seed=3)
        frames = self.frames(n, side=PRESETS[preset].height)
        got = sliding_window_infer(model, frames, self.policy, window=window, stride=stride)
        want = sliding_window_infer_taped(model, frames, self.policy, window=window, stride=stride)
        assert len(got) == len(want) == n
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("n, window, stride", [(9, 4, 1), (9, 4, 2), (12, 4, 3)])
    def test_each_pair_encoded_once(self, monkeypatch, n, window, stride):
        real, pairs = VONet.encode_pair, []

        def counted(self, prev_frame, frame):
            pairs.append(id(frame))
            return real(self, prev_frame, frame)

        monkeypatch.setattr(VONet, "encode_pair", counted)
        frames = self.frames(n)
        sliding_window_infer(VONet(preset="tiny", seed=3), frames, self.policy,
                             window=window, stride=stride)
        assert sorted(pairs) == sorted(id(f) for f in frames[1:])

    @pytest.mark.parametrize("n, window, stride, kept", [(9, 4, 1, 8), (9, 4, 2, 8),
                                                         (12, 4, 3, 11)])
    def test_refines_only_the_kept_steps(self, monkeypatch, n, window, stride, kept):
        # kept is the sum of end - s over the windows: one refined step per frame
        real, steps = VONet.refine_step, []

        def counted(self, zx, state=None):
            steps.append(1)
            return real(self, zx, state)

        monkeypatch.setattr(VONet, "refine_step", counted)
        sliding_window_infer(VONet(preset="tiny", seed=3), self.frames(n), self.policy,
                             window=window, stride=stride)
        assert len(steps) == kept

    @pytest.mark.parametrize("n, window, stride, batches", [(9, 4, 1, 2), (9, 4, 2, 2),
                                                            (12, 4, 3, 2), (20, 4, 1, 6)])
    def test_tracks_a_batch_of_windows_per_step(self, monkeypatch, n, window, stride, batches):
        # window - 1 windows per batch, one ConvLSTM step per pair of a window:
        # (9, 4, 1) runs 6 windows as 2 batches of 3, where one step per window
        # and pair would run 18
        real, steps = VONet.track_step, []

        def counted(self, zx, state=None):
            steps.append(zx.shape)
            return real(self, zx, state)

        monkeypatch.setattr(VONet, "track_step", counted)
        sliding_window_infer(VONet(preset="tiny", seed=3), self.frames(n), self.policy,
                             window=window, stride=stride)
        assert len(steps) == batches * (window - 1)
        assert steps[0] == (16, window - 1, 2, 2)  # a full first batch of input halves, channel-first

    @pytest.mark.parametrize("n", [9, 12])
    def test_input_half_once_per_pair_hidden_half_per_later_step(self, monkeypatch, n):
        # at stride 1 each pair is in up to window - 1 windows, but its
        # tracking input half runs once; each window's first step is from the
        # zero state, so only its later steps run the hidden half
        model, window = VONet(preset="tiny", seed=3), 4
        kernel, real, runs = model.params["track.kernel"], T.conv2d, {(0, 4): 0, (4, 8): 0}

        def counted(x, k, bias, stride=1, padding=0, channels=None):
            if k is kernel:
                runs[channels] += x.shape[1] if len(x.shape) == 4 else 1
            return real(x, k, bias, stride, padding, channels)

        monkeypatch.setattr(T, "conv2d", counted)
        sliding_window_infer(model, self.frames(n), self.policy, window=window, stride=1)
        windows, steps = n - window + 1, window - 1
        assert runs == {(0, 4): n - 1, (4, 8): windows * (steps - 1)}

    def test_builds_no_taped_node(self, monkeypatch):
        real, taped = T._make, []

        def spy(data, parents, backward_fn):
            out = real(data, parents, backward_fn)
            if out.requires_grad or out._parents:
                taped.append(out)
            return out

        monkeypatch.setattr(T, "_make", spy)
        sliding_window_infer(VONet(preset="tiny", seed=3), self.frames(9), self.policy,
                             window=4, stride=1)
        assert taped == []
        run_window(VONet(preset="tiny", seed=3), self.frames(3), self.policy)
        assert taped  # the spy does see a taped pass

    def test_keeps_at_most_a_window_of_features(self, monkeypatch):
        # live pair features when each new one is encoded, with the new one:
        # at most a batch's span of (window - 2) * stride + window - 1 pairs,
        # and the same at 20 and 40 frames, so never the whole sequence
        real = VONet.encode_pair
        window = 4
        for stride in (1, 2):
            peaks = []
            for n in (20, 40):
                made, live = [], []

                def tracked(self, prev_frame, frame):
                    live.append(sum(r() is not None for r in made))
                    out = real(self, prev_frame, frame)
                    made.append(weakref.ref(out))
                    return out

                monkeypatch.setattr(VONet, "encode_pair", tracked)
                sliding_window_infer(VONet(preset="tiny", seed=3), self.frames(n), self.policy,
                                     window=window, stride=stride)
                assert len(made) == n - 1
                peaks.append(max(live) + 1)
            assert peaks[0] == peaks[1] == (window - 2) * stride + window - 1, stride

    def test_checks_each_pose_once(self, monkeypatch):
        # one rotation check per frame offered to a memory (observe's
        # pose_inverse), two per composed stack (pose_compose's inputs) and
        # one per integrated chain (its origin): no pose the pipeline built
        # itself is checked again
        model, frames, counts = VONet(preset="tiny", seed=3), self.frames(9), {}

        def counting(name, fn):
            counts[name] = 0

            def counted(*args, **kw):
                counts[name] += 1
                return fn(*args, **kw)
            return counted

        monkeypatch.setattr(geometry, "_rotation_faults",
                            counting("rotations", geometry._rotation_faults))
        monkeypatch.setattr(MemoryBuffer, "observe", counting("offered", MemoryBuffer.observe))
        compose = counting("composed", geometry.pose_compose)
        monkeypatch.setattr(geometry, "pose_compose", compose)
        monkeypatch.setattr(training, "pose_compose", compose)
        monkeypatch.setattr(memory, "pose_inverse", counting("inverted", memory.pose_inverse))
        monkeypatch.setattr(training, "integrate_relative",
                            counting("chains", training.integrate_relative))
        sliding_window_infer(model, frames, self.policy, window=4, stride=1)
        # 6 windows of 3 steps as 2 batches: 2 chains of 3 stacks, 6 re-anchorings
        assert counts["offered"] == counts["inverted"] == 18
        assert (counts["chains"], counts["composed"]) == (2, 12)
        assert counts["rotations"] <= (counts["offered"] + 2 * counts["composed"]
                                       + counts["chains"])

    @pytest.mark.filterwarnings("error")
    def test_overflowing_relative_pose_raises(self, monkeypatch):
        # a finite relative translation whose chain overflows: the last
        # integrated pose is non-finite, and the memory's check rejects it
        real = VONet.pose_head

        def huge(self, which, out_map):
            if which == "track":
                return T.Tensor(np.array([1e308, 0.0, 0.0, 0.0, 0.0, 0.0]))
            return real(self, which, out_map)

        monkeypatch.setattr(VONet, "pose_head", huge)
        model = VONet(preset="tiny", seed=3)
        with pytest.raises(ValueError, match="^pose has non-finite entries$"):
            run_window(model, self.frames(3), self.policy)
        with pytest.raises(ValueError, match="non-finite"):
            sliding_window_infer(model, self.frames(9), self.policy, window=4, stride=1)

    def test_taped_run_window_after_inference_has_gradients(self):
        model = VONet(preset="tiny", seed=3)
        frames = self.frames(6)
        sliding_window_infer(model, frames, self.policy, window=4, stride=1)
        assert T._grad_enabled
        res = run_window(model, frames[:4], self.policy)
        rel, pose = res.track.rels[-1], res.abs_tensors[-1]
        T.add(T.div(T.tsum(rel), float(rel.data.size)),
              T.div(T.tsum(pose), float(pose.data.size))).backward()
        for name in ("encoder.l1.kernel", "track.kernel", "refine.kernel", "head.refine.weight"):
            g = model.params[name].grad
            assert g is not None and np.any(g != 0.0), name

    def test_feature_count_must_match_the_frames(self):
        model = VONet(preset="tiny", seed=3)
        frames = self.frames(4)
        feats = [model.encode_pair(a, b) for a, b in zip(frames, frames[1:])]
        track = track_windows(model, [feats[:2]])[0]
        with pytest.raises(ValueError, match="3 pair features, got 2"):
            run_window(model, frames, self.policy, track=track)


# Train for 2 iterations, then infer at strides 1 and 3, and print the
# digests. On a 2-vCPU x86 host the tiny preset's GEMMs are too small for a
# second BLAS thread to take part (2 threads: 0.07 s CPU in 0.05 s wall), the
# desk preset's are not (0.57 s CPU in 0.30 s wall), so both run. Last, the
# digest of every parameter gradient after one 11-frame desk window's
# backward(), which multiplies each ConvLSTM kernel's deferred gradient as one
# GEMM per kernel half: (256x160)(160x576) for the input half of the tracking
# stage, (256x144)(144x576) for its hidden half.
THREAD_CHILD = """
import hashlib
import numpy as np
import memvo.tensor as T
from memvo.net import VONet
from memvo.synthetic import SyntheticSpec, generate_dataset, generate_sequence
from memvo.training import TrainConfig, sliding_window_infer, train, window_loss

def digest(arrays):
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return h.hexdigest()

for preset, side in (("tiny", 32), ("desk", 64)):
    data = generate_dataset(2, SyntheticSpec(frames=6, height=side, width=side, max_shift=1.0,
                                             max_yaw=0.05, seed=0), seed=0)
    cfg = TrainConfig(window_length=4, batch_size=2, base_lr=1e-3, k=10.0, theta_rot=0.0,
                      theta_trans=0.0, memory_size=4, seed=0, preset=preset, iterations=2)
    model, history = train(data, cfg)
    print(digest([np.array(history)]))
    for stride in (1, 3):
        traj = sliding_window_infer(model, list(data[0].frames), cfg.policy(), window=4,
                                    stride=stride)
        print(digest([np.array(traj)]))

cfg = TrainConfig(preset="desk", window_length=11)
model = VONet(preset="desk", seed=0)
seq = generate_sequence(SyntheticSpec(frames=11, height=64, width=64, seed=0))
T.add(*window_loss(model, seq, 0, cfg, cfg.policy())[:2]).backward()
print(digest(p.grad for p in model.params.values()))
"""


def test_outputs_identical_across_blas_thread_counts():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    digests = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", THREAD_CHILD], env=env,
                             capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        digests[threads] = out.stdout.split()
        assert len(digests[threads]) == 7
    assert digests["1"] == digests["2"]
