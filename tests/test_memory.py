import numpy as np
import pytest

import memvo.geometry as G
import memvo.tensor as T
from memvo.geometry import euler_to_matrix, make_se3, matrix_to_euler, pose_inverse
from memvo.memory import MemoryBuffer, MemoryPolicy, motion_since, should_store


def pose_xyz_yaw(x, y, z, yaw):
    return make_se3(euler_to_matrix(np.array([0.0, 0.0, yaw])), np.array([x, y, z]))


def random_pose(rng, trans_scale=1.0, rot_scale=0.1):
    phi = rng.uniform(-rot_scale, rot_scale, size=3)
    t = rng.uniform(-trans_scale, trans_scale, size=3)
    return make_se3(euler_to_matrix(phi), t)


def state(rng=None, shape=(2, 2, 2)):
    data = np.zeros(shape) if rng is None else rng.normal(size=shape)
    return T.Tensor(data)


class TestPolicy:
    def test_defaults(self):
        p = MemoryPolicy()
        assert p.theta_rot == 0.005 and p.theta_trans == 0.6
        assert p.max_slots == 11 and p.require_both is False

    def test_validation(self):
        with pytest.raises(ValueError):
            MemoryPolicy(theta_rot=-0.1)
        with pytest.raises(ValueError):
            MemoryPolicy(theta_trans=-1.0)
        with pytest.raises(ValueError):
            MemoryPolicy(max_slots=0)

    def test_buffer_requires_policy(self):
        with pytest.raises(TypeError):
            MemoryBuffer(policy=None)


class TestMotionSince:
    def test_pure_translation(self):
        rot, trans = motion_since(np.eye(4), pose_xyz_yaw(3.0, 4.0, 0.0, 0.0))
        assert rot == 0.0
        assert abs(trans - 5.0) < 1e-12

    def test_pure_rotation(self):
        rot, trans = motion_since(np.eye(4), pose_xyz_yaw(0.0, 0.0, 0.0, 0.3))
        assert abs(rot - 0.3) < 1e-12
        assert trans == 0.0

    def test_relative_not_absolute(self):
        # both poses share the same offset, so the relative motion is zero
        a = pose_xyz_yaw(5.0, -2.0, 1.0, 0.4)
        rot, trans = motion_since(pose_inverse(a), a.copy())
        assert rot < 1e-12 and trans < 1e-12
        # the anchor enters by its inverse
        rot, trans = motion_since(pose_inverse(a), pose_xyz_yaw(5.0, 1.0, 5.0, 0.6))
        assert abs(rot - 0.2) < 1e-12 and abs(trans - 5.0) < 1e-12


class TestShouldStore:
    def test_or_semantics(self):
        p = MemoryPolicy(theta_rot=0.1, theta_trans=1.0)
        assert should_store(np.eye(4), pose_xyz_yaw(0, 0, 0, 0.2), p)      # rot only
        assert should_store(np.eye(4), pose_xyz_yaw(2, 0, 0, 0.0), p)      # trans only
        assert not should_store(np.eye(4), pose_xyz_yaw(0.5, 0, 0, 0.05), p)

    def test_and_semantics(self):
        p = MemoryPolicy(theta_rot=0.1, theta_trans=1.0, require_both=True)
        assert not should_store(np.eye(4), pose_xyz_yaw(0, 0, 0, 0.2), p)
        assert not should_store(np.eye(4), pose_xyz_yaw(2, 0, 0, 0.0), p)
        assert should_store(np.eye(4), pose_xyz_yaw(2, 0, 0, 0.2), p)

    def test_threshold_boundary_inclusive(self):
        p = MemoryPolicy(theta_rot=10.0, theta_trans=1.0)
        assert should_store(np.eye(4), pose_xyz_yaw(1.0, 0, 0, 0.0), p)
        assert not should_store(np.eye(4), pose_xyz_yaw(1.0 - 1e-9, 0, 0, 0.0), p)


class TestBuffer:
    def test_first_always_stored(self):
        buf = MemoryBuffer(MemoryPolicy(theta_rot=100.0, theta_trans=100.0))
        assert buf.observe(state(), np.eye(4), frame=0)
        assert len(buf) == 1 and buf.frames() == [0]

    def test_zero_thresholds_store_everything(self):
        buf = MemoryBuffer(MemoryPolicy(theta_rot=0.0, theta_trans=0.0, max_slots=100))
        for i in range(20):
            assert buf.observe(state(), np.eye(4), frame=i)
        assert buf.frames() == list(range(20))

    def test_anchor_is_last_stored_not_last_seen(self):
        # three 0.4-steps: each is below the 0.6 threshold relative to the
        # previous frame but the cumulative walk from the stored anchor is not
        buf = MemoryBuffer(MemoryPolicy(theta_rot=100.0, theta_trans=0.6))
        results = [buf.observe(state(), pose_xyz_yaw(0.4 * i, 0, 0, 0), frame=i)
                   for i in range(4)]
        assert results == [True, False, True, False]
        assert buf.frames() == [0, 2]

    def test_fifo_eviction(self):
        buf = MemoryBuffer(MemoryPolicy(theta_rot=0.0, theta_trans=0.0, max_slots=3))
        for i in range(5):
            buf.observe(state(), np.eye(4), frame=i)
        assert buf.frames() == [2, 3, 4]

    def test_anchor_survives_eviction(self):
        # after the first slot is evicted the selection anchor must still be
        # the most recently stored pose, not resurrect an evicted one
        buf = MemoryBuffer(MemoryPolicy(theta_rot=100.0, theta_trans=1.0, max_slots=2))
        buf.observe(state(), pose_xyz_yaw(0, 0, 0, 0), frame=0)
        buf.observe(state(), pose_xyz_yaw(1, 0, 0, 0), frame=1)
        buf.observe(state(), pose_xyz_yaw(2, 0, 0, 0), frame=2)  # evicts frame 0
        assert buf.frames() == [1, 2]
        assert not buf.observe(state(), pose_xyz_yaw(2.5, 0, 0, 0), frame=3)
        assert buf.observe(state(), pose_xyz_yaw(3.0, 0, 0, 0), frame=4)

    def test_detach_default_breaks_graph(self):
        x = T.Tensor(np.ones((2, 2, 2)), requires_grad=True)
        y = T.tanh(x)
        buf = MemoryBuffer(MemoryPolicy())
        buf.observe(y, np.eye(4), frame=0)
        slot = buf.slots[0]
        assert slot.state.requires_grad is False
        assert np.array_equal(slot.state.data, y.data)

    def test_detach_false_keeps_graph(self):
        x = T.Tensor(np.ones((2, 2, 2)), requires_grad=True)
        y = T.tanh(x)
        buf = MemoryBuffer(MemoryPolicy())
        buf.observe(y, np.eye(4), frame=0, detach=False)
        slot = buf.slots[0]
        assert slot.state is y
        T.tsum(slot.state).backward()
        assert x.grad is not None

    def test_invalid_pose_rejected(self):
        buf = MemoryBuffer(MemoryPolicy())
        with pytest.raises(ValueError):
            buf.observe(state(), np.eye(3), frame=0)

    @pytest.mark.parametrize("stored", [0, 1])
    def test_bad_poses_rejected_with_their_messages(self, stored):
        # rejected whether or not a slot is there to compare against, and
        # the buffer is left as it was
        buf = MemoryBuffer(MemoryPolicy(theta_rot=0.0, theta_trans=0.0))
        for i in range(stored):
            buf.observe(state(), np.eye(4), frame=i)
        pose = pose_xyz_yaw(1.0, 2.0, 3.0, 0.4)
        nan, skewed, reflected = pose.copy(), pose.copy(), pose.copy()
        nan[0, 3] = np.nan
        skewed[:3, :3] *= 1.001
        reflected[:3, 2] *= -1.0
        for bad, why in ((nan, "^pose has non-finite entries$"),
                         (skewed, r"^matrix is not orthonormal \(max deviation "),
                         (reflected, r"^matrix has negative determinant \(reflection\)$"),
                         (np.eye(3), r"^pose must be 4x4, got \(3, 3\)$")):
            with pytest.raises(ValueError, match=why):
                buf.observe(state(), bad, frame=9)
        assert buf.frames() == list(range(stored))

    def test_each_offered_pose_checked_once(self, monkeypatch):
        real, calls = G._rotation_faults, []

        def counted(r):
            calls.append(r.shape)
            return real(r)

        monkeypatch.setattr(G, "_rotation_faults", counted)
        buf = MemoryBuffer(MemoryPolicy(theta_rot=100.0, theta_trans=0.6))
        poses = [pose_xyz_yaw(0.4 * i, 0.1 * i, 0, 0.01 * i) for i in range(6)]
        calls.clear()
        for i, pose in enumerate(poses):
            buf.observe(state(), pose, frame=i)
        assert calls == [(3, 3)] * len(poses)
        assert buf.frames() == [0, 2, 4]
        for slot in buf.slots:
            assert np.array_equal(slot.anchor_inv, pose_inverse(poses[slot.frame]))


class TestReplayOracle:
    """Exact replay of the selection walk with an inline reimplementation."""

    @staticmethod
    def replay(poses, theta_rot, theta_trans, max_slots, require_both):
        kept, anchor = [], None
        for i, pose in enumerate(poses):
            if anchor is not None:
                rel = np.linalg.inv(anchor) @ pose
                rot = np.linalg.norm(matrix_to_euler(rel[:3, :3]))
                trans = np.linalg.norm(rel[:3, 3])
                hit_r, hit_t = rot >= theta_rot, trans >= theta_trans
                hit = (hit_r and hit_t) if require_both else (hit_r or hit_t)
                if not hit:
                    continue
            kept.append(i)
            anchor = pose
        return kept[-max_slots:]

    def test_random_streams_match(self):
        rng = np.random.default_rng(42)
        for trial in range(60):
            n = int(rng.integers(5, 50))
            theta_rot = float(rng.uniform(0.0, 0.3))
            theta_trans = float(rng.uniform(0.0, 2.0))
            max_slots = int(rng.integers(1, 12))
            require_both = bool(rng.integers(0, 2))
            pose = np.eye(4)
            poses = []
            for _ in range(n):
                pose = pose @ random_pose(rng, trans_scale=0.8, rot_scale=0.15)
                poses.append(pose.copy())
            policy = MemoryPolicy(theta_rot=theta_rot, theta_trans=theta_trans,
                                  max_slots=max_slots, require_both=require_both)
            buf = MemoryBuffer(policy)
            for i, p in enumerate(poses):
                buf.observe(state(), p, frame=i)
            expect = self.replay(poses, theta_rot, theta_trans, max_slots, require_both)
            assert buf.frames() == expect, "trial %d diverged" % trial

    def test_threshold_monotonicity(self):
        # raising either threshold never stores more frames
        rng = np.random.default_rng(7)
        pose = np.eye(4)
        poses = []
        for _ in range(40):
            pose = pose @ random_pose(rng, trans_scale=0.5, rot_scale=0.1)
            poses.append(pose.copy())

        def count(theta_rot, theta_trans):
            buf = MemoryBuffer(MemoryPolicy(theta_rot=theta_rot, theta_trans=theta_trans,
                                            max_slots=1000))
            for i, p in enumerate(poses):
                buf.observe(state(), p, frame=i)
            return len(buf)

        grid = [0.0, 0.05, 0.1, 0.5, 1.0, 2.0]
        for lo, hi in zip(grid, grid[1:]):
            assert count(hi, 0.4) <= count(lo, 0.4)
            assert count(0.05, hi) <= count(0.05, lo)
