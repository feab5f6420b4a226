import warnings

import numpy as np
import pytest

from memvo import geometry as G


def random_rotation(rng):
    # uniform-ish via QR of a gaussian matrix, sign-fixed to det +1
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def pose6dof(pose):
    """The Pose6DoF of a checked 4x4 pose: its translation and Euler angles."""
    return G.Pose6DoF(pose[:3, 3], G.matrix_to_euler(G.check_se3(pose)[:3, :3]))


class TestWrap:
    def test_interval_edges(self):
        assert G.wrap_angle(np.pi) == np.pi
        assert G.wrap_angle(-np.pi) == np.pi
        assert G.wrap_angle(0.0) == 0.0
        assert abs(G.wrap_angle(3 * np.pi) - np.pi) < 1e-12
        assert abs(G.wrap_angle(2 * np.pi)) < 1e-12

    def test_bulk(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-50, 50, size=1000)
        w = G.wrap_angle(x)
        assert np.all(w > -np.pi) and np.all(w <= np.pi)
        # wrapping preserves the angle modulo 2 pi (mod result may sit at 2pi-eps)
        m = np.mod(w - x, 2 * np.pi)
        assert np.all(np.minimum(m, 2 * np.pi - m) < 1e-9)


class TestEuler:
    def test_known_axes(self):
        # quarter turn about z: x axis maps to y axis
        r = G.euler_to_matrix((0.0, 0.0, np.pi / 2))
        assert np.allclose(r, [[0, -1, 0], [1, 0, 0], [0, 0, 1]], atol=1e-15)
        r = G.euler_to_matrix((np.pi / 2, 0.0, 0.0))
        assert np.allclose(r, [[1, 0, 0], [0, 0, -1], [0, 1, 0]], atol=1e-15)

    def test_composition_order(self):
        # R must equal Rz @ Ry @ Rx of the individual angles
        phi = (0.3, -0.4, 0.9)
        rx = G.euler_to_matrix((phi[0], 0, 0))
        ry = G.euler_to_matrix((0, phi[1], 0))
        rz = G.euler_to_matrix((0, 0, phi[2]))
        assert np.allclose(G.euler_to_matrix(phi), rz @ ry @ rx, atol=1e-15)

    def test_round_trip_random(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            phi = np.array([rng.uniform(-np.pi, np.pi),
                            rng.uniform(-np.pi / 2 + 0.05, np.pi / 2 - 0.05),
                            rng.uniform(-np.pi, np.pi)])
            back = G.matrix_to_euler(G.euler_to_matrix(phi))
            assert np.max(np.abs(back - phi)) < 1e-9

    def test_matrix_round_trip_any_rotation(self):
        # even near gimbal the recovered angles must rebuild the same matrix
        rng = np.random.default_rng(2)
        for _ in range(200):
            r = random_rotation(rng)
            r2 = G.euler_to_matrix(G.matrix_to_euler(r))
            assert np.max(np.abs(r - r2)) < 1e-9

    def test_gimbal_branch(self):
        r = G.euler_to_matrix((0.7, np.pi / 2, -0.3))
        phi = G.matrix_to_euler(r)
        assert phi[0] == 0.0  # representative fixes phi_x
        assert abs(phi[1] - np.pi / 2) < 1e-9
        assert np.max(np.abs(G.euler_to_matrix(phi) - r)) < 1e-9
        r = G.euler_to_matrix((0.2, -np.pi / 2, 1.1))
        phi = G.matrix_to_euler(r)
        assert abs(phi[1] + np.pi / 2) < 1e-9
        assert np.max(np.abs(G.euler_to_matrix(phi) - r)) < 1e-9

    def test_rejects_non_rotation(self):
        with pytest.raises(ValueError):
            G.matrix_to_euler(np.eye(3) * 1.01)
        with pytest.raises(ValueError):
            G.matrix_to_euler(np.diag([1.0, 1.0, -1.0]))  # reflection


def matrix_to_quat_scalar(r):
    """matrix_to_quat before it took stacks: one rotation, scalar branches.
    The oracle for the batched version."""
    r = G._check_rotation(r)
    tr = np.trace(r)
    if tr > 0:
        s = np.sqrt(tr + 1.0) * 2.0
        w, x, y, z = 0.25 * s, (r[2, 1] - r[1, 2]) / s, (r[0, 2] - r[2, 0]) / s, (r[1, 0] - r[0, 1]) / s
    elif r[0, 0] > r[1, 1] and r[0, 0] > r[2, 2]:
        s = np.sqrt(1.0 + r[0, 0] - r[1, 1] - r[2, 2]) * 2.0
        w, x, y, z = (r[2, 1] - r[1, 2]) / s, 0.25 * s, (r[0, 1] + r[1, 0]) / s, (r[0, 2] + r[2, 0]) / s
    elif r[1, 1] > r[2, 2]:
        s = np.sqrt(1.0 + r[1, 1] - r[0, 0] - r[2, 2]) * 2.0
        w, x, y, z = (r[0, 2] - r[2, 0]) / s, (r[0, 1] + r[1, 0]) / s, 0.25 * s, (r[1, 2] + r[2, 1]) / s
    else:
        s = np.sqrt(1.0 + r[2, 2] - r[0, 0] - r[1, 1]) * 2.0
        w, x, y, z = (r[1, 0] - r[0, 1]) / s, (r[0, 2] + r[2, 0]) / s, (r[1, 2] + r[2, 1]) / s, 0.25 * s
    q = np.array([x, y, z, w])
    q /= np.linalg.norm(q)
    return -q if q[3] < 0 else q


def rotations_on_every_branch(rng, n=200):
    """Random rotations plus half turns about each axis: trace > 0 and each
    of the three largest-diagonal cases of matrix_to_quat."""
    rots = [random_rotation(rng) for _ in range(n)]
    for axis in np.eye(3):
        for angle in (np.pi, np.pi - 1e-3, 2.5):
            rots.append(G.euler_to_matrix(axis * angle))
    rots = np.array(rots)
    d = np.diagonal(rots, axis1=1, axis2=2)
    tr = d.sum(axis=1)
    first = (tr <= 0) & (d[:, 0] > d[:, 1]) & (d[:, 0] > d[:, 2])
    second = (tr <= 0) & ~first & (d[:, 1] > d[:, 2])
    third = (tr <= 0) & ~first & ~second
    assert all(m.any() for m in (tr > 0, first, second, third))
    return rots


class TestQuaternion:
    def test_matrix_to_quat_matches_scalar_oracle(self):
        rots = rotations_on_every_branch(np.random.default_rng(30))
        batched = G.matrix_to_quat(rots)
        assert batched.shape == (len(rots), 4)
        for r, q in zip(rots, batched):
            single = G.matrix_to_quat(r)
            assert single.shape == (4,)
            assert np.array_equal(q, single)
            assert np.array_equal(single, matrix_to_quat_scalar(r))
        assert G.matrix_to_quat(rots[:0]).shape == (0, 4)

    def test_matrix_to_quat_errors(self):
        rots = rotations_on_every_branch(np.random.default_rng(31), n=10)
        bad = rots.copy()
        bad[4] *= 1.01
        bad[7, 0, 0] = np.nan
        with pytest.raises(G.StackError, match="^rotation 4: matrix is not orthonormal") as info:
            G.matrix_to_quat(bad)
        assert info.value.index == 4
        for r in (bad[4], bad[7], np.diag([1.0, 1.0, -1.0]), np.zeros((2, 3))):
            with pytest.raises(ValueError) as new:
                G.matrix_to_quat(r)
            with pytest.raises(ValueError) as old:
                matrix_to_quat_scalar(r)
            assert type(new.value) is ValueError and str(new.value) == str(old.value)
        with pytest.raises(ValueError, match="3x3"):
            G.matrix_to_quat(np.zeros((2, 2, 3, 3)))

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            r = random_rotation(rng)
            q = G.matrix_to_quat(r)
            assert abs(np.linalg.norm(q) - 1.0) < 1e-12
            assert q[3] >= 0.0
            assert np.max(np.abs(G.quat_to_matrix(q) - r)) < 1e-9

    def test_non_unit_normalized(self):
        q = np.array([0.0, 0.0, 0.0, 2.0])
        assert np.allclose(G.quat_to_matrix(q), np.eye(3))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            G.quat_to_matrix(np.zeros(4))

    def test_double_cover(self):
        rng = np.random.default_rng(4)
        r = random_rotation(rng)
        q = G.matrix_to_quat(r)
        assert np.allclose(G.quat_to_matrix(-q), G.quat_to_matrix(q))


class TestSE3:
    def test_compose_and_inverse(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a = G.make_se3(random_rotation(rng), rng.normal(size=3))
            b = G.make_se3(random_rotation(rng), rng.normal(size=3))
            ab = G.pose_compose(a, b)
            assert np.max(np.abs(ab - a @ b)) < 1e-12
            ident = G.pose_compose(G.pose_inverse(a), a)
            assert np.max(np.abs(ident - np.eye(4))) < 1e-12

    def test_compose_stacks_pose_by_pose(self):
        # each composed pose has the bits of a lone call, also broadcast
        rng = np.random.default_rng(20)
        a = np.stack([G.make_se3(random_rotation(rng), rng.normal(size=3)) for _ in range(200)])
        b = np.stack([G.make_se3(random_rotation(rng), rng.normal(size=3)) for _ in range(200)])
        got = G.pose_compose(a, b)
        assert got.shape == (200, 4, 4)
        for i in range(200):
            assert np.array_equal(got[i], G.pose_compose(a[i], b[i])), i
        onto = G.pose_compose(a[0], b)
        for i in range(200):
            assert np.array_equal(onto[i], G.pose_compose(a[0], b[i])), i
        bad = b.copy()
        bad[5, :3, :3] *= 1.1
        with pytest.raises(G.StackError, match="^pose 5: matrix is not orthonormal") as info:
            G.pose_compose(a, bad)
        assert info.value.index == 5

    def test_compose_refuses_overflowing_translation(self):
        # finite poses whose product's translation overflows: refused, not
        # returned as a non-finite pose for a later check to find, or miss
        p = G.make_se3(np.eye(3), (1e308, 0.0, 0.0))
        why = "product has non-finite translation"
        with pytest.raises(ValueError, match="^%s$" % why) as info:
            G.pose_compose(p, p)
        assert not isinstance(info.value, G.StackError)
        with pytest.raises(ValueError, match="^%s$" % why):
            G.integrate_relative([p, p])
        stack = np.stack([np.eye(4)] * 4)
        stack[2] = p
        with pytest.raises(G.StackError, match="^pose 2: %s$" % why) as info:
            G.pose_compose(stack, p)
        assert info.value.index == 2
        with pytest.raises(G.StackError, match="^pose 2: %s$" % why):
            G.integrate_relative([stack, stack])
        assert G.pose_compose(p, np.eye(4))[0, 3] == 1e308

    def test_long_chain_stays_on_so3_without_reprojection(self):
        # the evidence that pose_compose needs no SVD: rounding in a chain of
        # products grows as a random walk, far below check_se3's tolerance
        rng = np.random.default_rng(6)
        rels = G.poses_from_vectors(np.concatenate(
            [rng.normal(size=(20000, 3)), rng.uniform(-np.pi, np.pi, (20000, 3))], axis=1))
        chain = np.array(G.integrate_relative(list(rels)))
        r = chain[:, :3, :3]
        dev = np.abs(r.swapaxes(-1, -2) @ r - np.eye(3)).max(axis=(-2, -1))
        assert dev.max() < 1e-12
        assert np.abs(np.linalg.det(r) - 1.0).max() < 1e-12
        G.check_se3(chain)

    def test_validation(self):
        bad = np.eye(4)
        bad[3, 0] = 0.1
        with pytest.raises(ValueError):
            G.check_se3(bad)
        with pytest.raises(ValueError):
            G.check_se3(np.eye(3))
        skewed = np.eye(4)
        skewed[:3, :3] *= 1.001
        with pytest.raises(ValueError):
            G.check_se3(skewed)

    def test_rotation_angle(self):
        assert G.rotation_angle(np.eye(3)) == 0.0
        for theta in (0.3, 1.2, 2.9):
            r = G.euler_to_matrix((0, 0, theta))
            assert abs(G.rotation_angle(r) - theta) < 1e-9
        # the trace formula loses precision near pi; just bound it loosely there
        r = G.euler_to_matrix((0, 0, np.pi - 1e-9))
        assert abs(G.rotation_angle(r) - np.pi) < 1e-4


class TestStacks:
    """Each batched op against the single-pose path it generalises."""

    def _stack(self, rng, n=50):
        return np.stack([G.make_se3(random_rotation(rng), rng.normal(size=3) * 100.0)
                         for _ in range(n)])

    def test_pose_inverse_bit_exact(self):
        poses = self._stack(np.random.default_rng(20))
        batched = G.pose_inverse(poses)
        assert batched.shape == poses.shape
        for pose, inv in zip(poses, batched):
            assert np.array_equal(inv, G.pose_inverse(pose))

    def test_rotation_angle_bit_exact(self):
        rots = self._stack(np.random.default_rng(21))[:, :3, :3]
        batched = G.rotation_angle(rots)
        assert isinstance(G.rotation_angle(rots[0]), float)
        assert np.array_equal(batched, [G.rotation_angle(r) for r in rots])

    def test_check_se3_stack_accepts_and_names_first_bad_pose(self):
        poses = self._stack(np.random.default_rng(22), n=10)
        assert G.check_se3(poses) is poses
        bad = poses.copy()
        bad[6, :3, :3] *= 1.001
        bad[8, 3, 0] = 0.5
        with pytest.raises(G.StackError, match="^pose 6: matrix is not orthonormal") as info:
            G.check_se3(bad)
        assert info.value.index == 6
        with pytest.raises(ValueError, match="^matrix is not orthonormal"):
            G.check_se3(bad[6])
        bad[2, :3, 0] *= -1.0  # a reflection: still orthonormal
        with pytest.raises(G.StackError, match="^pose 2: matrix has negative determinant"):
            G.check_se3(bad)

    def test_check_se3_decisions_match_single_path(self):
        rng = np.random.default_rng(23)
        poses = self._stack(rng, n=40)
        poses[rng.choice(40, 8, replace=False), 3, rng.integers(0, 4)] += 0.1
        poses[rng.choice(40, 8, replace=False), :3, :3] *= 1.01
        poses[rng.choice(40, 4, replace=False), rng.integers(0, 4), rng.integers(0, 4)] = np.nan
        for i in range(40):
            single = None
            try:
                G.check_se3(poses[i])
            except ValueError as exc:
                single = str(exc)
            try:
                G.check_se3(poses[i:])
                stacked = None
            except G.StackError as exc:
                stacked = (exc.index, exc.reason)
            if single is None:
                assert stacked is None or stacked[0] > 0
            else:
                assert stacked == (0, single)

    def test_non_finite_rejected(self):
        for value in (np.nan, np.inf, -np.inf):
            for where in ((0, 3), (1, 1), (3, 3)):
                pose = np.eye(4)
                pose[where] = value
                with pytest.raises(ValueError, match="non-finite"):
                    G.check_se3(pose)
                stack = np.stack([np.eye(4), pose])
                with pytest.raises(G.StackError, match="^pose 1: pose has non-finite"):
                    G.check_se3(stack)
                with pytest.raises(ValueError, match="non-finite"):
                    G.pose_inverse(pose)
        with pytest.raises(ValueError, match="non-finite"):
            G.make_se3(np.full((3, 3), np.nan), np.zeros(3))

    @pytest.mark.parametrize("t", [[np.nan, 0, np.inf], [0, 0, -np.inf]])
    def test_make_se3_rejects_non_finite_translation(self, t):
        with pytest.raises(ValueError, match="^translation has non-finite entries$"):
            G.make_se3(np.eye(3), t)

    def test_stack_shape_rejected(self):
        with pytest.raises(ValueError, match="4x4"):
            G.check_se3(np.zeros((2, 3, 3)))
        with pytest.raises(ValueError, match="4x4"):
            G.check_se3(np.zeros((2, 2, 4, 4)))

    def test_quat_to_matrix_stack(self):
        rng = np.random.default_rng(24)
        q = rng.normal(size=(30, 4))
        batched = G.quat_to_matrix(q)
        for qi, m in zip(q, batched):
            assert np.array_equal(m, G.quat_to_matrix(qi))
        q[7] = 0.0
        with pytest.raises(G.StackError, match="^quaternion 7: zero-norm") as info:
            G.quat_to_matrix(q)
        assert info.value.index == 7

    def test_similarity_stack(self):
        rng = np.random.default_rng(25)
        poses = self._stack(rng, n=30)
        s, r, t = 1.7, random_rotation(rng), rng.normal(size=3)
        out = G.apply_similarity(s, r, t, poses)
        for pose, got in zip(poses, out):
            # the per-pose form, with the rotations as the alignment gives them
            want = np.eye(4)
            want[:3, :3] = r @ pose[:3, :3]
            want[:3, 3] = s * (r @ pose[:3, 3]) + t
            assert got[:3, :3].tobytes() == want[:3, :3].tobytes()
            assert np.max(np.abs(got - want)) < 1e-12
            lone = G.apply_similarity(s, r, t, pose)
            assert lone.shape == (4, 4) and np.max(np.abs(lone - got)) < 1e-12


class TestDet3:
    """The closed-form determinant against LAPACK's, whose sign it replaces."""

    @staticmethod
    def with_lapack_det(monkeypatch, fn, *args):
        # fn(*args) as it ran when every determinant came from np.linalg.det;
        # a lone matrix's check calls no _det3, so its oracle is stack_of_one
        with monkeypatch.context() as m:
            m.setattr(G, "_det3", np.linalg.det)
            try:
                return fn(*args)
            except ValueError as exc:
                return str(exc)

    def _mixed(self, rng, n=400):
        rots = np.stack([random_rotation(rng) for _ in range(n)])
        flip = rng.random(n) < 0.5
        rots[flip, :, 0] *= -1.0  # reflections
        return rots, flip

    def test_sign_matches_lapack(self):
        rots, flip = self._mixed(np.random.default_rng(40))
        got = G._det3(rots)
        assert np.array_equal(np.sign(got), np.sign(np.linalg.det(rots)))
        assert np.array_equal(got < 0.0, flip)
        for r in rots:
            assert np.sign(G._det3(r)) == np.sign(np.linalg.det(r))

    def test_lone_matrix_has_its_stack_row_bits(self):
        rng = np.random.default_rng(41)
        rots, _ = self._mixed(rng, n=100)
        scales = 10.0 ** rng.integers(-3, 4, (100, 1, 1))
        stack = np.concatenate([rots, rng.normal(size=(100, 3, 3)) * scales])
        batched = G._det3(stack)
        assert batched.shape == (200,)
        for m, want in zip(stack, batched):
            lone = G._det3(m)
            assert lone.ndim == 0 and lone.tobytes() == want.tobytes()
        assert G._det3(stack.reshape(2, 100, 3, 3)).tobytes() == batched.tobytes()

    def test_check_messages_unchanged(self, monkeypatch):
        rng = np.random.default_rng(42)
        huge = [np.full((3, 3), 1e200), np.eye(3) * 1e200, np.diag([1e200, 1.0, -1.0])]
        huge += [rng.choice([1e200, -1e200, 0.0, 1.0], size=(3, 3)) for _ in range(30)]
        singular = [np.zeros((3, 3)), np.ones((3, 3)), np.diag([1.0, 1.0, 0.0]),
                    np.outer([1.0, 2.0, 3.0], [0.5, -1.0, 2.0])]
        reflected = [np.diag([1.0, 1.0, -1.0]), -np.eye(3), self._mixed(rng, n=10)[0][0] * -1.0]
        with_nan = []
        for where in ((0, 0), (1, 2), (2, 1)):
            m = random_rotation(rng)
            m[where] = np.nan
            with_nan.append(m)
        mats = huge + singular + reflected + with_nan + [random_rotation(rng)]
        poses = np.zeros((len(mats), 4, 4))
        poses[:, :3, :3] = mats
        poses[:, 3, 3] = 1.0
        for r, pose in zip(mats, poses):
            for fn, stacked, arg in ((G.matrix_to_euler, G.matrix_to_quat, r),
                                     (G.check_se3, G.check_se3, pose)):
                want = self.with_lapack_det(monkeypatch, stack_of_one(stacked), arg)
                try:
                    got = fn(arg)
                except ValueError as exc:
                    got = str(exc)
                assert isinstance(got, str) == isinstance(want, str)
                if isinstance(want, str):
                    assert got == want
        for i in range(len(poses)):  # every suffix of the stack names the same first bad pose
            want = self.with_lapack_det(monkeypatch, G.check_se3, poses[i:])
            try:
                G.check_se3(poses[i:])
            except G.StackError as exc:
                assert str(exc) == want
            else:
                assert not isinstance(want, str)


def stack_of_one(check):
    """A stack check run on one matrix as a stack of one, raising as a lone check.

    A lone matrix is checked on Python floats, through neither _det3 nor
    _ortho_dev, so an oracle patched into those reaches it only this way.
    """
    def run(arg):
        try:
            return check(arg[None])
        except G.StackError as exc:
            assert exc.index == 0
            raise ValueError(exc.reason) from None
    return run


def matmul_deviation(m):
    """max|M^T M - I| as the rotation check took it before its closed form."""
    with np.errstate(all="ignore"):
        return np.abs(m.swapaxes(-1, -2) @ m - np.eye(3)).max(axis=(-2, -1))


def rotation_stack(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, 3, 3)))
    q *= np.sign(np.diagonal(r, axis1=-2, axis2=-1))[:, None, :]
    q[np.linalg.det(q) < 0, :, 0] *= -1.0
    return q


def as_poses(mats):
    poses = np.zeros((len(mats), 4, 4))
    poses[:, :3, :3] = mats
    poses[:, 3, 3] = 1.0
    return poses


class TestClosedFormOrthonormality:
    """The closed-form deviation against the BLAS R^T R that it replaces."""

    @staticmethod
    def outcome(fn, arg):
        try:
            fn(arg)
        except ValueError as exc:
            return str(exc)
        return None

    def assert_as_oracle(self, monkeypatch, mats, lone=True):
        """Every check gives the oracle's verdict and message, with no warning."""
        mats = np.asarray(mats, dtype=np.float64)
        poses = as_poses(mats)
        calls = [(G.check_se3, poses), (G.matrix_to_quat, mats)]
        oracles = list(calls)
        if lone:  # a lone matrix's oracle is its stack of one (stack_of_one)
            for r, pose in zip(mats, poses):
                calls += [(G.matrix_to_euler, r), (G.check_se3, pose)]
                oracles += [(stack_of_one(G.matrix_to_quat), r), (stack_of_one(G.check_se3), pose)]
        got, want = [], []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fn, arg in calls:
                got.append(self.outcome(fn, arg))
            with monkeypatch.context() as m:
                m.setattr(G, "_ortho_dev", matmul_deviation)
                for fn, arg in oracles:
                    want.append(self.outcome(fn, arg))
        assert got == want
        return got

    def test_random_rotations(self, monkeypatch):
        rots = rotation_stack(np.random.default_rng(60), 4541)
        assert self.assert_as_oracle(monkeypatch, rots) == [None] * (2 + 2 * len(rots))
        dev = G._ortho_dev(rots)
        assert dev.shape == (4541,) and dev.max() < 1e-14
        # BLAS may fuse the dot products' multiply-adds: about an ulp apart
        assert np.max(np.abs(dev - matmul_deviation(rots))) <= 4.5e-16

    @pytest.mark.parametrize("factor", [0.5, 0.999, 1.001, 2.0])
    def test_deviations_at_the_tolerance(self, monkeypatch, factor):
        rng = np.random.default_rng(61)
        eps = factor * G._ORTHO_TOL
        mats = []
        for k in range(3):
            for sign in (1.0, -1.0):
                stretch = np.eye(3)
                stretch[k, k] = np.sqrt(1.0 + sign * eps)  # a column norm off by eps
                mats.append(random_rotation(rng) @ stretch)
                shear = np.eye(3)
                shear[k, (k + 1) % 3] = sign * eps  # two columns eps from orthogonal
                mats.append(random_rotation(rng) @ shear)
        got = self.assert_as_oracle(monkeypatch, mats)
        rejected = [m is not None for m in got[2:]]
        assert rejected == [factor > 1.0] * len(rejected)
        assert np.allclose(G._ortho_dev(np.array(mats)), eps, rtol=1e-6, atol=0.0)

    def test_reflections(self, monkeypatch):
        rots = rotation_stack(np.random.default_rng(62), 50)
        rots[::2, :, 1] *= -1.0
        got = self.assert_as_oracle(monkeypatch, rots)
        assert got[0] == "pose 0: matrix has negative determinant (reflection)"
        assert got[1] == "rotation 0: matrix has negative determinant (reflection)"
        assert sum(m is not None for m in got[2:]) == 50

    def test_non_finite_and_huge_entries(self, monkeypatch):
        rng = np.random.default_rng(63)
        mats = []
        for bad in (np.nan, np.inf, -np.inf, 1e200, -1e200):
            for where in ((0, 0), (1, 2), (2, 1)):
                m = random_rotation(rng)
                m[where] = bad
                mats.append(m)
        mats += [np.full((3, 3), 1e200), np.eye(3) * 1e200, np.diag([1e200, 1.0, -1.0]),
                 np.array([[1e200, -1e200, 0.0], [1e200, 1e200, 0.0], [0.0, 0.0, 1.0]])]
        mats += [rng.choice([1e200, -1e200, 0.0, 1.0], size=(3, 3)) for _ in range(40)]
        got = self.assert_as_oracle(monkeypatch, mats)
        assert all(m is not None for m in got)
        for i in range(len(mats)):  # every suffix of the stack names the same first bad pose
            self.assert_as_oracle(monkeypatch, mats[i:], lone=False)
        huge = np.array([[1e200, -1e200, 0.0], [1e200, 1e200, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ValueError, match=r"^matrix is not orthonormal \(max deviation inf\)$"):
            G.matrix_to_euler(huge)  # inf - inf in one product sum, yet no NaN reading

    def test_last_row_verdict_as_before(self):
        poses = []
        for k in range(4):
            for off in (0.5e-6, -0.5e-6, 2e-6, -2e-6, 1e200):
                pose = np.eye(4)
                pose[3, k] += off
                poses.append(pose)
        poses = np.array(poses)
        with np.errstate(over="ignore"):
            before = np.abs(poses[:, 3, :] - [0.0, 0.0, 0.0, 1.0]).max(axis=-1) > G._ORTHO_TOL
        assert before.sum() == 12
        for pose, bad in zip(poses, before):
            assert (self.outcome(G.check_se3, pose) is not None) == bad
        for i in range(len(poses)):
            got = self.outcome(G.check_se3, poses[i:])
            assert got == ("pose %d: pose last row must be (0,0,0,1)" % np.argmax(before[i:])
                           if before[i:].any() else None)

    def test_lone_matrix_has_its_stack_row_bits(self):
        rng = np.random.default_rng(64)
        rots = rotation_stack(rng, 100)
        scales = 10.0 ** rng.integers(-3, 4, (100, 1, 1))
        stack = np.concatenate([rots, rots + rng.normal(size=(100, 3, 3)) * 1e-6,
                                rng.normal(size=(100, 3, 3)) * scales,
                                rng.choice([1e200, -1e200, 0.0, 1.0], size=(100, 3, 3))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="ignore"):
                batched = G._ortho_dev(stack)
                assert batched.shape == (400,) and not np.isnan(batched).any()
                for m, want in zip(stack, batched):
                    lone = G._ortho_dev(m)
                    assert lone.ndim == 0 and lone.tobytes() == want.tobytes()
                assert G._ortho_dev(stack.reshape(2, 200, 3, 3)).tobytes() == batched.tobytes()


class TestPose6DoF:
    def test_vector_round_trip(self):
        p = G.Pose6DoF((1, 2, 3), (0.1, -0.2, 0.3))
        v = p.to_vector()
        assert np.array_equal(v, [1, 2, 3, 0.1, -0.2, 0.3])
        q = G.Pose6DoF.from_vector(v)
        assert np.array_equal(q.p, p.p) and np.array_equal(q.phi, p.phi)

    def test_angles_wrapped(self):
        p = G.Pose6DoF((0, 0, 0), (3 * np.pi, 0, -np.pi))
        assert abs(p.phi[0] - np.pi) < 1e-12
        assert p.phi[2] == np.pi

    def test_matrix_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            p = G.Pose6DoF(rng.normal(size=3),
                           (rng.uniform(-3, 3), rng.uniform(-1.4, 1.4), rng.uniform(-3, 3)))
            q = pose6dof(p.to_matrix())
            assert np.max(np.abs(q.p - p.p)) < 1e-9
            assert np.max(np.abs(q.phi - p.phi)) < 1e-9


class TestPosesFromVectors:
    def test_bit_identical_to_pose6dof(self):
        # angles far outside (-pi, pi], on its edges and at pitch +-pi/2
        rng = np.random.default_rng(30)
        v = np.concatenate([rng.normal(size=(1200, 3)) * 10.0,
                            rng.uniform(-20.0, 20.0, size=(1200, 3))], axis=1)
        v[::6, 4] = np.pi / 2
        v[1::6, 4] = -np.pi / 2
        v[2::6, 3] = np.pi
        v[3::6, 5] = -np.pi
        v[4::6, 3:] = rng.uniform(-np.pi, np.pi, size=(200, 3))
        got = G.poses_from_vectors(v)
        assert got.shape == (1200, 4, 4)
        for i, row in enumerate(v):
            assert np.array_equal(got[i], G.Pose6DoF.from_vector(row).to_matrix()), i
        for n in (1, 3):  # short stacks too
            for i, pose in enumerate(G.poses_from_vectors(v[:n])):
                assert np.array_equal(pose, got[i])
        assert G.check_se3(got) is got

    def test_rejects_bad_shapes_and_non_finite_rows(self):
        for shape in ((6,), (3, 5), (2, 3, 6)):
            with pytest.raises(ValueError, match="^pose vectors must have shape"):
                G.poses_from_vectors(np.zeros(shape))
        v = np.zeros((4, 6))
        v[2, 0] = np.inf
        v[3, 4] = np.nan
        with pytest.raises(G.StackError, match="^pose vector 2: vector has non-finite entries$"):
            G.poses_from_vectors(v)


class TestIntegrate:
    def test_pure_x_translation(self):
        rels = [G.Pose6DoF((1.0, 0, 0), (0, 0, 0)) for _ in range(5)]
        traj = G.integrate_relative(rels)
        assert len(traj) == 6
        for t, pose in enumerate(traj):
            assert np.allclose(pose[:3, 3], [t, 0, 0])

    def test_decomposition_consistency(self):
        # integrating the relative decomposition of a trajectory recovers it
        rng = np.random.default_rng(8)
        poses = [np.eye(4)]
        for _ in range(30):
            step = G.make_se3(G.euler_to_matrix(rng.uniform(-0.3, 0.3, 3)), rng.normal(size=3))
            poses.append(G.pose_compose(poses[-1], step))
        rels = [pose6dof(G.pose_compose(G.pose_inverse(a), b))
                for a, b in zip(poses[:-1], poses[1:])]
        rebuilt = G.integrate_relative(rels, origin=poses[0])
        for a, b in zip(poses, rebuilt):
            assert np.max(np.abs(a - b)) < 1e-9

    def test_stacked_chains_match_lone_chains(self):
        # (N,4,4) steps advance N chains; each is bit-identical to its own
        rng = np.random.default_rng(21)
        rels = [[G.Pose6DoF(rng.normal(size=3), rng.uniform(-0.3, 0.3, 3)) for _ in range(10)]
                for _ in range(6)]
        steps = [np.stack([chain[t].to_matrix() for chain in rels]) for t in range(10)]
        origins = np.stack([G.make_se3(random_rotation(rng), rng.normal(size=3)) for _ in range(6)])
        stacked = G.integrate_relative(steps, origin=origins)
        assert len(stacked) == 11 and stacked[0].shape == (6, 4, 4)
        for i, chain in enumerate(rels):
            lone = G.integrate_relative(chain, origin=origins[i])
            for t, pose in enumerate(lone):
                assert np.array_equal(stacked[t][i], pose), (i, t)
        steps[4] = steps[4].copy()
        steps[4][2, 3] = (0.0, 0.0, 0.5, 1.0)
        with pytest.raises(G.StackError, match="^pose 2: pose last row must be"):
            G.integrate_relative(steps, origin=origins)

    def test_origin_respected(self):
        origin = G.make_se3(G.euler_to_matrix((0, 0, 1.0)), (5, 6, 7))
        traj = G.integrate_relative([], origin=origin)
        assert len(traj) == 1
        assert np.array_equal(traj[0], origin)


class TestUmeyama:
    def test_recovers_similarity(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            src = rng.normal(size=(20, 3))
            s = rng.uniform(0.2, 5.0)
            r = random_rotation(rng)
            t = rng.normal(size=3)
            dst = s * (src @ r.T) + t
            s2, r2, t2 = G.umeyama_align(src, dst)
            assert abs(s2 - s) < 1e-9
            assert np.max(np.abs(r2 - r)) < 1e-9
            assert np.max(np.abs(t2 - t)) < 1e-9

    def test_without_scale(self):
        # a rigid motion is fitted with scale 1
        rng = np.random.default_rng(10)
        src = rng.normal(size=(10, 3))
        r = random_rotation(rng)
        t = rng.normal(size=3)
        dst = src @ r.T + t
        s2, r2, t2 = G.umeyama_align(src, dst)
        assert abs(s2 - 1.0) < 1e-9
        assert np.max(np.abs(r2 - r)) < 1e-9

    def test_planar_cloud_gives_proper_rotation(self):
        # rank-2 configurations exercise the determinant sign fix
        rng = np.random.default_rng(11)
        for _ in range(20):
            src = rng.normal(size=(15, 3))
            src[:, 2] = 0.0
            r = random_rotation(rng)
            t = rng.normal(size=3)
            dst = src @ r.T + t
            s2, r2, t2 = G.umeyama_align(src, dst)
            assert abs(np.linalg.det(r2) - 1.0) < 1e-9
            err = dst - (s2 * (src @ r2.T) + t2)
            assert np.max(np.abs(err)) < 1e-9

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            G.umeyama_align(np.zeros((2, 3)), np.zeros((2, 3)))
        same = np.tile([1.0, 2.0, 3.0], (5, 1))
        with pytest.raises(ValueError):
            G.umeyama_align(same, same + 1.0)

    def test_apply_similarity(self):
        rng = np.random.default_rng(12)
        pose = G.make_se3(random_rotation(rng), rng.normal(size=3))
        s, r, t = 2.0, random_rotation(rng), rng.normal(size=3)
        out = G.apply_similarity(s, r, t, [pose])[0]
        assert np.allclose(out[:3, 3], s * (r @ pose[:3, 3]) + t)
        assert np.allclose(out[:3, :3], r @ pose[:3, :3])

    def test_apply_similarity_keeps_a_checked_pose_valid(self):
        rng = np.random.default_rng(13)
        stretch = np.diag([np.sqrt(1.0 + 0.9e-6), 1.0, 1.0])
        poses = np.stack([G.make_se3(random_rotation(rng) @ stretch, rng.normal(size=3))
                          for _ in range(50)])
        dev = G._ortho_dev(poses[:, :3, :3])
        assert np.all((dev > 0.89e-6) & (dev < 0.91e-6))
        G.check_se3(poses)
        src = rng.normal(size=(20, 3))
        for r in [random_rotation(rng) for _ in range(10)]:
            # Umeyama's R comes out of an SVD, as tum_rmse_drift's does
            s, r_svd, t = G.umeyama_align(src, 2.0 * src @ r.T + rng.normal(size=3))
            out = G.apply_similarity(s, r_svd, t, poses)
            G.check_se3(out)
            assert np.max(np.abs(G._ortho_dev(out[:, :3, :3]) - dev)) < 1e-14
            for pose, got in zip(poses, out):
                G.check_se3(got)
                assert np.max(np.abs(G.apply_similarity(s, r_svd, t, pose) - got)) < 1e-12

    def test_apply_similarity_refuses_a_non_rotation(self):
        pose = np.eye(4)
        with pytest.raises(ValueError, match="^matrix is not orthonormal"):
            G.apply_similarity(1.0, np.eye(3) * 1.01, np.zeros(3), [pose])
        with pytest.raises(ValueError, match="^matrix has negative determinant"):
            G.apply_similarity(1.0, np.diag([1.0, 1.0, -1.0]), np.zeros(3), [pose])
