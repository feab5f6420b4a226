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

    def test_compose_reorthonormalizes(self):
        rng = np.random.default_rng(6)
        pose = np.eye(4)
        step = G.make_se3(G.euler_to_matrix((1e-4, 2e-4, 0.01)), (0.1, 0, 0))
        for _ in range(2000):
            pose = G.pose_compose(pose, step)
        r = pose[:3, :3]
        assert np.max(np.abs(r.T @ r - np.eye(3))) < 1e-12

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

    def test_orthonormalize_and_similarity_stack(self):
        rng = np.random.default_rng(25)
        poses = self._stack(rng, n=30)
        m = poses[:, :3, :3] + rng.normal(size=(30, 3, 3)) * 1e-3
        batched = G.orthonormalize(m)
        for mi, ri in zip(m, batched):
            assert np.max(np.abs(ri - G.orthonormalize(mi))) < 1e-15
        s, r, t = 1.7, random_rotation(rng), rng.normal(size=3)
        out = G.apply_similarity(s, r, t, poses)
        for pose, got in zip(poses, out):
            # the per-pose form apply_similarity had before it took stacks
            want = np.eye(4)
            want[:3, :3] = G.orthonormalize(r @ pose[:3, :3])
            want[:3, 3] = s * (r @ pose[:3, 3]) + t
            assert np.max(np.abs(got - want)) < 1e-12


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
            q = G.Pose6DoF.from_matrix(p.to_matrix())
            assert np.max(np.abs(q.p - p.p)) < 1e-9
            assert np.max(np.abs(q.phi - p.phi)) < 1e-9

    def test_from_matrix_checks_once_with_the_same_messages(self, monkeypatch):
        real, calls = G._rotation_faults, []

        def counted(r):
            calls.append(r.shape)
            return real(r)

        monkeypatch.setattr(G, "_rotation_faults", counted)
        pose = G.make_se3(G.euler_to_matrix((0.3, -0.2, 1.0)), (1.0, 2.0, 3.0))
        calls.clear()
        q = G.Pose6DoF.from_matrix(pose)
        assert calls == [(3, 3)]
        assert np.array_equal(q.phi, G.matrix_to_euler(pose[:3, :3]))
        skewed, reflected, nan = pose.copy(), pose.copy(), pose.copy()
        skewed[:3, :3] *= 1.001
        reflected[:3, 0] *= -1.0
        nan[1, 2] = np.nan
        for bad, why in ((skewed, "^matrix is not orthonormal"),
                         (reflected, r"^matrix has negative determinant \(reflection\)$"),
                         (nan, "^pose has non-finite entries$"),
                         (np.eye(3), r"^pose must be 4x4, got \(3, 3\)$"),
                         (np.stack([pose] * 3), r"^pose must be 4x4, got \(3, 4, 4\)$")):
            with pytest.raises(ValueError, match=why):
                G.Pose6DoF.from_matrix(bad)


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
        rels = [G.Pose6DoF.from_matrix(G.pose_compose(G.pose_inverse(a), b))
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
