"""Rigid-motion helpers: Euler angles, quaternions, SE(3) poses, alignment.

Conventions, used everywhere in this package:
  - rotations act on column vectors, R = Rz(phi_z) @ Ry(phi_y) @ Rx(phi_x)
  - Euler angles are stored (phi_x, phi_y, phi_z) and wrapped to (-pi, pi]
  - a pose is a camera-to-world 4x4; the relative pose of frame t in the
    frame t-1 coordinates is inv(P_{t-1}) @ P_t, so absolute poses grow by
    right multiplication
  - 6-vectors order translation first: (tx, ty, tz, phi_x, phi_y, phi_z)
  - quaternions are (qx, qy, qz, qw), unit norm, qw >= 0 on output
"""

from dataclasses import dataclass, field
from math import isfinite

import numpy as np

_ORTHO_TOL = 1e-6


def wrap_angle(phi):
    """Wrap angles (scalar or array) into (-pi, pi].

    Values already inside the interval pass through bit-exactly.
    """
    phi = np.asarray(phi, dtype=np.float64)
    wrapped = -(np.mod(-phi + np.pi, 2.0 * np.pi) - np.pi)
    out = np.where((phi > -np.pi) & (phi <= np.pi), phi, wrapped)
    return out if out.ndim else float(out)


def euler_to_matrix(phi):
    """(phi_x, phi_y, phi_z) -> 3x3 rotation, R = Rz @ Ry @ Rx."""
    px, py, pz = [float(v) for v in phi]
    cx, sx = np.cos(px), np.sin(px)
    cy, sy = np.cos(py), np.sin(py)
    cz, sz = np.cos(pz), np.sin(pz)
    rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    return rz @ ry @ rx


class StackError(ValueError):
    """A check rejected one element of a stack; index is the first that fails."""

    def __init__(self, what, index, reason):
        super().__init__("%s %d: %s" % (what, index, reason))
        self.index = index
        self.reason = reason


def _raise_first(faults, what):
    """Raise for the first element that fails any (mask, reason) check.

    A mask is 0-d for a single matrix, which raises a plain ValueError with
    the reason; on a stack a StackError names the first failing element.
    Within an element the checks count in order. A reason is a string, or a
    function of the element's index for reasons that quote a value.
    """
    bad = faults[0][0]
    for mask, _ in faults[1:]:
        bad = bad | mask
    if not (bad.any() if bad.ndim else bad):  # bool() of a 0-d mask is the cheap test
        return
    idx = int(np.argmax(bad)) if bad.ndim else ()
    for mask, reason in faults:
        if mask[idx]:
            reason = reason if isinstance(reason, str) else reason(idx)
            if bad.ndim:
                raise StackError(what, idx, reason)
            raise ValueError(reason)


def _det3(m):
    """Determinant of a 3x3 matrix, or of each matrix of a (...,3,3) stack.

    The cofactor expansion along the first row, in the same order for a lone
    matrix (on Python floats, cheaper than a LAPACK call) as for each matrix
    of a stack (vectorised), so both give the same bits. Callers read only
    its sign, of matrices that are orthonormal or checked to be.
    """
    det = _cofactor_det(*_entries(m))
    # a lone determinant as np.float64, so that comparing it gives a numpy mask
    return np.float64(det) if m.ndim == 2 else det


def _cofactor_det(a, b, c, d, e, f, g, h, i):
    # _det3 of the nine entries row by row, Python floats or arrays alike
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _ortho_dev(m):
    """max|M^T M - I| of a 3x3 matrix, or of each matrix of a (...,3,3) stack.

    From the six distinct column dot products, like _det3, so a lone matrix
    gives the bits of its row in a stack; it may differ by about an ulp from
    a BLAS M^T M, which may fuse multiply-adds. Finite entries that overflow
    give NaN (inf - inf) only off the diagonal, where that column's diagonal
    term is inf; the diagonal comes first and both maxima skip a later NaN,
    so the matrix reads inf, as BLAS gives it. A NaN entry may read anything:
    the check of finite entries comes first.
    """
    devs = _column_devs(*_entries(m))
    return np.float64(max(map(abs, devs))) if m.ndim == 2 else np.fmax.reduce(np.abs(devs))


def _column_devs(a, b, c, d, e, f, g, h, i):
    # the six distinct entries of M^T M - I from M's nine entries row by row,
    # the diagonal first; Python floats or arrays alike
    return (a * a + d * d + g * g - 1.0, b * b + e * e + h * h - 1.0, c * c + f * f + i * i - 1.0,
            a * b + d * e + g * h, a * c + d * f + g * i, b * c + e * f + h * i)


def _entries(m):
    # the nine entries of a 3x3 matrix, row by row, as Python floats; of a
    # (...,3,3) stack as nine (...)-shaped views
    if m.ndim == 2:
        (a, b, c), (d, e, f), (g, h, i) = m.tolist()
        return a, b, c, d, e, f, g, h, i
    return [m[..., j, k] for j in range(3) for k in range(3)]


def _rotation_faults(r):
    """The rotation checks of a 3x3 matrix or of a (...,3,3) stack, in order.

    A lone matrix is read once as Python floats, which warn on no overflow,
    and gives the reason of the first check it fails (finite, orthonormal,
    positive determinant) or None; with the expressions of _ortho_dev and
    _det3, it gets the verdict of its row in a stack. A stack gives (mask,
    reason) pairs for _raise_first, its callers placing the finite check
    first; its huge entries raise no warning, and NaN fails no comparison.
    """
    if r.ndim == 2:
        m = _entries(r)
        if not all(map(isfinite, m)):
            return "matrix has non-finite entries"
        dev = max(map(abs, _column_devs(*m)))
        if dev > _ORTHO_TOL:
            return "matrix is not orthonormal (max deviation %.3g)" % dev
        if _cofactor_det(*m) < 0.0:
            return "matrix has negative determinant (reflection)"
        return None
    with np.errstate(all="ignore"):
        dev, det = _ortho_dev(r), _det3(r)
    return [(dev > _ORTHO_TOL, lambda i: "matrix is not orthonormal (max deviation %.3g)" % dev[i]),
            (det < 0.0, "matrix has negative determinant (reflection)")]


def _non_finite(m):
    """Per-matrix mask of (...,k,k) m: True where any entry is NaN or infinite."""
    return ~np.isfinite(m).all(axis=(-2, -1))


def _check_rotation(r, stack=False):
    # with stack=True an (N,3,3) stack passes too, its errors naming a rotation
    r = np.asarray(r, dtype=np.float64)
    if r.shape[-2:] != (3, 3) or r.ndim != 2 and not (stack and r.ndim == 3):
        raise ValueError("rotation must be 3x3, got %s" % (r.shape,))
    if r.ndim == 3:
        _raise_first([(_non_finite(r), "matrix has non-finite entries")] + _rotation_faults(r),
                     "rotation")
    elif reason := _rotation_faults(r):
        raise ValueError(reason)
    return r


def matrix_to_euler(r):
    """Inverse of euler_to_matrix; rejects non-rotations.

    At the gimbal singularity (|phi_y| = pi/2) the x and z angles are not
    separable; the representative with phi_x = 0 is returned.
    """
    return _rotation_to_euler(_check_rotation(r))


def _rotation_to_euler(r):
    # matrix_to_euler without the check, for a 3x3 rotation the caller trusts
    sy = -r[2, 0]
    sy = min(1.0, max(-1.0, float(sy)))
    if abs(sy) < 1.0 - 1e-9:
        phi_x = np.arctan2(r[2, 1], r[2, 2])
        phi_y = np.arcsin(sy)
        phi_z = np.arctan2(r[1, 0], r[0, 0])
    else:
        phi_x = 0.0
        phi_y = np.pi / 2.0 if sy > 0 else -np.pi / 2.0
        phi_z = np.arctan2(-r[0, 1], r[1, 1])
    return wrap_angle(np.array([phi_x, phi_y, phi_z]))


def quat_to_matrix(q):
    """(qx, qy, qz, qw) -> rotation matrix; normalizes, rejects zero norm.

    An (N,4) stack gives an (N,3,3) stack; an error names the first bad row.
    """
    q = np.asarray(q, dtype=np.float64)
    if q.ndim not in (1, 2) or q.shape[-1] != 4:
        raise ValueError("quaternion must have shape (4,)")
    with np.errstate(over="ignore"):  # an overflowing norm is rejected below
        n = np.sqrt(np.sum(q * q, axis=-1))
    _raise_first([(~np.isfinite(n), "quaternion norm is not finite"),
                  (n < 1e-12, "zero-norm quaternion")], "quaternion")
    x, y, z, w = np.moveaxis(q / n[..., None], -1, 0)
    return np.stack([
        1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w),
        2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w),
        2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y),
    ], axis=-1).reshape(q.shape[:-1] + (3, 3))


def matrix_to_quat(r):
    """Rotation matrix -> (qx, qy, qz, qw), unit, qw >= 0.

    An (N,3,3) stack gives an (N,4) stack, bit-identical to converting each
    rotation alone, and is validated once; an error names the first bad
    rotation.
    """
    r = _check_rotation(r, stack=True)
    m = r.reshape(-1, 3, 3)
    # branch on the largest diagonal combination for stability
    d0, d1, d2 = m[:, 0, 0], m[:, 1, 1], m[:, 2, 2]
    tr = d0 + d1 + d2
    branch = np.select([tr > 0, (d0 > d1) & (d0 > d2), d1 > d2], [0, 1, 2], 3)
    q = np.empty((len(m), 4))
    sel = branch == 0
    b, s = m[sel], np.sqrt(tr[sel] + 1.0) * 2.0
    q[sel] = _columns((b[:, 2, 1] - b[:, 1, 2]) / s, (b[:, 0, 2] - b[:, 2, 0]) / s,
                      (b[:, 1, 0] - b[:, 0, 1]) / s, 0.25 * s)
    sel = branch == 1
    b = m[sel]
    s = np.sqrt(1.0 + b[:, 0, 0] - b[:, 1, 1] - b[:, 2, 2]) * 2.0
    q[sel] = _columns(0.25 * s, (b[:, 0, 1] + b[:, 1, 0]) / s,
                      (b[:, 0, 2] + b[:, 2, 0]) / s, (b[:, 2, 1] - b[:, 1, 2]) / s)
    sel = branch == 2
    b = m[sel]
    s = np.sqrt(1.0 + b[:, 1, 1] - b[:, 0, 0] - b[:, 2, 2]) * 2.0
    q[sel] = _columns((b[:, 0, 1] + b[:, 1, 0]) / s, 0.25 * s,
                      (b[:, 1, 2] + b[:, 2, 1]) / s, (b[:, 0, 2] - b[:, 2, 0]) / s)
    sel = branch == 3
    b = m[sel]
    s = np.sqrt(1.0 + b[:, 2, 2] - b[:, 0, 0] - b[:, 1, 1]) * 2.0
    q[sel] = _columns((b[:, 0, 2] + b[:, 2, 0]) / s, (b[:, 1, 2] + b[:, 2, 1]) / s,
                      0.25 * s, (b[:, 1, 0] - b[:, 0, 1]) / s)
    # a per-row dot, the same BLAS reduction np.linalg.norm runs on one quaternion
    q /= np.sqrt(q[:, None, :] @ q[:, :, None])[:, 0]
    q[q[:, 3] < 0] *= -1.0
    return q.reshape(r.shape[:-2] + (4,))


def _columns(*cols):
    # (n,) columns side by side -> (n, len(cols))
    return np.stack(cols, axis=-1)


def make_se3(r, t):
    """Assemble a 4x4 pose from rotation and translation, both checked."""
    out = np.eye(4)
    out[:3, :3] = _check_rotation(r)
    out[:3, 3] = np.asarray(t, dtype=np.float64).reshape(3)
    if not np.isfinite(out[:3, 3]).all():
        raise ValueError("translation has non-finite entries")
    return out


def check_se3(pose):
    """Validate a 4x4 pose or an (N,4,4) stack; returns it as float64.

    Entries must be finite, the last row (0,0,0,1) and the rotation block
    orthonormal with positive determinant. On a stack the error is a
    StackError naming the first bad pose. A lone pose is read as Python
    floats, with the expressions and the order of the stack's checks, so it
    gets the verdict and the reason of its row in a stack.
    """
    pose = np.asarray(pose, dtype=np.float64)
    if pose.ndim not in (2, 3) or pose.shape[-2:] != (4, 4):
        raise ValueError("pose must be 4x4, got %s" % (pose.shape,))
    if pose.ndim == 3:
        _raise_first([(_non_finite(pose), "pose has non-finite entries"),
                      (_last_row_dev(pose) > _ORTHO_TOL, "pose last row must be (0,0,0,1)")]
                     + _rotation_faults(pose[:, :3, :3]), "pose")
        return pose
    r0, r1, r2, r3 = pose.tolist()
    a, b, c, d = r3
    if not all(map(isfinite, r0 + r1 + r2 + r3)):
        raise ValueError("pose has non-finite entries")
    if max(abs(a), abs(b), abs(c), abs(d - 1.0)) > _ORTHO_TOL:
        raise ValueError("pose last row must be (0,0,0,1)")
    if reason := _rotation_faults(pose[:3, :3]):
        raise ValueError(reason)
    return pose


def _last_row_dev(pose):
    # max |last row - (0,0,0,1)| of each pose of an (N,4,4) stack, entry by
    # entry: numpy's max over a length-4 axis costs ten times as much
    a, b, c, d = pose[:, 3].T
    return np.fmax(np.fmax(abs(a), abs(b)), np.fmax(abs(c), abs(d - 1.0)))


def translation(pose):
    return np.asarray(pose, dtype=np.float64)[:3, 3].copy()


def pose_compose(a, b):
    """a @ b of two checked poses; (N,4,4) stacks compose pose by pose.

    The product is not re-projected onto SO(3): products of rotations stay
    orthonormal to rounding, which grows as a random walk (a chain of 20,000
    random relatives reaches max|R^T R - I| of about 4e-14, against
    check_se3's 1e-6), so integrated trajectories pass downstream checks.
    A product whose translation overflows is refused. Each pose of a stack
    has the bits of a lone call.
    """
    return _compose(check_se3(a), check_se3(b))


def _compose(a, b):
    # pose_compose without the checks of a and b, for trusted poses or
    # stacks; it still refuses a product whose translation is not finite
    with np.errstate(over="ignore", invalid="ignore"):
        out = a @ b
    out[..., 3, :] = (0.0, 0.0, 0.0, 1.0)
    reason = "product has non-finite translation"
    if out.ndim == 3:
        _raise_first([(~np.isfinite(out[:, :3, 3]).all(axis=1), reason)], "pose")
    elif not all(map(isfinite, out[:3, 3].tolist())):
        raise ValueError(reason)
    return out


def pose_inverse(pose):
    """Inverse of a 4x4 pose, or of each pose of an (N,4,4) stack.

    The translation is summed elementwise, so a pose gives the same bits
    alone as inside any stack.
    """
    return _inverse(check_se3(pose))


def _inverse(pose):
    # pose_inverse without the check, for a pose or stack the caller trusts
    r, t = pose[..., :3, :3], pose[..., :3, 3]
    out = np.zeros(pose.shape)
    out[..., :3, :3] = r.swapaxes(-1, -2)
    out[..., :3, 3] = -(r[..., 0, :] * t[..., 0, None] + r[..., 1, :] * t[..., 1, None]
                        + r[..., 2, :] * t[..., 2, None])
    out[..., 3, 3] = 1.0
    return out


def rotation_angle(r):
    """Geodesic angle of a rotation matrix, in [0, pi]; an array for a stack.

    atan2 of the skew-part norm against the trace: exactly 0 for symmetric
    input and well conditioned at both ends, unlike the arccos form whose
    derivative blows up at 0 and pi.
    """
    r = np.asarray(r, dtype=np.float64)
    a = r[..., 2, 1] - r[..., 1, 2]
    b = r[..., 0, 2] - r[..., 2, 0]
    c = r[..., 1, 0] - r[..., 0, 1]
    s = 0.5 * np.sqrt(a * a + b * b + c * c)
    angle = np.arctan2(s, (r[..., 0, 0] + r[..., 1, 1] + r[..., 2, 2] - 1.0) / 2.0)
    return float(angle) if angle.ndim == 0 else angle


@dataclass
class Pose6DoF:
    """Translation plus Euler rotation, the network's pose parameterization."""

    p: np.ndarray = field(default_factory=lambda: np.zeros(3))
    phi: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=np.float64).reshape(3).copy()
        self.phi = wrap_angle(np.asarray(self.phi, dtype=np.float64).reshape(3))

    def to_vector(self):
        return np.concatenate([self.p, self.phi])

    @classmethod
    def from_vector(cls, v):
        v = np.asarray(v, dtype=np.float64).reshape(6)
        return cls(v[:3], v[3:])

    def to_matrix(self):
        return make_se3(euler_to_matrix(self.phi), self.p)


def poses_from_vectors(vectors):
    """(N,6) pose vectors -> (N,4,4) poses; rejects non-finite rows.

    Each pose is Pose6DoF.from_vector(v).to_matrix() without make_se3's
    check of the rotation just built: any finite vector gives a valid pose.
    """
    v = np.asarray(vectors, dtype=np.float64)
    if v.ndim != 2 or v.shape[1] != 6:
        raise ValueError("pose vectors must have shape (N, 6), got %s" % (v.shape,))
    _raise_first([(~np.isfinite(v).all(axis=1), "vector has non-finite entries")], "pose vector")
    out = np.zeros((len(v), 4, 4))
    for pose, phi in zip(out, wrap_angle(v[:, 3:])):
        pose[:3, :3] = euler_to_matrix(phi)
    out[:, :3, 3] = v[:, :3]
    out[:, 3, 3] = 1.0
    return out


def integrate_relative(rels, origin=None):
    """Chain relative poses onto an origin.

    rels are Pose6DoF (or 4x4) of frame t expressed in frame t-1; the result
    has len(rels)+1 absolute poses, the first being the origin itself. Each
    step is one pose_compose, with no re-projection, so the chain drifts off
    SO(3) only by rounding; a step whose translation overflows is refused.
    With (N,4,4) stacks as rels and origin, N chains advance together, each
    with the bits of its own chain.
    """
    cur = np.eye(4) if origin is None else check_se3(origin).copy()
    out = [cur.copy()]
    for rel in rels:
        cur = pose_compose(cur, rel.to_matrix() if isinstance(rel, Pose6DoF) else rel)
        out.append(cur)
    return out


def umeyama_align(src, dst):
    """Least-squares similarity (s, R, t) with dst ~ s * R @ src + t.

    src and dst are (n, 3) with n >= 3; degenerate clouds (all points
    coincident) are rejected.
    """
    src = np.asarray(src, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    if src.shape != dst.shape or src.ndim != 2 or src.shape[1] != 3:
        raise ValueError("umeyama_align expects matching (n,3) arrays")
    n = src.shape[0]
    if n < 3:
        raise ValueError("umeyama_align needs at least 3 points")
    mu_s = src.mean(axis=0)
    mu_d = dst.mean(axis=0)
    xs = src - mu_s
    xd = dst - mu_d
    var_s = float(np.mean(np.sum(xs * xs, axis=1)))
    if var_s < 1e-18:
        raise ValueError("source points are all identical")
    cov = (xd.T @ xs) / n
    u, d, vt = np.linalg.svd(cov)
    s_fix = np.eye(3)
    if _det3(u) * _det3(vt) < 0:
        s_fix[2, 2] = -1.0
    r = u @ s_fix @ vt
    scale = float(np.trace(np.diag(d) @ s_fix) / var_s)
    t = mu_d - scale * (r @ mu_s)
    return scale, r, t


def apply_similarity(scale, r, t, poses):
    """Apply (s, R, t) to a sequence or (N,4,4) stack of poses; returns a stack.

    Positions map by s*R*p + t, orientations by R @ R_pose, as the alignment
    gives them (TUM scores them so). Scale deliberately leaves rotations
    alone. R is checked as a rotation; Umeyama's comes out of an SVD and is
    orthonormal to rounding, so R @ R_pose is as orthonormal as the R_pose
    check_se3 accepted, and the output passes check_se3 without a
    re-projection.
    """
    poses = check_se3(poses)
    r = _check_rotation(r)
    out = np.zeros(poses.shape)
    out[..., :3, :3] = r @ poses[..., :3, :3]
    out[..., :3, 3] = scale * (poses[..., :3, 3] @ r.T) + t
    out[..., 3, 3] = 1.0
    return out
