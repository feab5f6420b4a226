"""Trajectory formats, drift metrics, saliency, CSV export.

Formats:
  - KITTI pose text: one pose per line, 12 floats, the top 3x4 of the 4x4
    camera-to-world matrix in row-major order. Line i is frame i.
  - TUM pose text: "t x y z qx qy qz qw" per line, timestamps strictly
    increasing, '#' comments allowed.
  - sequence container: a directory with MANIFEST, exactly
    {"format": "memvo-sequence", "version": 2, "poses": true|false}, the
    (T,C,H,W) frames as one VOTB blob, FRAMES_FILE, and, when poses is
    true, the ground-truth poses in KITTI rows, POSES_FILE.
Floats are written with 17 significant digits (lossless for float64);
metric CSVs use 9.
"""

import numbers
import os
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import check_int, write_json
from .geometry import (StackError, apply_similarity, check_se3, matrix_to_quat,
                       pose_inverse, quat_to_matrix, rotation_angle, umeyama_align)
from .training import run_window
from .votb import MANIFEST, beside, manifest_array, read_manifest, write_votb

SEQUENCE_FORMAT = "memvo-sequence"
SEQUENCE_VERSION = 2
FRAMES_FILE = "frames.votb"  # a sequence container's (T,C,H,W) frames
POSES_FILE = "poses_gt.txt"  # its ground-truth poses in KITTI rows, when it has them
TRAJECTORY_FORMATS = ("kitti", "tum")
AGGREGATES = ("mean", "rmse")  # how kitti_drift averages segment errors
SALIENCY_POSES = ("refined", "tracking")  # the poses saliency_map can explain
FRAME_HZ = 10.0  # frames per second: KITTI's camera rate, and the stamps cli infer writes
SPEED_BIN = 2.0  # m/s width of the error-vs-speed bins
KITTI_LENGTHS = (100.0, 200.0, 300.0, 400.0, 500.0, 600.0, 700.0, 800.0)
# TUM RPE (Sturm et al. 2012): poses are paired TUM_DELTA_S seconds apart, and
# stamps match when they lie within STAMP_TOL_S seconds of each other.
TUM_DELTA_S = 1.0
STAMP_TOL_S = 0.02
# Segments or pairs scored per batched product in the drift metrics: bounds
# the temporary (n,4,4) stacks, and with them peak memory.
DRIFT_CHUNK = 1024


def _pose_stack(poses):
    """A sequence or (N,4,4) array of 4x4 poses as one float64 stack.

    Only the shape is checked; check_se3 validates the poses.
    """
    poses = np.asarray(poses, dtype=np.float64)
    if poses.size == 0:
        poses = poses.reshape(0, 4, 4)
    if poses.ndim != 3 or poses.shape[1:] != (4, 4):
        raise ValueError("poses must be a sequence of 4x4 matrices, got shape %s"
                         % (poses.shape,))
    return poses


@dataclass
class Trajectory:
    """Timestamps (frame indices for KITTI) plus an (N,4,4) stack of poses.

    A list of 4x4 poses is stacked on construction. The stamps must be
    finite and strictly increasing, or a StackError names the first bad one.
    """

    stamps: np.ndarray
    poses: np.ndarray

    def __post_init__(self):
        self.stamps = np.asarray(self.stamps, dtype=np.float64)
        self.poses = _pose_stack(self.poses)
        if self.stamps.ndim != 1 or len(self.stamps) != len(self.poses):
            raise ValueError("stamps and poses must align")
        bad, reason = ~np.isfinite(self.stamps), "non-finite value"
        if not bad.any():  # finite stamps, so no difference warns
            bad = np.diff(self.stamps, prepend=-np.inf) <= 0
            reason = "timestamps must be strictly increasing"
        if bad.any():
            raise StackError("stamp", int(np.argmax(bad)), reason)

    def __len__(self):
        return len(self.poses)


def _format_rows(rows):
    """One line per row of a 2-D array, each value with 17 significant digits."""
    fmt = " ".join(["%.17g"] * rows.shape[1])
    return "\n".join([fmt % tuple(row.tolist()) for row in rows]) + "\n"


def format_kitti(poses):
    poses = check_se3(_pose_stack(poses))
    return _format_rows(poses[:, :3].reshape(len(poses), 12))


def _tokenise(text, width, comments):
    """Numbers of every pose line as an (n, width) array, plus each row's line.

    Blank lines, and '#' lines where comments are allowed, are skipped; line
    numbers stay physical. Every error names its line.
    """
    lines = text.splitlines()
    vals, linenos = np.empty((len(lines), width)), []
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens or (comments and tokens[0].startswith("#")):
            continue
        if len(tokens) != width:
            raise ValueError("line %d: expected %d values, got %d" % (lineno, width, len(tokens)))
        try:
            vals[len(linenos)] = list(map(float, tokens))
        except ValueError:
            raise ValueError("line %d: non-numeric value" % lineno) from None
        linenos.append(lineno)
    if not linenos:
        raise ValueError("no poses found")
    vals = vals[:len(linenos)]
    finite = np.isfinite(vals).all(axis=1)
    if not finite.all():
        raise ValueError("line %d: non-finite value" % linenos[int(np.argmin(finite))])
    return vals, linenos


def _by_line(linenos, check, *rows):
    """check(*rows) on whole stacks of parsed rows; a rejected row names its line."""
    try:
        return check(*rows)
    except StackError as exc:
        raise ValueError("line %d: %s" % (linenos[exc.index], exc.reason)) from None


def parse_kitti(text):
    vals, linenos = _tokenise(text, 12, comments=False)
    poses = np.zeros((len(vals), 4, 4))
    poses[:, :3] = vals.reshape(-1, 3, 4)
    poses[:, 3, 3] = 1.0
    return Trajectory(np.arange(len(poses), dtype=np.float64), _by_line(linenos, check_se3, poses))


def format_tum(traj):
    poses = check_se3(traj.poses)
    rows = np.zeros((len(poses), 8))
    rows[:, 0] = traj.stamps
    rows[:, 1:4] = poses[:, :3, 3]
    rows[:, 4:] = matrix_to_quat(poses[:, :3, :3])
    return _format_rows(rows)


def parse_tum(text):
    vals, linenos = _tokenise(text, 8, comments=True)
    poses = np.zeros((len(vals), 4, 4))
    poses[:, :3, :3] = _by_line(linenos, quat_to_matrix, vals[:, 4:8])
    poses[:, :3, 3] = vals[:, 1:4]
    poses[:, 3, 3] = 1.0
    return _by_line(linenos, Trajectory, vals[:, 0].copy(), _by_line(linenos, check_se3, poses))


def _check_format(path, fmt):
    if fmt not in TRAJECTORY_FORMATS:
        raise ValueError("%s: trajectory format must be 'kitti' or 'tum', got %r" % (path, fmt))


def load_trajectory(path, fmt):
    _check_format(path, fmt)
    try:
        with open(path) as fh:
            text = fh.read()
        return parse_kitti(text) if fmt == "kitti" else parse_tum(text)
    except ValueError as exc:  # UnicodeDecodeError too
        raise ValueError("%s: %s" % (path, exc)) from None


def save_trajectory(path, traj, fmt):
    _check_format(path, fmt)
    if not len(traj):  # load_trajectory would find no poses in the file
        raise ValueError("%s: empty trajectory, nothing to save" % path)
    text = format_kitti(traj.poses) if fmt == "kitti" else format_tum(traj)
    with open(path, "w") as fh:
        fh.write(text)


def save_sequence(dirpath, frames, poses=None):
    """Write frames (T,C,H,W) and optional gt poses as a sequence container.

    The frames (rank 4, no empty extent, every value finite), the pose
    count and every pose are checked before any file is written.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 4 or 0 in frames.shape:
        raise ValueError("frames must be (T,C,H,W) with every extent >= 1, got shape %s"
                         % (frames.shape,))
    if not np.all(np.isfinite(frames)):
        raise ValueError("frames have non-finite values")
    if poses is not None:
        if len(poses) != frames.shape[0]:
            raise ValueError("pose count %d != frame count %d" % (len(poses), frames.shape[0]))
        traj = Trajectory(np.arange(len(poses)), poses)
        check_se3(traj.poses)
    os.makedirs(dirpath, exist_ok=True)
    write_votb(os.path.join(dirpath, FRAMES_FILE), frames)
    if poses is not None:
        save_trajectory(os.path.join(dirpath, POSES_FILE), traj, "kitti")
    manifest = {"format": SEQUENCE_FORMAT, "version": SEQUENCE_VERSION, "poses": poses is not None}
    write_json(os.path.join(dirpath, MANIFEST), manifest)


def load_sequence(dirpath):
    """Read a sequence container; returns (frames, poses-or-None).

    A manifest other than exactly {format, version, poses: true|false}, a
    frames blob that is not rank 4 (checked on its header) or holds NaN or
    inf, and a pose file that does not parse or does not hold one pose per
    frame raise a ValueError naming dirpath or the file at fault.
    """
    mpath, manifest = read_manifest(dirpath, SEQUENCE_FORMAT, SEQUENCE_VERSION)
    if set(manifest) != {"format", "version", "poses"} or not isinstance(manifest["poses"], bool):
        raise ValueError("%s: a sequence manifest holds format, version and poses "
                         "(true or false) alone" % mpath)
    frames = manifest_array(mpath, "frames", FRAMES_FILE, (None,) * 4)
    poses = None
    if manifest["poses"]:
        traj = load_trajectory(beside(mpath, "poses", POSES_FILE), "kitti")
        if len(traj) != len(frames):
            raise ValueError("%s: pose count %d != frame count %d"
                             % (mpath, len(traj), len(frames)))
        poses = traj.poses
    return frames, poses


@dataclass
class KittiDriftResult:
    t_rel_percent: float
    r_rel_deg_per_100m: float
    per_length: list  # (length, t_rel_percent, r_rel_deg_per_100m, count)
    # one record per segment: start (int64); length, t_err (ratio, error per
    # meter), r_err (radians per meter) and speed (meters per second), float64
    segments: np.recarray


def _aggregate(values, how):
    # how is one of AGGREGATES, checked by kitti_drift
    if how == "mean":
        return float(values.mean())
    return float(np.sqrt(np.mean(values * values)))


def _drift_row(key, t_err, r_err, how):
    """(key, percent, deg/100m, count) of per-meter drift arrays, aggregated by how."""
    return (key, 100.0 * _aggregate(t_err, how),
            float(np.degrees(_aggregate(r_err, how)) * 100.0), len(t_err))


def _drift_rows(keys, seg_keys, t_err, r_err, how):
    """One _drift_row per key that some segment carries (seg_keys == float(key)),
    in key order; each row names its key as given."""
    rows = []
    for key in keys:
        sel = seg_keys == float(key)
        if sel.any():
            rows.append(_drift_row(key, t_err[sel], r_err[sel], how))
    return rows


def _pair_errors(est, est_inv, gt, gt_inv, i, j):
    """Error of est against gt over every pair of frames (i, j).

    The relative poses inv(P_i) P_j come from the inverses of the whole
    trajectories, so no pose is inverted or validated per pair. The error
    pose inv(gt_rel) est_rel is written out as (R_g^T R_e, R_g^T (t_e - t_g)),
    which is exactly the identity wherever est_rel equals gt_rel. Returns its
    translation norm and rotation angle per pair, DRIFT_CHUNK pairs at a time.
    """
    t_err, r_err = np.empty(len(i)), np.empty(len(i))
    for a in range(0, len(i), DRIFT_CHUNK):
        ii, jj = i[a:a + DRIFT_CHUNK], j[a:a + DRIFT_CHUNK]
        gt_rel = gt_inv[ii] @ gt[jj]
        est_rel = est_inv[ii] @ est[jj]
        rt = gt_rel[:, :3, :3].swapaxes(1, 2)
        shift = rt @ (est_rel[:, :3, 3] - gt_rel[:, :3, 3])[:, :, None]
        t_err[a:a + DRIFT_CHUNK] = np.linalg.norm(shift[:, :, 0], axis=1)
        r_err[a:a + DRIFT_CHUNK] = rotation_angle(rt @ est_rel[:, :3, :3])
    return t_err, r_err


def kitti_drift(est, gt, lengths=KITTI_LENGTHS, step=1, aggregate="mean",
                frame_hz=FRAME_HZ):
    """Average drift over all subsegments of the given path lengths.

    For every start frame (thinned by step) and every length L, the first
    frame at which the ground-truth path length since the start reaches L
    closes a subsegment; the pose discrepancy over it, divided by L, gives
    the translational (ratio) and rotational (rad/m) drift. Results are
    scaled to percent and deg/100m. Both trajectories must cover the same
    frames. Invariant to any rigid transform applied to both inputs.

    est and gt are Trajectory objects, sequences of 4x4 poses or (N,4,4)
    stacks; their poses are validated once per call, after the other
    arguments. lengths may come in any order and must be distinct, finite
    and positive; frame_hz must be a finite, positive real number (no bool),
    step an int >= 1 and aggregate one of AGGREGATES.
    Every (start, length) that fits is scored. segments is a record array
    with one record per segment, start by start, in lengths order.
    """
    check_int("step", step, 1)
    if (isinstance(frame_hz, bool) or not isinstance(frame_hz, numbers.Real)
            or not (np.isfinite(frame_hz) and frame_hz > 0.0)):
        raise ValueError("frame_hz must be a finite, positive number, got %r" % (frame_hz,))
    lens = np.asarray(lengths, dtype=np.float64)
    if (lens.ndim != 1 or not np.all(np.isfinite(lens) & (lens > 0.0))
            or len(set(lens.tolist())) < len(lens)):  # a repeated length scores its segments twice
        raise ValueError("lengths must be distinct, finite and positive, got %r" % (lengths,))
    if aggregate not in AGGREGATES:
        raise ValueError("aggregate must be one of %s, got %r" % (AGGREGATES, aggregate))
    est = est.poses if isinstance(est, Trajectory) else _pose_stack(est)
    gt = gt.poses if isinstance(gt, Trajectory) else _pose_stack(gt)
    if len(est) != len(gt):
        raise ValueError("est has %d poses, gt has %d" % (len(est), len(gt)))
    n = len(gt)
    if n < 2:
        raise ValueError("need at least 2 poses")
    est_inv, gt_inv = pose_inverse(est), pose_inverse(gt)
    seg = np.linalg.norm(np.diff(gt[:, :3, 3], axis=0), axis=1)
    dist = np.concatenate([[0.0], np.cumsum(seg)])
    first = np.arange(0, n, step)
    starts = np.repeat(first, len(lens))
    which = np.tile(np.arange(len(lens)), len(first))  # index into lengths
    ends = np.searchsorted(dist, dist[starts] + lens[which], side="left")
    fits = ends < n
    starts, which, ends = starts[fits], which[fits], ends[fits]
    if not len(starts):
        raise ValueError("trajectory too short for any evaluation length")
    t_err, r_err = _pair_errors(est, est_inv, gt, gt_inv, starts, ends)
    del est_inv, gt_inv  # not needed while the segment table is built
    seg_len = lens[which]
    t_err /= seg_len
    r_err /= seg_len
    speed = seg_len / ((ends - starts) / frame_hz)
    per_length = _drift_rows(lengths, seg_len, t_err, r_err, aggregate)
    t_rel, r_rel = _drift_row(None, t_err, r_err, aggregate)[1:3]
    segments = np.rec.fromarrays([starts, seg_len, t_err, r_err, speed], formats="i8,f8,f8,f8,f8",
                                 names="start,length,t_err,r_err,speed")
    return KittiDriftResult(t_rel, r_rel, per_length, segments)


@dataclass
class TumDriftResult:
    rmse_m_per_s: float
    pairs: int
    matches: int
    scale: float


def associate_stamps(est, gt):
    """Greedy one-to-one nearest-neighbor matching of two Trajectory objects'
    stamps within STAMP_TOL_S: (i, j) index pairs, sorted. A Trajectory's
    stamps are checked strictly increasing, which the matching needs; any
    other argument raises TypeError."""
    if not (isinstance(est, Trajectory) and isinstance(gt, Trajectory)):
        raise TypeError("associate_stamps needs two Trajectory objects, got %s and %s"
                        % (type(est).__name__, type(gt).__name__))
    a, b = est.stamps, gt.stamps
    # candidates: the two stamps of b around each a[i], taken by (gap, i, j) within the tolerance
    cand_i = np.repeat(np.arange(len(a)), 2)
    cand_j = (np.searchsorted(b, a)[:, None] + np.array([-1, 0])).ravel()
    inside = (cand_j >= 0) & (cand_j < len(b))
    cand_i, cand_j = cand_i[inside], cand_j[inside]
    gap = np.abs(b[cand_j] - a[cand_i])
    order = np.lexsort((cand_j, cand_i, gap))
    order = order[gap[order] <= STAMP_TOL_S]
    used_a, used_b, pairs = set(), set(), []
    for i, j in zip(cand_i[order].tolist(), cand_j[order].tolist()):
        if i in used_a or j in used_b:
            continue
        used_a.add(i)
        used_b.add(j)
        pairs.append((i, j))
    pairs.sort()
    return pairs


def _delta_pairs(stamps, delta, tol):
    """For each stamp a, the later stamp nearest to stamps[a] + delta.

    Candidates are the two stamps around stamps[a] + delta; one counts when
    it lies after a and within tol of the target, and of two the earlier
    wins ties. Returns the index arrays (a, b) of the pairs found.
    """
    m = len(stamps)
    a = np.arange(m)
    hi = np.searchsorted(stamps, stamps + delta)
    lo = hi - 1
    lo_gap = np.abs(stamps[np.maximum(lo, 0)] - stamps - delta)
    hi_gap = np.abs(stamps[np.minimum(hi, m - 1)] - stamps - delta)
    lo_ok = (a < lo) & (lo_gap <= tol)
    hi_ok = (a < hi) & (hi < m) & (hi_gap <= tol)
    take_hi = hi_ok & ~(lo_ok & (lo_gap <= hi_gap))
    found = lo_ok | hi_ok
    return a[found], np.where(take_hi, hi, lo)[found]


def tum_rmse_drift(est, gt):
    """Translational drift rate in m/s, TUM style.

    est and gt are associated by timestamp (greedy nearest neighbor within
    STAMP_TOL_S seconds), est is similarity-aligned onto gt (Umeyama, which
    also recovers trajectory scale), and every associated pose is paired
    with the associated pose TUM_DELTA_S seconds later (same tolerance). The
    reported value is the RMSE over pairs of ||relative translation error|| / dt.
    """
    matches = associate_stamps(est, gt)
    if len(matches) < 3:
        raise ValueError("only %d timestamp matches, need at least 3" % len(matches))
    ei, gj = np.array(matches).T
    gt_m, stamps = gt.poses[gj], est.stamps[ei]
    scale, rot, trans = umeyama_align(est.poses[ei, :3, 3], gt_m[:, :3, 3])
    est_aligned = apply_similarity(scale, rot, trans, est.poses[ei])
    a, b = _delta_pairs(stamps, TUM_DELTA_S, STAMP_TOL_S)
    if not len(a):
        raise ValueError("no pose pairs %.3g s apart" % TUM_DELTA_S)
    t_err, _ = _pair_errors(est_aligned, pose_inverse(est_aligned), gt_m, pose_inverse(gt_m), a, b)
    errs = t_err / (stamps[b] - stamps[a])
    rmse = float(np.sqrt(np.mean(np.square(errs))))
    return TumDriftResult(rmse, len(errs), len(matches), scale)


def saliency_map(model, frames, policy, target=None, which="refined"):
    """Per-frame input saliency for one predicted pose.

    The scalar under the gradient is the mean of the six pose components of
    the target step (frame index 1..T-1, default the last). which picks the
    refined absolute pose or the tracking relative pose. The memory stays
    live, so gradients also reach frames through their stored states. Each
    input frame yields an (H,W) map: channel-max of |d scalar / d pixel|.
    Frames the target cannot depend on give all-zero maps.
    """
    if which not in SALIENCY_POSES:
        raise ValueError("which must be one of %s, got %r" % (SALIENCY_POSES, which))
    n_steps = len(frames) - 1
    target = n_steps if target is None else check_int("target", target, 1)
    if target > n_steps:
        raise ValueError("target must be a frame index in [1, %d]" % n_steps)
    leaves = [T.Tensor(np.asarray(f, dtype=np.float64), requires_grad=True)
              for f in frames]
    result = run_window(model, leaves, policy, detach_memory=False)
    vec = (result.abs_tensors if which == "refined" else result.track.rels)[target - 1]
    T.div(T.tsum(vec), float(vec.data.size)).backward()
    maps = []
    for leaf in leaves:
        if leaf.grad is None:
            maps.append(np.zeros(leaf.data.shape[1:]))
        else:
            maps.append(np.max(np.abs(leaf.grad), axis=0))
    return maps


def export_csv(path, header, rows):
    """Write a CSV with 9-significant-digit floats."""
    def fmt(v):
        if isinstance(v, str):
            return v
        if isinstance(v, (int, np.integer)):
            return "%d" % v
        return "%.9g" % v

    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


def error_vs_length_rows(result):
    return (["length_m", "t_rel_percent", "r_rel_deg_per_100m", "segments"],
            [(int(l), t, r, c) for l, t, r, c in result.per_length])


def error_vs_speed_rows(result):
    header = ["speed_mps", "t_rel_percent", "r_rel_deg_per_100m", "segments"]
    segs = result.segments
    keys = np.round(segs.speed / SPEED_BIN) * SPEED_BIN
    # not np.unique: its first call imports numpy.ma
    return header, _drift_rows(sorted(set(keys.tolist())), keys, segs.t_err, segs.r_err, "mean")
