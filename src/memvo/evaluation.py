"""Trajectory formats, drift metrics, saliency, CSV export.

Formats:
  - KITTI pose text: one pose per line, 12 floats, the top 3x4 of the 4x4
    camera-to-world matrix in row-major order. Line i is frame i.
  - TUM pose text: "t x y z qx qy qz qw" per line, timestamps strictly
    increasing, '#' comments allowed.
  - sequence container: a directory with manifest.json plus one VOTB blob
    per frame and an optional ground-truth pose file.
Floats are written with 17 significant digits (lossless for float64);
metric CSVs use 9.
"""

import json
import os
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .geometry import (StackError, apply_similarity, check_se3, matrix_to_quat,
                       pose_inverse, quat_to_matrix, rotation_angle, umeyama_align)
from .training import run_window
from .votb import read_votb, write_votb

SEQUENCE_MANIFEST = "manifest.json"
SEQUENCE_FORMAT = "memvo-sequence"
KITTI_LENGTHS = (100.0, 200.0, 300.0, 400.0, 500.0, 600.0, 700.0, 800.0)
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

    A list of 4x4 poses is stacked on construction.
    """

    stamps: np.ndarray
    poses: np.ndarray

    def __post_init__(self):
        self.stamps = np.asarray(self.stamps, dtype=np.float64)
        self.poses = _pose_stack(self.poses)
        if self.stamps.ndim != 1 or len(self.stamps) != len(self.poses):
            raise ValueError("stamps and poses must align")

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


def _by_line(linenos, check, rows):
    """check(rows) on a whole stack of parsed rows; a rejected row names its line."""
    try:
        return check(rows)
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
    for row, pose in zip(rows, poses):
        row[4:] = matrix_to_quat(pose[:3, :3])
    return _format_rows(rows)


def parse_tum(text):
    vals, linenos = _tokenise(text, 8, comments=True)
    stamps = vals[:, 0].copy()
    rising = np.diff(stamps) > 0
    if not rising.all():
        raise ValueError("line %d: timestamps must be strictly increasing"
                         % linenos[int(np.argmin(rising)) + 1])
    poses = np.zeros((len(vals), 4, 4))
    poses[:, :3, :3] = _by_line(linenos, quat_to_matrix, vals[:, 4:8])
    poses[:, :3, 3] = vals[:, 1:4]
    poses[:, 3, 3] = 1.0
    return Trajectory(stamps, _by_line(linenos, check_se3, poses))


def load_trajectory(path, fmt):
    with open(path) as fh:
        text = fh.read()
    try:
        return parse_kitti(text) if fmt == "kitti" else parse_tum(text)
    except ValueError as exc:
        raise ValueError("%s: %s" % (path, exc)) from None


def save_trajectory(path, traj, fmt):
    text = format_kitti(traj.poses) if fmt == "kitti" else format_tum(traj)
    with open(path, "w") as fh:
        fh.write(text)


def save_sequence(dirpath, frames, poses=None):
    """Write frames (T,C,H,W) and optional gt poses as a sequence container."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 4:
        raise ValueError("frames must be (T,C,H,W)")
    os.makedirs(dirpath, exist_ok=True)
    names = []
    for t in range(frames.shape[0]):
        name = "frame_%04d.votb" % t
        write_votb(os.path.join(dirpath, name), frames[t])
        names.append(name)
    pose_file = None
    if poses is not None:
        if len(poses) != frames.shape[0]:
            raise ValueError("pose count %d != frame count %d" % (len(poses), frames.shape[0]))
        pose_file = "poses_gt.txt"
        with open(os.path.join(dirpath, pose_file), "w") as fh:
            fh.write(format_kitti(poses))
    manifest = {
        "format": SEQUENCE_FORMAT,
        "version": 1,
        "frame_count": int(frames.shape[0]),
        "channels": int(frames.shape[1]),
        "height": int(frames.shape[2]),
        "width": int(frames.shape[3]),
        "frames": names,
        "pose_file": pose_file,
        "pose_format": "kitti" if pose_file else None,
    }
    with open(os.path.join(dirpath, SEQUENCE_MANIFEST), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_sequence(dirpath):
    """Read a sequence container; returns (frames, poses-or-None)."""
    mpath = os.path.join(dirpath, SEQUENCE_MANIFEST)
    if not os.path.isfile(mpath):
        raise ValueError("%s: no sequence manifest" % dirpath)
    with open(mpath) as fh:
        manifest = json.load(fh)
    if manifest.get("format") != SEQUENCE_FORMAT:
        raise ValueError("%s: not a sequence container" % dirpath)
    shape = (manifest["channels"], manifest["height"], manifest["width"])
    frames = []
    for name in manifest["frames"]:
        arr = read_votb(os.path.join(dirpath, name))
        if arr.shape != shape:
            raise ValueError("%s: frame %s has shape %s, manifest says %s"
                             % (dirpath, name, arr.shape, shape))
        frames.append(arr)
    if len(frames) != manifest["frame_count"]:
        raise ValueError("%s: frame count mismatch" % dirpath)
    poses = None
    if manifest.get("pose_file"):
        traj = load_trajectory(os.path.join(dirpath, manifest["pose_file"]),
                               manifest.get("pose_format", "kitti"))
        if len(traj) != len(frames):
            raise ValueError("%s: pose count mismatch" % dirpath)
        poses = traj.poses
    return np.array(frames), poses


@dataclass
class DriftSegment:
    # a KITTI run scores tens of thousands of segments; slots keep each small
    __slots__ = ("start", "length", "t_err", "r_err", "speed")
    start: int
    length: float
    t_err: float  # ratio, error per meter
    r_err: float  # radians per meter
    speed: float  # meters per second


@dataclass
class KittiDriftResult:
    t_rel_percent: float
    r_rel_deg_per_100m: float
    per_length: list  # (length, t_rel_percent, r_rel_deg_per_100m, count)
    segments: list


def _aggregate(values, how):
    values = np.asarray(values)
    if how == "mean":
        return float(values.mean())
    if how == "rmse":
        return float(np.sqrt(np.mean(values * values)))
    raise ValueError("aggregate must be 'mean' or 'rmse'")


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
                frame_hz=10.0):
    """Average drift over all subsegments of the given path lengths.

    For every start frame (thinned by step) and every length L, the first
    frame at which the ground-truth path length since the start reaches L
    closes a subsegment; the pose discrepancy over it, divided by L, gives
    the translational (ratio) and rotational (rad/m) drift. Results are
    scaled to percent and deg/100m. Both trajectories must cover the same
    frames. Invariant to any rigid transform applied to both inputs.

    est and gt are Trajectory objects, sequences of 4x4 poses or (N,4,4)
    stacks; their poses are validated once per call. lengths may come in any
    order and must be finite and positive; every (start, length) that fits
    is scored, and segments are listed start by start, in lengths order.
    """
    est = est.poses if isinstance(est, Trajectory) else _pose_stack(est)
    gt = gt.poses if isinstance(gt, Trajectory) else _pose_stack(gt)
    if len(est) != len(gt):
        raise ValueError("est has %d poses, gt has %d" % (len(est), len(gt)))
    n = len(gt)
    if n < 2:
        raise ValueError("need at least 2 poses")
    if step < 1:
        raise ValueError("step must be positive")
    lens = np.asarray(lengths, dtype=np.float64)
    if lens.ndim != 1 or not np.all(np.isfinite(lens) & (lens > 0.0)):
        raise ValueError("lengths must be finite and positive, got %r" % (lengths,))
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
    del est_inv, gt_inv  # not needed while the segment list is built
    seg_len = lens[which]
    t_err /= seg_len
    r_err /= seg_len
    speed = seg_len / ((ends - starts) / frame_hz)
    per_length = []
    for length, want in zip(lengths, lens):
        sel = seg_len == want
        if not sel.any():
            continue
        per_length.append((length,
                           100.0 * _aggregate(t_err[sel], aggregate),
                           _to_deg_per_100m(_aggregate(r_err[sel], aggregate)),
                           int(np.count_nonzero(sel))))
    t_rel = 100.0 * _aggregate(t_err, aggregate)
    r_rel = _to_deg_per_100m(_aggregate(r_err, aggregate))
    # Segments of one start share its int, and each refers to its length as
    # given. Built a chunk at a time, so no whole-run list of floats sits
    # beside the arrays.
    start_of, length_of = first.tolist(), list(lengths)
    segments = []
    for a in range(0, len(starts), DRIFT_CHUNK):
        part = slice(a, a + DRIFT_CHUNK)
        segments.extend(map(DriftSegment, [start_of[i] for i in (starts[part] // step).tolist()],
                            [length_of[k] for k in which[part].tolist()], t_err[part].tolist(),
                            r_err[part].tolist(), speed[part].tolist()))
    return KittiDriftResult(t_rel, r_rel, per_length, segments)


def _to_deg_per_100m(rad_per_m):
    return float(np.degrees(rad_per_m) * 100.0)


@dataclass
class TumDriftResult:
    rmse_m_per_s: float
    pairs: int
    matches: int
    scale: float


def associate_stamps(a, b, tol=0.02):
    """Greedy one-to-one nearest-neighbor matching of two stamp arrays."""
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


def tum_rmse_drift(est, gt, delta=1.0, tol=0.02, with_scale=True):
    """Translational drift rate in m/s, TUM style.

    est and gt are associated by timestamp (greedy nearest neighbor within
    tol seconds), est is similarity-aligned onto gt (Umeyama, with scale by
    default, which also recovers trajectory scale), and every associated
    pose is paired with the associated pose delta seconds later (same
    tolerance). The reported value is the RMSE over pairs of
    ||relative translation error|| / dt.
    """
    matches = associate_stamps(est.stamps, gt.stamps, tol)
    if len(matches) < 3:
        raise ValueError("only %d timestamp matches, need at least 3" % len(matches))
    ei, gj = np.array(matches).T
    gt_m, stamps = gt.poses[gj], est.stamps[ei]
    scale, rot, trans = umeyama_align(est.poses[ei, :3, 3], gt_m[:, :3, 3], with_scale=with_scale)
    est_aligned = apply_similarity(scale, rot, trans, est.poses[ei])
    a, b = _delta_pairs(stamps, delta, tol)
    if not len(a):
        raise ValueError("no pose pairs %.3g s apart" % delta)
    t_err, _ = _pair_errors(est_aligned, pose_inverse(est_aligned), gt_m, pose_inverse(gt_m), a, b)
    errs = t_err / (stamps[b] - stamps[a])
    rmse = float(np.sqrt(np.mean(np.square(errs))))
    return TumDriftResult(rmse, len(errs), len(matches), scale)


def saliency_map(model, frames, policy, target=None, which="refined",
                 detach_memory=False):
    """Per-frame input saliency for one predicted pose.

    The scalar under the gradient is the mean of the six pose components of
    the target step (frame index 1..T-1, default the last). which picks the
    refined absolute pose or the tracking relative pose. Each input frame
    yields an (H,W) map: channel-max of |d scalar / d pixel|. Frames the
    target cannot depend on give all-zero maps.
    """
    leaves = [T.Tensor(np.asarray(f, dtype=np.float64), requires_grad=True)
              for f in frames]
    result = run_window(model, leaves, policy, detach_memory=detach_memory)
    n_steps = len(result.abs_tensors)
    if target is None:
        target = n_steps
    if not (1 <= target <= n_steps):
        raise ValueError("target must be a frame index in [1, %d]" % n_steps)
    if which == "refined":
        vec = result.abs_tensors[target - 1]
    elif which == "tracking":
        vec = result.track.rels[target - 1]
    else:
        raise ValueError("which must be 'refined' or 'tracking'")
    T.tmean(vec).backward()
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


def error_vs_speed_rows(result, bin_width=2.0):
    header = ["speed_mps", "t_rel_percent", "r_rel_deg_per_100m", "segments"]
    bins = {}
    for seg in result.segments:
        key = round(seg.speed / bin_width) * bin_width
        bins.setdefault(key, []).append(seg)
    rows = []
    for key in sorted(bins):
        sel = bins[key]
        rows.append((key,
                     100.0 * float(np.mean([g.t_err for g in sel])),
                     _to_deg_per_100m(float(np.mean([g.r_err for g in sel]))),
                     len(sel)))
    return header, rows
