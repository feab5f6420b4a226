"""Losses, optimizer, the per-window pipeline, and the training loop.

A training example is a window of consecutive frames. The pipeline tracks
the window, integrates the predicted relatives, feeds selected states into
the memory buffer, then refines the window's steps against that memory:
all of them in training, only the frames it keeps in sliding-window
inference, which also tracks window - 1 windows per batch. The
loss couples both stages: a local term on the relative poses and a global
term on the refined absolute poses, with later frames downweighted by 1/i.
"""

from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import tensor as T
from .config import JsonConfig, check_fields, check_int
from .geometry import (Pose6DoF, _compose, _inverse, _rotation_to_euler, check_se3,
                       integrate_relative, pose_compose, poses_from_vectors, wrap_angle)
from .memory import MemoryBuffer, MemoryPolicy
from .net import TrackResult, VONet, preset_config
from .refining import refine_sequence


class TrainingDiverged(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig(JsonConfig):
    """Everything a training run needs; JSON round-trippable."""

    window_length: int = 11
    batch_size: int = 4
    base_lr: float = 1e-4
    decay_every: int = 60000
    k: float = 100.0
    theta_rot: float = MemoryPolicy.theta_rot
    theta_trans: float = MemoryPolicy.theta_trans
    memory_size: int = MemoryPolicy.max_slots
    seed: int = 0
    preset: str = "desk"
    iterations: int = 500
    memory_require_both: bool = MemoryPolicy.require_both

    def __post_init__(self):
        check_fields(self)
        if self.window_length < 2:
            raise ValueError("window_length must be at least 2")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.batch_size < 1 or self.iterations < 1 or self.decay_every < 1:
            raise ValueError("batch_size, iterations, decay_every must be positive")
        if not 0 < self.base_lr < np.inf:  # NaN fails too
            raise ValueError("base_lr must be positive and finite")
        if not 0 <= self.k < np.inf:
            raise ValueError("k must be non-negative and finite")
        preset_config(self.preset)  # an unknown preset raises
        self.policy()  # MemoryPolicy checks the memory fields

    def policy(self):
        return MemoryPolicy(theta_rot=self.theta_rot, theta_trans=self.theta_trans,
                            max_slots=self.memory_size, require_both=self.memory_require_both)


def lr_at(iteration, base_lr, decay_every):
    """Step-decayed rate: halves every decay_every iterations (0-based)."""
    return base_lr * 0.5 ** (iteration // decay_every)


def _as_gt_vector(gt):
    if isinstance(gt, Pose6DoF):
        return gt.to_vector()
    return np.asarray(gt, dtype=np.float64).reshape(6)


def _pose_term(pred, gt, k):
    # ||p_hat - p|| + k * ||phi_hat - phi||, each angle difference wrapped
    # into (-pi, pi] by a constant shift, so the gradient is unchanged
    diff = T.add(pred, T.Tensor(-_as_gt_vector(gt)))
    dp = T.slice1d(diff, 0, 3)
    dphi = T.slice1d(diff, 3, 6)
    dphi = T.add(dphi, T.Tensor(wrap_angle(dphi.data) - dphi.data))
    return T.add(T.l2_norm(dp), T.mul(T.l2_norm(dphi), float(k)))


def _pose_terms(name, preds, gts, k):
    """The per-step pose errors of two matching non-empty pose lists."""
    if len(preds) != len(gts) or not preds:
        raise ValueError("%s needs matching non-empty pose lists" % name)
    return [_pose_term(pred, gt, k) for pred, gt in zip(preds, gts)]


def loss_local(pred_rels, gt_rels, k):
    """Mean relative-pose error over the window."""
    terms = _pose_terms("loss_local", pred_rels, gt_rels, k)
    return T.div(reduce(T.add, terms), float(len(terms)))


def loss_global(pred_abs, gt_abs, k):
    """Absolute-pose error, frame i downweighted by 1/i (i is 1-based)."""
    terms = _pose_terms("loss_global", pred_abs, gt_abs, k)
    return reduce(T.add, [T.div(term, float(i)) for i, term in enumerate(terms, start=1)])


def loss_total(pred_rels, gt_rels, pred_abs, gt_abs, k):
    return T.add(loss_local(pred_rels, gt_rels, k), loss_global(pred_abs, gt_abs, k))


ADAM_BETAS = (0.9, 0.99)  # decay rates of the first and second moments
ADAM_EPS = 1e-8
ADAM_WEIGHT_DECAY = 4e-4


class Adam:
    """Adam with decoupled weight decay, applied before each moment update."""

    def __init__(self, params):
        self.params = dict(params)
        self.t = 0
        self.m = {n: np.zeros_like(p.data) for n, p in self.params.items()}
        self.v = {n: np.zeros_like(p.data) for n, p in self.params.items()}

    def step(self, lr):
        """One update of every parameter with a gradient; a non-finite gradient changes nothing."""
        live = [(name, p) for name, p in self.params.items() if p.grad is not None]
        for name, p in live:
            if not np.all(np.isfinite(p.grad)):
                raise TrainingDiverged("non-finite gradient in %s" % name)
        self.t += 1
        b1, b2 = ADAM_BETAS
        for name, p in live:
            g = p.grad
            p.data -= lr * ADAM_WEIGHT_DECAY * p.data
            self.m[name] = b1 * self.m[name] + (1 - b1) * g
            self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            m_hat = self.m[name] / (1 - b1 ** self.t)
            v_hat = self.v[name] / (1 - b2 ** self.t)
            p.data -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


@dataclass
class WindowResult:
    """Everything the pipeline produced for one window; abs_tensors has one
    pose per refined step (sliding_window_infer refines only the frames it
    keeps from a window, and all of them in the last window)."""

    track: TrackResult
    buffer: MemoryBuffer
    abs_tensors: list

    def refined_poses(self):
        return [Pose6DoF.from_vector(v.data) for v in self.abs_tensors]


def track_windows(model, windows, inputs=None):
    """Track B equal-length windows of pair features as one batch.

    inputs, as in VONet.track_sequence, holds the pairs' tracking input
    halves, or None to compute them. Returns one (TrackResult, poses) pair
    per window: poses are the window's integrated relatives, len(feats) + 1
    absolute poses from the identity. All B windows' relatives are composed
    as one chain of (B,4,4) stacks; each window's poses and track are
    bit-identical to a lone window's.
    """
    tracks = model.track_sequence(windows, inputs)
    steps = []
    for t, rels in enumerate(zip(*(track.rels for track in tracks)), start=1):
        vectors = np.stack([rel.data for rel in rels])
        if not np.all(np.isfinite(vectors)):
            raise TrainingDiverged("non-finite relative pose at window step %d" % t)
        steps.append(poses_from_vectors(vectors))
    chain = integrate_relative(steps, origin=np.tile(np.eye(4), (len(tracks), 1, 1)))
    return [(track, [pose[b] for pose in chain]) for b, track in enumerate(tracks)]


def run_window(model, frames, policy, detach_memory=True, track=None, refine_steps=None):
    """Track, select memory, refine: the full pass over one window.

    Memory anchors come from integrating the predicted relatives, so the
    selection sees exactly what inference would see. detach_memory mirrors
    MemoryBuffer.observe: by default stored states are constants. track,
    one of track_windows' (TrackResult, poses) pairs for these frames,
    skips the window's own encoding and tracking (B = 1). refine_steps, an
    int in [1, len(frames) - 1], refines only the first that many steps,
    bit-identical to a full run's since step t is guided by step t-1 alone;
    tracking and memory selection still cover the whole window.
    sliding_window_infer tracks several windows per batch, then refines
    only the frames it keeps from each window, and all of them in the last
    window.
    """
    pairs = len(frames) - 1
    if refine_steps is not None and check_int("refine_steps", refine_steps, 1) > pairs:
        raise ValueError("refine_steps must be at most the window's %d pairs" % pairs)
    if track is None:
        feats = [model.encode_pair(a, b) for a, b in zip(frames, frames[1:])]
        track = track_windows(model, [feats])[0]
    track, poses = track
    if len(track.feats) != pairs:
        raise ValueError("%d frames need a track of %d pair features, got %d"
                         % (len(frames), pairs, len(track.feats)))
    buffer = MemoryBuffer(policy)
    for t, out in enumerate(track.outs, start=1):
        buffer.observe(out, poses[t], frame=t, detach=detach_memory)
    abs_tensors = refine_sequence(model, track.feats[:refine_steps], buffer.slots)
    return WindowResult(track, buffer, abs_tensors)


def window_ground_truth(poses, start, length):
    """Relative and window-anchored absolute gt for frames [start, start+length).

    The window must lie inside poses, or a ValueError names it. Its poses
    are checked once, as one stack (an error names the pose's index in the
    window); each gt pose has the bits of composing its pair alone.
    """
    if not 0 <= start < start + length <= len(poses):
        raise ValueError("window [%d, %d) does not lie inside the %d poses"
                         % (start, start + length, len(poses)))
    gt = check_se3(poses[start:start + length])
    rels = _compose(_inverse(gt[:-1]), gt[1:])
    anchored = _compose(_inverse(gt[0]), gt[1:])
    return tuple([Pose6DoF(m[:3, 3], _rotation_to_euler(m[:3, :3])) for m in stack]
                 for stack in (rels, anchored))


def window_loss(model, seq, start, config, policy):
    frames = [seq.frames[t] for t in range(start, start + config.window_length)]
    gt_rels, gt_abs = window_ground_truth(seq.poses, start, config.window_length)
    result = run_window(model, frames, policy)
    local = loss_local(result.track.rels, gt_rels, config.k)
    glob = loss_global(result.abs_tensors, gt_abs, config.k)
    return local, glob, result


def train(dataset, config, model=None):
    """Train on a list of sequences (objects with .frames and .poses, and
    optionally a .name that errors cite, such as the container's path).

    Returns (model, history); history rows are (iteration, loss_local,
    loss_global, loss_total), all batch means. Fully deterministic for a
    given config and dataset. Raises TrainingDiverged on non-finite loss.
    """
    if not dataset:
        raise ValueError("train needs at least one sequence")
    for i, seq in enumerate(dataset):
        if len(seq.frames) < config.window_length:
            raise ValueError("%s: %d frames, shorter than the %d-frame window"
                             % (getattr(seq, "name", "sequence %d" % i), len(seq.frames),
                                config.window_length))
    rng = np.random.default_rng(config.seed)
    if model is None:
        model = VONet(preset=config.preset, seed=config.seed)
    policy = config.policy()
    adam = Adam(model.params)
    history = []
    for it in range(config.iterations):
        model.zero_grads()
        parts = []
        for _ in range(config.batch_size):
            seq = dataset[int(rng.integers(len(dataset)))]
            start = int(rng.integers(len(seq.frames) - config.window_length + 1))
            local, glob = window_loss(model, seq, start, config, policy)[:2]
            total = T.add(local, glob)
            parts.append((float(local.data), float(glob.data), float(total.data)))
            if not np.isfinite(parts[-1][2]):
                raise TrainingDiverged("loss went non-finite at iteration %d" % it)
            # each window's share of the batch mean; gradients add up in p.grad
            T.div(total, float(config.batch_size)).backward()
            del local, glob, total  # free this window's graph before the next is built
        locals_, globals_, totals = zip(*parts)
        adam.step(lr_at(it, config.base_lr, config.decay_every))
        history.append((it, float(np.mean(locals_)), float(np.mean(globals_)),
                        sum(totals) / config.batch_size))
    return model, history


def sliding_window_infer(model, frames, policy, window=TrainConfig.window_length, stride=None):
    """Whole-trajectory inference by chaining refined windows.

    Windows are tracked window - 1 at a time, as one batch through
    track_windows; each then selects its memory over all its frames, with
    a fresh memory, and refines only the frames kept from it, up to the
    next window's start (the last window refines all of them). Those
    refined absolute poses (relative to the window's first frame) are
    re-anchored onto the trajectory pose of that first frame. Returns one
    4x4 pose per frame, frame 0 = identity, bit-identical to running each
    window alone. No tape is built, and each frame pair is encoded once,
    with its tracking input half: one track_inputs call per batch over the
    batch's new pairs. The batch's windows share both, so each ConvLSTM
    step computes only its hidden half. Both are dropped once no batch
    needs them, so at most (window - 2) * stride + window - 1 pairs are
    alive at once, whatever the sequence length.
    """
    n = len(frames)
    if n < 2:
        raise ValueError("need at least 2 frames")
    window = min(check_int("window", window, 2), n)
    if stride is None:
        stride = window - 1
    if check_int("stride", stride, 1) > window - 1:
        raise ValueError("stride must be in [1, window-1] so windows chain")
    starts = list(range(0, n - window + 1, stride))
    if starts[-1] != n - window:
        starts.append(n - window)
    ends = starts[1:] + [n - 1]
    traj = [np.eye(4) for _ in range(n)]
    pairs = {}  # t -> (features, tracking input half) of the pair (t-1, t)
    with T.no_grad():
        for g in range(0, len(starts), window - 1):
            group = starts[g:g + window - 1]
            pairs = {t: p for t, p in pairs.items() if t > group[0]}
            new = [t for t in range(group[0] + 1, group[-1] + window) if t not in pairs]
            feats = [model.encode_pair(frames[t - 1], frames[t]) for t in new]
            pairs.update(zip(new, zip(feats, model.track_inputs(feats))))
            del feats  # held by pairs alone, so each is dropped with its pair
            spans = [range(s + 1, s + window) for s in group]
            tracked = track_windows(model, [[pairs[t][0] for t in span] for span in spans],
                                    [[pairs[t][1] for t in span] for span in spans])
            for s, end in zip(group, ends[g:]):
                # popped, so no window's features outlive its refinement
                refined = run_window(model, [frames[t] for t in range(s, s + window)], policy,
                                     track=tracked.pop(0), refine_steps=end - s).abs_tensors
                traj[s + 1:end + 1] = pose_compose(
                    traj[s], poses_from_vectors([pose.data for pose in refined]))
    return traj
