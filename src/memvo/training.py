"""Losses, optimizer, the per-window pipeline, and the training loop.

A training example is a window of consecutive frames. The pipeline tracks
the window, integrates the predicted relatives, feeds selected states into
the memory buffer, then refines the whole window against that memory. The
loss couples both stages: a local term on the relative poses and a global
term on the refined absolute poses, with later frames downweighted by 1/i.
"""

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import JsonConfig
from .geometry import Pose6DoF, integrate_relative, pose_compose, pose_inverse
from .memory import MemoryBuffer, MemoryPolicy
from .net import PRESETS, TrackResult, VONet
from .refining import refine_sequence


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class TrainConfig(JsonConfig):
    """Everything a training run needs; JSON round-trippable."""

    window_length: int = 11
    batch_size: int = 4
    base_lr: float = 1e-4
    decay_every: int = 60000
    k: float = 100.0
    theta_rot: float = 0.005
    theta_trans: float = 0.6
    memory_size: int = 11
    seed: int = 0
    preset: str = "desk"
    iterations: int = 500
    stop_memory_gradient: bool = True
    memory_require_both: bool = False

    def __post_init__(self):
        if self.window_length < 2:
            raise ValueError("window_length must be at least 2")
        if self.batch_size < 1 or self.iterations < 1 or self.decay_every < 1:
            raise ValueError("batch_size, iterations, decay_every must be positive")
        if self.base_lr <= 0:
            raise ValueError("base_lr must be positive")
        if self.preset not in PRESETS:
            raise ValueError("unknown preset %r" % self.preset)

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
    # into (-pi, pi] by a constant multiple of 2 pi, so the gradient is unchanged
    diff = T.add(pred, T.Tensor(-_as_gt_vector(gt)))
    dp = T.slice1d(diff, 0, 3)
    dphi = T.slice1d(diff, 3, 6)
    dphi = T.add(dphi, T.Tensor(-2.0 * np.pi * np.ceil((dphi.data - np.pi) / (2.0 * np.pi))))
    return T.add(T.l2_norm(dp), T.mul(T.l2_norm(dphi), float(k)))


def loss_local(pred_rels, gt_rels, k):
    """Mean relative-pose error over the window."""
    if len(pred_rels) != len(gt_rels) or not pred_rels:
        raise ValueError("loss_local needs matching non-empty pose lists")
    total = None
    for pred, gt in zip(pred_rels, gt_rels):
        term = _pose_term(pred, gt, k)
        total = term if total is None else T.add(total, term)
    return T.div(total, float(len(pred_rels)))


def loss_global(pred_abs, gt_abs, k):
    """Absolute-pose error, frame i downweighted by 1/i (i is 1-based)."""
    if len(pred_abs) != len(gt_abs) or not pred_abs:
        raise ValueError("loss_global needs matching non-empty pose lists")
    total = None
    for i, (pred, gt) in enumerate(zip(pred_abs, gt_abs), start=1):
        term = T.div(_pose_term(pred, gt, k), float(i))
        total = term if total is None else T.add(total, term)
    return total


def loss_total(pred_rels, gt_rels, pred_abs, gt_abs, k):
    return T.add(loss_local(pred_rels, gt_rels, k), loss_global(pred_abs, gt_abs, k))


class Adam:
    """Adam with decoupled weight decay, applied before each moment update."""

    def __init__(self, params, beta1=0.9, beta2=0.99, eps=1e-8, weight_decay=4e-4):
        self.params = dict(params)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.weight_decay = weight_decay
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
        b1, b2 = self.beta1, self.beta2
        for name, p in live:
            g = p.grad
            if self.weight_decay:
                p.data -= lr * self.weight_decay * p.data
            self.m[name] = b1 * self.m[name] + (1 - b1) * g
            self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            m_hat = self.m[name] / (1 - b1 ** self.t)
            v_hat = self.v[name] / (1 - b2 ** self.t)
            p.data -= lr * m_hat / (np.sqrt(v_hat) + self.eps)


@dataclass
class WindowResult:
    """Everything the pipeline produced for one window."""

    track: TrackResult
    buffer: MemoryBuffer
    abs_tensors: list

    def refined_poses(self):
        return [Pose6DoF.from_vector(v.data) for v in self.abs_tensors]


def run_window(model, frames, policy, detach_memory=True, feats=None):
    """Track, select memory, refine: the full pass over one window.

    Memory anchors come from integrating the predicted relatives, so the
    selection sees exactly what inference would see. detach_memory mirrors
    MemoryBuffer.observe: by default stored states are constants. feats are
    the window's encoded pair features, if already computed.
    """
    track = model.track_sequence(frames, feats)
    for t, rel in enumerate(track.rels, start=1):
        if not np.all(np.isfinite(rel.data)):
            raise TrainingDiverged("non-finite relative pose at window step %d" % t)
    buffer = MemoryBuffer(policy)
    poses = integrate_relative(track.rel_poses())
    for t, out in enumerate(track.outs, start=1):
        buffer.observe(out, poses[t], frame=t, detach=detach_memory)
    abs_tensors = refine_sequence(model, track.feats, buffer.snapshot())[0]
    return WindowResult(track, buffer, abs_tensors)


def window_ground_truth(poses, start, length):
    """Relative and window-anchored absolute gt for frames [start, start+length)."""
    gt_rels, gt_abs = [], []
    origin_inv = pose_inverse(poses[start])
    for t in range(start + 1, start + length):
        rel = pose_compose(pose_inverse(poses[t - 1]), poses[t])
        gt_rels.append(Pose6DoF.from_matrix(rel))
        gt_abs.append(Pose6DoF.from_matrix(pose_compose(origin_inv, poses[t])))
    return gt_rels, gt_abs


def window_loss(model, seq, start, config, policy):
    frames = [seq.frames[t] for t in range(start, start + config.window_length)]
    gt_rels, gt_abs = window_ground_truth(seq.poses, start, config.window_length)
    result = run_window(model, frames, policy, detach_memory=config.stop_memory_gradient)
    local = loss_local(result.track.rels, gt_rels, config.k)
    glob = loss_global(result.abs_tensors, gt_abs, config.k)
    return local, glob, result


def train(dataset, config, model=None):
    """Train on a list of sequences (objects with .frames and .poses).

    Returns (model, history); history rows are (iteration, loss_local,
    loss_global, loss_total), all batch means. Fully deterministic for a
    given config and dataset. Raises TrainingDiverged on non-finite loss.
    """
    if not dataset:
        raise ValueError("train needs at least one sequence")
    for seq in dataset:
        if len(seq.frames) < config.window_length:
            raise ValueError("sequence of %d frames is shorter than the %d-frame window"
                             % (len(seq.frames), config.window_length))
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


def write_loss_csv(path, history):
    with open(path, "w") as fh:
        fh.write("iteration,loss_local,loss_global,loss_total\n")
        for it, local, glob, total in history:
            fh.write("%d,%.9g,%.9g,%.9g\n" % (it, local, glob, total))


def sliding_window_infer(model, frames, policy, window=11, stride=None):
    """Whole-trajectory inference by chaining refined windows.

    Each window is refined independently with a fresh memory; its refined
    absolute poses (relative to the window's first frame) are re-anchored
    onto the trajectory pose of that first frame, up to the next window's
    start. Returns one 4x4 pose per frame, frame 0 = identity.
    No tape is built, and each frame pair is encoded once: overlapping
    windows share its features, which are dropped once no window needs them.
    """
    n = len(frames)
    if n < 2:
        raise ValueError("need at least 2 frames")
    window = min(window, n)
    if window < 2:
        raise ValueError("window must cover at least 2 frames")
    if stride is None:
        stride = window - 1
    if not (1 <= stride <= window - 1):
        raise ValueError("stride must be in [1, window-1] so windows chain")
    starts = list(range(0, n - window + 1, stride))
    if starts[-1] != n - window:
        starts.append(n - window)
    traj = [np.eye(4) for _ in range(n)]
    feats = {}  # t -> features of the pair (t-1, t)
    with T.no_grad():
        for s, end in zip(starts, starts[1:] + [n - 1]):
            feats = {t: f for t, f in feats.items() if t > s}
            for t in range(s + 1, s + window):
                if t not in feats:
                    feats[t] = model.encode_pair(frames[t - 1], frames[t])
            result = run_window(model, [frames[t] for t in range(s, s + window)], policy,
                                feats=[feats[t] for t in range(s + 1, s + window)])
            for t, pose in enumerate(result.refined_poses()[:end - s], start=1):
                traj[s + t] = pose_compose(traj[s], pose.to_matrix())
    return traj
