"""Procedural image sequences with exact pose ground truth.

The world is a textured blob: three channels of band-limited sinusoid
texture under a gaussian envelope, defined on the continuous plane. A
camera with planar motion (x, y, yaw) samples it per frame by evaluating
the texture at rotated/translated coordinates, so there is no resampling
error and the ground-truth poses are exact by construction. Units: one
pixel is one length unit ("meter"), which keeps the KITTI-style thresholds
and losses in familiar ranges.
"""

from dataclasses import dataclass, replace

import numpy as np

from .config import JsonConfig, check_fields, check_int
from .geometry import euler_to_matrix, make_se3
from .net import FRAME_CHANNELS

KINDS = ("translate", "rotate", "mixed")
N_WAVES = 8  # plane waves per texture channel


@dataclass(frozen=True)
class SyntheticSpec(JsonConfig):
    """Knobs for one generated sequence."""

    frames: int = 11
    height: int = 64
    width: int = 64
    kind: str = "mixed"
    max_shift: float = 1.5  # pixels per frame
    max_yaw: float = 0.02  # radians per frame
    noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if self.frames < 2:
            raise ValueError("need at least 2 frames")
        if self.height < 1 or self.width < 1:
            raise ValueError("height and width must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.kind not in KINDS:
            raise ValueError("kind must be one of %s" % (KINDS,))
        for name in ("max_shift", "max_yaw", "noise"):  # NaN would pass noise >= 0
            if not np.isfinite(getattr(self, name)):
                raise ValueError("%s must be finite, got %r" % (name, getattr(self, name)))
        if self.noise < 0:
            raise ValueError("noise must be nonnegative")


class SyntheticSequence:
    """frames (T,3,H,W), absolute camera-to-world poses (T of 4x4)."""

    def __init__(self, frames, poses, spec=None):
        self.frames = frames
        self.poses = poses
        self.spec = spec


def _texture(rng):
    # random band-limited plane waves, wavelengths 8..32 px
    freq = rng.uniform(2 * np.pi / 32.0, 2 * np.pi / 8.0, size=N_WAVES)
    theta = rng.uniform(0, 2 * np.pi, size=N_WAVES)
    phase = rng.uniform(0, 2 * np.pi, size=N_WAVES)
    amp = rng.uniform(0.5, 1.0, size=N_WAVES)
    kx = freq * np.cos(theta)
    ky = freq * np.sin(theta)
    total = amp.sum()

    def sample(x, y):
        acc = np.zeros_like(x)
        for j in range(N_WAVES):
            acc += amp[j] * np.sin(kx[j] * x + ky[j] * y + phase[j])
        return 0.5 + 0.5 * acc / total

    return sample


def _motion(rng, spec):
    vx = vy = yaw = 0.0
    if spec.kind in ("translate", "mixed"):
        mag = rng.uniform(0.3, 1.0) * spec.max_shift
        ang = rng.uniform(0, 2 * np.pi)
        vx, vy = mag * np.cos(ang), mag * np.sin(ang)
    if spec.kind in ("rotate", "mixed"):
        yaw = rng.uniform(0.3, 1.0) * spec.max_yaw * (1 if rng.random() < 0.5 else -1)
    return vx, vy, yaw


def generate_sequence(spec):
    """Render one sequence from a SyntheticSpec, fully seeded."""
    rng = np.random.default_rng(spec.seed)
    textures = [_texture(rng) for _ in range(FRAME_CHANNELS)]
    vx, vy, yaw = _motion(rng, spec)

    h, w = spec.height, spec.width
    rows = np.arange(h) - (h - 1) / 2.0
    cols = np.arange(w) - (w - 1) / 2.0
    py, px = np.meshgrid(rows, cols, indexing="ij")
    sigma = 0.5 * min(h, w)

    frames = np.empty((spec.frames, FRAME_CHANNELS, h, w))
    poses = []
    for t in range(spec.frames):
        tx, ty, psi = vx * t, vy * t, yaw * t
        c, s = np.cos(psi), np.sin(psi)
        wx = c * px - s * py + tx
        wy = s * px + c * py + ty
        envelope = np.exp(-(wx * wx + wy * wy) / (2.0 * sigma * sigma))
        for ch in range(FRAME_CHANNELS):
            frames[t, ch] = envelope * textures[ch](wx, wy)
        poses.append(make_se3(euler_to_matrix((0.0, 0.0, psi)), (tx, ty, 0.0)))
    if spec.noise > 0:
        frames += rng.normal(0.0, spec.noise, size=frames.shape)
    return SyntheticSequence(frames, poses, spec)


def generate_dataset(n_sequences, base_spec, seed=0):
    """n sequences sharing base_spec shape, each with its own derived seed."""
    check_int("n_sequences", n_sequences, 1)
    check_int("seed", seed, 0)
    return [generate_sequence(replace(base_spec, seed=seed * 100003 + i))
            for i in range(n_sequences)]
