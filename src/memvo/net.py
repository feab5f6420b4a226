"""Tracking network: pair encoder, ConvLSTM cell, SE(3) pose head.

The encoder consumes two RGB frames stacked on the channel axis and runs
nine strided conv layers with tanh activations, producing one feature map
per frame pair. A ConvLSTM turns the per-pair features into a tracked state
whose output feeds a pooled linear head that regresses the 6-DoF relative
pose (tx, ty, tz, phi_x, phi_y, phi_z) of the newer frame in the older
frame's coordinates.
"""

import os
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import check_fields, check_int, write_json
from .votb import MANIFEST, manifest_array, manifest_blob, read_manifest, write_votb

CHECKPOINT_FORMAT = "memvo-checkpoint"
CHECKPOINT_VERSION = 3  # the only format read: preset, seed, one blob per VONet.params entry
FRAME_CHANNELS = 3  # RGB


@dataclass(frozen=True)
class EncoderLayer:
    out_channels: int
    kernel: int
    stride: int

    def __post_init__(self):  # check_int checks the type too
        for name in ("out_channels", "kernel", "stride"):
            check_int(name, getattr(self, name), 1)

    @property
    def padding(self):
        return self.kernel // 2


@dataclass(frozen=True)
class EncoderConfig:
    """Nine conv layers over a stacked frame pair."""

    height: int
    width: int
    layers: tuple
    in_channels = 2 * FRAME_CHANNELS  # the stacked frame pair: a constant, not a field

    def __post_init__(self):
        check_fields(self)
        check_int("height", self.height, 1)
        check_int("width", self.width, 1)
        if not all(isinstance(layer, EncoderLayer) for layer in self.layers):
            raise ValueError("layers must be EncoderLayer entries, got %r" % (self.layers,))
        if len(self.layers) != 9:
            raise ValueError("encoder takes exactly 9 layers, got %d" % len(self.layers))
        down = self.total_stride
        if self.height % down or self.width % down:
            raise ValueError("input %dx%d not divisible by total stride %d"
                             % (self.height, self.width, down))

    @property
    def total_stride(self):
        out = 1
        for layer in self.layers:
            out *= layer.stride
        return out

    @property
    def out_channels(self):
        return self.layers[-1].out_channels

    @property
    def kernel_shapes(self):
        """(out, in, k, k) of each layer's kernel, in layer order."""
        ins = (self.in_channels,) + tuple(l.out_channels for l in self.layers[:-1])
        return [(l.out_channels, c, l.kernel, l.kernel) for l, c in zip(self.layers, ins)]

    @property
    def out_extents(self):
        h, w = self.height, self.width
        for layer in self.layers:
            h = (h + 2 * layer.padding - layer.kernel) // layer.stride + 1
            w = (w + 2 * layer.padding - layer.kernel) // layer.stride + 1
        return h, w


def _layers(channels, kernels, strides):
    return tuple(EncoderLayer(c, k, s) for c, k, s in zip(channels, kernels, strides))


PRESETS = {
    # small enough to train and finite-difference on a laptop
    "desk": EncoderConfig(
        height=64, width=64,
        layers=_layers((8, 8, 16, 16, 32, 32, 64, 64, 64),
                       (7, 5, 3, 3, 3, 3, 3, 3, 3),
                       (2, 2, 2, 1, 2, 1, 1, 1, 1))),
    # full-size channel widths; 1280x384 frames map to a 1024 x 6 x 20 state
    "kitti-shape": EncoderConfig(
        height=384, width=1280,
        layers=_layers((64, 128, 256, 256, 512, 512, 512, 512, 1024),
                       (7, 5, 5, 3, 3, 3, 3, 3, 3),
                       (2, 2, 2, 1, 2, 1, 2, 1, 2))),
    # for exhaustive gradient sweeps in tests
    "tiny": EncoderConfig(
        height=32, width=32,
        layers=_layers((2, 2, 2, 2, 4, 4, 4, 4, 4),
                       (3, 3, 3, 3, 3, 3, 3, 3, 3),
                       (2, 2, 2, 1, 2, 1, 1, 1, 1))),
}


def preset_config(preset):
    """PRESETS[preset]; a non-string or a name it lacks raises ValueError."""
    if not isinstance(preset, str):  # a JSON list would not even hash
        raise ValueError("preset must be a string, got %r" % (preset,))
    if preset not in PRESETS:
        raise ValueError("unknown preset %r (have %s)" % (preset, sorted(PRESETS)))
    return PRESETS[preset]


def glorot(rng, shape, fan_in, fan_out):
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


class VONet:
    """Parameter container plus the forward passes that use it.

    The tracking and refining ConvLSTMs share spatial extents and channel
    count with the encoder output; the attention in the refining stage
    compares those tensors directly, so the equality is enforced here.
    """

    def __init__(self, preset="desk", seed=0):
        self.config = preset_config(preset)
        self.preset = preset
        self.seed = int(check_int("seed", seed, 0))  # a numpy int would not serialise
        self.hidden = self.config.out_channels
        self.extents = self.config.out_extents
        self.params = OrderedDict()
        self._init_params(np.random.default_rng(self.seed))

    def _add(self, name, data):
        self.params[name] = T.Tensor(data, requires_grad=True)

    def _init_params(self, rng):
        for i, shape in enumerate(self.config.kernel_shapes, start=1):
            o, c_in, k, _ = shape
            self._add("encoder.l%d.kernel" % i, glorot(rng, shape, c_in * k * k, o * k * k))
            self._add("encoder.l%d.bias" % i, np.zeros(o))
        h = self.hidden
        for stage in ("track", "refine"):
            kernel = np.empty((4 * h, 2 * h, 3, 3))
            for k in range(4):  # gates i, f, o, g; for each the x block, then the h block
                for j in range(2):
                    kernel[k * h:(k + 1) * h, j * h:(j + 1) * h] = glorot(
                        rng, (h, h, 3, 3), h * 9, h * 9)
            self._add(stage + ".kernel", kernel)
            self._add(stage + ".bias", np.zeros(4 * h))
        self._add("fuse.conv1.kernel", glorot(rng, (h, 2 * h, 3, 3), 2 * h * 9, h * 9))
        self._add("fuse.conv1.bias", np.zeros(h))
        self._add("fuse.conv2.kernel", glorot(rng, (h, h, 3, 3), h * 9, h * 9))
        self._add("fuse.conv2.bias", np.zeros(h))
        for head in ("track", "refine"):
            self._add("head.%s.weight" % head, glorot(rng, (6, h), h, 6))
            self._add("head.%s.bias" % head, np.zeros(6))

    def zero_grads(self):
        for p in self.params.values():
            p.zero_grad()

    def zero_state(self, batch=None):
        """(h, c) of zeros, (C,h,w) each, or (C,B,h,w) for a batch of B."""
        shape = (self.hidden,) + ((batch,) if batch else ()) + self.extents
        return T.Tensor(np.zeros(shape)), T.Tensor(np.zeros(shape))

    def _check_frame(self, frame):
        want = (FRAME_CHANNELS, self.config.height, self.config.width)
        if frame.data.shape != want:
            raise ValueError("frame shape %s, preset wants %s" % (frame.data.shape, want))
        return frame

    def encode_pair(self, prev_frame, frame):
        """Two (3,H,W) frames -> one (C,h,w) feature map."""
        prev_frame = self._check_frame(T._as_tensor(prev_frame))
        frame = self._check_frame(T._as_tensor(frame))
        x = T.concat_channels([prev_frame, frame])
        for i, layer in enumerate(self.config.layers, start=1):
            x = T.conv2d(x, self.params["encoder.l%d.kernel" % i],
                         self.params["encoder.l%d.bias" % i],
                         stride=layer.stride, padding=layer.padding)
            x = T.tanh(x)
        return x

    def _lstm_step(self, stage, x, h, c):
        # one conv over [x; h] gives the four gate pre-activations stacked i, f, o, g
        z = T.conv2d(T.concat_channels([x, h]), self.params[stage + ".kernel"],
                     self.params[stage + ".bias"], padding=1)
        n = self.hidden
        i, f, o, g = (T.slice1d(z, k * n, (k + 1) * n) for k in range(4))
        c_new = T.add(T.mul(T.sigmoid(f), c), T.mul(T.sigmoid(i), T.tanh(g)))
        h_new = T.mul(T.sigmoid(o), T.tanh(c_new))
        return h_new, c_new

    def track_step(self, x, h, c):
        """One ConvLSTM update, (h, c), of (C,h,w) maps or (C,B,h,w) batches; the output is h."""
        return self._lstm_step("track", x, h, c)

    def refine_step(self, x, h, c):
        return self._lstm_step("refine", x, h, c)

    def pose_head(self, which, out_map):
        """Pooled linear readout of a (C,h,w) state to a 6-vector."""
        pooled = T.global_avg_pool(out_map)
        return T.linear(self.params["head.%s.weight" % which], pooled,
                        self.params["head.%s.bias" % which])

    def fuse(self, guided_mem, guided_obs):
        """Concat the two guided maps and mix them with two 3x3 convs."""
        x = T.concat_channels([guided_mem, guided_obs])
        x = T.tanh(T.conv2d(x, self.params["fuse.conv1.kernel"],
                            self.params["fuse.conv1.bias"], padding=1))
        return T.conv2d(x, self.params["fuse.conv2.kernel"],
                        self.params["fuse.conv2.bias"], padding=1)

    def track_sequence(self, windows):
        """Run the tracking pass over B windows of pair features at once.

        windows holds B equal-length, non-empty lists of (C,h,w) pair
        features, X_1..X_N of each window. Every window starts from a zero
        state; step t runs one ConvLSTM update over the (C,B,h,w) stack of
        the windows' X_t, and conv2d makes one GEMM per window, so each
        window gets the bits of a lone B = 1 call. The pose head reads each
        window's output map on its own. Returns one TrackResult per window:
        its features, the ConvLSTM output map and the relative pose 6-vector
        (a graph Tensor) of every step.
        """
        windows = [list(w) for w in windows]
        steps = len(windows[0]) if windows else 0
        if not steps or any(len(w) != steps for w in windows):
            raise ValueError("track_sequence needs equal-length, non-empty windows, got lengths %s"
                             % [len(w) for w in windows])
        h, c = self.zero_state(len(windows))
        outs = [[] for _ in windows]
        rels = [[] for _ in windows]
        for xs in zip(*windows):
            h, c = self.track_step(T.stack_batch(xs), h, c)
            for i in range(len(windows)):
                out = T.take_batch(h, i)
                outs[i].append(out)
                rels[i].append(self.pose_head("track", out))
        return [TrackResult(feats=f, outs=o, rels=r) for f, o, r in zip(windows, outs, rels)]


@dataclass
class TrackResult:
    feats: list
    outs: list
    rels: list


def save_checkpoint(model, dirpath):
    """Write a manifest of model's preset and seed, and a <name>.votb per model.params entry."""
    os.makedirs(dirpath, exist_ok=True)
    for name, p in model.params.items():
        write_votb(os.path.join(dirpath, name + ".votb"), p.data)
    manifest = {"format": CHECKPOINT_FORMAT, "version": CHECKPOINT_VERSION,
                "model": {"preset": model.preset, "seed": model.seed}}
    write_json(os.path.join(dirpath, MANIFEST), manifest)


def load_checkpoint(dirpath):
    """Rebuild a VONet from a checkpoint, bit exact; bad files raise ValueError."""
    mpath, manifest = read_manifest(dirpath, CHECKPOINT_FORMAT, CHECKPOINT_VERSION)
    info = manifest.get("model") if isinstance(manifest.get("model"), dict) else {}
    try:
        config = preset_config(info.get("preset"))
        seed = check_int("seed", info.get("seed"), 0)
    except ValueError as exc:
        raise ValueError("%s: bad model config: %s" % (mpath, exc)) from None
    # the encoder kernels fix every other shape: check them before the model is allocated
    for i, want in enumerate(config.kernel_shapes, start=1):
        name = "encoder.l%d.kernel" % i
        manifest_blob(mpath, "parameter " + name, name + ".votb", want)
    model = VONet(preset=info["preset"], seed=seed)
    for name, p in sorted(model.params.items()):
        # in place and in name order: a swapped-in array, or another read order, moves peak RSS
        p.data[...] = manifest_array(mpath, "parameter " + name, name + ".votb", p.data.shape)
    return model
