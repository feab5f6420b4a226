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
from .config import check_int, write_json
from .votb import MANIFEST, manifest_array, manifest_blob, read_manifest, write_votb

CHECKPOINT_FORMAT = "memvo-checkpoint"
CHECKPOINT_VERSION = 3  # the only format read: preset, seed, one blob per VONet.params entry
FRAME_CHANNELS = 3  # RGB


@dataclass(frozen=True)
class EncoderConfig:
    """Nine conv layers over a stacked frame pair, each an (out_channels,
    kernel, stride) triple in layers; a layer pads by kernel // 2."""

    height: int
    width: int
    layers: tuple

    @property
    def out_channels(self):
        return self.layers[-1][0]

    @property
    def kernel_shapes(self):
        """(out, in, k, k) of each layer's kernel, in layer order."""
        ins = (2 * FRAME_CHANNELS,) + tuple(o for o, _, _ in self.layers[:-1])
        return [(o, c, k, k) for (o, k, _), c in zip(self.layers, ins)]

    @property
    def out_extents(self):
        h, w = self.height, self.width
        for _, k, s in self.layers:
            h = (h + 2 * (k // 2) - k) // s + 1
            w = (w + 2 * (k // 2) - k) // s + 1
        return h, w


def _layers(channels, kernels, strides):
    return tuple(zip(channels, kernels, strides))


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
        for i, (_, k, stride) in enumerate(self.config.layers, start=1):
            x = T.conv2d(x, self.params["encoder.l%d.kernel" % i],
                         self.params["encoder.l%d.bias" % i],
                         stride=stride, padding=k // 2)
            x = T.tanh(x)
        return x

    def cell_input(self, stage, x):
        """The input half of stage's ConvLSTM gates: conv(x, W[:, :C]) + b.

        W is the stage's one (4C, 2C, 3, 3) kernel and W[:, :C] a view of it.
        x (C,h,w) gives (4C,h,w); a (C,B,h,w) batch gives (4C,B,h,w), one
        GEMM per entry.
        """
        return T.conv2d(x, self.params[stage + ".kernel"], self.params[stage + ".bias"],
                        padding=1, channels=(0, self.hidden))

    def track_inputs(self, feats):
        """Each pair feature's tracking input half, one (4C,h,w) map per (C,h,w) feature.

        One cell_input call runs over the features' (C,N,h,w) stack, one
        GEMM per pair, so a pair's bits do not depend on N.
        """
        zx = self.cell_input("track", T.stack_batch(feats))
        return [T.take_batch(zx, i) for i in range(len(feats))]

    def _lstm_step(self, stage, zx, state):
        # the gate pre-activations, stacked i, f, o, g: the input half zx plus
        # the hidden half conv(h, W[:, C:]). The zero state (None) skips the
        # hidden half and the forget term, whose every entry would add 0.0
        n = self.hidden
        if state is None:
            z = zx
        else:
            h, c = state
            z = T.add(zx, T.conv2d(h, self.params[stage + ".kernel"], None, padding=1,
                                   channels=(n, 2 * n)))
        i, f, o, g = (T.slice1d(z, k * n, (k + 1) * n) for k in range(4))
        c_new = T.mul(T.sigmoid(i), T.tanh(g))
        if state is not None:
            c_new = T.add(T.mul(T.sigmoid(f), c), c_new)
        return T.mul(T.sigmoid(o), T.tanh(c_new)), c_new

    def track_step(self, zx, state=None):
        """One tracking ConvLSTM update from the input half zx (cell_input's).

        state is (h, c), of (C,h,w) maps or (C,B,h,w) batches, or None for the
        zero state. Returns the new (h, c); the output is h.
        """
        return self._lstm_step("track", zx, state)

    def refine_step(self, zx, state=None):
        """The refining ConvLSTM's update, as track_step."""
        return self._lstm_step("refine", zx, state)

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

    def track_sequence(self, windows, inputs=None):
        """Run the tracking pass over B windows of pair features at once.

        windows holds B equal-length, non-empty lists of (C,h,w) pair
        features, X_1..X_N of each window, and inputs the same lists of
        their input halves (track_inputs'); None computes them here, in one
        call. Every window starts from the zero state; step t runs one
        ConvLSTM update over the (4C,B,h,w) stack of the windows' input
        halves, and the hidden half's conv2d makes one GEMM per window, so
        each window gets the bits of a lone B = 1 call. The pose head reads
        each window's output map on its own. Returns one TrackResult per
        window: its features, the ConvLSTM output map and the relative pose
        6-vector (a graph Tensor) of every step.
        """
        windows = [list(w) for w in windows]
        steps = len(windows[0]) if windows else 0
        if not steps or any(len(w) != steps for w in windows):
            raise ValueError("track_sequence needs equal-length, non-empty windows, got lengths %s"
                             % [len(w) for w in windows])
        if inputs is None:
            flat = self.track_inputs([x for w in windows for x in w])
            inputs = [flat[i:i + steps] for i in range(0, len(flat), steps)]
        if [len(w) for w in inputs] != [steps] * len(windows):
            raise ValueError("track_sequence needs one input half per pair feature")
        state = None
        outs = [[] for _ in windows]
        rels = [[] for _ in windows]
        for zxs in zip(*inputs):
            state = self.track_step(T.stack_batch(zxs), state)
            for i in range(len(windows)):
                out = T.take_batch(state[0], i)
                outs[i].append(out)
                rels[i].append(self.pose_head("track", out))
        return [TrackResult(feats=f, outs=o, rels=r) for f, o, r in zip(windows, outs, rels)]


@dataclass
class TrackResult:
    feats: list
    outs: list
    rels: list


def save_checkpoint(model, dirpath):
    """Write a manifest of model's preset and seed, and a <name>.votb per model.params entry;
    a NaN or inf parameter raises ValueError naming it before any file is written."""
    for name, p in model.params.items():  # min and max pass NaN on and need no temporary
        if not (np.isfinite(p.data.min()) and np.isfinite(p.data.max())):
            raise ValueError("parameter %s has non-finite values" % name)
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
