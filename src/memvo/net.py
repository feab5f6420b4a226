"""Tracking network: pair encoder, ConvLSTM cell, SE(3) pose head.

The encoder consumes two RGB frames stacked on the channel axis and runs
nine strided conv layers with tanh activations, producing one feature map
per frame pair. A ConvLSTM turns the per-pair features into a tracked state
whose output feeds a pooled linear head that regresses the 6-DoF relative
pose (tx, ty, tz, phi_x, phi_y, phi_z) of the newer frame in the older
frame's coordinates.
"""

import json
import os
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .geometry import Pose6DoF
from .votb import read_votb, read_votb_shape, write_votb

CHECKPOINT_MANIFEST = "manifest.json"
CHECKPOINT_FORMAT = "memvo-checkpoint"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class EncoderLayer:
    out_channels: int
    kernel: int
    stride: int

    @property
    def padding(self):
        return self.kernel // 2


@dataclass(frozen=True)
class EncoderConfig:
    """Nine conv layers over a stacked frame pair."""

    height: int
    width: int
    layers: tuple
    in_channels: int = 6

    def __post_init__(self):
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

    def to_dict(self):
        return {
            "height": self.height,
            "width": self.width,
            "in_channels": self.in_channels,
            "layers": [[l.out_channels, l.kernel, l.stride] for l in self.layers],
        }

    @classmethod
    def from_dict(cls, d):
        """Inverse of to_dict; a malformed dict raises ValueError."""
        rows = d.get("layers") if isinstance(d, dict) else None
        if not isinstance(rows, list) or not all(isinstance(r, list) and len(r) == 3 for r in rows):
            raise ValueError("config needs 'layers' rows of [out_channels, kernel, stride]")
        sizes = [d.get("height"), d.get("width"), d.get("in_channels", 6)]
        if not all(type(v) is int and v >= 1 for v in sizes + [v for r in rows for v in r]):
            raise ValueError("config sizes must be ints >= 1")
        layers = tuple(EncoderLayer(*row) for row in rows)
        return cls(height=sizes[0], width=sizes[1], layers=layers, in_channels=sizes[2])


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


def glorot(rng, shape, fan_in, fan_out):
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


class VONet:
    """Parameter container plus the forward passes that use it.

    The tracking and refining ConvLSTMs share spatial extents and channel
    count with the encoder output; the attention in the refining stage
    compares those tensors directly, so the equality is enforced here.
    """

    def __init__(self, preset="desk", seed=0, config=None):
        if config is None:
            if preset not in PRESETS:
                raise ValueError("unknown preset %r (have %s)" % (preset, sorted(PRESETS)))
            config = PRESETS[preset]
        self.preset = preset
        self.config = config
        self.seed = int(seed)
        self.hidden = config.out_channels
        self.extents = config.out_extents
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
            self._add(stage + ".kernel", np.empty((4 * h, 2 * h, 3, 3)))
            self._add(stage + ".bias", np.zeros(4 * h))
        for name, block in _v1_views(self):  # the per-gate draws, in their v1 order
            if name.endswith((".wx", ".wh")):
                block[...] = glorot(rng, block.shape, h * 9, h * 9)
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

    def zero_state(self):
        c, (h, w) = self.hidden, self.extents
        return T.Tensor(np.zeros((c, h, w))), T.Tensor(np.zeros((c, h, w)))

    def _check_frame(self, frame):
        want = (3, self.config.height, self.config.width)
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
        """One ConvLSTM update; the output equals the new hidden state."""
        h_new, c_new = self._lstm_step("track", x, h, c)
        return h_new, h_new, c_new

    def refine_step(self, x, h, c):
        h_new, c_new = self._lstm_step("refine", x, h, c)
        return h_new, h_new, c_new

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

    def track_sequence(self, frames, feats=None):
        """Run the tracking pass over T >= 2 frames; feats, if given, are their T-1 pair features.

        Returns a TrackResult with, per step t = 1..T-1: the encoded pair
        features, the ConvLSTM output map, and the relative pose 6-vector
        (still a graph Tensor; .rel_poses() converts to Pose6DoF).
        """
        frames = [T._as_tensor(f) for f in frames]
        if len(frames) < 2:
            raise ValueError("track_sequence needs at least 2 frames")
        if feats is None:
            feats = [self.encode_pair(a, b) for a, b in zip(frames, frames[1:])]
        elif len(feats) != len(frames) - 1:
            raise ValueError("track_sequence needs %d pair features, got %d"
                             % (len(frames) - 1, len(feats)))
        h, c = self.zero_state()
        outs, rels = [], []
        for x in feats:
            out, h, c = self.track_step(x, h, c)
            outs.append(out)
            rels.append(self.pose_head("track", out))
        return TrackResult(feats=feats, outs=outs, rels=rels)


@dataclass
class TrackResult:
    feats: list
    outs: list
    rels: list

    def rel_poses(self):
        return [Pose6DoF.from_vector(r.data) for r in self.rels]


def _v1_views(model):
    """(v1 checkpoint name, writable view) of every parameter, in model order.

    A ConvLSTM kernel (4h, 2h, 3, 3) stacks gates i, f, o, g on axis 0 and x, h
    on axis 1; v1 stores each gate block of it and of the (4h,) bias as a blob.
    """
    h = model.hidden
    for name, p in model.params.items():
        stage, _, kind = name.partition(".")
        if stage not in ("track", "refine"):
            yield name, p.data
            continue
        for k, gate in enumerate("ifog"):
            block = p.data[k * h:(k + 1) * h]
            if kind == "bias":
                yield "%s.%s.bias" % (stage, gate), block
            else:
                yield "%s.%s.wx" % (stage, gate), block[:, :h]
                yield "%s.%s.wh" % (stage, gate), block[:, h:]


def save_checkpoint(model, dirpath):
    """Write one VOTB blob per v1 parameter (per ConvLSTM gate) plus a JSON manifest."""
    os.makedirs(dirpath, exist_ok=True)
    entries = {}
    for name, data in _v1_views(model):
        fname = name + ".votb"
        write_votb(os.path.join(dirpath, fname), data)
        entries[name] = fname
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "model": {
            "preset": model.preset,
            "seed": model.seed,
            "config": model.config.to_dict(),
        },
        "params": entries,
    }
    with open(os.path.join(dirpath, CHECKPOINT_MANIFEST), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_checkpoint(dirpath):
    """Rebuild a VONet from save_checkpoint output, bit exact; bad files raise ValueError."""
    mpath = os.path.join(dirpath, CHECKPOINT_MANIFEST)
    if not os.path.isfile(mpath):
        raise ValueError("%s: no checkpoint manifest" % dirpath)
    try:
        with open(mpath, "rb") as fh:
            manifest = json.load(fh)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ValueError("%s: malformed JSON: %s" % (mpath, exc)) from None
    if not isinstance(manifest, dict) or manifest.get("format") != CHECKPOINT_FORMAT:
        raise ValueError("%s: not a checkpoint manifest" % mpath)
    if manifest.get("version") != CHECKPOINT_VERSION:
        raise ValueError("%s: unsupported checkpoint version %r" % (mpath, manifest.get("version")))
    info, entries = manifest.get("model"), manifest.get("params")
    if not isinstance(info, dict) or not isinstance(entries, dict):
        raise ValueError("%s: manifest needs a 'model' and a 'params' object" % mpath)
    preset, seed = info.get("preset", "custom"), info.get("seed", 0)
    if not isinstance(preset, str) or type(seed) is not int or seed < 0:
        raise ValueError("%s: model preset must be a string and seed an int >= 0" % mpath)
    try:
        config = EncoderConfig.from_dict(info.get("config"))
    except ValueError as exc:
        raise ValueError("%s: bad model config: %s" % (mpath, exc)) from None

    def checked_blob(name, want):
        """Path of name's blob: a file beside the manifest whose header declares shape want."""
        fname = entries.get(name)
        path = os.path.join(dirpath, fname) if isinstance(fname, str) else ""
        if os.path.basename(path) != fname or not os.path.isfile(path):
            raise ValueError("%s: parameter %s names %r, not a file beside the manifest"
                             % (mpath, name, fname))
        shape = read_votb_shape(path)  # the header alone, so a wrong shape costs no payload
        if shape != want:
            raise ValueError("%s: parameter %s has shape %s, model wants %s"
                             % (path, name, shape, want))
        return path

    # the encoder kernels fix every other shape: check them before the model is allocated
    for i, want in enumerate(config.kernel_shapes, start=1):
        checked_blob("encoder.l%d.kernel" % i, want)
    model = VONet(preset=preset, seed=seed, config=config)
    views = dict(_v1_views(model))
    missing = set(views) - set(entries)
    extra = set(entries) - set(views)
    if missing or extra:
        raise ValueError("%s: checkpoint parameter set mismatch (missing %s, extra %s)"
                         % (mpath, sorted(missing), sorted(extra)))
    for name in entries:
        path = checked_blob(name, views[name].shape)
        data = read_votb(path)
        if not np.all(np.isfinite(data)):
            raise ValueError("%s: parameter %s has non-finite values" % (path, name))
        views[name][...] = data  # in place: the gate blocks are views of the fused kernels
    return model
