"""Span tracing around memvo's public functions, installed from outside.

The tracer replaces each declared function with a wrapper that records one
span per call: its name, start and end (perf_counter_ns), the span that was
open when it started (its parent) and the id of the benchmark operation it
belongs to. Spans stay in memory and are written out once, when the run
ends. Nothing under src/ knows about tracing.

A declared module-level function is wrapped in every memvo namespace that
binds it, because callers look names up in their own module: pose_inverse,
for example, is imported by name into evaluation, memory, training and
synthetic, and refine_sequence is called through training's binding.
Methods are wrapped once, on their class.

Self time of a span is its duration minus the durations of its direct
children. Calls never overlap in this single-threaded program, so the
children's durations are exactly the part of the interval they cover. A
layer's self time is the sum over its spans, so the layers of one operation
add up to that operation's traced wall time.
"""

import functools
import sys
import time
from array import array

import numpy as np

# (layer, owner, attribute): owner is a memvo module name for functions, or
# "module:Class" for methods. The span name is "<layer>.<attribute>", except
# where SPAN_NAMES gives another.
DECLARED = [
    ("tensor", "memvo.tensor", name) for name in (
        "add", "mul", "div", "tsum", "sqrt", "sigmoid", "tanh",
        "conv2d", "concat_channels", "scale_channels", "channel_cosine",
        "global_avg_pool", "linear", "softmax", "stack", "slice1d",
        "cosine_similarity", "l2_norm")
] + [
    ("tensor", "memvo.tensor:Tensor", "backward"),
    ("net", "memvo.net:VONet", "encode_pair"),
    ("net", "memvo.net:VONet", "track_step"),
    ("net", "memvo.net:VONet", "refine_step"),
    ("net", "memvo.net:VONet", "fuse"),
    ("net", "memvo.net:VONet", "pose_head"),
    ("net", "memvo.net:VONet", "track_sequence"),
    ("net", "memvo.net", "save_checkpoint"),
    ("net", "memvo.net", "load_checkpoint"),
    ("memory", "memvo.memory:MemoryBuffer", "observe"),
    ("refining", "memvo.refining", "refine_sequence"),
    ("refining", "memvo.refining", "guided_memory"),
    ("refining", "memvo.refining", "guided_observation"),
    ("refining", "memvo.refining", "temporal_weights"),
    ("refining", "memvo.refining", "recalibrate"),
    ("training", "memvo.training", "train"),
    ("training", "memvo.training", "sliding_window_infer"),
    ("training", "memvo.training", "run_window"),
    ("training", "memvo.training", "window_loss"),
    ("training", "memvo.training", "window_ground_truth"),
    ("training", "memvo.training", "loss_local"),
    ("training", "memvo.training", "loss_global"),
    ("training", "memvo.training:Adam", "step"),
    ("geometry", "memvo.geometry", "pose_compose"),
    ("geometry", "memvo.geometry", "pose_inverse"),
    ("geometry", "memvo.geometry", "integrate_relative"),
    ("geometry", "memvo.geometry", "rotation_angle"),
    ("geometry", "memvo.geometry", "umeyama_align"),
    ("geometry", "memvo.geometry", "apply_similarity"),
    ("evaluation", "memvo.evaluation", "load_trajectory"),
    ("evaluation", "memvo.evaluation", "save_trajectory"),
    ("evaluation", "memvo.evaluation", "kitti_drift"),
    ("evaluation", "memvo.evaluation", "tum_rmse_drift"),
    ("evaluation", "memvo.evaluation", "associate_stamps"),
    ("synthetic", "memvo.synthetic", "generate_sequence"),
    ("votb", "memvo.votb", "write_votb"),
    ("votb", "memvo.votb", "read_votb"),
]

SPAN_NAMES = {
    ("memvo.tensor:Tensor", "backward"): "tensor.backward",
    ("memvo.training:Adam", "step"): "training.adam_step",
}

# The backward closure of every tensor conv2d returns is timed under this name.
CONV_BWD = "tensor.conv2d.bwd"
# Root span the benchmark opens around each timed operation and each set-up.
OP_SPAN = "bench.op"
SETUP_SPAN = "bench.setup"


def span_name(layer, owner, attr):
    return SPAN_NAMES.get((owner, attr), "%s.%s" % (layer, attr))


def declared_span_names():
    return [span_name(*row) for row in DECLARED] + [CONV_BWD]


class Tracer:
    """Records spans and counters while installed; restores memvo on uninstall."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        # one flat record per finished span: id, name, start, end, parent, op
        self.records = array("q")
        self._next_id = 0
        self._stack = []
        self.op_id = 0
        self.counters = {}
        self.slots_at_refine = []
        self._restore = []

    # -- recording ---------------------------------------------------------

    def _intern(self, name):
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _timed(self, fn, name, after=None):
        idx = self._intern(name)
        stack, records, clock = self._stack, self.records, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                records.extend((sid, idx, t0, t1, parent, self.op_id))
            if after is not None:
                after(args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span of the given name (used for root spans)."""
        return self._timed(fn, name)(*args, **kwargs)

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        after = {
            "memory.observe": lambda args, stored: self.count("memory.stored", int(bool(stored))),
            "refining.refine_sequence": lambda args, res: self.slots_at_refine.append(len(args[2])),
            "evaluation.kitti_drift": lambda args, res: self.count(
                "evaluation.kitti_drift.segments", len(res.segments)),
            "evaluation.tum_rmse_drift": lambda args, res: self.count(
                "evaluation.tum_rmse_drift.pairs", res.pairs),
            "tensor.conv2d": self._time_conv_backward,
        }
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "memvo" or n.startswith("memvo."))]
        for layer, owner, attr in DECLARED:
            name = span_name(layer, owner, attr)
            if ":" in owner:
                mod, cls = owner.split(":")
                klass = getattr(sys.modules[mod], cls)
                self._set(klass, attr, self._timed(getattr(klass, attr), name, after.get(name)))
                continue
            original = getattr(sys.modules[owner], attr)
            wrapped = self._timed(original, name, after.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)
        self._count_taped_nodes()

    def _time_conv_backward(self, args, out):
        if out._backward_fn is not None:
            out._backward_fn = self._timed(out._backward_fn, CONV_BWD)

    def _count_taped_nodes(self):
        klass = sys.modules["memvo.tensor"].Tensor
        init = klass.__init__

        def counting_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            if obj._backward_fn is not None:
                self.count("tensor.taped_nodes")

        self._set(klass, "__init__", functools.update_wrapper(counting_init, init))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- analysis ----------------------------------------------------------

    def table(self):
        """Spans as numpy columns ordered by span id, with self time in ns."""
        rec = np.frombuffer(self.records, dtype=np.int64).reshape(-1, 6)
        rec = rec[np.argsort(rec[:, 0], kind="stable")]
        dur = rec[:, 3] - rec[:, 2]
        child = np.zeros(len(rec), dtype=np.int64)
        has_parent = rec[:, 4] >= 0
        np.add.at(child, rec[has_parent, 4], dur[has_parent])
        return {"name": rec[:, 1], "start": rec[:, 2], "end": rec[:, 3],
                "parent": rec[:, 4], "op": rec[:, 5], "dur": dur, "self": dur - child}

    def write(self, path, run_id):
        """Save the spans as a numpy .npz: one column per field, names by index."""
        t = self.table()
        np.savez(path, run_id=np.array(run_id), names=np.array(self.names), name=t["name"],
                 start_ns=t["start"], end_ns=t["end"], parent=t["parent"], op=t["op"])
