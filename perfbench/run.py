"""memvo benchmark: one workload per process, untraced or traced.

    python3 perfbench/run.py --workload infer-overlap --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the repository root; memvo is imported from ./src. Every metric
is printed as "metric <name> <value> <unit>"; the last line of standard
output is one JSON object with correct, attempted, failed and metrics (the
end-to-end metrics untraced, the per-layer metrics traced). A full report
is written to perfbench/out/. See perfbench/README.md.
"""

import os

# Pin BLAS to one thread before numpy loads: these small convs run slower
# and noisier with two.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

# Set-up runs at least SETUP_MIN_REPS times and until SETUP_MIN_SECONDS are
# spent (at most SETUP_MAX_REPS); setup_s is the median.
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_MIN_SECONDS = 3, 15, 2.0

# (name, unit, better): what the final JSON line carries; BENCHMARK.json
# lists the same.
END_TO_END = [
    ("step_cal", "ratio", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]
LAYERS = ("tensor", "net", "memory", "refining", "training", "geometry", "evaluation")
PER_LAYER = (
    [("%s.self_pct" % layer, "%", "lower") for layer in LAYERS]
    + [("tensor.conv2d.fwd_pct", "%", "lower"), ("tensor.conv2d.bwd_pct", "%", "lower")]
    + [(name, "count", "lower") for name in (
        "tensor.conv2d.calls", "tensor.taped_nodes", "net.encode_pair.calls",
        "memory.observe.calls", "training.run_window.calls",
        "geometry.pose_compose.calls", "geometry.pose_inverse.calls")]
    + [("memory.slots_at_refine", "count", "higher"), ("memory.stored_ratio", "ratio", "higher"),
       ("evaluation.kitti_drift.segments", "count", "higher"),
       ("evaluation.tum_rmse_drift.pairs", "count", "higher"),
       ("trace.overhead_pct", "%", "lower")]
)
# Spans that only run while setting up; reported per set-up, not per step.
SETUP_SPANS = ("synthetic.generate_sequence", "net.save_checkpoint", "net.load_checkpoint",
               "votb.write_votb", "votb.read_votb", "geometry.integrate_relative",
               "evaluation.save_trajectory")


def git_revision():
    """HEAD of the checkout, read from .git without running git; None if absent."""
    gitdir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(gitdir, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(gitdir, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(gitdir, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(np, seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "git_revision": git_revision(),
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "seed": seed,
    }


class Calibration:
    """A fixed kernel, timed between operations, that tracks host speed.

    On a shared host the same code runs up to 20% slower for minutes at a
    time. Dividing each step's wall time by the kernel's mean time just
    before and just after the operation cancels most of that drift. The
    kernel mixes interpreted Python with small float64 matmuls, as memvo's
    steps do, and never calls memvo. Between operations it repeats for
    SHARE of the last operation's time (at least twice), because one
    kernel run jitters as much as the host does within a second.
    """

    LOOP, MATMULS, SHARE = 300_000, 150, 0.15

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.a, self.b = rng.normal(size=(64, 576)), rng.normal(size=(576, 64))
        self.kernel()  # first BLAS call pays one-off set-up

    def kernel(self):
        t0 = time.perf_counter()
        acc = 0
        for i in range(self.LOOP):
            acc += i
        for _ in range(self.MATMULS):
            self.a @ self.b
        return time.perf_counter() - t0

    def time(self, op_seconds=0.0):
        """Mean kernel time over a calibration gap after an op of op_seconds."""
        times = [self.kernel(), self.kernel()]
        while sum(times) < self.SHARE * op_seconds:
            times.append(self.kernel())
        return statistics.mean(times)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Phase:
    """Outcome of one pass over the timed operations."""

    def __init__(self):
        self.samples = {}  # kind -> per-step seconds of each timed op
        self.ratios = {}  # kind -> per-step seconds over the calibration time around it
        self.calibrations = []  # seconds of every calibration, in order
        self.fingerprints = []  # (kind, digest) per op, in order
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.rounds = 0
        self.steps = 0


def run_phase(w, seconds=None, rounds=None, checked=None, tracer=None):
    """Run rounds of w's operations for `seconds`, or exactly `rounds` rounds.

    checked maps kind -> digest of an output already checked in full; an op
    whose output has that digest passes without a second full check.
    """
    from tracing import OP_SPAN

    checked = {} if checked is None else checked
    ph = Phase()
    cal = Calibration()
    start = time.perf_counter()
    cal_before = cal.time()
    ph.calibrations.append(cal_before)
    while True:
        for kind in w.kinds:
            ops = w.ops_per_call(kind)
            ph.attempted += ops
            fp = None
            gc.collect()  # every call starts from the same heap, so collections land alike
            try:
                if tracer is None:
                    dt, steps, out = w.run(kind)
                else:
                    tracer.op_id += 1
                    dt, steps, out = tracer.span(OP_SPAN, w.run, kind)
            except Exception:  # any failure of the program counts against error_rate
                problems = ["%s raised:\n%s" % (kind, traceback.format_exc())]
                out = None
            cal_after = cal.time(dt if out is not None else 0.0)
            ph.calibrations.append(cal_after)
            if out is not None:
                ph.samples.setdefault(kind, []).append(dt / steps)
                ph.ratios.setdefault(kind, []).append(dt / steps / (0.5 * (cal_before + cal_after)))
                if kind == w.kinds[0]:
                    ph.steps += steps
                try:
                    fp = w.fingerprint(kind, out)
                    if kind in checked:
                        problems = [] if fp == checked[kind] else [
                            "%s output is not bit-identical to the checked one" % kind]
                    else:
                        problems = w.check(kind, out)
                        if not problems:
                            checked[kind] = fp
                except Exception:
                    problems = ["checking %s raised:\n%s" % (kind, traceback.format_exc())]
            cal_before = cal_after
            ph.fingerprints.append((kind, fp))
            if problems:
                ph.failed += ops
                ph.problems.extend(problems)
        ph.rounds += 1
        elapsed = time.perf_counter() - start
        if rounds is not None:
            if ph.rounds >= rounds:
                break
        elif elapsed * (ph.rounds + 1) / ph.rounds > seconds:
            break
    return ph


def end_to_end(w, ph, setup_s, rss):
    """Every end-to-end metric as name -> (value, unit)."""
    if set(ph.samples) != set(w.kinds):
        raise SystemExit("%s: every %s call raised; see above"
                         % (w.name, "/".join(sorted(set(w.kinds) - set(ph.samples)))))
    med = {k: statistics.median(v) for k, v in ph.samples.items()}
    rel = sum(statistics.median(v) for v in ph.ratios.values())
    out = {"step_cal": (rel, "ratio")}
    if "train" in med:
        out["train_iter_s"] = (med["train"], "s/iteration")
        out["step_ms"] = (1e3 * med["train"], "ms")
    elif "infer" in med:
        out["infer_ms_per_frame"] = (1e3 * med["infer"], "ms/frame")
        out["step_ms"] = (1e3 * med["infer"], "ms")
    else:
        out["eval_kitti_s"] = (med["kitti"], "s")
        out["eval_tum_s"] = (med["tum"], "s")
        out["step_ms"] = (1e3 * (med["kitti"] + med["tum"]), "ms")
    out["setup_s"] = (setup_s, "s")
    out["peak_rss_mb"] = (rss, "MB")
    out["error_rate"] = (ph.failed / ph.attempted, "ratio")
    return out


def per_layer(w, tracer, ph):
    """Per-layer metrics from the traced pass, plus guard failures."""
    import numpy as np
    from tracing import CONV_BWD, OP_SPAN, SETUP_SPAN, declared_span_names

    t = tracer.table()
    names = np.array(tracer.names)
    span_of = names[t["name"]]
    timed = t["op"] > 0
    setup = ~timed
    steps = max(ph.steps, 1)
    op_ns = float(t["dur"][timed & (span_of == OP_SPAN)].sum())
    setup_count = max(int(((span_of == SETUP_SPAN) & setup).sum()), 1)

    m, problems = {}, []

    def add(name, value, unit):
        m[name] = (float(value), unit)

    for name in declared_span_names():
        sel_t = timed & (span_of == name)
        sel_s = setup & (span_of == name)
        prefix = {"tensor.conv2d": "tensor.conv2d.fwd", CONV_BWD: "tensor.conv2d.bwd"}.get(name)
        ms_name = prefix + "_ms" if prefix else name + ".ms"
        if name in SETUP_SPANS:
            add(ms_name, t["self"][sel_s].sum() / 1e6 / setup_count, "ms")
            add(name + ".calls", sel_s.sum() / setup_count, "count")
        else:
            self_ns = t["self"][sel_t].sum()
            add(ms_name, self_ns / 1e6 / steps, "ms")
            add(name + ".calls", sel_t.sum() / steps, "count")
            if prefix:
                add(prefix + "_pct", 100.0 * self_ns / op_ns if op_ns else 0.0, "%")
        if name in w.expected_spans and not (sel_t.any() or sel_s.any()):
            problems.append("span %s never fired" % name)
    add("training.loss.ms", m["training.loss_local.ms"][0] + m["training.loss_global.ms"][0], "ms")
    layer_of = np.array([n.split(".")[0] for n in tracer.names])[t["name"]]
    for layer in LAYERS + ("bench",):
        self_ns = t["self"][timed & (layer_of == layer)].sum()
        add(layer + ".self_ms", self_ns / 1e6 / steps, "ms")
        add(layer + ".self_pct", 100.0 * self_ns / op_ns if op_ns else 0.0, "%")
    add("tensor.taped_nodes", tracer.counters.get("tensor.taped_nodes", 0) / steps, "count")
    observed = (timed & (span_of == "memory.observe")).sum()
    add("memory.stored_ratio", tracer.counters.get("memory.stored", 0) / observed if observed else 0.0,
        "ratio")
    slots = tracer.slots_at_refine
    add("memory.slots_at_refine", float(np.mean(slots)) if slots else 0.0, "count")
    slots_want = w.expected_slots()
    if slots_want is not None and any(s != slots_want for s in slots):
        problems.append("refinement saw %s slots, want %d in every window"
                        % (sorted(set(slots)), slots_want))
    windows = t["dur"][timed & (span_of == "training.run_window")] / 1e6
    add("training.run_window.ms_p50", np.percentile(windows, 50) if len(windows) else 0.0, "ms")
    add("training.run_window.ms_p90", np.percentile(windows, 90) if len(windows) else 0.0, "ms")
    for name, key in (("evaluation.kitti_drift", "segments"), ("evaluation.tum_rmse_drift", "pairs")):
        calls = (timed & (span_of == name)).sum()
        full = "%s.%s" % (name, key)
        add(full, tracer.counters.get(full, 0) / calls if calls else 0.0, "count")
    return m, problems


def run_workload(args):
    import numpy as np
    import tracing
    from workloads import WORKLOADS

    wl_cls = WORKLOADS[args.workload]
    os.makedirs(args.out, exist_ok=True)
    workdir = os.path.join(args.out, "work-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    w = wl_cls(args.size, args.seed, workdir)
    report = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "env": environment(np, args.seed),
              "step_unit": w.step_unit}
    try:
        setup_times = []
        while len(setup_times) < SETUP_MAX_REPS and (
                len(setup_times) < SETUP_MIN_REPS or sum(setup_times) < SETUP_MIN_SECONDS):
            t0 = time.perf_counter()
            w.setup()
            setup_times.append(time.perf_counter() - t0)
        setup_s = statistics.median(setup_times)
        products = w.setup_products()
        budget = args.seconds / 2.0 if args.trace else args.seconds
        ph = run_phase(w, seconds=budget)
        guard_problems = w.guards()
        rss = peak_rss_mb()
        e2e = end_to_end(w, ph, setup_s, rss)
        report["setup_samples_s"] = setup_times
        report["samples_s_per_step"] = ph.samples
        report["calibrated_per_step"] = ph.ratios
        report["calibration_s"] = ph.calibrations
        report["fingerprints"] = {k: fp for k, fp in ph.fingerprints if fp is not None}
        problems = ph.problems + guard_problems
        attempted = ph.attempted + len(guard_problems)
        failed = ph.failed + len(guard_problems)
        metrics = e2e
        if args.trace:
            tracer = tracing.Tracer()
            checked = dict(report["fingerprints"])
            tracer.install()
            try:
                t0 = time.perf_counter()
                tracer.span(tracing.SETUP_SPAN, w.setup)
                traced_setup_s = time.perf_counter() - t0
                tph = run_phase(w, rounds=ph.rounds, checked=checked, tracer=tracer)
            finally:
                tracer.uninstall()
            if w.setup_products() != products:
                tph.problems.append("traced set-up built different inputs")
                tph.failed += 1
            layer, trace_problems = per_layer(w, tracer, tph)
            traced = end_to_end(w, tph, traced_setup_s, peak_rss_mb())
            overhead = {k: (traced[k][0] - e2e[k][0], e2e[k][1]) for k in e2e if k in traced}
            if "step_ms" in overhead:
                layer["trace.overhead_pct"] = (100.0 * overhead["step_ms"][0] / e2e["step_ms"][0], "%")
            report["traced_fingerprints"] = {k: fp for k, fp in tph.fingerprints if fp is not None}
            report["untraced"] = {k: v[0] for k, v in e2e.items()}
            report["traced"] = {k: v[0] for k, v in traced.items()}
            report["tracing_overhead"] = {k: v[0] for k, v in overhead.items()}
            problems += tph.problems + trace_problems
            attempted += tph.attempted + len(trace_problems)
            failed += tph.failed + len(trace_problems)
            spans_path = os.path.join(args.out, "%s-seed%d.spans.npz" % (w.name, args.seed))
            tracer.write(spans_path, "%s-seed%d-pid%d" % (w.name, args.seed, os.getpid()))
            report["spans_file"] = spans_path
            for k, (v, unit) in overhead.items():
                print("overhead %s %.6g %s" % (k, v, unit))
            metrics = layer
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print("FAILED CHECK: " + p, file=sys.stderr)
    for k, (v, unit) in e2e.items():
        print("metric %s %.6g %s" % (k, v, unit))
    if args.trace:
        for k, (v, unit) in sorted(layer.items()):
            print("layer %s %.6g %s" % (k, v, unit))
    wanted = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": min(failed, attempted),
        "metrics": {name: {"value": metrics[name][0], "unit": unit} for name, unit, _ in wanted},
    }
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report["end_to_end"] = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    report["problems"] = problems
    report["result"] = result
    with open(os.path.join(args.out, "%s-seed%d-trace%d.json" % (w.name, args.seed, args.trace)), "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps(result))


def run_all(args):
    """Each workload in its own process, one after another."""
    from workloads import WORKLOADS

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size,
               "--out", args.out]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print("## %s" % name)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            summary["correct"] = False
            continue
        res = json.loads(lines[-1])
        summary["correct"] &= res["correct"]
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            summary["metrics"]["%s/%s" % (name, k)] = v
    print(json.dumps(summary))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["train-toy", "infer-overlap", "infer-chain", "eval-drift", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: smoke-test sizes (tiny preset, short inputs)")
    parser.add_argument("--out", default=os.path.join(HERE, "out"))
    args = parser.parse_args(argv)
    try:
        import memvo  # noqa: F401  (the program under test, from ./src)
    except ImportError as exc:
        print("cannot import memvo from %s: %s" % (os.path.join(ROOT, "src"), exc), file=sys.stderr)
        return 2
    if args.workload == "all":
        run_all(args)
    else:
        run_workload(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
