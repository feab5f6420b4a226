"""Command line front end.

Subcommands: synth-data, train, infer, eval, saliency, plot-data. Every
command is deterministic for a given seed: rerunning with the same inputs
produces byte-identical outputs. Errors print one line to stderr and exit
nonzero; argparse handles unknown flags the same way.
"""

import argparse
import os
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np

from .config import check_int
from .evaluation import (AGGREGATES, FRAME_HZ, SALIENCY_POSES, TRAJECTORY_FORMATS,
                         error_vs_length_rows, error_vs_speed_rows, export_csv, kitti_drift,
                         load_sequence, load_trajectory, saliency_map, save_sequence,
                         save_trajectory, Trajectory, tum_rmse_drift)
from .net import PRESETS, load_checkpoint, save_checkpoint
from .synthetic import SyntheticSpec, generate_sequence
from .training import TrainConfig, TrainingDiverged, sliding_window_infer, train
from .votb import MANIFEST, write_votb


def _cmd_synth_data(args):
    spec = SyntheticSpec.from_json(args.spec)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    seq = generate_sequence(spec)
    save_sequence(args.out, seq.frames, seq.poses)
    print("wrote %d frames (%dx%d) to %s" % (spec.frames, spec.height, spec.width, args.out))
    return 0


def _collect_containers(path):
    if os.path.isfile(os.path.join(path, MANIFEST)):
        return [path]
    if os.path.isdir(path):
        subs = sorted(d for d in os.listdir(path)
                      if os.path.isfile(os.path.join(path, d, MANIFEST)))
        if subs:
            return [os.path.join(path, d) for d in subs]
    raise ValueError("%s: no sequence container found" % path)


def _load_training_data(spec):
    seqs = []
    for chunk in spec.split(","):
        for path in _collect_containers(chunk):
            frames, poses = load_sequence(path)
            if poses is None:
                raise ValueError("%s: training needs ground-truth poses" % path)
            seqs.append(SimpleNamespace(frames=frames, poses=poses))
    return seqs


def _cmd_train(args):
    config = TrainConfig.from_json(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.preset is not None:
        config = replace(config, preset=args.preset)
    dataset = _load_training_data(args.data)
    model, history = train(dataset, config)
    os.makedirs(args.out, exist_ok=True)
    save_checkpoint(model, os.path.join(args.out, "checkpoint"))
    export_csv(os.path.join(args.out, "loss.csv"),
               ["iteration", "loss_local", "loss_global", "loss_total"], history)
    print("trained %d iterations on %d sequences; final loss %.6g"
          % (config.iterations, len(dataset), history[-1][3]))
    return 0


def _policy_and_window(args):
    config = TrainConfig.from_json(args.config) if args.config else TrainConfig()
    window = args.window if args.window is not None else config.window_length
    return config.policy(), window, getattr(args, "stride", None)


def _cmd_infer(args):
    model = load_checkpoint(args.ckpt)
    frames, _ = load_sequence(args.data)
    policy, window, stride = _policy_and_window(args)
    traj_poses = sliding_window_infer(model, list(frames), policy,
                                      window=window, stride=stride)
    stamps = np.arange(len(traj_poses)) / FRAME_HZ
    save_trajectory(args.out, Trajectory(stamps, traj_poses), args.format)
    print("wrote %d poses to %s" % (len(traj_poses), args.out))
    return 0


def _cmd_eval(args):
    est = load_trajectory(args.est, args.format)
    gt = load_trajectory(args.gt, args.format)
    if args.format == "kitti":
        result = kitti_drift(est, gt, step=args.step, aggregate=args.aggregate)
        header, rows = error_vs_length_rows(result)
        rows.append(("all", result.t_rel_percent, result.r_rel_deg_per_100m,
                     len(result.segments)))
        print("t_rel %.6g %%  r_rel %.6g deg/100m over %d segments"
              % (result.t_rel_percent, result.r_rel_deg_per_100m, len(result.segments)))
        if args.out:
            export_csv(args.out, header, rows)
    else:
        result = tum_rmse_drift(est, gt)
        print("rmse %.6g m/s over %d pairs (scale %.6g)"
              % (result.rmse_m_per_s, result.pairs, result.scale))
        if args.out:
            export_csv(args.out, ["metric", "value"],
                       [("rmse_m_per_s", result.rmse_m_per_s),
                        ("pairs", result.pairs),
                        ("matches", result.matches),
                        ("scale", result.scale)])
    return 0


def _cmd_saliency(args):
    model = load_checkpoint(args.ckpt)
    frames, _ = load_sequence(args.data)
    policy, window, _ = _policy_and_window(args)
    frames = frames[:min(len(frames), check_int("window", window, 2))]
    maps = saliency_map(model, list(frames), policy, target=args.frame,
                        which=args.which)
    os.makedirs(args.out, exist_ok=True)
    for t, m in enumerate(maps):
        write_votb(os.path.join(args.out, "saliency_%04d.votb" % t), m)
    print("wrote %d saliency maps to %s" % (len(maps), args.out))
    return 0


def _cmd_plot_data(args):
    est = load_trajectory(args.est, "kitti")
    gt = load_trajectory(args.gt, "kitti")
    result = kitti_drift(est, gt, step=args.step)
    os.makedirs(args.out, exist_ok=True)
    header, rows = error_vs_length_rows(result)
    export_csv(os.path.join(args.out, "error_vs_length.csv"), header, rows)
    header, rows = error_vs_speed_rows(result)
    export_csv(os.path.join(args.out, "error_vs_speed.csv"), header, rows)
    print("wrote drift tables for %d segments to %s" % (len(result.segments), args.out))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="memvo",
                                     description="memory-refined visual odometry toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-data", help="render a synthetic sequence container")
    p.add_argument("--spec", required=True, help="sequence spec JSON")
    p.add_argument("--out", required=True, help="output container directory")
    p.add_argument("--seed", type=int, default=None, help="override the spec seed")
    p.set_defaults(fn=_cmd_synth_data)

    p = sub.add_parser("train", help="train a model on sequence containers")
    p.add_argument("--config", required=True, help="training config JSON")
    p.add_argument("--data", required=True,
                   help="container, comma list, or directory of containers")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--preset", choices=sorted(PRESETS), default=None,
                   help="override the config preset")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("infer", help="run sliding-window inference")
    p.add_argument("--ckpt", required=True, help="checkpoint directory")
    p.add_argument("--data", required=True, help="sequence container")
    p.add_argument("--out", required=True, help="output trajectory file")
    p.add_argument("--config", default=None, help="training config JSON for thresholds")
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--stride", type=int, default=None)
    p.add_argument("--format", choices=TRAJECTORY_FORMATS, default="kitti")
    p.set_defaults(fn=_cmd_infer)

    p = sub.add_parser("eval", help="drift metrics for est vs gt trajectories")
    p.add_argument("--format", choices=TRAJECTORY_FORMATS, default="kitti")
    p.add_argument("--est", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--out", default=None, help="optional metrics CSV")
    p.add_argument("--step", type=int, default=1, help="start-frame thinning (kitti)")
    p.add_argument("--aggregate", choices=AGGREGATES, default="mean")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("saliency", help="input-pixel saliency maps for one pose")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True, help="sequence container")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", default=None)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--frame", type=int, default=None, help="target frame index")
    p.add_argument("--which", choices=SALIENCY_POSES, default="refined")
    p.set_defaults(fn=_cmd_saliency)

    p = sub.add_parser("plot-data", help="drift-vs-length and drift-vs-speed tables")
    p.add_argument("--est", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--step", type=int, default=1)
    p.set_defaults(fn=_cmd_plot_data)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, TrainingDiverged) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
