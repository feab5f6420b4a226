"""End-to-end training on a toy synthetic dataset (about two minutes).

Trains the desk preset on eight 11-frame 64x64 sequences. The window is
long enough that dead-reckoned relative steps accumulate drift, which is
where memory-guided refinement earns its keep: on a held-out sequence
the refined endpoint lands closer than the integrated tracking endpoint.
"""

import numpy as np

from memvo.geometry import Pose6DoF, integrate_relative, translation
from memvo.synthetic import SyntheticSpec, generate_dataset, generate_sequence
from memvo.training import (TrainConfig, run_window, train,
                            window_ground_truth)

base = SyntheticSpec(frames=11, height=64, width=64, kind="mixed",
                     max_shift=1.5, max_yaw=0.02, seed=0)
dataset = generate_dataset(8, base, seed=1)
config = TrainConfig(window_length=11, batch_size=4, base_lr=1e-3, k=100.0,
                     seed=0, preset="desk", iterations=200)

model, history = train(dataset, config)
for it, local, glob, total in history[::25] + [history[-1]]:
    print("iter %3d  local %7.4f  global %7.4f  total %7.4f" %
          (it, local, glob, total))
print("loss ratio final/initial %.3f" % (history[-1][3] / history[0][3]))

held = generate_sequence(SyntheticSpec(frames=11, height=64, width=64,
                                       kind="mixed", max_shift=1.5,
                                       max_yaw=0.02, seed=77))
res = run_window(model, list(held.frames), config.policy())
_, gt_abs = window_ground_truth(held.poses, 0, 11)
gt_end = gt_abs[-1].p
track_end = translation(integrate_relative([Pose6DoF.from_vector(r.data)
                                              for r in res.track.rels])[-1])
refined_end = res.refined_poses()[-1].p
print("held-out endpoint error  tracking %.4f  refined %.4f" %
      (np.linalg.norm(track_end - gt_end), np.linalg.norm(refined_end - gt_end)))
