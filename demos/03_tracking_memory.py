"""Keyframe selection: the memory stores frames only when motion says so.

First the buffer is driven directly with a known pose stream to show the
threshold semantics; then the full tracking pipeline runs on a synthetic
sequence, where an untrained net predicts near-zero motion, so only
theta = 0 fills the memory and a small buffer evicts oldest-first.
"""

import numpy as np

import memvo.tensor as T
from memvo.geometry import euler_to_matrix, make_se3
from memvo.memory import MemoryBuffer, MemoryPolicy
from memvo.net import VONet
from memvo.synthetic import SyntheticSpec, generate_sequence
from memvo.training import run_window

# a camera creeping forward 0.4 per frame with a 0.01 rad yaw wobble
poses = [make_se3(euler_to_matrix([0, 0, 0.01 * i]), [0.4 * i, 0, 0])
         for i in range(10)]
state = T.Tensor(np.zeros((2, 2, 2)))

for theta_trans in (0.0, 0.5, 1.1):
    buf = MemoryBuffer(MemoryPolicy(theta_rot=0.5, theta_trans=theta_trans,
                                    max_slots=10))
    for i, p in enumerate(poses):
        buf.observe(state, p, frame=i)
    print("theta_trans %.1f -> stored frames %s" % (theta_trans, buf.frames()))
print("(distance accrues from the last *stored* frame, so 0.5 stores "
      "every other 0.4-step)")

buf = MemoryBuffer(MemoryPolicy(theta_rot=0.0, theta_trans=0.0, max_slots=3))
for i, p in enumerate(poses):
    buf.observe(state, p, frame=i)
print("theta=0, 3 slots -> %s (FIFO keeps the newest)" % buf.frames())

seq = generate_sequence(SyntheticSpec(frames=8, height=32, width=32,
                                      kind="mixed", max_shift=1.2, seed=4))
model = VONet(preset="tiny", seed=0)
res = run_window(model, list(seq.frames), MemoryPolicy(0.0, 0.0, max_slots=8))
steps = [np.linalg.norm(rel.data[:3]) for rel in res.track.rels]  # (tx, ty, tz) first
print("untrained tracking, theta=0: stored %s, per-step translation %s" %
      (res.buffer.frames(), np.round(steps, 4).tolist()))
