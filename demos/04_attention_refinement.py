"""Attention over memory: temporal softmax, spatial recalibration, refinement.

A slot aligned with the guidance wins the temporal weights; spatial
weights re-scale channels but keep mean 1; zero guidance degrades to a
plain average. Refinement then runs the full window against the buffer.
"""

import numpy as np

import memvo.tensor as T
from memvo.memory import MemoryPolicy
from memvo.net import VONet
from memvo.refining import guided_memory, spatial_weights, temporal_weights
from memvo.synthetic import SyntheticSpec, generate_sequence
from memvo.training import run_window

rng = np.random.default_rng(2)
guidance = rng.normal(size=(4, 3, 3))
states = [rng.normal(size=(4, 3, 3)) for _ in range(3)]
states.append(guidance + 0.05 * rng.normal(size=(4, 3, 3)))  # nearly aligned
memory = T.Tensor(np.stack(states))  # the (S,C,H,W) stack both attentions read

alpha = temporal_weights(T.Tensor(guidance), memory)
print("temporal weights %s  (slot 3 is aligned with the guidance)" %
      np.round(alpha.data, 4).tolist())
print("weights sum to   %.12f" % alpha.data.sum())

beta = spatial_weights(T.Tensor(guidance), T.Tensor(states[3]))
print("spatial weights  %s  mean %.12f" %
      (np.round(beta.data, 4).tolist(), beta.data.mean()))

mem = guided_memory(T.Tensor(np.zeros_like(guidance)), memory)
avg = np.mean(states, axis=0)
print("zero guidance -> plain slot average, max dev %.2e" %
      np.max(np.abs(mem.data - avg)))

seq = generate_sequence(SyntheticSpec(frames=5, height=32, width=32, seed=9))
model = VONet(preset="tiny", seed=1)
res = run_window(model, list(seq.frames), MemoryPolicy(0.0, 0.0, max_slots=5))
print("refined absolute poses (x, y):")
for i, pose in enumerate(res.refined_poses()):
    print("  frame %d  %s" % (i + 1, np.round(pose.p[:2], 4).tolist()))
