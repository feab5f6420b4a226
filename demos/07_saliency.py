"""Input-pixel saliency: which frames influence a predicted pose.

Gradients of one pose output with respect to the input frames. The
tracking head is causal, so frames after the target get zero maps; the
refined head attends over stored memory, so influence spreads wider.
"""

import numpy as np

from memvo.evaluation import saliency_map
from memvo.memory import MemoryPolicy
from memvo.net import VONet
from memvo.synthetic import SyntheticSpec, generate_sequence

seq = generate_sequence(SyntheticSpec(frames=5, height=32, width=32, seed=11))
model = VONet(preset="tiny", seed=0)
policy = MemoryPolicy(theta_rot=0.0, theta_trans=0.0, max_slots=5)

for which in ("tracking", "refined"):
    maps = saliency_map(model, list(seq.frames), policy, target=2, which=which)
    peaks = [float(np.max(m)) for m in maps]
    print("%-8s target frame 2: per-frame peak |grad| %s" %
          (which, ["%.2e" % p for p in peaks]))
print("tracking is causal (zeros after frame 2); refinement reaches back "
      "through the live memory")
