"""Attention-guided refinement of tracked poses into absolute poses.

The previous refined output steers two attentions over the memory buffer:
a temporal softmax over whole slots and, inside each slot, a per-channel
recalibration. The guided memory summary and the recalibrated current
features are fused by two convs and fed to a second ConvLSTM whose head
regresses the absolute pose of frame t in frame 0 coordinates.
"""

import numpy as np

from . import tensor as T


def temporal_weights(guidance, memory):
    """Softmax over cosine(guidance, slot state), memory (S,C,H,W); uniform for zero guidance."""
    if memory.data.ndim != 4:
        raise ValueError("temporal_weights needs a stacked (S,C,H,W) memory")
    return T.softmax(T.cosine_similarity(guidance, memory))


def spatial_weights(guidance, state):
    """Per-channel weights, mean one: C * softmax(channel cosines).

    state (C,H,W) gives (C,); a stacked memory (S,C,H,W) gives (S,C), one
    row per slot. All-zero guidance gives exactly all ones, so an unguided
    first step passes slot contents through unchanged.
    """
    return T.mul(T.softmax(T.channel_cosine(guidance, state)), float(state.data.shape[-3]))


def recalibrate(guidance, state):
    """Scale each channel of state, (C,H,W) or (S,C,H,W), by its guidance-derived weight."""
    return T.scale_channels(state, spatial_weights(guidance, state))


def guided_memory(guidance, memory):
    """Aggregate the stacked memory (S,C,H,W) into one map: sum_i alpha_i * recalibrated(m_i).

    alpha comes from the raw slot states; the per-channel recalibration
    happens inside each slot before the weighted sum. Both run once over the
    whole stack, so the graph does not grow with S.
    """
    return T.weighted_sum(temporal_weights(guidance, memory), recalibrate(guidance, memory))


def guided_observation(guidance, feat):
    """Recalibrate the current encoded features with the same guidance."""
    return recalibrate(guidance, feat)


def refine_sequence(model, feats, slots):
    """Run the refinement pass over tracked features.

    feats are the encoded pair features X_1..X_N from the tracking pass;
    slots, the window's selected memory, are stacked once (an empty list
    raises ValueError). Step t is guided by the refined output of step t-1
    (zeros at the start). Returns (absolute pose tensors, refined output
    maps), one per step; step t gives frame t's pose in frame 0 coordinates.
    """
    memory = T.stack([s.state for s in slots])
    h, c = model.zero_state()
    guidance = T.Tensor(np.zeros((model.hidden,) + model.extents))
    abs_poses, outs = [], []
    for feat in feats:
        mem = guided_memory(guidance, memory)
        obs = guided_observation(guidance, feat)
        fused = model.fuse(mem, obs)
        out, h, c = model.refine_step(fused, h, c)
        abs_poses.append(model.pose_head("refine", out))
        outs.append(out)
        guidance = out
    return abs_poses, outs
