"""Adaptive memory: keep tracking states whose motion left the last kept one.

A frame earns a slot when its pose has moved far enough from the most
recently stored frame, rotation or translation (both, with require_both).
The very first observation is always stored so the buffer is never empty,
and a full buffer evicts its oldest slot first.
"""

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import check_fields
from .geometry import check_se3, matrix_to_euler, pose_inverse


@dataclass(frozen=True)
class MemoryPolicy:
    """Selection thresholds (radians / length units) and buffer capacity."""

    theta_rot: float = 0.005
    theta_trans: float = 0.6
    max_slots: int = 11
    require_both: bool = False

    def __post_init__(self):
        check_fields(self)
        if not (self.theta_rot >= 0 and self.theta_trans >= 0):  # NaN fails too
            raise ValueError("thresholds must be nonnegative")
        if self.max_slots < 1:
            raise ValueError("max_slots must be at least 1")


@dataclass
class MemorySlot:
    frame: int
    state: T.Tensor
    anchor: np.ndarray


def motion_since(anchor, pose):
    """(rotation magnitude, translation magnitude) of pose relative to anchor.

    Rotation magnitude is the euclidean norm of the relative Euler vector,
    translation the norm of the relative translation.
    """
    rel = pose_inverse(anchor) @ check_se3(pose)
    rot = float(np.linalg.norm(matrix_to_euler(rel[:3, :3])))
    trans = float(np.linalg.norm(rel[:3, 3]))
    return rot, trans


def should_store(anchor, pose, policy):
    """Threshold test for a candidate frame against the last stored anchor."""
    rot, trans = motion_since(anchor, pose)
    hit_rot = rot >= policy.theta_rot
    hit_trans = trans >= policy.theta_trans
    if policy.require_both:
        return hit_rot and hit_trans
    return hit_rot or hit_trans


class MemoryBuffer:
    """Ordered store of selected tracking states, FIFO once full."""

    def __init__(self, policy):
        if not isinstance(policy, MemoryPolicy):
            raise TypeError("MemoryBuffer needs a MemoryPolicy")
        self.policy = policy
        self.slots = []

    def __len__(self):
        return len(self.slots)

    def observe(self, state, pose, frame, detach=True):
        """Offer one tracked frame; returns True when it was stored.

        state is the ConvLSTM hidden map for the frame, pose its integrated
        absolute pose. detach=True (the default used in training) stores a
        constant copy so refinement gradients do not flow back through the
        tracked history; detach=False keeps the live graph tensor.
        """
        pose = check_se3(pose)
        if self.slots and not should_store(self.slots[-1].anchor, pose, self.policy):
            return False
        stored = state.detach() if detach else state
        self.slots.append(MemorySlot(frame=int(frame), state=stored, anchor=pose.copy()))
        if len(self.slots) > self.policy.max_slots:
            self.slots.pop(0)
        return True

    def frames(self):
        return [s.frame for s in self.slots]
