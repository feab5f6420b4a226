"""Property tests of the pose and rotation checks: a lone matrix against a stack.

A lone 4x4 or 3x3 is checked on Python floats, a stack with numpy masks.
Both must accept the same matrices and give the same reason: a lone
check's ValueError message is the reason of the StackError that the stack
of that one matrix raises. Inputs sit near every edge of the checks: an
orthonormality error at 0.5, 0.999, 1.001 and 2 times the tolerance,
reflections, last rows off by as much, and NaN, infinite and huge entries.
No check may warn.
"""

import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from memvo.geometry import (_ORTHO_TOL, StackError, _check_rotation, check_se3,  # noqa: E402
                            euler_to_matrix, make_se3)

SETTINGS = settings(max_examples=400, deadline=None)

factors = st.sampled_from([0.5, 0.999, 1.001, 2.0])
signs = st.sampled_from([1.0, -1.0])
cells = st.tuples(st.integers(0, 2), st.integers(0, 2))
bad_values = st.sampled_from([np.nan, np.inf, -np.inf, 1e200, -1e200])


@st.composite
def rotations(draw):
    """A rotation with zero or more faults applied, each near an edge of its check."""
    m = euler_to_matrix(draw(st.tuples(*[st.floats(-np.pi, np.pi)] * 3)))
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["stretch", "shear", "reflect", "entry"]))
        k = draw(st.integers(0, 2))
        if kind == "stretch":  # a column norm off by eps
            m[:, k] *= np.sqrt(1.0 + draw(signs) * draw(factors) * _ORTHO_TOL)
        elif kind == "shear":  # two columns eps from orthogonal
            m[:, (k + 1) % 3] += draw(signs) * draw(factors) * _ORTHO_TOL * m[:, k]
        elif kind == "reflect":
            m[:, k] *= -1.0
        else:
            m[draw(cells)] = draw(bad_values)
    return m


@st.composite
def poses(draw):
    """A pose whose rotation is drawn by rotations(), with a last row or entry fault."""
    pose = np.eye(4)
    pose[:3, :3] = draw(rotations())
    pose[:3, 3] = draw(st.tuples(*[st.floats(-1e3, 1e3)] * 3))
    kind = draw(st.sampled_from(["none", "last row", "entry"]))
    if kind == "last row":
        pose[3, draw(st.integers(0, 3))] += draw(signs) * draw(st.one_of(
            factors.map(lambda f: f * _ORTHO_TOL), bad_values))
    elif kind == "entry":
        pose[draw(st.integers(0, 3)), draw(st.integers(0, 3))] = draw(bad_values)
    return pose


def outcome(check, arg):
    """None if check accepts arg; else its error's reason, and whether it named element 0."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            check(arg)
        except StackError as exc:
            return exc.reason, exc.index == 0
        except ValueError as exc:
            return str(exc), None
    return None


@SETTINGS
@given(poses())
def test_lone_pose_checked_as_its_stack_of_one(pose):
    lone, stacked = outcome(check_se3, pose), outcome(check_se3, pose[None])
    if lone is None:
        assert stacked is None
    else:
        assert stacked == (lone[0], True) and lone[1] is None


@SETTINGS
@given(rotations())
def test_lone_rotation_checked_as_its_stack_of_one(r):
    stacked = outcome(lambda m: _check_rotation(m, stack=True), r[None])
    for lone in (outcome(_check_rotation, r), outcome(lambda m: make_se3(m, (1.0, 2.0, 3.0)), r)):
        if lone is None:
            assert stacked is None
        else:
            assert stacked == (lone[0], True) and lone[1] is None
