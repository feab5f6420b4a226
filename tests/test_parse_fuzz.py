"""Property tests of the KITTI and TUM trajectory parsers.

Any text either parses to valid poses with finite, strictly increasing
stamps, or raises a ValueError that names its line (or finds no poses).
"""

import re

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from memvo.evaluation import parse_kitti, parse_tum  # noqa: E402
from memvo.geometry import check_se3, euler_to_matrix, matrix_to_quat  # noqa: E402

SETTINGS = settings(max_examples=300, deadline=None)

numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(-10.0, 10.0).map(lambda v: "%.17g" % v),
    st.integers(-3, 3).map(str),
    st.sampled_from(["nan", "-inf", "1e999", "-0", "1_0", "0x1p3", "", "#", "# x", "abc",
                     "1e-320", "+1.5", ".5", "5.", "1e308", "\x00", "١"]),
)
separators = st.sampled_from([" ", "  ", "\t", " \t "])
newlines = st.sampled_from(["\n", "\r\n", "\r", "\n\n", "\x0b", " "])


@st.composite
def pose_rows(draw, fmt):
    """A valid pose line, sometimes with one token replaced."""
    phi = draw(st.tuples(*[st.floats(-np.pi, np.pi)] * 3))
    t = draw(st.tuples(*[st.floats(-1e3, 1e3)] * 3))
    r = euler_to_matrix(phi)
    if fmt == "kitti":
        vals = np.concatenate([r, np.array(t)[:, None]], axis=1).reshape(-1).tolist()
    else:
        stamp = draw(st.floats(0.0, 100.0))
        vals = [stamp, *t, *matrix_to_quat(r).tolist()]
    tokens = ["%.17g" % v for v in vals]
    if draw(st.booleans()):
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(numbers)
    return tokens


@st.composite
def documents(draw, fmt):
    width = 12 if fmt == "kitti" else 8
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.integers(0, 3))
        if kind == 0:
            tokens = draw(st.lists(numbers, min_size=0, max_size=width + 1))
        elif kind == 1:
            tokens = draw(st.lists(numbers, min_size=width, max_size=width))
        else:
            tokens = draw(pose_rows(fmt))
        lines.append(draw(separators).join(tokens))
    out = ""
    for line in lines:
        out += line + draw(newlines)
    return out


def check_outcome(parse, text):
    try:
        traj = parse(text)
    except ValueError as exc:
        msg = str(exc)
        if msg == "no poses found":
            return
        m = re.match(r"line (\d+): ", msg)
        assert m, msg
        assert 1 <= int(m.group(1)) <= len(text.splitlines()), msg
        return
    assert len(traj) >= 1
    check_se3(traj.poses)
    assert np.all(np.isfinite(traj.stamps))
    assert np.all(np.diff(traj.stamps) > 0)


@SETTINGS
@given(st.text(max_size=400))
def test_kitti_any_text(text):
    check_outcome(parse_kitti, text)


@SETTINGS
@given(st.text(max_size=400))
def test_tum_any_text(text):
    check_outcome(parse_tum, text)


@SETTINGS
@given(documents("kitti"))
def test_kitti_pose_like_text(text):
    check_outcome(parse_kitti, text)


@SETTINGS
@given(documents("tum"))
def test_tum_pose_like_text(text):
    check_outcome(parse_tum, text)
