"""Property tests of the KITTI and TUM trajectory parsers.

Any text either parses to valid poses with finite, strictly increasing
stamps, or raises a ValueError that names its line (or finds no poses).
The np.loadtxt reader is checked against the per-line float() reader it
replaced, which differs only where float() took '_' separators or
non-ASCII digits.
"""

import re

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from memvo.evaluation import _tokenise, parse_kitti, parse_tum  # noqa: E402
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
        indent = draw(st.sampled_from(["", " ", "\t", "\u3000"]))
        lines.append(indent + draw(separators).join(tokens))
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


def tokenise_by_float(text, width, comments, number=float):
    """The per-line reader np.loadtxt replaced, one number(token) per value: the oracle."""
    lines = text.splitlines()
    vals, linenos = np.empty((len(lines), width)), []
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens or (comments and tokens[0].startswith("#")):
            continue
        if len(tokens) != width:
            raise ValueError("line %d: expected %d values, got %d" % (lineno, width, len(tokens)))
        try:
            vals[len(linenos)] = list(map(number, tokens))
        except ValueError:
            raise ValueError("line %d: non-numeric value" % lineno) from None
        linenos.append(lineno)
    if not linenos:
        raise ValueError("no poses found")
    vals = vals[:len(linenos)]
    finite = np.isfinite(vals).all(axis=1)
    if not finite.all():
        raise ValueError("line %d: non-finite value" % linenos[int(np.argmin(finite))])
    return vals, linenos


def ascii_float(token):
    """float() without what the loadtxt reader refuses: '_' and non-ASCII characters."""
    if "_" in token or not token.isascii():
        raise ValueError(token)
    return float(token)


def outcome(read, *args):
    try:
        vals, linenos = read(*args)
    except ValueError as exc:
        return str(exc)
    return vals.tobytes(), vals.shape, linenos


def check_same_as_oracle(text, width, comments):
    got = outcome(_tokenise, text, width, comments)
    assert got == outcome(tokenise_by_float, text, width, comments, ascii_float)
    if "_" not in text and not any(ch.isdigit() and not ch.isascii() for ch in text):
        assert got == outcome(tokenise_by_float, text, width, comments)


@SETTINGS
@given(st.text(max_size=400), st.sampled_from([(12, False), (8, True)]))
def test_reader_matches_float_oracle_on_any_text(text, form):
    check_same_as_oracle(text, *form)


@SETTINGS
@given(documents("kitti"))
def test_kitti_reader_matches_float_oracle(text):
    check_same_as_oracle(text, 12, False)


@SETTINGS
@given(documents("tum"))
def test_tum_reader_matches_float_oracle(text):
    check_same_as_oracle(text, 8, True)


@pytest.mark.parametrize("token", ["1_0", "\u0661", "\u0966"])
def test_separators_and_non_ascii_digits_name_their_line(token):
    row = ["0"] * 11
    text = "\n".join([" ".join(["1"] * 12), "", " ".join(row + [token]), "1 2"])
    assert float(token) in (10.0, 1.0, 0.0)  # float() took it
    with pytest.raises(ValueError, match="^line 3: non-numeric value$"):
        _tokenise(text, 12, comments=False)
