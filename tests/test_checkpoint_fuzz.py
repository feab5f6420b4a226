"""Property tests of the VOTB reader and the checkpoint loader.

Any bytes given to read_votb, and any mutation of a checkpoint manifest,
either load or raise a ValueError whose message starts with the path of the
file at fault.
"""

import copy
import json
import os
import shutil
import tempfile

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from memvo.net import VONet, load_checkpoint, save_checkpoint  # noqa: E402
from memvo.votb import MAGIC, read_votb  # noqa: E402

SETTINGS = settings(max_examples=300, deadline=None)

# JSON values a mutation may put in place of any manifest node. Integers stay
# small: a manifest may legally declare a larger network, which is then built.
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 40),
              st.floats(allow_nan=False, allow_infinity=False),
              st.sampled_from(["", ".", "..", "../manifest.json", "/etc/hostname", "x.votb",
                               "head.track.bias.votb", "memvo-checkpoint", "tiny", "a/b"]),
              st.text(max_size=8)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6)


@pytest.fixture(scope="module")
def saved_checkpoint():
    root = tempfile.mkdtemp()
    path = os.path.join(root, "ckpt")
    save_checkpoint(VONet(preset="tiny", seed=0), path)
    with open(os.path.join(path, "manifest.json")) as fh:
        manifest = json.load(fh)
    yield path, manifest
    shutil.rmtree(root)


def check_outcome(load, directory):
    """load() returns, or raises ValueError naming directory or a file directly in it."""
    try:
        load()
    except ValueError as exc:
        named = str(exc).split(": ", 1)[0]
        assert named == directory or os.path.dirname(named) == directory, str(exc)


@SETTINGS
@given(st.binary(max_size=80))
def test_read_votb_any_bytes(data):
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "x.votb")
        with open(path, "wb") as fh:
            fh.write(data)
        check_outcome(lambda: read_votb(path), root)


@SETTINGS
@given(st.integers(0, 3), st.integers(0, 6), st.lists(st.integers(0, 4), max_size=6),
       st.binary(max_size=64))
def test_read_votb_header_like_bytes(version, ndim, extents, payload):
    # a VOTB magic and plausible header, so the reader gets past the first checks
    data = MAGIC + np.array([version, ndim] + extents, dtype="<u4").tobytes() + payload
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "x.votb")
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            arr = read_votb(path)
        except ValueError as exc:
            assert str(exc).startswith(path + ":"), str(exc)
            return
        assert arr.dtype == np.float64 and arr.size * 8 == len(data) - 12 - 4 * arr.ndim


def _nodes(obj, trail=()):
    """Every (container, key) position of a JSON document."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield trail + (key,)
        yield from _nodes(value, trail + (key,))


@st.composite
def mutated_manifests(draw, manifest):
    doc = copy.deepcopy(manifest)
    for _ in range(draw(st.integers(1, 3))):
        positions = list(_nodes(doc))
        if not positions:
            break
        trail = draw(st.sampled_from(positions))
        parent = doc
        for key in trail[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            parent[trail[-1]] = draw(json_values)
        elif isinstance(parent, dict):
            del parent[trail[-1]]
        else:
            parent.pop(trail[-1])
    text = json.dumps(doc)
    if draw(st.integers(0, 9)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    return text


def _fuzz_load(saved_checkpoint, text):
    src, _ = saved_checkpoint
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "ckpt")
        shutil.copytree(src, path)
        mpath = os.path.join(path, "manifest.json")
        with open(mpath, "w") as fh:
            fh.write(text)
        check_outcome(lambda: load_checkpoint(path), path)


@SETTINGS
@given(data=st.data())
def test_load_checkpoint_mutated_manifest(saved_checkpoint, data):
    _fuzz_load(saved_checkpoint, data.draw(mutated_manifests(saved_checkpoint[1])))


@SETTINGS
@given(text=st.text(max_size=200))
def test_load_checkpoint_any_manifest_text(saved_checkpoint, text):
    _fuzz_load(saved_checkpoint, text)
