"""Property tests of the VOTB reader and the container loaders.

Any bytes given to read_votb, and any mutation of a checkpoint or sequence
manifest, either load or raise a ValueError whose message starts with the
path of the file at fault.
"""

import copy
import json
import os
import re
import shutil
import tempfile
import tracemalloc

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from memvo.evaluation import load_sequence, save_sequence  # noqa: E402
from memvo.net import VONet, load_checkpoint, save_checkpoint  # noqa: E402
from memvo.votb import MAGIC, read_votb, write_votb  # noqa: E402

SETTINGS = settings(max_examples=300, deadline=None)

# JSON values a mutation may put in place of any manifest node. Neither
# manifest declares a size or names a file: a checkpoint holds a preset and a
# seed, so no value can make the loader build a network its blobs do not hold
# (a larger preset's name fails on the first encoder kernel's header), and a
# sequence holds only whether it has poses.
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 40),
              st.floats(allow_nan=False, allow_infinity=False),
              st.sampled_from(["", ".", "..", "../manifest.json", "/etc/hostname", "x.votb",
                               "head.track.bias.votb", "track.kernel_x.votb",
                               "track.i.wx.votb", "memvo-checkpoint", "tiny", "desk", "a/b",
                               "frames.votb", "poses_gt.txt", "memvo-sequence", "poses"]),
              st.text(max_size=8)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6)


def _saved(save, name):
    """(path, manifest) of a container save(path) writes in a fresh directory."""
    root = tempfile.mkdtemp()
    path = os.path.join(root, name)
    save(path)
    with open(os.path.join(path, "manifest.json")) as fh:
        manifest = json.load(fh)
    yield path, manifest
    shutil.rmtree(root)


@pytest.fixture(scope="module")
def saved_checkpoint():
    yield from _saved(lambda path: save_checkpoint(VONet(preset="tiny", seed=0), path), "ckpt")


@pytest.fixture(scope="module")
def saved_sequence():
    poses = np.tile(np.eye(4), (3, 1, 1))
    poses[:, 0, 3] = [0.0, 1.0, 2.0]
    frames = np.random.default_rng(0).normal(size=(3, 3, 4, 4))
    yield from _saved(lambda path: save_sequence(path, frames, poses), "seq")


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


def _fuzz_load(saved, load, text):
    src, _ = saved
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, os.path.basename(src))
        shutil.copytree(src, path)
        mpath = os.path.join(path, "manifest.json")
        with open(mpath, "w") as fh:
            fh.write(text)
        check_outcome(lambda: load(path), path)


@SETTINGS
@given(data=st.data())
def test_load_checkpoint_mutated_manifest(saved_checkpoint, data):
    _fuzz_load(saved_checkpoint, load_checkpoint,
               data.draw(mutated_manifests(saved_checkpoint[1])))


@SETTINGS
@given(text=st.text(max_size=200))
def test_load_checkpoint_any_manifest_text(saved_checkpoint, text):
    _fuzz_load(saved_checkpoint, load_checkpoint, text)


@SETTINGS
@given(data=st.data())
def test_load_sequence_mutated_manifest(saved_sequence, data):
    _fuzz_load(saved_sequence, load_sequence, data.draw(mutated_manifests(saved_sequence[1])))


def _peak_of_failed_load(path, blob, load=load_checkpoint):
    """Peak traced allocation while load(path) fails on blob's shape."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape(blob) + ": .*has shape"):
            load(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_larger_preset_fails_on_a_blob_header_before_the_model_is_built(saved_checkpoint):
    # tiny blobs under a desk manifest: desk's parameters are 6.2 MB, and
    # kitti-shape's would be 1.44 GB, so the headers must refute the preset first
    src, manifest = saved_checkpoint
    for preset in ("desk", "kitti-shape"):
        doc = copy.deepcopy(manifest)
        doc["model"]["preset"] = preset
        with tempfile.TemporaryDirectory() as root:
            path = os.path.join(root, "ckpt")
            shutil.copytree(src, path)
            with open(os.path.join(path, "manifest.json"), "w") as fh:
                json.dump(doc, fh)
            peak = _peak_of_failed_load(path, os.path.join(path, "encoder.l1.kernel.votb"))
        assert peak < 2 * 2 ** 20, "%s: peak %.1f MB during the failed load" % (
            preset, peak / 2 ** 20)


def test_oversized_blob_fails_before_its_payload_is_read(saved_checkpoint):
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "ckpt")
        shutil.copytree(saved_checkpoint[0], path)
        blob = os.path.join(path, "head.track.bias.votb")
        write_votb(blob, np.zeros(2 ** 21))  # 16 MB where the model wants (6,)
        peak = _peak_of_failed_load(path, blob)
    assert peak < 10 * 2 ** 20, "peak %.1f MB during the failed load" % (peak / 2 ** 20)


def test_oversized_frame_fails_before_its_payload_is_read(saved_sequence):
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "seq")
        shutil.copytree(saved_sequence[0], path)
        blob = os.path.join(path, "frames.votb")
        write_votb(blob, np.zeros((8, 512, 512)))  # 16 MB of rank 3 where (T,C,H,W) is wanted
        peak = _peak_of_failed_load(path, blob, load=load_sequence)
    assert peak < 10 * 2 ** 20, "peak %.1f MB during the failed load" % (peak / 2 ** 20)
