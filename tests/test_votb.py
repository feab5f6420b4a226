import re
import struct

import numpy as np
import pytest

from memvo.votb import MAGIC, MANIFEST, manifest_array, read_votb, write_votb


class TestManifestArray:
    def test_returns_the_payload_and_refuses_non_finite_values(self, tmp_path):
        mpath = str(tmp_path / MANIFEST)
        arr = np.arange(6.0).reshape(2, 3)
        write_votb(tmp_path / "a.votb", arr)
        assert manifest_array(mpath, "blob a", "a.votb", (2, 3)).tobytes() == arr.tobytes()
        for bad in (np.nan, np.inf, -np.inf):
            arr[1, 2] = bad
            write_votb(tmp_path / "a.votb", arr)
            blob = str(tmp_path / "a.votb")
            with pytest.raises(ValueError, match="^%s: blob a has non-finite values$" % re.escape(blob)):
                manifest_array(mpath, "blob a", "a.votb", (2, 3))


class TestRoundTrip:
    def test_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        shapes = [(1,), (7,), (3, 4), (2, 3, 4), (1, 1, 1, 1), (5, 1, 2, 3, 4)]
        for i, shape in enumerate(shapes):
            arr = rng.normal(size=shape)
            # include values that expose lossy encodings
            arr.flat[0] = -0.0
            arr.flat[-1] = np.pi
            path = tmp_path / ("blob%d.votb" % i)
            write_votb(path, arr)
            back = read_votb(path)
            assert back.shape == arr.shape
            assert back.tobytes() == arr.tobytes()  # bit identical, signed zero included

    def test_non_contiguous_and_integer_input(self, tmp_path):
        arr = np.arange(24).reshape(4, 6)[:, ::2]
        path = tmp_path / "sliced.votb"
        write_votb(path, arr)
        back = read_votb(path)
        assert np.array_equal(back, arr.astype(np.float64))

    def test_header_layout(self, tmp_path):
        path = tmp_path / "h.votb"
        write_votb(path, np.zeros((2, 3)))
        raw = path.read_bytes()
        assert raw[:4] == MAGIC
        version, ndim = struct.unpack("<II", raw[4:12])
        assert (version, ndim) == (1, 2)
        assert struct.unpack("<II", raw[12:20]) == (2, 3)
        assert len(raw) == 20 + 6 * 8


class TestRejection:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.votb"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(ValueError, match="magic"):
            read_votb(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.votb"
        path.write_bytes(b"VOTB\x01")
        with pytest.raises(ValueError, match="truncated"):
            read_votb(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v9.votb"
        path.write_bytes(MAGIC + struct.pack("<III", 9, 1, 1) + b"\x00" * 8)
        with pytest.raises(ValueError, match="version"):
            read_votb(path)

    def test_payload_size_mismatch(self, tmp_path):
        path = tmp_path / "sz.votb"
        write_votb(path, np.zeros(3))
        raw = path.read_bytes()
        path.write_bytes(raw + b"\x00" * 8)  # trailing garbage
        with pytest.raises(ValueError, match="payload"):
            read_votb(path)
        path.write_bytes(raw[:-8])  # truncated payload
        with pytest.raises(ValueError, match="payload"):
            read_votb(path)

    def test_zero_extent(self, tmp_path):
        path = tmp_path / "z.votb"
        path.write_bytes(MAGIC + struct.pack("<III", 1, 1, 0))
        with pytest.raises(ValueError, match="extent"):
            read_votb(path)

    def test_zero_dim_write_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_votb(tmp_path / "s.votb", np.float64(3.0))
