"""VOTB tensor blobs: a tiny self-describing binary array format.

Layout, all little endian:
  4 bytes  magic "VOTB"
  u32      version (1)
  u32      ndim
  ndim*u32 extents
  payload  row-major float64 values, prod(extents) of them

Round trips are bit exact: the payload is the raw float64 memory of a
C-contiguous array.
"""

import math
import os
import struct

import numpy as np

MAGIC = b"VOTB"
VERSION = 1


def write_votb(path, array):
    """Write a float64 ndarray to path in VOTB form."""
    if np.asarray(array).ndim == 0:
        # ascontiguousarray would silently promote scalars to shape (1,)
        raise ValueError("VOTB stores arrays with at least one axis")
    arr = np.ascontiguousarray(array, dtype=np.float64)
    header = MAGIC + struct.pack("<II", VERSION, arr.ndim)
    header += struct.pack("<%dI" % arr.ndim, *arr.shape)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(arr.tobytes("C"))


def read_votb_shape(path):
    """The extents a VOTB blob declares, read from its header alone."""
    with open(path, "rb") as fh:
        head = fh.read(12)
        if len(head) < 12:
            raise ValueError("%s: truncated VOTB header" % path)
        if head[:4] != MAGIC:
            raise ValueError("%s: bad magic %r" % (path, head[:4]))
        version, ndim = struct.unpack("<II", head[4:12])
        if version != VERSION:
            raise ValueError("%s: unsupported VOTB version %d" % (path, version))
        if ndim == 0:
            raise ValueError("%s: zero-dimensional blob" % path)
        if os.fstat(fh.fileno()).st_size < 12 + 4 * ndim:
            raise ValueError("%s: truncated extents" % path)
        extents = struct.unpack("<%dI" % ndim, fh.read(4 * ndim))
    if 0 in extents:
        raise ValueError("%s: zero extent" % path)
    return extents


def read_votb(path):
    """Read a VOTB blob back into a float64 ndarray."""
    extents = read_votb_shape(path)
    with open(path, "rb") as fh:
        fh.seek(12 + 4 * len(extents))
        payload = fh.read()
    if len(payload) != 8 * math.prod(extents):
        raise ValueError("%s: payload is %d bytes, extents %s need %d"
                         % (path, len(payload), extents, 8 * math.prod(extents)))
    flat = np.frombuffer(payload, dtype="<f8")
    return flat.reshape(extents).copy()
