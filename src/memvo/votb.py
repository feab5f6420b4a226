"""VOTB tensor blobs, a tiny self-describing array format, and the manifests that name them.

Layout, all little endian:
  4 bytes  magic "VOTB"
  u32      version (1)
  u32      ndim
  ndim*u32 extents
  payload  row-major float64 values, prod(extents) of them

Round trips are bit exact: the payload is the raw float64 memory of a
C-contiguous array.

A container (checkpoint or sequence) is a directory whose MANIFEST, a JSON
object with a format and a version, names files beside it.
"""

import math
import os
import struct

import numpy as np

from .config import read_json

MAGIC = b"VOTB"
VERSION = 1
MANIFEST = "manifest.json"


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


def read_manifest(dirpath, fmt, version):
    """(path, object) of dirpath's manifest, which must declare fmt at version (an int)."""
    mpath = os.path.join(dirpath, MANIFEST)
    if not os.path.isfile(mpath):
        raise ValueError("%s: no %s manifest" % (dirpath, fmt))
    manifest = read_json(mpath)
    if manifest.get("format") != fmt:
        raise ValueError("%s: not a %s manifest" % (mpath, fmt))
    found = manifest.get("version")
    # 2.0 == 2 and True == 1 in Python, so the type is checked before the value
    if isinstance(found, bool) or not isinstance(found, int) or found != version:
        raise ValueError("%s: unsupported %s version %r" % (mpath, fmt, found))
    return mpath, manifest


def beside(mpath, what, fname):
    """Path of the file fname, a manifest entry, which must sit beside manifest mpath."""
    path = os.path.join(os.path.dirname(mpath), fname) if isinstance(fname, str) else ""
    if os.path.basename(path) != fname or not os.path.isfile(path):
        raise ValueError("%s: %s names %r, not a file beside the manifest" % (mpath, what, fname))
    return path


def manifest_blob(mpath, what, fname, want):
    """Path of the blob fname beside manifest mpath, whose header declares shape want."""
    path = beside(mpath, what, fname)
    shape = read_votb_shape(path)  # the header alone, so a wrong shape costs no payload
    if shape != want:
        raise ValueError("%s: %s has shape %s, manifest wants %s" % (path, what, shape, want))
    return path


def manifest_array(mpath, what, fname, want):
    """The payload of manifest_blob(mpath, what, fname, want); NaN or inf raises ValueError."""
    path = manifest_blob(mpath, what, fname, want)
    data = read_votb(path)
    if not np.all(np.isfinite(data)):
        raise ValueError("%s: %s has non-finite values" % (path, what))
    return data
