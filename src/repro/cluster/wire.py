"""Wire format: framed binary serialisation of tensors for device channels.

The paper's communication accounting assumes activations cross the network
as raw float32 payloads.  This module makes that concrete: a fixed binary
header (magic, version, kind, sender, sequence number, dtype, shape)
followed by the C-contiguous array bytes.  The process runtime's socket
transport sends every collective message as an *encoded frame*, so its byte
counters measure what really crosses the socket — payload plus framing
overhead.

Format (little-endian):

    0   4  magic  b"VLTG"
    4   1  version (currently 1)
    5   1  kind    (application-defined small int)
    6   2  sender rank        (uint16)
    8   4  sequence number    (uint32)
    12  8  dtype string, NUL-padded (e.g. b"<f4")
    20  1  ndim               (uint8)
    21  .  ndim × uint32 dims
    .   .  raw array bytes
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

__all__ = ["WireError", "Frame", "encode_frame", "decode_frame", "frame_overhead_bytes"]

_MAGIC = b"VLTG"
_VERSION = 1
_HEADER = struct.Struct("<4sBBHI8sB")
_DIM = struct.Struct("<I")
_MAX_NDIM = 8


class WireError(ValueError):
    """Malformed or unsupported frame."""


@dataclass(frozen=True)
class Frame:
    """A decoded message: routing metadata + tensor payload."""

    kind: int
    sender: int
    sequence: int
    payload: np.ndarray

    @property
    def nbytes(self) -> int:
        """Total wire size of this frame when encoded."""
        return frame_overhead_bytes(self.payload.ndim) + self.payload.nbytes


def frame_overhead_bytes(ndim: int) -> int:
    """Header bytes for an ``ndim``-dimensional payload."""
    return _HEADER.size + ndim * _DIM.size


def encode_frame(
    payload: np.ndarray, kind: int = 0, sender: int = 0, sequence: int = 0
) -> bytes:
    """Serialise one tensor message into a framed byte string."""
    payload = np.ascontiguousarray(payload)
    if payload.ndim > _MAX_NDIM:
        raise WireError(f"payload rank {payload.ndim} exceeds maximum {_MAX_NDIM}")
    if not (0 <= kind < 256):
        raise WireError(f"kind must fit a byte, got {kind}")
    if not (0 <= sender < 2**16):
        raise WireError(f"sender must fit uint16, got {sender}")
    if not (0 <= sequence < 2**32):
        raise WireError(f"sequence must fit uint32, got {sequence}")
    dtype_str = payload.dtype.str.encode("ascii")
    if len(dtype_str) > 8:
        raise WireError(f"unsupported dtype {payload.dtype}")
    header = _HEADER.pack(
        _MAGIC, _VERSION, kind, sender, sequence, dtype_str.ljust(8, b"\0"), payload.ndim
    )
    dims = b"".join(_DIM.pack(d) for d in payload.shape)
    return header + dims + payload.tobytes()


def decode_frame(data: bytes) -> Frame:
    """Parse a framed byte string back into a :class:`Frame`.

    Validates magic, version, and that the payload length matches the
    declared shape — truncated or corrupt frames fail loudly.

    The returned payload is a fresh **writable** array that owns its memory.
    ``np.frombuffer`` over the message bytes would yield a read-only view
    (any downstream in-place op raises ``ValueError: assignment destination
    is read-only``) that also pins the entire frame buffer alive for as long
    as the payload is referenced; receivers are entitled to mutate what they
    received, exactly as if it had arrived in a private device buffer.
    """
    if len(data) < _HEADER.size:
        raise WireError(f"frame too short: {len(data)} bytes")
    magic, version, kind, sender, sequence, dtype_raw, ndim = _HEADER.unpack_from(data, 0)
    if magic != _MAGIC:
        raise WireError(f"bad magic {magic!r}")
    if version != _VERSION:
        raise WireError(f"unsupported version {version}")
    if ndim > _MAX_NDIM:
        raise WireError(f"declared rank {ndim} exceeds maximum {_MAX_NDIM}")
    offset = _HEADER.size
    if len(data) < offset + ndim * _DIM.size:
        raise WireError("frame truncated in shape section")
    shape = tuple(
        _DIM.unpack_from(data, offset + i * _DIM.size)[0] for i in range(ndim)
    )
    offset += ndim * _DIM.size
    try:
        dtype = np.dtype(dtype_raw.rstrip(b"\0").decode("ascii"))
    except (TypeError, UnicodeDecodeError) as exc:
        raise WireError(f"bad dtype field {dtype_raw!r}") from exc
    expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
    body = data[offset:]
    if len(body) != expected:
        raise WireError(f"payload length {len(body)} != expected {expected}")
    payload = np.empty(shape, dtype=dtype)
    payload.ravel()[:] = np.frombuffer(body, dtype=dtype)
    return Frame(kind=kind, sender=sender, sequence=sequence, payload=payload)
