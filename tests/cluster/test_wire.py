"""Tests for the wire format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.wire import (
    Frame,
    WireError,
    decode_frame,
    encode_frame,
    frame_overhead_bytes,
)


class TestRoundtrip:
    def test_float32_matrix(self, rng):
        payload = rng.normal(size=(7, 5)).astype(np.float32)
        frame = decode_frame(encode_frame(payload, kind=3, sender=2, sequence=99))
        np.testing.assert_array_equal(frame.payload, payload)
        assert (frame.kind, frame.sender, frame.sequence) == (3, 2, 99)

    @pytest.mark.parametrize("dtype", ["float32", "float64", "int8", "int64", "bool"])
    def test_dtypes(self, rng, dtype):
        payload = (rng.normal(size=(4, 3)) * 10).astype(dtype)
        out = decode_frame(encode_frame(payload)).payload
        np.testing.assert_array_equal(out, payload)
        assert out.dtype == payload.dtype

    def test_scalar_and_empty(self):
        scalar = np.float32(3.5).reshape(())
        np.testing.assert_array_equal(decode_frame(encode_frame(scalar)).payload, scalar)
        empty = np.zeros((0, 4), dtype=np.float32)
        assert decode_frame(encode_frame(empty)).payload.shape == (0, 4)

    def test_non_contiguous_input(self, rng):
        payload = rng.normal(size=(6, 6)).astype(np.float32)[::2, ::2]
        np.testing.assert_array_equal(decode_frame(encode_frame(payload)).payload, payload)

    @given(
        shape=st.lists(st.integers(0, 9), min_size=0, max_size=4),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_roundtrip(self, shape, seed):
        payload = np.random.default_rng(seed).normal(size=tuple(shape)).astype(np.float32)
        out = decode_frame(encode_frame(payload)).payload
        np.testing.assert_array_equal(out, payload)


class TestSizes:
    def test_frame_size_is_overhead_plus_payload(self, rng):
        payload = rng.normal(size=(10, 8)).astype(np.float32)
        encoded = encode_frame(payload)
        assert len(encoded) == frame_overhead_bytes(2) + payload.nbytes

    def test_frame_nbytes_property(self, rng):
        payload = rng.normal(size=(3, 3)).astype(np.float32)
        frame = Frame(kind=0, sender=0, sequence=0, payload=payload)
        assert frame.nbytes == len(encode_frame(payload))

    def test_overhead_is_small(self):
        assert frame_overhead_bytes(2) < 40


class TestValidation:
    def test_bad_magic(self, rng):
        data = bytearray(encode_frame(rng.normal(size=(2,)).astype(np.float32)))
        data[0:4] = b"XXXX"
        with pytest.raises(WireError, match="magic"):
            decode_frame(bytes(data))

    def test_truncated_payload(self, rng):
        data = encode_frame(rng.normal(size=(4, 4)).astype(np.float32))
        with pytest.raises(WireError, match="length"):
            decode_frame(data[:-5])

    def test_truncated_header(self):
        with pytest.raises(WireError, match="short"):
            decode_frame(b"VLTG")

    def test_bad_version(self, rng):
        data = bytearray(encode_frame(rng.normal(size=(2,)).astype(np.float32)))
        data[4] = 9
        with pytest.raises(WireError, match="version"):
            decode_frame(bytes(data))

    def test_metadata_bounds(self, rng):
        payload = rng.normal(size=(2,)).astype(np.float32)
        with pytest.raises(WireError):
            encode_frame(payload, kind=300)
        with pytest.raises(WireError):
            encode_frame(payload, sender=-1)
        with pytest.raises(WireError):
            encode_frame(payload, sequence=2**33)

    def test_rank_limit(self):
        with pytest.raises(WireError, match="rank"):
            encode_frame(np.zeros((1,) * 9, dtype=np.float32))


class TestRuntimeIntegration:
    def test_ring_accounting_includes_framing(self):
        from repro.cluster.runtime import ThreadedRuntime

        runtime = ThreadedRuntime(2)
        payload = np.zeros((5, 4), dtype=np.float32)

        def worker(ctx):
            return ctx.ring_all_gather(payload + ctx.rank)

        results, stats = runtime.run(worker)
        np.testing.assert_array_equal(results[1], np.concatenate([payload, payload + 1]))
        # K = 2: one ring hop, each rank sends its chunk as one frame
        expected = frame_overhead_bytes(2) + payload.nbytes
        assert stats[0].bytes_sent == expected
        assert stats[1].bytes_received == expected
