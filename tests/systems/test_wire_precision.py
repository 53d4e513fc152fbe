"""Tests for compressed activation exchange (wire precision) in Voltage."""

import numpy as np
import pytest

from repro.bench import figures
from repro.systems import VoltageSystem


class TestWirePrecisionCorrectness:
    @pytest.mark.parametrize("wire_dtype,atol", [("float16", 0.05), ("int8", 0.25)])
    def test_outputs_close_but_not_identical(self, bert, cluster4, token_ids, wire_dtype, atol):
        exact = bert(token_ids)
        result = VoltageSystem(bert, cluster4, wire_dtype=wire_dtype).run(token_ids)
        assert not np.array_equal(result.output, exact)  # compression is real
        np.testing.assert_allclose(result.output, exact, atol=atol)

    def test_float32_remains_exact(self, bert, cluster4, token_ids):
        result = VoltageSystem(bert, cluster4, wire_dtype="float32").run(token_ids)
        np.testing.assert_allclose(result.output, bert(token_ids), atol=1e-4)

    @pytest.mark.parametrize("wire_dtype", ["float16", "int8"])
    def test_prediction_usually_survives_compression(self, bert, cluster4, wire_dtype):
        """Argmax agreement across several inputs — the compression is tame
        enough for classification."""
        system = VoltageSystem(bert, cluster4, wire_dtype=wire_dtype)
        agree = 0
        for seed in range(6):
            rng = np.random.default_rng(seed)
            ids = rng.integers(5, bert.config.vocab_size, size=20)
            if int(np.argmax(system.run(ids).output)) == int(np.argmax(bert(ids))):
                agree += 1
        assert agree >= 5

    def test_unknown_dtype_rejected(self, bert, cluster4):
        with pytest.raises(ValueError, match="wire_dtype"):
            VoltageSystem(bert, cluster4, wire_dtype="float8")


class TestThreadedWireEquivalence:
    """Regression: the worker loop used to skip ``_encode_for_wire`` entirely,
    so threaded `execute_distributed` silently exchanged full-precision activations and
    diverged from `run()` for float16/int8."""

    @pytest.mark.parametrize("wire_dtype", ["float32", "float16", "int8"])
    def test_threaded_bit_identical_to_simulated(self, bert, cluster4, token_ids, wire_dtype):
        system = VoltageSystem(bert, cluster4, wire_dtype=wire_dtype)
        simulated = system.run(token_ids).output
        threaded, _ = system.execute_distributed(token_ids)
        np.testing.assert_array_equal(threaded, simulated)

    def test_threaded_compression_actually_lossy(self, bert, cluster4, token_ids):
        threaded, _ = VoltageSystem(
            bert, cluster4, wire_dtype="int8"
        ).execute_distributed(token_ids)
        assert not np.array_equal(threaded, bert(token_ids))


class TestWirePrecisionLatency:
    def test_comm_time_scales_with_itemsize(self, bert, cluster4, token_ids):
        def comm_s(dtype):
            result = VoltageSystem(bert, cluster4, wire_dtype=dtype).run(token_ids)
            # exclude the (float32) input broadcast
            return sum(
                p.seconds for p in result.latency.phases
                if p.kind == "comm" and "broadcast" not in p.name
            )

        fp32, fp16, int8 = comm_s("float32"), comm_s("float16"), comm_s("int8")
        assert int8 < fp16 < fp32

    def test_meta_records_wire_dtype(self, bert, cluster4, token_ids):
        result = VoltageSystem(bert, cluster4, wire_dtype="float16").run(token_ids)
        assert result.meta["wire_dtype"] == "float16"
        assert result.meta["allgather_bytes_per_device"] > 0

    def test_comm_bytes_halved_for_fp16(self, bert, cluster4, token_ids):
        fp32 = VoltageSystem(bert, cluster4).run(token_ids)
        fp16 = VoltageSystem(bert, cluster4, wire_dtype="float16").run(token_ids)
        ratio = fp16.meta["allgather_bytes_per_device"] / fp32.meta[
            "allgather_bytes_per_device"
        ]
        assert ratio == pytest.approx(0.5)


class TestCommPrecisionFigure:
    @pytest.fixture(scope="class")
    def fig(self):
        return figures.ablation_comm_precision(bandwidths=(100, 500, 1000))

    def test_lower_precision_is_faster_everywhere(self, fig):
        fp32 = fig.series_by_label("float32 (paper)")
        fp16 = fig.series_by_label("float16")
        int8 = fig.series_by_label("int8")
        for bandwidth in fp32.xs:
            assert int8.y_at(bandwidth) < fp16.y_at(bandwidth) < fp32.y_at(bandwidth)

    def test_compression_extends_viable_bandwidth_range(self, fig):
        """At 100 Mbps float32 Voltage loses to single device; int8 wins —
        compression widens the regime where distribution pays off."""
        single = fig.series_by_label("Single Device")
        assert fig.series_by_label("float32 (paper)").y_at(100) > single.y_at(100)
        assert fig.series_by_label("int8").y_at(100) < single.y_at(100)
