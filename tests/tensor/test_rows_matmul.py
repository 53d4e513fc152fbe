"""``rows_matmul``: B rows against one weight, one stream of it (INTERNALS §10).

The contract is ``np.array_equal`` to per-row ``np.matmul`` for *any*
operands: the L2-blocked accumulate GEMV serves float32 rows once the
shape's probe has shown it bit-equal, everything else is the ``np.matmul``
calls themselves.  Which kernel ran is read from the counters, so these
tests pass on a BLAS where the probe says no — the slow canary at the bottom
is the one that notices such a box got no faster.
"""

import numpy as np
import pytest

from repro import obs
from repro.models.attention import MultiHeadSelfAttention
from repro.tensor import blas
from repro.tensor.blas import rows_matmul, rows_matmul_probe

from ..models.test_packed_rows import _child

ROW_COUNTS = (2, 3, 4, 7, 8, 9)
#: fused QKV, W_O, FC1, FC2 at GPT-2 width
GPT2_SHAPES = ((768, 2304), (768, 768), (768, 3072), (3072, 768))
#: (K, N): one block, several blocks with a short last one, and depths that
#: are not multiples of 64 under 64-row blocks — K = 200 read *differing* in
#: the issue's sweep and K = 1000 does on the reference box, so these run the
#: real library's probe both ways; whichever verdict, the rows stay equal
TINY_SHAPES = ((32, 96), (48, 48), (130, 70), (200, 2304), (1000, 2304), (1, 5), (300, 4096))


def rows_of(count, depth, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return [(scale * rng.standard_normal((1, depth))).astype(np.float32) for _ in range(count)]


def weight_of(depth, width, seed=1):
    return np.random.default_rng(seed).standard_normal((depth, width)).astype(np.float32)


def equal_per_row(xs, weight) -> bool:
    got = rows_matmul(xs, weight)
    want = [np.matmul(x, weight) for x in xs]
    return len(got) == len(want) and all(
        a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
        for a, b in zip(got, want)
    )


def counted(registry) -> dict:
    """``{kernel: rows}`` and the disabled reasons a registry saw."""
    snapshot = registry.snapshot()
    prefix = "tensor.rows_matmul_rows_total{kernel="
    rows = {k[len(prefix):-1]: int(v["value"]) for k, v in snapshot.items() if k.startswith(prefix)}
    reasons = [k for k in snapshot if k.startswith("tensor.rows_matmul_disabled")]
    return {"rows": rows, "disabled": reasons}


class TestEqualsPerRowMatmul:
    @pytest.mark.parametrize("count", ROW_COUNTS)
    @pytest.mark.parametrize("depth,width", TINY_SHAPES)
    def test_tiny_widths(self, count, depth, width):
        assert equal_per_row(rows_of(count, depth, seed=count), weight_of(depth, width))

    @pytest.mark.parametrize("scale", [1e-3, 50.0])
    def test_scaled_rows(self, scale):
        assert equal_per_row(rows_of(4, 200, scale=scale), weight_of(200, 2304))
        assert equal_per_row(rows_of(4, 192, scale=scale), weight_of(192, 1024))

    def test_column_views_of_the_fused_qkv_storage(self):
        """``query.weight.data`` is columns ``[0, W)`` of the ``(F, 3W)``
        fused buffer: rows contiguous, ``lda = 3W ≠ N``."""
        mha = MultiHeadSelfAttention(192, 4, rng=np.random.default_rng(5))
        for linear in (mha.query, mha.key, mha.value):
            view = linear.weight.data
            assert view.strides[0] == 4 * 3 * 192 and not view.flags.c_contiguous
            assert equal_per_row(rows_of(3, 192), view)
        assert equal_per_row(rows_of(3, 192), mha.fused_qkv()[0])

    def test_a_lone_row_and_no_rows(self):
        weight = weight_of(64, 32)
        assert equal_per_row(rows_of(1, 64), weight)
        assert rows_matmul([], weight) == []

    def test_gpt2_shapes_on_one_blas_thread(self):
        """The four layer matrices of the benchmark's model, every cohort
        size, fused-storage column views and scaled rows, on the
        benchmark's pool — and the kernel the counters name must be the one
        the probe announced."""
        report = _child("""
            import json, sys
            import numpy as np
            sys.path[:0] = [*sys.argv[1:], sys.argv[1] + "/../.."]  # + the repo root
            from tests.tensor.test_rows_matmul import (
                GPT2_SHAPES, ROW_COUNTS, counted, equal_per_row, rows_of, weight_of,
            )
            from repro import obs
            from repro.tensor.blas import rows_matmul_probe
            report = {"equal": {}, "verdicts": []}
            registry = obs.MetricsRegistry()
            with obs.use_registry(registry):
                for depth, width in GPT2_SHAPES:
                    weight = weight_of(depth, width)
                    report["verdicts"].append(rows_matmul_probe(weight))
                    report["equal"][f"{depth}x{width}"] = all(
                        equal_per_row(rows_of(count, depth, seed=count, scale=scale), weight)
                        for count in ROW_COUNTS for scale in (1.0, 1e-3, 50.0)
                    )
                fused = weight_of(768, 2304)
                report["equal"]["column views"] = all(
                    equal_per_row(rows_of(4, 768), fused[:, lo:lo + 768]) for lo in (0, 768, 1536)
                )
            report.update(counted(registry))
            print(json.dumps(report))
        """, threads=1, timeout=600)
        assert all(report["equal"].values()), report
        accumulated = [verdict.startswith("accumulate kernel") for verdict in report["verdicts"]]
        assert ("accumulate" in report["rows"]) == any(accumulated), report
        assert bool(report["disabled"]) == (not all(accumulated)), report


class TestFallback:
    @pytest.mark.parametrize(
        "row_dtype,weight_dtype",
        [(np.float64, np.float64), (np.float16, np.float16), (np.float32, np.float64),
         (np.float64, np.float32)],
    )
    def test_other_dtypes_are_the_matmul_calls(self, row_dtype, weight_dtype):
        xs = [x.astype(row_dtype) for x in rows_of(3, 96)]
        weight = weight_of(96, 40).astype(weight_dtype)
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            assert equal_per_row(xs, weight)
        assert counted(registry)["rows"] == {"matmul": 3}

    def test_non_contiguous_operands_are_the_matmul_calls(self):
        weight = weight_of(96, 40)
        strided_rows = [x[:, ::2] for x in rows_of(3, 192)]
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            assert equal_per_row(strided_rows, weight)  # incx = 2
            assert equal_per_row(rows_of(3, 40), weight.T)  # column-major weight
            assert equal_per_row(rows_of(3, 96), weight_of(96, 80)[:, ::2])  # strided columns
            assert equal_per_row([x[0] for x in rows_of(3, 96)], weight)  # (K,) vectors
        assert counted(registry)["rows"] == {"matmul": 12}

    def test_a_nan_in_the_weight_does_not_poison_the_shapes_verdict(self):
        weight = weight_of(72, 24)
        weight[3, 5] = np.nan
        got = rows_matmul(rows_of(2, 72), weight)
        assert all(np.array_equal(y, x @ weight, equal_nan=True) for x, y in zip(rows_of(2, 72), got))
        assert "differs" not in rows_matmul_probe(weight_of(72, 24))  # this shape's first use

    def test_without_a_binding_every_row_is_matmul_and_it_says_so_once(self, monkeypatch):
        monkeypatch.setattr(blas, "_bound", lambda: "patched away")
        assert blas.bound_blas() is None
        registry, tracer = obs.MetricsRegistry(), obs.Tracer()
        with obs.use_registry(registry), obs.use_tracer(tracer):
            for _ in range(3):
                assert equal_per_row(rows_of(4, 64), weight_of(64, 64))
        assert counted(registry) == {
            "rows": {"matmul": 12},
            "disabled": ["tensor.rows_matmul_disabled{reason=patched away}"],
        }
        assert registry.counter("tensor.rows_matmul_disabled", reason="patched away").value == 1
        assert [span.args["reason"] for span in tracer.spans] == ["patched away"]

    def test_a_shape_whose_probe_differs_is_matmul(self, monkeypatch):
        """A library whose blocks do not replay the whole call: the probe
        catches it on the first use of the shape, every result stays
        ``np.matmul``'s, and the verdict is remembered per shape."""
        bound = blas.bound_blas()
        if bound is None:
            pytest.skip("no OpenBLAS to bind on this platform")
        calls = []

        def lossy(order, trans, rows, width, alpha, a, lda, x, incx, beta, y, incy):
            calls.append(rows)
            bound.sgemv(order, trans, rows, width, alpha * 1.0001, a, lda, x, incx, beta, y, incy)

        fake = blas.OpenBlas("fake", "fake", 1, lossy)
        monkeypatch.setattr(blas, "_bound", lambda: fake)
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            for _ in range(2):
                assert equal_per_row(rows_of(2, 96), weight_of(96, 40))
        assert len(calls) == len(blas._PROBE_SCALES)  # probed once, never used again
        assert counted(registry)["rows"] == {"matmul": 4}
        (reason,) = counted(registry)["disabled"]
        assert "differs from np.matmul at (K, N, lda) = (96, 40, 40)" in reason


def test_block_rows_are_multiples_of_64_near_half_a_megabyte():
    assert [blas._block_rows(width) for width in (768, 2304, 3072)] == [128, 64, 64]
    assert blas._block_rows(32) == 4096 and blas._block_rows(10**6) == 64
    for width in (1, 100, 768, 5000):
        assert blas._block_rows(width) % blas.BLOCK_ROWS == 0


@pytest.mark.slow
def test_accumulate_kernel_beats_per_row_matmul_at_gpt2_width():
    """B = 4 rows against a > 200 MB cyclic set of GPT-2 layer matrices — no
    matrix is in any cache when its turn comes, as in a serving round.
    Healthy is 1.35–1.5× (27.9 → 19.2 ms per four layers on the reference
    box); a BLAS the probe rejects, or whose L2 does not hold a block, reads
    ≈ 1.0× with every result still right.  Fastest of five alternating
    sweeps a side: a neighbour on the box only ever adds time."""
    times = _child("""
        import json, sys, time
        import numpy as np
        sys.path[:0] = [*sys.argv[1:], sys.argv[1] + "/../.."]  # + the repo root
        from repro.tensor.blas import rows_matmul
        from tests.tensor.test_rows_matmul import GPT2_SHAPES, rows_of
        rng = np.random.default_rng(0)
        weights = []
        while sum(w.nbytes for w in weights) < 220e6:
            weights += [rng.standard_normal(shape, dtype=np.float32) for shape in GPT2_SHAPES]
        xs = {depth: rows_of(4, depth) for depth in (768, 3072)}
        times = {"rows_matmul": [], "matmul": []}
        for _ in range(5):
            start = time.perf_counter()
            for w in weights:
                rows_matmul(xs[w.shape[0]], w)
            times["rows_matmul"].append(time.perf_counter() - start)
            start = time.perf_counter()
            for w in weights:
                [np.matmul(x, w) for x in xs[w.shape[0]]]
            times["matmul"].append(time.perf_counter() - start)
        print(json.dumps(times))
    """, threads=1, timeout=600)
    speedup = min(times["matmul"]) / min(times["rows_matmul"])
    assert speedup >= 1.2, times
