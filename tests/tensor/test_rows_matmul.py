"""``rows_matmul``: B rows against one weight, one stream of it (INTERNALS §10).

The contract is ``np.array_equal`` to per-row ``np.matmul`` for *any*
operands: the C kernel serves float32 rows once the shape's probe has shown
it bit-equal, everything else is the ``np.matmul`` calls themselves.  Which
kernel ran is read from the counters.  The kernel sums in the order of
OpenBLAS's SkylakeX ``sgemv_n``, so only on an AVX-512 CPU do these tests
require the kernel to serve the model shapes; elsewhere they require equal
rows whatever the probe says — the slow canary at the bottom is the one that
notices such a box got no faster.
"""

import functools
import os
import shutil

import numpy as np
import pytest

from repro import obs
from repro.cluster.process_runtime import ProcessRuntime
from repro.models.attention import MultiHeadSelfAttention
from repro.tensor import blas
from repro.tensor.blas import rows_matmul, rows_matmul_probe

from ..models.test_packed_rows import _child

ROW_COUNTS = (2, 3, 4, 7, 8, 9)
#: fused QKV, W_O, FC1, FC2 at GPT-2 width
GPT2_SHAPES = ((768, 2304), (768, 768), (768, 3072), (3072, 768))
#: the same four at the canary's width and at BERT-Large's
CANARY_SHAPES = ((128, 384), (128, 128), (128, 512), (512, 128))
BERT_LARGE_SHAPES = ((1024, 3072), (1024, 1024), (1024, 4096), (4096, 1024))
#: (K, N): depths whose K % 8 remainder takes the 4-, 2- and 1-row groups,
#: short depths (one chain), widths past the last multiple of 16 (whose edge
#: columns OpenBLAS sums in another order, so the probe rejects them on the
#: reference box) and a lone column — whichever verdict, the rows stay equal
TINY_SHAPES = (
    (32, 96), (48, 48), (130, 70), (200, 2304), (1000, 2304), (1, 5), (300, 4096),
    (130, 256), (131, 256), (135, 256), (5, 64), (256, 24), (256, 40), (256, 200),
)
#: The kernel's order is that of OpenBLAS's SkylakeX core, the one NumPy's
#: OpenBLAS picks on an AVX-512 CPU.
SKYLAKEX = os.path.exists("/proc/cpuinfo") and "avx512f" in blas._cpu_flags().split()


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


def kernel_expected() -> bool:
    """Must the kernel serve the model shapes here?"""
    return SKYLAKEX and isinstance(blas._loaded(), blas.Kernel)


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
        """The four layer matrices of the benchmark's model, of the canary and
        of BERT-Large, several cohort sizes, fused-storage column views and
        scaled rows, on the benchmark's pool: served by the kernel wherever
        its order is OpenBLAS's, and the counters name the kernel the probe
        announced."""
        report = _child("""
            import json, sys
            import numpy as np
            sys.path[:0] = [*sys.argv[1:], sys.argv[1] + "/../.."]  # + the repo root
            from tests.tensor.test_rows_matmul import (
                BERT_LARGE_SHAPES, CANARY_SHAPES, GPT2_SHAPES, ROW_COUNTS, counted,
                equal_per_row, kernel_expected, rows_of, weight_of,
            )
            from repro import obs
            from repro.tensor.blas import rows_matmul_probe
            report = {"equal": {}, "verdicts": [], "expected": kernel_expected()}
            registry = obs.MetricsRegistry()
            with obs.use_registry(registry):
                for depth, width in GPT2_SHAPES + CANARY_SHAPES + BERT_LARGE_SHAPES:
                    weight = weight_of(depth, width)
                    report["verdicts"].append(rows_matmul_probe(weight))
                    counts = ROW_COUNTS if depth * width < 3e6 else (2, 4)
                    report["equal"][f"{depth}x{width}"] = all(
                        equal_per_row(rows_of(count, depth, seed=count, scale=scale), weight)
                        for count in counts for scale in (1.0, 1e-3, 50.0)
                    )
                fused = weight_of(768, 2304)
                report["equal"]["column views"] = all(
                    equal_per_row(rows_of(4, 768, scale=scale), fused[:, lo:lo + 768])
                    for lo in (0, 768, 1536) for scale in (1.0, 1e-3, 50.0)
                )
            report.update(counted(registry))
            print(json.dumps(report))
        """, threads=1, timeout=600)
        assert all(report["equal"].values()), report
        accumulated = [verdict.startswith("accumulate kernel") for verdict in report["verdicts"]]
        assert ("accumulate" in report["rows"]) == any(accumulated), report
        assert bool(report["disabled"]) == (not all(accumulated)), report
        if report["expected"]:
            assert "matmul" not in report["rows"] and not report["disabled"], report


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
        weight = weight_of(72, 32)
        weight[3, 5] = np.nan
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            got = rows_matmul(rows_of(2, 72), weight)  # this shape's first use
        assert all(np.array_equal(y, x @ weight, equal_nan=True) for x, y in zip(rows_of(2, 72), got))
        assert "differs" not in rows_matmul_probe(weight_of(72, 32))
        if kernel_expected():
            assert counted(registry)["rows"] == {"accumulate": 2}

    def test_without_a_binding_every_row_is_matmul_and_it_says_so_once(self, monkeypatch):
        monkeypatch.setattr(blas, "_loaded", lambda: "patched away")
        assert blas.kernel_library() == "patched away"
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
        """A kernel whose order is not the library's: the probe catches it on
        the first use of the shape, every result stays ``np.matmul``'s, and
        the verdict is remembered per shape."""
        kernel = blas._loaded()
        if not isinstance(kernel, blas.Kernel):
            pytest.skip(kernel)
        calls = []

        def lossy(rows, depth, width, weight, lda, xs, ys):
            calls.append(rows)
            kernel.function(rows, depth - 1, width, weight, lda, xs, ys)  # drops the last k

        fake = blas.Kernel("fake", lossy)
        monkeypatch.setattr(blas, "_loaded", lambda: fake)
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            for _ in range(2):
                assert equal_per_row(rows_of(2, 96), weight_of(96, 48))
        assert calls == [len(blas._PROBE_SCALES)]  # probed once, never used again
        assert counted(registry)["rows"] == {"matmul": 4}
        (reason,) = counted(registry)["disabled"]
        assert "differs from np.matmul at (K, N, lda) = (96, 48, 48)" in reason


class TestBuild:
    """The kernel library is cached per source, flags, compiler and CPU,
    rebuilt over garbage, and every way of not having one is a reason,
    never an exception."""

    def test_garbage_at_the_cached_path_is_rebuilt(self, tmp_path, monkeypatch):
        compiler = shutil.which("cc")
        if compiler is None:
            pytest.skip("no C compiler")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        path = blas._library_path(compiler)
        assert os.path.dirname(path) == str(tmp_path / "repro")
        assert os.stat(tmp_path / "repro").st_mode & 0o777 == 0o700
        with open(path, "wb") as garbage:
            garbage.write(b"not a shared library")
        kernel = blas._loaded.__wrapped__()
        assert isinstance(kernel, blas.Kernel) and kernel.path == path, kernel
        with open(path, "rb") as library:
            assert library.read(4) == b"\x7fELF"
        assert os.listdir(tmp_path / "repro") == [os.path.basename(path)]
        xs, weight = rows_of(3, 64), weight_of(64, 64)
        equal = [np.array_equal(y, x @ weight) for x, y in zip(xs, blas._call(kernel, xs, weight))]
        assert all(equal) or not SKYLAKEX

    @pytest.mark.parametrize("cc", [None, "exit 3"], ids=["no cc", "failing cc"])
    def test_without_a_working_cc_rows_are_matmul_with_one_reason(self, cc, tmp_path, monkeypatch):
        """``PATH`` holds no ``cc``, or one that reports a version and then
        fails every build."""
        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        if cc is not None:
            (bin_dir / "cc").write_text(
                f'#!/bin/sh\n[ "$1" = --version ] && echo "cc 0.0" && exit 0\n{cc}\n'
            )
            (bin_dir / "cc").chmod(0o755)
        monkeypatch.setenv("PATH", str(bin_dir))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        monkeypatch.setattr(blas, "_loaded", functools.cache(blas._loaded.__wrapped__))
        registry, tracer = obs.MetricsRegistry(), obs.Tracer()
        with obs.use_registry(registry), obs.use_tracer(tracer):
            for _ in range(3):
                assert equal_per_row(rows_of(4, 64), weight_of(64, 64))
        reason = "no C compiler (cc) on PATH" if cc is None else "cc exited with status 3"
        assert counted(registry) == {
            "rows": {"matmul": 12},
            "disabled": [f"tensor.rows_matmul_disabled{{reason={reason}}}"],
        }
        assert [span.args["reason"] for span in tracer.spans] == [reason]
        assert blas.kernel_library() == reason

    def test_a_forked_rank_uses_its_parents_library(self, monkeypatch):
        kernel = blas._loaded()
        if not isinstance(kernel, blas.Kernel):
            pytest.skip(kernel)
        served = rows_matmul_probe(weight_of(64, 64)).startswith("accumulate")

        def rebuilt(*args):
            raise AssertionError("a rank looked for the library again")

        monkeypatch.setattr(blas, "_library_path", rebuilt)
        monkeypatch.setattr(blas, "_build", rebuilt)

        def rank(ctx):
            registry = obs.MetricsRegistry()
            with obs.use_registry(registry):
                equal = equal_per_row(rows_of(3, 64, seed=ctx.rank), weight_of(64, 64))
            return blas.kernel_library(), equal, counted(registry)["rows"]

        results, _ = ProcessRuntime(2, timeout=30).run(rank)
        kind = "accumulate" if served else "matmul"
        assert results == [(kernel.path, True, {kind: 3})] * 2


@pytest.mark.slow
def test_accumulate_kernel_beats_per_row_matmul_at_gpt2_width():
    """B = 4 rows against a > 200 MB cyclic set of GPT-2 layer matrices — no
    matrix is in any cache when its turn comes, as in a serving round.
    Healthy is ≈ 2× (30 → 15 ms per four layers on the reference box); a
    BLAS whose order the probe rejects, or a box without ``cc``, reads
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
