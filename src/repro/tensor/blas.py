"""The one BLAS call NumPy does not expose: GEMV that *accumulates* (β = 1).

A decode round multiplies ``B`` single rows against the same weight matrix.
``B`` ``np.matmul`` calls stream the whole 7–9 MB matrix ``B`` times — every
row after the first re-reads it from L3, no faster than DRAM on the reference
box — and stacking the rows into one GEMM changes the summation order, so the
bits (INTERNALS §10).  :func:`rows_matmul` instead walks the matrix *once*, in
contiguous row blocks small enough to stay in L2, and finishes every row on a
block before touching the next: block ``j`` of row ``i`` is
``cblas_sgemv(..., beta = 1 if j else 0)`` — the very routine ``np.matmul``
forwards a 1-row product to, called through :mod:`ctypes` on the OpenBLAS
NumPy has already loaded.  The kernel adds each weight row's contribution
straight into ``y``, so for the right block sizes the blocks replay the whole
call's own summation sequence and the result is bit-identical.

"The right block sizes" is measured, not derived (multiples of 64 rows at
GPT-2's shapes; 16–56 and 100 differ; at K = 1000 so do 64 and 192), so
nothing here assumes it: the first use of each weight shape multiplies a few seeded
rows both ways against the live weight and keeps the accumulate kernel only
if ``np.array_equal`` says so.  Everything that cannot take the kernel — no
OpenBLAS to bind, operands that are not float32 with contiguous rows, a shape
whose probe differs — is served by per-row ``np.matmul``, the call it would
have been anyway, and says so once through :mod:`repro.obs`.
"""

from __future__ import annotations

import ctypes
import functools
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.obs import current_tracer, get_registry

__all__ = [
    "BLOCK_BYTES", "BLOCK_ROWS", "OpenBlas", "bound_blas", "rows_matmul", "rows_matmul_probe",
]

#: A row block is the largest multiple of ``BLOCK_ROWS`` weight rows within
#: ``BLOCK_BYTES`` (at least one multiple): ≈ 512 KiB stays L2-resident while
#: every row of the round reads it, and multiples of 64 rows are the blocks
#: the probe finds bit-equal at GPT-2's shapes.
BLOCK_BYTES = 512 * 1024
BLOCK_ROWS = 64

_ROW_MAJOR, _TRANS = 101, 112  # CblasRowMajor, CblasTrans
#: ``(symbol prefix, symbol suffix, BLAS integer)``: the ILP64 then the LP64
#: spellings of NumPy's bundled (``scipy_``-prefixed) and a system OpenBLAS.
_SYMBOLS = (
    ("scipy_", "64_", ctypes.c_int64),
    ("", "64_", ctypes.c_int64),
    ("scipy_", "", ctypes.c_int),
    ("", "", ctypes.c_int),
)
#: Scales of the probe's seeded rows (the magnitudes hidden states take).
_PROBE_SCALES = (1.0, 1e-3, 50.0)


@dataclass
class OpenBlas:
    """The OpenBLAS NumPy loaded, bound for :func:`rows_matmul`."""

    path: str
    config: str  #: ``openblas_get_config()``
    threads: int  #: ``openblas_get_num_threads()`` at bind time
    sgemv: object = field(repr=False)  #: the bound ``cblas_sgemv``
    #: ``(K, N, lda) -> does the blocked accumulate equal np.matmul`` per probed shape
    verdicts: dict[tuple[int, int, int], bool] = field(default_factory=dict, repr=False)


@functools.cache
def _bound() -> OpenBlas | str:
    """Bind ``cblas_sgemv`` of the OpenBLAS mapped into this process, or say
    why not — once per process.  The library is found the way the e2e
    harness's thread guard finds it: NumPy has loaded it, so it is in
    ``/proc/self/maps``."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line})
    except OSError:
        paths = []
    for path in paths:
        library = ctypes.CDLL(path)
        for prefix, suffix, blas_int in _SYMBOLS:
            sgemv = getattr(library, f"{prefix}cblas_sgemv{suffix}", None)
            get_config = getattr(library, f"{prefix}openblas_get_config{suffix}", None)
            get_threads = getattr(library, f"{prefix}openblas_get_num_threads{suffix}", None)
            if sgemv is None or get_config is None or get_threads is None:
                continue
            sgemv.restype = None
            sgemv.argtypes = [
                ctypes.c_int, ctypes.c_int, blas_int, blas_int,  # order, trans, M, N
                ctypes.c_float, ctypes.c_void_p, blas_int,  # alpha, A, lda
                ctypes.c_void_p, blas_int,  # x, incx
                ctypes.c_float, ctypes.c_void_p, blas_int,  # beta, y, incy
            ]
            get_config.restype, get_config.argtypes = ctypes.c_char_p, []
            get_threads.restype, get_threads.argtypes = ctypes.c_int, []
            return OpenBlas(path, get_config().decode().strip(), get_threads(), sgemv)
    return "no cblas_sgemv symbol in the mapped OpenBLAS" if paths else "no OpenBLAS mapped"


def bound_blas() -> OpenBlas | None:
    """The process's bound OpenBLAS (bound on first use), None if there is none."""
    blas = _bound()
    return blas if isinstance(blas, OpenBlas) else None


def _block_rows(width: int) -> int:
    return max(BLOCK_ROWS, BLOCK_BYTES // (4 * width) // BLOCK_ROWS * BLOCK_ROWS)


def _accumulate(sgemv, xs: Sequence[np.ndarray], weight: np.ndarray) -> list[np.ndarray]:
    """``x @ weight`` for float32 ``(1, K)`` rows: one walk over ``weight``'s
    row blocks, every row accumulated on a block before the next is read."""
    depth, width = weight.shape
    lda = weight.strides[0] // 4
    outs = [np.empty((1, width), dtype=np.float32) for _ in xs]
    base = weight.ctypes.data
    pointers = [(x.ctypes.data, out.ctypes.data) for x, out in zip(xs, outs)]
    block = _block_rows(width)
    for start in range(0, depth, block):
        rows, beta = min(block, depth - start), float(start > 0)
        panel = base + 4 * lda * start
        for x, out in pointers:
            sgemv(_ROW_MAJOR, _TRANS, rows, width, 1.0, panel, lda, x + 4 * start, 1, beta, out, 1)
    return outs


def _unsupported(xs: Sequence[np.ndarray], weight: np.ndarray) -> str | None:
    """Why these operands cannot go through ``cblas_sgemv`` as they lie in
    memory (None if they can)."""
    if weight.dtype != np.float32 or any(x.dtype != np.float32 for x in xs):
        return "operands are not float32"
    if weight.ndim != 2 or 0 in weight.shape or any(x.shape != (1, weight.shape[0]) for x in xs):
        return "operands are not (1, K) rows against a (K, N) weight"
    row_stride, column_stride = weight.strides
    if column_stride != 4 or row_stride % 4 or row_stride < 4 * weight.shape[1]:
        return "weight rows are not contiguous"
    if any(x.strides[1] != 4 for x in xs):
        return "rows are not contiguous"
    return None


def _probe(blas: OpenBlas, weight: np.ndarray) -> bool:
    """Does the blocked accumulate reproduce ``np.matmul`` on this weight's
    shape?  A few seeded rows against the live weight — no copy of it (a NaN
    the weight holds must not count as a difference: the verdict outlives it)."""
    rng = np.random.default_rng(weight.shape)
    rows = [
        (scale * rng.standard_normal((1, weight.shape[0]))).astype(np.float32)
        for scale in _PROBE_SCALES
    ]
    blocked = _accumulate(blas.sgemv, rows, weight)
    return all(
        np.array_equal(y, np.matmul(x, weight), equal_nan=True) for x, y in zip(rows, blocked)
    )


def _kernel(xs: Sequence[np.ndarray], weight: np.ndarray) -> OpenBlas | str:
    """The library whose accumulate kernel may serve these rows, or the
    reason they take per-row ``np.matmul``."""
    blas = _bound()
    if isinstance(blas, str):
        return blas
    reason = _unsupported(xs, weight)
    if reason is not None:
        return reason
    key = (*weight.shape, weight.strides[0] // 4)
    if key not in blas.verdicts:
        blas.verdicts[key] = _probe(blas, weight)
    if not blas.verdicts[key]:
        return "blocked accumulate differs from np.matmul at (K, N, lda) = {}".format(key)
    return blas


def _report_disabled(reason: str) -> None:
    """One ``tensor.rows_matmul_disabled`` event per reason and registry."""
    seen = get_registry().counter("tensor.rows_matmul_disabled", reason=reason)
    if not seen.value:
        seen.inc()
        with current_tracer().span("tensor.rows_matmul_disabled", cat="tensor", reason=reason):
            pass


def rows_matmul(xs: Sequence[np.ndarray], weight: np.ndarray) -> list[np.ndarray]:
    """``[np.matmul(x, weight) for x in xs]``, bit for bit, streaming
    ``weight`` from memory once for all the rows instead of once per row.

    Two or more float32 ``(1, K)`` rows against a float32 ``(K, N)`` weight
    with contiguous rows (a column view — ``lda ≠ N`` — qualifies) take the
    L2-blocked accumulate GEMV, once the shape's probe has shown it equal
    to ``np.matmul``; anything else, and a lone row (for which the blocked
    walk is the slower one), is literally the ``np.matmul`` calls.  Counted
    per row in ``tensor.rows_matmul_rows_total{kernel=accumulate|matmul}``.
    """
    rows_total = get_registry().counter
    if len(xs) >= 2:
        blas = _kernel(xs, weight)
        if isinstance(blas, OpenBlas):
            rows_total("tensor.rows_matmul_rows_total", kernel="accumulate").inc(len(xs))
            return _accumulate(blas.sgemv, xs, weight)
        _report_disabled(blas)
    rows_total("tensor.rows_matmul_rows_total", kernel="matmul").inc(len(xs))
    return [np.matmul(x, weight) for x in xs]


def rows_matmul_probe(weight: np.ndarray) -> str:
    """The verdict :func:`rows_matmul` reaches for two rows against
    ``weight``, in words (for reports); probes the shape if nobody has yet."""
    verdict = _kernel([np.zeros((1, weight.shape[0]), dtype=weight.dtype)] * 2, weight)
    return verdict if isinstance(verdict, str) else "accumulate kernel, bit-equal to np.matmul"
