"""One small C library, two functions: several single rows against one
weight matrix in ``np.matmul``'s own summation order (:func:`rows_matmul`),
and the argmax head's screen of the tied table (:func:`screen_top2`) — each
a single stream of a matrix that per-row NumPy calls would read once per row.

A decode round multiplies ``B`` single rows against the same weight matrix.
``B`` ``np.matmul`` calls stream the whole 7–9 MB matrix ``B`` times — every
row after the first re-reads it from L3, no faster than DRAM on the reference
box — and stacking the rows into one GEMM changes the summation order, so the
bits (INTERNALS §10).  :func:`rows_matmul` instead hands all the rows to one
small C kernel (``_SOURCE``) that walks the matrix once and, per output
element, sums in the order of OpenBLAS's SkylakeX ``sgemv_n``, the routine
``np.matmul`` runs for a ``(1, K)`` row on the reference build: weight rows
in groups of 8 (a product, then seven ``fmaf``), each group's sum added to
``y``, the ``K % 8`` remainder as one group each of 4, 2 and 1 — and a
``K ≤ 48`` as one group of all K.

That order is measured, not derived (bit-equal at every GPT-2, BERT and
canary shape and every K below 120; columns past the last multiple of 16
differ), so nothing here assumes it: the first use of each weight shape
multiplies a few seeded rows both ways against the live weight and keeps the
kernel only if ``np.array_equal`` says so.  Everything that cannot take the
kernel — no compiler or no library, operands that are not float32 ``(1, K)``
rows against a weight with contiguous rows, a shape whose probe differs — is
served by per-row ``np.matmul``, the call it would have been anyway, and says
so once through :mod:`repro.obs`.

:func:`screen_top2` is bit-equal to nothing and needs no probe: it walks the
table once in register tiles (four hidden rows against a few table rows,
prefetching ahead) and keeps each hidden row's two largest dot products, in
whatever order the tile sums them, fused or not.  Its caller,
``GPT2Model.head_argmax``, certifies a row only when the margin beats an
error bound that holds for any order (INTERNALS §9).

The system ``cc`` compiles the library at the first call that wants it into
a private cache directory; later processes on the same compiler and CPU load
that file.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.obs import current_tracer, get_registry

__all__ = ["kernel_library", "rows_matmul", "rows_matmul_probe", "screen_top2"]

_SOURCE = r"""
#include <math.h>
#include <stddef.h>
#include <stdint.h>

#define STRIP 256

/* Weight rows k .. k+g-1 against columns [n0, n1) of every row's output:
   t = x[k] w[k][n], then t = fma(x[k+j], w[k+j][n], t), then y[n] += t.
   Row r of the input is xs + r * depth, of the output ys + r * width. */
static inline __attribute__((always_inline)) void group(
    int g, ptrdiff_t rows, ptrdiff_t depth, ptrdiff_t width, ptrdiff_t k, ptrdiff_t n0,
    ptrdiff_t n1, const float *w, ptrdiff_t lda, const float *xs, float *ys)
{
    const float *c = w + k * lda;
    for (ptrdiff_t r = 0; r < rows; r++) {
        const float *x = xs + r * depth + k;
        float *restrict y = ys + r * width;
        for (ptrdiff_t n = n0; n < n1; n++) {
            float t = x[0] * c[n];
            for (int j = 1; j < g; j++)
                t = fmaf(x[j], c[j * lda + n], t);
            y[n] += t;
        }
    }
}

/* Groups of g weight rows while they fit, each streamed once for all rows. */
#define GROUPS(g)                                                       \
    for (; k + g <= depth; k += g)                                      \
        for (ptrdiff_t n0 = 0; n0 < width; n0 += STRIP)                 \
            group(g, rows, depth, width, k, n0,                         \
                  n0 + STRIP < width ? n0 + STRIP : width, w, lda, xs, ys)

void rows_matmul(ptrdiff_t rows, ptrdiff_t depth, ptrdiff_t width, const float *w,
                 ptrdiff_t lda, const float *xs, float *ys)
{
    for (ptrdiff_t n = 0; n < rows * width; n++)
        ys[n] = 0.0f;
    ptrdiff_t k = 0;
    if (depth <= 48)
        GROUPS(depth); /* a short K is one chain */
    GROUPS(8);
    GROUPS(4);
    GROUPS(2);
    GROUPS(1);
}

/* screen_top2: GROUP hidden rows against TILE table rows per register tile,
   LANES columns at a time; every accumulator stays in a register. */
#ifdef __AVX512F__
#define LANES 16
#define TILE 4
#else
#define LANES 8
#define TILE 2
#endif
#define GROUP 4
#define AHEAD (4 * TILE) /* table rows prefetched ahead of the tile */

typedef float vec __attribute__((vector_size(4 * LANES)));
typedef float vec8 __attribute__((vector_size(32)));
typedef float vec4 __attribute__((vector_size(16)));

static inline __attribute__((always_inline)) vec load(const float *p)
{
    vec v;
    __builtin_memcpy(&v, p, sizeof v);
    return v;
}

/* The lanes of v summed as a tree: halves, then quarters, ... */
static inline __attribute__((always_inline)) float lane_sum(vec v)
{
    vec8 lo, hi;
    __builtin_memcpy(&lo, &v, sizeof lo);
#if LANES == 16
    __builtin_memcpy(&hi, (const char *)&v + sizeof lo, sizeof hi);
    lo += hi;
#endif
    vec4 a, b;
    __builtin_memcpy(&a, &lo, sizeof a);
    __builtin_memcpy(&b, (const char *)&lo + sizeof a, sizeof b);
    a += b;
    return (a[0] + a[2]) + (a[1] + a[3]);
}

/* The screen only needs each dot product within an any-order error bound,
   so here, and only here, products may fuse into their sums. */
#pragma GCC push_options
#pragma GCC optimize("fp-contract=fast")

/* One walk over the table's vocab rows (row j at table + j * ldt) for the
   rows of hidden (row r at hidden + r * width): per hidden row, the largest
   dot product, its lowest index (only a strictly greater one replaces it, as
   in np.argmax) and the largest at any other index.  A tile or group that
   runs past the last row repeats that row, and records nothing for it. */
void screen_top2(ptrdiff_t rows, ptrdiff_t vocab, ptrdiff_t width, const float *table,
                 ptrdiff_t ldt, const float *hidden, float *best, float *second,
                 int64_t *index)
{
    for (ptrdiff_t r = 0; r < rows; r++) {
        best[r] = second[r] = -INFINITY;
        index[r] = 0;
    }
    ptrdiff_t body = width - width % LANES;
    for (ptrdiff_t j = 0; j < vocab; j += TILE) {
        const float *e[TILE];
        for (int t = 0; t < TILE; t++)
            e[t] = table + (j + t < vocab ? j + t : vocab - 1) * ldt;
        const float *ahead = table + (j + AHEAD + TILE <= vocab ? j + AHEAD : j) * ldt;
        for (ptrdiff_t g = 0; g < rows; g += GROUP) {
            const float *h[GROUP];
            for (int i = 0; i < GROUP; i++)
                h[i] = hidden + (g + i < rows ? g + i : rows - 1) * width;
            vec acc[GROUP][TILE] = {{{0}}};
            for (ptrdiff_t k = 0; k < body; k += LANES) {
                if (g == 0)
                    for (int t = 0; t < TILE; t++)
                        __builtin_prefetch(ahead + t * ldt + k);
                vec x[GROUP], w[TILE];
                for (int t = 0; t < TILE; t++)
                    w[t] = load(e[t] + k);
                for (int i = 0; i < GROUP; i++)
                    x[i] = load(h[i] + k);
                for (int i = 0; i < GROUP; i++)
                    for (int t = 0; t < TILE; t++)
                        acc[i][t] += x[i] * w[t];
            }
            for (int i = 0; i < GROUP && g + i < rows; i++) {
                ptrdiff_t r = g + i;
                for (int t = 0; t < TILE && j + t < vocab; t++) {
                    float v = lane_sum(acc[i][t]);
                    for (ptrdiff_t k = body; k < width; k++)
                        v += h[i][k] * e[t][k];
                    if (v > best[r]) {
                        second[r] = best[r];
                        best[r] = v;
                        index[r] = j + t;
                    } else if (v > second[r]) {
                        second[r] = v;
                    }
                }
            }
        }
    }
}

#pragma GCC pop_options
"""
#: No contraction but the explicit ``fmaf``s (and the screen's own pragma):
#: ``rows_matmul``'s order is the source's.
_FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-shared", "-fPIC")
#: Scales of the probe's seeded rows (the magnitudes hidden states take).
_PROBE_SCALES = (1.0, 1e-3, 50.0)
_FLOAT32 = np.dtype(np.float32)


@dataclass
class Kernel:
    """The compiled library, loaded into this process: ``function`` is
    ``rows_matmul``, ``screen`` is ``screen_top2``."""

    path: str
    function: object = field(repr=False)
    screen: object = field(default=None, repr=False)
    #: ``(K, N, lda) -> does the kernel equal np.matmul`` per probed shape
    verdicts: dict[tuple[int, int, int], bool] = field(default_factory=dict, repr=False)


def _cache_dir() -> str:
    """``$XDG_CACHE_HOME/repro`` (else ``~/.cache/repro``), or a per-user one
    in the temp dir: the first that is, or can be made, a directory only this
    user can write (it holds code this process will load)."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    for directory in (os.path.join(base, "repro"),
                      os.path.join(tempfile.gettempdir(), f"repro-{os.getuid()}")):
        try:
            os.makedirs(directory, mode=0o700, exist_ok=True)
            status = os.stat(directory)
        except OSError:
            continue
        if status.st_uid == os.getuid() and not status.st_mode & 0o077:
            return directory
    raise OSError("no private cache directory")


def _cpu_flags() -> str:
    """The CPU's feature flags (``-march=native`` builds for them).  Without
    ``/proc/cpuinfo`` this raises, and the process gets no kernel rather
    than one cached for another CPU."""
    with open("/proc/cpuinfo") as info:
        return next((line for line in info if line.startswith(("flags", "Features"))), "")


def _library_path(compiler: str) -> str:
    """Where the library built by ``compiler`` for this CPU lives: the name
    hashes everything the bytes depend on."""
    version = subprocess.run(
        [compiler, "--version"], capture_output=True, text=True, check=True, timeout=60
    ).stdout
    digest = hashlib.sha256("\0".join((_SOURCE, *_FLAGS, version, _cpu_flags())).encode())
    return os.path.join(_cache_dir(), f"kernels-{digest.hexdigest()[:16]}.so")


def _build(compiler: str, path: str) -> None:
    """Compile the library to ``path``: built beside it, then renamed into
    place, so a concurrent loader sees the old file or the whole new one."""
    with tempfile.TemporaryDirectory(dir=os.path.dirname(path)) as scratch:
        source, built = os.path.join(scratch, "kernels.c"), os.path.join(scratch, "lib.so")
        with open(source, "w") as out:
            out.write(_SOURCE)
        subprocess.run(
            [compiler, *_FLAGS, "-o", built, source], capture_output=True, check=True, timeout=120
        )
        os.replace(built, path)


def _open(path: str) -> Kernel:
    library = ctypes.CDLL(path)  # a CDLL call releases the GIL
    size, address = ctypes.c_ssize_t, ctypes.c_void_p
    function, screen = library.rows_matmul, library.screen_top2
    function.restype = screen.restype = None
    # rows, K, N, weight, lda, (rows, K) input, (rows, N) output
    function.argtypes = [size, size, size, address, size, address, address]
    # rows, vocab, F, table, ldt, (rows, F) hidden, best, second, index
    screen.argtypes = [size, size, size, address, size, address, address, address, address]
    return Kernel(path, function, screen)


@functools.cache
def _loaded() -> Kernel | str:
    """The kernel, built if no usable library is cached, or why there is
    none — once per process (a forked rank inherits its parent's)."""
    compiler = shutil.which("cc")
    if compiler is None:
        return "no C compiler (cc) on PATH"
    try:
        path = _library_path(compiler)
        if os.path.exists(path):
            try:
                return _open(path)
            except (OSError, AttributeError):
                pass  # not a loadable kernel: build over it
        _build(compiler, path)
        return _open(path)
    except subprocess.CalledProcessError as error:
        return f"cc exited with status {error.returncode}"
    except (OSError, AttributeError, subprocess.SubprocessError) as error:
        return f"kernel library unavailable: {error}"


def kernel_library() -> str:
    """The loaded kernel's path (built on first use), or the reason there is
    none."""
    kernel = _loaded()
    return kernel.path if isinstance(kernel, Kernel) else kernel


def _call(kernel: Kernel, xs: Sequence[np.ndarray], weight: np.ndarray) -> list[np.ndarray]:
    """``x @ weight`` for float32 ``(1, K)`` rows, one pass over ``weight``:
    the rows are copied into one block and the products written into
    another, so the kernel is handed three addresses, not one per row."""
    x = np.concatenate(xs)
    y = np.empty((len(xs), 1, weight.shape[1]), dtype=np.float32)
    kernel.function(
        len(xs), *weight.shape, _address(weight), weight.strides[0] // 4, _address(x), _address(y)
    )
    return list(y)


def _address(array: np.ndarray) -> int:
    """Where ``array``'s first element lies: through the buffer protocol when
    it is writable and contiguous (a third of the cost of
    ``array.ctypes.data``, which a read-only or strided view still takes)."""
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(array))
    except (TypeError, BufferError):
        return array.ctypes.data


def _unsupported(xs: Sequence[np.ndarray], weight: np.ndarray) -> str | None:
    """Why these operands cannot go through the kernel as they lie in memory
    (None if they can)."""
    if weight.dtype != _FLOAT32:
        return "operands are not float32"
    if weight.ndim != 2 or 0 in weight.shape:
        return "operands are not (1, K) rows against a (K, N) weight"
    row = (1, weight.shape[0])
    for x in xs:  # a plain loop: this runs for every shared matrix of a pass
        if x.dtype != _FLOAT32:
            return "operands are not float32"
        if x.shape != row:
            return "operands are not (1, K) rows against a (K, N) weight"
    return _strided_rows(weight)


def _strided_rows(matrix: np.ndarray) -> str | None:
    """Why the kernels cannot address ``matrix``'s rows as ``base + i·ld``
    float32s (None if they can)."""
    row_stride, column_stride = matrix.strides
    if column_stride != 4 or row_stride % 4 or row_stride < 4 * matrix.shape[1]:
        return "weight rows are not contiguous"
    return None


def _probe(kernel: Kernel, weight: np.ndarray) -> bool:
    """Does the kernel reproduce ``np.matmul`` on this weight's shape?  A few
    seeded rows against the live weight — no copy of it (a NaN the weight
    holds must not count as a difference: the verdict outlives it)."""
    rng = np.random.default_rng(weight.shape)
    rows = [
        (scale * rng.standard_normal((1, weight.shape[0]))).astype(np.float32)
        for scale in _PROBE_SCALES
    ]
    return all(
        np.array_equal(y, np.matmul(x, weight), equal_nan=True)
        for x, y in zip(rows, _call(kernel, rows, weight))
    )


def _kernel(xs: Sequence[np.ndarray], weight: np.ndarray) -> Kernel | str:
    """The kernel that may serve these rows, or the reason they take per-row
    ``np.matmul``."""
    reason = _unsupported(xs, weight)
    if reason is not None:
        return reason
    kernel = _loaded()
    if isinstance(kernel, str):
        return kernel
    key = (*weight.shape, weight.strides[0] // 4)
    if key not in kernel.verdicts:
        kernel.verdicts[key] = _probe(kernel, weight)
    if not kernel.verdicts[key]:
        return "kernel differs from np.matmul at (K, N, lda) = {}".format(key)
    return kernel


def _report_disabled(function: str, reason: str) -> None:
    """One ``tensor.<function>_disabled`` event per reason and registry."""
    name = f"tensor.{function}_disabled"
    seen = get_registry().counter(name, reason=reason)
    if not seen.value:
        seen.inc()
        with current_tracer().span(name, cat="tensor", reason=reason):
            pass


def rows_matmul(xs: Sequence[np.ndarray], weight: np.ndarray) -> list[np.ndarray]:
    """``[np.matmul(x, weight) for x in xs]``, bit for bit, streaming
    ``weight`` from memory once for all the rows instead of once per row.

    Two or more float32 ``(1, K)`` rows against a float32 ``(K, N)`` weight
    with contiguous rows (a column view — ``lda ≠ N`` — qualifies) take the
    C kernel, once the shape's probe has shown it equal to ``np.matmul``;
    anything else, and a lone row (for which ``np.matmul`` is the faster
    walk), is literally the ``np.matmul`` calls.  Counted per row in
    ``tensor.rows_matmul_rows_total{kernel=accumulate|matmul}``.
    """
    rows_total = get_registry().counter
    if len(xs) >= 2:
        kernel = _kernel(xs, weight)
        if isinstance(kernel, Kernel):
            rows_total("tensor.rows_matmul_rows_total", kernel="accumulate").inc(len(xs))
            return _call(kernel, xs, weight)
        _report_disabled("rows_matmul", kernel)
    rows_total("tensor.rows_matmul_rows_total", kernel="matmul").inc(len(xs))
    return [np.matmul(x, weight) for x in xs]


def rows_matmul_probe(weight: np.ndarray) -> str:
    """The verdict :func:`rows_matmul` reaches for two rows against
    ``weight``, in words (for reports); probes the shape if nobody has yet."""
    verdict = _kernel([np.zeros((1, weight.shape[0]), dtype=weight.dtype)] * 2, weight)
    return verdict if isinstance(verdict, str) else "accumulate kernel, bit-equal to np.matmul"


def screen_top2(hidden: np.ndarray, table: np.ndarray) -> tuple[np.ndarray, ...] | None:
    """``(best, second, index)`` for the float32 rows ``h`` of ``hidden``
    ``(B, F)`` against the rows ``e_j`` of ``table`` ``(V, F)``, from one
    walk of ``table``: the largest screened ``h·e_j``, the lowest ``j`` that
    reaches it, and the largest screened ``h·e_j`` at any other ``j`` (equal
    to ``best`` on a tie).  A screened product is a float32 dot product in
    the kernel's own order, fused or not — within ``γ_F·‖h‖₂·‖e_j‖₂`` of the
    exact one, bit-equal to no NumPy product.  ``None`` when the kernel
    cannot serve the operands, after one ``tensor.screen_top2_disabled``
    event naming why."""
    if hidden.dtype != _FLOAT32 or table.dtype != _FLOAT32:
        reason = "operands are not float32"
    elif table.ndim != 2 or 0 in table.shape or hidden.shape[1:] != table.shape[1:]:
        reason = "operands are not (B, F) rows against a (V, F) table"
    else:
        reason = _strided_rows(table)
    kernel = _loaded() if reason is None else reason
    if isinstance(kernel, str):
        _report_disabled("screen_top2", kernel)
        return None
    hidden = np.ascontiguousarray(hidden)
    top_two = np.empty((2, len(hidden)), dtype=np.float32)
    index = np.empty(len(hidden), dtype=np.int64)
    kernel.screen(
        len(hidden), *table.shape, table.ctypes.data, table.strides[0] // 4, hidden.ctypes.data,
        top_two[0].ctypes.data, top_two[1].ctypes.data, index.ctypes.data,
    )
    return top_two[0], top_two[1], index
