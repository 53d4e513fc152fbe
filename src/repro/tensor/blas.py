"""Several single rows against one weight matrix, one stream of it, in the
summation order of the BLAS ``np.matmul`` forwards a single row to.

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
``K ≤ 48`` as one group of all K.  The system ``cc`` compiles it at the
first multi-row call into a private cache directory; later processes on the
same compiler and CPU load that file.

That order is measured, not derived (bit-equal at every GPT-2, BERT and
canary shape and every K below 120; columns past the last multiple of 16
differ), so nothing here assumes it: the first use of each weight shape
multiplies a few seeded rows both ways against the live weight and keeps the
kernel only if ``np.array_equal`` says so.  Everything that cannot take the
kernel — no compiler or no library, operands that are not float32 with
contiguous rows, a shape whose probe differs — is served by per-row
``np.matmul``, the call it would have been anyway, and says so once through
:mod:`repro.obs`.
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

__all__ = ["kernel_library", "rows_matmul", "rows_matmul_probe"]

_SOURCE = r"""
#include <math.h>
#include <stddef.h>

#define STRIP 256

/* Weight rows k .. k+g-1 against columns [n0, n1) of every row's output:
   t = x[k] w[k][n], then t = fma(x[k+j], w[k+j][n], t), then y[n] += t. */
static inline __attribute__((always_inline)) void group(
    int g, ptrdiff_t rows, ptrdiff_t k, ptrdiff_t n0, ptrdiff_t n1, const float *w,
    ptrdiff_t lda, const float *const *xs, float *const *ys)
{
    const float *c = w + k * lda;
    for (ptrdiff_t r = 0; r < rows; r++) {
        const float *x = xs[r] + k;
        float *restrict y = ys[r];
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
            group(g, rows, k, n0, n0 + STRIP < width ? n0 + STRIP : width, w, lda, xs, ys)

void rows_matmul(ptrdiff_t rows, ptrdiff_t depth, ptrdiff_t width, const float *w,
                 ptrdiff_t lda, const float *const *xs, float *const *ys)
{
    for (ptrdiff_t r = 0; r < rows; r++)
        for (ptrdiff_t n = 0; n < width; n++)
            ys[r][n] = 0.0f;
    ptrdiff_t k = 0;
    if (depth <= 48)
        GROUPS(depth); /* a short K is one chain */
    GROUPS(8);
    GROUPS(4);
    GROUPS(2);
    GROUPS(1);
}
"""
#: No contraction but the explicit ``fmaf``s: the order is the source's.
_FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-shared", "-fPIC")
#: Scales of the probe's seeded rows (the magnitudes hidden states take).
_PROBE_SCALES = (1.0, 1e-3, 50.0)


@dataclass
class Kernel:
    """The compiled kernel, loaded into this process."""

    path: str
    function: object = field(repr=False)
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
    return os.path.join(_cache_dir(), f"rows_matmul-{digest.hexdigest()[:16]}.so")


def _build(compiler: str, path: str) -> None:
    """Compile the kernel to ``path``: built beside it, then renamed into
    place, so a concurrent loader sees the old file or the whole new one."""
    with tempfile.TemporaryDirectory(dir=os.path.dirname(path)) as scratch:
        source, built = os.path.join(scratch, "rows_matmul.c"), os.path.join(scratch, "lib.so")
        with open(source, "w") as out:
            out.write(_SOURCE)
        subprocess.run(
            [compiler, *_FLAGS, "-o", built, source], capture_output=True, check=True, timeout=120
        )
        os.replace(built, path)


def _open(path: str) -> Kernel:
    function = ctypes.CDLL(path).rows_matmul  # a CDLL call releases the GIL
    function.restype = None
    function.argtypes = [
        ctypes.c_ssize_t, ctypes.c_ssize_t, ctypes.c_ssize_t,  # rows, K, N
        ctypes.c_void_p, ctypes.c_ssize_t,  # weight, lda
        ctypes.c_void_p, ctypes.c_void_p,  # row pointers, output pointers
    ]
    return Kernel(path, function)


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
    """``x @ weight`` for float32 ``(1, K)`` rows, one pass over ``weight``."""
    outs = [np.empty((1, weight.shape[1]), dtype=np.float32) for _ in xs]
    pointers = ctypes.c_void_p * len(xs)
    kernel.function(
        len(xs), *weight.shape, weight.ctypes.data, weight.strides[0] // 4,
        pointers(*(x.ctypes.data for x in xs)), pointers(*(out.ctypes.data for out in outs)),
    )
    return outs


def _unsupported(xs: Sequence[np.ndarray], weight: np.ndarray) -> str | None:
    """Why these operands cannot go through the kernel as they lie in memory
    (None if they can)."""
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
        _report_disabled(kernel)
    rows_total("tensor.rows_matmul_rows_total", kernel="matmul").inc(len(xs))
    return [np.matmul(x, weight) for x in xs]


def rows_matmul_probe(weight: np.ndarray) -> str:
    """The verdict :func:`rows_matmul` reaches for two rows against
    ``weight``, in words (for reports); probes the shape if nobody has yet."""
    verdict = _kernel([np.zeros((1, weight.shape[0]), dtype=weight.dtype)] * 2, weight)
    return verdict if isinstance(verdict, str) else "accumulate kernel, bit-equal to np.matmul"
