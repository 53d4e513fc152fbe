"""A minimal NumPy-backed neural-network inference substrate.

This package replaces PyTorch in the original paper's implementation.  It
provides just enough structure to express transformer models faithfully:

- :class:`~repro.tensor.module.Module` / :class:`~repro.tensor.module.Parameter`
  — a composable module system with named parameter traversal;
- :mod:`repro.tensor.functional` — numerically stable functional ops
  (softmax, layer normalisation, GELU/ReLU, linear, embedding lookup);
- :mod:`repro.tensor.init` — seeded weight initialisers;
- :mod:`repro.tensor.layers` — `Linear`, `LayerNorm`, `Embedding` modules;
- :mod:`repro.tensor.blas` — :func:`rows_matmul`, several single rows against
  one weight matrix streamed once (the accumulate GEMV NumPy does not expose).

Everything operates on ``numpy.ndarray`` in ``float32`` by default, which is
what edge CPU inference uses in practice and what the paper's latency model
assumes (4 bytes/element for communication volume).
"""

from repro.tensor import functional, init
from repro.tensor.blas import rows_matmul
from repro.tensor.layers import Embedding, LayerNorm, Linear
from repro.tensor.module import Module, Parameter
from repro.tensor.workspace import Workspace

DEFAULT_DTYPE = "float32"

__all__ = [
    "DEFAULT_DTYPE",
    "Embedding",
    "LayerNorm",
    "Linear",
    "Module",
    "Parameter",
    "Workspace",
    "functional",
    "init",
    "rows_matmul",
]
