"""A tiny module system: ``Parameter`` + ``Module`` with named traversal.

The design intentionally mirrors ``torch.nn.Module`` (the paper's
implementation substrate) but only the inference-relevant subset: parameter
registration via attribute assignment, recursive traversal and parameter
counting.  There is no autograd — Voltage is an inference-only system
(Section V-C of the paper makes this explicit).
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterator

import numpy as np

__all__ = ["Parameter", "Module"]


class Parameter:
    """A named, owned weight tensor.

    Wrapping instead of using bare arrays lets ``Module`` discover weights by
    attribute scan and lets the cluster runtime account for per-device model
    bytes (Voltage replicates full weights on every device; tensor
    parallelism shards them).
    """

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        self.data = np.asarray(data)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    def numel(self) -> int:
        return int(self.data.size)

    def __repr__(self) -> str:
        return f"Parameter(shape={self.data.shape}, dtype={self.data.dtype})"


class Module:
    """Base class for all model components.

    Subclasses assign :class:`Parameter` and ``Module`` instances as
    attributes; both are discovered automatically in assignment order, giving
    deterministic traversal (important for seeded weight initialisation and
    for tensor-parallel sharding, which must agree across devices).
    """

    def __init__(self) -> None:
        self._parameters: OrderedDict[str, Parameter] = OrderedDict()
        self._modules: OrderedDict[str, Module] = OrderedDict()

    def __setattr__(self, name: str, value: object) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    def __delattr__(self, name: str) -> None:
        self._parameters.pop(name, None)
        self._modules.pop(name, None)
        object.__delattr__(self, name)

    # -- traversal ---------------------------------------------------------

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs, depth-first."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> Iterator[Parameter]:
        for _, param in self.named_parameters():
            yield param

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        yield (prefix.rstrip("."), self)
        for name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{name}.")

    def children(self) -> Iterator["Module"]:
        yield from self._modules.values()

    # -- statistics --------------------------------------------------------

    def num_parameters(self) -> int:
        """Total scalar weight count (used in README model tables)."""
        return sum(p.numel() for p in self.parameters())

    def num_bytes(self) -> int:
        """Total weight bytes — the per-device memory cost of replication."""
        return sum(p.nbytes for p in self.parameters())

    # -- call protocol -----------------------------------------------------

    def forward(self, *args, **kwargs):
        raise NotImplementedError(f"{type(self).__name__} must implement forward()")

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:
        child_names = ", ".join(self._modules)
        return f"{type(self).__name__}({child_names})"


class ModuleList(Module):
    """An indexable container of sub-modules (transformer layer stacks)."""

    def __init__(self, modules: list[Module] | None = None):
        super().__init__()
        self._items: list[Module] = []
        for module in modules or []:
            self.append(module)

    def append(self, module: Module) -> None:
        index = len(self._items)
        self._items.append(module)
        setattr(self, str(index), module)

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]


__all__.append("ModuleList")
