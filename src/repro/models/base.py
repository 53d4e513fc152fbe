"""The common model interface consumed by every inference system.

Fig. 3 of the paper splits a model into three stages:

1. **pre-processing** on the terminal device (embeddings / patching),
2. a stack of **transformer layers** distributed across computing devices,
3. **post-processing** on the terminal device (pooling / classification /
   LM head).

:class:`TransformerModel` encodes exactly that decomposition so that the
systems in :mod:`repro.systems` (single-device, Voltage, tensor parallelism)
can run *any* of the three evaluation models through one generic code path.
"""

from __future__ import annotations

import numpy as np

from repro.models.config import TransformerConfig
from repro.models.layer import TransformerLayer
from repro.tensor.module import Module, ModuleList

__all__ = ["TransformerModel"]


class TransformerModel(Module):
    """Base class: embeddings → transformer stack → task head."""

    def __init__(self, config: TransformerConfig, rng: np.random.Generator | None = None):
        super().__init__()
        self.config = config
        rng = rng if rng is not None else np.random.default_rng(0)
        self.layers = ModuleList(
            [TransformerLayer(config, rng=rng) for _ in range(config.num_layers)]
        )

    # -- stages -------------------------------------------------------------

    def preprocess(self, raw) -> np.ndarray:
        """Raw task input → ``(N, F)`` transformer input features (Fig. 3 stage 1)."""
        raise NotImplementedError

    def encode(self, x: np.ndarray) -> np.ndarray:
        """Run the full transformer stack sequentially (stage 2, single device)."""
        for layer in self.layers:
            x = layer(x)
        return self.final_norm(x)

    def final_norm(self, x: np.ndarray) -> np.ndarray:
        """Hook for the trailing layer norm of pre-LN models (GPT-2/ViT)."""
        return x

    def postprocess(self, hidden: np.ndarray) -> np.ndarray:
        """``(N, F)`` final hidden states → task output (stage 3)."""
        raise NotImplementedError

    def forward(self, raw) -> np.ndarray:
        """End-to-end single-device inference."""
        return self.postprocess(self.encode(self.preprocess(raw)))

    # -- metadata used by the systems/simulator ------------------------------

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def sequence_length(self, raw) -> int:
        """Token count a raw input will occupy (drives partition planning)."""
        return self.preprocess(raw).shape[0]

    def preprocess_flops(self, n: int) -> int:
        """Matmul FLOPs of stage 1 on the terminal (0 for pure lookups)."""
        return 0

    def postprocess_flops(self, n: int) -> int:
        """Matmul FLOPs of stage 3 on the terminal."""
        return 0
