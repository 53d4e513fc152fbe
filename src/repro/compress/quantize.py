"""Post-training int8 weight quantization (Q8BERT-style, Section VII-A).

The paper argues compression and distribution are orthogonal: "compressed
transformer models ... can also leverage Voltage's distributed inference
system for further acceleration, as long as they retain the core
transformer architecture."  This module provides the compression half so
the claim is testable end-to-end.

We implement *simulated* (fake) quantization — weights are rounded to the
symmetric int8 grid and stored dequantized — which is exactly how PyTorch's
post-training quantization evaluates accuracy on hardware without int8
kernels.  The model keeps its float32 execution path, so every system in
:mod:`repro.systems` runs the quantized model unchanged; the int8 payload
size (4× smaller) is what a real deployment would ship to each device.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.tensor.module import Module

__all__ = ["QuantizedTensor", "QuantReport", "quantize_tensor", "dequantize_tensor", "quantize_model_"]

_INT8_MAX = 127


@dataclass(frozen=True)
class QuantizedTensor:
    """Symmetric per-tensor (or per-column) int8 encoding of a weight."""

    values: np.ndarray  # int8
    scale: np.ndarray   # () for per-tensor, (cols,) for per-channel

    @property
    def nbytes(self) -> int:
        """Wire size of the quantized payload (values + scales)."""
        return self.values.nbytes + np.asarray(self.scale, dtype=np.float32).nbytes


def quantize_tensor(weight: np.ndarray, per_channel: bool = False) -> QuantizedTensor:
    """Symmetric int8 quantization: ``q = round(w / s)``, ``s = max|w|/127``.

    ``per_channel=True`` uses one scale per output column (axis -1) — the
    standard choice for linear-layer weights, with markedly lower error on
    tensors whose columns have different dynamic ranges.
    """
    weight = np.asarray(weight)
    if weight.size == 0:
        raise ValueError("cannot quantize an empty tensor")
    if per_channel and weight.ndim >= 2:
        absmax = np.max(np.abs(weight), axis=tuple(range(weight.ndim - 1)))
    else:
        absmax = np.max(np.abs(weight))
    scale = np.where(absmax > 0, absmax / _INT8_MAX, 1.0).astype(np.float32)
    q = np.clip(np.round(weight / scale), -_INT8_MAX, _INT8_MAX).astype(np.int8)
    return QuantizedTensor(values=q, scale=scale)


def dequantize_tensor(quantized: QuantizedTensor, dtype: str = "float32") -> np.ndarray:
    """Back to float: ``w' = q · s`` (the simulated-quantization weights)."""
    return (quantized.values.astype(dtype) * quantized.scale).astype(dtype)


@dataclass
class QuantReport:
    """What quantizing a model did: sizes, per-parameter error, ratio."""

    original_bytes: int = 0
    quantized_bytes: int = 0
    num_tensors: int = 0
    max_abs_error: float = 0.0
    errors: dict[str, float] = field(default_factory=dict)

    @property
    def compression_ratio(self) -> float:
        return self.original_bytes / self.quantized_bytes if self.quantized_bytes else 0.0


def quantize_model_(
    model: Module,
    per_channel: bool = True,
    skip: tuple[str, ...] = ("ln", "layer_norm", "bias", "cls_token", "position"),
) -> QuantReport:
    """In-place fake-quantize every weight matrix of ``model``.

    Layer norms, biases and embeddings' positional tables are kept in
    float32 (standard practice — they are tiny and precision-sensitive);
    any parameter whose dotted name contains one of ``skip`` is left alone.
    Returns a :class:`QuantReport`; the model keeps working with every
    inference system since only the weight *values* changed.
    """
    report = QuantReport()
    for name, param in model.named_parameters():
        report.original_bytes += param.nbytes
        lowered = name.lower()
        if param.data.ndim < 2 or any(token in lowered for token in skip):
            report.quantized_bytes += param.nbytes
            continue
        quantized = quantize_tensor(param.data, per_channel=per_channel)
        restored = dequantize_tensor(quantized, dtype=str(param.data.dtype))
        error = float(np.max(np.abs(restored - param.data)))
        param.data = restored
        report.quantized_bytes += quantized.nbytes
        report.num_tensors += 1
        report.errors[name] = error
        report.max_abs_error = max(report.max_abs_error, error)
    return report
