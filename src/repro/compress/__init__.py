"""Model compression, orthogonal to distribution (paper Section VII-A).

:mod:`repro.compress.quantize` — Q8BERT-style simulated int8 weight
quantization (4× smaller replicas, unchanged execution path).  The quantized
model stays a valid input to every system in :mod:`repro.systems`; the
integration tests demonstrate the paper's orthogonality claim (a compressed
model still gains from Voltage, and the gains compose).
"""

from repro.compress.quantize import (
    QuantReport,
    QuantizedTensor,
    dequantize_tensor,
    quantize_model_,
    quantize_tensor,
)

__all__ = [
    "QuantReport",
    "QuantizedTensor",
    "dequantize_tensor",
    "quantize_model_",
    "quantize_tensor",
]
