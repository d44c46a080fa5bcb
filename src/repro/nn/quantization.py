"""Weight and activation quantization for low-bit-width networks.

The Table 7 case study evaluates LeNet-5 quantized to 1 and 4 bits.  We use
symmetric uniform quantization: a tensor is scaled into the signed integer
range of the target bit width and rounded; 1-bit quantization degenerates
to the sign function (binary networks).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["QuantizedTensor", "quantize_tensor", "dequantize"]


@dataclass(frozen=True)
class QuantizedTensor:
    """An integer tensor plus the scale that maps it back to real values."""

    values: np.ndarray
    scale: float
    bits: int

    @property
    def num_elements(self) -> int:
        """Number of quantized values."""
        return int(np.prod(self.values.shape))


def _check_bits(bits: int) -> None:
    if bits < 1 or bits > 16:
        raise ConfigurationError(f"quantization width {bits} outside [1, 16]")


def quantize_tensor(tensor: np.ndarray, bits: int) -> QuantizedTensor:
    """Symmetric uniform quantization of a real tensor.

    For ``bits == 1`` the result is the sign of each value in {-1, +1}
    scaled by the tensor's mean magnitude (the standard BNN formulation).
    """
    _check_bits(bits)
    tensor = np.asarray(tensor, dtype=np.float64)
    if bits == 1:
        scale = float(np.mean(np.abs(tensor))) or 1.0
        values = np.where(tensor >= 0, 1, -1).astype(np.int64)
        return QuantizedTensor(values=values, scale=scale, bits=1)
    max_magnitude = float(np.max(np.abs(tensor))) or 1.0
    levels = (1 << (bits - 1)) - 1
    scale = max_magnitude / levels
    values = np.clip(np.round(tensor / scale), -levels - 1, levels).astype(np.int64)
    return QuantizedTensor(values=values, scale=scale, bits=bits)


def dequantize(tensor: QuantizedTensor) -> np.ndarray:
    """Map a quantized tensor back to real values."""
    return tensor.values.astype(np.float64) * tensor.scale
