"""Quantized neural network case study (Section 9)."""

from repro.nn.inference import QnnInferenceModel, table7_configurations
from repro.nn.layers import conv2d, dense, max_pool2d, relu
from repro.nn.lenet import LeNet5, LeNetLayer
from repro.nn.mnist import synthetic_mnist
from repro.nn.quantization import dequantize, quantize_tensor

__all__ = [
    "QnnInferenceModel",
    "table7_configurations",
    "conv2d",
    "dense",
    "max_pool2d",
    "relu",
    "LeNet5",
    "LeNetLayer",
    "synthetic_mnist",
    "dequantize",
    "quantize_tensor",
]
