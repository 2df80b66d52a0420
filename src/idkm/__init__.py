"""Codebook weight quantization trained through a differentiable clustering
solve, with implicit, Jacobian-free, and unrolled gradient backends."""

from .errors import (
    AdjointDivergence,
    AdjointSingular,
    AdjointStalled,
    ConfigError,
    FormatError,
    IdkmError,
    NumericsError,
    ParamError,
    ShapeError,
)
from .gradients import (
    GradBackend,
    jacobians_of_F,
    vjp_dC_dW,
    vjp_through_trace,
)
from .nn import LayerSpec, Network, loss_and_grad, softmax_cross_entropy, squared_error
from .pq import (
    Codebook,
    SoftAssignment,
    WeightMatrix,
    bits_per_weight,
    flatten_weights,
    hard_quantize,
    nearest_indices,
    partition_weights,
    soft_quantize,
    soft_quantize_vjp,
)
from .solver import (
    FixedPointResult,
    InitStrategy,
    fixed_point_map_F,
    init_codebook,
    solve_fixed_point,
)
from .training import (
    StepMetrics,
    TrainConfig,
    TrainState,
    evaluate,
    quantize_weights,
    quantized_train_step,
    solve_codebooks,
    train,
    train_float,
)

__version__ = "0.1.0"

__all__ = [
    "AdjointDivergence",
    "AdjointSingular",
    "AdjointStalled",
    "Codebook",
    "ConfigError",
    "FixedPointResult",
    "FormatError",
    "GradBackend",
    "IdkmError",
    "InitStrategy",
    "LayerSpec",
    "Network",
    "NumericsError",
    "ParamError",
    "ShapeError",
    "SoftAssignment",
    "StepMetrics",
    "TrainConfig",
    "TrainState",
    "WeightMatrix",
    "bits_per_weight",
    "evaluate",
    "fixed_point_map_F",
    "flatten_weights",
    "hard_quantize",
    "init_codebook",
    "jacobians_of_F",
    "loss_and_grad",
    "nearest_indices",
    "partition_weights",
    "quantize_weights",
    "quantized_train_step",
    "soft_quantize",
    "soft_quantize_vjp",
    "softmax_cross_entropy",
    "solve_codebooks",
    "solve_fixed_point",
    "squared_error",
    "train",
    "train_float",
    "vjp_dC_dW",
    "vjp_through_trace",
]
