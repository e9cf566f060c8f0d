"""Temporal-adaptive ternary weight quantization for spiking networks."""

from .analysis import (
    E_AC_PJ,
    E_MAC_PJ,
    EnergyReport,
    EntropyReport,
    count_sops,
    energy_hardware,
    energy_total,
    entropy_report,
    firing_rate_stats,
    weight_entropy,
)
from .data import DatasetSpec, build_dataset, gen_temporal_xor, rate_encode
from .errors import ConfigError, DataError, NumericError, ShapeError, TawqError
from .layers import LIF, BatchNorm, LifConfig, Linear, Network, QuantLinear, lif_charge
from .quantizer import (
    QuantConfig,
    QuantizerState,
    compute_scaling,
    normalize_stimulus,
    surrogate_grad,
    tawq_backward,
    tawq_forward,
)
from .runconfig import RunConfig, build_network, load_runconfig, parse_runconfig
from .runtime import (
    PackedTernaryTensor,
    ac_only_matmul,
    fold_network,
    fold_parameters,
    folded_forward,
    pack_ternary,
    unpack_ternary,
)
from .trainer import GradientBundle, TrainConfig, clip_and_step, train

__version__ = "0.1.0"
