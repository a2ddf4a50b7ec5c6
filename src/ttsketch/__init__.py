"""Tensor-train decomposition with deterministic and randomized sweeps.

The package provides the train format itself (:mod:`ttsketch.tt`), the
deterministic and randomized decomposition routines
(:mod:`ttsketch.decompose`), an alternating least squares half-sweep
(:mod:`ttsketch.als`), seeded tensor generators
(:mod:`ttsketch.generators`), and the experiment driver behind the
``ttsketch`` command (:mod:`ttsketch.experiments`).
"""

from .als import als_half_sweep
from .decompose import (
    DecompositionReport,
    compute_eta,
    randomized_tt_svd,
    relative_error,
    success_probability,
    tt_svd_exact,
    tt_svd_truncated,
)
from .generators import (
    gaussian_dense,
    gaussian_sparse,
    noisy_low_rank,
    random_tt,
    random_tt_decay,
)
from .rng import RngStream
from .tensor import SparseTensor
from .tt import (
    TTTensor,
    clip_ranks,
    orthogonalize_right,
    tt_evaluate,
    tt_norm,
    tt_round,
    zero_tt,
)

__version__ = "0.1.0"

__all__ = [
    "DecompositionReport",
    "RngStream",
    "SparseTensor",
    "TTTensor",
    "als_half_sweep",
    "clip_ranks",
    "compute_eta",
    "gaussian_dense",
    "gaussian_sparse",
    "noisy_low_rank",
    "orthogonalize_right",
    "random_tt",
    "random_tt_decay",
    "randomized_tt_svd",
    "relative_error",
    "success_probability",
    "tt_evaluate",
    "tt_norm",
    "tt_round",
    "tt_svd_exact",
    "tt_svd_truncated",
    "zero_tt",
    "__version__",
]
