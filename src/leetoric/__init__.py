"""Toric quantum codes from perfect Lee-sphere tilings of Z_q^n,
with a burst-spreading qubit interleaver and Monte Carlo certification.
"""

from .leecode import (
    Codeword,
    GeneratorSet,
    MinDistanceResult,
    PackingReport,
    PerfectLeeCode,
    build_generators,
    generator_matrix,
)
from .toric import StabilizerCheck2D, ToricParams, code_params, kitaev_2d_stabilizers
from .interleave import (
    BURST_MODELS,
    BurstPattern,
    InterleavedParams,
    InterleavingMap,
    LogicalAddress,
    SimulationStats,
    deinterleave_and_correct,
    interleaved_params,
    make_burst,
    simulate,
    trial_rng,
)
from .checks import CheckResult, run_verification

__version__ = "0.1.0"

__all__ = [
    "BURST_MODELS",
    "BurstPattern",
    "CheckResult",
    "Codeword",
    "GeneratorSet",
    "InterleavedParams",
    "InterleavingMap",
    "LogicalAddress",
    "MinDistanceResult",
    "PackingReport",
    "PerfectLeeCode",
    "SimulationStats",
    "StabilizerCheck2D",
    "ToricParams",
    "build_generators",
    "code_params",
    "deinterleave_and_correct",
    "generator_matrix",
    "interleaved_params",
    "kitaev_2d_stabilizers",
    "make_burst",
    "run_verification",
    "simulate",
    "trial_rng",
]
