"""Toric quantum codes from perfect Lee-sphere tilings of Z_q^n,
with a burst-spreading qubit interleaver and Monte Carlo certification.

Each public name is read from its owner submodule, which is imported on the
first read of one of its names (PEP 562), so a command loads only the
submodules it runs.
"""

import importlib

from . import _numpy  # NumPy itself loads late, but a missing NumPy fails this import

__version__ = "0.1.0"

_PUBLIC = {
    "leecode": ("BURST_MODELS", "Codeword", "GeneratorSet", "MinDistanceResult", "PackingReport",
                "PerfectLeeCode", "build_generators", "generator_matrix"),
    "toric": ("InterleavedParams", "StabilizerCheck2D", "ToricParams", "code_params",
              "interleaved_params", "kitaev_2d_stabilizers"),
    "interleave": ("BurstPattern", "InterleavingMap", "LogicalAddress", "SimulationStats",
                   "deinterleave_and_correct", "make_burst", "simulate", "trial_rng"),
    "checks": ("CheckResult", "run_verification"),
}
_OWNER = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = sorted(_OWNER)


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
