import pytest

import leetoric
from leetoric import lattice, toric
from leetoric.interleave import InterleavingMap
from leetoric.leecode import PerfectLeeCode

PUBLIC = {
    # types
    "BURST_MODELS", "BurstPattern", "CheckResult", "Codeword", "GeneratorSet", "InterleavedParams", "InterleavingMap", "LogicalAddress",
    "MinDistanceResult", "PackingReport", "PerfectLeeCode", "SimulationStats",
    "StabilizerCheck2D", "ToricParams",
    # functions
    "build_generators", "code_params", "deinterleave_and_correct", "generator_matrix", "interleaved_params", "kitaev_2d_stabilizers", "make_burst",
    "run_verification", "simulate", "trial_rng",
}


def test_root_exports_exactly_the_public_names():
    assert len(leetoric.__all__) == len(PUBLIC) == 24
    assert set(leetoric.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(leetoric, name) is not None


@pytest.mark.parametrize(
    "owner, names",
    [
        (leetoric, ["centered", "LeeSphere", "lee_sphere", "face_count", "TileAssignment",
                    "FaceIndex", "determinant"]),
        (lattice, ["centered", "LeeSphere", "lee_sphere"]),
        (toric, ["face_count", "FaceIndex", "pair_rank", "pair_from_rank", "face_lin_index"]),
        (PerfectLeeCode, ["iter_codewords", "codewords_of_weight", "_tile_assign_consistent"]),
        (InterleavingMap, ["logical_to_physical", "_check_address", "logical_lin_index"]),
    ],
    ids=["leetoric", "lattice", "toric", "PerfectLeeCode", "InterleavingMap"],
)
def test_deleted_names_are_gone(owner, names):
    assert [name for name in names if hasattr(owner, name)] == []
