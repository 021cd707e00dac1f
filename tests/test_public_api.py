import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import leetoric
from leetoric import cli, interleave, lattice, leecode, toric
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
        (lattice, ["centered", "LeeSphere", "lee_sphere", "lee_distance"]),
        (toric, ["face_count", "FaceIndex", "pair_rank", "pair_from_rank", "face_lin_index"]),
        (leecode, ["check_functional", "_compositions", "MAX_EXHAUSTIVE_N", "MAX_INDEX_N",
                   "MAX_ALIGNED_N"]),
        (interleave, ["check_int64"]),
        (PerfectLeeCode, ["iter_codewords", "codewords_of_weight", "_tile_assign_consistent",
                          "_syndromes"]),
        (InterleavingMap, ["logical_to_physical", "_check_address", "logical_lin_index",
                           "check_int64"]),
        (leecode.generator_matrix(5), ["peel_matrix"]),
        (cli, ["EXIT_USAGE"]),
    ],
    ids=["leetoric", "lattice", "toric", "leecode", "interleave", "PerfectLeeCode",
         "InterleavingMap", "code", "cli"],
)
def test_deleted_names_are_gone(owner, names):
    assert [name for name in names if hasattr(owner, name)] == []


def test_every_name_the_tracer_wraps_resolves():
    # perfbench/tracer.py wraps these by name: read its two tables from the source, run nothing
    tree = ast.parse((Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py").read_text())
    tables = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") in ("HOT", "RECORDED")
    }
    missing = []
    for module, attr in tables["HOT"] + tables["RECORDED"]:
        owner = importlib.import_module(f"leetoric.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{attr}")
    assert tables["HOT"] and tables["RECORDED"]
    assert missing == []


def fresh_python(probe):
    """The run of ``python -c probe`` in a fresh interpreter that imports this package."""
    src = str(Path(leetoric.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)


def test_cli_import_leaves_dataclasses_out():
    # the records are NamedTuples, so no CLI process pays for dataclass code generation
    out = fresh_python("import sys, leetoric.cli; print('dataclasses' in sys.modules)")
    assert (out.returncode, out.stdout) == (0, "False\n"), out.stderr


@pytest.mark.parametrize("probe, loads", [
    ("import leetoric", False),
    ("import leetoric; leetoric.code_params(5); leetoric.interleaved_params(12)", False),
    ("from leetoric import cli; cli.main(['params', '--n', '5', '--format', 'json'])", False),
    ("from leetoric import cli; cli.main(['tables', '--rows', '5,6,7,8', '--format', 'json'])",
     False),
    # an array command does load it, so the probe can fail
    ("from leetoric import cli; cli.main(['verify', '--n', '5'])", True),
], ids=["import", "code_params", "params", "tables", "verify"])
def test_numpy_runs_only_for_the_array_commands(probe, loads):
    # a submodule of numpy is in sys.modules once NumPy's import has run, whether
    # numpy itself is there as a module still to be loaded or not at all
    out = fresh_python(f"import sys; {probe}; "
                       "print(any(m.startswith('numpy.') for m in sys.modules))")
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == str(loads)


@pytest.mark.parametrize("argv, loads", [
    ("params --n 5", []),
    ("tables", []),
    ("simulate --n 5 --model translate --trials 1", ["interleave"]),
    ("export-map --n 5 --format binary --out /dev/null", ["interleave"]),
    # verify runs the check battery, which maps through the interleaver: so the probe can fail
    ("verify --n 5 --mode sampled --samples 1", ["checks", "interleave"]),
], ids=["params", "tables", "simulate", "export-map", "verify"])
def test_each_command_loads_only_the_modules_it_runs(argv, loads):
    out = fresh_python(f"import sys; from leetoric import cli; cli.main({argv.split()!r}); "
                       "print([m for m in ('checks', 'interleave') if 'leetoric.' + m in sys.modules])")
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == str(loads)


def test_the_lazy_root_is_the_same_api():
    # a fresh interpreter, so each name is read before its owner module is loaded
    out = fresh_python(
        "import leetoric\n"
        "star = {}\n"
        "exec('from leetoric import *', star)\n"
        "del star['__builtins__']\n"
        "from leetoric import checks, interleave, leecode, toric\n"
        "owners = [vars(m) for m in (checks, interleave, leecode, toric)]\n"
        "print(sorted(star) == sorted(leetoric.__all__), len(star))\n"
        "print(all(any(k in o for o in owners) for k in star),\n"
        "      all(o.get(k, v) is v for o in owners for k, v in star.items()))\n"
        "print(leetoric.simulate is interleave.simulate, leetoric.interleaved_params\n"
        "      is toric.interleaved_params is interleave.interleaved_params)\n"
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "True 24\nTrue True\nTrue True\n"


def test_an_unknown_root_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'leetoric' has no attribute 'face_from_lin'"):
        leetoric.face_from_lin  # noqa: B018 -- only in leetoric.toric


def test_numpy_loads_before_the_first_timed_check():
    # verify's text report times each check, so NumPy's import (~0.15 s) is paid
    # before the first of them, not in the first check that reads an array
    out = fresh_python(
        "import sys\n"
        "from leetoric import checks\n"
        "first = checks._check_determinant\n"
        "def _check_determinant(*args):\n"
        "    print(any(m.startswith('numpy.') for m in sys.modules))\n"
        "    return first(*args)\n"
        "checks._check_determinant = _check_determinant\n"
        "print(checks.run_verification(5, 'sampled', samples=10)[0].ok)\n"
    )
    assert (out.returncode, out.stdout) == (0, "True\nTrue\n"), out.stderr


def test_import_fails_without_numpy():
    # NumPy loads late, but its absence still shows when the package is imported
    out = fresh_python("import sys; sys.modules['numpy'] = None; import leetoric")
    assert out.returncode == 1
    assert out.stderr.splitlines()[-1].startswith("ModuleNotFoundError:"), out.stderr


RECORD_FIELDS = {
    "BurstPattern": ("model", "faces", "centers"),
    "CheckResult": ("name", "ok", "detail", "elapsed_s"),
    "Codeword": ("point", "section", "rank"),
    "CorrectionReport": ("counts", "success", "witnesses"),
    "GeneratorSet": ("n", "q", "v", "v1", "middle", "v_last"),
    "InterleavedParams": ("n", "q", "length", "dimension", "t_i", "R_i", "G_i"),
    "LogicalAddress": ("section", "rank", "orientation", "position"),
    "MinDistanceResult": ("distance", "witness", "exact"),
    "PackingReport": ("n", "q", "mode", "hypercubes_checked", "spheres_placed",
                      "violation_count", "violations"),
    "SimulationStats": ("n", "q", "model", "trials", "master_seed", "errors_per_trial_max",
                        "uniform_count", "successes", "failures", "success_rate", "max_tally",
                        "mean_tally", "tally_histogram"),
    "StabilizerCheck2D": ("q", "n_edges", "params", "vertex_supports", "face_supports",
                          "all_commute", "odd_overlaps"),
    "ToricParams": ("n", "q", "N", "k", "d", "t", "R", "G"),
}


def made_records():
    """One record of each kind, as the library returns it."""
    code = leetoric.generator_matrix(5)
    map_ = InterleavingMap(code)
    burst = leetoric.make_burst(map_, "translate", 0)
    return [
        leetoric.build_generators(5), code.codeword_from_rank(0, 1), code.min_mannheim_distance(),
        code.verify_perfect_packing("sampled", samples=10), leetoric.code_params(5),
        leetoric.kitaev_2d_stabilizers(3), leetoric.interleaved_params(5),
        map_.logical_from_lin(7), burst, leetoric.deinterleave_and_correct(map_, burst),
        leetoric.simulate(map_, "translate", 2),
        leetoric.run_verification(5, "sampled", samples=10)[0],
    ]


def test_records_keep_their_fields_and_are_immutable():
    records = made_records()
    assert sorted(type(r).__name__ for r in records) == sorted(RECORD_FIELDS)
    for record in records:
        assert type(record)._fields == RECORD_FIELDS[type(record).__name__]
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field))
