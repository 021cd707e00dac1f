"""Workload definitions and output checks for the leetoric benchmark.

A workload is a fixed list of CLI commands.  Every command's output is
checked here; a command counts as failed when its exit code is not the
expected one or when a check below finds a problem.  The checks hold for
any seed; golden transcripts are compared only where the output cannot
depend on the seed (params, tables) or when the seed is the default 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).resolve().parent / "golden"
DEFAULT_SEED = 0

CHECK_NAMES = (
    "determinant",
    "orthogonality",
    "residue_coverage",
    "chain_membership",
    "codeword_bijection",
    "min_distance",
    "section_distance",
    "packing",
    "roundtrip",
    "section_confinement",
)
SIMULATE_KEYS = {
    "n", "q", "model", "trials", "master_seed", "errors_per_trial_max",
    "uniform_count", "successes", "failures", "success_rate", "max_tally",
    "mean_tally", "tally_histogram",
}
VERIFY_KEYS = {"n", "q", "mode", "samples", "seed", "checks", "all_ok"}
VERIFY_DEFAULT_SAMPLES = 10**6
EXPORT_SCALAR_SAMPLES = 200


@dataclass(frozen=True)
class Spec:
    """One CLI command of a workload, with what its output must satisfy.

    ``metric`` names the workload-specific end-to-end figure derived from
    the command's wall time (trials/s, rows/s or seconds).
    """

    label: str
    kind: str
    n: int = 5
    model: str | None = None
    trials: int | None = None
    count: int | None = None
    mode: str | None = None
    fmt: str | None = None
    metric: str | None = None


SETUP = Spec("params", "params")

# Trial counts keep each simulate command under a second on a 2-vCPU x86
# VM, so a 40 s run times every command about ten times.
WORKLOADS: dict[str, tuple[Spec, ...]] = {
    "montecarlo": (
        Spec("sim_aligned", "simulate", model="aligned", trials=300,
             metric="aligned_trials_per_s"),
        Spec("sim_translate", "simulate", model="translate", trials=2500,
             metric="translate_trials_per_s"),
        Spec("sim_multi_translate", "simulate", model="multi-translate", trials=300,
             metric="multi_translate_trials_per_s"),
        Spec("sim_uniform", "simulate", model="uniform-random", trials=300, count=121,
             metric="uniform_trials_per_s"),
        Spec("sim_aligned_n8", "simulate", n=8, model="aligned", trials=60,
             metric="aligned_n8_trials_per_s"),
    ),
    "certify": (
        Spec("verify_n5", "verify", mode="exhaustive", metric="verify_exhaustive_n5_s"),
        Spec("verify_n8", "verify", n=8, mode="sampled", metric="verify_sampled_n8_s"),
        Spec("tables", "tables"),
    ),
    "export": (
        Spec("export_csv", "export", fmt="csv", metric="export_csv_rows_per_s"),
        Spec("export_binary", "export", fmt="binary", metric="export_binary_rows_per_s"),
    ),
}

# Fault-injection command whose output the checks must classify as failed.
CORRUPT = Spec("verify_corrupt", "verify", mode="exhaustive")


def n_faces(n: int) -> int:
    q = 2 * n + 1
    return n * (n - 1) // 2 * q**n


def export_path(spec: Spec, tmp: Path) -> Path:
    return tmp / ("map.csv" if spec.fmt == "csv" else "map.bin")


def argv_of(spec: Spec, seed: int, tmp: Path | None = None,
            corrupt: bool = False) -> list[str]:
    """leetoric CLI arguments for one command."""
    if spec.kind == "params":
        return ["params", "--n", str(spec.n), "--format", "json"]
    if spec.kind == "tables":
        return ["tables", "--rows", "5,6,7,8", "--format", "json"]
    if spec.kind == "simulate":
        argv = ["simulate", "--n", str(spec.n), "--model", spec.model,
                "--trials", str(spec.trials), "--seed", str(seed), "--format", "json"]
        return argv + (["--count", str(spec.count)] if spec.count is not None else [])
    if spec.kind == "verify":
        argv = ["verify", "--n", str(spec.n), "--mode", spec.mode,
                "--seed", str(seed), "--format", "json"]
        return argv + (["--corrupt-generator"] if corrupt else [])
    if spec.kind == "export":
        return ["export-map", "--n", str(spec.n), "--format", spec.fmt,
                "--out", str(export_path(spec, tmp))]
    raise ValueError(f"unknown command kind {spec.kind!r}")


def _golden(name: str):
    return json.loads((GOLDEN / name).read_text())


def check_output(spec: Spec, seed: int, exit_code: int, stdout: str) -> list[str]:
    """Problems with one command's exit code and stdout; [] when correct.

    Export files are checked by ``check_export`` once both are written.
    """
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if spec.kind == "export":
        return [f"unexpected stdout {stdout[:80]!r}"] if stdout else []
    try:
        record = json.loads(stdout)
    except ValueError as exc:
        return [f"stdout is not one JSON document: {exc}"]
    if spec.kind == "params":
        return [] if record == _golden("params_n5.json") else ["params differ from golden"]
    if spec.kind == "tables":
        return [] if record == _golden("tables.json") else ["tables differ from golden"]
    if spec.kind == "verify":
        return check_verify(record, spec, seed)
    problems = check_simulate(record, spec, seed)
    if not problems and seed == DEFAULT_SEED:
        if record != _golden("simulate_seed0.json")[spec.label]:
            problems.append("seed-0 record differs from golden")
    return problems


def check_verify(record: dict, spec: Spec, seed: int) -> list[str]:
    if not isinstance(record, dict) or set(record) != VERIFY_KEYS:
        return ["verify record has the wrong keys"]
    problems = []
    samples = VERIFY_DEFAULT_SAMPLES if spec.mode == "sampled" else None
    header = (record["n"], record["q"], record["mode"], record["samples"], record["seed"])
    if header != (spec.n, 2 * spec.n + 1, spec.mode, samples, seed):
        problems.append(f"verify header {header}")
    names = tuple(c.get("name") for c in record["checks"])
    if names != CHECK_NAMES:
        problems.append(f"verify ran checks {names}")
    failed = [c.get("name") for c in record["checks"] if c.get("ok") is not True]
    if failed:
        problems.append(f"checks failed: {failed}")
    if record["all_ok"] is not True:
        problems.append("all_ok is not true")
    return problems


def check_simulate(record: dict, spec: Spec, seed: int) -> list[str]:
    """Invariants of a SimulationStats record that hold for every seed."""
    if not isinstance(record, dict) or set(record) != SIMULATE_KEYS:
        return ["simulate record has the wrong keys"]
    problems = []
    n, q, trials = spec.n, 2 * spec.n + 1, spec.trials
    header = (record["n"], record["q"], record["model"], record["trials"],
              record["master_seed"], record["uniform_count"])
    if header != (n, q, spec.model, trials, seed, spec.count):
        problems.append(f"simulate header {header}")
    hist = {int(k): v for k, v in record["tally_histogram"].items()}
    if not hist or min(hist) < 1 or min(hist.values()) < 1:
        return problems + [f"malformed histogram {record['tally_histogram']}"]
    errors = sum(k * v for k, v in hist.items())
    blocks = sum(hist.values())
    per_trial = spec.count if spec.model == "uniform-random" else (
        q if spec.model == "translate" else q * q)
    if spec.model == "multi-translate":
        # spheres of different sections may overlap; duplicates are dropped
        if errors > trials * per_trial or record["errors_per_trial_max"] > per_trial:
            problems.append(f"{errors} errors exceed {per_trial} per trial")
    elif errors != trials * per_trial or record["errors_per_trial_max"] != per_trial:
        problems.append(f"histogram holds {errors} errors, expected {trials * per_trial}")
    if record["successes"] + record["failures"] != trials:
        problems.append("successes + failures != trials")
    if record["success_rate"] != record["successes"] / trials:
        problems.append("success_rate != successes / trials")
    if record["max_tally"] != max(hist):
        problems.append("max_tally is not the largest histogram key")
    if record["mean_tally"] != errors / blocks:
        problems.append("mean_tally disagrees with the histogram")
    if (record["failures"] > 0) != (record["max_tally"] > 1):
        problems.append("failures and max_tally disagree")
    if spec.model in ("aligned", "translate"):
        # the q^2 burst theorem: every such burst is corrected
        if record["success_rate"] != 1.0 or record["max_tally"] != 1:
            problems.append("q^2 theorem violated: a sphere burst was not corrected")
    return problems


def check_export(csv_path: Path, bin_path: Path, n: int, seed: int, forward_index) -> list[str]:
    """The binary file is the permutation, the CSV file repeats it, and a
    seeded sample of rows matches the scalar map ``forward_index``."""
    total = n_faces(n)
    problems = []
    raw = bin_path.read_bytes()
    if len(raw) != 16 * total:
        return [f"binary export has {len(raw)} bytes, expected {16 * total}"]
    rows = np.frombuffer(raw, dtype="<u8").reshape(-1, 2).astype(np.int64)
    if not np.array_equal(rows[:, 0], np.arange(total, dtype=np.int64)):
        problems.append("binary logical column is not 0..n_faces-1 in order")
    physical = rows[:, 1]
    if physical.min() < 0 or physical.max() >= total:
        problems.append("binary physical index out of range")
    elif np.count_nonzero(np.bincount(physical, minlength=total)) != total:
        problems.append("binary physical column is not a permutation")
    text = csv_path.read_bytes()
    header = b"logical,physical\n"
    body = text[len(header):]
    if not text.startswith(header):
        problems.append("CSV header missing")
    elif body.count(b"\n") != total or body.count(b",") != total:
        problems.append("CSV does not have one logical,physical pair per row")
    else:
        values = np.fromstring(body.replace(b",", b" ").decode(), dtype=np.int64, sep=" ")
        if not np.array_equal(values, rows.ravel()):
            problems.append("CSV rows differ from binary rows")
    rng = np.random.default_rng(seed)
    for idx in rng.integers(0, total, size=EXPORT_SCALAR_SAMPLES).tolist():
        if forward_index(idx) != rows[idx, 1]:
            problems.append(f"row {idx} differs from the scalar forward_index")
            break
    return problems
