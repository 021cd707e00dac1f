#!/usr/bin/env python3
"""Benchmark of the leetoric CLI.

    python3 perfbench/run.py --workload montecarlo --seed 0 --seconds 40 --trace 0

Run from anywhere; the repository root is the parent of this directory,
and the program under test is the package in its ``src/``.  One client
runs one CLI process at a time (closed loop, sequential) and checks every
output.

--trace 0 repeats passes over the workload's commands for --seconds and
reports the end-to-end metrics.
--trace 1 runs the commands once as CLI processes, then once untraced and
once traced in one process through ``leetoric.cli.main`` with the public
functions of each module wrapped (see tracer.py), and reports per-layer
metrics.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the metric names and units are the ones declared in
BENCHMARK.json at the repository root.  A record of the run, with the
environment and every sample, goes to .perfbench/ under the root.  The
exit code is 0 when every output check passed, 1 when one failed, and 2
when the program (``src/leetoric``) is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# numpy's OpenBLAS starts a thread per CPU when it is imported.  The program
# does no floating-point linear algebra, so these threads only add start-up
# time, and how much depends on whether the other CPU happens to be idle
# (params took 0.2 s or 0.3 s on a 2-vCPU VM).  This process and every
# child it starts run with one BLAS thread.
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1"}
os.environ.update(SINGLE_THREAD_ENV)

import tracer  # noqa: E402  (sibling module, found through sys.path[0])
import workloads as wl  # noqa: E402

MIN_PASSES = 3
# params processes per pass; setup_s is the median of all of them
SETUP_SPAWNS = 5
# pace() at the fast end of a 2-vCPU Xeon VM: the pace that corrected
# times refer to.
PACE_REF_S = 0.002
# How strongly command times follow the pace kernel; see measure().
PACE_EXPONENT = 0.75
CHILD_TIMEOUT_S = 150


class Run:
    """Counts and problems of one benchmark run."""

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def judge(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: {'; '.join(problems)}")


def spawn(argv: list[str], tmp: Path, script: str | None = None) -> dict:
    """Run one child process to completion; wall, CPU and peak RSS come
    from os.wait4 on that child alone."""
    cmd = [sys.executable] + ([script] if script else ["-m", "leetoric.cli"]) + argv
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out_path = tmp / "stdout.txt"
    with open(out_path, "wb") as out, open(tmp / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "exit": proc.returncode,
        "stderr": (tmp / "stderr.txt").read_text(errors="replace")[-300:],
        "stdout": out_path.read_text(),
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,
    }


def check_pass(run: Run, specs, records: list[dict]) -> None:
    """Judge every command of one pass (``records`` in the order of
    ``specs``); the export files are checked in full once all are written."""
    exported = export_problems(run, specs) if any(s.kind == "export" for s in specs) else []
    for spec, rec in zip(specs, records):
        problems = wl.check_output(spec, run.seed, rec["exit"], rec["stdout"])
        if spec.kind == "export":
            problems += exported
        if problems and rec.get("stderr"):
            problems.append(f"stderr: {rec['stderr']}")
        run.judge(spec.label, problems)


def export_problems(run: Run, specs) -> list[str]:
    by_fmt = {s.fmt: wl.export_path(s, run.tmp) for s in specs if s.kind == "export"}
    if not all(p.exists() for p in by_fmt.values()):
        return ["export file missing"]
    from leetoric import InterleavingMap, generator_matrix

    n = next(s.n for s in specs if s.kind == "export")
    map_ = InterleavingMap(generator_matrix(n))
    return wl.check_export(by_fmt["csv"], by_fmt["binary"], n, run.seed, map_.forward_index)


def pace() -> float:
    """Seconds of a fixed pure-Python kernel, median of 5 (about 25 ms in
    all): how fast the machine runs interpreted code right now."""
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        table = {}
        for j in range(20000):
            table[j & 511] = (j, j * j)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def run_pass(run: Run, specs) -> list[dict]:
    """Each spec once, as a CLI process; each record carries its label and
    the pace measured just before and just after it."""
    records = []
    paces = [pace()]
    for spec in specs:
        rec = spawn(wl.argv_of(spec, run.seed, run.tmp), run.tmp)
        paces.append(pace())
        rec.update(label=spec.label, pace_s=(paces[-2] + paces[-1]) / 2)
        records.append(rec)
    check_pass(run, specs, records)
    for spec in specs:
        if spec.kind == "export":  # each pass writes fresh files
            wl.export_path(spec, run.tmp).unlink(missing_ok=True)
    return records


def self_check(run: Run, workload: str, traced: bool) -> list[str]:
    """Show that the output checks can fail.  Not counted in attempted.

    Doctored copies of recorded simulate and verify records are judged in
    every run.  The fault-injected verify takes seconds, so it runs with the
    traced certify run only, leaving the untraced runs their time to
    measure; its record must fail the verify checks themselves, not only
    the exit code.
    """
    broken = []
    aligned = next(s for s in wl.WORKLOADS["montecarlo"] if s.model == "aligned" and s.n == 5)
    golden = json.loads((wl.GOLDEN / "simulate_seed0.json").read_text())[aligned.label]
    if wl.check_simulate(golden, aligned, 0):
        broken.append("golden aligned record rejected")
    if not wl.check_simulate(dict(golden, max_tally=2), aligned, 0):
        broken.append("aligned record with max_tally 2 accepted")
    verify = json.loads((wl.GOLDEN / "verify_n5_seed0.json").read_text())
    if wl.check_verify(verify, wl.CORRUPT, 0):
        broken.append("golden verify n=5 record rejected")
    if not wl.check_verify(dict(verify, all_ok=False), wl.CORRUPT, 0):
        broken.append("verify record with all_ok false accepted")
    if not wl.check_verify(dict(verify, checks=verify["checks"][:-1]), wl.CORRUPT, 0):
        broken.append("verify record missing a check accepted")
    if workload == "certify" and traced:
        rec = spawn(wl.argv_of(wl.CORRUPT, run.seed, corrupt=True), run.tmp)
        try:
            problems = wl.check_verify(json.loads(rec["stdout"]), wl.CORRUPT, run.seed)
        except ValueError:
            problems = []
        if rec["exit"] == 0 or not problems:
            broken.append("verify --corrupt-generator not rejected by the verify checks")
    return broken


def median(values):
    return statistics.median(values) if values else 0.0


def measure(run: Run, workload: str, seconds: int) -> tuple[dict, dict]:
    """--trace 0: passes of SETUP_SPAWNS ``params`` and the workload's
    commands for ``seconds``.

    Every wall time is corrected for the machine's pace:
    wall * (PACE_REF_S / pace) ** PACE_EXPONENT, where pace is the pace()
    kernel timed around the command.  On a shared VM the speed of the same
    code drifts by tens of percent for minutes at a time, and the commands
    follow the kernel only in part: on a 2-vCPU VM they slowed by between
    0.3 and 1.0 times the kernel's slowdown (in logarithms), depending on
    the command and on what else the host ran.  Over six sets of ten runs
    per workload, the exponent 0.75 kept the spread of every time figure
    lowest; 0.5 and 1.0 each failed on some set.  Each figure is the median
    of its corrected samples over the passes.
    """
    commands = wl.WORKLOADS[workload]
    specs = (wl.SETUP,) * SETUP_SPAWNS + commands
    warm = spawn(wl.argv_of(wl.SETUP, run.seed), run.tmp)  # file cache, bytecode
    run.judge(wl.SETUP.label, wl.check_output(wl.SETUP, run.seed, warm["exit"], warm["stdout"]))
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or (
        time.perf_counter() - start + median([p["wall_s"] for p in passes]) <= seconds
    ):
        pass_start = time.perf_counter()
        records = run_pass(run, specs)
        passes.append({
            "wall_s": time.perf_counter() - pass_start,
            "commands": [{f: v for f, v in r.items() if f not in ("stdout", "stderr")}
                         for r in records],
        })
    samples: dict[str, list[float]] = {}
    for p in passes:
        for r in p["commands"]:
            samples.setdefault(r["label"], []).append(
                r["wall_s"] * (PACE_REF_S / r["pace_s"]) ** PACE_EXPONENT)
    scaled = {label: median(values) for label, values in samples.items()}
    metrics = {
        "setup_s": scaled[wl.SETUP.label],
        "wall_s": sum(scaled[s.label] for s in commands),
        "peak_rss_mb": median([max(r["rss_mb"] for r in p["commands"]) for p in passes]),
    }
    named = {}
    for spec in commands:
        if spec.kind == "simulate":
            named[spec.metric] = spec.trials / scaled[spec.label]
        elif spec.kind == "export":
            named[spec.metric] = wl.n_faces(spec.n) / scaled[spec.label]
        elif spec.metric:
            named[spec.metric] = scaled[spec.label]
    detail = {"pace_ref_s": PACE_REF_S, "pace_exponent": PACE_EXPONENT, "passes": passes, "named": named}
    return metrics, detail


def trace(run: Run, workload: str) -> tuple[dict, dict]:
    """--trace 1: the workload's commands once as CLI processes, then in
    one process untraced and traced (the ratio of the last two is the
    tracing overhead)."""
    specs = (wl.SETUP,) + wl.WORKLOADS[workload]
    untraced = run_pass(run, specs)
    spec_path = run.tmp / "trace_spec.json"
    spec_path.write_text(json.dumps(
        [{"label": s.label, "argv": wl.argv_of(s, run.seed, run.tmp)} for s in specs]))
    script = str(HERE / "tracer.py")
    walls = {}
    for mode in ("off", "on"):
        out_path = OUT / f"{workload}-seed{run.seed}-trace-{mode}.json"
        argv = [str(spec_path), str(out_path)] + (["--off"] if mode == "off" else [])
        child = spawn(argv, run.tmp, script=script)
        if child["exit"] != 0:
            run.judge(f"tracer --{mode}", [f"exit code {child['exit']}: {child['stderr']}"])
            return {}, {}
        walls[mode] = child["wall_s"]
        in_process = json.loads(out_path.read_text())
        check_pass(run, specs, in_process["commands"])

    metrics = tracer.summarize(in_process)
    for rec in untraced:
        metrics[f"cli.{rec['label']}.cpu_s"] = rec["cpu_s"]
    metrics["cli.export_map.bytes_written"] = sum(
        wl.export_path(s, run.tmp).stat().st_size for s in specs if s.kind == "export")
    metrics["trace.overhead_ratio"] = walls["on"] / walls["off"]
    detail = {"shares": tracer.shares(in_process), "in_process_wall_s": walls}
    return metrics, detail


def environment(seed: int) -> dict:
    import numpy

    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "seed": seed,
        "child_env": SINGLE_THREAD_ENV,
        "loadavg_start": list(os.getloadavg()),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def declared(kind: str) -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())[kind]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "leetoric" / "cli.py").is_file():
        print(f"program not found: no {SRC / 'leetoric'} package", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    env = environment(args.seed)
    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir()
    run = Run(args.seed, tmp)
    try:
        if args.trace:
            values, detail = trace(run, args.workload)
        else:
            values, detail = measure(run, args.workload, args.seconds)
        broken = self_check(run, args.workload, bool(args.trace))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    env["loadavg_end"] = list(os.getloadavg())

    wanted = declared("per_layer" if args.trace else "end_to_end")
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}
    correct = run.failed == 0 and not broken and bool(values)
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    record = dict(result, workload=args.workload, seconds=args.seconds, trace=args.trace,
                  environment=env, problems=run.problems, self_check_broken=broken,
                  detail=detail)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    for problem in run.problems + [f"self-check: {b}" for b in broken]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"environment {json.dumps(env)}")
    for name, value in detail.get("named", {}).items():
        unit = "1/s" if name.endswith("_per_s") else "s"
        print(f"  {name:<36} {value:>14.4f} {unit}")
    for name, value in detail.get("shares", {}).items():
        print(f"  {name:<36} {value:>14.4f}")
    for name, m in metrics.items():
        if m["value"] or not args.trace:  # zero: layer not exercised here
            print(f"  {name:<36} {m['value']:>14.4f} {m['unit']}")
    print(f"  {'op_fail_ratio':<36} {run.failed / max(run.attempted, 1):>14.4f}"
          f" ({run.failed}/{run.attempted} commands)")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
