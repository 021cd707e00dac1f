"""Traced in-process run of leetoric CLI commands, and the per-layer
metrics derived from it.

Run as a child process of run.py:

    PYTHONPATH=src python3 perfbench/tracer.py SPEC.json OUT.json [--off]

SPEC.json is a list of {"label": ..., "argv": [...]}.  Each command goes
through ``leetoric.cli.main(argv)`` with its stdout captured.  Before the
first command, the public functions of the six modules are wrapped where
they are looked up: the modules import each other's names directly, so
every module attribute bound to the original function is replaced, and
methods are replaced on their class.  Spans stay in memory and are
written to OUT.json when the last command ends.

With --off nothing is wrapped, which times the same in-process run
without tracing.

Hot scalar functions (called per face or per hypercube) are not recorded
one span per call; their calls, inclusive and self time are summed per
(command, enclosing recorded span).
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import statistics
import sys
import time

LAYERS = ("lattice", "leecode", "toric", "interleave", "checks", "cli")

# (module, attribute) of each wrapped function; "Class.method" for methods.
HOT = (
    ("lattice", "hypercube_lin_index"),
    ("lattice", "hypercube_from_lin"),
    ("leecode", "PerfectLeeCode.decode_single"),
    ("leecode", "PerfectLeeCode.rank_of"),
    ("leecode", "PerfectLeeCode.tile_assign"),
    ("leecode", "PerfectLeeCode.codeword_from_rank"),
    ("toric", "face_from_lin"),
    ("interleave", "InterleavingMap.physical_to_logical"),
)
RECORDED = (
    ("lattice", "determinant"),
    ("leecode", "generator_matrix"),
    ("leecode", "PerfectLeeCode.verify_perfect_packing"),
    ("toric", "code_params"),
    ("interleave", "InterleavingMap.forward_indices"),
    ("interleave", "InterleavingMap.inverse_indices"),
    ("interleave", "make_burst"),
    ("interleave", "deinterleave_and_correct"),
    ("interleave", "simulate"),
    ("checks", "run_verification"),
)


def metric_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    """Span stack plus in-memory span and aggregate stores.

    A stack frame is [child_time, id of the nearest recorded span].
    """

    def __init__(self):
        self.stack = [[0.0, 0]]
        self.next_id = 1
        self.cmd = -1
        self.spans = []  # (id, name, start, end, parent, cmd, self_s)
        self.hot = {}  # (cmd, parent, name) -> [calls, total_s, self_s]
        self.counts = {}  # name -> list of per-call facts

    def wrap(self, name, fn, hot, facts=None):
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if hot:
                frame = [0.0, parent[1]]
            else:
                frame = [0.0, self.next_id]
                self.next_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                parent[0] += elapsed
                if hot:
                    key = (self.cmd, parent[1], name)
                    agg = self.hot.get(key)
                    if agg is None:
                        agg = self.hot[key] = [0, 0.0, 0.0]
                    agg[0] += 1
                    agg[1] += elapsed
                    agg[2] += elapsed - frame[0]
                else:
                    self.spans.append(
                        (frame[1], name, start, end, parent[1], self.cmd, elapsed - frame[0])
                    )
            if facts is not None:
                self.counts.setdefault(name, []).append(facts(args, kwargs, result, elapsed))
            return result

        return wrapper


def _packing_facts(args, kwargs, report, elapsed):
    return [report.mode, report.n, report.q, report.hypercubes_checked,
            report.spheres_placed, elapsed]


def _verification_facts(args, kwargs, results, elapsed):
    n = args[0] if args else kwargs["n"]
    return [n, [[r.name, r.ok, r.elapsed_s] for r in results]]


def _burst_facts(args, kwargs, burst, elapsed):
    map_ = args[0]
    drawn = len(burst.centers) * map_.q if burst.centers else len(burst.faces)
    return [drawn, len(burst.faces)]


FACTS = {
    "leecode.verify_perfect_packing": _packing_facts,
    "checks.run_verification": _verification_facts,
    "interleave.forward_indices": lambda a, k, r, e: len(r),
    "interleave.inverse_indices": lambda a, k, r, e: len(r),
    "interleave.make_burst": _burst_facts,
    "interleave.deinterleave_and_correct": lambda a, k, r, e: sum(r.counts.values()),
}


def install(tracer: Tracer) -> None:
    """Replace every binding of each wrapped function in the package."""
    import importlib

    modules = {m: importlib.import_module(f"leetoric.{m}") for m in LAYERS}
    modules["__init__"] = importlib.import_module("leetoric")
    for table, hot in ((HOT, True), (RECORDED, False)):
        for module, attr in table:
            name = metric_name(module, attr)
            owner = modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, tracer.wrap(name, getattr(cls, meth), hot, FACTS.get(name)))
                continue
            original = getattr(owner, attr)
            wrapped = tracer.wrap(name, original, hot, FACTS.get(name))
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)


def run(spec: list[dict], traced: bool = True) -> dict:
    """Run the commands in this process, wrapped when ``traced``; the
    untraced run of the same commands is the base of the overhead ratio."""
    tracer = Tracer()
    if traced:
        install(tracer)
    import leetoric.cli as cli

    main = tracer.wrap("cli.main", cli.main, hot=False) if traced else cli.main
    commands = []
    for cmd, item in enumerate(spec):
        tracer.cmd = cmd
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            try:
                code = main(item["argv"])
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
        commands.append({
            "label": item["label"],
            "exit": code,
            "stdout": out.getvalue(),
            "wall_s": time.perf_counter() - start,
        })
    return {
        "commands": commands,
        "spans": tracer.spans,
        "hot": [[c, p, name, *agg] for (c, p, name), agg in tracer.hot.items()],
        "counts": tracer.counts,
    }


# -- per-layer metrics (computed in the parent process) ----------------------


def _us_percentile(durations: list[float], pct: int) -> float:
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e6
    return statistics.quantiles(durations, n=100, method="inclusive")[pct - 1] * 1e6


def summarize(trace: dict) -> dict[str, float]:
    """Per-function calls, self time and rates over the whole traced run."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    incl_s: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    labels = [c["label"] for c in trace["commands"]]
    m: dict[str, float] = {}
    for _sid, name, start, end, _parent, cmd, own in trace["spans"]:
        if name == "cli.main":
            m[f"cli.{labels[cmd]}.self_s"] = m.get(f"cli.{labels[cmd]}.self_s", 0.0) + own
            continue
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        incl_s[name] = incl_s.get(name, 0.0) + (end - start)
        durations.setdefault(name, []).append(end - start)
    for _cmd, _parent, name, n_calls, total, own in trace["hot"]:
        calls[name] = calls.get(name, 0) + n_calls
        self_s[name] = self_s.get(name, 0.0) + own
        incl_s[name] = incl_s.get(name, 0.0) + total
    for module, attr in HOT + RECORDED:
        name = metric_name(module, attr)
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.self_s"] = self_s.get(name, 0.0)

    counts = trace["counts"]

    def rate(num: float, name: str) -> float:
        return num / incl_s[name] if incl_s.get(name) else 0.0

    for name in ("interleave.forward_indices", "interleave.inverse_indices"):
        elems = sum(counts.get(name, []))
        m[f"{name}.elems"] = elems
        m[f"{name}.elems_per_s"] = rate(elems, name)

    for name in ("interleave.make_burst", "interleave.deinterleave_and_correct"):
        m[f"{name}.p50_us"] = _us_percentile(durations.get(name, []), 50)
        m[f"{name}.p99_us"] = _us_percentile(durations.get(name, []), 99)
    bursts = counts.get("interleave.make_burst", [])
    drawn = sum(d for d, _ in bursts)
    m["interleave.make_burst.kept_ratio"] = sum(k for _, k in bursts) / drawn if drawn else 0.0
    faces = sum(counts.get("interleave.deinterleave_and_correct", []))
    m["interleave.deinterleave_and_correct.faces_per_s"] = rate(
        faces, "interleave.deinterleave_and_correct")

    # The packing rate and visit ratio describe the exhaustive sweep only;
    # the sampled mode is a vectorized spot check of a different kind.
    sweeps = [p for p in counts.get("leecode.verify_perfect_packing", []) if p[0] == "exhaustive"]
    sweep_s = sum(p[5] for p in sweeps)
    space = sum(p[2] ** p[1] for p in sweeps)
    m["leecode.verify_perfect_packing.hypercubes_per_s"] = (
        sum(p[3] for p in sweeps) / sweep_s if sweep_s else 0.0)
    m["leecode.verify_perfect_packing.visits_per_hypercube"] = (
        sum(p[4] * p[2] + p[3] for p in sweeps) / space if space else 0.0)

    for n, results in counts.get("checks.run_verification", []):
        for check, _ok, elapsed in results:
            m[f"checks.{check}.n{n}_s"] = elapsed
    return m


def shares(trace: dict) -> dict[str, float]:
    """Inclusive-time shares behind the acceptance statements.

    simulate: make_burst + deinterleave_and_correct over simulate.
    verify_n5: packing + forward/inverse_indices over the verify_n5 command.
    """
    labels = [c["label"] for c in trace["commands"]]
    incl: dict[tuple[str, str], float] = {}
    for _sid, name, start, end, _parent, cmd, _own in trace["spans"]:
        key = (labels[cmd], name)
        incl[key] = incl.get(key, 0.0) + (end - start)
    out = {}
    sim = sum(v for (_label, name), v in incl.items() if name == "interleave.simulate")
    if sim:
        chain = sum(
            v for (_label, name), v in incl.items()
            if name in ("interleave.make_burst", "interleave.deinterleave_and_correct")
        )
        out["simulate.burst_chain_share"] = chain / sim
    verify = incl.get(("verify_n5", "cli.main"))
    if verify:
        bulk = sum(
            incl.get(("verify_n5", name), 0.0)
            for name in (
                "leecode.verify_perfect_packing",
                "interleave.forward_indices",
                "interleave.inverse_indices",
            )
        )
        out["verify_n5.packing_bulk_share"] = bulk / verify
    return out


if __name__ == "__main__":
    spec_path, out_path = sys.argv[1:3]
    with open(spec_path) as fh:
        spec = json.load(fh)
    result = run(spec, traced="--off" not in sys.argv[3:])
    with open(out_path, "w") as fh:
        json.dump(result, fh)
