"""Command-line front end: parameters, verification, tables, simulation,
and streaming export of the interleaving permutation.

Exit codes are a stable contract for CI, and ``main`` alone decides them:
0 = success / all checks pass; 1 = a check or expectation failed, or output
could not be written; 2 = usage error: any input rule, ``--precision`` and
``--rows`` included, raises ValueError before any output.  All JSON and CSV
output is byte-identical across identical invocations; timings are text only.
A command imports what only it runs (``checks``, ``interleave``, ``csv``) when
it runs, so ``params`` and ``tables`` load neither module.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from ._numpy import np
from .lattice import digits_of, lin_indices
from .leecode import (BURST_MODELS, PerfectLeeCode, build_generators, check_n,
                      check_verification_rules, generator_matrix)
from .toric import code_params, interleaved_params

EXIT_OK = 0
EXIT_CHECK_FAILED = 1

DEFAULT_SEED = 0
DEFAULT_PRECISION = 5

# Reference values the tables command compares against, as printed in
# the source tables (5-decimal rate, gain; interleaved gains as listed).
REFERENCE_TORIC = {
    5: (Fraction("0.09091"), Fraction("0.18182")),
    6: (Fraction("0.07692"), Fraction("0.15385")),
    7: (Fraction("0.06667"), Fraction("0.13333")),
    8: (Fraction("0.05882"), Fraction("0.11765")),
}
REFERENCE_INTERLEAVED = {
    5: (Fraction("0.09091"), Fraction("11.09102")),
    6: (Fraction("0.07692"), Fraction("13.0764")),
    7: (Fraction("0.06667"), Fraction("15.06742")),
    8: (Fraction("0.05882"), Fraction("17.0578")),
}


def format_fraction(value: Fraction, places: int) -> str:
    """Render an exact rational at a fixed number of decimal places."""
    scaled = round(value * Fraction(10) ** places)
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled), 10**places)
    return f"{sign}{whole}.{frac:0{places}d}" if places else f"{sign}{whole}"


def _rounded(value: Fraction, places: int) -> float:
    return float(format_fraction(value, places))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leetoric",
        description="Lee-sphere toric quantum codes and burst-spreading interleaver",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formats=("text", "json")):
        p.add_argument("--n", type=int, required=True, help="lattice dimension (>= 5)")
        p.add_argument("--format", choices=formats, default=formats[0])

    p = sub.add_parser("params", help="toric and interleaved code parameters")
    p.set_defaults(run=cmd_params)
    add_common(p)
    p.add_argument("--precision", type=int, default=DEFAULT_PRECISION)

    p = sub.add_parser("verify", help="run the construction check battery")
    p.set_defaults(run=cmd_verify)
    add_common(p)
    p.add_argument("--mode", choices=("exhaustive", "sampled"),
                   help="default: exhaustive for n = 5, sampled otherwise")
    p.add_argument("--samples", type=int, default=10**6)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument(
        "--corrupt-generator",
        action="store_true",
        help="fault-injection hook: perturb one generator entry first",
    )

    p = sub.add_parser("tables", help="reproduce the parameter tables")
    p.set_defaults(run=cmd_tables)
    p.add_argument("--rows", default="5,6,7,8", help="comma-separated dimensions")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--precision", type=int, default=DEFAULT_PRECISION)

    p = sub.add_parser("simulate", help="Monte Carlo burst-correction trials")
    p.set_defaults(run=cmd_simulate)
    add_common(p)
    p.add_argument("--model", choices=BURST_MODELS, required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--count", type=int, default=None, help="errors for uniform-random")
    p.add_argument(
        "--expect-perfect",
        action="store_true",
        help="exit nonzero unless the success rate is exactly 1",
    )

    p = sub.add_parser("export-map", help="stream the interleaving permutation")
    p.set_defaults(run=cmd_export_map)
    add_common(p, ("csv", "binary"))
    p.add_argument("--out", required=True, help="output path")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if not 0 <= getattr(args, "precision", 0) <= 50:
            raise ValueError(f"precision must be in [0, 50], got {args.precision}")
        status = args.run(args)
        print(end="", flush=True)  # a failed write to stdout, if there is one, is raised here
        return status
    except OSError as exc:
        if not isinstance(exc, BrokenPipeError):  # a reader that closed early wants no message
            print(f"{args.command} failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except ValueError as exc:
        # every input rule is checked before any output; a broken rule is a usage error
        parser.error(str(exc))


def entry() -> None:
    status = main()
    # main has written stdout or failed to. Bytes whose write failed may stay in
    # its buffer, and the flush at interpreter exit would fail on them again,
    # print a report and exit 120: fd 1 goes to devnull before the exit.
    os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
    sys.exit(status)


# -- params ---------------------------------------------------------------


def cmd_params(args) -> int:
    toric = code_params(args.n)
    inter = interleaved_params(args.n)
    p = args.precision
    if args.format == "json":
        payload = {
            **toric._asdict(),
            "R": _rounded(toric.R, p),
            "G": _rounded(toric.G, p),
            "interleaved_length": inter.length,
            "interleaved_dimension": inter.dimension,
            "ti": inter.t_i,
            "Ri": _rounded(inter.R_i, p),
            "Gi": _rounded(inter.G_i, p),
        }
        print(json.dumps(payload))
    else:
        print(f"n = {toric.n}, q = {toric.q}")
        print(
            f"toric code   [[{toric.N}, {toric.k}, {toric.d}]]"
            f"  t = {toric.t}"
            f"  R = {format_fraction(toric.R, p)}"
            f"  G = {format_fraction(toric.G, p)} dB"
        )
        print(
            f"interleaved  [[{inter.length}, {inter.dimension}, t_i = {inter.t_i}]]"
            f"  R_i = {format_fraction(inter.R_i, p)}"
            f"  G_i = {format_fraction(inter.G_i, p)} dB"
        )
    return EXIT_OK


# -- verify ---------------------------------------------------------------


def cmd_verify(args) -> int:
    from .checks import run_verification

    mode = args.mode or ("exhaustive" if args.n == 5 else "sampled")
    code = None
    if args.corrupt_generator:
        # run_verification's rules, before the faulty code is built
        check_verification_rules(args.n, mode, args.samples, args.seed)
        check_n("index", args.n)
        # the first middle row v_2 gets +1 on its last coordinate
        gens = build_generators(args.n)
        fault = gens.middle[0][:-1] + (gens.middle[0][-1] + 1,)
        code = PerfectLeeCode(gens._replace(middle=(fault,) + gens.middle[1:]))
    results = run_verification(args.n, mode, samples=args.samples, seed=args.seed, code=code)
    all_ok = all(r.ok for r in results)
    if args.format == "json":
        payload = {
            "n": args.n,
            "q": 2 * args.n + 1,
            "mode": mode,
            "samples": args.samples if mode == "sampled" else None,
            "seed": args.seed,
            "checks": [
                {"name": r.name, "ok": r.ok, "detail": r.detail} for r in results
            ],
            "all_ok": all_ok,
        }
        print(json.dumps(payload))
    else:
        for r in results:
            status = "PASS" if r.ok else "FAIL"
            print(f"{status} {r.name}: {r.detail} ({r.elapsed_s:.3f}s)")
        print(f"{'all checks passed' if all_ok else 'CHECKS FAILED'} "
              f"(n={args.n}, mode={mode})")
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


# -- tables ---------------------------------------------------------------


def _table_rows(dims: list[int], places: int) -> dict[str, list[dict]]:
    """The tables as {kind: rows}, in output order."""
    tables = {"toric": [], "interleaved": []}
    for n in dims:
        tp, ip = code_params(n), interleaved_params(n)
        for kind, counts, rate, gain, ref in (
            ("toric", {"length": tp.N, "dimension": tp.k, "d": tp.d, "t": tp.t},
             tp.R, tp.G, REFERENCE_TORIC.get(n)),
            ("interleaved", {"length": ip.length, "dimension": ip.dimension, "ti": ip.t_i},
             ip.R_i, ip.G_i, REFERENCE_INTERLEAVED.get(n)),
        ):
            tables[kind].append({
                "n": n,
                "q": tp.q,
                **counts,
                "rate": _rounded(rate, places),
                "gain": _rounded(gain, places),
                "rate_printed": float(ref[0]) if ref else None,
                "gain_printed": float(ref[1]) if ref else None,
                "rate_deviation": float(abs(rate - ref[0])) if ref else None,
                "gain_deviation": float(abs(gain - ref[1])) if ref else None,
            })
    return tables


# text heading, distance key and rate/gain labels of each table kind
TABLE_TEXT = {
    "toric": ("toric codes  [[N, k, d]]", "d", "R", "G"),
    "interleaved": ("interleaved codes  [[N, k, t_i]]", "ti", "R_i", "G_i"),
}
CSV_COLUMNS = (
    "n", "q", "length", "dimension", "d", "t", "rate", "gain",
    "rate_printed", "gain_printed", "rate_deviation", "gain_deviation",
)


def cmd_tables(args) -> int:
    try:
        dims = [int(x) for x in args.rows.split(",") if x.strip()]
    except ValueError:
        raise ValueError(f"--rows must be comma-separated integers, got {args.rows!r}") from None
    if not dims:
        raise ValueError("--rows is empty")
    # every row's rule before any row's distance search
    tables = _table_rows([check_n("params", n) for n in dims], args.precision)
    p = args.precision
    if args.format == "json":
        print(json.dumps(tables))
    elif args.format == "csv":
        import csv

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(("code",) + CSV_COLUMNS)
        for kind, rows in tables.items():
            for row in rows:
                # an interleaved row has no d, and its t column is t_i
                cells = {"t": row.get("ti"), **row}
                writer.writerow([kind] + ["" if cells.get(c) is None else cells[c]
                                          for c in CSV_COLUMNS])
    else:
        for kind, rows in tables.items():
            heading, dist, rate, gain = TABLE_TEXT[kind]
            print(f"{heading}  (gain in dB)")
            for row in rows:
                note = "" if row["gain_printed"] is None else (
                    f"  (printed {row['rate_printed']} / {row['gain_printed']},"
                    f" gain dev {row['gain_deviation']:.5f})"
                )
                print(
                    f"  n={row['n']:<3} q={row['q']:<3} "
                    f"[[{row['length']}, {row['dimension']}, {row[dist]}]]"
                    f"  {rate} = {row['rate']:.{p}f}  {gain} = {row['gain']:.{p}f}{note}"
                )
    return EXIT_OK


# -- simulate ---------------------------------------------------------------


def cmd_simulate(args) -> int:
    from .interleave import InterleavingMap, check_simulation_rules, simulate

    # simulate's rules, before the code is built
    check_simulation_rules(args.n, args.model, args.trials, args.seed, args.count)
    map_ = InterleavingMap(generator_matrix(args.n))
    start = time.perf_counter()
    stats = simulate(map_, args.model, args.trials, args.seed, args.count)
    elapsed = time.perf_counter() - start
    if args.format == "json":
        print(json.dumps(stats.to_dict()))
    else:
        print(
            f"model {stats.model} (n={stats.n}, q={stats.q}),"
            f" {stats.trials} trials, master seed {stats.master_seed}"
        )
        print(
            f"success rate {stats.success_rate:.6f}"
            f" ({stats.successes} ok, {stats.failures} failed)"
        )
        print(
            f"per-codeword tallies: max {stats.max_tally},"
            f" mean {stats.mean_tally:.6f},"
            f" histogram {dict(sorted(stats.tally_histogram.items()))}"
        )
        print(f"wall time {elapsed:.2f}s")
    if args.expect_perfect and stats.success_rate < 1.0:
        if args.format != "json":
            print("expectation failed: success rate below 1.0")
        return EXIT_CHECK_FAILED
    return EXIT_OK


# -- export-map ---------------------------------------------------------------


def _csv_rows(logical: np.ndarray, physical: np.ndarray) -> np.ndarray:
    """The bytes of the rows ``f"{l},{p}\\n"`` of two non-negative int64 columns, as uint8.

    The text is built one character position per row of a (width, m)
    buffer, so every write is contiguous; the rows are read out
    row-major, leading zeros dropped, by one boolean index.
    """
    widths = [len(str(int(v.max()))) if len(v) else 1 for v in (logical, physical)]
    chars = np.empty((sum(widths) + 2, len(logical)), dtype=np.uint8)
    keep = np.ones(chars.shape, dtype=bool)
    for v, w, j, sep in zip((logical, physical), widths, (0, widths[0] + 1), b",\n"):
        np.add(digits_of(v, (10,) * w), ord("0"), out=chars[j : j + w], casting="unsafe")
        # a digit whose place value is above the value is a leading zero
        for k in range(1, w):
            np.greater_equal(v, 10**k, out=keep[j + w - 1 - k])
        chars[j + w] = sep
    return chars.T[keep.T]


def _physical_pieces(map_: InterleavingMap):
    """(start, physical): the face indices of logical slots start, start + 1, ..., a piece at a time.

    Each piece is map_.logical_pieces' of at most SWEEP_CHUNK slots: its
    anchors are encoded once, and lin(anchor) * alpha + o broadcasts to the
    piece's slots in logical order.
    """
    for start, logical in map_.logical_pieces(by_slot=True):
        yield start, lin_indices(map_.forward_digits(logical), map_.face_radices).ravel()


def cmd_export_map(args) -> int:
    """Write the permutation in logical order, one piece of at most SWEEP_CHUNK (2^15) rows at a time."""
    from .interleave import InterleavingMap

    check_n("index", args.n)  # before the code is built and --out is opened
    map_ = InterleavingMap(generator_matrix(args.n))
    binary = args.format == "binary"
    with open(args.out, "wb") as fh:
        if not binary:
            fh.write(b"logical,physical\n")
        # Each piece's physical column and rows stay bound until the next piece's
        # replace them, and its logical column is freed once used: so the
        # allocator reuses the same pages piece after piece.  Freed at once, a
        # piece would leave the heap top free, and every piece would fault its
        # pages in anew; with the logical column held too, two pieces would take
        # turns at the heap top, and every other piece would.
        for start, physical in _physical_pieces(map_):
            if binary:
                rows = np.empty((len(physical), 2), dtype="<u8")
                rows[:, 0] = np.arange(start, start + len(physical), dtype=np.int64)
                rows[:, 1] = physical
            else:
                rows = _csv_rows(np.arange(start, start + len(physical), dtype=np.int64), physical)
            fh.write(rows)  # not rows.tofile(fh), which cannot write to a pipe
    return EXIT_OK


if __name__ == "__main__":
    entry()
