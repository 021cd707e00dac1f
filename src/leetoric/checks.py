"""Named verification checks behind the CLI verify command.

Each check is timed and reports pass/fail with a human-readable detail
string (the failing witness, when there is one).  Exhaustive mode is
only feasible at n = 5; larger dimensions use seeded sampling.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .lattice import determinant, hypercubes_from_lin
from .leecode import PerfectLeeCode, generator_matrix
from .interleave import InterleavingMap

SWEEP_CHUNK = 1 << 20


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str
    elapsed_s: float


def run_verification(
    n: int,
    mode: str = "exhaustive",
    samples: int = 10**6,
    seed: int = 0,
    code: PerfectLeeCode | None = None,
) -> list[CheckResult]:
    """Run the full battery of construction checks for dimension n."""
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown verification mode: {mode!r}")
    if code is None:
        code = generator_matrix(n)
    map_ = InterleavingMap(code)
    results = []
    for fn in (
        _check_determinant,
        _check_orthogonality,
        _check_residue_coverage,
        _check_chain_membership,
        _check_codeword_bijection,
        _check_min_distance,
        _check_section_distance,
        _check_packing,
        _check_roundtrip,
        _check_section_confinement,
    ):
        start = time.perf_counter()
        try:
            ok, detail = fn(code, map_, mode, samples, seed)
        except (ValueError, AssertionError) as exc:
            ok, detail = False, f"check aborted: {exc}"
        results.append(CheckResult(fn.__name__[7:], ok, detail, time.perf_counter() - start))
    return results


def _check_determinant(code, map_, mode, samples, seed):
    det = determinant(code.matrix)
    return abs(det) == code.q, f"det A = {det}, expected |det| = q = {code.q}"


def _check_orthogonality(code, map_, mode, samples, seed):
    bad = code.non_orthogonal_rows()
    if bad:
        return False, f"rows not orthogonal to h mod q: {bad}"
    return True, f"all {code.n} generator rows orthogonal to h = {code.h} mod {code.q}"


def _check_residue_coverage(code, map_, mode, samples, seed):
    cover = code.syndrome_residues()
    ok = cover == list(range(code.q))
    return ok, f"{{0}} u {{+-h_i}} mod q = {cover}"


def _check_chain_membership(code, map_, mode, samples, seed):
    q, n = code.q, code.n
    problems = []
    for i in range(n):
        e_i = tuple(q if t == i else 0 for t in range(n))
        if not code.lattice_membership(e_i):
            problems.append(f"q*e_{i + 1} not in the code lattice")
    problems += [f"generator {row} not in the code lattice" for row in code.non_orthogonal_rows()]
    if code.lattice_membership(tuple(1 if t == 0 else 0 for t in range(n))):
        problems.append("e_1 unexpectedly in the code lattice")
    if q**n // q != code.n_codewords:
        problems.append("coset count q^n / q != q^{n-1}")
    if problems:
        return False, "; ".join(problems)
    return True, f"qZ^n within the lattice; {code.n_codewords} cosets = q^{n - 1}"


def _check_codeword_bijection(code, map_, mode, samples, seed):
    q, per_section = code.q, code.codewords_per_section
    if mode == "exhaustive":
        pairs = ((j, r) for j in range(q) for r in range(per_section))
    else:
        rng = np.random.default_rng(seed)
        pairs = (
            (int(rng.integers(0, q)), int(rng.integers(0, per_section)))
            for _ in range(min(samples, 20000))
        )
    # rank_of inverts codeword_from_rank on every pair, so no two pairs share a point
    count = 0
    for j, r in pairs:
        point = code.codeword_from_rank(j, r).point
        if code.syndrome(point) != 0 or code.rank_of(point) != (j, r):
            return False, f"rank round-trip failed at (j={j}, r={r}), point {point}"
        count += 1
    if mode == "exhaustive":
        return True, f"{count} distinct codewords, ranks round-trip"
    return True, f"{count} sampled (section, rank) pairs round-trip"


def _check_min_distance(code, map_, mode, samples, seed):
    low = [vec for w in (1, 2) for vec in code.codewords_of_weight(w)]
    if low:
        return False, f"codeword of weight <= 2 found: {low[0]}"
    scan = code.min_mannheim_distance()
    ok = scan.exact and scan.distance == 3
    return ok, f"minimum Mannheim distance {scan.distance}, witness {scan.witness}"


def _check_section_distance(code, map_, mode, samples, seed):
    d = code.section_subcode_distance()
    return d == 4, f"cross-section subcode distance {d}, expected 4"


def _check_packing(code, map_, mode, samples, seed):
    report = code.verify_perfect_packing(mode, samples=samples, seed=seed)
    if report.ok:
        return True, (
            f"{report.hypercubes_checked} hypercubes checked"
            + (f", {report.spheres_placed} spheres placed" if report.spheres_placed else "")
            + ", no violations"
        )
    return False, f"{report.violation_count} violations, first: {report.violations[:3]}"


def _logical_indices(map_, mode, k, seed):
    """The logical indices a map check visits, as int64 arrays.

    ``exhaustive``: all of [0, n_faces) in SWEEP_CHUNK pieces;
    ``sampled``: one array of k seeded-random indices.
    """
    if mode == "exhaustive":
        for start in range(0, map_.n_faces, SWEEP_CHUNK):
            yield np.arange(start, min(start + SWEEP_CHUNK, map_.n_faces), dtype=np.int64)
    else:
        yield np.random.default_rng(seed).integers(0, map_.n_faces, size=k, dtype=np.int64)


def _check_roundtrip(code, map_, mode, samples, seed):
    total = map_.n_faces
    # inverse(forward(i)) == i on every index of [0, total) makes the
    # in-range forward map injective, hence a permutation
    for idx in _logical_indices(map_, mode, samples, seed):
        fwd = map_.forward_indices(idx)
        if fwd.min() < 0 or fwd.max() >= total:
            return False, "forward index out of range"
        miss = np.flatnonzero(map_.inverse_indices(fwd) != idx)
        if len(miss):
            return False, f"round-trip mismatch at logical index {idx[miss[0]]}"
    # scalar spot-check against the vectorized path
    rng = np.random.default_rng(seed + 1)
    for idx in rng.integers(0, total, size=200):
        idx = int(idx)
        fwd = map_.forward_index(idx)
        if map_.forward_indices(np.array([idx]))[0] != fwd:
            return False, f"scalar/bulk forward disagree at {idx}"
        if map_.inverse_index(fwd) != idx:
            return False, f"scalar inverse broken at {idx}"
    if mode == "exhaustive":
        return True, f"all {total} slots round-trip; image is a permutation"
    return True, f"{samples} sampled slots round-trip"


def _check_section_confinement(code, map_, mode, samples, seed):
    q, alpha = code.q, code.alpha
    k = map_.n_faces if mode == "exhaustive" else min(samples, 20000)
    for idx in _logical_indices(map_, mode, k, seed):
        lin, o_phys = np.divmod(map_.forward_indices(idx), alpha)
        j_phys, _, _, bad = code.decode(hypercubes_from_lin(lin, q, code.n))
        leak = bad | (j_phys != idx // (q * alpha * code.codewords_per_section))
        turned = o_phys != (idx // q) % alpha
        fail = np.flatnonzero(leak | turned)
        if len(fail):
            addr = map_.logical_from_lin(int(idx[fail[0]]))
            if leak[fail[0]]:
                return False, f"physical codeword of {addr} leaves section {addr.section}"
            return False, f"orientation changed at {addr}"
    if mode == "exhaustive":
        return True, f"all {k} addresses stay in their section, orientation intact"
    return True, f"{k} sampled addresses stay in their section, orientation intact"
