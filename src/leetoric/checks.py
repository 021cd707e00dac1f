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
    q = code.q
    if mode == "exhaustive":
        seen = set()
        for cw in code.iter_codewords():
            if code.syndrome(cw.point) != 0:
                return False, f"enumerated point {cw.point} is not a codeword"
            if cw.point in seen:
                return False, f"duplicate codeword point {cw.point}"
            seen.add(cw.point)
            if code.rank_of(cw.point) != (cw.section, cw.rank):
                return False, f"rank_of mismatch at {cw.point}"
        return True, f"{len(seen)} distinct codewords, ranks round-trip"
    rng = np.random.default_rng(seed)
    n_pairs = min(samples, 20000)
    for _ in range(n_pairs):
        j = int(rng.integers(0, q))
        r = int(rng.integers(0, code.codewords_per_section))
        cw = code.codeword_from_rank(j, r)
        if code.syndrome(cw.point) != 0 or code.rank_of(cw.point) != (j, r):
            return False, f"rank round-trip failed at (j={j}, r={r})"
    return True, f"{n_pairs} sampled (section, rank) pairs round-trip"


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


def _check_roundtrip(code, map_, mode, samples, seed):
    total = map_.n_faces
    if mode == "exhaustive":
        seen = np.zeros(total, dtype=bool)
        for start in range(0, total, SWEEP_CHUNK):
            chunk = np.arange(start, min(start + SWEEP_CHUNK, total), dtype=np.int64)
            fwd = map_.forward_indices(chunk)
            if fwd.min() < 0 or fwd.max() >= total:
                return False, "forward index out of range"
            if not np.array_equal(map_.inverse_indices(fwd), chunk):
                return False, f"round-trip mismatch in chunk at {start}"
            seen[fwd] = True
        if not seen.all():
            return False, f"{np.count_nonzero(~seen)} face indices never hit"
        detail = f"all {total} slots round-trip; image is a permutation"
    else:
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, total, size=samples, dtype=np.int64)
        fwd = map_.forward_indices(idx)
        if not np.array_equal(map_.inverse_indices(fwd), idx):
            return False, "sampled round-trip mismatch"
        detail = f"{samples} sampled slots round-trip"
    # scalar spot-check against the vectorized path
    rng = np.random.default_rng(seed + 1)
    for idx in rng.integers(0, total, size=200):
        idx = int(idx)
        fwd = map_.forward_index(idx)
        if map_.forward_indices(np.array([idx]))[0] != fwd:
            return False, f"scalar/bulk forward disagree at {idx}"
        if map_.inverse_index(fwd) != idx:
            return False, f"scalar inverse broken at {idx}"
    return True, detail


def _check_section_confinement(code, map_, mode, samples, seed):
    n, q, alpha = code.n, code.q, code.alpha
    if mode == "exhaustive":
        for start in range(0, map_.n_faces, SWEEP_CHUNK):
            chunk = np.arange(start, min(start + SWEEP_CHUNK, map_.n_faces), dtype=np.int64)
            j_logical = chunk // (q * alpha * code.codewords_per_section)
            o_logical = (chunk // q) % alpha
            lin, o_phys = np.divmod(map_.forward_indices(chunk), alpha)
            j_phys = code.decode(hypercubes_from_lin(lin, q, n))[0]
            if not np.array_equal(j_phys, j_logical):
                return False, f"section leak in chunk at {start}"
            if not np.array_equal(o_phys, o_logical):
                return False, f"orientation changed in chunk at {start}"
        return True, f"all {map_.n_faces} addresses stay in their section, orientation intact"
    rng = np.random.default_rng(seed)
    n_pts = min(samples, 20000)
    for _ in range(n_pts):
        addr = map_.logical_from_lin(int(rng.integers(0, map_.n_faces)))
        face = map_.logical_to_physical(addr)
        host = code.tile_assign(face.anchor).codeword
        if host.section != addr.section:
            return False, f"physical codeword of {addr} lies in section {host.section}"
        if face.orientation != addr.orientation:
            return False, f"orientation changed at {addr}"
    return True, f"{n_pts} sampled addresses stay in their section, orientation intact"
