"""Named verification checks behind the CLI verify command.

Each check is timed and reports pass/fail with a human-readable detail
string (the failing witness, when there is one).  Exhaustive mode runs
at n <= 7, larger dimensions use seeded sampling, and the round trip
runs on the interleaver's digit rows.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from ._numpy import np
from .interleave import InterleavingMap, check_int64
from .lattice import digits_of, lin_indices
from .leecode import (PerfectLeeCode, check_verification_rules, generator_matrix, scalar_answer,
                      scalar_rows, sweep)

SAMPLE_CAP = 20000  # sampled pairs (bijection) and addresses (confinement)


class CheckResult(NamedTuple):
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
    """Run the full battery of construction checks for dimension n.

    Raises ValueError before any check runs if the mode is unknown,
    exhaustive at n >= 8, samples < 1, the seed is negative or the bulk
    map checks would overflow int64 (n >= 13).
    """
    samples, seed = check_verification_rules(n, mode, samples, seed)
    check_int64(n)
    if code is None:
        code = generator_matrix(n)
    map_ = InterleavingMap(code)
    # NumPy loads on its first attribute read: read one here, so that no check's time pays for it
    np.ndarray
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
        _check_roundtrip_and_section_confinement,
    ):
        # _check_a_and_b reports the results named a and b, one verdict each
        names = fn.__name__[7:].split("_and_")
        start = time.perf_counter()
        try:
            verdicts = fn(code, map_, mode, samples, seed)
            if len(names) == 1:
                verdicts = [verdicts]
        except (ValueError, AssertionError) as exc:
            verdicts = [(False, f"check aborted: {exc}")] * len(names)
        elapsed = time.perf_counter() - start
        results += [CheckResult(name, *verdict, elapsed) for name, verdict in zip(names, verdicts)]
    return results


def _check_determinant(code, map_, mode, samples, seed):
    return abs(code.det) == code.q, f"det A = {code.det}, expected |det| = q = {code.q}"


def _check_orthogonality(code, map_, mode, samples, seed):
    bad = code.non_orthogonal_rows()
    if bad:
        return False, f"rows not orthogonal to h mod q: {bad}"
    return True, f"all {code.n} generator rows orthogonal to h = {code.h} mod {code.q}"


def _check_residue_coverage(code, map_, mode, samples, seed):
    q, cover = code.q, code.syndrome_residues()
    detail = f"{{0}} u {{+-h_i}} mod q = {cover}"
    if cover != list(range(q)):
        return False, detail
    # the syndrome -> slot table that tile_assign and decode read must invert
    # the slot offsets' syndromes
    table = code._slot_of.tolist()
    if sorted(table) != list(range(q)):
        return False, f"_slot_of = {table} is not a permutation of range({q})"
    for s, slot in enumerate(table):
        offset = code.offsets[slot]
        got = code.syndrome([d % q for d in offset])
        if got != s:
            return False, f"_slot_of[{s}] = {slot}, whose offset {offset} has syndrome {got}"
    return True, detail


def _check_chain_membership(code, map_, mode, samples, seed):
    # qZ^n <= lattice = ker h: |det A| = q makes q*A^-1 = +-adj A integral, so
    # every q*e_i is in the lattice; orthogonality puts the lattice inside
    # ker h, which also has index q, so the two are equal
    det = abs(code.det)
    problems = [f"|det A| = {det} != q = {code.q}"] if det != code.q else []
    problems += [f"generator {row} not in ker h mod q" for row in code.non_orthogonal_rows()]
    if problems:
        return False, "; ".join(problems)
    return True, f"qZ^n within the lattice; {code.n_codewords} cosets = q^{code.n - 1}"


def _check_codeword_bijection(code, map_, mode, samples, seed):
    # decode inverts encode on every index's digits, so no two share a point;
    # the scalar codeword_from_rank and rank_of are the oracle on the sweep's scalar_rows
    radices, k = (code.q,) * (code.n - 1), min(samples, SAMPLE_CAP)
    for start, idx in sweep(code.n_codewords, mode, k, seed):
        point = code.encode(digits_of(idx, radices), np.zeros_like(idx))
        digits, slot, bad = code.decode(point)
        back = lin_indices(digits, radices)
        # nonzero where decode gives another label, a nonzero slot (the syndrome's) or bad
        fail = np.flatnonzero((back != idx) | slot | bad)
        if len(fail):
            j, r = divmod(int(idx[fail[0]]), code.codewords_per_section)
            return False, (f"rank round-trip failed at (j={j}, r={r}),"
                           f" point {tuple(int(x[fail[0]]) for x in point)}")
        spots = scalar_rows(start, len(idx), code.n_codewords if mode == "exhaustive" else k)
        for i, pt in zip(idx[spots].tolist(), zip(*(x[spots].tolist() for x in point))):
            jj, rr = divmod(i, code.codewords_per_section)
            if (scalar_answer(code.rank_of, pt) != (jj, rr)
                    or scalar_answer(code.codeword_from_rank, jj, rr) != (pt, jj, rr)):
                return False, f"scalar codeword_from_rank disagrees with encode at (j={jj}, r={rr})"
    if mode == "exhaustive":
        return True, f"{code.n_codewords} distinct codewords, ranks round-trip"
    return True, f"{k} sampled (section, rank) pairs round-trip"


def _check_min_distance(code, map_, mode, samples, seed):
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


def _check_roundtrip_and_section_confinement(code, map_, mode, samples, seed):
    """Round trip and section confinement from one forward + inverse pass on digit rows.

    The rows are map_.logical_pieces': exhaustive, each anchor is encoded
    and decoded once, and every row that involves the orientation is
    compared on the full grid of the piece's slots.  export-map composes the
    forward rows into face indices with lin_indices, unchecked, so a face
    digit outside its radix aborts both.  Confinement holds iff the section and
    orientation rows of inverse(forward(i)) are i's; a bad face fails both
    checks.  Each failure names the first slot in sweep order.
    """
    total, radices = map_.n_faces, map_.logical_radices
    # sampled confinement reads a prefix of the round trip's draws: the first k
    k = total if mode == "exhaustive" else min(samples, SAMPLE_CAP)
    trip = leak = None  # the first failure of each check
    # the (logical index, face index) pairs of the sweep's 200 scalar_rows, the face
    # index composed as export-map composes it; the scalar map checks them after the
    # sweep, so that a bulk mismatch is reported first
    spots = []
    for start, logical in map_.logical_pieces(mode, samples, seed):
        shape = np.broadcast_shapes(*(np.shape(row) for row in logical))

        # A position is a slot of the piece in sweep order, where the rows are
        # broadcast to shape and raveled.
        def first(masks):  # (the first position the masks flag, the first mask that flags it)
            return min((np.broadcast_to(m, shape).argmax(), j) for j, m in enumerate(masks) if m.any())

        def entry(row, i):  # the row's entries at positions i
            return np.broadcast_to(row, shape)[np.unravel_index(i, shape)]

        def slot(i, rows=logical, radices=radices):  # the indices the rows compose at positions i
            return lin_indices([entry(row, i) for row in rows], radices)

        rows = map_.forward_digits(logical)  # the face's digit rows, then the logical ones back
        if any(row.min() < 0 or row.max() >= radix for row, radix in zip(rows, map_.face_radices)):
            out = [(row < 0) | (row >= radix) for row, radix in zip(rows, map_.face_radices)]
            i, d = first(out)
            raise ValueError(f"face digit {d} of logical index {slot(i)} is {entry(rows[d], i)},"
                             f" out of range [0, {map_.face_radices[d]})")
        i = scalar_rows(start, np.prod(shape), total if mode == "exhaustive" else samples, 200)
        spots += zip(slot(i).tolist(), slot(i, rows, map_.face_radices).tolist())
        rows, bad = map_.inverse_digits(rows)
        # The orientation is compared apart from the other rows, whose masks fold
        # into one once per orientation-free tuple; a row that involves the
        # orientation is compared on the full grid of slots.
        moved = bad | (rows[0] != logical[0])
        turned = rows[-2] != logical[-2]
        miss = moved
        for row, want in zip(rows[1:-2] + rows[-1:], logical[1:-2] + logical[-1:]):
            miss = miss | (row != want)
        if trip is None and (miss.any() or turned.any()):
            trip = f"round-trip mismatch at logical index {slot(first([miss, turned])[0])}"
        if leak is None and start < k and (moved.any() or turned.any()):
            i, turned_only = first([moved, turned])
            if start + i < k:
                addr = map_.logical_from_lin(int(slot(i)))
                leak = (f"orientation changed at {addr}" if turned_only
                        else f"physical codeword of {addr} leaves section {addr.section}")
    for i, fwd in spots:
        if trip is None and scalar_answer(map_.forward_index, i) != fwd:
            trip = f"scalar/bulk forward disagree at {i}"
        elif trip is None and scalar_answer(map_.inverse_index, fwd) != i:
            trip = f"scalar inverse broken at {i}"
    if mode == "exhaustive":
        passed = f"all {total} slots round-trip; image is a permutation", f"all {k} addresses"
    else:
        passed = f"{samples} sampled slots round-trip", f"{k} sampled addresses"
    return [
        (trip is None, trip or passed[0]),
        (leak is None, leak or f"{passed[1]} stay in their section, orientation intact"),
    ]
