import collections
import itertools
from fractions import Fraction

import numpy as np
import pytest

from leetoric import leecode
from leetoric.checks import (
    SAMPLE_CAP,
    _check_chain_membership,
    _check_codeword_bijection,
    _check_roundtrip_and_section_confinement,
    run_verification,
)
from leetoric.interleave import InterleavingMap
from leetoric.lattice import det_adj, determinant, digits_of, lin_indices
from leetoric.leecode import (
    MAX_SAMPLES,
    SWEEP_CHUNK,
    MinDistanceResult,
    PerfectLeeCode,
    build_generators,
    check_verification_rules,
    generator_matrix,
    sweep,
    weight_w_vectors,
)

from conftest import traced_peak


def in_lattice(rows, x):
    """Exact test: is x an integer combination of the (square, full-rank) rows?"""
    n = len(rows)
    # solve c A = x, i.e. A^T c = x, by Gauss-Jordan over the rationals
    m = [[Fraction(rows[j][i]) for j in range(n)] + [Fraction(x[i])] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[pivot] = m[pivot], m[col]
        m[col] = [v / m[col][col] for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                m[r] = [a - m[r][col] * b for a, b in zip(m[r], m[col])]
    return all(row[-1].denominator == 1 for row in m)


class TestChainMembership:
    def test_valid_code_passes(self, code5):
        for i in range(5):
            assert in_lattice(code5.matrix, [11 if t == i else 0 for t in range(5)])
        ok, detail = _check_chain_membership(code5, None, "exhaustive", 1, 0)
        assert ok
        assert detail == "qZ^n within the lattice; 14641 cosets = q^4"

    def test_doubled_row_fails(self):
        gens = build_generators(5)
        code = PerfectLeeCode(gens._replace(v=tuple(2 * a for a in gens.v)))
        # every row is still orthogonal to h, so no h-only test can see the fault
        assert code.non_orthogonal_rows() == []
        missing = [
            i + 1 for i in range(5)
            if not in_lattice(code.matrix, [11 if t == i else 0 for t in range(5)])
        ]
        assert missing == [2, 4, 5]
        ok, detail = _check_chain_membership(code, None, "exhaustive", 1, 0)
        assert not ok
        assert detail == "|det A| = 22 != q = 11"


class TestMinDistanceReadsGenerators:
    def test_v1_fault_fails_with_weight_one_witness(self):
        # the rows span a lattice of index 7 that contains e_2; h.e_2 = 2,
        # so a membership test that reads only h cannot see it
        gens = build_generators(5)
        code = PerfectLeeCode(gens._replace(v1=(0, 0, 0, 1, 1)))
        assert determinant(code.matrix) == -7
        assert in_lattice(code.matrix, (0, 1, 0, 0, 0))
        assert code.lattice_membership((0, 1, 0, 0, 0))
        rows = {r.name: r for r in run_verification(5, "sampled", samples=2000, code=code)}
        assert not rows["min_distance"].ok
        assert rows["min_distance"].detail == (
            "minimum Mannheim distance 1, witness (0, 1, 0, 0, 0)"
        )

    @pytest.mark.parametrize("n", [5, 6])
    def test_membership_agrees_with_exact_oracle(self, n):
        code = PerfectLeeCode(build_generators(n))
        for w in (1, 2, 3):
            for vec in weight_w_vectors(n, w, code.q):
                assert code.lattice_membership(vec) == in_lattice(code.matrix, vec)

    @pytest.mark.parametrize("kind", ["valid", "corrupt"])
    @pytest.mark.parametrize("n", range(5, 13))
    def test_sparse_search_is_the_dense_search(self, n, kind):
        # the reference is each weight_w_vectors vector dotted with every full adj column;
        # the corrupt code is verify --corrupt-generator's, v_2 with +1 on its last coordinate
        gens = build_generators(n)
        if kind == "corrupt":
            gens = gens._replace(middle=(gens.middle[0][:-1] + (gens.middle[0][-1] + 1,),)
                                 + gens.middle[1:])
        code = PerfectLeeCode(gens)
        for cap in (2, 4):
            assert code.min_mannheim_distance(cap) == dense_search(code, cap)

    def test_sparse_search_is_the_dense_search_on_every_generator_fault(self):
        singular = 0
        for code in generator_faults(5):
            if code.det == 0:
                singular += 1
                for search in (code.min_mannheim_distance, lambda: dense_search(code)):
                    with pytest.raises(ValueError, match="generator matrix is singular"):
                        search()
            else:
                assert code.min_mannheim_distance() == dense_search(code)
        assert singular > 0

    def test_singular_generator_fails_min_distance(self):
        # a singular A has no adjugate, so the sphere search has no membership
        # test: that is the check's verdict, not an abort
        gens = build_generators(5)
        code = PerfectLeeCode(gens._replace(v1=gens.v))
        rows = {r.name: r for r in run_verification(5, "sampled", samples=2000, code=code)}
        assert not rows["min_distance"].ok
        assert rows["min_distance"].detail == (
            "minimum Mannheim distance not searched: generator matrix is singular")


def dense_search(code, radius_cap=4):
    """min_mannheim_distance by the full-length dot of each candidate with every column of adj A."""
    det, adj = det_adj(code.matrix)
    if adj is None:
        raise ValueError("generator matrix is singular")
    for w in range(1, radius_cap + 1):
        for vec in weight_w_vectors(code.n, w, code.q):
            if all(sum(a * b for a, b in zip(vec, col)) % det == 0 for col in zip(*adj)):
                return MinDistanceResult(w, vec, True)
    return MinDistanceResult(radius_cap + 1, None, False)


class TestRunVerification:
    def test_rejects_int64_overflow_before_the_battery(self):
        with pytest.raises(ValueError, match=r"int64 limit 2\^63 - 1"):
            run_verification(13, "sampled", samples=1000)

    @pytest.mark.parametrize("mode", ["sampled", "exhaustive"])
    @pytest.mark.parametrize("samples", [0, -5])
    def test_rejects_samples_below_one(self, mode, samples):
        with pytest.raises(ValueError) as exc:
            run_verification(5, mode, samples=samples)
        assert str(exc.value) == f"samples must be >= 1, got {samples}"

    @pytest.mark.parametrize("mode", ["sampled", "exhaustive"])
    def test_samples_limit(self, mode):
        # the rule alone: a sweep of MAX_SAMPLES rows takes ~36 s at n = 12
        check_verification_rules(12 if mode == "sampled" else 5, mode, MAX_SAMPLES, 0)
        with pytest.raises(ValueError) as exc:
            run_verification(5, mode, samples=MAX_SAMPLES + 1)
        assert str(exc.value) == f"samples must be <= 100000000, got {MAX_SAMPLES + 1}"

    @pytest.mark.parametrize("n", [8, 13])
    def test_rejects_exhaustive_above_n5(self, n):
        with pytest.raises(ValueError) as exc:
            run_verification(n, "exhaustive")
        assert str(exc.value) == (
            "exhaustive verification is only supported for n <= 7; use --mode sampled"
        )


class TestFaultsFailTheirCheck:
    def test_doubled_v_fails_determinant(self):
        gens = build_generators(5)
        code = PerfectLeeCode(gens._replace(v=tuple(2 * a for a in gens.v)))
        rows = {r.name: r for r in run_verification(5, "sampled", samples=2000, code=code)}
        assert not rows["determinant"].ok
        assert rows["determinant"].detail == "det A = -22, expected |det| = q = 11"

    def test_v1_fault_fails_section_distance(self):
        gens = build_generators(5)
        code = PerfectLeeCode(gens._replace(v1=(0, 0, 0, 1, 1)))
        rows = {r.name: r for r in run_verification(5, "sampled", samples=2000, code=code)}
        assert not rows["section_distance"].ok
        assert rows["section_distance"].detail == "cross-section subcode distance 1, expected 4"

    def test_swapped_peel_schedule_fails_the_kernel_checks(self, monkeypatch):
        # the fault goes in where the peel matrix is built, so decode and
        # rank_of share the schedule: scalar and bulk agree on the wrong
        # digits, and only the certificates can see the fault
        schedule = leecode._peel_schedule

        def swapped(n):
            peel = list(schedule(n))
            peel[1], peel[2] = peel[2], peel[1]
            return tuple(peel)

        monkeypatch.setattr(leecode, "_peel_schedule", swapped)
        code = generator_matrix(6)
        digits = digits_of(np.arange(0, code.n_codewords, 997), (code.q,) * 5)
        points = code.encode(digits, np.zeros(digits.shape[1], dtype=np.int64))
        peeled = np.array(code.decode(points)[0])
        assert not np.array_equal(peeled, digits)
        assert peeled.T.tolist() == [code._peel(pt)[0] for pt in zip(*(c.tolist() for c in points))]
        rows = {r.name: r for r in run_verification(6, "sampled", samples=2000, code=code)}
        for name in ("codeword_bijection", "packing", "roundtrip", "section_confinement"):
            assert not rows[name].ok, name
        for name in ("determinant", "orthogonality", "residue_coverage", "min_distance"):
            assert rows[name].ok, name

    def test_encode_outside_the_radix_fails_roundtrip(self, monkeypatch, map5):
        # q in place of 0 on the last anchor row: decode reduces it back to 0, so
        # the digit round trip holds, while the composed export index is another face
        draws = np.random.default_rng(0).integers(0, map5.n_faces, size=2000)
        first = draws[map5.forward_indices(draws) // map5.alpha % map5.q == 0][0]
        encode = PerfectLeeCode.encode

        def wrapped(self, digits, slot):
            anchor = encode(self, digits, slot)
            anchor[-1] = np.where(anchor[-1] == 0, self.q, anchor[-1])
            return anchor

        monkeypatch.setattr(PerfectLeeCode, "encode", wrapped)
        rows = {r.name: r for r in run_verification(5, "sampled", samples=2000, code=map5.code)}
        assert not rows["roundtrip"].ok
        assert rows["roundtrip"].detail == f"round-trip mismatch at logical index {first}"

    def test_oracle_fault_in_the_last_section_fails_the_bijection(self, monkeypatch, code5):
        # the scalar rows are every 15th of the 11^4 codewords, so they reach
        # section q - 1, whose first is index 888 * 15 = 10 * 11^3 + 10
        codeword_from_rank = PerfectLeeCode.codeword_from_rank

        def moved(self, j, r):
            cw = codeword_from_rank(self, j, r)
            if j == self.q - 1:
                cw = cw._replace(point=((cw.point[0] + 1) % self.q, *cw.point[1:]))
            return cw

        monkeypatch.setattr(PerfectLeeCode, "codeword_from_rank", moved)
        assert _check_codeword_bijection(code5, None, "exhaustive", 1, 0) == (
            False, "scalar codeword_from_rank disagrees with encode at (j=10, r=10)")

    def test_scalar_map_fault_in_the_last_section_fails_roundtrip(self, monkeypatch, map5):
        # the round trip's 200 scalar rows are every 8053rd slot of its own sweep,
        # so they reach section q - 1, whose slots start at 10 * 11^3 * 10 * 11
        forward_index = InterleavingMap.forward_index

        def shifted(self, i):
            return forward_index(self, i) + (i >= self.n_faces // self.q * (self.q - 1))

        monkeypatch.setattr(InterleavingMap, "forward_index", shifted)
        (trip_ok, trip), (leak_ok, _) = _check_roundtrip_and_section_confinement(
            map5.code, map5, "exhaustive", 1, 0)
        assert (trip_ok, leak_ok) == (False, True)
        assert trip == f"scalar/bulk forward disagree at {182 * 8053}"

    def test_oracle_that_raises_disagrees_with_the_bijection(self):
        # +1 on the section row's first support entry: the scalar rows, every
        # 15th codeword, first reach section 1 at index 89 * 15 = 11^3 + 4, where
        # rank_of raises on the true point and codeword_from_rank gives another;
        # that is the oracle disagreeing, not the check aborting, and the detail
        # names rank_of, the direction checked first
        code = next(oracle_faults(5))
        rows = {r.name: (r.ok, r.detail) for r in run_verification(5, "exhaustive", 1, code=code)}
        assert rows["codeword_bijection"] == (
            False, "scalar rank_of disagrees with decode at (j=1, r=4)")
        # confinement's verdict is the bulk pass's alone
        assert rows["section_confinement"] == (
            True, "all 1610510 addresses stay in their section, orientation intact")

    def test_scalar_inverse_that_raises_fails_roundtrip(self, monkeypatch, map5):
        # one of the round trip's scalar rows in section q - 1, whose slots
        # start at 10 * 11^3 * 10 * 11, has an inverse_index that raises
        target = 182 * 8053
        inverse_index = InterleavingMap.inverse_index

        def raising(self, face):
            i = inverse_index(self, face)
            if i == target:
                raise ValueError(f"face {face} is on no codeword sphere")
            return i

        monkeypatch.setattr(InterleavingMap, "inverse_index", raising)
        results = run_verification(5, "exhaustive", 1, code=map5.code)
        rows = {r.name: (r.ok, r.detail) for r in results}
        assert rows["roundtrip"] == (False, f"scalar inverse broken at {target}")
        assert rows["section_confinement"] == (
            True, "all 1610510 addresses stay in their section, orientation intact")


class TestResidueCoverageReadsSlotTable:
    def test_swapped_slot_table_fails(self):
        # h still covers Z_q, so a check that reads only h cannot see this fault
        code = PerfectLeeCode(build_generators(5))
        code._slot_of = code._slot_of.copy()
        code._slot_of[[1, 2]] = code._slot_of[[2, 1]]
        assert code.syndrome_residues() == list(range(11))
        rows = {r.name: r for r in run_verification(5, "sampled", samples=2000, code=code)}
        assert not rows["residue_coverage"].ok
        assert rows["residue_coverage"].detail == (
            "_slot_of[1] = 3, whose offset (0, 1, 0, 0, 0) has syndrome 2"
        )

    def test_non_permutation_table_fails(self):
        code = PerfectLeeCode(build_generators(5))
        code._slot_of = code._slot_of.copy()
        code._slot_of[1] = 0
        rows = {r.name: r for r in run_verification(5, "sampled", samples=2000, code=code)}
        assert rows["residue_coverage"].detail == (
            "_slot_of = [0, 0, 3, 5, 7, 9, 10, 8, 6, 4, 2] is not a permutation of range(11)"
        )

    def test_valid_code_detail_unchanged(self, code5):
        rows = {r.name: r for r in run_verification(5, "sampled", samples=2000, code=code5)}
        assert rows["residue_coverage"].ok
        assert rows["residue_coverage"].detail == (
            "{0} u {+-h_i} mod q = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10]"
        )


def piece_offsets(pieces):
    """The offset of each piece in the sweep: the summed lengths of the pieces before it."""
    return [sum(len(piece) for piece in pieces[:i]) for i in range(len(pieces))]


class TestSweepPieces:
    @pytest.mark.parametrize("n", [5, 8])
    def test_sampled_pieces_are_the_one_shot_draw(self, n):
        # n = 5 has fewer than 2^32 faces, so numpy draws 32-bit values; n = 8 more
        total = InterleavingMap(generator_matrix(n)).n_faces
        assert (total < 2**32) == (n == 5)
        k = 3 * SWEEP_CHUNK + 123
        starts, pieces = zip(*sweep(total, "sampled", k, 7))
        assert [len(piece) for piece in pieces] == [SWEEP_CHUNK] * 3 + [123]
        assert list(starts) == piece_offsets(pieces)
        one_shot = np.random.default_rng(7).integers(0, total, size=k, dtype=np.int64)
        assert np.array_equal(np.concatenate(pieces), one_shot)

    def test_exhaustive_pieces_are_the_range(self):
        starts, pieces = zip(*sweep(2 * SWEEP_CHUNK + 5))
        assert [len(piece) for piece in pieces] == [SWEEP_CHUNK] * 2 + [5]
        assert list(starts) == piece_offsets(pieces)
        assert np.array_equal(np.concatenate(pieces), np.arange(2 * SWEEP_CHUNK + 5))

    @pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
    def test_each_piece_is_a_fresh_array(self, mode):
        # export-map and the round trip hold a piece while the next one is made
        prev = None
        for _, cur in sweep(2 * SWEEP_CHUNK + 5, mode, 3 * SWEEP_CHUNK + 7, 5):
            assert prev is None or not np.shares_memory(prev, cur)
            prev = cur

    @pytest.mark.parametrize(
        ("position", "leaks"),
        [(SAMPLE_CAP - 1, True), (SAMPLE_CAP, False), (SWEEP_CHUNK + 10, False)],
        ids=["last-in-prefix", "first-after-prefix", "second-piece"],
    )
    def test_confinement_reads_only_its_prefix(self, monkeypatch, map5, position, leaks):
        samples, seed = 2 * SWEEP_CHUNK, 4
        draws = np.random.default_rng(seed).integers(0, map5.n_faces, size=samples).tolist()
        target = draws[position]
        # the fault moves one logical index, first drawn at position
        assert draws.index(target) == position
        inverse = InterleavingMap.inverse_digits

        def moved(self, face):
            # the target comes back one section further on
            back, bad = inverse(self, face)
            hit = lin_indices(back, self.logical_radices) == target
            back[0] = np.where(hit, (back[0] + 1) % self.q, back[0])
            return back, bad

        monkeypatch.setattr(InterleavingMap, "inverse_digits", moved)
        (trip_ok, trip), (leak_ok, leak) = _check_roundtrip_and_section_confinement(
            map5.code, map5, "sampled", samples, seed
        )
        assert not trip_ok and trip == f"round-trip mismatch at logical index {target}"
        assert leak_ok is not leaks
        if leaks:
            assert leak.endswith(f"leaves section {target // (map5.n_faces // map5.q)}")
        else:
            assert leak == f"{SAMPLE_CAP} sampled addresses stay in their section, orientation intact"


    @pytest.mark.parametrize(("n", "bound_mb"), [(8, 5), (12, 7)])
    def test_sampled_roundtrip_memory_is_bounded(self, n, bound_mb):
        # 10^6 slots walked in SWEEP_CHUNK pieces: 2^15-row pieces peaked at 4.01 / 5.60 MB,
        # 2^16-row ones at 7.9-8.6 / 11.1 MB
        map_ = InterleavingMap(generator_matrix(n))
        (trip, leak), peak = traced_peak(lambda: _check_roundtrip_and_section_confinement(
            map_.code, map_, "sampled", 10**6, 0))
        assert trip == (True, f"{10**6} sampled slots round-trip") and leak[0]
        assert peak < bound_mb * 10**6


def generator_faults(n):
    """+-1 in each entry of each generator row."""
    gens = build_generators(n)
    rows = [list(row) for row in gens.rows()]
    for i, j, step in itertools.product(range(n), range(n), (1, -1)):
        rows[i][j] += step
        yield PerfectLeeCode(gens._replace(
            v=tuple(rows[0]), v1=tuple(rows[1]),
            middle=tuple(map(tuple, rows[2:-1])), v_last=tuple(rows[-1]),
        ))
        rows[i][j] -= step


def term_faults(n, table):
    """+1 mod q in each entry of one of the kernel's term tables."""
    terms = getattr(generator_matrix(n), table)
    for c, column in enumerate(terms):
        for t, (row, entry) in enumerate(column):
            code = generator_matrix(n)
            faulty = [list(col) for col in terms]
            faulty[c][t] = (row, (entry + 1) % code.q)
            setattr(code, table, tuple(map(tuple, faulty)))
            yield code


def slot_faults(n):
    """Each swap of _slot_of[0] with another entry."""
    for j in range(1, 2 * n + 1):
        code = generator_matrix(n)
        code._slot_of = code._slot_of.copy()
        code._slot_of[[0, j]] = code._slot_of[[j, 0]]
        yield code


def array_faults(n, table, entries):
    """+1 mod q in each of the given entries of one of the kernel's array tables."""
    for e in entries:
        code = generator_matrix(n)
        faulty = getattr(code, table).copy()
        faulty[e] = (faulty[e] + 1) % code.q
        setattr(code, table, faulty)
        yield code


def oracle_faults(n):
    """+-1 in the entry (not the coordinate) of each pair of each digit row's
    support, the scalar oracle's one table."""
    rows = generator_matrix(n)._digit_support
    for r, row in enumerate(rows):
        for t, step in itertools.product(range(len(row)), (1, -1)):
            code = generator_matrix(n)
            faulty = [list(x) for x in rows]
            coordinate, entry = faulty[r][t]
            faulty[r][t] = (coordinate, entry + step)
            code._digit_support = tuple(map(tuple, faulty))
            yield code


FAULTS = {
    "generator": generator_faults,
    "_slot_of": slot_faults,
    "_digit_support": oracle_faults,
    # the slot-shift tables: entry i is the slot that moves coordinate i
    "_plus_slots": lambda n: array_faults(n, "_plus_slots", range(n)),
    "_minus_slots": lambda n: array_faults(n, "_minus_slots", range(n)),
}
ORACLE = ("codeword_bijection", "packing", "roundtrip")  # the checks that consult the scalar oracle
KERNEL = (*ORACLE, "section_confinement")
TABLES = ("_row_terms", "_peel_terms", "_syndrome_terms", "_slot_of", "_plus_slots",
          "_minus_slots", "_digit_support")


class TestFaultSweep:
    """Every single-entry fault in the generator, a kernel table or an oracle table fails a check.

    Each case injects every fault of one class into a fresh code and runs
    ``run_verification`` on it, sampled with few samples where that still
    reaches every fault, exhaustive for the n = 5 oracle tables.  Each
    fault must fail at least one check, and the number of faults that each
    check fails is pinned, so a check that goes vacuous changes the table:

    ===================  ======  ===  ====  ===  =====  ===  ====  ====  ====  ====  ====
    class (n = 5)        faults  det  orth  res  chain  bij  mind  secd  pack  trip  conf
    ===================  ======  ===  ====  ===  =====  ===  ====  ====  ====  ====  ====
    generator +-1        50      28   50         50     40   39    20    40    40    40
    _row_terms +1        11                             11               11    11    11
    _peel_terms +1       6                              6                6     6     6
    _syndrome_terms +1   5                              5                5     5     5
    _slot_of swaps       10                10           10               10    10    10
    _plus_slots +1       5                                               5     5
    _minus_slots +1      5                              1                5     5     5
    _digit_support +-1   22                             22               22    22
    ===================  ======  ===  ====  ===  =====  ===  ====  ====  ====  ====  ====

    At n = 8 the kernel tables show the same pattern (29, 12, 8, 16, 8 and
    8 faults), and every fault of the oracle table (58) fails the codeword
    bijection, packing and roundtrip too.  Every check fails on some class.
    Orthogonality and chain_membership fail on every generator fault, and
    roundtrip with packing or section_confinement on every kernel-table
    fault.  The oracle table, the digit rows' supports that
    ``codeword_from_rank`` adds up and ``_peel`` subtracts for ``rank_of``
    and ``tile_assign``, is the scalar side of the cross-checks, so its
    faults show that the cross-checks can fail.  They leave
    section_confinement passing: its verdict is the bulk pass's alone, and
    the counts it once had on them were the round trip's oracle raising
    and aborting both checks, where an oracle that raises now disagrees.
    ``_plus_slots`` and ``_minus_slots`` are the slot-shift tables that
    encode, decode and the burst placement of ``simulate`` and
    ``make_burst`` all read, so the certificates cover placement too.
    """

    @pytest.mark.parametrize(("n", "kind", "mode", "samples", "expected"), [
        (5, "generator", "sampled", 200, {
            "determinant": 28, "orthogonality": 50, "chain_membership": 50,
            "codeword_bijection": 40, "min_distance": 39, "section_distance": 20,
            "packing": 40, "roundtrip": 40, "section_confinement": 40}),
        (5, "_row_terms", "sampled", 200, dict.fromkeys(KERNEL, 11)),
        (5, "_peel_terms", "sampled", 200, dict.fromkeys(KERNEL, 6)),
        (5, "_syndrome_terms", "sampled", 200, dict.fromkeys(KERNEL, 5)),
        (5, "_slot_of", "sampled", 200, dict.fromkeys(("residue_coverage", *KERNEL), 10)),
        (5, "_plus_slots", "sampled", 200, {"packing": 5, "roundtrip": 5}),
        (5, "_minus_slots", "sampled", 200, {
            "codeword_bijection": 1, "packing": 5, "roundtrip": 5, "section_confinement": 5}),
        (5, "_digit_support", "exhaustive", 1, dict.fromkeys(ORACLE, 22)),
        (8, "_row_terms", "sampled", 200, dict.fromkeys(KERNEL, 29)),
        (8, "_peel_terms", "sampled", 200, dict.fromkeys(KERNEL, 12)),
        (8, "_syndrome_terms", "sampled", 200, dict.fromkeys(KERNEL, 8)),
        (8, "_slot_of", "sampled", 200, dict.fromkeys(("residue_coverage", *KERNEL), 16)),
        (8, "_plus_slots", "sampled", 200, {"packing": 8, "roundtrip": 8}),
        (8, "_minus_slots", "sampled", 200, {
            "codeword_bijection": 1, "packing": 8, "roundtrip": 8, "section_confinement": 8}),
        (8, "_digit_support", "sampled", 200, dict.fromkeys(ORACLE, 58)),
    ], ids=[f"n5-{kind}" for kind in ("generator", *TABLES)] + [f"n8-{kind}" for kind in TABLES])
    def test_every_fault_fails_a_check(self, n, kind, mode, samples, expected):
        failures = collections.Counter()
        faults = FAULTS[kind](n) if kind in FAULTS else term_faults(n, kind)
        for i, code in enumerate(faults):
            results = run_verification(n, mode, samples=samples, code=code)
            failed = [r.name for r in results if not r.ok]
            assert failed, f"{kind} fault {i} passes every check"
            assert not any(r.detail.startswith("check aborted") for r in results)
            failures.update(failed)
        assert dict(failures) == expected
