import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leetoric.lattice import (
    determinant,
    digits_of,
    hypercube_from_lin,
    hypercube_lin_index,
    lin_indices,
    mannheim_weight,
)
from leetoric import lattice, leecode
from leetoric.leecode import (
    N_LIMITS,
    PerfectLeeCode,
    build_generators,
    check_n,
    generator_matrix,
    weight_w_vectors,
)
from leetoric.toric import code_params

from conftest import lee_distance, traced_peak


class TestCheckFunctional:
    def test_n5(self, code5):
        assert code5.h == (1, 2, 3, 4, 5)

    def test_annihilates_printed_generator(self, code5):
        # h . (0,0,0,1,8) = 4 + 40 = 44 = 0 mod 11
        assert sum(a * b for a, b in zip(code5.h, (0, 0, 0, 1, 8))) % 11 == 0

    @pytest.mark.parametrize("n", [5, 7, 12])
    def test_residues_cover_zq(self, n):
        assert generator_matrix(n).syndrome_residues() == list(range(2 * n + 1))


class TestBuildGenerators:
    def test_n5_rows_exact(self):
        gens = build_generators(5)
        assert gens.v == (0, 0, 0, 1, 8)
        assert gens.v1 == (0, 0, 0, 1, -3)
        assert gens.v_last == (1, 0, 0, 0, 2)
        assert gens.middle == ((0, 1, 1, 1, -4), (0, 0, 1, 1, 3))

    def test_rejects_n4(self):
        with pytest.raises(ValueError, match="unsupported dimension"):
            build_generators(4)

    @pytest.mark.parametrize("use", sorted(N_LIMITS))
    def test_check_n_accepts_each_limit_and_rejects_one_past_it(self, use):
        limit, message = N_LIMITS[use]
        assert check_n(use, np.int64(limit)) == limit
        with pytest.raises(ValueError) as exc:
            check_n(use, limit + 1)
        assert str(exc.value) == message.format(n=limit + 1, limit=limit)
        assert f"n <= {limit}" in str(exc.value)

    @pytest.mark.parametrize("n", range(5, 13))
    def test_orthogonality(self, n):
        gens = build_generators(n)
        h = range(1, n + 1)
        for row in gens.rows():
            assert sum(a * b for a, b in zip(h, row)) % gens.q == 0

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_second_to_last_coordinate_value(self, n):
        # the last coordinate of v_{n-2} equals 2n - 7 while that value
        # is still the centered representative (true up to n = 7)
        gens = build_generators(n)
        assert gens.middle[-1][-1] == 2 * n - 7

    @pytest.mark.parametrize("n", range(5, 13))
    def test_middle_support_pattern(self, n):
        gens = build_generators(n)
        for k, row in enumerate(gens.middle, start=2):
            ones = [i + 1 for i, x in enumerate(row[:-1]) if x == 1]
            assert ones == list(range(k, n))
            zeros = [x for i, x in enumerate(row[:-1]) if i + 1 not in ones]
            assert all(x == 0 for x in zeros)


class TestGeneratorMatrix:
    def test_det_n5_is_minus_q(self, code5):
        assert determinant(code5.matrix) == -11

    @pytest.mark.parametrize("n", range(5, 13))
    def test_det_abs_equals_q(self, n):
        code = generator_matrix(n)
        assert abs(determinant(code.matrix)) == 2 * n + 1

    def test_row_order(self, code5):
        gens = code5.generators
        assert code5.matrix == (gens.v, gens.v1) + gens.middle + (gens.v_last,)

    def test_alpha(self, code5):
        assert code5.alpha == 10

    @pytest.mark.parametrize("n", [5, 8, 40])
    def test_code_params_runs_one_elimination(self, n, monkeypatch):
        original, calls = lattice.det_adj, []
        for module in (lattice, leecode):  # every binding of det_adj in the package
            monkeypatch.setattr(module, "det_adj", lambda rows: calls.append(rows) or original(rows))
        assert code_params(n).d == 3
        assert len(calls) == 1

    def test_singular_code_has_det_zero(self):
        gens = build_generators(5)
        code = PerfectLeeCode(gens._replace(v1=gens.v))
        assert code.det == 0
        with pytest.raises(ValueError, match="generator matrix is singular"):
            code.lattice_membership((0,) * 5)


class TestLatticeMembership:
    def test_scaled_units_inside(self, code5):
        for i in range(5):
            vec = tuple(11 if t == i else 0 for t in range(5))
            assert code5.lattice_membership(vec)

    def test_generator_sum_inside(self, code5):
        gens = code5.generators
        vec = tuple(a + b for a, b in zip(gens.v, gens.v1))
        assert code5.lattice_membership(vec)

    def test_unit_vector_outside(self, code5):
        assert not code5.lattice_membership((1, 0, 0, 0, 0))

    def test_dimension_checked(self, code5):
        with pytest.raises(ValueError):
            code5.lattice_membership((1, 2, 3))


class TestCodewordEnumeration:
    def test_rank_zero_is_zero_codeword(self, code5):
        assert code5.codeword_from_rank(0, 0).point == (0,) * 5

    def test_rank_one_steps_by_v(self, code5):
        assert code5.codeword_from_rank(0, 1).point == (0, 0, 0, 1, 8)

    def test_section_one_starts_at_v_last(self, code5):
        assert code5.codeword_from_rank(1, 0).point == (1, 0, 0, 0, 2)

    def test_out_of_range(self, code5):
        with pytest.raises(ValueError):
            code5.codeword_from_rank(11, 0)
        with pytest.raises(ValueError):
            code5.codeword_from_rank(0, 11**3)

    def test_exhaustive_bijection_n5(self, code5):
        points = set()
        for j, r in itertools.product(range(11), range(11**3)):
            cw = code5.codeword_from_rank(j, r)
            assert code5.syndrome(cw.point) == 0
            assert cw.section == cw.point[0]
            assert code5.rank_of(cw.point) == (cw.section, cw.rank)
            points.add(cw.point)
        assert len(points) == 11**4

    @pytest.mark.parametrize("n", [6, 7])
    def test_sampled_roundtrip(self, n):
        code = generator_matrix(n)
        rnd = random.Random(n)
        for _ in range(2000):
            j = rnd.randrange(code.q)
            r = rnd.randrange(code.codewords_per_section)
            cw = code.codeword_from_rank(j, r)
            assert code.syndrome(cw.point) == 0
            assert code.rank_of(cw.point) == (j, r)

    def test_rank_of_rejects_non_codeword(self, code5):
        with pytest.raises(ValueError, match="not a codeword"):
            code5.rank_of((1, 0, 0, 0, 0))


class TestSyndromeDecode:
    def test_syndrome_examples(self, code5):
        assert code5.syndrome((0,) * 5) == 0
        assert code5.syndrome((0, 0, 1, 0, 0)) == 3
        assert code5.syndrome((0, 0, 1, 1, 8)) == 3

    def test_decode_codeword_fixed_point(self, code5):
        cw, err = code5.decode_single((0, 0, 0, 1, 8))
        assert cw.point == (0, 0, 0, 1, 8)
        assert err == (0,) * 5

    def test_decode_positive_unit(self, code5):
        cw, err = code5.decode_single((0, 0, 1, 1, 8))
        assert cw.point == (0, 0, 0, 1, 8)
        assert err == (0, 0, 1, 0, 0)

    def test_decode_negative_unit(self, code5):
        cw, err = code5.decode_single((0, 0, 0, 0, 10))
        assert cw.point == (0,) * 5
        assert err == (0, 0, 0, 0, -1)

    def test_decode_inverts_all_unit_errors(self, code5):
        # exhaustive in the error, random over codewords
        rnd = random.Random(99)
        errors = [(0,) * 5]
        for i in range(5):
            for sign in (1, -1):
                e = [0] * 5
                e[i] = sign
                errors.append(tuple(e))
        for _ in range(10**4):
            j = rnd.randrange(11)
            r = rnd.randrange(11**3)
            cw = code5.codeword_from_rank(j, r)
            for err in errors:
                noisy = tuple((c + e) % 11 for c, e in zip(cw.point, err))
                decoded, found = code5.decode_single(noisy)
                assert decoded.point == cw.point
                assert found == err


@pytest.mark.parametrize("call", [
    lambda code: code.syndrome((1,)),
    lambda code: code.rank_of((0,) * 6),
    lambda code: code.rank_of((0,) * 4),
    lambda code: code.tile_assign((0,) * 6),
    lambda code: code.tile_assign((1, 2)),
    lambda code: code.decode_single((0,) * 7),
    lambda code: code.lattice_membership((0,) * 6),
], ids=["syndrome", "rank_of-long", "rank_of-short", "tile_assign-long", "tile_assign-short",
        "decode_single", "lattice_membership"])
def test_wrong_length_is_rejected(code5, call):
    with pytest.raises(ValueError, match=r"^expected length 5, got \d$"):
        call(code5)


class TestTileAssign:
    def test_origin(self, code5):
        cw, slot = code5.tile_assign((0,) * 5)
        assert cw.point == (0,) * 5
        assert slot == 0

    def test_unit_neighbour(self, code5):
        cw, slot = code5.tile_assign((1, 0, 0, 0, 0))
        assert cw.point == (0,) * 5
        assert slot == 1

    def test_codeword_center(self, code5):
        cw, slot = code5.tile_assign((0, 0, 0, 1, 8))
        assert cw.point == (0, 0, 0, 1, 8)
        assert slot == 0

    def test_within_distance_one(self, code5):
        rnd = random.Random(4)
        for _ in range(500):
            z = tuple(rnd.randrange(11) for _ in range(5))
            cw, _slot = code5.tile_assign(z)
            assert lee_distance(z, cw.point, 11) <= 1


class TestBulkKernel:
    def test_decode_matches_scalar_tile_assign(self, code5):
        # Every one of the 11^5 hypercubes: the full scalar reference sweep.
        rows = list(itertools.product(range(11), repeat=5))
        digits, slot, bad = code5.decode(np.array(rows, dtype=np.int16).T.copy())
        assert not bad.any()
        rank = lin_indices(digits[1:], (11,) * 3)
        bulk = zip(digits[0].tolist(), rank.tolist(), slot.tolist())
        for row, want in zip(rows, bulk):
            cw, slot = code5.tile_assign(tuple(row))
            assert (cw.section, cw.rank, slot) == want

    @pytest.mark.parametrize("n", [5, 6, 9])
    def test_encode_inverts_decode(self, n):
        code = generator_matrix(n)
        rng = np.random.default_rng(n)
        section = rng.integers(0, code.q, size=2000, dtype=np.int64)
        rank = rng.integers(0, code.codewords_per_section, size=2000, dtype=np.int64)
        slot = rng.integers(0, code.q, size=2000, dtype=np.int64)
        index = section * code.codewords_per_section + rank
        digits = digits_of(index, (code.q,) * (n - 1))
        anchor = code.encode(digits, slot)
        for i in range(0, 2000, 97):
            cw = code.codeword_from_rank(int(section[i]), int(rank[i]))
            assert tuple(int(c[i]) for c in anchor) == tuple(
                (c + d) % code.q for c, d in zip(cw.point, code.offsets[slot[i]])
            )
        back = code.decode(anchor)
        for got, want in zip((np.array(back[0]), back[1]), (digits, slot)):
            assert np.array_equal(got, want)
        assert not back[2].any()

    def test_decode_reports_points_off_the_lattice(self):
        gens = build_generators(5)
        middle = list(gens.middle)
        middle[0] = middle[0][:-1] + (middle[0][-1] + 1,)
        bad_code = PerfectLeeCode(gens._replace(middle=tuple(middle)))
        rng = np.random.default_rng(7)
        z = rng.integers(0, 11, size=(500, 5), dtype=np.int64).T.astype(np.int16, order="C")
        bad = bad_code.decode(z)[2]
        assert bad.any() and not bad.all()
        for i in range(500):
            zt = tuple(int(x) for x in z[:, i])
            if bad[i]:
                with pytest.raises(ValueError, match="not a codeword"):
                    bad_code.tile_assign(zt)
            else:
                bad_code.tile_assign(zt)


ARRAY_TABLES = ("_slot_of", "_dtype", "_plus_slots", "_minus_slots")


@pytest.mark.parametrize("n", [5, 12, 19, 20])
def test_array_tables_do_not_depend_on_the_first_call(n):
    # the tables are built on first read: one code reads them first from the
    # scalar tile_assign, the other from the bulk decode
    scalar, bulk = generator_matrix(n), generator_matrix(n)
    assert not set(ARRAY_TABLES) & vars(scalar).keys()
    scalar.tile_assign((1,) + (0,) * (n - 1))
    bulk.decode(np.zeros((n, 3), dtype=np.int16))
    for name in ARRAY_TABLES:
        a, b = getattr(scalar, name), getattr(bulk, name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        else:  # _dtype
            assert a is b, name
    assert np.array_equal(scalar._minus_slots, scalar._plus_slots + 1)
    assert scalar._slot_of.dtype == np.int16


CODES = {n: generator_matrix(n) for n in range(5, 21)}


class TestBulkKernelProperty:
    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(5, 12), data=st.data())
    def test_encode_is_the_scalar_map_and_decode_inverts_it(self, n, data):
        code = CODES[n]
        q, per_section = code.q, code.codewords_per_section
        triples = data.draw(st.lists(
            st.tuples(st.integers(0, q - 1), st.integers(0, per_section - 1), st.integers(0, q - 1)),
            max_size=20,
        ))
        # the largest rank and the last slot are always among the cases
        triples += [(q - 1, per_section - 1, q - 1), (0, per_section - 1, 0), (0, 0, q - 1)]
        section, rank, slot = (np.array(c, dtype=np.int64) for c in zip(*triples))
        digits = digits_of(section * per_section + rank, (q,) * (n - 1))
        anchor = code.encode(digits, slot)
        for (j, r, s), row in zip(triples, zip(*(c.tolist() for c in anchor))):
            point = code.codeword_from_rank(j, r).point
            assert row == tuple((c + d) % q for c, d in zip(point, code.offsets[s]))
        back = code.decode(anchor)
        for got, want in zip((np.array(back[0]), back[1]), (digits, slot)):
            assert np.array_equal(got, want)
        assert not back[2].any()
        # the one syndrome -> slot table inverts the offsets' syndromes
        assert sorted(code._slot_of.tolist()) == list(range(q))
        for s in range(q):
            offset = code.offsets[code._slot_of[s]]
            assert code.syndrome([d % q for d in offset]) == s
        # syndrome 0 and no other picks slot 0, the zero offset, so a nonzero
        # slot from decode is a nonzero syndrome
        for c in CODES.values():
            assert c._slot_of[0] == 0 and np.count_nonzero(c._slot_of == 0) == 1

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(5, 20), data=st.data())
    def test_digit_columns_in_every_dimension(self, n, data):
        # digits drawn as columns, with no int64 index in between, so this
        # reaches n = 13..19 on int16 columns and n = 20 on int64
        code = CODES[n]
        q = code.q
        rows = data.draw(st.lists(
            st.tuples(st.lists(st.integers(0, q - 1), min_size=n - 1, max_size=n - 1),
                      st.integers(0, q - 1)),
            max_size=20,
        ))
        # every digit at its largest, and every digit zero, in the last slot
        rows += [([q - 1] * (n - 1), q - 1), ([0] * (n - 1), q - 1), ([q - 1] * (n - 1), 0)]
        digits = np.array([d for d, _ in rows], dtype=np.int16).T
        slot = np.array([s for _, s in rows], dtype=np.int16)
        anchor = code.encode(digits, slot)
        for (d, s), row in zip(rows, zip(*(c.tolist() for c in anchor))):
            point = code.codeword_from_rank(d[0], hypercube_lin_index(d[1:], q)).point
            assert row == tuple((c + o) % q for c, o in zip(point, code.offsets[s]))
        back = code.decode(anchor)
        assert np.array_equal(np.array(back[0]), digits)
        assert np.array_equal(back[1], slot)
        assert not back[2].any()


def received_sums(code):
    """The extreme sums each of the kernel's reductions is given, by name.

    From its terms and the range of its inputs: anchors and digits are
    residues, the decoded point is in [-1, q], and a slot offset moves a
    coordinate by 1.
    """
    q = code.q

    def extremes(terms, lo, hi):
        weights = [sum(a for _, a in column) for column in terms]
        return min(lo * w for w in weights), max(hi * w for w in weights)

    lo, hi = extremes(code._row_terms, 0, q - 1)
    return {
        "syndrome": extremes(code._syndrome_terms, 0, q - 1),
        "encode": (lo - 1, hi + 1),
        "peel": extremes(code._peel_terms, -1, q),
        "rest": (lo - q, hi + 1),
    }


class TestColumnBound:
    """The kernel's column sums, of magnitude below n q^2 + 2q.

    n = 12 is the largest dimension of the bulk maps, 19 the last whose
    sums fit int16, 20 the first that runs on int64 sums, and 91 the first
    where a product of two residues passes int16.
    """

    def test_int16_runs_up_to_n19(self):
        assert CODES[19]._dtype is np.int16
        assert CODES[20]._dtype is np.int64

    @pytest.mark.parametrize("n", range(5, 20))
    def test_every_reduction_stays_in_the_table(self, n):
        code = CODES[n]
        q, bound = code.q, n * code.q**2 + 2 * code.q
        assert bound <= 2**15
        for name, (low, high) in received_sums(code).items():
            assert -bound < low and high < bound, name
        # every int16 sum in the bound, where s // q * q may wrap mod 2^16
        sums = np.arange(-bound + 1, bound)
        got = code._reduce(sums.astype(np.int16))
        assert got.dtype == np.int16
        assert np.array_equal(got, sums % q)
        # burst placement's int64 sums narrow to the same int16 column
        wide = code._reduce(sums)
        assert wide.dtype == np.int16 and np.array_equal(wide, got)

    @pytest.mark.parametrize("n", [20, 91])
    def test_int64_extremes_reduce(self, n):
        code = CODES.get(n) or generator_matrix(n)
        q, bound = code.q, n * code.q**2 + 2 * code.q
        assert code._dtype is np.int64
        received = received_sums(code)
        extremes = [-bound + 1, bound - 1, *itertools.chain(*received.values())]
        for name, (low, high) in received.items():
            assert -bound < low and high < bound, name
        got = code._reduce(np.array(extremes, dtype=np.int64))
        assert got.dtype == np.int64
        assert got.tolist() == [s % q for s in extremes]

    @pytest.mark.parametrize("n", [12, 19, 20, 91])
    def test_decode_extreme_anchors_match_tile_assign(self, n):
        code = CODES.get(n) or generator_matrix(n)
        q = code.q
        rows = [(q - 1,) * n] + [tuple(d % q for d in off) for off in code.offsets]
        count = 10**4 if n <= 20 else 500  # the scalar oracle is slow at n = 91
        rows += map(tuple, np.random.default_rng(n).integers(0, q, size=(count, n)).tolist())
        digits, slot, bad = code.decode(np.array(rows, dtype=np.int16).T.copy())
        assert not bad.any()
        bulk = zip(zip(*(d.tolist() for d in digits)), slot.tolist())
        for row, (got, got_slot) in zip(rows, bulk):
            cw, want_slot = code.tile_assign(row)
            assert got == (cw.section, *hypercube_from_lin(cw.rank, q, n - 2))
            assert got_slot == want_slot

    @pytest.mark.parametrize("n", [12, 19, 20, 91])
    def test_encode_largest_digits_in_every_slot(self, n):
        # section q-1 and rank q^(n-2)-1: every digit is q-1
        code = CODES.get(n) or generator_matrix(n)
        q = code.q
        digits = np.full((n - 1, q), q - 1, dtype=np.int16)
        slot = np.arange(q)
        anchor = code.encode(digits, slot)
        top = code.codeword_from_rank(q - 1, code.codewords_per_section - 1).point
        for s in range(q):
            want = tuple((c + d) % q for c, d in zip(top, code.offsets[s]))
            assert tuple(int(c[s]) for c in anchor) == want
        back = code.decode(anchor)
        assert np.array_equal(np.array(back[0]), digits) and np.array_equal(back[1], slot)
        assert not back[2].any()


class TestKernelWorkingSet:
    """decode and encode on one SWEEP_CHUNK piece hold at most their result, one (n, m)
    copy of their input in the kernel's dtype and one (n, m) bool mask, the slot shift's.

    decode peaked at 36 / 330 B a row at n = 8 / 20, with its sums reduced where they
    lie and the rest summed into the point; with a second (n, m) block for the rest and
    the digits reduced into fresh columns beside their sums, it took 54 / 498 B a row.
    """

    @pytest.mark.parametrize("n", [8, 20])  # int16 and int64 columns
    def test_a_piece_holds_its_result_one_copy_and_one_mask(self, n):
        code, m = CODES[n], leecode.SWEEP_CHUNK
        anchor = np.random.default_rng(n).integers(0, code.q, (n, m)).astype(code._dtype)
        digits, slot = anchor[:-1], anchor[-1].astype(np.int16)
        code.encode(digits[:, :1], slot[:1])  # the kernel's tables, built on the first call
        code.decode(anchor[:, :1])
        copy_and_mask = n * m * (anchor.itemsize + 1)
        for run in (lambda: code.decode(anchor), lambda: code.encode(digits, slot)):
            result, peak = traced_peak(run)
            arrays = [*result[0], *result[1:]] if isinstance(result, tuple) else result
            assert peak <= sum(a.nbytes for a in arrays) + copy_and_mask


class TestDistanceCertificates:
    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_min_distance_three(self, n):
        code = generator_matrix(n)
        scan = code.min_mannheim_distance()
        assert scan.exact
        assert scan.distance == 3
        assert mannheim_weight(tuple(x % code.q for x in scan.witness), code.q) == 3
        assert code.lattice_membership(scan.witness)

    def test_no_low_weight_codewords_n5(self, code5):
        assert not code5.min_mannheim_distance(radius_cap=2).exact

    def test_named_weight3_witness(self, code5):
        # 1 + 2 - 3 = 0, so (1, 1, -1, 0, 0) is a codeword of weight 3
        assert code5.lattice_membership((1, 1, -1, 0, 0))

    def test_weight_enumerator_is_exhaustive(self):
        # all weight-w vectors for a small case, counted independently
        vecs = list(weight_w_vectors(2, 2, 11))
        # supports {0}, {1} with magnitude 2 (x2 signs) plus {0,1} with
        # magnitudes (1,1) and 4 sign choices
        assert len(set(vecs)) == len(vecs) == 2 * 2 + 4

    @pytest.mark.parametrize("q", [5, 7])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_weight_enumerator_where_the_cap_binds(self, n, q):
        # entries are capped at (q-1)/2, so a weight near n*(q-1)/2 has few compositions
        cap = (q - 1) // 2
        box = list(itertools.product(range(-cap, cap + 1), repeat=n))
        for w in range(1, n * cap + 2):
            vecs = list(weight_w_vectors(n, w, q))
            assert len(vecs) == len(set(vecs))
            assert set(vecs) == {v for v in box if sum(map(abs, v)) == w}

    def test_radius_cap_reports_lower_bound(self, code5):
        scan = code5.min_mannheim_distance(radius_cap=2)
        assert not scan.exact
        assert scan.distance == 3
        assert scan.witness is None

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_section_subcode_distance_four(self, n):
        assert generator_matrix(n).section_subcode_distance() == 4

    def test_v_itself_has_weight_four(self, code5):
        point = tuple(x % 11 for x in code5.generators.v)
        assert mannheim_weight(point, 11) == 4


def broken_tile_assign(self, z):
    raise ValueError("injected scalar fault")


class TestPerfectPacking:
    def test_sampled_n5(self, code5):
        report = code5.verify_perfect_packing("sampled", samples=10**4, seed=1)
        assert report.ok
        assert report.hypercubes_checked == 10**4

    @pytest.mark.parametrize("n", [6, 7])
    def test_sampled_larger_dimensions(self, n):
        report = generator_matrix(n).verify_perfect_packing(
            "sampled", samples=10**5, seed=2
        )
        assert report.ok

    def test_unknown_mode(self, code5):
        with pytest.raises(ValueError):
            code5.verify_perfect_packing("everything")

    @pytest.mark.parametrize("code_n, args, message", [
        (5, ("sampled", 0, 0), "samples must be >= 1, got 0"),
        (5, ("sampled", 10, -1), "seed must be >= 0, got -1"),
        (8, ("exhaustive", 10, 0),
         "exhaustive verification is only supported for n <= 7; use --mode sampled"),
    ], ids=["zero-samples", "negative-seed", "exhaustive-n8"])
    def test_run_verification_rules_hold(self, code_n, args, message):
        # checked before any hypercube is built
        with pytest.raises(ValueError) as exc:
            generator_matrix(code_n).verify_perfect_packing(*args)
        assert str(exc.value) == message

    @pytest.mark.parametrize(("mode", "rows"), [("exhaustive", 995), ("sampled", 1000)],
                             ids=["exhaustive", "sampled"])
    def test_scalar_fault_is_caught(self, code5, monkeypatch, mode, rows):
        monkeypatch.setattr(PerfectLeeCode, "tile_assign", broken_tile_assign)
        report = code5.verify_perfect_packing(mode, samples=2000, seed=4)
        # Only the scalar cross-check sees the fault; decode is intact.  It reads
        # every 162nd of the 11^5 hypercubes, or every 2nd of the 2000 samples.
        assert report.violation_count == rows
        assert all(
            v.startswith("scalar tile_assign disagrees with decode at")
            for v in report.violations
        )

    def test_corrupted_generator_is_caught(self):
        gens = build_generators(5)
        middle = list(gens.middle)
        middle[0] = middle[0][:-1] + (middle[0][-1] + 1,)
        bad = PerfectLeeCode(gens._replace(middle=tuple(middle)))
        report = bad.verify_perfect_packing("exhaustive")
        assert not report.ok
        assert report.violation_count == 146410
        assert report.violations[:3] == [
            "tile_assign broken at (0, 0, 0, 0, 4)",
            "tile_assign broken at (0, 0, 0, 0, 7)",
            "tile_assign broken at (0, 0, 0, 1, 1)",
        ]

    def test_cardinality(self, code5):
        assert code5.n_codewords == 11**5 // 11

    @pytest.mark.parametrize("seed", [0, 7, 123])
    @pytest.mark.parametrize(("samples", "total", "row", "piece"), [
        # the packing draws of rows of n digits, ids samples-n-piece
        pytest.param(10**6, 17, (8,), 1 << 16, id="1000000-8-65536"),
        pytest.param(54321, 25, (12,), 1 << 16, id="54321-12-65536"),
        pytest.param(1000, 11, (5,), 333, id="1000-5-333"),
        # either side of the int32 pieces' bound, and the bijection's q^(n-1) at n = 8, 12
        *(pytest.param(5000, total, (), 777, id=f"5000-{name}-777") for name, total in [
            ("2^31-1", 2**31 - 1), ("2^31", 2**31), ("2^31+1", 2**31 + 1),
            ("17^7", 17**7), ("23^10", 23**10)]),
    ])
    def test_pieced_draw_is_the_one_shot_draw(self, monkeypatch, samples, total, row, piece, seed):
        # pieces of 333 rows of 5 draws split an odd number of 32-bit draws
        monkeypatch.setattr(leecode, "SWEEP_CHUNK", piece)
        one_shot_rng = np.random.default_rng(seed)
        one_shot = one_shot_rng.integers(0, total, size=(samples, *row), dtype=np.int64)
        # keep the sweep's generator, to compare where it leaves the stream
        made, default_rng = [], np.random.default_rng

        def keep(s):
            made.append(default_rng(s))
            return made[-1]

        monkeypatch.setattr(np.random, "default_rng", keep)
        starts, pieces = zip(*leecode.sweep(total, "sampled", samples, seed, row))
        assert [p.shape for p in pieces] == [(min(piece, samples - s), *row) for s in starts]
        assert list(starts) == [sum(map(len, pieces[:i])) for i in range(len(pieces))]
        pieced = np.concatenate(pieces)
        assert pieced.dtype == (np.int32 if total <= 2**31 else np.int64)
        assert np.array_equal(pieced, one_shot)
        assert made[0].bit_generator.state == one_shot_rng.bit_generator.state

    @pytest.mark.parametrize(
        ("n", "mode", "samples", "seed", "fault"),
        [
            (5, "exhaustive", 10**6, 0, "generator"),
            (6, "sampled", 20000, 3, "generator"),
            (5, "exhaustive", 2000, 4, "scalar"),
            (5, "sampled", 2000, 4, "scalar"),
        ],
        ids=["corrupt-n5-exhaustive", "corrupt-n6-sampled", "scalar-exhaustive", "scalar-sampled"],
    )
    def test_piece_size_does_not_change_the_report(
        self, monkeypatch, n, mode, samples, seed, fault
    ):
        if fault == "generator":
            # the verify --corrupt-generator fault: v_2 gets +1 on its last coordinate
            gens = build_generators(n)
            middle = (gens.middle[0][:-1] + (gens.middle[0][-1] + 1,),) + gens.middle[1:]
            code = PerfectLeeCode(gens._replace(middle=middle))
        else:
            code = generator_matrix(n)
            monkeypatch.setattr(PerfectLeeCode, "tile_assign", broken_tile_assign)
        reports = []
        for piece in (333, 1 << 20):
            monkeypatch.setattr(leecode, "SWEEP_CHUNK", piece)
            reports.append(code.verify_perfect_packing(mode, samples=samples, seed=seed))
        small, whole = reports
        assert small == whole
        assert small.violations == whole.violations
        assert not small.ok
        if fault == "scalar":
            # every 162nd of the 11^5 rows, or every 2nd of the 2000 samples,
            # wherever the pieces split the sweep
            assert small.violation_count == (995 if mode == "exhaustive" else 1000)
        elif mode == "exhaustive":
            assert small.violation_count == 146410
            assert small.violations[:3] == [
                "tile_assign broken at (0, 0, 0, 0, 4)",
                "tile_assign broken at (0, 0, 0, 0, 7)",
                "tile_assign broken at (0, 0, 0, 1, 1)",
            ]

    @pytest.mark.parametrize("piece", [333, 1 << 20])
    def test_scalar_disagreements_follow_every_broken_row(self, monkeypatch, code5, piece):
        # decode flags hypercube 5000, in the 16th 333-row piece; the scalar
        # tile_assign fails on every 162nd row, none of which decode flags
        target = hypercube_from_lin(5000, 11, 5)
        decode = PerfectLeeCode.decode

        def flag_target(self, anchor):
            digits, slot, bad = decode(self, anchor)
            hit = np.logical_and.reduce([a == t for a, t in zip(anchor, target)])
            return digits, slot, bad | hit

        monkeypatch.setattr(PerfectLeeCode, "decode", flag_target)
        monkeypatch.setattr(PerfectLeeCode, "tile_assign", broken_tile_assign)
        monkeypatch.setattr(leecode, "SWEEP_CHUNK", piece)
        report = code5.verify_perfect_packing("exhaustive")
        assert report.violation_count == 1 + 995
        assert report.violations[0] == f"tile_assign broken at {target}"
        assert report.violations[1:] == [
            f"scalar tile_assign disagrees with decode at {hypercube_from_lin(162 * i, 11, 5)}"
            for i in range(9)
        ]

    def test_scalar_fault_in_the_last_section_is_caught(self, code5, monkeypatch):
        # the scalar rows spread over the whole sweep, so a fault confined to the
        # hypercubes with first coordinate q - 1 fails the rows 162 * i there
        tile_assign = PerfectLeeCode.tile_assign

        def broken_last_section(self, z):
            if z[0] == self.q - 1:
                raise ValueError("injected scalar fault")
            return tile_assign(self, z)

        monkeypatch.setattr(PerfectLeeCode, "tile_assign", broken_last_section)
        report = code5.verify_perfect_packing("exhaustive")
        rows = [i for i in range(0, 11**5, 162) if i >= 10 * 11**4]
        assert (rows[0], len(rows)) == (904 * 162, 91)
        assert report.violation_count == 91
        assert report.violations == [
            f"scalar tile_assign disagrees with decode at {hypercube_from_lin(i, 11, 5)}"
            for i in rows[:10]
        ]

    @pytest.mark.parametrize(("total", "rows"), [
        (11**5, 1000), (11**4, 1000), (2000, 1000), (999, 1000), (10 * 11**5, 200), (1, 200)])
    @pytest.mark.parametrize("piece", [333, leecode.SWEEP_CHUNK, 1 << 20])
    def test_scalar_rows_are_one_stride_of_the_sweep(self, total, rows, piece):
        got = [start + i for start in range(0, total, piece)
               for i in leecode.scalar_rows(start, min(piece, total - start), total, rows).tolist()]
        assert got == list(range(0, total, -(-total // rows)))
        assert len(got) <= rows

    @pytest.mark.parametrize(("n", "bound_mb"), [pytest.param(8, 4.5, id="8"),
                                                 pytest.param(12, 6, id="12")])
    def test_sampled_packing_memory_is_bounded(self, n, bound_mb):
        # 10^6 rows walked in SWEEP_CHUNK pieces: 2^15-row pieces peaked at 2.96 / 4.31 MB,
        # 2^16-row ones at 5.82 / 8.47 MB, and decoded whole they took 65-87 MB
        code = generator_matrix(n)
        report, peak = traced_peak(lambda: code.verify_perfect_packing("sampled", samples=10**6))
        assert report.ok and report.hypercubes_checked == 10**6
        assert peak < bound_mb * 10**6
