import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leetoric.lattice import (
    canonical_rep,
    det_adj,
    determinant,
    digits_of,
    hypercube_from_lin,
    hypercube_lin_index,
    lin_indices,
    mannheim_weight,
    slot_offset,
)
from leetoric.leecode import build_generators

from conftest import lee_distance


def cofactor_det(m):
    """Independent oracle: textbook cofactor expansion along row 0."""
    size = len(m)
    if size == 1:
        return m[0][0]
    # zero entries are skipped, so sparse generator matrices expand quickly
    return sum(
        (-1) ** j * m[0][j] * cofactor_det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(size)
        if m[0][j]
    )


def cofactor_adj(m):
    """Independent oracle: adj A as the transposed matrix of cofactors."""
    size = len(m)
    if size == 1:
        return ((1,),)
    return tuple(
        tuple(
            (-1) ** (i + j)
            * cofactor_det([row[:i] + row[i + 1 :] for k, row in enumerate(m) if k != j])
            for j in range(size)
        )
        for i in range(size)
    )


def fault_rows():
    """The generator faults the verify tests inject, at n = 5."""
    gens = build_generators(5)
    middle = gens.middle[0][:-1] + (gens.middle[0][-1] + 1,)
    return {
        "middle-plus-one": gens._replace(middle=(middle,) + gens.middle[1:]).rows(),
        "doubled-v": gens._replace(v=tuple(2 * a for a in gens.v)).rows(),
        "v1-fault": gens._replace(v1=(0, 0, 0, 1, 1)).rows(),
        "singular": gens._replace(v1=gens.v).rows(),
    }


class TestCanonicalRep:
    @pytest.mark.parametrize("x, q, expected", [(0, 11, 0), (9, 11, -2), (5, 11, 5)])
    def test_examples(self, x, q, expected):
        assert canonical_rep(x, q) == expected

    @pytest.mark.parametrize("q", [5, 11, 13, 15, 17, 25])
    def test_range_and_congruence(self, q):
        for x in range(q):
            rep = canonical_rep(x, q)
            assert rep % q == x
            assert abs(rep) <= (q - 1) // 2

    def test_rejects_even_modulus(self):
        with pytest.raises(ValueError):
            canonical_rep(1, 10)

    @pytest.mark.parametrize("x", [-1, 11, 100])
    def test_rejects_out_of_range(self, x):
        with pytest.raises(ValueError):
            canonical_rep(x, 11)


class TestMannheimWeight:
    def test_zero_vector(self):
        assert mannheim_weight((0, 0, 0, 0, 0), 11) == 0

    def test_examples(self):
        assert mannheim_weight((1, 1, 10, 0, 0), 11) == 3
        assert mannheim_weight((0, 0, 0, 1, 8), 11) == 4

    @pytest.mark.parametrize("q, n", [(11, 5), (15, 7)])
    def test_positive_definite(self, q, n):
        rnd = random.Random(11)
        for _ in range(300):
            v = tuple(rnd.randrange(q) for _ in range(n))
            w = mannheim_weight(v, q)
            assert (w == 0) == all(x == 0 for x in v)
            assert w <= n * (q - 1) // 2

    @pytest.mark.parametrize("q, n", [(11, 5), (15, 7)])
    def test_triangle_inequality(self, q, n):
        # so the weight of the difference is a metric, the Lee distance
        rnd = random.Random(q)
        for _ in range(500):
            u, v, w = (
                tuple(rnd.randrange(q) for _ in range(n)) for _ in range(3)
            )
            assert lee_distance(u, v, q) == lee_distance(v, u, q)
            assert lee_distance(u, w, q) <= lee_distance(u, v, q) + lee_distance(v, w, q)


class TestDeterminant:
    def test_identity(self):
        eye = [[int(i == j) for j in range(5)] for i in range(5)]
        assert determinant(eye) == 1

    def test_diagonal(self):
        diag = [[11 if i == j == 0 else int(i == j) for j in range(5)] for i in range(5)]
        assert determinant(diag) == 11

    def test_singular(self):
        assert determinant([[1, 2], [2, 4]]) == 0

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            determinant([[1, 2, 3], [4, 5, 6]])

    @pytest.mark.parametrize("size", [4, 5])
    def test_against_cofactor_oracle(self, size):
        rnd = random.Random(size)
        for _ in range(100):
            m = [[rnd.randint(-9, 9) for _ in range(size)] for _ in range(size)]
            assert determinant(m) == cofactor_det(m)

    def test_large_entries_stay_exact(self):
        rnd = random.Random(7)
        m = [[rnd.randint(-(10**9), 10**9) for _ in range(4)] for _ in range(4)]
        assert determinant(m) == cofactor_det(m)


def check_det_adj(m):
    det, adj = det_adj(m)
    assert det == cofactor_det(m) == determinant(m)
    if det == 0:
        assert adj is None
        return
    assert adj == cofactor_adj(m)
    size = len(m)
    for i in range(size):
        for j in range(size):
            assert sum(m[i][k] * adj[k][j] for k in range(size)) == det * (i == j)


class TestDetAdj:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 7).flatmap(
        lambda size: st.lists(
            st.lists(st.integers(-4, 4), min_size=size, max_size=size),
            min_size=size, max_size=size,
        )
    ))
    def test_against_laplace_oracle(self, m):
        check_det_adj(m)

    @pytest.mark.parametrize("n", range(5, 13))
    def test_generator_sets(self, n):
        rows = build_generators(n).rows()
        check_det_adj(rows)
        assert abs(det_adj(rows)[0]) == 2 * n + 1

    @pytest.mark.parametrize("fault, det", [
        ("middle-plus-one", -11), ("doubled-v", -22), ("v1-fault", -7), ("singular", 0),
    ])
    def test_generator_faults(self, fault, det):
        rows = fault_rows()[fault]
        check_det_adj(rows)
        assert det_adj(rows)[0] == det

    def test_singular_and_empty(self):
        assert det_adj([[1, 2], [2, 4]]) == (0, None)
        assert det_adj([[0, 0], [0, 0]]) == (0, None)
        assert det_adj([]) == (1, ())
        assert determinant([]) == 1

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            det_adj([[1, 2, 3], [4, 5, 6]])


class TestSlotOffset:
    def test_center(self):
        assert slot_offset(0, 5) == (0, 0, 0, 0, 0)

    def test_signed_units(self):
        assert slot_offset(1, 5) == (1, 0, 0, 0, 0)
        assert slot_offset(10, 5) == (0, 0, 0, 0, -1)

    def test_bijective_onto_sphere_offsets(self):
        n = 6
        offsets = {slot_offset(b, n) for b in range(2 * n + 1)}
        assert len(offsets) == 2 * n + 1
        assert all(sum(abs(x) for x in off) <= 1 for off in offsets)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            slot_offset(11, 5)


class TestLeeSphere:
    def test_random_centers_geometry(self, code5):
        # the sphere the interleaver uses: center + code.offsets[b], in slot order
        rnd = random.Random(5)
        centers = [(0,) * 5, (10, 0, 0, 0, 0)]
        centers += [tuple(rnd.randrange(11) for _ in range(5)) for _ in range(30)]
        for center in centers:
            members = [tuple((c + d) % 11 for c, d in zip(center, off)) for off in code5.offsets]
            assert len(set(members)) == 11
            assert members[0] == center
            for m in members:
                assert lee_distance(center, m, 11) <= 1
            for a in members:
                for b in members:
                    assert lee_distance(a, b, 11) <= 2
            if center == (10, 0, 0, 0, 0):
                assert (0,) * 5 in members  # wraparound


def divmod_digits(i, radices):
    """Independent oracle: the big-endian digits of i by Python divmod."""
    digits = []
    for radix in reversed(radices):
        i, d = divmod(i, radix)
        digits.append(d)
    return digits[::-1]


def horner(digits, radices):
    """Independent oracle: the index of big-endian digits by Horner's rule on Python ints."""
    i = 0
    for d, radix in zip(digits, radices):
        i = i * radix + d
    return i


def check_mixed_radix(radices, values):
    """digits_of and lin_indices agree with divmod_digits and horner on values."""
    product = math.prod(radices)
    # both sides of the int32 narrowing, and the largest index
    values = [v for v in [0, 2**31 - 1, 2**31, 2**32, product - 1, *values] if v < product]
    digits = digits_of(np.array(values, dtype=np.int64), radices)
    assert digits.dtype == np.int16 and digits.shape == (len(radices), len(values))
    want = [divmod_digits(v, radices) for v in values]
    assert digits.T.tolist() == want
    back = lin_indices(digits, radices)
    assert back.dtype == np.int64
    assert back.tolist() == [horner(d, radices) for d in want] == values


# a radix tuple, kept to its longest prefix whose product is below 2^63
RADICES = st.lists(
    st.one_of(st.integers(2, 40), st.integers(2, 2**15 - 1)), min_size=1, max_size=24
).map(lambda r: [x for k, x in enumerate(r) if math.prod(r[: k + 1]) < 2**63])


class TestMixedRadix:
    @settings(max_examples=300, deadline=None)
    @given(radices=RADICES, data=st.data())
    def test_split_and_compose_match_divmod_and_horner(self, radices, data):
        product = math.prod(radices)
        values = data.draw(st.lists(st.integers(0, product - 1), max_size=40))
        check_mixed_radix(radices, values)

    @pytest.mark.parametrize("radices", [
        (2**15 - 1,) * 4,  # product near 2^60: int64 quotients, then int32 below 2^30
        (2,) * 62,
        (25,) * 12,  # the face anchors at n = 12
        (17,) * 7 + (28, 17),  # the logical layout at n = 8
        (17,) * 8 + (28,),  # the face layout at n = 8
        (11,) * 4 + (10, 11),
        # the logical and face layouts at n = 6: orientation never enters the
        # kernel, so this split and compose carry the orientation half of confinement
        (13,) * 5 + (15, 13),
        (13,) * 6 + (15,),
    ])
    def test_fixed_radices(self, radices):
        check_mixed_radix(radices, range(0, math.prod(radices), math.prod(radices) // 997 + 1))

    @pytest.mark.parametrize("width", range(1, 19))
    def test_decimal_digits(self, width):
        # the CSV formatter's (10,) * w split: 10^k - 1 and 10^k for every k < w
        values = [10**k + e for k in range(width) for e in (-1, 0)]
        check_mixed_radix((10,) * width, values)
        digits = digits_of(np.array([10**width - 1], dtype=np.int64), (10,) * width)
        assert digits.T.tolist() == [[9] * width]


class TestHypercubeLinIndex:
    def test_examples(self):
        assert hypercube_lin_index((0,) * 5, 11) == 0
        assert hypercube_lin_index((0, 0, 0, 0, 1), 11) == 1
        assert hypercube_lin_index((1, 0, 0, 0, 0), 11) == 14641

    def test_exhaustive_bijection_n5(self):
        q, n = 11, 5
        for idx in range(q**n):
            assert hypercube_lin_index(hypercube_from_lin(idx, q, n), q) == idx

    def test_sampled_bijection_n6(self):
        q, n = 13, 6
        rng = np.random.default_rng(0)
        # one row per coordinate column
        z = rng.integers(0, q, size=(10**6, n), dtype=np.int64).T
        weights = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
        lin = weights @ z
        back = np.empty_like(z)
        rest = lin.copy()
        for col in range(n - 1, -1, -1):
            rest, back[col] = np.divmod(rest, q)
        assert np.array_equal(back, z)
        assert np.array_equal(lin_indices(z.astype(np.int16), (q,) * n), lin)
        assert np.array_equal(digits_of(lin, (q,) * n), z)
        spot = [int(i) for i in rng.integers(0, len(lin), size=50)]
        for i in spot:
            vec = tuple(int(x) for x in z[:, i])
            assert hypercube_lin_index(vec, q) == int(lin[i])
            assert hypercube_from_lin(int(lin[i]), q, n) == vec

    def test_int16_columns_compose_past_2_31_at_n12(self):
        # every product is taken on the int64 partial index: an int16 one
        # would wrap at the first step
        q, n = 25, 12
        rows = [(q - 1,) * n, (1,) + (0,) * (n - 1), (0,) * (n - 1) + (q - 1,)]
        rows += map(tuple, np.random.default_rng(12).integers(0, q, size=(1000, n)).tolist())
        columns = np.array(rows, dtype=np.int16).T.copy()
        lin = lin_indices(columns, (q,) * n)
        assert lin.dtype == np.int64
        assert lin.tolist() == [hypercube_lin_index(row, q) for row in rows]
        assert lin[0] == q**n - 1 > 2**31
        back = digits_of(lin, (q,) * n)
        assert back.dtype == np.int16 and np.array_equal(back, columns)

    def test_inverse_rejects_overflow(self):
        with pytest.raises(ValueError):
            hypercube_from_lin(11**5, 11, 5)

    def test_numpy_integers_give_exact_ints(self):
        # the kernel's own int16 column: an int16 running sum wraps 161050 to 29978
        column = digits_of(np.array([161050]), (11,) * 5)[:, 0]
        assert column.dtype == np.int16
        assert hypercube_lin_index(column, 11) == 161050
        z = hypercube_from_lin(np.int64(161050), 11, 5)
        assert z == (10,) * 5 and all(type(x) is int for x in z)
