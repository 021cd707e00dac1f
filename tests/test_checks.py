from dataclasses import replace
from fractions import Fraction

import pytest

from leetoric.checks import _check_chain_membership, run_verification
from leetoric.leecode import PerfectLeeCode, build_generators


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
        code = PerfectLeeCode(replace(gens, v=tuple(2 * a for a in gens.v)))
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


class TestRunVerification:
    def test_rejects_int64_overflow_before_the_battery(self):
        with pytest.raises(ValueError, match=r"int64 limit 2\^63 - 1"):
            run_verification(13, "sampled", samples=1000)

