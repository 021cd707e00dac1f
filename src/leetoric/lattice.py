"""Exact integer arithmetic and radius-1 Lee-sphere geometry on Z_q^n.

Vectors are plain tuples of Python ints and matrices are sequences of
row vectors, so every computation in this module is exact; nothing here
touches floating point.  The bulk twins of the linear-index maps work on
digit rows: a batch of m mixed-radix numbers is one 1-D int16 array per
digit, while the indices stay int64.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence

from ._numpy import np

IntVector = tuple[int, ...]


def at_least(name: str, value: int, low: int) -> int:
    """value as an int; ValueError ``{name} must be >= {low}, got {value}`` unless value >= low."""
    value = operator.index(value)
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


def in_range(name: str, value: int, total: int) -> int:
    """value as an int; ValueError ``{name} {value} out of range [0, {total})`` unless in range."""
    value = operator.index(value)
    if not 0 <= value < total:
        raise ValueError(f"{name} {value} out of range [0, {total})")
    return value


def canonical_rep(x: int, q: int) -> int:
    """Centered representative of the residue x, in (-q/2, q/2].

    q must be odd so the range has no tie; x must already be reduced,
    i.e. 0 <= x < q.
    """
    if q < 3 or q % 2 == 0:
        raise ValueError(f"modulus must be odd and >= 3, got {q}")
    x = in_range("residue", x, q)
    return x if x <= (q - 1) // 2 else x - q


def mannheim_weight(v: Sequence[int], q: int) -> int:
    """Sum of |canonical_rep(entry)| over the entries of a residue vector."""
    return sum(abs(canonical_rep(x, q)) for x in v)


def determinant(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix; the det of det_adj."""
    return det_adj(rows)[0]


def det_adj(rows: Sequence[Sequence[int]]) -> tuple[int, tuple[IntVector, ...] | None]:
    """Exact (det A, adj A) of a square integer matrix; adj is None if A is singular.

    One fraction-free (Bareiss) Gauss-Jordan elimination of [A | I]; every
    division is exact.  It ends at [d I | d A^-1] with d = +-det A.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    m = [[int(x) for x in r] + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    sign = prev = 1
    for k in range(n):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0, None
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(n):
            # a zero entry under a pivot equal to prev leaves the row as it is: m[i] * prev // prev
            if i != k and (m[i][k] or m[k][k] != prev):
                m[i] = [(x * m[k][k] - m[i][k] * y) // prev for x, y in zip(m[i], m[k])]
        prev = m[k][k]
    return sign * prev, tuple(tuple(sign * x for x in r[n:]) for r in m)


def slot_offset(b: int, n: int) -> IntVector:
    """Offset vector of Lee-sphere slot b.

    Slot 0 is the center; slot 2i-1 is +e_i and slot 2i is -e_i, for
    i = 1..n.  This fixed order is shared by the PerfectLeeCode
    slot-offset table and the interleaver's super-block layout.
    """
    if not 0 <= b <= 2 * n:
        raise ValueError(f"slot {b} out of range [0, {2 * n}]")
    off = [0] * n
    if b > 0:
        i = (b + 1) // 2
        off[i - 1] = 1 if b % 2 == 1 else -1
    return tuple(off)


def hypercube_lin_index(z: Sequence[int], q: int) -> int:
    """Linear index of a hypercube coordinate, big-endian in coordinate 1.

    lin(z) = z_1 q^{n-1} + z_2 q^{n-2} + ... + z_n, so a contiguous index
    range corresponds to a fixed first coordinate (a cross-section).
    """
    _check_residues(z, q)
    idx = 0
    for x in z:
        idx = idx * q + operator.index(x)  # a NumPy digit would wrap the sum
    return idx


def hypercube_from_lin(idx: int, q: int, n: int) -> IntVector:
    """Inverse of hypercube_lin_index."""
    q, n = operator.index(q), operator.index(n)
    idx = in_range("index", idx, q**n)
    out = [0] * n
    for i in range(n - 1, -1, -1):
        idx, out[i] = divmod(idx, q)
    return tuple(out)


def digits_of(idx: np.ndarray, radices: Sequence[int]) -> np.ndarray:
    """Big-endian mixed-radix digits of idx in [0, prod(radices)), one int16 row per radix.

    Every radix is below 2^15.  The quotient narrows to int32 once the product of the radices
    still ahead is <= 2^31; each digit is the step's remainder, taken in int16 (exact mod 2^16).
    """
    out = np.empty((len(radices), len(idx)), dtype=np.int16)
    for col in range(len(radices) - 1, 0, -1):
        if math.prod(radices[: col + 1]) <= 2**31:
            idx = idx.astype(np.int32, copy=False)
        rest = idx // radices[col]
        np.multiply(rest, -radices[col], out=out[col], casting="unsafe")
        out[col] += idx.astype(np.int16)
        idx = rest
    out[0] = idx
    return out


def lin_indices(digits: Sequence[np.ndarray], radices: Sequence[int]) -> np.ndarray:
    """Inverse of digits_of: Horner's rule on the int64 partial index, never on a narrow row.

    The rows broadcast: a row of a larger shape widens the index from its
    step on.  Digits are not range-checked.
    """
    idx = np.array(digits[0], dtype=np.int64)
    for row, radix in zip(digits[1:], radices[1:], strict=True):
        idx = idx * radix + row
    return idx


def _check_residues(v: Sequence[int], q: int) -> None:
    for x in v:
        if not 0 <= x < q:
            raise ValueError(f"coordinate {x} out of range [0, {q})")
