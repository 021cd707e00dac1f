"""Single-error-correcting perfect Lee codes on Z_q^n with q = 2n + 1.

The code is the mod-q kernel of the check functional h = (1, 2, ..., n):
a point is a codeword iff h.x = 0 (mod q).  The same set arises as the
mod-q reduction of the integer sublattice spanned by the generator rows
assembled in ``generator_matrix``; that sublattice has index q in Z^n,
which is why the q^{n-1} radius-1 Lee spheres centred on the codewords
tile the q^n torus exactly once.  Perfection makes the syndrome decoder
total: every point is within Lee distance 1 of exactly one codeword.
The scalar methods of ``PerfectLeeCode`` are the exact Python-int
reference; ``encode``/``decode`` are their bulk kernel on int16 columns.
The kernel's array tables are built on the first bulk call (``tile_assign``
reads one of them too), so a code built only for its parameters loads no
NumPy.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Sequence

from ._numpy import np
from .lattice import (
    IntVector,
    _check_residues,
    at_least,
    canonical_rep,
    det_adj,
    digits_of,
    hypercube_from_lin,
    in_range,
    lin_indices,
    mannheim_weight,
    slot_offset,
)

# every bulk sweep walks its indices (or sampled rows) in pieces of this many;
# 2^16 raised verify --n 8 --mode sampled's peak RSS from 40.4 to 44.7 MB, and
# 2^14 lowered it to 38.2 MB but ran it 12% slower with twice the page faults
SWEEP_CHUNK = 1 << 15
# the bulk certificates check at most this many rows of a sweep, spread over it, against the scalar oracle
SCALAR_ROWS = 1000
# a PackingReport stores the first this many violations
_MAX_VIOLATIONS = 10
# verify takes at most this many samples: the sampled sweep at n = 12 takes
# ~36 s in process at 10^8 on 2 vCPUs, and would take ~6 min at 10^9
MAX_SAMPLES = 10**8
# the burst models of interleave.make_burst and simulate; each but translate is an N_LIMITS row
BURST_MODELS = ("aligned", "translate", "multi-translate", "uniform-random")
# The one dimension rule, read by check_n: each use's largest n and the message
# past it.  A limit compares n alone and builds no count.  Exhaustive verify
# sweeps 21 * 15^7 slots at n = 7 in ~13 s; the bulk maps need every face index
# alpha * q^n in int64, and uniform-random draws them; aligned draws its ranks
# below q^(n-2) in int64.  The last three bound what grows with n, measured in
# process on 2 vCPUs: building the code and one translate trial take 2.7 s and
# 242 MB at n = 1000; params' distance search tests O(n^2) candidates, each on
# at most two adj entries a coordinate, ~2 s and 62 MB at n = 600; a
# multi-translate trial holds q^2 faces of n coordinates, 1.6 s and 458 MB at
# n = 150.
N_LIMITS = {
    "exhaustive": (7, "exhaustive verification is only supported for n <= {limit};"
                      " use --mode sampled"),
    "index": (12, "n = {n} has more faces than the int64 limit 2^63 - 1"
                  " of the bulk index arithmetic (n <= {limit})"),
    "aligned": (14, "aligned model at n = {n} draws ranks below q^(n-2), more than the"
                    " int64 limit 2^63 - 1 of the random draw (n <= {limit})"),
    "build": (1000, "n = {n} is too large to build: n^2 generator entries (n <= {limit})"),
    "params": (600, "n = {n} is too large for the minimum-distance search, O(n^2) (n <= {limit})"),
    "multi-translate": (150, "multi-translate model at n = {n} holds q^2 faces of n coordinates"
                             " per trial (n <= {limit})"),
}
N_LIMITS["uniform-random"] = N_LIMITS["index"]


def check_n(use: str, n: int) -> int:
    """n as an int; ValueError unless 5 <= n <= the limit of use's N_LIMITS row, if use has one."""
    n = at_least("unsupported dimension: n", n, 5)
    if use in N_LIMITS and n > N_LIMITS[use][0]:
        limit, message = N_LIMITS[use]
        raise ValueError(message.format(n=n, limit=limit))
    return n


def sweep(total: int, mode="exhaustive", k=0, seed=0, row=()) -> Iterator[tuple[int, np.ndarray]]:
    """The (start, piece) pairs of a bulk sweep, SWEEP_CHUNK rows a piece, start the piece's offset.

    ``exhaustive``: the int64 ranges of [0, total), in order; ``sampled``: the
    pieces of the one draw default_rng(seed).integers(0, total, (k, *row), int64),
    int32 if total <= 2^31 (one 32-bit path draws both), the same however it is
    pieced since the stream carries over.  Each piece is a fresh array, never a
    view of an earlier one, so a caller may hold a piece while it takes the next.
    """
    if mode == "exhaustive":
        for start in range(0, total, SWEEP_CHUNK):
            yield start, np.arange(start, min(start + SWEEP_CHUNK, total), dtype=np.int64)
    else:
        rng, dtype = np.random.default_rng(seed), np.int32 if total <= 2**31 else np.int64
        for start in range(0, k, SWEEP_CHUNK):
            yield start, rng.integers(0, total, (min(SWEEP_CHUNK, k - start), *row), dtype)


def scalar_rows(start: int, m: int, total: int, rows: int = SCALAR_ROWS) -> np.ndarray:
    """The positions in the piece [start, start + m) of every ceil(total / rows)-th row of the sweep."""
    step = -(-total // rows)
    return np.arange(-start % step, m, step)


class GeneratorSet(NamedTuple):
    """The n generator rows of the code lattice.

    ``middle`` holds v_2 ... v_{n-2}; v_k has ones exactly at positions
    k..n-1 (1-indexed) and its last coordinate is the centered residue
    that makes it orthogonal to the check functional mod q.
    """

    n: int
    q: int
    v: IntVector
    v1: IntVector
    middle: tuple[IntVector, ...]
    v_last: IntVector

    def rows(self) -> tuple[IntVector, ...]:
        """Rows in matrix order: v, v1, v_2, ..., v_{n-2}, v_{n-1}."""
        return (self.v, self.v1) + self.middle + (self.v_last,)


def build_generators(n: int) -> GeneratorSet:
    """Construct the generator rows for dimension n, under the N_LIMITS row "build"."""
    n = check_n("build", n)
    q = 2 * n + 1
    v = (0,) * (n - 2) + (1, 2 * n - 2)
    v1 = (0,) * (n - 2) + (1, -3)
    v_last = (1,) + (0,) * (n - 2) + (2,)
    middle = []
    for k in range(2, n - 1):
        i = n - k
        row = [0] * n
        row[k - 1 : n - 1] = [1] * (n - k)
        row[n - 1] = canonical_rep((-i * (i + 2)) % q, q)
        middle.append(tuple(row))
    return GeneratorSet(n, q, v, v1, tuple(middle), v_last)


class Codeword(NamedTuple):
    """A codeword point with its cross-section label and in-section rank."""

    point: IntVector
    section: int
    rank: int


class MinDistanceResult(NamedTuple):
    """Outcome of the bounded-radius minimum-distance search.

    When ``exact`` is False no codeword of weight <= radius_cap exists
    and ``distance`` is only a lower bound (radius_cap + 1).
    """

    distance: int
    witness: IntVector | None
    exact: bool


class PerfectLeeCode:
    """The perfect Lee code of dimension n, with q = 2n + 1.

    Immutable after construction; all methods are pure.
    """

    def __init__(self, generators: GeneratorSet):
        self.n = generators.n
        self.q = generators.q
        self.generators = generators
        self.matrix = generators.rows()
        self.h = tuple(range(1, self.n + 1))  # the check functional
        self.alpha = self.n * (self.n - 1) // 2
        # det A, |det A| = q for a valid code, and from the same elimination
        # the membership test's table (None if A is singular): for each
        # coordinate i, the nonzero (column, entry mod det A) pairs of row i of adj A
        self.det, adj = det_adj(self.matrix)
        self._adj_terms = None if adj is None else _terms(tuple(zip(*adj)), abs(self.det))
        n, q = self.n, self.q
        # The slot-offset table, built once: row b is slot_offset(b, n).
        self.offsets = tuple(slot_offset(b, n) for b in range(q))
        # A codeword is its digits (section, m_{n-2}, ..., m_2, m_v), the
        # big-endian base-q digits of section * q^(n-2) + rank, times these
        # rows v_{n-1}, v_{n-2}, ..., v_2, v.  The peel schedule undoes the
        # product: each (coordinate, digit) reads that digit off the
        # coordinate, then subtracts the digit's row, in this order.
        self.digit_rows = tuple(self.matrix[i] for i in [n - 1, *range(n - 2, 1, -1), 0])
        self.peel = _peel_schedule(n)
        # The scalar oracle's one table, apart from the kernel's: each digit
        # row's nonzero (coordinate, entry) pairs, which codeword_from_rank
        # adds up and _peel subtracts.
        self._digit_support = _terms(tuple(zip(*self.digit_rows)), q)
        # The bulk kernel's exact-int tables.  The peel is linear mod q, so it
        # is one matrix B, row i the peel of e_i: digits = x.B mod q.
        self._syndrome_terms = _terms([[h] for h in self.h], q)
        units = ([int(i == j) for j in range(n)] for i in range(n))
        self._peel_terms = _terms([self._peel(unit)[0] for unit in units], q)
        self._row_terms = _terms(self.digit_rows, q)

    def __repr__(self) -> str:
        return f"PerfectLeeCode(n={self.n}, q={self.q})"

    # -- the kernel's array tables, each built on its first read ------------

    @cached_property
    def _slot_of(self) -> np.ndarray:
        # The one syndrome -> slot table, read by tile_assign and decode: it
        # inverts the offsets' syndromes, a permutation of Z_q since h covers it.
        syndromes = [self.syndrome([d % self.q for d in off]) for off in self.offsets]
        return np.argsort(syndromes).astype(np.int16)

    @cached_property
    def _dtype(self) -> type:
        # Every column sum the kernel forms has |sum| < n q^2 + 2q (7550 at
        # n = 12, 28977 at n = 19), so up to n = 19 the sums are int16 and
        # past that int64.
        return np.int16 if self.n * self.q**2 + 2 * self.q <= 2**15 else np.int64

    @cached_property
    def _plus_slots(self) -> np.ndarray:
        # slot 2i+1 (_plus_slots[i]) is +e_i and slot 2i+2 (_minus_slots[i]) is -e_i
        return np.arange(1, self.q, 2, dtype=np.int16)[:, None]

    @cached_property
    def _minus_slots(self) -> np.ndarray:
        return np.arange(2, self.q, 2, dtype=np.int16)[:, None]

    @property
    def n_codewords(self) -> int:
        return self.q ** (self.n - 1)

    @property
    def codewords_per_section(self) -> int:
        return self.q ** (self.n - 2)

    # -- lattice-side operations (integer vectors) --------------------

    def _check_length(self, x: Sequence[int]) -> None:
        if len(x) != self.n:
            raise ValueError(f"expected length {self.n}, got {len(x)}")

    def lattice_membership(self, x: Sequence[int]) -> bool:
        """True iff the integer vector x lies in the lattice of the rows A.

        x = cA is solved by c = x adj(A) / det A, integral iff x.adj(A) = 0
        mod det A.  For a valid code this is the kernel of h mod q.
        """
        self._check_length(x)
        return self._member((i, a) for i, a in enumerate(x) if a)

    def _member(self, terms: Iterable[tuple[int, int]]) -> bool:
        """lattice_membership of the vector of these (coordinate, value) terms, on adj's nonzeros."""
        if self._adj_terms is None:
            raise ValueError("generator matrix is singular")
        dot: dict[int, int] = {}
        for i, a in terms:
            for c, b in self._adj_terms[i]:
                dot[c] = dot.get(c, 0) + a * b
        return all(s % self.det == 0 for s in dot.values())

    def non_orthogonal_rows(self) -> list[IntVector]:
        """Generator rows with h.row != 0 mod q; empty for a valid code."""
        return [row for row in self.matrix if sum(a * b for a, b in zip(self.h, row)) % self.q]

    def syndrome_residues(self) -> list[int]:
        """Sorted {0} u {+-h_i mod q}; the decoder is total iff this is Z_q.

        h = (1, ..., n) gives {0, ..., 2n}: single-error syndromes are unique.
        """
        q = self.q
        return sorted({0} | {h % q for h in self.h} | {-h % q for h in self.h})

    # -- code operations (residue vectors) ----------------------------

    def syndrome(self, x: Sequence[int]) -> int:
        """h.x mod q; zero iff x is a codeword."""
        self._check_length(x)
        _check_residues(x, self.q)
        return sum(a * b for a, b in zip(self.h, x)) % self.q

    def tile_assign(self, z: Sequence[int]) -> tuple[Codeword, int]:
        """The unique (codeword, slot) with codeword + slot offset = z.

        The syndrome picks the slot; rank_of peels z minus its offset and
        raises if that point is off the generator lattice.
        """
        slot = int(self._slot_of[self.syndrome(z)])
        point = tuple((a - d) % self.q for a, d in zip(z, self.offsets[slot]))
        j, r = self.rank_of(point)
        return Codeword(point, j, r), slot

    def decode_single(self, x: Sequence[int]) -> tuple[Codeword, IntVector]:
        """Split x into (codeword, error): the error is the offset of x's slot."""
        cw, slot = self.tile_assign(x)
        return cw, self.offsets[slot]

    # -- enumeration ---------------------------------------------------

    def codeword_from_rank(self, j: int, r: int) -> Codeword:
        """Codeword number r of cross-section j: its digits times the digit rows.

        The digits are j followed by the n-2 base-q digits of r, most
        significant first, so consecutive ranks walk the v-digit m_v.  Each
        digit adds its row's _digit_support pairs, the ones _peel subtracts.
        """
        q, n = self.q, self.n
        j, r = in_range("section", j, q), in_range("rank", r, self.codewords_per_section)
        point = [0] * n
        for m, support in zip((j,) + hypercube_from_lin(r, q, n - 2), self._digit_support):
            for c, b in support:
                point[c] += m * b
        return Codeword(tuple(x % q for x in point), j, r)

    def rank_of(self, point: Sequence[int]) -> tuple[int, int]:
        """Inverse of codeword_from_rank; raises if point is not a codeword.

        The point is a codeword iff the peel leaves nothing of it.
        """
        self._check_length(point)
        _check_residues(point, self.q)
        digits, rest = self._peel(point)
        if any(rest):
            raise ValueError(f"{tuple(point)} is not a codeword")
        rank = 0
        for m in digits[1:]:  # Horner's rule: the digits are residues already
            rank = rank * self.q + m
        return digits[0], rank

    def _peel(self, point: Sequence[int]) -> tuple[list[int], list[int]]:
        """(digits, rest) of the peel schedule run on a residue vector.

        Each step reads one digit off its coordinate and, unless it is zero, subtracts
        its row mod q where the row is nonzero (x holds residues); rest is what is left.
        """
        q = self.q
        x, digits = list(point), [0] * (self.n - 1)
        for col, d in self.peel:
            m = digits[d] = x[col]
            for c, b in self._digit_support[d] if m else ():
                x[c] = (x[c] - m * b) % q
        return digits, x

    # -- bulk kernel (int16 columns: a batch is one array per coordinate, the
    #    arrays broadcast to one shape and run raveled, as 1-D columns) --

    def encode(self, digits: Sequence[np.ndarray], slot: np.ndarray) -> list[np.ndarray]:
        """The n anchor columns: the n-1 digit columns times the digit rows, plus the slot offset.

        Row i is codeword_from_rank(j, r) + offsets[slot[i]] where the
        digits of row i are hypercube_from_lin(j * q^(n-2) + r, q, n-1);
        not range-checked.  The columns have the shape the digits and slot
        broadcast to.
        """
        (*digits, slot), shape = _flat([*digits, slot])
        point = self._shift(_sums(digits, self._row_terms, self._dtype), slot, 1)
        return [self._reduce(column).reshape(shape) for column in point]

    def decode(
        self, anchor: Sequence[np.ndarray]
    ) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
        """Split n residue columns into (digits, slot, bad).

        The bulk tile_assign: the syndrome picks the slot, and the point
        left after removing its offset is multiplied by the peel matrix.
        ``digits`` holds the n-1 int16 digit columns in encode's order.
        ``bad`` flags rows whose point is not its digits times the digit
        rows, where the peel would leave a rest: the point is off the
        generator lattice, and its digits are meaningless.  Each output has
        the shape the anchor columns broadcast to.
        """
        reduce, dtype = self._reduce, self._dtype
        anchor, shape = _flat(anchor)
        # the slot of the syndrome h.anchor mod q
        slot = self._slot_of.take(reduce(_sums(anchor, self._syndrome_terms, dtype)[0]))
        # the point, left unreduced in [-1, q]: anchor minus the slot offset
        point = self._shift(np.array(anchor, dtype=dtype), slot, -1)
        digits = [reduce(s) for s in _sums(point, self._peel_terms, dtype)]
        # a row is bad where some coordinate of its rest is nonzero mod q
        rest = _sums(digits, self._row_terms, dtype)
        rest -= point
        bad = np.zeros(len(slot), dtype=dtype)
        for r in rest:
            bad |= reduce(r)
        return [d.reshape(shape) for d in digits], slot.reshape(shape), (bad != 0).reshape(shape)

    def _shift(self, point: np.ndarray, slot: np.ndarray, sign: int) -> np.ndarray:
        """The (n, m) point rows plus sign times each column's slot offset, in place and unreduced.

        encode, decode and burst placement all move points by this one rule, which
        builds one (n, m) compare mask at a time; sign -1 swaps the two slot tables.
        """
        plus, minus = (self._plus_slots, self._minus_slots)[::sign]
        point += slot == plus
        point -= slot == minus
        return point

    def _reduce(self, s: np.ndarray) -> np.ndarray:
        """s mod q as a _dtype column, for |s| < n q^2 + 2q: an int16 wrap of s // q * q cancels."""
        # NumPy vectorises a floor division by a scalar, where % and a table gather are not;
        # burst placement passes int64 sums, which narrow here as the kernel's columns do
        return (s - s // self.q * self.q).astype(self._dtype, copy=False)

    # -- distance certificates -----------------------------------------

    def min_mannheim_distance(self, radius_cap: int = 4) -> MinDistanceResult:
        """Smallest Mannheim weight of a nonzero codeword.

        Sphere search: test every centered vector of weight 1..radius_cap, as its (support,
        values) in weight_w_vectors' order, for membership, so no codeword enumeration is
        needed.  The first weight with a hit is the exact minimum; only its witness is built.
        """
        for w in range(1, radius_cap + 1):
            for support, values in _weight_w_terms(self.n, w, self.q):
                if self._member(zip(support, values)):
                    return MinDistanceResult(w, _vector(self.n, support, values), True)
        return MinDistanceResult(radius_cap + 1, None, False)

    def section_subcode_distance(self) -> int:
        """Minimum Mannheim weight over the q x q cross-section subcode.

        Exhausts the q^2 combinations a*v + b*v1 mod q.
        """
        q = self.q
        v, v1 = self.matrix[0], self.matrix[1]
        points = (
            tuple((a * u + b * w) % q for u, w in zip(v, v1)) for a in range(q) for b in range(q)
        )
        return min(mannheim_weight(point, q) for point in points if any(point))

    # -- packing verification --------------------------------------------

    def verify_perfect_packing(
        self, mode: str = "exhaustive", samples: int = 10**6, seed: int = 0
    ) -> "PackingReport":
        """Certify that the codeword spheres tile Z_q^n exactly once.

        Both modes decode hypercubes in bulk, one ``sweep`` piece at a time,
        and report each row decode flags ``bad``, in row order:
        ``exhaustive`` all q^n of them in linear-index order, ``sampled``
        ``samples`` seeded-random ones.  A row not ``bad`` is encode of its
        label (digits, slot), so with no ``bad`` row z -> label is injective
        from the q^n hypercubes to the q^n labels, a bijection: the spheres
        tile.  On the sweep's ``scalar_rows`` the scalar tile_assign must give
        decode's label (section, rank, slot), or fail (None) on exactly the
        ``bad`` rows; its disagreements are reported after every ``bad`` row.
        """
        samples, seed = check_verification_rules(self.n, mode, samples, seed)
        n, q = self.n, self.q
        exhaustive, wrong, violations = mode == "exhaustive", [], []
        total, placed, count = q**n if exhaustive else samples, 0, 0  # total: the rows swept
        for start, z in sweep(q**n if exhaustive else q, mode, samples, seed, (n,)):
            # an exhaustive piece is hypercube indices, a sampled one rows of n
            # digits; either becomes n int16 columns, and the int64 piece is freed
            z = digits_of(z, (q,) * n) if exhaustive else z.T.astype(np.int16, order="C")
            digits, slot, bad = self.decode(z)
            if exhaustive:
                # the sphere centres found: decoded rows on slot 0
                placed += int(np.count_nonzero((slot == 0) & ~bad))
            broken = np.flatnonzero(bad)
            count += len(broken)
            violations += (f"tile_assign broken at {tuple(z[:, i].tolist())}"
                           for i in broken[: _MAX_VIOLATIONS - len(violations)])
            spots = scalar_rows(start, z.shape[1], total)
            rank = lin_indices([d[spots] for d in digits[1:]], (q,) * (n - 2))
            bulk = zip(digits[0][spots].tolist(), rank.tolist(), slot[spots].tolist())
            for row, answer, flagged in zip(z[:, spots].T.tolist(), bulk, bad[spots].tolist()):
                found = scalar_answer(self.tile_assign, row)
                scalar = found and (found[0].section, found[0].rank, found[1])
                if scalar != (None if flagged else answer):
                    wrong.append(tuple(row))
        violations += (f"scalar tile_assign disagrees with decode at {row}"
                       for row in wrong[: _MAX_VIOLATIONS - len(violations)])
        return PackingReport(n, q, mode, total, placed, count + len(wrong), violations)


class PackingReport(NamedTuple):
    """Result of a perfect-packing verification sweep."""

    n: int
    q: int
    mode: str
    hypercubes_checked: int
    spheres_placed: int
    violation_count: int
    violations: list[str]

    @property
    def ok(self) -> bool:
        return self.violation_count == 0


def check_verification_rules(n: int, mode: str, samples: int, seed: int) -> tuple[int, int]:
    """(samples, seed) as ints; ValueError unless mode is known, n passes check_n(mode, n),
    samples is in [1, MAX_SAMPLES] and seed >= 0."""
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown verification mode: {mode!r}")
    check_n(mode, n)
    samples = at_least("samples", samples, 1)
    if samples > MAX_SAMPLES:
        raise ValueError(f"samples must be <= {MAX_SAMPLES}, got {samples}")
    return samples, at_least("seed", seed, 0)


def scalar_answer(fn, *args):
    """A scalar oracle's answer: fn(*args), or None where the exact code raises ValueError."""
    try:
        return fn(*args)
    except ValueError:
        return None


def _peel_schedule(n: int) -> tuple[tuple[int, int], ...]:
    """The peel's (coordinate, digit) steps, in order; see PerfectLeeCode."""
    return ((0, 0), *((k - 1, n - 1 - k) for k in range(2, n - 1)), (n - 2, n - 2))


def _terms(matrix: Sequence[Sequence[int]], q: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """For each column of matrix mod q, its nonzero (row, entry) pairs."""
    return tuple(tuple((i, a % q) for i, a in enumerate(col) if a % q) for col in zip(*matrix))


def _flat(rows: Sequence[np.ndarray]) -> tuple[list[np.ndarray], tuple[int, ...]]:
    """(rows, shape): the rows broadcast to one shape, each raveled to a 1-D column.

    The kernel runs on 1-D columns; a batch of any shape, such as digit rows
    that broadcast against an orientation row, is raveled in and given back
    in its shape.  Rows of one 1-D shape are returned as they are.
    """
    rows = np.broadcast_arrays(*rows)
    return [row.reshape(-1) for row in rows], rows[0].shape


def _sums(columns: Sequence[np.ndarray], terms, dtype) -> np.ndarray:
    """The columns times the matrix of ``terms``, unreduced: one dtype row per column of it.

    A zero entry costs nothing, and an entry 1 adds its column without a
    multiply.
    """
    out = np.zeros((len(terms), len(columns[0])), dtype=dtype)
    for acc, column_terms in zip(out, terms):
        for i, a in column_terms:
            acc += columns[i] if a == 1 else np.multiply(columns[i], a, dtype=dtype)
    return out


def generator_matrix(n: int) -> PerfectLeeCode:
    """Build and validate the perfect Lee code for dimension n >= 5."""
    code = PerfectLeeCode(build_generators(n))
    if abs(code.det) != code.q:
        raise AssertionError(f"|det| = {abs(code.det)} != q = {code.q}")
    bad = code.non_orthogonal_rows()
    if bad:
        raise AssertionError(f"generator {bad[0]} not orthogonal to h mod q")
    return code


def weight_w_vectors(n: int, w: int, q: int) -> Iterator[IntVector]:
    """All length-n vectors of exact Mannheim weight w, centered entries, in _weight_w_terms' order."""
    return (_vector(n, support, values) for support, values in _weight_w_terms(n, w, q))


def _weight_w_terms(n: int, w: int, q: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The (support, values) of every length-n vector of exact Mannheim weight w, centered entries.

    Enumerates supports of size s <= min(w, n), the compositions of w into s parts in [1, (q-1)/2]
    (s - 1 cuts among the w - 1 gaps, in lexicographic order) and all sign choices.
    """
    cap = (q - 1) // 2
    for s in range(1, min(w, n) + 1):
        cuts = itertools.combinations(range(1, w), s - 1)
        parts = ([b - a for a, b in zip((0, *c), (*c, w))] for c in cuts)
        signed = [tuple(sign * mag for sign, mag in zip(signs, mags))
                  for mags in parts if max(mags) <= cap
                  for signs in itertools.product((1, -1), repeat=s)]
        for support in itertools.combinations(range(n), s):
            for values in signed:
                yield support, values


def _vector(n: int, support: Sequence[int], values: Sequence[int]) -> IntVector:
    """The length-n vector with these values at support and zeros elsewhere."""
    return tuple(dict(zip(support, values)).get(i, 0) for i in range(n))
