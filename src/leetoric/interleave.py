"""Burst-spreading qubit interleaver for the Lee-sphere toric codes.

The interleaver is a bijection between logical qubit addresses
(section, codeword rank, face orientation, in-block position) and
physical faces of the q^n lattice.  Codewords of a section are split
into q super-blocks of q^{n-3} consecutive ranks; block B parks its
qubits on sphere slot B of the target codewords, and the in-block
position walks the in-section codeword order.  Because distinct
codewords are at Mannheim distance >= 3, any radius-1 Lee sphere of
physical errors deinterleaves into q distinct logical codewords, each
left with at most the single error the component code can correct.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .lattice import IntVector, hypercube_lin_indices, hypercubes_from_lin
from .leecode import PerfectLeeCode
from .toric import FaceIndex, face_from_lin, face_lin_index, pair_from_rank

BURST_MODELS = ("aligned", "translate", "multi-translate", "uniform-random")
INT64_MAX = np.iinfo(np.int64).max


@dataclass(frozen=True)
class LogicalAddress:
    """One logical qubit slot in the pre-interleave stream."""

    section: int
    rank: int
    orientation: int
    position: int


@dataclass(frozen=True)
class InterleavedParams:
    """Parameters of the interleaved code over the whole q^n lattice."""

    n: int
    q: int
    length: int
    dimension: int
    t_i: int
    R_i: Fraction
    G_i: Fraction


def interleaved_params(n: int) -> InterleavedParams:
    """[[alpha q^n, alpha q^{n-1}, q^2]] with rate 1/q and gain (q^2+1)/q."""
    if n < 5:
        raise ValueError(f"unsupported dimension: n must be >= 5, got {n}")
    q = 2 * n + 1
    alpha = n * (n - 1) // 2
    R_i = Fraction(1, q)
    return InterleavedParams(
        n=n,
        q=q,
        length=alpha * q**n,
        dimension=alpha * q ** (n - 1),
        t_i=q * q,
        R_i=R_i,
        G_i=R_i * (q * q + 1),
    )


class InterleavingMap:
    """Functional bijection between logical addresses and faces.

    Nothing is materialized: both directions cost O(n) arithmetic per
    query, so the map is usable at dimensions where the full table
    (alpha * q^n entries) would not fit in memory.  The scalar methods
    are exact at any n; the bulk ones run on the code's int64 kernel
    and need n <= 12.  The instance is immutable and safe to share.
    """

    def __init__(self, code: PerfectLeeCode):
        self.code = code
        self.n = code.n
        self.q = code.q
        self.alpha = code.alpha
        self.block_size = code.q ** (code.n - 3)  # codewords per super-block
        self.n_faces = code.alpha * code.q**code.n

    def __repr__(self) -> str:
        return f"InterleavingMap(n={self.n}, q={self.q}, faces={self.n_faces})"

    def check_int64(self) -> None:
        """Raise ValueError unless every face index fits in int64."""
        if self.n_faces > INT64_MAX:
            raise ValueError(
                f"n = {self.n} has {self.n_faces} faces, more than the int64"
                f" limit 2^63 - 1 of the bulk index arithmetic (n <= 12)"
            )

    # -- scalar map ------------------------------------------------------

    def logical_to_physical(self, addr: LogicalAddress) -> FaceIndex:
        """Physical face of a logical address.

        Super-block B = rank // q^{n-3} picks the sphere slot; the
        within-block rank t and position p pick the host codeword
        t*q + p of the same section; orientation rides along unchanged.
        """
        q = self.q
        self._check_address(addr)
        block, t = divmod(addr.rank, self.block_size)
        host = self.code.codeword_from_rank(addr.section, t * q + addr.position)
        anchor = tuple((c + d) % q for c, d in zip(host.point, self.code.offsets[block]))
        return FaceIndex(anchor, pair_from_rank(addr.orientation, self.n))

    def physical_to_logical(self, face: FaceIndex) -> LogicalAddress:
        """Exact inverse of logical_to_physical."""
        host, slot = self.code.tile_assign(face.anchor)
        t, p = divmod(host.rank, self.q)
        return LogicalAddress(
            section=host.section,
            rank=slot * self.block_size + t,
            orientation=face.orientation,
            position=p,
        )

    # -- linear-index form ------------------------------------------------

    def logical_lin_index(self, addr: LogicalAddress) -> int:
        """((j * q^{n-2} + r) * alpha + o) * q + p."""
        per_section = self.code.codewords_per_section
        return (
            (addr.section * per_section + addr.rank) * self.alpha
            + addr.orientation
        ) * self.q + addr.position

    def logical_from_lin(self, idx: int) -> LogicalAddress:
        if not 0 <= idx < self.n_faces:
            raise ValueError(f"logical index {idx} out of range [0, {self.n_faces})")
        idx, p = divmod(idx, self.q)
        idx, o = divmod(idx, self.alpha)
        j, r = divmod(idx, self.code.codewords_per_section)
        return LogicalAddress(j, r, o, p)

    def forward_index(self, idx: int) -> int:
        """Linear face index of a linear logical index."""
        return face_lin_index(self.logical_to_physical(self.logical_from_lin(idx)), self.q)

    def inverse_index(self, idx: int) -> int:
        """Linear logical index of a linear face index."""
        return self.logical_lin_index(
            self.physical_to_logical(face_from_lin(idx, self.n, self.q))
        )

    # -- bulk (vectorized) form --------------------------------------------

    def forward_indices(self, logical: np.ndarray) -> np.ndarray:
        """Vectorized forward_index over an int64 array of logical indices."""
        self.check_int64()
        q, alpha = self.q, self.alpha
        idx, p = np.divmod(np.asarray(logical, dtype=np.int64), q)
        idx, o = np.divmod(idx, alpha)
        j, r = np.divmod(idx, self.code.codewords_per_section)
        block, t = np.divmod(r, self.block_size)
        anchor = self.code.encode(j, t * q + p, block)
        return hypercube_lin_indices(anchor, q) * alpha + o

    def inverse_indices(self, physical: np.ndarray) -> np.ndarray:
        """Vectorized inverse_index over an int64 array of face indices.

        Total: a face whose hypercube lies on no codeword sphere, which
        only a corrupted code has, maps to -1.
        """
        self.check_int64()
        q, alpha = self.q, self.alpha
        lin, o = np.divmod(np.asarray(physical, dtype=np.int64), alpha)
        j, rank, slot, bad = self.code.decode(hypercubes_from_lin(lin, q, self.n))
        t, p = np.divmod(rank, q)
        r = slot * self.block_size + t
        logical = ((j * self.code.codewords_per_section + r) * alpha + o) * q + p
        logical[bad] = -1
        return logical

    def _check_address(self, addr: LogicalAddress) -> None:
        if not 0 <= addr.section < self.q:
            raise ValueError(f"section {addr.section} out of range [0, {self.q})")
        if not 0 <= addr.rank < self.code.codewords_per_section:
            raise ValueError(
                f"rank {addr.rank} out of range [0, {self.code.codewords_per_section})"
            )
        if not 0 <= addr.orientation < self.alpha:
            raise ValueError(
                f"orientation {addr.orientation} out of range [0, {self.alpha})"
            )
        if not 0 <= addr.position < self.q:
            raise ValueError(f"position {addr.position} out of range [0, {self.q})")


@dataclass(frozen=True)
class BurstPattern:
    """A set of errored faces produced by one of the burst models."""

    model: str
    faces: frozenset[FaceIndex]
    centers: tuple[IntVector, ...]


@dataclass
class CorrectionReport:
    """Per-logical-codeword error census after deinterleaving."""

    counts: dict[tuple[int, int], int]
    success: bool
    witnesses: tuple[tuple[tuple[int, int], int], ...]


def make_burst(
    map_: InterleavingMap,
    model: str,
    rng: int | np.random.Generator = 0,
    count: int | None = None,
) -> BurstPattern:
    """Draw one burst-error pattern.

    aligned          one Lee sphere per section, centred on a uniform
                     codeword of that section; one errored face per
                     sphere hypercube (q^2 errors total).
    translate        one Lee sphere at a uniform center; q errors.
    multi-translate  q spheres, the j-th at a uniform center with first
                     coordinate j; one error per distinct hypercube.
    uniform-random   ``count`` distinct faces anywhere (control model).

    The input rules are checked here, before anything is drawn: a known
    model, a count in [0, n_faces] for uniform-random and for no other
    model, and draws that fit in int64 (uniform-random needs n <= 12,
    aligned n <= 14).  A broken rule raises ValueError.
    """
    code = map_.code
    if model not in BURST_MODELS:
        raise ValueError(f"unknown burst model: {model!r}")
    if model != "uniform-random" and count is not None:
        raise ValueError(f"count only applies to the uniform-random model, not {model!r}")
    if model == "uniform-random":
        if count is None or count < 0:
            raise ValueError(f"uniform-random model needs a count >= 0, got {count}")
        map_.check_int64()
    if model == "aligned" and code.codewords_per_section > INT64_MAX:
        raise ValueError(
            f"aligned model draws ranks below q^(n-2) = {code.codewords_per_section},"
            f" more than the int64 limit 2^63 - 1 of the random draw (n <= 14)"
        )
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    n, q = map_.n, map_.q

    faces: list[FaceIndex] = []
    centers: list[IntVector] = []
    if model == "uniform-random":
        for idx in _sample_distinct(rng, map_.n_faces, count):
            faces.append(face_from_lin(idx, n, q))
    elif model == "translate":
        center = tuple(int(x) for x in rng.integers(0, q, size=n))
        centers.append(center)
        faces.extend(_sphere_errors(center, rng, code))
    elif model == "aligned":
        for j in range(q):
            r = int(rng.integers(0, code.codewords_per_section))
            center = code.codeword_from_rank(j, r).point
            centers.append(center)
            faces.extend(_sphere_errors(center, rng, code))
    else:  # multi-translate
        seen: set[IntVector] = set()
        for j in range(q):
            center = (j,) + tuple(int(x) for x in rng.integers(0, q, size=n - 1))
            centers.append(center)
            for face in _sphere_errors(center, rng, code):
                if face.anchor not in seen:
                    seen.add(face.anchor)
                    faces.append(face)
    return BurstPattern(model, frozenset(faces), tuple(centers))


def _sphere_errors(
    center: IntVector, rng: np.random.Generator, code: PerfectLeeCode
) -> Iterable[FaceIndex]:
    """One uniformly oriented errored face on each hypercube of a sphere."""
    n, q = code.n, code.q
    orientations = rng.integers(0, code.alpha, size=q)
    for off, o in zip(code.offsets, orientations):
        anchor = tuple((c + d) % q for c, d in zip(center, off))
        yield FaceIndex(anchor, pair_from_rank(int(o), n))


def _sample_distinct(rng: np.random.Generator, total: int, k: int) -> list[int]:
    """k distinct uniform indices in [0, total) by rejection (k << total)."""
    if k > total:
        raise ValueError(f"cannot draw {k} distinct faces out of {total}")
    chosen: set[int] = set()
    out: list[int] = []
    while len(out) < k:
        for idx in rng.integers(0, total, size=k - len(out)):
            idx = int(idx)
            if idx not in chosen:
                chosen.add(idx)
                out.append(idx)
    return out


def deinterleave_and_correct(
    map_: InterleavingMap, burst: BurstPattern
) -> CorrectionReport:
    """Deinterleave a burst and tally errors per logical codeword.

    The component code corrects one error per codeword block, so the
    burst is correctable iff every (section, rank) tally is <= 1.
    """
    counts: dict[tuple[int, int], int] = {}
    for face in burst.faces:
        addr = map_.physical_to_logical(face)
        key = (addr.section, addr.rank)
        counts[key] = counts.get(key, 0) + 1
    witnesses = tuple(sorted((k, c) for k, c in counts.items() if c > 1))
    return CorrectionReport(counts, not witnesses, witnesses)


@dataclass
class SimulationStats:
    """Aggregated Monte Carlo results; deterministic given the inputs."""

    n: int
    q: int
    model: str
    trials: int
    master_seed: int
    errors_per_trial_max: int
    uniform_count: int | None
    successes: int
    failures: int
    success_rate: float
    max_tally: int
    mean_tally: float
    tally_histogram: dict[int, int]

    def to_dict(self) -> dict:
        histogram = {str(k): v for k, v in sorted(self.tally_histogram.items())}
        return {**asdict(self), "tally_histogram": histogram}


def trial_rng(master_seed: int, trial: int) -> np.random.Generator:
    """Independent, order-free per-trial stream seeded from (master, trial)."""
    return np.random.default_rng((master_seed, trial))


def simulate(
    map_: InterleavingMap,
    model: str,
    trials: int,
    master_seed: int = 0,
    count: int | None = None,
) -> SimulationStats:
    """Run seeded burst trials and report correction statistics.

    Each trial draws its own RNG from (master_seed, trial index), so the
    aggregate is independent of execution order and safe to partition
    across workers.  Trial 0's make_burst checks the model and count
    before any burst is drawn.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    successes = 0
    max_tally = 0
    max_errors = 0
    histogram: dict[int, int] = {}
    total_errors = 0
    total_blocks = 0
    for trial in range(trials):
        burst = make_burst(map_, model, trial_rng(master_seed, trial), count)
        report = deinterleave_and_correct(map_, burst)
        if report.success:
            successes += 1
        for tally in report.counts.values():
            histogram[tally] = histogram.get(tally, 0) + 1
            total_errors += tally
            total_blocks += 1
            if tally > max_tally:
                max_tally = tally
        if len(burst.faces) > max_errors:
            max_errors = len(burst.faces)
    return SimulationStats(
        n=map_.n,
        q=map_.q,
        model=model,
        trials=trials,
        master_seed=master_seed,
        errors_per_trial_max=max_errors,
        uniform_count=count,
        successes=successes,
        failures=trials - successes,
        success_rate=successes / trials,
        max_tally=max_tally,
        mean_tally=total_errors / total_blocks if total_blocks else 0.0,
        tally_histogram=histogram,
    )
