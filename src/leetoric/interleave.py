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
The code's parameters (``InterleavedParams``, ``interleaved_params``) live in
``toric`` and the model names (``BURST_MODELS``) in ``leecode``, so the exact
commands load none of this module; this module imports all three back.
"""

from __future__ import annotations

import operator
from typing import Iterator, NamedTuple, Sequence

from . import leecode
from ._numpy import np
from .lattice import IntVector, at_least, digits_of, hypercube_lin_index, in_range, lin_indices
from .leecode import BURST_MODELS, PerfectLeeCode, check_n
from .toric import InterleavedParams, face_from_lin, interleaved_params

# simulate places and tallies bursts in chunks of about this many faces; larger
# chunks cost peak memory for little time (8192 raises the peak RSS of perfbench's
# five montecarlo commands from 36.4 to 37.8 MB in process, and saves ~60 ms of their 0.24 s)
CHUNK_FACES = 1024
# uniform-random draws at most this many distinct faces: a trial keeps them in a
# Python set, 0.97 s and 242 MB at count 2^21 and n = 6 in process on 2 vCPUs,
# where the n_faces limit alone would let n = 6 ask for 72M of them
MAX_COUNT = 2**21


class LogicalAddress(NamedTuple):
    """One logical qubit slot in the pre-interleave stream."""

    section: int
    rank: int
    orientation: int
    position: int


class InterleavingMap:
    """Functional bijection between logical indices and face indices.

    Nothing is materialized: both directions cost O(n) arithmetic per
    query, so the map is usable at dimensions where the full table
    (alpha * q^n entries) would not fit in memory.  The scalar methods
    are exact at any n; the bulk ones run on the code's int16 column
    kernel with int64 indices and need n <= 12.  The instance is
    immutable and safe to share.
    """

    def __init__(self, code: PerfectLeeCode):
        self.code = code
        self.n = code.n
        self.q = code.q
        self.alpha = code.alpha
        self.block_size = code.q ** (code.n - 3)  # codewords per super-block
        self.n_faces = code.alpha * code.q**code.n
        # the big-endian radices of a logical index, (section, block,
        # m_{n-2}, ..., m_2, orientation, position), and of a face index,
        # (anchor coordinates, orientation)
        self.logical_radices = (code.q,) * (code.n - 1) + (code.alpha, code.q)
        self.face_radices = (code.q,) * code.n + (code.alpha,)

    def __repr__(self) -> str:
        return f"InterleavingMap(n={self.n}, q={self.q}, faces={self.n_faces})"

    # -- scalar map: the exact-int twin of the bulk map ---------------------

    def logical_from_lin(self, idx: int) -> LogicalAddress:
        """Split ((j * q^{n-2} + r) * alpha + o) * q + p into its address."""
        idx, p = divmod(in_range("logical index", idx, self.n_faces), self.q)
        idx, o = divmod(idx, self.alpha)
        j, r = divmod(idx, self.code.codewords_per_section)
        return LogicalAddress(j, r, o, p)

    def forward_index(self, idx: int) -> int:
        """Face index of a logical index.

        Super-block B = rank // q^{n-3} picks the sphere slot, and the host
        codeword is t*q + p of the same section; orientation rides along.
        """
        q = self.q
        addr = self.logical_from_lin(idx)
        block, t = divmod(addr.rank, self.block_size)
        host = self.code.codeword_from_rank(addr.section, t * q + addr.position)
        anchor = tuple((c + d) % q for c, d in zip(host.point, self.code.offsets[block]))
        return hypercube_lin_index(anchor, q) * self.alpha + addr.orientation

    def inverse_index(self, idx: int) -> int:
        """Logical index of a face index; exact inverse of forward_index."""
        anchor, o = face_from_lin(idx, self.n, self.q)
        host, slot = self.code.tile_assign(anchor)
        t, p = divmod(host.rank, self.q)
        codeword = host.section * self.code.codewords_per_section + slot * self.block_size + t
        return (codeword * self.alpha + o) * self.q + p

    def physical_to_logical(self, face: int) -> LogicalAddress:
        """Logical address of a face index."""
        return self.logical_from_lin(self.inverse_index(face))

    # -- bulk (vectorized) form --------------------------------------------

    def forward_digits(self, logical: Sequence[np.ndarray]) -> list[np.ndarray]:
        """forward_index on digit rows: n anchor rows and the orientation row, unchecked.

        Logical digits are (section, block, m_{n-2}, ..., m_2, o, p): block is the
        slot and p is the host's last digit m_v, so moving them gives the host's digits.
        """
        section, slot, *middle, o, p = logical
        return [*self.code.encode([section, *middle, p], slot), o]

    def inverse_digits(self, face: Sequence[np.ndarray]) -> tuple[list[np.ndarray], np.ndarray]:
        """inverse_index on digit rows: (logical digit rows, bad), bad as decode's."""
        *anchor, o = face
        (section, *middle, p), slot, bad = self.code.decode(anchor)
        return [section, slot, *middle, o, p], bad

    def logical_pieces(
        self, mode: str = "exhaustive", k: int = 0, seed: int = 0, by_slot: bool = False
    ) -> Iterator[tuple[int, list[np.ndarray]]]:
        """The (start, logical digit rows) pieces of a bulk sweep of the slots, start the piece's offset.

        ``sampled``: the digit rows of sweep's draw of k slots.  ``exhaustive``:
        every slot, in logical order, in pieces of whole prefixes (section,
        block, m_{n-2}, ..., m_2) of at most SWEEP_CHUNK (2^15) orientation-free
        tuples (prefix, p), or SWEEP_CHUNK slots if ``by_slot``.  There every
        row but o holds one entry per tuple, shaped (prefixes, 1, q), and o is
        arange(alpha) shaped (alpha, 1), so forward_digits encodes each anchor
        once, not alpha times.  A row computed from o broadcasts to
        (prefixes, alpha, q), whose raveled entry i is slot start + i.
        """
        if mode != "exhaustive":
            for start, idx in leecode.sweep(self.n_faces, mode, k, seed):
                digits = list(digits_of(idx, self.logical_radices))
                del idx  # the int64 draw, not held while the caller runs the piece
                yield start, digits
            return
        n, q, alpha = self.n, self.q, self.alpha
        per_prefix = q * alpha if by_slot else q
        step = q * max(leecode.SWEEP_CHUNK // per_prefix, 1)  # tuples per piece
        o = np.arange(alpha, dtype=np.int16)[:, None]
        for first in range(0, q**n, step):
            tuples = np.arange(first, min(first + step, q**n), dtype=np.int64)
            *prefix, p = digits_of(tuples, (q,) * n).reshape(n, -1, 1, q)
            yield first * alpha, [*prefix, o, p]

    def forward_indices(self, logical: np.ndarray) -> np.ndarray:
        """Vectorized forward_index over an int64 array of logical indices.

        An index outside [0, n_faces) raises forward_index's ValueError.
        """
        digits = digits_of(self._check_indices(logical, "logical"), self.logical_radices)
        return lin_indices(self.forward_digits(digits), self.face_radices)

    def inverse_indices(self, physical: np.ndarray) -> np.ndarray:
        """Vectorized inverse_index over an int64 array of face indices.

        An index outside [0, n_faces) raises inverse_index's ValueError.
        Total on that range: a face whose hypercube lies on no codeword
        sphere, which only a corrupted code has, maps to -1.
        """
        physical = self._check_indices(physical, "face")
        digits, bad = self.inverse_digits(digits_of(physical, self.face_radices))
        logical = lin_indices(digits, self.logical_radices)
        logical[bad] = -1
        return logical

    def _check_indices(self, idx: np.ndarray, kind: str) -> np.ndarray:
        """idx as int64; ValueError unless idx is 1-D and every entry is an integer in [0, n_faces).

        The range is checked in idx's own dtype, before the cast, so the
        message names the index the caller passed.
        """
        check_n("index", self.n)
        idx = np.asarray(idx)
        if idx.ndim != 1:
            raise ValueError(f"{kind} indices must be a 1-D array, got shape {idx.shape}")
        if idx.size and not np.issubdtype(idx.dtype, np.integer):
            raise ValueError(f"{kind} indices must be integers, got dtype {idx.dtype}")
        out = np.flatnonzero((idx < 0) | (idx >= self.n_faces))
        if len(out):
            raise ValueError(f"{kind} index {idx[out[0]]} out of range [0, {self.n_faces})")
        return idx.astype(np.int64, copy=False)


class BurstPattern(NamedTuple):
    """A set of errored faces, as face indices, produced by one of the burst models."""

    model: str
    faces: frozenset[int]
    centers: tuple[IntVector, ...]


class CorrectionReport(NamedTuple):
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
    model, n under check_n's row for the model, a count in [0, min(n_faces,
    MAX_COUNT)] for uniform-random only, then an int seed >= 0.  A broken
    rule raises ValueError.  This is ``simulate``'s per-trial draw and chunk
    kernel run for one trial.
    """
    count = _check_burst_rules(map_.n, model, count)
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(at_least("seed", rng, 0))
    draw = _draw(rng, _bounds(map_, model), count)
    anchors, orientations, centers, _ = _place(map_, model, [draw])
    faces = frozenset(
        hypercube_lin_index(a, map_.q) * map_.alpha + o
        for a, o in zip(zip(*anchors.tolist()), orientations.tolist())
    )
    return BurstPattern(model, faces, tuple(zip(*centers.tolist())))


def _check_burst_rules(n: int, model: str, count: int | None) -> int | None:
    """count as an int; ValueError unless ``model`` with ``count`` can be drawn in dimension n."""
    count = None if count is None else operator.index(count)
    if model not in BURST_MODELS:
        raise ValueError(f"unknown burst model: {model!r}")
    if model != "uniform-random" and count is not None:
        raise ValueError(f"count only applies to the uniform-random model, not {model!r}")
    n = check_n(model, n)
    if model == "uniform-random":
        if count is None or count < 0:
            raise ValueError(f"uniform-random model needs a count >= 0, got {count}")
        n_faces = interleaved_params(n).length
        if count > n_faces:
            raise ValueError(f"cannot draw {count} distinct faces out of {n_faces}")
        if count > MAX_COUNT:
            raise ValueError(f"uniform-random model draws at most {MAX_COUNT} faces, got {count}")
    return count


def _bounds(map_: InterleavingMap, model: str) -> int | np.ndarray:
    """The bounds of one burst's rng call, whose order defines the models of make_burst.

    simulate builds them once.  uniform-random: n_faces, the bound of each of
    its face indices.  A sphere model: a (spheres, width) int64 array, a row
    per sphere: its center (aligned: a rank; multi-translate: all but the
    section), then its q orientations, which aligned draws though only
    make_burst reads them.
    """
    code, n, q = map_.code, map_.n, map_.q
    if model == "uniform-random":
        return map_.n_faces
    if model == "translate":
        spheres, head = 1, [q] * n
    elif model == "aligned":
        spheres, head = q, [code.codewords_per_section]
    else:
        spheres, head = q, [q] * (n - 1)
    return np.array([head + [code.alpha] * q] * spheres, dtype=np.int64)


def _draw(rng: np.random.Generator, bounds: int | np.ndarray, count: int | None) -> np.ndarray:
    """One burst's rng call: ``count`` distinct indices below bounds, else one below each bound."""
    return rng.integers(0, bounds) if count is None else _sample_distinct(rng, bounds, count)


def _place(
    map_: InterleavingMap, model: str, draws: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The faces of a chunk of bursts, one _draw each: (anchors, orientations, centers, owner).

    anchors is (n, k) and centers (n, spheres), one row per coordinate;
    face i is in burst owner[i], and each burst's faces and centers keep
    their draw order.
    """
    code, n, q = map_.code, map_.n, map_.q
    drawn = np.concatenate(draws)
    if model == "uniform-random":
        digits = digits_of(drawn, map_.face_radices)
        anchors, orientations, centers = digits[:-1], digits[-1], np.empty((n, 0), np.int16)
    else:
        heads, orientations = drawn[:, :-q].T, drawn[:, -q:].reshape(-1)
        sections = np.tile(np.arange(q, dtype=np.int16), len(draws))
        if model == "aligned":
            ranks = digits_of(heads[0], (q,) * (n - 2))
            centers = np.array(code.encode([sections, *ranks], np.zeros_like(sections)))
        else:  # the heads are whole centers (translate) or all but the section
            centers = np.vstack([sections, heads]) if model == "multi-translate" else heads
        # each center moved by every slot offset, sphere by sphere
        slots = np.tile(np.arange(q, dtype=np.int16), centers.shape[1])
        anchors = code._reduce(code._shift(np.repeat(centers, q, axis=1), slots, 1))
    owner = np.repeat(np.arange(len(draws)), anchors.shape[1] // len(draws))
    if model == "multi-translate":  # keep the first face drawn on each hypercube of a burst
        order, starts = _runs([*anchors, owner], max(q, len(draws)))
        keep = np.sort(order[starts])
        anchors, orientations, owner = anchors[:, keep], orientations[keep], owner[keep]
    return anchors, orientations, centers, owner


def _runs(rows: Sequence[np.ndarray], top: int) -> tuple[np.ndarray, np.ndarray]:
    """(order, starts): the stable lexsort of int columns in [0, top], and where its runs start."""
    # lexsort sorts on the last row first, and far faster on narrow ints
    keys = np.array(rows, dtype=np.min_scalar_type(top))
    order = np.lexsort(keys)
    starts = np.arange(len(order)) == 0  # the first column starts a run
    for key in keys.take(order, axis=1):
        starts[1:] |= key[1:] != key[:-1]
    return order, np.flatnonzero(starts)


def _sample_distinct(rng: np.random.Generator, total: int, k: int) -> np.ndarray:
    """k distinct uniform indices in [0, total), in the order first drawn.

    Draws k - len(out) more values at a time and keeps each new value in
    draw order, until k are kept.  Only the new draws are tested against
    the kept set, so a near-total k costs its draws, not rounds x k.
    """
    out, kept = [], set()
    while len(out) < k:
        for x in rng.integers(0, total, size=k - len(out)).tolist():
            if x not in kept:
                kept.add(x)
                out.append(x)
    return np.array(out, dtype=np.int64)


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


class SimulationStats(NamedTuple):
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
        return {**self._asdict(), "tally_histogram": histogram}


def trial_rng(master_seed: int, trial: int) -> np.random.Generator:
    """Independent, order-free per-trial stream seeded from (master, trial)."""
    return np.random.default_rng((master_seed, trial))


def check_simulation_rules(n: int, model: str, trials: int, seed: int, count: int | None) -> tuple:
    """(trials, seed, count) as ints; ValueError unless trials >= 1, seed >= 0 and the burst rules hold."""
    trials, seed = at_least("trials", trials, 1), at_least("seed", seed, 0)
    return trials, seed, _check_burst_rules(n, model, count)


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
    across workers.  The trials, the seed (>= 0) and the input rules are
    checked before any burst is drawn.  A trial makes only its rng calls;
    the bursts are placed and tallied in chunks of about CHUNK_FACES
    faces, and the result equals a loop of make_burst and
    deinterleave_and_correct over the same trials.
    """
    trials, master_seed, count = check_simulation_rules(map_.n, model, trials, master_seed, count)
    successes = max_errors = 0
    histogram: dict[int, int] = {}
    drawn = {"translate": map_.q, "uniform-random": count}.get(model, map_.q**2)
    per_chunk = -(-CHUNK_FACES // max(drawn, 1))  # trials drawing about CHUNK_FACES faces
    bounds = _bounds(map_, model)
    for first in range(0, trials, per_chunk):
        bursts = range(first, min(first + per_chunk, trials))
        draws = [_draw(trial_rng(master_seed, trial), bounds, count) for trial in bursts]
        anchors, _, _, owner = _place(map_, model, draws)
        worst, tallies = _tally(map_.code, anchors, owner, len(bursts))
        successes += int(np.count_nonzero(worst <= 1))
        max_errors = max(max_errors, int(np.bincount(owner, minlength=len(bursts)).max()))
        for tally, blocks in enumerate(np.bincount(tallies).tolist()):
            if blocks:
                histogram[tally] = histogram.get(tally, 0) + blocks
    blocks = sum(histogram.values())
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
        max_tally=max(histogram, default=0),
        mean_tally=sum(t * b for t, b in histogram.items()) / blocks if blocks else 0.0,
        tally_histogram=histogram,
    )


def _tally(
    code: PerfectLeeCode, anchors: np.ndarray, owner: np.ndarray, bursts: int
) -> tuple[np.ndarray, np.ndarray]:
    """(worst tally per burst, every nonzero tally) of a chunk's faces, face i in burst owner[i].

    A face's logical codeword is (section, rank) with rank = slot *
    q^(n-3) + its host's digits m_{n-2}, ..., m_2 read in base q, so it is
    keyed on (burst, slot, host digits but m_v): small ints, with no
    combined key to overflow at large n.  A face on no codeword sphere,
    which only a corrupted code has, raises ValueError.
    """
    digits, slot, bad = code.decode(anchors)
    if bad.any():
        first = tuple(anchors[:, bad.argmax()].tolist())
        raise ValueError(f"face anchor {first} is on no codeword sphere")
    order, starts = _runs(digits[:-1] + [slot, owner], max(code.q, bursts))
    tallies = np.diff(starts, append=len(order))
    worst = np.zeros(bursts, dtype=np.int64)
    np.maximum.at(worst, owner[order[starts]], tallies)
    return worst, tallies
