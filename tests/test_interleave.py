import hashlib
import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leetoric import interleave
from leetoric.checks import run_verification
from leetoric.interleave import (
    BURST_MODELS,
    BurstPattern,
    InterleavingMap,
    LogicalAddress,
    SimulationStats,
    _sample_distinct,
    deinterleave_and_correct,
    check_int64,
    check_simulation_rules,
    interleaved_params,
    make_burst,
    simulate,
    trial_rng,
)
from leetoric.lattice import digits_of, hypercube_from_lin, hypercube_lin_index, lin_indices
from leetoric.leecode import PerfectLeeCode, build_generators, generator_matrix
from leetoric.toric import face_from_lin

from conftest import lee_distance


def logical_index(map_, section, rank, orientation, position):
    """The logical index of an address, composed as the map's layout documents."""
    return (
        (section * map_.code.codewords_per_section + rank) * map_.alpha + orientation
    ) * map_.q + position


def anchors(burst):
    return [face_from_lin(f, 5, 11)[0] for f in burst.faces]


MAPS = {n: InterleavingMap(generator_matrix(n)) for n in range(5, 13)}


class TestInterleavedParams:
    def test_n5(self):
        p = interleaved_params(5)
        assert (p.length, p.dimension, p.t_i) == (10 * 11**5, 10 * 11**4, 121)
        assert p.R_i == Fraction(1, 11)
        assert p.G_i == Fraction(122, 11)

    def test_n6_gain(self):
        p = interleaved_params(6)
        assert (p.length, p.dimension, p.t_i) == (15 * 13**6, 15 * 13**5, 169)
        assert p.G_i == Fraction(170, 13)

    def test_n8(self):
        p = interleaved_params(8)
        assert (p.length, p.dimension) == (28 * 17**8, 28 * 17**7)
        assert p.R_i == Fraction(1, 17)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            interleaved_params(4)

    def test_int64_limit_is_numpys_as_an_exact_int(self):
        assert interleave.INT64_MAX == np.iinfo(np.int64).max
        assert type(interleave.INT64_MAX) is int
        check_int64(12)
        with pytest.raises(ValueError) as exc:
            check_int64(13)
        assert str(exc.value) == (f"n = 13 has {78 * 27**13} faces, more than the int64"
                                  " limit 2^63 - 1 of the bulk index arithmetic (n <= 12)")


class TestScalarMap:
    def test_zero_address(self, map5):
        assert face_from_lin(map5.forward_index(0), 5, 11) == ((0,) * 5, 0)

    def test_position_walks_codewords(self, map5):
        face = map5.forward_index(logical_index(map5, 0, 0, 0, 1))
        assert face_from_lin(face, 5, 11) == ((0, 0, 0, 1, 8), 0)

    def test_superblock_changes_slot(self, map5):
        face = map5.forward_index(logical_index(map5, 0, 121, 3, 0))
        assert face_from_lin(face, 5, 11) == ((1, 0, 0, 0, 0), 3)

    def test_inverse_of_superblock_example(self, map5):
        addr = map5.physical_to_logical(11**4 * 10 + 3)  # anchor (1, 0, 0, 0, 0), o = 3
        assert addr == LogicalAddress(0, 121, 3, 0)

    def test_roundtrip_sampled(self, map5):
        rnd = random.Random(12)
        for _ in range(2000):
            idx = rnd.randrange(map5.n_faces)
            face = map5.forward_index(idx)
            assert map5.inverse_index(face) == idx
            assert map5.physical_to_logical(face) == map5.logical_from_lin(idx)

    def test_orientation_transparent(self, map5):
        rnd = random.Random(13)
        for _ in range(500):
            idx = rnd.randrange(map5.n_faces)
            assert map5.forward_index(idx) % map5.alpha == map5.logical_from_lin(idx).orientation

    def test_section_confinement(self, map5, code5):
        rnd = random.Random(14)
        for _ in range(500):
            idx = rnd.randrange(map5.n_faces)
            anchor, _ = face_from_lin(map5.forward_index(idx), 5, 11)
            host = code5.tile_assign(anchor)[0]
            assert host.section == map5.logical_from_lin(idx).section


class TestLinearIndexForms:
    def test_lin_roundtrip(self, map5):
        rnd = random.Random(21)
        for _ in range(1000):
            idx = rnd.randrange(map5.n_faces)
            addr = map5.logical_from_lin(idx)
            assert logical_index(map5, addr.section, addr.rank, addr.orientation,
                                 addr.position) == idx

    def test_lin_out_of_range(self, map5):
        with pytest.raises(ValueError):
            map5.logical_from_lin(map5.n_faces)

    def test_zero_maps_to_zero(self, map5):
        assert map5.forward_index(0) == 0


def outcome(call, *args):
    """The repr of what a call gives, its value or its ValueError; a NumPy scalar shows in it."""
    try:
        return repr(call(*args))
    except ValueError as exc:
        return repr(exc)


class TestNumpyIntegers:
    """A NumPy integer gives the answer or the error of the Python int it holds."""

    RULES_ON_N = {
        "interleaved_params": interleaved_params,
        "check_int64": check_int64,
        "build_generators": build_generators,
        "aligned": lambda n: check_simulation_rules(n, "aligned", 1, 0, None),
        "uniform-random": lambda n: check_simulation_rules(n, "uniform-random", 1, 0, 5),
    }

    @pytest.mark.parametrize("rule", sorted(RULES_ON_N))
    @pytest.mark.parametrize("n", [4, 5, 12, 13, 14, 15, 40])
    def test_rules_on_n(self, rule, n):
        call = self.RULES_ON_N[rule]
        assert outcome(call, np.int64(n)) == outcome(call, n)

    @pytest.mark.parametrize("n", [4, 13, 40])
    def test_verification_refuses_before_any_check(self, n):
        # a wrapped face count let n = 13 through to FAIL on a valid code
        assert outcome(run_verification, np.int64(n), "sampled", 100) == outcome(
            run_verification, n, "sampled", 100)

    def test_scalar_maps_stay_exact_at_n13(self):
        # n = 13 has more than 2^63 faces: int64 arithmetic on an index wraps
        map13 = InterleavingMap(generator_matrix(13))
        for f in np.random.default_rng(1).integers(0, 2**63 - 1, size=300):
            for call in (map13.inverse_index, map13.forward_index, map13.logical_from_lin,
                         lambda i: face_from_lin(i, 13, 27)):
                assert outcome(call, f) == outcome(call, int(f))

    def test_uniform_count_sizes_the_chunks_as_an_int(self, map5):
        # an int8 count once sized the chunks in int8: -(-1024 // 5) overflowed
        assert outcome(simulate, map5, "uniform-random", 2, 0, np.int8(5)) == outcome(
            simulate, map5, "uniform-random", 2, 0, 5)

    def test_stats_of_numpy_trials_are_json(self, map5):
        stats = simulate(map5, "translate", np.int64(3))
        assert json.dumps(stats.to_dict()) == json.dumps(simulate(map5, "translate", 3).to_dict())

    def test_bool_trials_are_counted_as_an_int(self, map5):
        stats = simulate(map5, "translate", True)
        assert type(stats.trials) is int
        assert '"trials": 1,' in json.dumps(stats.to_dict())

    def test_packing_counts_read_numpy_samples(self, code5):
        call = code5.verify_perfect_packing
        assert outcome(call, "sampled", np.int64(100), np.int64(2)) == outcome(call, "sampled", 100, 2)

    @pytest.mark.parametrize("model, args", [
        ("translate", (2.0,)), ("translate", (2, 0.0)), ("uniform-random", (2, 0, 5.0)),
    ], ids=["trials", "seed", "count"])
    def test_float_counts_are_refused(self, map5, model, args):
        with pytest.raises(TypeError):
            simulate(map5, model, *args)

    def test_scalar_maps_read_numpy_dimensions(self):
        # alpha * q^n in int64 wraps at n = 13, and would move the range bound
        last = 78 * 27**13 - 1
        for n, q in ((np.int64(13), np.int64(27)), (np.int16(13), np.int16(27))):
            assert face_from_lin(last, n, q) == face_from_lin(last, 13, 27)
            assert outcome(face_from_lin, last + 1, n, q) == outcome(face_from_lin, last + 1, 13, 27)
            assert hypercube_from_lin(27**13 - 1, q, n) == (26,) * 13


class TestBulkMap:
    def test_bulk_matches_scalar(self, map5):
        rng = np.random.default_rng(31)
        idx = rng.integers(0, map5.n_faces, size=5000, dtype=np.int64)
        fwd = map5.forward_indices(idx)
        for i in range(0, 5000, 7):
            assert fwd[i] == map5.forward_index(int(idx[i]))
        back = map5.inverse_indices(fwd)
        assert np.array_equal(back, idx)
        for i in range(0, 5000, 17):
            assert map5.inverse_index(int(fwd[i])) == int(idx[i])

    def test_bulk_matches_scalar_n6(self, map6):
        rng = np.random.default_rng(32)
        idx = rng.integers(0, map6.n_faces, size=2000, dtype=np.int64)
        fwd = map6.forward_indices(idx)
        assert np.array_equal(map6.inverse_indices(fwd), idx)
        for i in range(0, 2000, 41):
            assert fwd[i] == map6.forward_index(int(idx[i]))

    @pytest.mark.parametrize("n", range(7, 13))
    def test_bulk_matches_scalar_up_to_top_index(self, n):
        map_ = InterleavingMap(generator_matrix(n))
        top = map_.n_faces
        rng = np.random.default_rng(100 + n)
        idx = np.concatenate(
            [[0, 1, top - 2, top - 1], rng.integers(0, top, size=60, dtype=np.int64)]
        ).astype(np.int64)
        fwd = map_.forward_indices(idx)
        assert [int(f) for f in fwd] == [map_.forward_index(int(i)) for i in idx]
        assert np.array_equal(map_.inverse_indices(fwd), idx)

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(5, 12), data=st.data())
    def test_index_forms_compose_the_digit_forms(self, n, data):
        map_ = MAPS[n]
        idx = np.array(data.draw(st.lists(st.integers(0, map_.n_faces - 1), max_size=20))
                       + [0, map_.n_faces - 1], dtype=np.int64)
        fwd = map_.forward_indices(idx)
        face = map_.forward_digits(digits_of(idx, map_.logical_radices))
        assert np.array_equal(fwd, lin_indices(face, map_.face_radices))
        assert fwd.tolist() == [map_.forward_index(i) for i in idx.tolist()]
        logical, bad = map_.inverse_digits(digits_of(fwd, map_.face_radices))
        assert not bad.any()
        back = map_.inverse_indices(fwd)
        assert np.array_equal(back, lin_indices(logical, map_.logical_radices))
        assert back.tolist() == [map_.inverse_index(f) for f in fwd.tolist()] == idx.tolist()

    def test_bulk_rejects_int64_overflow(self):
        map13 = InterleavingMap(generator_matrix(13))
        assert map13.n_faces > np.iinfo(np.int64).max
        for bulk in (map13.forward_indices, map13.inverse_indices):
            with pytest.raises(ValueError, match="int64"):
                bulk(np.array([0], dtype=np.int64))
        assert map13.inverse_index(map13.forward_index(map13.n_faces - 1)) == map13.n_faces - 1

    @pytest.mark.parametrize("offset", [-1, 0, 5], ids=["minus-one", "n_faces", "n_faces+5"])
    def test_bulk_maps_reject_out_of_range_with_the_scalar_message(self, map5, offset):
        bad = -1 if offset < 0 else map5.n_faces + offset
        for bulk, scalar, kind in (
            (map5.forward_indices, map5.forward_index, "logical"),
            (map5.inverse_indices, map5.inverse_index, "face"),
        ):
            message = f"{kind} index {bad} out of range [0, 1610510)"
            with pytest.raises(ValueError) as exc:
                scalar(bad)
            assert str(exc.value) == message
            with pytest.raises(ValueError) as exc:
                bulk(np.array([bad], dtype=np.int64))
            assert str(exc.value) == message

    @pytest.mark.parametrize("bad", [[1.7], [0.0, 2.0]], ids=["fraction", "whole-floats"])
    def test_bulk_maps_reject_float_indices(self, map5, bad):
        for bulk, kind in ((map5.forward_indices, "logical"), (map5.inverse_indices, "face")):
            with pytest.raises(ValueError) as exc:
                bulk(np.array(bad))
            assert str(exc.value) == f"{kind} indices must be integers, got dtype float64"
        assert map5.forward_indices(np.array([], dtype=np.float64)).shape == (0,)

    @pytest.mark.parametrize("shape", [(2, 2), ()], ids=["2-d", "0-d"])
    def test_bulk_maps_reject_arrays_that_are_not_1d(self, map5, shape):
        for bulk, kind in ((map5.forward_indices, "logical"), (map5.inverse_indices, "face")):
            with pytest.raises(ValueError) as exc:
                bulk(np.zeros(shape, dtype=np.int64))
            assert str(exc.value) == f"{kind} indices must be a 1-D array, got shape {shape}"

    def test_bulk_maps_name_the_first_bad_element(self, map5):
        idx = np.array([0, 7, map5.n_faces + 5, -1, map5.n_faces], dtype=np.int64)
        for bulk, kind in ((map5.forward_indices, "logical"), (map5.inverse_indices, "face")):
            with pytest.raises(ValueError) as exc:
                bulk(idx)
            assert str(exc.value) == f"{kind} index 1610515 out of range [0, 1610510)"

    @pytest.mark.parametrize("value", [2**64 - 1, 2**63])
    @pytest.mark.parametrize("method, kind", [("forward_indices", "logical"),
                                              ("inverse_indices", "face")])
    def test_unsigned_index_is_named_as_passed(self, map5, method, kind, value):
        # the range check runs before the int64 cast, which would wrap value
        bulk = getattr(map5, method)
        with pytest.raises(ValueError) as exc:
            bulk(np.array([7, value], dtype=np.uint64))
        assert str(exc.value) == f"{kind} index {value} out of range [0, 1610510)"
        assert bulk(np.array([7], dtype=np.uint64)).tolist() == bulk(np.array([7])).tolist()

    def test_inverse_is_minus_one_exactly_off_the_lattice(self):
        gens = build_generators(5)
        middle = list(gens.middle)
        middle[0] = middle[0][:-1] + (middle[0][-1] + 1,)
        bad_map = InterleavingMap(PerfectLeeCode(gens._replace(middle=tuple(middle))))
        faces = np.random.default_rng(5).integers(0, bad_map.n_faces, size=20000)
        bad = bad_map.code.decode(digits_of(faces // bad_map.alpha, (11,) * 5))[2]
        assert bad.any() and not bad.all()
        back = bad_map.inverse_indices(faces)
        assert np.array_equal(back == -1, bad)
        assert (back[~bad] >= 0).all()

    def test_sampled_roundtrip_n6(self, map6):
        rng = np.random.default_rng(33)
        idx = rng.integers(0, map6.n_faces, size=10**6, dtype=np.int64)
        assert np.array_equal(map6.inverse_indices(map6.forward_indices(idx)), idx)


# make_burst at n=5, seeds 0..9, hashed over (sorted faces, centers) at the
# scalar implementation that preceded the batched draw
BURST_SHA256 = {
    "aligned": "6b3cc7c810b430cd07229dc2026061f0317b7edd53f366f742a46d684631bb20",
    "translate": "c9ac57f62b98b55c4443f6844e0d26fc46a28715fd889a07c87d3a30140d9ff4",
    "multi-translate": "e170729a98dc8f78e26075a80428de0089a87287e0199ce23ddb9670dbda8553",
    "uniform-random": "038bc40bde8cfbeef4c978285a7d1adc657e46f05ccd72fccacf71e373d16e84",
}


class TestMakeBurst:
    @pytest.mark.parametrize("model", BURST_MODELS)
    def test_draws_are_pinned(self, map5, model):
        digest = hashlib.sha256()
        for seed in range(10):
            burst = make_burst(map5, model, seed, 121 if model == "uniform-random" else None)
            faces = sorted(face_from_lin(f, 5, 11) for f in burst.faces)
            digest.update(repr((faces, burst.centers)).encode())
        assert digest.hexdigest() == BURST_SHA256[model]

    def test_sample_distinct_replays_the_rejection_loop(self):
        def loop(rng, total, k):
            chosen, out = set(), []
            while len(out) < k:
                for idx in rng.integers(0, total, size=k - len(out)).tolist():
                    if idx not in chosen:
                        chosen.add(idx)
                        out.append(idx)
            return out

        for seed in range(30):
            for total, k in ((50, 40), (40, 40), (7, 0), (10**6, 121), (3000, 3000)):
                got = _sample_distinct(np.random.default_rng(seed), total, k)
                assert got.tolist() == loop(np.random.default_rng(seed), total, k)

    @pytest.mark.parametrize("n", [5, 9, 10, 14])  # aligned's bound passes 2^32 at n = 10
    @pytest.mark.parametrize("model", ["translate", "aligned", "multi-translate"])
    def test_one_draw_call_replays_the_per_sphere_calls(self, model, n):
        def loop(rng, q, alpha, per_section):
            if model == "translate":  # the center, then the orientations
                return [rng.integers(0, q, size=n), rng.integers(0, alpha, size=q)]
            bound, size = (per_section, None) if model == "aligned" else (q, n - 1)
            draws = []
            for _ in range(q):  # each sphere's head, then its orientations
                draws.append(rng.integers(0, bound, size=size))
                draws.append(rng.integers(0, alpha, size=q))
            return draws

        map_ = MAPS.get(n) or InterleavingMap(generator_matrix(n))
        q, spheres = map_.q, 1 if model == "translate" else map_.q
        for trial in range(200):
            got_rng, want_rng = trial_rng(9, trial), trial_rng(9, trial)
            got = interleave._draw(map_, model, got_rng, None)
            want = loop(want_rng, q, map_.alpha, map_.code.codewords_per_section)
            assert got.dtype == np.int64 and got.shape[0] == spheres
            assert got.ravel().tolist() == np.concatenate([np.atleast_1d(w) for w in want]).tolist()
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_unknown_model(self, map5):
        with pytest.raises(ValueError, match="unknown burst model"):
            make_burst(map5, "diagonal")

    def test_translate_shape(self, map5):
        burst = make_burst(map5, "translate", 5)
        assert burst.model == "translate"
        assert len(burst.faces) == 11
        points = anchors(burst)
        assert len(set(points)) == 11
        (center,) = burst.centers
        for a in points:
            assert lee_distance(center, a, 11) <= 1
        for a in points:
            for b in points:
                assert lee_distance(a, b, 11) <= 2

    def test_aligned_shape(self, map5, code5):
        burst = make_burst(map5, "aligned", 6)
        assert len(burst.faces) == 121
        assert len(set(anchors(burst))) == 121
        assert len(burst.centers) == 11
        assert sorted(c[0] for c in burst.centers) == list(range(11))
        for center in burst.centers:
            assert code5.syndrome(center) == 0

    def test_multi_translate_shape(self, map5):
        burst = make_burst(map5, "multi-translate", 7)
        assert sorted(c[0] for c in burst.centers) == list(range(11))
        points = anchors(burst)
        assert len(points) == len(set(points))  # one error per hypercube
        assert len(burst.faces) <= 121

    # n = 20 runs the slot shift on int64, past the int16 bound; aligned stops at n = 14
    @pytest.mark.parametrize("model, n", [
        ("aligned", 5), ("translate", 5), ("multi-translate", 5),
        ("aligned", 14), ("translate", 20), ("multi-translate", 20),
    ])
    def test_one_face_per_covered_hypercube(self, model, n):
        # the scalar placement of the same draw: sphere j's center from its head,
        # then its anchor center + offsets[b] with orientation b, the first
        # face drawn on each hypercube kept
        map_ = MAPS.get(n) or InterleavingMap(generator_matrix(n))
        code, q = map_.code, map_.q
        overlapped = 0
        # at n = 5 the multi-translate spheres overlap at the last three seeds
        for seed in [*range(10), 317, 459, 2070]:
            burst = make_burst(map_, model, seed)
            drawn = interleave._draw(map_, model, np.random.default_rng(seed), None).tolist()
            if model == "aligned":
                centers = [code.codeword_from_rank(j, row[0]).point for j, row in enumerate(drawn)]
            elif model == "translate":
                centers = [tuple(drawn[0][:-q])]
            else:
                centers = [(j, *row[:-q]) for j, row in enumerate(drawn)]
            assert burst.centers == tuple(centers)
            faces = {}
            for center, row in zip(centers, drawn):
                for off, o in zip(code.offsets, row[-q:]):
                    anchor = tuple((c + d) % q for c, d in zip(center, off))
                    faces.setdefault(anchor, hypercube_lin_index(anchor, q) * map_.alpha + o)
            assert burst.faces == set(faces.values())
            assert {face_from_lin(f, n, q)[0] for f in burst.faces} == faces.keys()
            overlapped += len(faces) < q * len(centers)
        assert overlapped == (3 if (model, n) == ("multi-translate", 5) else 0)

    def test_uniform_random_counts(self, map5):
        assert make_burst(map5, "uniform-random", 8, count=0).faces == frozenset()
        burst = make_burst(map5, "uniform-random", 8, count=121)
        assert len(burst.faces) == 121

    def test_uniform_random_needs_count(self, map5):
        with pytest.raises(ValueError):
            make_burst(map5, "uniform-random", 8)

    @pytest.mark.parametrize(
        "model, count, match",
        [
            ("uniform-random", -1, "count >= 0"),
            ("uniform-random", 1_610_511, "cannot draw 1610511 distinct faces"),
            ("translate", 3, "count only applies to the uniform-random model"),
            ("aligned", 0, "count only applies to the uniform-random model"),
        ],
    )
    def test_count_rules(self, map5, model, count, match):
        with pytest.raises(ValueError, match=match):
            make_burst(map5, model, 8, count=count)

    def test_aligned_rejected_above_n14(self):
        # q^(n-2) = 31^13 > 2^63 - 1: numpy cannot draw the aligned ranks
        map15 = InterleavingMap(generator_matrix(15))
        with pytest.raises(ValueError, match=r"int64 limit 2\^63 - 1"):
            make_burst(map15, "aligned", 0)

    def test_faces_stay_exact_past_int64(self):
        map15 = InterleavingMap(generator_matrix(15))
        burst = make_burst(map15, "translate", 3)
        assert max(burst.faces) > np.iinfo(np.int64).max
        (center,) = burst.centers
        for face in burst.faces:
            anchor, _ = face_from_lin(face, 15, 31)
            assert lee_distance(center, anchor, 31) <= 1
        assert deinterleave_and_correct(map15, burst).success

    def test_deterministic_per_seed(self, map5):
        a = make_burst(map5, "aligned", 99)
        b = make_burst(map5, "aligned", 99)
        assert a.faces == b.faces and a.centers == b.centers


class TestDeinterleave:
    def test_empty_burst(self, map5):
        report = deinterleave_and_correct(
            map5, make_burst(map5, "uniform-random", 0, count=0)
        )
        assert report.success
        assert report.counts == {}

    def test_translate_spreads_to_q_codewords(self, map5):
        for seed in range(200):
            report = deinterleave_and_correct(
                map5, make_burst(map5, "translate", seed)
            )
            assert report.success
            assert len(report.counts) == 11
            assert set(report.counts.values()) == {1}

    def test_aligned_spreads_to_q_squared_codewords(self, map5):
        for seed in range(50):
            report = deinterleave_and_correct(map5, make_burst(map5, "aligned", seed))
            assert report.success
            assert len(report.counts) == 121

    def test_witnesses_on_collision(self, map5):
        # two faces on one hypercube share slot+codeword, hence collide
        burst = BurstPattern("uniform-random", frozenset([0, 1]), ())
        report = deinterleave_and_correct(map5, burst)
        assert not report.success
        assert report.witnesses == (((0, 0), 2),)


class TestSimulate:
    def test_translate_small_run(self, map5):
        stats = simulate(map5, "translate", 300, master_seed=1)
        assert stats.success_rate == 1.0
        assert stats.max_tally == 1
        assert stats.errors_per_trial_max == 11
        assert stats.tally_histogram == {1: 300 * 11}

    def test_aligned_small_run(self, map5):
        stats = simulate(map5, "aligned", 100, master_seed=2)
        assert stats.success_rate == 1.0
        assert stats.tally_histogram == {1: 100 * 121}

    def test_uniform_random_control_fails_sometimes(self, map5):
        stats = simulate(map5, "uniform-random", 500, master_seed=3, count=121)
        assert stats.success_rate < 1.0
        assert stats.failures > 0
        assert 2 in stats.tally_histogram

    def test_deterministic(self, map5):
        a = simulate(map5, "multi-translate", 50, master_seed=4)
        b = simulate(map5, "multi-translate", 50, master_seed=4)
        assert a == b

    def test_seed_sensitivity(self, map5):
        a = simulate(map5, "uniform-random", 50, master_seed=5, count=121)
        b = simulate(map5, "uniform-random", 50, master_seed=6, count=121)
        assert a.tally_histogram != b.tally_histogram

    def test_trial_rng_streams_are_stable(self):
        a = trial_rng(0, 3).integers(0, 1 << 30, size=4)
        b = trial_rng(0, 3).integers(0, 1 << 30, size=4)
        c = trial_rng(0, 4).integers(0, 1 << 30, size=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("n", [5, 6])
    @pytest.mark.parametrize("model", BURST_MODELS)
    def test_per_trial_draws_match_make_burst(self, monkeypatch, n, model):
        # simulate's per-trial streams end where make_burst leaves the same stream,
        # so both make the same rng calls in the same order
        count = 121 if model == "uniform-random" else None
        streams = []

        def recorded(*key):
            streams.append(trial_rng(*key))
            return streams[-1]

        monkeypatch.setattr(interleave, "trial_rng", recorded)
        for seed in (0, 7, 2**40 + 3):
            streams.clear()
            simulate(MAPS[n], model, 20, seed, count)
            assert len(streams) == 20
            for trial, stream in enumerate(streams):
                alone = trial_rng(seed, trial)
                make_burst(MAPS[n], model, alone, count)
                assert stream.bit_generator.state == alone.bit_generator.state

    def test_rejects_bad_trials(self, map5):
        with pytest.raises(ValueError):
            simulate(map5, "translate", 0)

    def test_rejects_count_for_other_models(self, map5):
        with pytest.raises(ValueError, match="count only applies"):
            simulate(map5, "translate", 2, count=3)

    def test_rejects_unknown_model(self, map5):
        with pytest.raises(ValueError, match="unknown burst model"):
            simulate(map5, "diagonal", 2)


def oracle_simulate(map_, model, trials, master_seed=0, count=None):
    """simulate as a loop of the scalar chain with a dict tally."""
    successes = max_tally = max_errors = total_errors = total_blocks = 0
    histogram = {}
    for trial in range(trials):
        burst = make_burst(map_, model, trial_rng(master_seed, trial), count)
        report = deinterleave_and_correct(map_, burst)
        successes += report.success
        for tally in report.counts.values():
            histogram[tally] = histogram.get(tally, 0) + 1
            total_errors += tally
            total_blocks += 1
            max_tally = max(max_tally, tally)
        max_errors = max(max_errors, len(burst.faces))
    return SimulationStats(
        n=map_.n, q=map_.q, model=model, trials=trials, master_seed=master_seed,
        errors_per_trial_max=max_errors, uniform_count=count, successes=successes,
        failures=trials - successes, success_rate=successes / trials, max_tally=max_tally,
        mean_tally=total_errors / total_blocks if total_blocks else 0.0,
        tally_histogram=histogram,
    )


class TestBatchKernelExactness:
    @settings(max_examples=40, deadline=None)
    @given(
        model=st.sampled_from(BURST_MODELS),
        n=st.sampled_from((5, 6, 7)),
        seed=st.integers(0, 2**32),
        trials=st.integers(1, 40),
        count=st.integers(0, 300),
    )
    def test_equals_scalar_oracle(self, model, n, seed, trials, count):
        count = count if model == "uniform-random" else None
        got = simulate(MAPS[n], model, trials, seed, count)
        want = oracle_simulate(MAPS[n], model, trials, seed, count)
        assert got == want and got.to_dict() == want.to_dict()

    @pytest.mark.parametrize("model, trials, count", [
        ("translate", 200, None),  # chunks of 94, 94 and 12 trials
        ("aligned", 20, None),  # 9, 9 and 2
        ("multi-translate", 19, None),
        ("uniform-random", 17, 121),
    ])
    def test_trials_cross_a_chunk_boundary(self, map5, model, trials, count):
        faces = {"translate": 11, "uniform-random": count}.get(model, 121)
        per_chunk = -(-interleave.CHUNK_FACES // faces)  # trials until a chunk has enough faces
        assert trials > per_chunk and trials % per_chunk
        assert simulate(map5, model, trials, 9, count) == oracle_simulate(
            map5, model, trials, 9, count)

    @pytest.mark.parametrize("chunk", [1, 50, 300])
    def test_any_chunk_size_gives_the_same_stats(self, map5, monkeypatch, chunk):
        want = oracle_simulate(map5, "multi-translate", 13, 4)
        monkeypatch.setattr(interleave, "CHUNK_FACES", chunk)
        assert simulate(map5, "multi-translate", 13, 4) == want

    @pytest.mark.parametrize("model", BURST_MODELS)
    def test_one_trial(self, map5, model):
        count = 121 if model == "uniform-random" else None
        for seed in (0, 1, 2):
            assert simulate(map5, model, 1, seed, count) == oracle_simulate(
                map5, model, 1, seed, count)

    def test_uniform_random_count_zero(self, map5):
        stats = simulate(map5, "uniform-random", 30, 3, count=0)
        assert stats == oracle_simulate(map5, "uniform-random", 30, 3, 0)
        assert (stats.successes, stats.tally_histogram, stats.mean_tally) == (30, {}, 0.0)
        assert stats.errors_per_trial_max == 0

    @pytest.mark.parametrize("n, model, trials, count", [
        (15, "translate", 4, None),  # logical ranks above 2^63 - 1
        (16, "multi-translate", 2, None),
        (14, "aligned", 2, None),  # the largest n aligned can draw
        (12, "uniform-random", 3, 500),  # the largest n uniform-random can draw
    ])
    def test_past_int64_rank(self, n, model, trials, count):
        map_ = InterleavingMap(generator_matrix(n))
        assert simulate(map_, model, trials, 5, count) == oracle_simulate(
            map_, model, trials, 5, count)

    def test_face_off_every_sphere_raises(self):
        gens = build_generators(5)
        middle = list(gens.middle)
        middle[0] = middle[0][:-1] + (middle[0][-1] + 1,)
        bad_map = InterleavingMap(PerfectLeeCode(gens._replace(middle=tuple(middle))))
        with pytest.raises(ValueError, match="is on no codeword sphere"):
            simulate(bad_map, "uniform-random", 5, count=121)
        with pytest.raises(ValueError, match="is not a codeword"):
            oracle_simulate(bad_map, "uniform-random", 5, count=121)
