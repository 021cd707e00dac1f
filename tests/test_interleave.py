import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from leetoric.interleave import (
    BurstPattern,
    InterleavingMap,
    LogicalAddress,
    deinterleave_and_correct,
    interleaved_params,
    make_burst,
    simulate,
    trial_rng,
)
from leetoric.lattice import hypercubes_from_lin, lee_distance
from leetoric.leecode import PerfectLeeCode, build_generators, generator_matrix
from leetoric.toric import FaceIndex


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


class TestScalarMap:
    def test_zero_address(self, map5):
        face = map5.logical_to_physical(LogicalAddress(0, 0, 0, 0))
        assert face.anchor == (0,) * 5
        assert face.orientation == 0

    def test_position_walks_codewords(self, map5):
        face = map5.logical_to_physical(LogicalAddress(0, 0, 0, 1))
        assert face.anchor == (0, 0, 0, 1, 8)
        assert face.orientation == 0

    def test_superblock_changes_slot(self, map5):
        face = map5.logical_to_physical(LogicalAddress(0, 121, 3, 0))
        assert face.anchor == (1, 0, 0, 0, 0)
        assert face.orientation == 3

    def test_inverse_of_superblock_example(self, map5):
        addr = map5.physical_to_logical(FaceIndex((1, 0, 0, 0, 0), (1, 5)))
        assert addr == LogicalAddress(0, 121, 3, 0)

    def test_address_validation(self, map5):
        for bad in [
            LogicalAddress(11, 0, 0, 0),
            LogicalAddress(0, 11**3, 0, 0),
            LogicalAddress(0, 0, 10, 0),
            LogicalAddress(0, 0, 0, 11),
        ]:
            with pytest.raises(ValueError):
                map5.logical_to_physical(bad)

    def test_roundtrip_sampled(self, map5):
        rnd = random.Random(12)
        for _ in range(2000):
            addr = map5.logical_from_lin(rnd.randrange(map5.n_faces))
            face = map5.logical_to_physical(addr)
            assert map5.physical_to_logical(face) == addr

    def test_orientation_transparent(self, map5):
        rnd = random.Random(13)
        for _ in range(500):
            addr = map5.logical_from_lin(rnd.randrange(map5.n_faces))
            face = map5.logical_to_physical(addr)
            assert face.orientation == addr.orientation

    def test_section_confinement(self, map5, code5):
        rnd = random.Random(14)
        for _ in range(500):
            addr = map5.logical_from_lin(rnd.randrange(map5.n_faces))
            face = map5.logical_to_physical(addr)
            host = code5.tile_assign(face.anchor)[0]
            assert host.section == addr.section


class TestLinearIndexForms:
    def test_lin_roundtrip(self, map5):
        rnd = random.Random(21)
        for _ in range(1000):
            idx = rnd.randrange(map5.n_faces)
            addr = map5.logical_from_lin(idx)
            assert map5.logical_lin_index(addr) == idx

    def test_lin_out_of_range(self, map5):
        with pytest.raises(ValueError):
            map5.logical_from_lin(map5.n_faces)

    def test_zero_maps_to_zero(self, map5):
        assert map5.forward_index(0) == 0


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

    def test_bulk_rejects_int64_overflow(self):
        map13 = InterleavingMap(generator_matrix(13))
        assert map13.n_faces > np.iinfo(np.int64).max
        for bulk in (map13.forward_indices, map13.inverse_indices):
            with pytest.raises(ValueError, match="int64"):
                bulk(np.array([0], dtype=np.int64))
        assert map13.inverse_index(map13.forward_index(map13.n_faces - 1)) == map13.n_faces - 1

    def test_inverse_is_minus_one_exactly_off_the_lattice(self):
        gens = build_generators(5)
        middle = list(gens.middle)
        middle[0] = middle[0][:-1] + (middle[0][-1] + 1,)
        bad_map = InterleavingMap(PerfectLeeCode(replace(gens, middle=tuple(middle))))
        faces = np.random.default_rng(5).integers(0, bad_map.n_faces, size=20000)
        bad = bad_map.code.decode(hypercubes_from_lin(faces // bad_map.alpha, 11, 5))[3]
        assert bad.any() and not bad.all()
        back = bad_map.inverse_indices(faces)
        assert np.array_equal(back == -1, bad)
        assert (back[~bad] >= 0).all()

    def test_sampled_roundtrip_n6(self, map6):
        rng = np.random.default_rng(33)
        idx = rng.integers(0, map6.n_faces, size=10**6, dtype=np.int64)
        assert np.array_equal(map6.inverse_indices(map6.forward_indices(idx)), idx)


class TestMakeBurst:
    def test_unknown_model(self, map5):
        with pytest.raises(ValueError, match="unknown burst model"):
            make_burst(map5, "diagonal")

    def test_translate_shape(self, map5):
        burst = make_burst(map5, "translate", 5)
        assert burst.model == "translate"
        assert len(burst.faces) == 11
        anchors = [f.anchor for f in burst.faces]
        assert len(set(anchors)) == 11
        (center,) = burst.centers
        for a in anchors:
            assert lee_distance(center, a, 11) <= 1
        for a in anchors:
            for b in anchors:
                assert lee_distance(a, b, 11) <= 2

    def test_aligned_shape(self, map5, code5):
        burst = make_burst(map5, "aligned", 6)
        assert len(burst.faces) == 121
        assert len({f.anchor for f in burst.faces}) == 121
        assert len(burst.centers) == 11
        assert sorted(c[0] for c in burst.centers) == list(range(11))
        for center in burst.centers:
            assert code5.syndrome(center) == 0

    def test_multi_translate_shape(self, map5):
        burst = make_burst(map5, "multi-translate", 7)
        assert sorted(c[0] for c in burst.centers) == list(range(11))
        anchors = [f.anchor for f in burst.faces]
        assert len(anchors) == len(set(anchors))  # one error per hypercube
        assert len(burst.faces) <= 121

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
        f1 = FaceIndex((0,) * 5, (1, 2))
        f2 = FaceIndex((0,) * 5, (1, 3))
        burst = BurstPattern("uniform-random", frozenset([f1, f2]), ())
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

    def test_rejects_bad_trials(self, map5):
        with pytest.raises(ValueError):
            simulate(map5, "translate", 0)

    def test_rejects_count_for_other_models(self, map5):
        with pytest.raises(ValueError, match="count only applies"):
            simulate(map5, "translate", 2, count=3)

    def test_rejects_unknown_model(self, map5):
        with pytest.raises(ValueError, match="unknown burst model"):
            simulate(map5, "diagonal", 2)
