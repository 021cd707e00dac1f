"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with its measured runtime (run with -s to see them live).
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from leetoric.cli import REFERENCE_INTERLEAVED, REFERENCE_TORIC
from leetoric.interleave import InterleavingMap, interleaved_params, simulate
from leetoric.lattice import determinant, mannheim_weight
from leetoric.leecode import generator_matrix
from leetoric.toric import code_params, kitaev_2d_stabilizers

TABLE1 = {5: (110, 10, 3), 6: (195, 15, 3), 7: (315, 21, 3), 8: (476, 28, 3)}


@pytest.fixture(scope="module")
def codes():
    return {n: generator_matrix(n) for n in (5, 6, 7, 8)}


class Stopwatch:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def report(criterion, ok, detail, elapsed=None, limit=None):
    status = "PASS" if ok else "FAIL"
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"ACCEPTANCE {criterion}: {status} {detail}{timing}")
    assert ok, f"{criterion} failed: {detail}"
    if limit is not None:
        assert elapsed < limit, f"{criterion} exceeded {limit}s ({elapsed:.2f}s)"


def test_c01_table1_reproduction(codes):
    with Stopwatch() as sw:
        ok = True
        details = []
        for n, (N, k, d) in TABLE1.items():
            params = code_params(n)
            rate_ref, gain_ref = REFERENCE_TORIC[n]
            row_ok = (
                (params.N, params.k, params.d) == (N, k, d)
                and abs(params.R - rate_ref) < Fraction(5, 10**6)
                and abs(params.G - gain_ref) < Fraction(5, 10**6)
            )
            ok &= row_ok
            details.append(f"n={n} [[{params.N},{params.k},{params.d}]]")
    report("C1 table-1", ok, "; ".join(details), sw.elapsed, limit=1.0)


def test_c02_generator_matrix_determinants():
    with Stopwatch() as sw:
        ok = True
        dets = []
        for n in range(5, 13):
            code = generator_matrix(n)
            det = determinant(code.matrix)
            dets.append(det)
            ok &= abs(det) == 2 * n + 1
            ok &= all(code.lattice_membership(row) for row in code.matrix)
            for i in range(n):
                scaled_unit = tuple(code.q if t == i else 0 for t in range(n))
                ok &= code.lattice_membership(scaled_unit)
    report(
        "C2 determinants-and-chain",
        ok,
        f"det A for n=5..12: {dets}",
        sw.elapsed,
        limit=1.0,
    )


def test_c03_minimum_distances(codes):
    with Stopwatch() as sw:
        ok = True
        details = []
        for n, code in codes.items():
            low = code.min_mannheim_distance(radius_cap=2).exact
            scan = code.min_mannheim_distance()
            section = code.section_subcode_distance()
            witness_ok = (
                scan.exact
                and scan.witness is not None
                and code.lattice_membership(scan.witness)
                and mannheim_weight(
                    tuple(x % code.q for x in scan.witness), code.q
                ) == 3
            )
            ok &= not low and scan.distance == 3 and witness_ok and section == 4
            details.append(f"n={n} d={scan.distance} witness={scan.witness} sec={section}")
    report("C3 distances", ok, "; ".join(details), sw.elapsed, limit=10.0)


def test_c04_perfect_packing(codes):
    with Stopwatch() as sw:
        exhaustive = codes[5].verify_perfect_packing("exhaustive")
        ok = (
            exhaustive.ok
            and exhaustive.hypercubes_checked == 11**5
            and exhaustive.spheres_placed == 11**4
        )
        n5_elapsed = time.perf_counter() - sw.start
        sampled_ok = {}
        for n in (6, 7, 8):
            rep = codes[n].verify_perfect_packing("sampled", samples=10**6, seed=n)
            sampled_ok[n] = rep.ok and rep.hypercubes_checked == 10**6
            ok &= sampled_ok[n]
    report(
        "C4 perfect-packing",
        ok,
        f"n=5 exhaustive {11**5} hypercubes in {n5_elapsed:.2f}s; "
        f"sampled 10^6 ok for n=6,7,8: {sampled_ok}",
        sw.elapsed,
    )
    assert n5_elapsed < 30.0


def test_c05_interleaver_bijection(codes):
    with Stopwatch() as sw:
        map5 = InterleavingMap(codes[5])
        total = map5.n_faces
        seen = np.zeros(total, dtype=bool)
        ok = total == 1_610_510
        for start in range(0, total, 1 << 20):
            chunk = np.arange(start, min(start + (1 << 20), total), dtype=np.int64)
            fwd = map5.forward_indices(chunk)
            ok &= bool(np.array_equal(map5.inverse_indices(fwd), chunk))
            seen[fwd] = True
        ok &= bool(seen.all())
        n5_elapsed = time.perf_counter() - sw.start
        for n in (6, 7, 8):
            map_n = InterleavingMap(codes[n])
            rng = np.random.default_rng(n)
            idx = rng.integers(0, map_n.n_faces, size=10**6, dtype=np.int64)
            ok &= bool(
                np.array_equal(map_n.inverse_indices(map_n.forward_indices(idx)), idx)
            )
    report(
        "C5 interleaver-bijection",
        ok,
        f"n=5 exhaustive over {total} slots in {n5_elapsed:.2f}s; "
        "10^6 seeded round-trips each for n=6,7,8",
        sw.elapsed,
    )
    assert n5_elapsed < 60.0


def test_c06_burst_spread_invariant(codes):
    with Stopwatch() as sw:
        stats5 = simulate(InterleavingMap(codes[5]), "translate", 10**5, master_seed=2024)
        ok5 = (
            stats5.success_rate == 1.0
            and stats5.tally_histogram == {1: 10**5 * 11}
            and stats5.errors_per_trial_max == 11
        )
        stats6 = simulate(InterleavingMap(codes[6]), "translate", 10**4, master_seed=2025)
        ok6 = (
            stats6.success_rate == 1.0
            and stats6.tally_histogram == {1: 10**4 * 13}
        )
    report(
        "C6 burst-spread",
        ok5 and ok6,
        f"n=5: 10^5 translate bursts, all spread to 11 distinct codewords; "
        f"n=6: 10^4 bursts, all spread to 13",
        sw.elapsed,
    )


def test_c07_aligned_capability(codes):
    with Stopwatch() as sw:
        stats = simulate(InterleavingMap(codes[5]), "aligned", 10**4, master_seed=4096)
        ok = (
            stats.success_rate == 1.0
            and stats.errors_per_trial_max == 121
            and stats.tally_histogram == {1: 10**4 * 121}
        )
    report(
        "C7 q^2-burst-capability",
        ok,
        f"10^4 aligned bursts of 121 errors, success rate {stats.success_rate}",
        sw.elapsed,
        limit=300.0,
    )


def test_c08_table2_reproduction():
    with Stopwatch() as sw:
        ok = True
        details = []
        for n in (5, 6, 7, 8):
            q = 2 * n + 1
            alpha = n * (n - 1) // 2
            params = interleaved_params(n)
            rate_ref, gain_ref = REFERENCE_INTERLEAVED[n]
            row_ok = (
                params.length == alpha * q**n
                and params.dimension == alpha * q ** (n - 1)
                and params.t_i == q * q
                and abs(params.R_i - rate_ref) < Fraction(5, 10**6)
                and abs(params.G_i - gain_ref) <= Fraction(5, 10**3)
            )
            ok &= row_ok
            details.append(
                f"n={n} t_i={params.t_i} gain dev {float(abs(params.G_i - gain_ref)):.5f}"
            )
    report("C8 table-2", ok, "; ".join(details), sw.elapsed)


def test_c09_uniform_control_shows_shape_dependence(codes):
    with Stopwatch() as sw:
        stats = simulate(
            InterleavingMap(codes[5]), "uniform-random", 10**4,
            master_seed=31337, count=121,
        )
        ok = 0.0 < stats.success_rate < 1.0 and stats.failures > 0
    report(
        "C9 uniform-control",
        ok,
        f"121 unshaped errors: success rate {stats.success_rate:.4f} < 1.0",
        sw.elapsed,
    )


def test_c10_2d_stabilizer_sanity():
    with Stopwatch() as sw:
        check = kitaev_2d_stabilizers(5)
        pair_overlaps_even = all(
            len(set(v) & set(f)) % 2 == 0
            for v in check.vertex_supports
            for f in check.face_supports
        )
        ok = (
            check.n_edges == 50
            and check.params == (50, 2, 5)
            and len(check.vertex_supports) == 25
            and len(check.face_supports) == 25
            and check.all_commute
            and pair_overlaps_even
        )
    report(
        "C10 2d-stabilizers",
        ok,
        "50 edges, 625 vertex/face pairs all have even overlap",
        sw.elapsed,
        limit=1.0,
    )
