import hashlib
import itertools
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leetoric import checks, cli, leecode
from leetoric.cli import _csv_rows, main
from leetoric.interleave import InterleavingMap
from leetoric.leecode import PerfectLeeCode, generator_matrix

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "schemas"
# sha256 of export-map --n 5 in each format, also pinned in CI
EXPORT_SHA256 = {
    "csv": "014c3f8db6da7f3a170b556dfa233860775e1e3c4a8a6605de8c257ec60fb5f6",
    "binary": "43ccf66e1590333e3ebcce0994de6267c5ff31437c979ced820c106f3e459a20",
}


def load_schema(name):
    return json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParams:
    def test_json_n5(self, capsys):
        code, out, _ = run(capsys, "params", "--n", "5", "--format", "json")
        assert code == 0
        # the exact bytes: a parsed comparison would not see the key order
        assert out == (
            '{"n": 5, "q": 11, "N": 110, "k": 10, "d": 3, "t": 1, "R": 0.09091, "G": 0.18182,'
            ' "interleaved_length": 1610510, "interleaved_dimension": 146410, "ti": 121,'
            ' "Ri": 0.09091, "Gi": 11.09091}\n'
        )
        jsonschema.validate(json.loads(out), load_schema("params"))

    def test_text_n6(self, capsys):
        code, out, _ = run(capsys, "params", "--n", "6")
        assert code == 0
        assert "[[195, 15, 3]]" in out

    def test_unsupported_dimension(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["params", "--n", "4"])
        assert exc.value.code == 2
        assert "unsupported dimension" in capsys.readouterr().err

    def test_precision_flag(self, capsys):
        code, out, _ = run(
            capsys, "params", "--n", "5", "--format", "json", "--precision", "10"
        )
        payload = json.loads(out)
        assert payload["R"] == pytest.approx(1 / 11, abs=1e-10)


class TestVerify:
    def test_sampled_quick_pass(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--n", "5", "--mode", "sampled",
            "--samples", "2000", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["all_ok"]
        assert {c["name"] for c in payload["checks"]} >= {
            "determinant", "packing", "roundtrip", "min_distance",
        }
        jsonschema.validate(payload, load_schema("verify"))

    def test_text_report_shows_status_and_timing(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--n", "5", "--mode", "sampled", "--samples", "1000"
        )
        assert code == 0
        assert "PASS determinant" in out
        assert "s)" in out  # per-check timing in text mode

    @pytest.mark.parametrize(
        "argv, witnesses",
        [
            pytest.param(
                ["--n", "5", "--mode", "exhaustive"],
                [
                    "FAIL packing: 146410 violations, first: ['tile_assign broken at"
                    " (0, 0, 0, 0, 4)', 'tile_assign broken at (0, 0, 0, 0, 7)',"
                    " 'tile_assign broken at (0, 0, 0, 1, 1)']",
                    "FAIL codeword_bijection: rank round-trip failed at (j=0, r=11),"
                    " point (0, 1, 1, 1, 8)",
                    "FAIL roundtrip: round-trip mismatch at logical index 110",
                    "FAIL section_confinement: physical codeword of LogicalAddress(section=0,"
                    " rank=1, orientation=0, position=0) leaves section 0",
                    "FAIL chain_membership: generator (0, 1, 1, 1, -3) not in ker h mod q",
                    "FAIL min_distance: minimum Mannheim distance 2, witness (0, 1, 1, 0, 0)",
                ],
                id="n5-exhaustive",
            ),
            pytest.param(
                ["--n", "6", "--mode", "sampled", "--samples", "20000", "--seed", "3"],
                [
                    "FAIL packing: 18367 violations, first: ['tile_assign broken at"
                    " (10, 1, 2, 3, 2, 10)', 'tile_assign broken at (11, 7, 0, 1, 4, 5)',"
                    " 'tile_assign broken at (8, 6, 3, 2, 8, 9)']",
                    "FAIL roundtrip: round-trip mismatch at logical index 58754661",
                    "FAIL section_confinement: physical codeword of LogicalAddress(section=10,"
                    " rank=15695, orientation=14, position=4) leaves section 10",
                    "FAIL codeword_bijection: rank round-trip failed at (j=10, r=15695),"
                    " point (10, 11, 12, 6, 10, 9)",
                ],
                id="n6-sampled",
            ),
            pytest.param(
                # confinement reads the first 20000 of the 50000 draws, the
                # same indices as a 20000 draw, so its witness is unchanged
                ["--n", "6", "--mode", "sampled", "--samples", "50000", "--seed", "3"],
                [
                    "FAIL roundtrip: round-trip mismatch at logical index 58754661",
                    "FAIL section_confinement: physical codeword of LogicalAddress(section=10,"
                    " rank=15695, orientation=14, position=4) leaves section 10",
                ],
                id="n6-sampled-50000",
            ),
        ],
    )
    def test_corrupt_generator_fails_with_witness(self, capsys, argv, witnesses):
        code, out, _ = run(capsys, "verify", *argv, "--corrupt-generator")
        assert code == 1
        for witness in witnesses:
            assert witness in out
        assert "check aborted" not in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["--n", "5", "--mode", "exhaustive"],
            ["--n", "6", "--mode", "sampled", "--samples", "20000", "--seed", "3"],
        ],
        ids=["n5-exhaustive", "n6-sampled"],
    )
    def test_map_fault_fails_map_checks(self, capsys, monkeypatch, argv):
        forward = InterleavingMap.forward_digits

        def shifted(self, logical):
            # one section further on: a bijection, but not the interleaver
            first, *rest = forward(self, logical)
            return [(first + 1) % self.q, *rest]

        monkeypatch.setattr(InterleavingMap, "forward_digits", shifted)
        code, out, _ = run(capsys, "verify", *argv, "--format", "json")
        assert code == 1
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert not checks["roundtrip"]["ok"]
        assert checks["roundtrip"]["detail"].startswith("round-trip mismatch at logical index")
        assert not checks["section_confinement"]["ok"]
        assert "leaves section" in checks["section_confinement"]["detail"]

    def test_out_of_range_forward_fails_the_roundtrip_alone(self, capsys, monkeypatch, map5):
        first = int(np.random.default_rng(0).integers(0, map5.n_faces))  # the first sampled index
        forward = InterleavingMap.forward_digits

        def off_the_end(self, logical):
            # the first anchor row plus q is the face index plus n_faces: an
            # inverse that reduced it would land on the same address
            first_row, *rest = forward(self, logical)
            return [first_row + self.q, *rest]

        monkeypatch.setattr(InterleavingMap, "forward_digits", off_the_end)
        code, out, _ = run(
            capsys, "verify", "--n", "5", "--mode", "sampled", "--samples", "2000",
            "--format", "json",
        )
        assert code == 1
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert not checks["roundtrip"]["ok"]
        assert checks["roundtrip"]["detail"] == f"round-trip mismatch at logical index {first}"
        # decode reads the anchor mod q, so every address stays in its section
        assert checks["section_confinement"]["ok"]
        assert checks["section_confinement"]["detail"] == (
            "2000 sampled addresses stay in their section, orientation intact"
        )

    def test_orientation_fault_fails_confinement(self, capsys, monkeypatch):
        forward = InterleavingMap.forward_digits

        def turned(self, logical):
            # same hypercube, next orientation: a bijection that stays in section
            *anchor, orientation = forward(self, logical)
            return [*anchor, (orientation + 1) % self.alpha]

        monkeypatch.setattr(InterleavingMap, "forward_digits", turned)
        code, out, _ = run(capsys, "verify", "--n", "5", "--format", "json")
        assert code == 1
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert checks["roundtrip"]["detail"] == "round-trip mismatch at logical index 0"
        assert checks["section_confinement"]["detail"] == (
            "orientation changed at LogicalAddress(section=0, rank=0, orientation=0, position=0)"
        )

    @pytest.mark.parametrize(
        ("side", "argv", "trip", "leak"),
        [
            ("forward", ["--n", "5", "--mode", "exhaustive"], 26620,
             "section=9, rank=121, orientation=0, position=0) leaves section 9"),
            ("inverse", ["--n", "5", "--mode", "exhaustive"], 133100,
             "section=0, rank=1210, orientation=0, position=0) leaves section 0"),
            ("forward", ["--n", "6", "--mode", "sampled", "--samples", "20000", "--seed", "3"],
             70636288, "section=12, rank=19505, orientation=5, position=8) leaves section 12"),
            ("inverse", ["--n", "6", "--mode", "sampled", "--samples", "20000", "--seed", "3"],
             27844649, "section=4, rank=28549, orientation=1, position=1) leaves section 4"),
        ],
        ids=["forward-n5-exhaustive", "inverse-n5-exhaustive", "forward-n6-sampled",
             "inverse-n6-sampled"],
    )
    def test_orientation_coupled_fault_fails_map_checks(
        self, capsys, monkeypatch, side, argv, trip, leak
    ):
        # A fault that couples the orientation to another digit: exhaustive pieces
        # carry o as one (alpha, 1) row, so the faulty row spans the piece's full
        # grid of slots.  The witnesses are the ones the per-face sweep gave.
        forward, inverse = InterleavingMap.forward_digits, InterleavingMap.inverse_digits

        def forward_coupled(self, logical):
            # the first anchor coordinate q - 1 wraps to 0 where o is the second mod alpha
            first, second, *rest, o = forward(self, logical)
            hit = (o == second % self.alpha) & (first == self.q - 1)
            return [(first + hit) % self.q, second, *rest, o]

        def inverse_coupled(self, face):
            # the section moves on in the last block where o is the position mod alpha
            (section, block, *rest, o, p), bad = inverse(self, face)
            hit = (o == p % self.alpha) & (block == self.q - 1)
            return [(section + hit) % self.q, block, *rest, o, p], bad

        if side == "forward":
            monkeypatch.setattr(InterleavingMap, "forward_digits", forward_coupled)
        else:
            monkeypatch.setattr(InterleavingMap, "inverse_digits", inverse_coupled)
        code, out, _ = run(capsys, "verify", *argv, "--format", "json")
        assert code == 1
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert checks["roundtrip"]["detail"] == f"round-trip mismatch at logical index {trip}"
        assert checks["section_confinement"]["detail"] == (
            f"physical codeword of LogicalAddress({leak}"
        )

    def test_scalar_map_fault_fails_roundtrip_only(self, capsys, monkeypatch):
        forward = InterleavingMap.forward_index
        monkeypatch.setattr(InterleavingMap, "forward_index", lambda self, i: forward(self, i) + 1)
        code, out, _ = run(
            capsys, "verify", "--n", "5", "--mode", "sampled", "--samples", "2000",
            "--format", "json",
        )
        assert code == 1
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert checks["roundtrip"]["detail"].startswith("scalar/bulk forward disagree at ")
        assert checks["section_confinement"]["ok"]

    def test_kernel_fault_fails_bijection(self, capsys, monkeypatch):
        decode = PerfectLeeCode.decode

        def shifted(self, anchor):
            # the v-digit m_v one up: rank + 1 wherever m_v < q - 1
            digits, slot, bad = decode(self, anchor)
            return digits[:-1] + [digits[-1] + 1], slot, bad

        monkeypatch.setattr(PerfectLeeCode, "decode", shifted)
        code, out, _ = run(capsys, "verify", "--n", "5", "--format", "json")
        assert code == 1
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert checks["codeword_bijection"]["detail"] == (
            "rank round-trip failed at (j=0, r=0), point (0, 0, 0, 0, 0)"
        )

    def test_scalar_fault_fails_bijection(self, capsys, monkeypatch):
        from_rank = PerfectLeeCode.codeword_from_rank

        def shifted(self, j, r):
            return from_rank(self, j, (r + 1) % self.codewords_per_section)

        monkeypatch.setattr(PerfectLeeCode, "codeword_from_rank", shifted)
        code, out, _ = run(
            capsys, "verify", "--n", "6", "--mode", "sampled", "--samples", "2000",
            "--format", "json",
        )
        assert code == 1
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert checks["codeword_bijection"]["detail"].startswith(
            "scalar codeword_from_rank disagrees with encode at (j="
        )
        # decode and encode are intact, so the bulk packing sweep passes
        assert checks["packing"]["ok"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--n", "5", "--mode", "sampled", "--samples", "1000", "--seed", "-1"],
            ["verify", "--n", "5", "--seed", "-2"],
            ["simulate", "--n", "5", "--model", "translate", "--trials", "2", "--seed", "-1"],
        ],
        ids=["verify-sampled", "verify-exhaustive", "simulate"],
    )
    def test_negative_seed_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"seed must be >= 0, got {argv[-1]}" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_degenerate_samples_rejected(self, capsys, samples):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n", "8", "--mode", "sampled", "--samples", samples])
        assert exc.value.code == 2
        assert f"samples must be >= 1, got {samples}" in capsys.readouterr().err

    def test_samples_limit(self, capsys, monkeypatch):
        # every sweep stops after its first piece, so the run at the limit is
        # accepted without its ~36 s of sweeping; one sample more exits 2
        def first_piece(*args, sweep=leecode.sweep, **kwargs):
            return itertools.islice(sweep(*args, **kwargs), 1)

        monkeypatch.setattr(checks, "sweep", first_piece)
        monkeypatch.setattr(leecode, "sweep", first_piece)
        argv = ["verify", "--n", "12", "--mode", "sampled", "--samples"]
        code, out, _ = run(capsys, *argv, str(leecode.MAX_SAMPLES))
        assert code == 0
        assert "PASS roundtrip: 100000000 sampled slots round-trip" in out
        with pytest.raises(SystemExit) as exc:
            main([*argv, str(10**8 + 1)])
        assert exc.value.code == 2
        assert "samples must be <= 100000000, got 100000001" in capsys.readouterr().err

    def test_exhaustive_rejected_above_n5(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n", "8", "--mode", "exhaustive"])
        assert exc.value.code == 2
        assert "exhaustive verification is only supported for n <= 7" in capsys.readouterr().err

    def test_sampled_defaults_for_larger_n(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--n", "8", "--samples", "5000", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "sampled"
        assert payload["all_ok"]

    @pytest.mark.parametrize(("argv", "digest"), [
        (("--n", "5"), "513d70dbb1a06bc5b24525e85b1bd2b6f79771bd6ca254a6788f788d332167cb"),
        (("--n", "8", "--mode", "sampled"),
         "67ee5ac88c8f315b1693c81927373eff3dc226665e6ae90ddb1332db6852b5a1"),
        (("--n", "5", "--corrupt-generator"),
         "c8d95d89c360b330c1bda66f4b34cffc1e0928ab2b941dbaa413a0ae6a8a2135"),
        (("--n", "6", "--mode", "sampled", "--samples", "20000", "--seed", "3",
          "--corrupt-generator"),
         "b57a1132991965deed0c7184bcc9b90e5a3fca6c6f0cff284b0f694720674572"),
        (("--n", "8", "--mode", "sampled", "--corrupt-generator"),
         "76591f540d94275fe3203cd815806b096ffb71daeb2c8c065140452e36d95aa8"),
        # these three span several sweep pieces
        (("--n", "5", "--mode", "sampled", "--samples", "200000", "--seed", "5"),
         "66a3bd9b5a150347d5454b6eed1643a35a9177fb159a6eeaa3c2503836827e3d"),
        (("--n", "6", "--mode", "sampled", "--samples", "300000", "--seed", "3"),
         "c48ba3376b48fd19f22d18611230498146204f5c04b6765b7d975f78b07239d4"),
        (("--n", "5", "--mode", "sampled", "--samples", "300000", "--corrupt-generator"),
         "29471dbeb2025461ab6024810a11873ffd460c10841692c4f229ca0d45f8fcb4"),
    ], ids=["n5", "n8-sampled", "n5-corrupt", "n6-20000-seed3-corrupt", "n8-sampled-corrupt",
            "n5-200000-seed5", "n6-300000-seed3", "n5-300000-corrupt"])
    def test_json_bytes_are_pinned(self, capsys, argv, digest):
        code, out, _ = run(capsys, "verify", *argv, "--format", "json")
        assert code == (1 if "--corrupt-generator" in argv else 0)
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_json_byte_identical(self, capsys):
        _, first, _ = run(
            capsys, "verify", "--n", "5", "--mode", "sampled",
            "--samples", "1000", "--format", "json",
        )
        _, second, _ = run(
            capsys, "verify", "--n", "5", "--mode", "sampled",
            "--samples", "1000", "--format", "json",
        )
        assert first == second


class TestInt64Limit:
    """n = 13 has alpha*q^n > 2^63 - 1 faces: bulk commands must refuse it."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--n", "13"],
            ["simulate", "--n", "13", "--model", "uniform-random", "--count", "5"],
        ],
    )
    def test_bulk_command_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "int64 limit 2^63 - 1" in capsys.readouterr().err

    def test_export_rejected_before_output_opened(self, tmp_path, capsys, monkeypatch):
        def unreachable(self, logical):
            raise AssertionError("export-map ran the bulk map at n = 13")

        # Without the guard the export would run for ever on wrapped indices.
        monkeypatch.setattr(InterleavingMap, "forward_indices", unreachable)
        out_path = tmp_path / "map13.csv"
        with pytest.raises(SystemExit) as exc:
            main(["export-map", "--n", "13", "--out", str(out_path)])
        assert exc.value.code == 2
        assert "int64 limit 2^63 - 1" in capsys.readouterr().err
        assert not out_path.exists()

    INT64_MESSAGE = ("n = 13 has more faces than the int64 limit 2^63 - 1"
                     " of the bulk index arithmetic (n <= 12)")

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(["verify"], INT64_MESSAGE, id="verify"),
            pytest.param(["export-map", "--out"], INT64_MESSAGE, id="export-map"),
            pytest.param(["verify", "--mode", "sampled", "--corrupt-generator"], INT64_MESSAGE,
                         id="verify-corrupt"),
            pytest.param(["simulate", "--model", "uniform-random", "--count", "5", "--trials", "1"],
                         INT64_MESSAGE, id="simulate-uniform"),
            pytest.param(["simulate", "--model", "translate", "--trials", "0"],
                         "trials must be >= 1, got 0", id="simulate-no-trials"),
        ],
    )
    def test_rejected_before_the_code_is_built(self, tmp_path, capsys, monkeypatch, argv, message):
        def unbuildable(*args):
            raise AssertionError(f"{argv[0]} built the code")

        # no rule may wait on the build: its generator rows alone hold n^2 entries
        monkeypatch.setattr(checks, "generator_matrix", unbuildable)
        monkeypatch.setattr(cli, "generator_matrix", unbuildable)
        monkeypatch.setattr(cli, "PerfectLeeCode", unbuildable)
        out_path = tmp_path / "map13.bin"
        argv = argv[:1] + ["--n", "13"] + argv[1:] + ([str(out_path)] if "--out" in argv else [])
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not out_path.exists()

    @pytest.mark.parametrize("argv, limit", [
        (["verify", "--mode", "sampled"], "(n <= 12)"),
        (["export-map", "--out"], "(n <= 12)"),
        (["simulate", "--model", "uniform-random", "--count", "5", "--trials", "1"], "(n <= 12)"),
        (["simulate", "--model", "aligned", "--trials", "1"], "(n <= 14)"),
    ], ids=["verify", "export-map", "simulate-uniform", "simulate-aligned"])
    def test_rules_compare_n_alone(self, tmp_path, capsys, argv, limit):
        # no rule builds q^n: at n = 4 * 10^6 it has ~2.8 * 10^7 digits
        out_path = tmp_path / "never.bin"
        argv = argv[:1] + ["--n", "4000000"] + argv[1:] + ([str(out_path)] if "--out" in argv else [])
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert time.perf_counter() - start < 1
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "n = 4000000" in err and "int64 limit 2^63 - 1" in err and limit in err
        assert not out_path.exists()

    def test_aligned_rejected_above_n14(self, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("simulate ran a trial at n = 15")

        # q^(n-2) = 31^13 > 2^63 - 1: numpy cannot draw the aligned ranks.
        # A trial's first step after the guard is an aligned center.
        monkeypatch.setattr(PerfectLeeCode, "codeword_from_rank", unreachable)
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--n", "15", "--model", "aligned", "--trials", "2"])
        assert exc.value.code == 2
        assert "int64 limit 2^63 - 1" in capsys.readouterr().err

    def test_scalar_simulate_still_runs(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--n", "13", "--model", "translate", "--trials", "2"
        )
        assert code == 0
        assert "success rate 1.000000" in out


class TestRunawayLimits:
    """The commands whose cost grows with n or the count exit 2 one past their limit, at once."""

    @pytest.mark.parametrize("argv, message", [
        (["params", "--n", "601"],
         "n = 601 is too large for the minimum-distance search, O(n^2) (n <= 600)"),
        # every row is checked before the first row's distance search (~2 s at n = 600)
        (["tables", "--rows", "600,601"],
         "n = 601 is too large for the minimum-distance search, O(n^2) (n <= 600)"),
        (["simulate", "--n", "1001", "--model", "translate", "--trials", "1"],
         "n = 1001 is too large to build: n^2 generator entries (n <= 1000)"),
        (["simulate", "--n", "151", "--model", "multi-translate", "--trials", "1"],
         "multi-translate model at n = 151 holds q^2 faces of n coordinates per trial (n <= 150)"),
        (["simulate", "--n", "6", "--model", "uniform-random", "--count", "2097153"],
         "uniform-random model draws at most 2097152 faces, got 2097153"),
    ], ids=["params", "tables", "translate", "multi-translate", "uniform-count"])
    def test_one_past_the_limit_exits_2(self, capsys, argv, message):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert time.perf_counter() - start < 1
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"leetoric: error: {message}\n")


class TestTables:
    def test_csv_reference_rows(self, capsys):
        code, out, _ = run(capsys, "tables", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("code,n,q,length,dimension,d,t,rate,gain")
        toric5 = lines[1].split(",")
        assert toric5[:7] == ["toric", "5", "11", "110", "10", "3", "1"]
        assert toric5[7] == "0.09091"
        assert toric5[8] == "0.18182"
        inter5 = lines[5].split(",")
        assert inter5[:5] == ["interleaved", "5", "11", "1610510", "146410"]
        assert float(inter5[12]) <= 0.005  # documented gain rounding anomaly

    def test_all_gain_deviations_within_tolerance(self, capsys):
        _, out, _ = run(capsys, "tables", "--format", "json")
        payload = json.loads(out)
        jsonschema.validate(payload, load_schema("tables"))
        for row in payload["toric"]:
            assert row["rate_deviation"] < 5e-6
            assert row["gain_deviation"] < 5e-6
        for row in payload["interleaved"]:
            assert row["rate_deviation"] < 5e-6
            assert row["gain_deviation"] <= 0.005

    def test_row_beyond_reference_has_no_comparison(self, capsys):
        _, out, _ = run(capsys, "tables", "--rows", "9", "--format", "json")
        payload = json.loads(out)
        row = payload["toric"][0]
        assert row["n"] == 9
        assert row["rate_printed"] is None
        assert row["gain_deviation"] is None

    def test_rejects_bad_rows(self, capsys):
        for rows, message in (("4", "unsupported dimension: n must be >= 5, got 4"),
                              ("x", "--rows must be comma-separated integers, got 'x'"),
                              ("", "--rows is empty"), (",", "--rows is empty")):
            with pytest.raises(SystemExit) as exc:
                main(["tables", "--rows", rows])
            assert exc.value.code == 2
            assert capsys.readouterr().err.endswith(f"leetoric: error: {message}\n")

    def test_csv_byte_identical(self, capsys):
        _, first, _ = run(capsys, "tables", "--format", "csv")
        _, second, _ = run(capsys, "tables", "--format", "csv")
        assert first == second

    @pytest.mark.parametrize("argv, digest", [
        ((), "9ec1d23c493a5a0697e39d8a95ce1a35a43d3a34a907e4a1b847202f19c802d3"),
        (("--format", "csv"), "e23a5e349f9e6f7ecd716974f350cf67b117b4d1f435cf09c339e50d134c6210"),
        (("--rows", "5,9,12"), "874bc708ea7aea9a978b5df2cd351d93f6d464ea057157b95775ae96cefef9ca"),
        (("--rows", "5,9,12", "--format", "csv"),
         "7c4931329508dd4e06a36e94b135ca07005f1de6ff88be0a85f48c51ebdd2073"),
    ])
    def test_text_and_csv_bytes_are_pinned(self, capsys, argv, digest):
        code, out, _ = run(capsys, "tables", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestSimulate:
    def test_translate_expect_perfect(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--n", "5", "--model", "translate",
            "--trials", "200", "--seed", "42", "--expect-perfect",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["success_rate"] == 1.0
        jsonschema.validate(payload, load_schema("simulate"))

    def test_uniform_random_control(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--n", "5", "--model", "uniform-random",
            "--count", "121", "--trials", "300", "--seed", "7",
            "--format", "json",
        )
        assert code == 0  # rates are data, not failures
        payload = json.loads(out)
        assert payload["success_rate"] < 1.0

    def test_expect_perfect_fails_on_control(self, capsys):
        code, _, _ = run(
            capsys, "simulate", "--n", "5", "--model", "uniform-random",
            "--count", "121", "--trials", "300", "--seed", "7",
            "--expect-perfect", "--format", "json",
        )
        assert code == 1

    def test_unknown_model_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--n", "5", "--model", "spiral"])
        assert exc.value.code == 2

    def test_count_requires_uniform_random(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--n", "5", "--model", "translate", "--count", "3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--model", "translate", "--trials", "0"], "trials must be >= 1, got 0"),
            (["--model", "uniform-random", "--count", "-1"], "count >= 0, got -1"),
            (["--model", "uniform-random", "--count", "1610511"],
             "cannot draw 1610511 distinct faces out of 1610510"),
        ],
        ids=["trials-0", "count-negative", "count-above-faces"],
    )
    def test_degenerate_inputs_rejected(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--n", "5", *argv])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_default_seed_is_zero(self, capsys):
        _, with_default, _ = run(
            capsys, "simulate", "--n", "5", "--model", "translate",
            "--trials", "50", "--format", "json",
        )
        _, with_zero, _ = run(
            capsys, "simulate", "--n", "5", "--model", "translate",
            "--trials", "50", "--seed", "0", "--format", "json",
        )
        assert with_default == with_zero

    def test_text_output_mentions_wall_time(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--n", "5", "--model", "translate", "--trials", "20"
        )
        assert code == 0
        assert "wall time" in out
        assert "success rate 1.000000" in out


class TestExportMap:
    def test_csv_export_n5(self, tmp_path, capsys, map5):
        out_path = tmp_path / "permutation.csv"
        code, _, _ = run(capsys, "export-map", "--n", "5", "--out", str(out_path))
        assert code == 0
        with out_path.open() as fh:
            assert fh.readline().rstrip("\n") == "logical,physical"
            assert fh.readline().rstrip("\n") == "0,0"
        # record count and strided content check against the map
        with out_path.open() as fh:
            n_records = sum(1 for _ in fh) - 1
        assert n_records == 1_610_510
        stride = 9973
        logical = np.arange(0, map5.n_faces, stride, dtype=np.int64)
        expected = map5.forward_indices(logical)
        with out_path.open() as fh:
            next(fh)
            rows = [line for i, line in enumerate(fh) if i % stride == 0]
        for line, l, p in zip(rows, logical, expected):
            assert line.rstrip("\n") == f"{l},{p}"
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == EXPORT_SHA256["csv"]

    def test_binary_export_is_permutation(self, tmp_path, capsys, map5):
        out_path = tmp_path / "permutation.bin"
        code, _, _ = run(
            capsys, "export-map", "--n", "5", "--out", str(out_path),
            "--format", "binary",
        )
        assert code == 0
        raw = np.fromfile(out_path, dtype="<u8").reshape(-1, 2)
        assert raw.shape == (1_610_510, 2)
        assert np.array_equal(raw[:, 0], np.arange(1_610_510, dtype=np.uint64))
        physical = np.sort(raw[:, 1])
        assert np.array_equal(physical, np.arange(1_610_510, dtype=np.uint64))
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == EXPORT_SHA256["binary"]

    @pytest.mark.parametrize("fmt", ["csv", "binary"])
    def test_small_pieces_write_the_same_bytes(self, tmp_path, capsys, monkeypatch, fmt):
        # 396 pieces of 37 prefixes (4070 rows): the logical width grows from 4 to 7
        # digits, and the last piece has 2860 rows, so a byte left over from a longer
        # or wider piece would show
        monkeypatch.setattr(leecode, "SWEEP_CHUNK", 4093)
        out_path = tmp_path / f"permutation.{fmt}"
        code, _, _ = run(
            capsys, "export-map", "--n", "5", "--out", str(out_path), "--format", fmt
        )
        assert code == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == EXPORT_SHA256[fmt]

    @pytest.mark.parametrize("n", [5, 6])
    def test_physical_pieces_are_forward_indices(self, n):
        # the export's column over its first two pieces, of whole prefixes and at
        # most SWEEP_CHUNK slots each, against forward_indices
        map_ = InterleavingMap(generator_matrix(n))
        size = leecode.SWEEP_CHUNK // (map_.alpha * map_.q) * map_.alpha * map_.q
        (start0, first), (start1, second) = itertools.islice(cli._physical_pieces(map_), 2)
        assert (start0, len(first), start1, len(second)) == (0, size, size, size)
        physical = np.concatenate([first, second])
        assert np.array_equal(physical, map_.forward_indices(np.arange(2 * size)))

    def test_binary_export_streams_to_a_pipe(self, tmp_path, capsys):
        fifo = tmp_path / "permutation.fifo"
        os.mkfifo(fifo)
        digest = hashlib.sha256()

        def drain():
            with open(fifo, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 16), b""):
                    digest.update(block)

        reader = threading.Thread(target=drain, daemon=True)
        reader.start()
        code, _, err = run(
            capsys, "export-map", "--n", "5", "--out", str(fifo), "--format", "binary"
        )
        reader.join(timeout=60)
        assert not reader.is_alive()
        assert (code, err) == (0, "")
        assert digest.hexdigest() == EXPORT_SHA256["binary"]

    def test_io_failure_exit_code(self, tmp_path, capsys):
        target = tmp_path / "missing-dir" / "out.csv"
        code, _, err = run(capsys, "export-map", "--n", "5", "--out", str(target))
        assert code == 1
        assert "export-map failed" in err


def cli_process(argv, **kwargs):
    """The CLI in a fresh interpreter, with its own stdout, as a shell runs it."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.Popen([sys.executable, "-m", "leetoric.cli", *argv], env=env, **kwargs)


class TestExitPaths:
    """main alone turns an outcome into an exit code: 0, 1 or 2, never a traceback."""

    @pytest.mark.parametrize("precision", ["51", "-1"])
    @pytest.mark.parametrize("argv", [["params", "--n", "5"], ["tables"]])
    def test_precision_out_of_range(self, capsys, argv, precision):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--precision", precision])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(f"leetoric: error: precision must be in [0, 50], got {precision}\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", [
        ["params", "--n", "5"],
        ["tables"],
        ["verify", "--n", "5", "--format", "json"],
        ["simulate", "--n", "5", "--model", "aligned", "--trials", "2"],
    ], ids=lambda argv: argv[0])
    def test_unwritable_stdout(self, argv):
        with open("/dev/full", "wb") as full:
            proc = cli_process(argv, stdout=full, stderr=subprocess.PIPE)
            _, err = proc.communicate(timeout=120)
        expected = f"{argv[0]} failed: [Errno 28] No space left on device\n"
        assert (proc.returncode, err.decode()) == (1, expected)

    def test_closed_stdout(self):
        # with fd 1 closed there is no sys.stdout: the output is dropped, as it always was
        proc = cli_process(["params", "--n", "5"], stderr=subprocess.PIPE,
                           preexec_fn=lambda: os.close(1))
        _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (0, b"")

    def test_reader_closes_early(self):
        proc = cli_process(["export-map", "--n", "5", "--out", "/dev/stdout"],
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (head, proc.wait(timeout=120), err) == (b"logical,ph", 1, b"")


def f_string_rows(logical, physical):
    return "".join(f"{l},{p}\n" for l, p in zip(logical, physical)).encode()


def assert_csv_rows(logical, physical):
    got = _csv_rows(np.array(logical, dtype=np.int64), np.array(physical, dtype=np.int64))
    assert got.tobytes() == f_string_rows(logical, physical)


class TestCsvRows:
    """The array formatter writes the bytes of one f-string per row."""

    EDGES = (
        [0]
        + [v for k in range(1, 19) for v in (10**k - 1, 10**k)]
        + [2**31 - 1, 2**31, 2**32, 2**63 - 1]
    )

    def test_edge_values(self):
        assert_csv_rows(self.EDGES, self.EDGES[::-1])
        assert_csv_rows(self.EDGES[::-1], [0] * len(self.EDGES))

    def test_one_row_and_empty_chunks(self):
        for value in self.EDGES:
            assert_csv_rows([value], [value])
        assert_csv_rows([], [])
        empty = _csv_rows(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        assert empty.dtype == np.uint8 and empty.shape == (0,)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2**63 - 1), st.integers(0, 2**63 - 1)), max_size=40))
    def test_matches_f_strings(self, pairs):
        assert_csv_rows([l for l, _ in pairs], [p for _, p in pairs])

    def test_widths_change_inside_one_piece(self):
        # the real n = 5 map across logical 10^6: one piece, rows of both widths
        map_ = InterleavingMap(generator_matrix(5))
        logical = np.arange(999_000, 1_001_000, dtype=np.int64)
        physical = map_.forward_indices(logical)
        assert len({len(str(p)) for p in physical.tolist()}) > 1
        assert_csv_rows(logical.tolist(), physical.tolist())

    @pytest.mark.parametrize("n", [8, 12])
    def test_last_logical_indices(self, n):
        # these indices pass 2^32, so the digit split runs in int64
        map_ = InterleavingMap(generator_matrix(n))
        logical = np.arange(map_.n_faces - 1000, map_.n_faces, dtype=np.int64)
        assert logical[0] > 2**32
        assert_csv_rows(logical.tolist(), map_.forward_indices(logical).tolist())
