import json

import pytest

from padiclie.cli import FIXTURES, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestClassify:
    def test_inline_entries(self, capsys):
        code, out, _ = run(capsys, "--p", "5", "--N", "3", "classify", "1,1,0,1")
        assert code == 0
        assert out.strip() == "tracecore s=0 r=0 d=31 (mod 5^3)"

    def test_nilpotent_example(self, capsys):
        code, out, _ = run(capsys, "--p", "5", "classify", "0,0,5,0")
        assert code == 0
        assert out.strip() == "nilpotent s=1"

    def test_zero_matrix(self, capsys):
        code, out, _ = run(capsys, "classify", "0,0,0,0")
        assert code == 0
        assert out.strip() == "zero"

    def test_precision_exhausted_exit_code(self, capsys):
        code, _, err = run(capsys, "--p", "5", "--N", "2", "classify", "0,0,5,0")
        assert code == 2
        assert "precision" in err

    def test_matrix_file_and_json_output(self, capsys, tmp_path):
        src = tmp_path / "m.json"
        src.write_text(json.dumps({"rows": 2, "entries": [0, 5, 1, 0]}))
        dst = tmp_path / "out.json"
        code, out, _ = run(capsys, "--p", "5", "--N", "4", "classify", str(src), "-o", str(dst))
        assert code == 0
        data = json.loads(dst.read_text())
        assert data["descriptor"]["variant"] == "zerotrace"
        assert data["rendered"] == out.strip()

    def test_determinism(self, capsys):
        a = run(capsys, "--p", "7", "--N", "5", "classify", "3,11,2,9")
        b = run(capsys, "--p", "7", "--N", "5", "classify", "3,11,2,9")
        assert a == b

    def test_bad_input(self, capsys):
        code, _, err = run(capsys, "classify", "1,2,3")
        assert code == 2


class TestVerify:
    @pytest.mark.parametrize(
        "fixture",
        ["example-4.2", "example-4.7", "p3-pair", "thm73-grid", "two-dim", "insoluble", "p2-groups", "levi"],
    )
    def test_fixture_passes(self, capsys, fixture):
        for flags in [(), ("--p", "7")]:
            code, out, _ = run(capsys, "verify", fixture, *flags)
            assert code == 0, flags
            assert out.strip().endswith("pass")

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_levi_passes_from_its_floor(self, capsys, p):
        assert FIXTURES["levi"][1] == 7
        for n in range(7, 11):
            code, out, err = run(capsys, "verify", "levi", "--p", str(p), "--N", str(n))
            assert code == 0 and out.strip().endswith("pass"), (n, err)

    def test_classifier_oracle(self, capsys):
        code, out, _ = run(capsys, "verify", "classifier-oracle")
        assert code == 0
        assert "31 orbits" in out
        code, out, err = run(capsys, "verify", "classifier-oracle", "--p", "7")
        assert code == 2
        assert "beyond the enumeration cap" in err
        assert "FAIL" not in out

    def test_thm73_grid_rejects_small_primes(self, capsys):
        code, out, err = run(capsys, "verify", "thm73-grid", "--p", "3")
        assert code == 2
        assert "p >= 5" in err
        assert "FAIL" not in out

    @pytest.mark.parametrize("p", [4, 9, 15])
    def test_p2_groups_rejects_composite_p(self, capsys, p):
        # the fixture runs at p = 2, but a --p that is not prime is still bad input
        code, out, err = run(capsys, "verify", "p2-groups", "--p", str(p))
        assert code == 2
        assert f"p = {p} is not prime" in err
        assert "pass" not in out

    @pytest.mark.parametrize(
        "fixture, n",
        [("example-4.2", 1), ("example-4.7", 1), ("insoluble", 1), ("thm73-grid", 1), ("p2-groups", 3), ("levi", 6)],
    )
    def test_below_minimum_precision_is_bad_input(self, capsys, fixture, n):
        # these used to print FAIL and exit 1: the invariants vanish at that precision
        code, out, err = run(capsys, "verify", fixture, "--p", "5", "--N", str(n))
        assert code == 2
        assert f"{fixture} needs N >= {FIXTURES[fixture][1]}, got N = {n}" in err
        assert "FAIL" not in out

    @pytest.mark.parametrize("fixture", sorted(FIXTURES))
    def test_small_parameter_sweep(self, capsys, fixture):
        min_n = FIXTURES[fixture][1]
        problems = []
        for p in (2, 3, 5, 7, 9):
            for n in (1, 2, 3):
                code, _, err = run(capsys, "verify", fixture, "--p", str(p), "--N", str(n))
                # no fixture may report a failed check: out-of-range inputs exit 2
                if code not in (0, 2) or "Traceback" in err or (n < min_n and code != 2):
                    problems.append((p, n, code, err[-200:]))
        assert not problems

    def test_unknown_fixture(self, capsys):
        code, _, err = run(capsys, "verify", "no-such-fixture")
        assert code == 2
        assert "unknown fixture" in err


class TestConstructAndUse:
    def test_construct_pair(self, capsys, tmp_path):
        dst = tmp_path / "g4.json"
        code, out, _ = run(capsys, "construct", "G4", "--s", "0", "--r", "1", "--p", "5", "-o", str(dst))
        assert code == 0
        data = json.loads(dst.read_text())
        assert set(data) == {"name", "lattice", "group"}
        assert data["lattice"]["dim"] == 3
        assert len(data["group"]["action"]) == 2

    @pytest.mark.parametrize("family", ["G1", "G2", "G3", "G4", "G5"])
    def test_construct_rejects_p2(self, capsys, family):
        code, out, err = run(capsys, "construct", family, "--p", "2", "--s", "1", "--r", "1", "--d", "2")
        assert (code, out) == (2, "")
        assert family in err and "Traceback" not in err

    def test_construct_to_stdout_deterministic(self, capsys):
        a = run(capsys, "construct", "sl2tri", "--p", "5", "--N", "6")
        b = run(capsys, "construct", "sl2tri", "--p", "5", "--N", "6")
        assert a == b and a[0] == 0

    def test_manifest(self, capsys):
        code, out, _ = run(capsys, "manifest")
        assert code == 0
        assert "G4" in out and "levi" in out

    def test_bch_mul_on_heisenberg_file(self, capsys, tmp_path):
        dst = tmp_path / "h.json"
        code, _, _ = run(capsys, "construct", "G0", "--s", "0", "--p", "5", "--N", "2", "-o", str(dst))
        assert code == 0
        code, out, _ = run(capsys, "bch", "mul", str(dst), "x", "y")
        assert code == 0
        assert out.strip() == "1,1,13"

    @pytest.mark.parametrize(
        "argv, usage",
        [
            (("mul",), "usage: bch mul LATTICE X Y"),  # no lattice
            (("mul", "LATTICE", "x"), "usage: bch mul LATTICE X Y"),  # no second element
            (("neg", "LATTICE"), "usage: bch neg LATTICE X"),  # no element
            (("pow", "LATTICE", "x"), "usage: bch pow LATTICE X EXPONENT"),  # no exponent
        ],
    )
    def test_bch_missing_operands(self, capsys, tmp_path, argv, usage):
        dst = tmp_path / "h.json"
        run(capsys, "construct", "G0", "--s", "0", "--p", "5", "--N", "2", "-o", str(dst))
        code, _, err = run(capsys, "bch", *[str(dst) if a == "LATTICE" else a for a in argv])
        assert code == 2
        assert err.strip() == usage

    def test_bch_table(self, capsys):
        code, out, _ = run(capsys, "bch", "table", "3")
        assert code == 0
        data = json.loads(out)
        assert data["weight"] == 3
        assert {"num": -1, "den": 12, "word": "XYX"} in data["terms"]

    def test_iso_command(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run(capsys, "construct", "G4", "--s", "0", "--r", "1", "--N", "10", "-o", str(a))
        run(capsys, "construct", "G5", "--s", "0", "--r", "1", "--N", "10", "-o", str(b))
        code, out, _ = run(capsys, "iso", str(a), str(b))
        assert code == 0
        assert "isomorphic at precision: no" in out
        code, out, _ = run(capsys, "iso", str(a), str(a))
        assert "isomorphic at precision: yes" in out

    def test_iso_command_rejects_different_primes(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run(capsys, "construct", "G1", "--s", "1", "--p", "5", "--N", "12", "-o", str(a))
        run(capsys, "construct", "G1", "--s", "1", "--p", "7", "--N", "12", "-o", str(b))
        code, out, err = run(capsys, "iso", str(a), str(b))
        assert code == 2
        assert "isomorphic" not in out
        assert "different primes" in err

    @pytest.mark.parametrize(
        "construct, message",
        [
            (("sl2tri", "--p", "5"), "error: the dimension-3 invariant needs a lattice soluble at precision"),
            (("2dim", "--s", "1", "--p", "5"), "error: the dimension-3 invariant needs a 3-dimensional lattice, got 2"),
            (("G1", "--s", "1", "--p", "5", "--N", "3"), "precision error: invariant not determined at this precision"),
        ],
    )
    def test_iso_outside_the_classification_is_bad_input(self, capsys, tmp_path, construct, message):
        dst = tmp_path / "lattice.json"
        assert run(capsys, "construct", *construct, "-o", str(dst))[0] == 0
        assert run(capsys, "iso", str(dst), str(dst)) == (2, "", message + "\n")

    @pytest.mark.parametrize(
        "bracket",
        [
            {"i": 0, "j": 3, "c": [0, 0, 1]},
            {"i": -1, "j": 0, "c": [0, 0, 1]},
            {"i": 0, "j": 1, "c": [0, 1]},
            {"i": 0, "j": 1, "c": [0, 0, 1, 1]},
            {"i": 1, "j": 0, "c": [0, 0, 1]},  # the file's [x, y] again, reversed
            {"i": 0, "j": 1, "c": [0, 0, 2]},  # the file's [x, y] again, contradicting it
        ],
    )
    @pytest.mark.parametrize("command", ["iso", "bch mul"])
    def test_malformed_bracket_is_bad_input(self, capsys, tmp_path, command, bracket):
        dst = tmp_path / "h.json"
        run(capsys, "construct", "G0", "--s", "0", "--p", "5", "--N", "2", "-o", str(dst))
        data = json.loads(dst.read_text())
        data["lattice"]["brackets"].append(bracket)
        dst.write_text(json.dumps(data))
        argv = [str(dst), str(dst)] if command == "iso" else [str(dst), "x", "y"]
        code, out, err = run(capsys, *command.split(), *argv)
        assert code == 2
        assert out == ""
        assert "input error" in err and "bracket" in err

    def test_construct_p3_pair_points_to_verify(self, capsys):
        # the pair is two finite Lie rings, which construct cannot write as JSON
        code, out, err = run(capsys, "construct", "p3-pair")
        assert (code, out) == (2, "")
        assert "unknown" not in err and "verify p3-pair" in err

    def test_construct_unknown(self, capsys):
        code, _, err = run(capsys, "construct", "nonsense")
        assert code == 2
