import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import entspan
from entspan.cli import _exact_ints, _load_basis, build_parser, main
from entspan.construct import basis_from_json_dict


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstruct:
    def test_geq_3x3_r2(self, capsys, tmp_path):
        out_path = tmp_path / "basis.json"
        code, out, _ = run_cli(capsys, "construct", "--da", "3", "--db", "3", "--r", "2", "--out", str(out_path))
        assert code == 0
        assert out.splitlines()[0] == "dim=4 bound=4"
        basis = basis_from_json_dict(json.loads(out_path.read_text()))
        assert basis.dimension == 4

    def test_r_out_of_range_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "construct", "--da", "3", "--db", "3", "--r", "5", "--out", str(tmp_path / "b.json")
        )
        assert code == 2
        assert "r=" in err or "range" in err or "min" in err

    def test_flanders_3x4_r2(self, capsys, tmp_path):
        out_path = tmp_path / "b.json"
        code, out, _ = run_cli(
            capsys, "construct", "--kind", "flanders", "--da", "3", "--db", "4", "--r", "2", "--out", str(out_path)
        )
        assert code == 0
        assert out.splitlines()[0] == "dim=8 bound=8"
        assert len(json.loads(out_path.read_text())["matrices"]) == 8

    def test_fixed_and_antisym(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "construct", "--kind", "fixed", "--da", "2", "--db", "4", "--out", str(tmp_path / "f.json")
        )
        assert code == 0 and out.splitlines()[0] == "dim=3 bound=3"
        code, out, _ = run_cli(
            capsys, "construct", "--kind", "antisym", "--da", "3", "--db", "3", "--out", str(tmp_path / "a.json")
        )
        assert code == 0 and out.splitlines()[0] == "dim=3 bound=3"

    def test_random_prints_no_bound(self, capsys, tmp_path):
        # --dim is the size asked for; it bounds nothing.
        code, out, _ = run_cli(
            capsys, "construct", "--kind", "random", "--da", "3", "--db", "3", "--dim", "5", "--seed", "1",
            "--out", str(tmp_path / "r.json"),
        )
        assert code == 0 and out.splitlines()[0] == "dim=5"

    def test_random_needs_dim(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "construct", "--kind", "random", "--da", "3", "--db", "3", "--out", str(tmp_path / "r.json")
        )
        assert code == 2 and "--dim" in err

    def test_fixed_wrong_orientation_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "construct", "--kind", "fixed", "--da", "4", "--db", "3", "--out", str(tmp_path / "f.json")
        )
        assert code == 2 and "dA" in err

    def test_antisym_requires_3x3(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "construct", "--kind", "antisym", "--da", "4", "--db", "4", "--out", str(tmp_path / "a.json")
        )
        assert code == 2

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_artifact_mode_follows_umask(self, capsys, tmp_path, umask):
        # Artifacts were written 0600 whatever the umask.
        out_path = tmp_path / "basis.json"
        old = os.umask(umask)
        try:
            code, _, _ = run_cli(capsys, "construct", "--da", "2", "--db", "2", "--r", "2", "--out", str(out_path))
        finally:
            os.umask(old)
        assert code == 0
        assert out_path.stat().st_mode & 0o777 == 0o666 & ~umask

    def test_artifact_written_without_touching_the_umask(self, capsys, tmp_path, monkeypatch):
        # Reading the umask by setting it to 0 left every file that another thread created
        # in that window unmasked.
        def refuse(mask):
            raise AssertionError("os.umask called")

        out_path = tmp_path / "basis.json"
        old = os.umask(0o027)
        try:
            monkeypatch.setattr(os, "umask", refuse)
            code, _, _ = run_cli(capsys, "construct", "--da", "2", "--db", "2", "--r", "2", "--out", str(out_path))
        finally:
            monkeypatch.undo()
            os.umask(old)
        assert code == 0
        assert out_path.stat().st_mode & 0o777 == 0o640
        assert [p.name for p in tmp_path.iterdir()] == ["basis.json"]  # no temp file left behind

    def test_artifact_records_flags(self, capsys, tmp_path):
        out_path = tmp_path / "b.json"
        run_cli(capsys, "construct", "--da", "3", "--db", "3", "--r", "2", "--out", str(out_path))
        payload = json.loads(out_path.read_text())
        assert payload["run"]["da"] == 3
        assert payload["run"]["kind"] == "geq"


class TestVerify:
    @pytest.fixture
    def basis_file(self, capsys, tmp_path):
        out_path = tmp_path / "basis.json"
        run_cli(capsys, "construct", "--da", "3", "--db", "3", "--r", "2", "--out", str(out_path))
        return out_path

    def test_sample_mode_consistent(self, capsys, basis_file, tmp_path):
        rep_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "verify", "--basis", str(basis_file), "--mode", "sample",
            "--samples", "1000", "--seed", "7", "--out", str(rep_path),
        )
        assert code == 0
        assert "verdict=consistent" in out
        assert "min_rank_observed=2" in out
        payload = json.loads(rep_path.read_text())
        assert payload["verdict"] == "consistent"
        assert payload["run"]["seed"] == 7

    def test_sigma_mode_refutes_overfull_random(self, capsys, tmp_path):
        basis_path = tmp_path / "rand.json"
        run_cli(
            capsys, "construct", "--kind", "random", "--da", "3", "--db", "3",
            "--dim", "5", "--seed", "1", "--out", str(basis_path),
        )
        code, out, _ = run_cli(
            capsys, "verify", "--basis", str(basis_path), "--mode", "sigma", "--r", "2",
            "--seed", "0", "--out", str(tmp_path / "rep.json"),
        )
        assert code == 3
        assert "verdict=refuted" in out
        # The search stops at its first accepted witness and says how many restarts ran.
        run = json.loads((tmp_path / "rep.json").read_text())["params"]["restarts_run"]
        assert 1 <= run < 64
        assert f"n=64 restarts_run={run}" in out

    def test_gfp_mode_composite_p_exits_2(self, capsys, basis_file, tmp_path):
        code, _, err = run_cli(
            capsys, "verify", "--basis", str(basis_file), "--mode", "gfp", "--p", "4",
            "--out", str(tmp_path / "rep.json"),
        )
        assert code == 2
        assert "prime" in err

    def test_gfp_mode_consistent(self, capsys, basis_file, tmp_path):
        code, out, _ = run_cli(
            capsys, "verify", "--basis", str(basis_file), "--mode", "gfp", "--p", "3",
            "--out", str(tmp_path / "rep.json"),
        )
        assert code == 0
        assert "n=40" in out

    def test_gfp_mode_basis_dependent_mod_p_exits_2(self, capsys, tmp_path):
        # Independent over Q, but M2 = M1 mod 5: the scan finds the zero combination M1 - M2.
        basis_path, rep_path = tmp_path / "basis.json", tmp_path / "rep.json"
        matrices = [{"rows": 2, "cols": 2, "field": "rational", "entries": e} for e in ([1, 1, 0, 0], [1, 6, 0, 0])]
        basis_path.write_text(json.dumps({"da": 2, "db": 2, "r": 1, "kind": "user", "matrices": matrices}))
        code, out, err = run_cli(
            capsys, "verify", "--basis", str(basis_path), "--mode", "gfp", "--p", "5", "--out", str(rep_path)
        )
        assert (code, out, err) == (2, "", "error: basis loses linear independence when reduced mod 5\n")
        assert not rep_path.exists()
        code, _, _ = run_cli(capsys, "verify", "--basis", str(basis_path), "--mode", "gfp", "--p", "3", "--out", str(rep_path))
        assert code == 0

    def test_structural_mode(self, capsys, basis_file, tmp_path):
        rep_path = tmp_path / "rep.json"
        code, out, _ = run_cli(
            capsys, "verify", "--basis", str(basis_file), "--mode", "structural",
            "--samples", "25", "--seed", "3", "--out", str(rep_path),
        )
        assert code == 0
        payload = json.loads(rep_path.read_text())
        assert len(payload["witnesses"]) == 25
        assert all(w["kind"] == "structural_geq" for w in payload["witnesses"])

    def test_malformed_basis_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(
            capsys, "verify", "--basis", str(bad), "--mode", "sample", "--r", "2",
            "--out", str(tmp_path / "rep.json"),
        )
        assert code == 2
        assert "line" in err and "column" in err

    @pytest.mark.parametrize("spelling", ["same", "through_parent", "through_linked_dir", "target_of_linked_basis"])
    def test_out_naming_the_basis_refused(self, capsys, basis_file, spelling):
        # The report would replace the basis, and the next verify on the file would fail on a missing key.
        before = basis_file.read_bytes()
        basis, out = basis_file, basis_file
        if spelling == "through_parent":
            out = basis_file.parent / ".." / basis_file.parent.name / basis_file.name
        elif spelling == "through_linked_dir":
            (basis_file.parent / "linked").symlink_to(basis_file.parent)
            out = basis_file.parent / "linked" / basis_file.name
        elif spelling == "target_of_linked_basis":
            basis = basis_file.parent / "link.json"
            basis.symlink_to(basis_file)
        code, stdout, err = run_cli(
            capsys, "verify", "--basis", str(basis), "--mode", "sample", "--samples", "5", "--out", str(out)
        )
        assert (code, stdout) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and "--basis" in err
        assert basis_file.read_bytes() == before
        assert run_cli(capsys, "verify", "--basis", str(basis_file), "--mode", "sample", "--samples", "5",
                       "--out", str(basis_file.parent / "report.json"))[0] == 0

    @pytest.mark.parametrize("link", ["symlink", "hard_link"])
    def test_out_linked_to_the_basis_allowed(self, capsys, basis_file, link):
        # The report replaces the link's own directory entry, so the basis keeps its bytes.
        before = basis_file.read_bytes()
        out = basis_file.parent / "out.json"
        if link == "symlink":
            out.symlink_to(basis_file)
        else:
            os.link(basis_file, out)
        code, _, _ = run_cli(
            capsys, "verify", "--basis", str(basis_file), "--mode", "sample", "--samples", "5", "--out", str(out)
        )
        assert code == 0
        assert basis_file.read_bytes() == before
        assert not out.is_symlink() and json.loads(out.read_text())["verdict"] == "consistent"

    def test_round_trip_construct_then_verify(self, capsys, tmp_path):
        # cmd_construct output is accepted unmodified by cmd_verify.
        basis_path = tmp_path / "b.json"
        for kind, extra in [("geq", ["--r", "2"]), ("flanders", ["--r", "2"]), ("antisym", [])]:
            run_cli(capsys, "construct", "--kind", kind, "--da", "3", "--db", "3", *extra, "--out", str(basis_path))
            require = ["--require", "leq"] if kind == "flanders" else []
            code, _, _ = run_cli(
                capsys, "verify", "--basis", str(basis_path), "--mode", "sample", "--r", "2",
                "--samples", "50", *require, "--out", str(tmp_path / "rep.json"),
            )
            assert code == 0


def _user_basis(field, entries, **extra):
    matrix = {"rows": 2, "cols": 2, "field": field, "entries": entries, **extra}
    return {"da": 2, "db": 2, "r": 2, "kind": "user", "matrices": [matrix]}


_RANK_ONE = _user_basis("rational", [3, 5, 6, 10])
_DIAGONAL = {
    "da": 3, "db": 3, "r": 2, "kind": "min_rank_geq_r",
    "matrices": [{"rows": 3, "cols": 3, "field": "rational", "entries": [1, 0, 0, 0, 2, 0, 0, 0, 3]}],
    "metadata": {"per_matrix": [{"k": 0, "tns_column": 0}]},
}

#: (basis document, verify flags) that must exit 2 with one stderr line.
BAD_INPUTS = {
    # Above 2**31 the residues of a word-sized elimination overflowed and
    # this rank-1 basis read "consistent" with minimum rank 2.
    "modulus_above_2_31": (_RANK_ONE, ["--mode", "gfp", "--p", "4294967311"]),
    # A prime this large used to be trial-divided for minutes.
    "huge_prime_modulus": (_RANK_ONE, ["--mode", "gfp", "--p", "2305843009213693951"]),
    "zero_denominator": (_user_basis("rational", ["1/0", 5, 6, 10]), ["--mode", "sample"]),
    "negative_tolerance": (_user_basis("complex", [[1, 0], [0, 0], [0, 0], [1, 0]]), ["--mode", "sigma", "--tol", "-1"]),
    # sigma_r / sigma_1 never exceeds 1, so no tol of 1 or more has a meaning: at
    # --tol 5 the identity at r = 2, whose every nonzero element has rank 2, read
    # "inconclusive".
    "tolerance_one": (_user_basis("rational", [1, 0, 0, 1]), ["--mode", "sigma", "--r", "2", "--tol", "1"]),
    "tolerance_five": (_user_basis("rational", [1, 0, 0, 1]), ["--mode", "sigma", "--r", "2", "--tol", "5"]),
    "structural_without_samples": (_DIAGONAL, ["--mode", "structural", "--samples", "0"]),
    # E00 + E12: its top diagonal k=1 holds one nonzero entry, so no order-2
    # triangular minor exists there.
    "structural_top_diagonal_too_short": (
        {**_DIAGONAL, "matrices": [{**_DIAGONAL["matrices"][0], "entries": [1, 0, 0, 0, 0, 1, 0, 0, 0]}]},
        ["--mode", "structural", "--samples", "2"],
    ),
    "complex_entry_as_string": (_user_basis("complex", ["1+2j", [0, 0], [0, 0], [1, 0]]), ["--mode", "sigma"]),
    # Decoded as 1 and 0: the pair [true, 0] read (1+0j).
    "complex_part_as_bool": (_user_basis("complex", [[True, 0], [0, 0], [0, 0], [0, False]]), ["--mode", "sigma"]),
    # GF(p) is no stored field; a matrix that claims it is refused at load, whatever the mode.
    "gfp_field_refused_at_load": (_user_basis("gfp", [1, 0, 0, 1], p=5), ["--mode", "sigma"]),
    # Fraction would expand this exponent into a 3.3-billion-bit integer.
    "rational_exponent": (_user_basis("rational", ["1e999999999", 5, 6, 11]), ["--mode", "sample"]),
    "rational_decimal": (_user_basis("rational", ["1.5", 5, 6, 11]), ["--mode", "sample"]),
    "rational_padded": (_user_basis("rational", [" 3", 5, 6, 11]), ["--mode", "sample"]),
    # json raises a plain ValueError on integer literals over 4300 digits.
    "dimension_of_5001_digits": (
        '{"da": ' + "9" * 5001 + ', "db": 2, "kind": "user", "matrices": []}',
        ["--mode", "sample"],
    ),
    # A RecursionError traceback from json.
    "nested_100000_deep": ("[" * 100000, ["--mode", "sample"]),
    # Read "consistent" when loaded bases were not checked for independence.
    "duplicated_matrix": (
        {**_RANK_ONE, "matrices": _RANK_ONE["matrices"] * 2},
        ["--mode", "sample", "--require", "leq", "--samples", "5"],
    ),
    # Structural certificates are order-2 minors here; this read "consistent"
    # with min_rank_observed 9.
    "structural_r_above_basis_r": (_DIAGONAL, ["--mode", "structural", "--r", "9", "--samples", "2"]),
    # A traceback: structural certificates used the missing r as a minor order.
    "structural_without_basis_r": (
        {k: v for k, v in _DIAGONAL.items() if k != "r"},
        ["--mode", "structural", "--r", "1", "--samples", "2"],
    ),
    # Each read "consistent".
    "gfp_negative_r": (_DIAGONAL, ["--mode", "gfp", "--p", "3", "--r", "-3"]),
    "sample_zero_r": (_DIAGONAL, ["--mode", "sample", "--r", "0", "--samples", "2"]),
    # random.Random(-1) seeds with 1, so seed -1 would silently repeat seed 1's draws.
    "sample_negative_seed": (_DIAGONAL, ["--mode", "sample", "--seed", "-1", "--samples", "2"]),
    "sigma_negative_seed": (_user_basis("complex", [[1, 0], [0, 0], [0, 0], [1, 0]]), ["--mode", "sigma", "--seed", "-1"]),
    "structural_negative_seed": (_DIAGONAL, ["--mode", "structural", "--seed", "-1", "--samples", "2"]),
    # The independence stack splits into blocks of rows sharing columns; the
    # dependency (second = first / 3) lies inside one of them.
    "dependency_inside_one_block": (
        {**_RANK_ONE, "matrices": [
            {"rows": 2, "cols": 2, "field": "rational", "entries": e}
            for e in ([1, 2, 0, 0], ["1/3", "2/3", 0, 0], [0, 0, 0, 5])
        ]},
        ["--mode", "sample", "--samples", "5"],
    ),
    # Construct runs with no basis file (None).  Each kind gave its own
    # message, such as "need 1 <= dim <= 0" for random.
    "construct_geq_zero_da": (None, ["construct", "--da", "0", "--db", "3", "--r", "2"]),
    "construct_flanders_zero_db": (None, ["construct", "--kind", "flanders", "--da", "3", "--db", "0", "--r", "1"]),
    "construct_fixed_negative_da": (None, ["construct", "--kind", "fixed", "--da", "-2", "--db", "3"]),
    "construct_random_zero_da": (None, ["construct", "--kind", "random", "--da", "0", "--db", "3", "--dim", "1"]),
    # Flags a kind ignores were accepted and recorded in the artifact's run.
    "construct_fixed_with_r_and_dim": (None, ["construct", "--kind", "fixed", "--da", "2", "--db", "4", "--r", "9", "--dim", "7"]),
    "construct_antisym_with_r": (None, ["construct", "--kind", "antisym", "--da", "3", "--db", "3", "--r", "2"]),
    "construct_random_with_r": (None, ["construct", "--kind", "random", "--da", "3", "--db", "3", "--dim", "2", "--r", "5"]),
    "construct_geq_with_dim": (None, ["construct", "--da", "3", "--db", "3", "--r", "2", "--dim", "4"]),
    "construct_flanders_with_dim": (None, ["construct", "--kind", "flanders", "--da", "3", "--db", "3", "--r", "1", "--dim", "9"]),
    # Above 2**53 a dimension has no exact double: an OverflowError traceback,
    # an "int too large to convert to float" exit 1, and an r of 5000...02625...
    # where 5 * 10**299 is exact.
    "report_mixed_d_10_200": (None, ["report", "--kind", "mixed", "--d", str(10**200), "--p", "0.5"]),
    "report_random_db_10_400": (None, ["report", "--kind", "random", "--da", "3", "--db", str(10**400), "--k", "0.5"]),
    "report_random_10_300_square": (None, ["report", "--kind", "random", "--da", str(10**300), "--db", str(10**300), "--k", "0.5"]),
    "no_matrices": ({**_RANK_ONE, "matrices": []}, ["--mode", "sample"]),
    "mixed_fields": (
        {**_RANK_ONE, "matrices": [*_RANK_ONE["matrices"], *_user_basis("complex", [[1, 0], [0, 0], [0, 0], [1, 0]])["matrices"]]},
        ["--mode", "sample"],
    ),
    # json reads 1e999 as inf.
    "complex_entry_1e999": (
        json.dumps(_user_basis("complex", [[1, 0], [0, 0], [0, 0], [1, 0]])).replace("[1, 0]", "[1e999, 0]", 1),
        ["--mode", "sigma"],
    ),
}

#: A run of each construct and report kind and each verify mode ("{basis}" is a basis file), with every flag it needs.
FLAG_RUNS = {
    ("construct", "geq"): ["construct", "--kind", "geq", "--da", "3", "--db", "3", "--r", "2"],
    ("construct", "flanders"): ["construct", "--kind", "flanders", "--da", "3", "--db", "3", "--r", "1"],
    ("construct", "fixed"): ["construct", "--kind", "fixed", "--da", "2", "--db", "4"],
    ("construct", "antisym"): ["construct", "--kind", "antisym", "--da", "3", "--db", "3"],
    ("construct", "random"): ["construct", "--kind", "random", "--da", "3", "--db", "3", "--dim", "2"],
    ("report", "mixed"): ["report", "--kind", "mixed", "--d", "10", "--p", "0.5"],
    ("report", "random"): ["report", "--kind", "random", "--da", "4", "--db", "5", "--k", "0.5"],
    ("verify", "sample"): ["verify", "--basis", "{basis}", "--mode", "sample"],
    ("verify", "gfp"): ["verify", "--basis", "{basis}", "--mode", "gfp", "--p", "3"],
    ("verify", "sigma"): ["verify", "--basis", "{basis}", "--mode", "sigma"],
    ("verify", "structural"): ["verify", "--basis", "{basis}", "--mode", "structural"],
}
#: The None-default flags of each command that some kind or mode reads, each with a value to give it.
#: ``report --kind mixed ... --k 3`` and ``verify --mode sample --p 5`` exited 0 and recorded the flag
#: they never read in the artifact's run.
KIND_FLAGS = {
    "construct": {"r": "2", "dim": "2"},
    "report": {"d": "10", "p": "0.5", "da": "4", "db": "5", "k": "3"},
    "verify": {"p": "5"},
}


def _flag_cases():
    """(argv, stderr) for each run above without one flag it needs, or with one it does not take."""
    for (command, value), argv in FLAG_RUNS.items():
        choice = "mode" if command == "verify" else "kind"
        for flag, given in KIND_FLAGS[command].items():
            if f"--{flag}" in argv:
                i = argv.index(f"--{flag}")
                argv_, rule = argv[:i] + argv[i + 2:], "needs"
            else:
                argv_, rule = argv + [f"--{flag}", given], "does not take"
            message = f"error: {command} --{choice} {value} {rule} --{flag}\n"
            yield pytest.param(argv_, message, id=f"{command}-{value}-{rule.replace(' ', '-')}-{flag}")


class TestBadInput:
    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_exits_2_with_one_line(self, capsys, tmp_path, case):
        doc, flags = BAD_INPUTS[case]
        basis_path, out_path = tmp_path / "basis.json", tmp_path / "rep.json"
        if doc is not None:
            basis_path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
            flags = ["verify", "--basis", str(basis_path), *flags]
        code, out, err = run_cli(capsys, *flags, "--out", str(out_path))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert not out_path.exists()

    def test_gfp_field_named(self, capsys, tmp_path):
        # Even gfp mode, which reduces a rational basis mod p, takes no basis stored over GF(p).
        basis_path, out_path = tmp_path / "basis.json", tmp_path / "rep.json"
        basis_path.write_text(json.dumps(_user_basis("gfp", [1, 0, 0, 1], p=5)))
        code, out, err = run_cli(
            capsys, "verify", "--basis", str(basis_path), "--mode", "gfp", "--p", "5", "--out", str(out_path)
        )
        assert (code, out, err) == (2, "", "error: unknown field 'gfp'\n")
        assert not out_path.exists()

    @pytest.mark.parametrize("kind", ["geq", "flanders", "fixed", "antisym", "random"])
    def test_construct_nonpositive_dimensions_one_message(self, capsys, tmp_path, kind):
        code, _, err = run_cli(
            capsys, "construct", "--kind", kind, "--da", "0", "--db", "3", "--r", "2", "--dim", "1",
            "--out", str(tmp_path / "b.json"),
        )
        assert (code, err) == (2, "error: dimensions must be positive, got 0, 3\n")

    @pytest.mark.parametrize("argv, message", list(_flag_cases()))
    def test_each_kind_needs_the_flags_it_reads_and_takes_no_other(self, capsys, tmp_path, argv, message):
        basis_path, out_path = tmp_path / "basis.json", tmp_path / "out.json"
        basis_path.write_text(json.dumps(_DIAGONAL))
        argv = [a.format(basis=basis_path) for a in argv]
        assert run_cli(capsys, *argv, "--out", str(out_path)) == (2, "", message)
        assert not out_path.exists()

    @pytest.mark.parametrize("command", ["construct", "verify"])
    def test_empty_out_exits_2(self, capsys, tmp_path, monkeypatch, command):
        # Only bounds and report print to stdout; an --out of '' names no file to write.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "basis.json").write_text(json.dumps(_DIAGONAL))
        argv = {"construct": FLAG_RUNS["construct", "geq"], "verify": [*FLAG_RUNS["verify", "sample"], "--samples", "2"]}[command]
        code, out, err = run_cli(capsys, *[a.format(basis="basis.json") for a in argv], "--out", "")
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("i/o error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["basis.json"]

    def test_construct_ignored_flag_named(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "construct", "--kind", "fixed", "--da", "2", "--db", "4", "--dim", "7",
            "--out", str(tmp_path / "b.json"),
        )
        assert (code, err) == (2, "error: construct --kind fixed does not take --dim\n")

    @pytest.mark.parametrize("require", ["leq", "eq"])
    @pytest.mark.parametrize("mode", ["gfp", "sigma", "structural"])
    def test_require_other_than_geq_needs_sample_mode(self, capsys, tmp_path, mode, require):
        # These modes answer rank >= r whatever --require says: each read "consistent"
        # here, though every nonzero element of this basis has rank >= 2 > 1.
        basis_path, out_path = tmp_path / "basis.json", tmp_path / "rep.json"
        run_cli(capsys, "construct", "--da", "3", "--db", "3", "--r", "2", "--out", str(basis_path))
        code, out, err = run_cli(
            capsys, "verify", "--basis", str(basis_path), "--mode", mode, "--p", "3", "--r", "1",
            "--require", require, "--out", str(out_path),
        )
        assert (code, out) == (2, "")
        assert err == f"error: verify --mode {mode} checks rank >= r only; --require {require} needs --mode sample\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("mode", ["gfp", "sigma", "structural"])
    def test_require_geq_outside_sample_mode_runs(self, capsys, tmp_path, mode):
        basis_path = tmp_path / "basis.json"
        run_cli(capsys, "construct", "--da", "3", "--db", "3", "--r", "2", "--out", str(basis_path))
        p = ["--p", "3"] if mode == "gfp" else []  # only gfp mode takes --p
        flags = ["verify", "--basis", str(basis_path), "--mode", mode, *p, "--restarts", "2", "--iters", "20"]
        assert run_cli(capsys, *flags, "--out", str(tmp_path / "default.json"))[0] == 0
        assert run_cli(capsys, *flags, "--require", "geq", "--out", str(tmp_path / "geq.json"))[0] == 0
        assert (tmp_path / "geq.json").read_bytes() == (tmp_path / "default.json").read_bytes()

    @pytest.mark.parametrize(
        "doc, mode",
        [
            (_user_basis("rational", ["1." + "0" * 5000, 0, 0, 0]), "sample"),
            (_user_basis("complex", [["x" * 5000, 0], [0, 0], [0, 0], [0, 0]]), "sigma"),
            ({**_RANK_ONE, "kind": "x" * 5000}, "sample"),
            ({**_RANK_ONE, "da": "x" * 5000}, "sample"),
            ({**_RANK_ONE, "da": 10**4000}, "sample"),
            ({**_RANK_ONE, "r": "x" * 5000}, "sample"),
            (_user_basis("x" * 5000, [1, 0, 0, 1]), "sample"),
            ({**_RANK_ONE, "matrices": [{**_RANK_ONE["matrices"][0], "rows": "x" * 5000}]}, "sample"),
            # A cell count past Python's 4300-digit limit on int-to-str conversion: a ValueError traceback.
            ({**_RANK_ONE, "matrices": [{**_RANK_ONE["matrices"][0], "rows": 10**4000, "cols": 10**4000}]}, "sample"),
        ],
        ids=["rational", "complex", "kind", "da", "da_of_4001_digits", "r", "field", "rows", "cells_past_digit_limit"],
    )
    def test_long_malformed_entry_quoted_short(self, capsys, tmp_path, doc, mode):
        # Each refusal echoed the whole value: a stderr line of over 4000 characters.
        basis_path, out_path = tmp_path / "basis.json", tmp_path / "rep.json"
        basis_path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", "--basis", str(basis_path), "--mode", mode, "--out", str(out_path))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and len(err) < 200 and err.startswith("error: ")
        assert not out_path.exists()

    def test_construct_negative_seed(self, capsys, tmp_path):
        out_path = tmp_path / "b.json"
        code, out, err = run_cli(
            capsys, "construct", "--kind", "random", "--da", "2", "--db", "2", "--dim", "2",
            "--seed", "-1", "--out", str(out_path),
        )
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert not out_path.exists()


#: Rational entries that are neither text nor int, each in one matrix and split across two:
#: the second matrix's bool or float hashes and compares equal to an int entry of the first.
#: Read as that int, every basis here is independent and would pass.
NON_TEXT_ENTRIES = {
    "int_and_true": ([[1, True, 0, 1]], [[1, 0, 0, 1], [0, True, 0, 0]]),
    "int_and_float": ([[1, 1.0, 0, 1]], [[1, 0, 0, 1], [0, 1.0, 0, 0]]),
    "text_and_true": ([["1", True, "0", "1"]], [[1, "0", "0", "1"], ["0", True, "0", "0"]]),
    "text_and_false": ([["0/1", False, "1", "1"]], [["0/1", 0, "1", "0/1"], ["1", False, "0/1", "0/1"]]),
}


@pytest.mark.parametrize("layout", [0, 1], ids=["one_matrix", "two_matrices"])
@pytest.mark.parametrize("case", sorted(NON_TEXT_ENTRIES))
def test_non_text_entries_never_share_a_decode(capsys, tmp_path, case, layout):
    entries = NON_TEXT_ENTRIES[case][layout]
    flags = ["--mode", "sample", "--r", "1", "--samples", "3"]
    for doc, expected in [
        ({**_RANK_ONE, "matrices": [{**_RANK_ONE["matrices"][0], "entries": e} for e in entries]}, 2),
        # The same basis with each bool and float written as its int loads and verifies.
        ({**_RANK_ONE, "matrices": [
            {**_RANK_ONE["matrices"][0], "entries": [int(v) if type(v) in (bool, float) else v for v in e]}
            for e in entries
        ]}, 0),
    ]:
        basis_path = tmp_path / "basis.json"
        basis_path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "verify", "--basis", str(basis_path), *flags, "--out", str(tmp_path / "rep.json"))
        assert code == expected, doc
        if expected == 2:
            assert err.count("\n") == 1 and err.startswith("error: bad rational entry ")


def test_no_load_outlives_its_call(capsys, tmp_path):
    # A path rewritten with a dependent basis between two calls in one process is read afresh.
    basis_path = tmp_path / "basis.json"
    argv = ["verify", "--basis", str(basis_path), "--mode", "sample", "--r", "1", "--samples", "3",
            "--out", str(tmp_path / "rep.json")]
    for second, expected in [([0, 1, 0, 0], 0), (["2", 0, 0, "2"], 2)]:
        matrices = [{**_RANK_ONE["matrices"][0], "entries": e} for e in ([1, 0, 0, 1], second)]
        basis_path.write_text(json.dumps({**_RANK_ONE, "matrices": matrices}))
        code, _, err = run_cli(capsys, *argv)
        assert code == expected
    assert err == "error: basis is not linearly independent: stack rank 1 != 2\n"


def test_sigma_on_ill_conditioned_rational_basis_exits_4(capsys, tmp_path):
    # Every element of this basis has exact rank 2; the numeric witness is not confirmed.
    basis_path = tmp_path / "basis.json"
    basis_path.write_text(json.dumps(_user_basis("rational", [10**10, 0, 0, 1])))
    code, out, err = run_cli(
        capsys, "verify", "--basis", str(basis_path), "--mode", "sigma", "--r", "2", "--out", str(tmp_path / "r.json")
    )
    assert (code, err) == (4, "")
    assert "verdict=inconclusive" in out
    # An unconfirmed numeric drop ends nothing: every restart runs.
    assert "n=64 restarts_run=64" in out


@pytest.mark.parametrize("restarts", [1, 2, 3])
def test_sigma_above_the_bound_refutes_without_a_witness(capsys, tmp_path, restarts):
    # dim 8 > (4-3+1)(5-3+1) = 6, so some element has rank below 3; one iteration finds no witness.
    basis_path, rep_path = tmp_path / "rand.json", tmp_path / "rep.json"
    run_cli(
        capsys, "construct", "--kind", "random", "--da", "4", "--db", "5", "--dim", "8", "--seed", "3",
        "--out", str(basis_path),
    )
    code, out, err = run_cli(
        capsys, "verify", "--basis", str(basis_path), "--mode", "sigma", "--r", "3", "--iters", "1",
        "--restarts", str(restarts), "--out", str(rep_path),
    )
    assert (code, err) == (3, "")
    assert "verdict=refuted" in out and out.splitlines()[0].endswith(" dim=8>bound=6")
    report = json.loads(rep_path.read_text())
    assert report["witnesses"] == []
    assert report["params"]["dimension_bound"] == {"da": 4, "db": 5, "r": 3, "dim": 8, "bound": 6}


def test_sigma_refutes_a_rational_pencil_above_the_bound(capsys, tmp_path):
    # span{I, [[0, 2], [1, 0]]}: dim 2 > 1 = (2-2+1)^2, so some complex element, I + x M with x^2 = 1/2, is
    # singular.  No rational one is, so the exact check accepts no witness and sample mode stays consistent.
    document = _user_basis("rational", [1, 0, 0, 1])
    document["matrices"].append({**document["matrices"][0], "entries": [0, 2, 1, 0]})
    basis_path, rep_path = tmp_path / "pencil.json", tmp_path / "rep.json"
    basis_path.write_text(json.dumps(document))
    code, out, err = run_cli(capsys, "verify", "--basis", str(basis_path), "--mode", "sigma", "--out", str(rep_path))
    assert (code, err) == (3, "")
    assert "verdict=refuted" in out and "n=64 restarts_run=64" in out
    report = json.loads(rep_path.read_text())
    assert report["witnesses"] == []
    assert report["params"]["dimension_bound"] == {"da": 2, "db": 2, "r": 2, "dim": 2, "bound": 1}
    code, out, _ = run_cli(capsys, "verify", "--basis", str(basis_path), "--mode", "sample", "--out", str(rep_path))
    assert code == 0 and "verdict=consistent" in out


def _child_env(**extra):
    """This environment, with the imported entspan first on a child interpreter's PYTHONPATH."""
    path = [os.path.dirname(os.path.dirname(entspan.__file__)), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)), **extra}


def _run_closed_stdout(argv, unbuffered=""):
    """Run ``python -m entspan argv`` with stdout an os.pipe() whose read end is already closed."""
    env = _child_env(PYTHONUNBUFFERED=unbuffered)
    read, write = os.pipe()
    os.close(read)
    try:
        return subprocess.run([sys.executable, "-m", "entspan", *argv], stdout=write, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write)


class TestClosedStdout:
    """A reader that has gone away loses the summary lines, not the exit code."""

    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["construct", "--kind", "random", "--da", "3", "--db", "3", "--dim", "5", "--seed", "1"], 0),
            (["verify", "--basis", "{rand}", "--mode", "sigma", "--r", "2", "--restarts", "8", "--iters", "200"], 3),
            (["verify", "--basis", "{diag}", "--mode", "sigma", "--r", "2", "--restarts", "2", "--iters", "20"], 4),
            (["bounds", "--da", "3", "--db", "3", "--grid", "--format", "json"], 0),
            (["report", "--kind", "mixed", "--d", "3", "--p", "0.5", "--format", "json"], 0),
        ],
        ids=["construct", "refuted", "inconclusive", "bounds-out", "report-out"],
    )
    def test_keeps_exit_code(self, capsys, tmp_path, argv, code, unbuffered):
        rand, diag, out_path = tmp_path / "rand.json", tmp_path / "diag.json", tmp_path / "out.json"
        run_cli(capsys, "construct", "--kind", "random", "--da", "3", "--db", "3", "--dim", "5", "--seed", "1", "--out", str(rand))
        diag.write_text(json.dumps(_user_basis("rational", [10**10, 0, 0, 1])))
        argv = [a.format(rand=rand, diag=diag) for a in argv]
        proc = _run_closed_stdout([*argv, "--out", str(out_path)], unbuffered)
        assert (proc.returncode, proc.stderr) == (code, b"")
        assert json.loads(out_path.read_text())

    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--da", "3", "--db", "3", "--grid", "--format", "json"],
            ["bounds", "--da", "3", "--db", "3", "--r", "2"],
            ["report", "--kind", "mixed", "--d", "3", "--p", "0.5", "--format", "json"],
        ],
        ids=["bounds-json", "bounds-text", "report-json"],
    )
    def test_output_on_stdout_cut_short_exits_2(self, argv, unbuffered):
        # Without --out, stdout carries the output itself, so a closed reader lost it.
        proc = _run_closed_stdout(argv, unbuffered)
        assert (proc.returncode, proc.stderr.decode()) == (2, "i/o error: [Errno 32] Broken pipe\n")

    def test_other_os_errors_exit_2(self, capsys, tmp_path):
        # The line names the --out path, not the temporary file beside it, so two runs print the same line.
        errs = []
        for _ in range(2):
            code, out, err = run_cli(
                capsys, "construct", "--da", "3", "--db", "3", "--r", "2", "--out", str(tmp_path / "missing" / "b.json")
            )
            assert (code, out) == (2, "")
            assert len(err.splitlines()) == 1 and err.startswith("i/o error: ")
            errs.append(err)
        assert errs[0] == errs[1]
        assert errs[0].rstrip().endswith(f"{os.path.join('missing', 'b.json')}'")


class TestParserCache:
    def test_successive_calls_share_no_state(self, capsys, tmp_path):
        basis, first, second = tmp_path / "b.json", tmp_path / "r1.json", tmp_path / "r2.json"
        run_cli(capsys, "construct", "--da", "3", "--db", "3", "--r", "2", "--out", str(basis))
        code, _, _ = run_cli(
            capsys, "verify", "--basis", str(basis), "--mode", "sample", "--samples", "3", "--seed", "5",
            "--r", "3", "--require", "leq", "--out", str(first),
        )
        assert code == 0
        code, _, _ = run_cli(capsys, "verify", "--basis", str(basis), "--mode", "structural", "--out", str(second))
        assert code == 0
        run = json.loads(second.read_text())["run"]
        assert (run["mode"], run["samples"], run["seed"], run["r"], run["require"]) == ("structural", 1000, 0, None, "geq")
        assert build_parser() is build_parser()

    def test_bad_flag_still_exits_2(self, capsys, tmp_path):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["bounds", "--da", "3", "--db", "3", "--bogus", "1"])
            assert exc.value.code == 2
            assert "unrecognized arguments: --bogus 1" in capsys.readouterr().err
        code, _, _ = run_cli(capsys, "bounds", "--da", "3", "--db", "3", "--r", "2")
        assert code == 0


_FOOTPRINT = """
import sys
from entspan.cli import main
for command in sys.argv[1:]:
    assert main(command.split()) in (0, 3, 4), command
print(*[name for name in ("numpy.random", "scipy") if name in sys.modules])
"""


class TestImportFootprint:
    """Modules no CLI path may load: numpy.random costs every process about 6 MiB, scipy.linalg about 27 MiB.

    Every draw comes from the package's own stream, and only ``verify.pencil_low_rank`` imports scipy.
    """

    def _heavy_imports(self, tmp_path, script):
        env = _child_env()
        geq, rand, report = (tmp_path / name for name in ("geq.json", "rand.json", "report.json"))
        commands = [
            f"construct --kind geq --da 3 --db 4 --r 2 --out {geq}",
            f"construct --kind random --da 3 --db 3 --dim 5 --seed 1 --out {rand}",
            *(f"verify --basis {geq} {flags} --out {report}" for flags in (
                "--mode sample --samples 20", "--mode structural --samples 20", "--mode gfp --p 3",
                "--mode sigma --restarts 2 --iters 20",
            )),
            f"verify --basis {rand} --mode sigma --r 2 --restarts 2 --iters 20 --out {report}",
        ]
        out = subprocess.run(
            [sys.executable, "-c", script, *commands], capture_output=True, text=True, env=env, check=True
        )
        return out.stdout.splitlines()[-1].split()

    def test_no_cli_path_imports_it(self, tmp_path):
        assert self._heavy_imports(tmp_path, _FOOTPRINT) == []

    def test_guard_sees_the_import(self, tmp_path):
        # A probe that imports numpy.random on purpose, then runs the same commands.
        assert self._heavy_imports(tmp_path, "import numpy.random\n" + _FOOTPRINT) == ["numpy.random"]

    def test_guard_sees_scipy(self, tmp_path):
        pytest.importorskip("scipy")
        assert "scipy" in self._heavy_imports(tmp_path, "import scipy.linalg\n" + _FOOTPRINT)


_LOAD_RSS_PROBE = """
import resource, sys
from entspan.cli import _load_basis
for _ in range(20):
    _load_basis(sys.argv[1])
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
for _ in range(300):
    _load_basis(sys.argv[1])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""

#: Runs its arguments as ``python -c``.  Linux carries a process's ru_maxrss over fork and exec, so
#: a child of the test process starts at the test's own RSS, above any peak the probe reaches; a
#: child of this small launcher starts at the launcher's.
_LAUNCHER = "import subprocess, sys; sys.exit(subprocess.run([sys.executable, '-c', *sys.argv[1:]]).returncode)"


class TestLoadMemory:
    def test_repeated_loads_keep_peak_rss(self, tmp_path):
        # Each matrix's nonzero cells are a tuple of small tuples.  Built by tuple() from a zip, whose
        # length it cannot know, the result is resized, and the resized tuples that CPython keeps in its
        # free lists grew the peak RSS of 300 loads of this basis by 1024-1152 KiB; built from a list, by 0.
        # The basis is built here: memory that building it frees in the child would hide the growth.
        pytest.importorskip("resource")
        basis_path = tmp_path / "basis.json"
        assert main(["construct", "--da", "12", "--db", "12", "--r", "6", "--out", str(basis_path)]) == 0
        out = subprocess.run(
            [sys.executable, "-c", _LAUNCHER, _LOAD_RSS_PROBE, str(basis_path)],
            capture_output=True, text=True, env=_child_env(), check=True,
        )
        grown = int(out.stdout) // (1024 if sys.platform == "darwin" else 1)  # ru_maxrss is in bytes on macOS, KiB on Linux
        assert grown < 512, f"peak RSS grew by {grown} KiB over 300 loads"


class TestNumericScale:
    """Bases at the ends of the double range, and rational ones beyond it, load and verify."""

    @pytest.mark.parametrize(
        "scale", [1e308, 1e-200, pytest.param("1" + "0" * 400, id="10^400"), pytest.param("1/1" + "0" * 400, id="1/10^400")]
    )
    def test_loads_and_verifies(self, capsys, tmp_path, scale):
        basis_path = tmp_path / "basis.json"
        if isinstance(scale, str):
            # Doubles of these rationals overflow or round to 0.
            doc = _user_basis("rational", [scale, scale, 0, scale])
        else:
            doc = _user_basis("complex", [[scale, 0], [scale, 0], [0, 0], [scale, 0]])
        basis_path.write_text(json.dumps(doc))
        code, out, err = run_cli(
            capsys, "verify", "--basis", str(basis_path), "--mode", "sigma", "--r", "2",
            "--restarts", "2", "--iters", "20", "--out", str(tmp_path / "rep.json"),
        )
        assert (code, err) == (0, "")
        assert "verdict=consistent" in out


class TestBeyondStrDigitLimit:
    """Integers past the 4300 digits that Python's str() takes by default are written exactly, or named by size."""

    @pytest.fixture(autouse=True)
    def _default_limit(self):
        """Each test starts at Python's default limit, whatever ran before it."""
        if not hasattr(sys, "set_int_max_str_digits"):
            yield
            return
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        yield
        sys.set_int_max_str_digits(before)

    def _verify(self, capsys, tmp_path, doc, *flags):
        basis_path, rep_path = tmp_path / "basis.json", tmp_path / "rep.json"
        with _exact_ints():
            basis_path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", "--basis", str(basis_path), *flags, "--out", str(rep_path))
        # The limit is lifted only while the artifact is written.
        assert getattr(sys, "get_int_max_str_digits", lambda: 4300)() == 4300
        return code, out, err, rep_path

    def test_gfp_cap_names_the_count_by_its_digits(self, capsys, tmp_path):
        # 529 matrices mod 2**31 - 1: (p**529 - 1)/(p - 1) points, a number of 4928 digits.
        basis_path = tmp_path / "basis.json"
        run_cli(capsys, "construct", "--da", "24", "--db", "24", "--r", "2", "--out", str(basis_path))
        code, out, err = run_cli(
            capsys, "verify", "--basis", str(basis_path), "--mode", "gfp", "--p", "2147483647",
            "--out", str(tmp_path / "rep.json"),
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: enumeration needs a 4928-digit number of projective points")
        assert err.count("\n") == 1

    def test_structural_minor_written_exactly(self, capsys, tmp_path):
        big = 10**2199
        matrix = {**_DIAGONAL["matrices"][0], "entries": [big, 0, 0, 0, big, 0, 0, 0, big]}
        code, _, err, rep_path = self._verify(
            capsys, tmp_path, {**_DIAGONAL, "matrices": [matrix]}, "--mode", "structural", "--samples", "2"
        )
        assert (code, err) == (0, "")
        with _exact_ints():
            for w in json.loads(rep_path.read_text())["witnesses"]:
                # An order-2 minor of 4400 digits or more.
                assert Fraction(w["minor_value"]) == (Fraction(w["coeffs"][0]) * big) ** 2

    def test_sample_witness_written_exactly(self, capsys, tmp_path):
        big = 10**4300 - 1  # as wide as a basis file's integer literals may be
        matrix = {"rows": 3, "cols": 3, "field": "rational", "entries": [big, 0, 0, 0, big, 0, 0, 0, 0]}
        doc = {"da": 3, "db": 3, "kind": "user", "matrices": [matrix]}
        code, _, err, rep_path = self._verify(capsys, tmp_path, doc, "--mode", "sample", "--r", "3", "--samples", "2")
        assert (code, err) == (3, "")
        with _exact_ints():
            for w in json.loads(rep_path.read_text())["witnesses"]:
                c = w["coeffs"][0]
                assert [Fraction(v) for v in w["matrix"]["entries"]] == [c * big, 0, 0, 0, c * big, 0, 0, 0, 0]

    @pytest.mark.parametrize("text", ["1" * 5000, "1/" + "1" * 5000], ids=["integer", "denominator"])
    def test_entry_text_past_the_limit_named(self, capsys, tmp_path, text):
        # The refusal used to echo all 5000 digits and call the entry malformed.
        code, out, err, rep_path = self._verify(capsys, tmp_path, _user_basis("rational", [text, 0, 0, 1]), "--mode", "sample")
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and len(err) < 200 and "4300" in err
        assert not rep_path.exists()

    def test_bounds_of_huge_dimensions(self, capsys):
        d = 10**4000
        with _exact_ints():
            flag = str(d)
        code, out, err = run_cli(capsys, "bounds", "--da", flag, "--db", flag, "--r", "2", "--format", "json")
        assert (code, err) == (0, "")
        with _exact_ints():
            assert json.loads(out)["rows"][0]["max_dim_geq"] == (d - 1) ** 2


class TestBoundsCommand:
    def test_single_row(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--da", "3", "--db", "4", "--r", "2")
        assert code == 0
        row = out.splitlines()[1].split()
        assert row == ["3", "4", "2", "6", "8", "[3,4]", "3", "6"]

    def test_grid(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--da", "3", "--db", "3", "--grid")
        assert code == 0
        rows = [line.split() for line in out.splitlines()[1:]]
        assert [r[2] for r in rows] == ["2", "3"]
        assert [r[3] for r in rows] == ["4", "1"]

    @pytest.mark.parametrize("dims", [("-2", "3"), ("3", "0")], ids=["negative_da", "zero_db"])
    def test_grid_needs_positive_dimensions(self, capsys, dims):
        code, out, err = run_cli(capsys, "bounds", "--da", dims[0], "--db", dims[1], "--grid")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("dims", [("1", "5"), ("5", "1")], ids=["1x5", "5x1"])
    def test_empty_grid_exits_2(self, capsys, dims, fmt):
        # The grid covers r = 2..min(dA, dB); with a side of 1 only r = 1 has a row.
        code, out, err = run_cli(capsys, "bounds", "--da", dims[0], "--db", dims[1], "--grid", "--format", fmt)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and "--r 1" in err
        assert run_cli(capsys, "bounds", "--da", dims[0], "--db", dims[1], "--r", "1", "--format", fmt)[0] == 0

    def test_transposed_dims_match(self, capsys):
        _, a, _ = run_cli(capsys, "bounds", "--da", "5", "--db", "3", "--r", "2")
        _, b, _ = run_cli(capsys, "bounds", "--da", "3", "--db", "5", "--r", "2")
        assert a == b

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--da", "3", "--db", "4", "--r", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"][0]["max_dim_geq"] == 6

    def test_needs_r_or_grid(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--da", "3", "--db", "4")
        assert code == 2

    def test_out_flag_writes_artifact(self, capsys, tmp_path):
        out_path = tmp_path / "table.json"
        code, out, _ = run_cli(
            capsys, "bounds", "--da", "3", "--db", "4", "--grid", "--format", "json", "--out", str(out_path)
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert len(payload["rows"]) == 2
        assert payload["run"]["grid"] is True


    def test_text_format_writes_json_artifact(self, capsys, tmp_path):
        # --format picks only what stdout shows: the table, then the path.  The artifact is JSON as ever.
        out_path = tmp_path / "table.txt"
        code, out, err = run_cli(capsys, "bounds", "--da", "3", "--db", "4", "--grid", "--format", "text", "--out", str(out_path))
        assert (code, err) == (0, "")
        table = run_cli(capsys, "bounds", "--da", "3", "--db", "4", "--grid")[1]
        assert out == f"{table}artifact: {out_path}\n"
        payload = json.loads(out_path.read_text())
        assert payload["run"] == {"da": 3, "db": 4, "grid": True, "r": None}
        assert payload == json.loads(run_cli(capsys, "bounds", "--da", "3", "--db", "4", "--grid", "--format", "json")[1])


class TestReportCommand:
    def test_mixed(self, capsys):
        code, out, _ = run_cli(capsys, "report", "--kind", "mixed", "--d", "10", "--p", "0.5")
        assert code == 0
        assert "dim=36" in out and "r=5" in out

    def test_random(self, capsys):
        code, out, _ = run_cli(capsys, "report", "--kind", "random", "--da", "100", "--db", "100", "--k", "0.5")
        assert code == 0
        assert "exact_dim=2601" in out and "asymptotic=2500.0" in out

    @pytest.mark.parametrize(
        "flags",
        [["--kind", "mixed", "--d", str(2**53), "--p", "0.5"], ["--kind", "random", "--da", str(2**53), "--db", str(2**53), "--k", "0.5"]],
        ids=["mixed", "random"],
    )
    def test_runs_at_2_53(self, capsys, flags):
        # The largest dimension a double holds exactly, with every integer below it.
        code, out, err = run_cli(capsys, "report", *flags, "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["r"] == 2**52

    def test_mixed_out_of_domain(self, capsys):
        code, _, err = run_cli(capsys, "report", "--kind", "mixed", "--d", "10", "--p", "0.9")
        assert code == 2

    def test_json_artifact(self, capsys, tmp_path):
        out_path = tmp_path / "rep.json"
        code, _, _ = run_cli(
            capsys, "report", "--kind", "mixed", "--d", "10", "--p", "0.5", "--out", str(out_path)
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["dim"] == 36
        assert payload["run"]["kind"] == "mixed"


#: One run of every construct kind and verify mode, then a bounds and a report artifact; later runs read earlier bases.
ARTIFACT_RUNS = [
    ["construct", "--da", "3", "--db", "3", "--r", "2", "--out", "geq.json"],
    ["construct", "--kind", "flanders", "--da", "3", "--db", "4", "--r", "2", "--out", "flanders.json"],
    ["construct", "--kind", "fixed", "--da", "2", "--db", "4", "--out", "fixed.json"],
    ["construct", "--kind", "antisym", "--da", "3", "--db", "3", "--out", "antisym.json"],
    ["construct", "--kind", "random", "--da", "2", "--db", "3", "--dim", "2", "--seed", "4", "--out", "random.json"],
    ["verify", "--basis", "flanders.json", "--mode", "sample", "--samples", "5", "--require", "eq", "--out", "sample.json"],
    ["verify", "--basis", "geq.json", "--mode", "gfp", "--p", "3", "--out", "gfp.json"],
    ["verify", "--basis", "random.json", "--mode", "sigma", "--r", "2", "--restarts", "2", "--iters", "20", "--out", "sigma.json"],
    ["verify", "--basis", "geq.json", "--mode", "structural", "--samples", "3", "--seed", "2", "--out", "structural.json"],
    ["bounds", "--da", "3", "--db", "4", "--grid", "--format", "json", "--out", "bounds.json"],
    ["report", "--kind", "mixed", "--d", "6", "--p", "0.5", "--out", "mixed.json"],
    ["report", "--kind", "random", "--da", "4", "--db", "5", "--k", "0.5", "--format", "json", "--out", "compare.json"],
]


def test_every_artifact_carries_its_flag_set_as_top_level_run(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv in ARTIFACT_RUNS:
        assert main(argv) in (0, 3, 4), argv
        # --out names the artifact itself, and an artifact is JSON whatever --format says.
        unrecorded = {"command", "func", "out", "format"}
        flags = {k: v for k, v in vars(build_parser().parse_args(argv)).items() if k not in unrecorded}
        doc = json.loads((tmp_path / argv[-1]).read_text())
        assert doc["run"] == flags, argv
        if argv[0] == "construct":
            assert "metadata" not in doc
        if argv[0] == "verify":
            assert "run" not in doc["params"]


def _compact(text: str) -> str:
    return json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"


def test_every_artifact_is_one_line_of_compact_json(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv in ARTIFACT_RUNS:
        main(argv)
        text = (tmp_path / argv[-1]).read_text()
        assert text == _compact(text), argv
    for argv in (["bounds", "--da", "3", "--db", "4", "--grid", "--format", "json"],
                 ["report", "--kind", "random", "--da", "4", "--db", "5", "--k", "0.5", "--format", "json"]):
        capsys.readouterr()
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert text == _compact(text), argv


@pytest.mark.parametrize("mode", ["sample", "structural"])
def test_indented_basis_still_loads(capsys, tmp_path, monkeypatch, mode):
    # Earlier versions wrote artifacts with indent=2 and every rational entry as "n/d" text. A basis
    # in that form loads to the same basis and gives the same report, whose run repeats its path.
    monkeypatch.chdir(tmp_path)
    assert main(["construct", "--da", "4", "--db", "5", "--r", "3", "--out", "new.json"]) == 0
    doc = json.loads((tmp_path / "new.json").read_text())
    for matrix in doc["matrices"]:
        assert {type(v) for v in matrix["entries"]} == {int}
        matrix["entries"] = [f"{v}/1" for v in matrix["entries"]]
    (tmp_path / "old.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    assert _load_basis("old.json") == _load_basis("new.json")
    reports = []
    for name in ("new", "old"):
        assert main(["verify", "--basis", f"{name}.json", "--mode", mode, "--samples", "5", "--out", f"{name}_rep.json"]) == 0
        reports.append((tmp_path / f"{name}_rep.json").read_text())
    assert reports[1] == reports[0].replace('"basis":"new.json"', '"basis":"old.json"') != reports[0]


class TestReproducibility:
    def test_construct_byte_identical(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(capsys, "construct", "--da", "4", "--db", "5", "--r", "3", "--out", str(p1))
        run_cli(capsys, "construct", "--da", "4", "--db", "5", "--r", "3", "--out", str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_verify_byte_identical(self, capsys, tmp_path):
        basis_path = tmp_path / "basis.json"
        run_cli(capsys, "construct", "--da", "3", "--db", "3", "--r", "2", "--out", str(basis_path))
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for p in (p1, p2):
            run_cli(
                capsys, "verify", "--basis", str(basis_path), "--mode", "sample",
                "--samples", "200", "--seed", "13", "--out", str(p),
            )
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize(
        "construct, flags, code",
        [
            # Rational, dim 4 at the bound 4 for r=2: every restart runs, in two groups of 8 lanes.
            (["--da", "3", "--db", "3", "--r", "2"], ["--r", "2", "--seed", "27"], 0),
            # Rational, dim 4 above the bound 1 for r=3: restart 6 refutes, mid-way through the first group.
            (["--da", "3", "--db", "3", "--r", "2"], ["--r", "3", "--seed", "27"], 3),
            # Complex: one restart at a time.
            (["--kind", "random", "--da", "3", "--db", "3", "--dim", "5", "--seed", "1"], ["--r", "2"], 3),
        ],
        ids=["rational-at-bound", "rational-above-bound", "complex"],
    )
    def test_sigma_byte_identical(self, capsys, tmp_path, construct, flags, code):
        basis_path = tmp_path / "basis.json"
        run_cli(capsys, "construct", *construct, "--out", str(basis_path))
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for p in (p1, p2):
            got, _, _ = run_cli(
                capsys, "verify", "--basis", str(basis_path), "--mode", "sigma", *flags,
                "--restarts", "16", "--iters", "200", "--out", str(p),
            )
            assert got == code
        assert p1.read_bytes() == p2.read_bytes()

    def test_module_entry_point(self, tmp_path):
        cmd = [sys.executable, "-m", "entspan", "bounds", "--da", "3", "--db", "3", "--grid"]
        a = subprocess.run(cmd, capture_output=True, text=True, check=True, env=_child_env())
        b = subprocess.run(cmd, capture_output=True, text=True, check=True, env=_child_env())
        assert a.stdout == b.stdout
        assert "4" in a.stdout
