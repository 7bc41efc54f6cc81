"""Golden artifacts: the exact bytes of every exact-mode CLI artifact.

Each case runs the CLI in a scratch directory with relative paths (the
verify artifacts repeat the ``--basis`` path), hashes the artifact and
compares the exit code and sha256 with pinned values.  Any change to
encoding, sampling order or arithmetic shows up here.  Sigma mode and
``--kind random`` are left out: their floats depend on LAPACK and numpy.
"""

import hashlib
import json

import pytest

from entspan.cli import main

#: A user basis with fractional entries, written before the cases run, so
#: that a witness in a refuted report carries fractional cells.
FRACTIONAL_BASIS = {
    "da": 2,
    "db": 3,
    "r": 2,
    "kind": "user",
    "matrices": [
        {"rows": 2, "cols": 3, "field": "rational", "entries": ["1/2", 0, "-3/4", 0, 0, 0]},
        {"rows": 2, "cols": 3, "field": "rational", "entries": [0, "2/3", 0, "-5/6", 0, 1]},
        {"rows": 2, "cols": 3, "field": "rational", "entries": [1, 0, 0, 0, "7/8", "-1/3"]},
    ],
}

#: (name, argv) in run order; later cases read the bases earlier ones wrote.
CASES = [
    ("construct_geq", ["construct", "--da", "4", "--db", "5", "--r", "3", "--out", "geq.json"]),
    ("construct_flanders", ["construct", "--kind", "flanders", "--da", "3", "--db", "4", "--r", "2", "--out", "flanders.json"]),
    ("construct_fixed", ["construct", "--kind", "fixed", "--da", "3", "--db", "5", "--out", "fixed.json"]),
    ("construct_antisym", ["construct", "--kind", "antisym", "--da", "3", "--db", "3", "--out", "antisym.json"]),
    ("construct_geq_small", ["construct", "--da", "3", "--db", "3", "--r", "2", "--out", "small.json"]),
    # The largest basis the suite pins: 25 matrices on the nodes 1..8.
    ("construct_geq_8x8", ["construct", "--da", "8", "--db", "8", "--r", "4", "--out", "geq8.json"]),
    # Entries up to 16**8 = 2**32, past the 8x8 case's 8**4.
    ("construct_geq_16x16", ["construct", "--da", "16", "--db", "16", "--r", "8", "--out", "geq16.json"]),
    ("verify_sample", ["verify", "--basis", "geq.json", "--mode", "sample", "--samples", "40", "--seed", "4", "--out", "sample.json"]),
    ("verify_sample_refuted", ["verify", "--basis", "flanders.json", "--mode", "sample", "--r", "3", "--samples", "6", "--seed", "1", "--out", "refuted.json"]),
    ("verify_sample_fractional", ["verify", "--basis", "frac.json", "--mode", "sample", "--r", "1", "--require", "leq", "--samples", "6", "--seed", "3", "--out", "frac_refuted.json"]),
    ("verify_structural", ["verify", "--basis", "geq.json", "--mode", "structural", "--samples", "20", "--seed", "5", "--out", "structural.json"]),
    ("verify_gfp", ["verify", "--basis", "small.json", "--mode", "gfp", "--p", "3", "--out", "gfp.json"]),
    ("verify_gfp_inconclusive", ["verify", "--basis", "geq.json", "--mode", "gfp", "--p", "3", "--out", "gfp_drop.json"]),
    ("bounds_grid", ["bounds", "--da", "4", "--db", "6", "--grid", "--format", "json", "--out", "bounds.json"]),
    ("report_mixed", ["report", "--kind", "mixed", "--d", "10", "--p", "0.5", "--format", "json", "--out", "mixed.json"]),
    ("report_random", ["report", "--kind", "random", "--da", "100", "--db", "100", "--k", "0.5", "--out", "random.json"]),
]

GOLDEN = {
    "construct_geq": (0, '5cf4adadcb8c36b15b818fc5f71effaa92b6d9b606fe6c897569c9f5affbcb96'),
    "construct_flanders": (0, 'b304e550f7c7bc77451a1c6b2cc2e20735dc0752fd93131f2d480f8d6f2021bf'),
    "construct_fixed": (0, '7d4246ec22fd93abf6d839d6bdf293a4ddc60c082ba9a61703d0bef64d12b266'),
    "construct_antisym": (0, '49d2a4a23f9c0b2d577a0c919c89b9bb3387eeccf76b52eded315ad86a66f58f'),
    "construct_geq_small": (0, '4e3056529ddfb230aa777346e6c3ae4b13769622bbbcfebe9cd87a1cdc73501f'),
    "construct_geq_8x8": (0, '39141cd36e6c54027d0fc1bcffdff6193ae14b5ad95124a03a9d35de86b14198'),
    "construct_geq_16x16": (0, 'fcfcd04f1d32e55a5cfa6ca3da315a442f4acde82362f3235b74e171ef7d5163'),
    "verify_sample": (0, '545878255a118dc827944b5131737b7074b60cbb550140be1798b5b3cd88ee7a'),
    "verify_sample_refuted": (3, '68939abf1d85bca65ecdf2b7b1c96c94a43e04dfc62753a76438a8c54e104d49'),
    "verify_sample_fractional": (3, 'd7427b287d6c45801ef8694fb50a039159dcf3c606f53a57388c072a183cf04c'),
    "verify_structural": (0, '544cba2b6a9bbaf2dff8d1c7bf484e3f48dc339b30f38d02f2d247da7dc5bd71'),
    "verify_gfp": (0, '2250748496d22c909dac62470373ef31e21edf56a2424202b98949adbfe61a01'),
    "verify_gfp_inconclusive": (4, 'e48857e1b74c4811fb5f35773aad7b3f21e84be643a600a1ded0b23b66e1297e'),
    "bounds_grid": (0, 'fe3ffdcef82e1d9532ed96349d100d2575c6494e1fb2964789b8454f74926d9b'),
    "report_mixed": (0, 'afb1cb51474a25effac77040d65db2105d9e2fd13ea6228c76702478431f39f7'),
    "report_random": (0, '694c19658772c561bf45b04eae4dd2d4c1214cc5dc54719f4d5d2030fe106ced'),
}


def run_cases(directory, monkeypatch):
    """Run every case in ``directory``; return {name: (exit code, sha256, artifact text)}."""
    monkeypatch.chdir(directory)
    (directory / "frac.json").write_text(json.dumps(FRACTIONAL_BASIS))
    out = {}
    for name, argv in CASES:
        code = main(argv)
        data = (directory / argv[argv.index("--out") + 1]).read_bytes()
        out[name] = (code, hashlib.sha256(data).hexdigest(), data.decode())
    return out


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    monkeypatch = pytest.MonkeyPatch()
    try:
        yield run_cases(tmp_path_factory.mktemp("golden"), monkeypatch)
    finally:
        monkeypatch.undo()


@pytest.mark.parametrize("name", [name for name, _ in CASES])
def test_artifact_bytes_are_pinned(artifacts, name, capsys):
    capsys.readouterr()
    assert artifacts[name][:2] == GOLDEN[name]


@pytest.mark.parametrize("name", [name for name, _ in CASES])
def test_artifact_is_one_line_of_compact_json(artifacts, name):
    text = artifacts[name][2]
    assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("tamper", ["removed", "shuffled"])
def test_structural_bytes_ignore_diagonal_labels(tmp_path, monkeypatch, capsys, tamper):
    # Certificates read each diagonal from the combination and a loaded basis
    # ignores a metadata key, so the per-matrix diagonal labels that the builder
    # no longer writes ("removed"), put back in order or reversed ("shuffled"),
    # cannot change the structural artifact.
    monkeypatch.chdir(tmp_path)
    cases = dict(CASES)
    assert main(cases["construct_geq"]) == 0
    doc = json.loads((tmp_path / "geq.json").read_text())
    labels = [
        {"k": cell % doc["db"] - cell // doc["db"]}
        for m in doc["matrices"]
        for cell in [next(n for n, v in enumerate(m["entries"]) if v != "0/1")]
    ]
    doc["metadata"] = {"per_matrix": labels[::-1] if tamper == "shuffled" else labels}
    assert labels[::-1] != labels
    (tmp_path / "geq.json").write_text(json.dumps(doc))
    argv = cases["verify_structural"]
    code = main(argv)
    digest = hashlib.sha256((tmp_path / argv[argv.index("--out") + 1]).read_bytes()).hexdigest()
    assert (code, digest) == GOLDEN["verify_structural"]
