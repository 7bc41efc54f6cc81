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
    "construct_geq": (0, '296a0038eaa0810b90e29a80034c9a02fb641cdebac6b6a0cd8ea0433e19c58e'),
    "construct_flanders": (0, 'c422499d62c35358c58e2ef374e0a441852a2b3c682b56e62951d6c0d6a1d607'),
    "construct_fixed": (0, '2bd8e18ed2fb562a3fba645c80a30a6ef372ed02a3dcc128a92cd554accf300d'),
    "construct_antisym": (0, '3a60412b0b48b266bd833538043f3a6e5d51f2a1b3111c2c4a47b2720eec8d8b'),
    "construct_geq_small": (0, '2d1b88e696067c9df623398599b60b5807e2cf8a40bafefc554d942b3a7e1218'),
    "construct_geq_8x8": (0, '6bee7c96cd99decc573d3361e71b13ba9de39de941510851a54de5e75317d402'),
    "construct_geq_16x16": (0, '0ff94998ef8596bbfeaddfeba1819eb1f6c9dfc7622ca005b2e93e67025e30a2'),
    "verify_sample": (0, '545878255a118dc827944b5131737b7074b60cbb550140be1798b5b3cd88ee7a'),
    "verify_sample_refuted": (3, '63b9d68c96712ce629fbe44fbe77f422ff7a4cd51623dfa1c0336bb2edadda4e'),
    "verify_sample_fractional": (3, 'e39c1c1f31a7995cdb2e50b974008ac8a9b4e0070f2c88fee4511a30c222e53c'),
    "verify_structural": (0, 'adc049075b8b477c101c017dabb91e85eda7a5f76ec2c8fc8fc2861a8ca7e3bf'),
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
        for cell in [next(n for n, v in enumerate(m["entries"]) if v)]
    ]
    doc["metadata"] = {"per_matrix": labels[::-1] if tamper == "shuffled" else labels}
    assert labels[::-1] != labels
    (tmp_path / "geq.json").write_text(json.dumps(doc))
    argv = cases["verify_structural"]
    code = main(argv)
    digest = hashlib.sha256((tmp_path / argv[argv.index("--out") + 1]).read_bytes()).hexdigest()
    assert (code, digest) == GOLDEN["verify_structural"]
