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
    "construct_geq": (0, 'e8906ad25577c6f7a80809b8068ecde0cff642cc17ebe256a04b5966c95f71f3'),
    "construct_flanders": (0, '1cea7759f2bb7c2f2cb817ec9c2bb151afa6ec779023023bc8fc4b453186e935'),
    "construct_fixed": (0, '9978f1cedda5a3394b15388cd8373b138f56fb4cd94d784ab0d2bbe45d5fabb6'),
    "construct_antisym": (0, 'db2e34a64c0594149d6322eab74926530f03ac8c0d488021ebbd8197d3e5d878'),
    "construct_geq_small": (0, '1758319784c0b51c4c6cd7379689da215dedde3d1b8082df43f25154fee20bd6'),
    "construct_geq_8x8": (0, '6bb05fa4de3d1897038cd0fa7802c6b8e3318d71eec12fedd9c19c51337cebac'),
    "construct_geq_16x16": (0, '5041c41c75d7b9e74811934894645ded6fefdd7acb106c09f16a7618b92766ff'),
    "verify_sample": (0, '0871ea88cf8b4ae8a7b587022b40bc9e2f1a130e4cce2cd388caf1cbefe998c2'),
    "verify_sample_refuted": (3, 'ea5e01c1838903eff94c2c37ca3a93dd436635e0bd3f8e42b95118eef4f10b11'),
    "verify_sample_fractional": (3, '4a6a29f50ce8040bd2c9d2eb07db1fe226069e3c6126b011d4c5f47af77d532b'),
    "verify_structural": (0, 'bf5c843a8748a2e73be072bf1a3a1f4d5920df00d294852248e9eb3ca14ced84'),
    "verify_gfp": (0, '286a9d4be816fafa3b902f71d6449617b6dd1741d4dada4bde3221ea8ec3645c'),
    "verify_gfp_inconclusive": (4, '83d8e2502b72372f959dd62d926599592b462b47279993dee7fb38d12b338f73'),
    "bounds_grid": (0, 'b9c9e83351256096344e1c2e01eb6f26a595b2ff9b12c08e9dcaa8ef469b056f'),
    "report_mixed": (0, '35df22fbec65d4fcf9cf82cfdcb862ae75a7dfcb009dcae367df459184cbbb54'),
    "report_random": (0, '9b755df08796b73d2a015bbb23c72cc83be8e9f62f8e9e3d4d5b4662b6fc4141'),
}


def run_cases(directory, monkeypatch):
    """Run every case in ``directory``; return {name: (exit code, sha256)}."""
    monkeypatch.chdir(directory)
    (directory / "frac.json").write_text(json.dumps(FRACTIONAL_BASIS))
    out = {}
    for name, argv in CASES:
        code = main(argv)
        digest = hashlib.sha256((directory / argv[argv.index("--out") + 1]).read_bytes()).hexdigest()
        out[name] = (code, digest)
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
    assert artifacts[name] == GOLDEN[name]


@pytest.mark.parametrize("tamper", ["removed", "shuffled"])
def test_structural_bytes_ignore_diagonal_labels(tmp_path, monkeypatch, capsys, tamper):
    # Certificates read each diagonal from the combination, so the
    # metadata.per_matrix labels cannot change the structural artifact.
    monkeypatch.chdir(tmp_path)
    cases = dict(CASES)
    assert main(cases["construct_geq"]) == 0
    doc = json.loads((tmp_path / "geq.json").read_text())
    labels = doc["metadata"].pop("per_matrix")
    if tamper == "shuffled":
        doc["metadata"]["per_matrix"] = labels[::-1]
        assert doc["metadata"]["per_matrix"] != labels
    (tmp_path / "geq.json").write_text(json.dumps(doc))
    argv = cases["verify_structural"]
    code = main(argv)
    digest = hashlib.sha256((tmp_path / argv[argv.index("--out") + 1]).read_bytes()).hexdigest()
    assert (code, digest) == GOLDEN["verify_structural"]
