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
    "construct_geq": (0, '56a43107696524644837fa061bdb84774cd58c4beaed7637f4ca30a87423f856'),
    "construct_flanders": (0, '204d7c27b47d60b2547a54a44ba91d566888e5426d30413fa14fe918242ced7c'),
    "construct_fixed": (0, '3420185cc137412d023ca70e97cc055b471688cd6b73da52492c1a334e8fc552'),
    "construct_antisym": (0, '52303b8a87df4eb828562c33497f687a0c70b03f8d0152a3dbaae483c164204e'),
    "construct_geq_small": (0, '00ab397ba55d13a86a212dca8fc0f636357d6ad2613c1ea68550f4219a4e6720'),
    "construct_geq_8x8": (0, '9c592061ce1db3ba6988915ec03717bd92de1b49cc6523baec875574644be5f1'),
    "construct_geq_16x16": (0, '0ca7dbf6802ad77388c8db126f026c0d024e754c0103a0e1291d26b4cc5dd93e'),
    "verify_sample": (0, '0b5823132b47212e3d008ce96a0ebfee3ebef6a05588da861a50f2bd555b49e1'),
    "verify_sample_refuted": (3, '0fefc5b749ce58f137589ed3337d696aa127712a8aeea60cb765ad293924d53c'),
    "verify_sample_fractional": (3, '0520beaa715a331e65328116b7afd9b502e5b954bfa149af833ce2445a4aea25'),
    "verify_structural": (0, '0dff5222ef63815ff4ec07005bdeac4b0f93c194a8d252c2f8e054ab5b1226ff'),
    "verify_gfp": (0, '1a16e6bc62b383925e25d714395d839bc36bbae85fac9690b2421eac274af005'),
    "verify_gfp_inconclusive": (4, '6f386475000a0971c8a636aa509b5e4533f6312371f83a2b86da45127896e7d3'),
    "bounds_grid": (0, '8c6ae6e25cd291c6f5cc475ebb22b4ccba8874182f728331958417d0dc8ce7a1'),
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
