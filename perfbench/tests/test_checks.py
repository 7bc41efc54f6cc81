"""The benchmark's output checks accept real artifacts and reject tampered ones.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import entspan.cli as cli  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_op(tmp: Path, name: str, seed: int = 3):
    """Build a workload's first basis and run one op; (basis doc, artifacts)."""
    workload = WORKLOADS[name]
    basis = str(tmp / f"{name}-basis.json")
    assert cli.main([*workload.bases(seed)[0], "--out", basis]) == 0
    reports = []
    for k, call in enumerate(workload.op(basis, seed)):
        out = tmp / f"{name}-out{k}.json"
        assert cli.main([*call.argv, "--out", str(out)]) == call.exit_code
        reports.append(json.loads(out.read_text()))
    return json.loads(Path(basis).read_text()), reports


@pytest.fixture(scope="module")
def exact(tmp_path_factory):
    return run_op(tmp_path_factory.mktemp("exact"), "exact-geq12")


@pytest.fixture(scope="module")
def gfp(tmp_path_factory):
    return run_op(tmp_path_factory.mktemp("gfp"), "gfp-scan")


@pytest.fixture(scope="module")
def refute(tmp_path_factory):
    return run_op(tmp_path_factory.mktemp("refute"), "sigma-refute")


def check(name, basis, reports):
    return WORKLOADS[name].check(basis, reports)


def test_real_artifacts_pass(exact, gfp, refute):
    assert check("exact-geq12", *exact) is None
    assert check("gfp-scan", *gfp) is None
    assert check("sigma-refute", *refute) is None


@pytest.mark.parametrize("which", [0, 1])
def test_exact_wrong_verdict_fails(exact, which):
    basis, reports = copy.deepcopy(exact)
    reports[which]["verdict"] = "refuted"
    assert "verdict" in check("exact-geq12", basis, reports)


def test_exact_wrong_minor_fails(exact):
    basis, reports = copy.deepcopy(exact)
    w = reports[0]["witnesses"][2]
    value = int(w["minor_value"].split("/")[0])
    w["minor_value"] = f"{value + 1}/1"
    assert "minor" in check("exact-geq12", basis, reports)


def test_exact_off_diagonal_positions_fail(exact):
    basis, reports = copy.deepcopy(exact)
    w = reports[0]["witnesses"][0]
    w["kappa"] -= 1
    assert check("exact-geq12", basis, reports) is not None


def test_exact_low_sampled_rank_fails(exact):
    basis, reports = copy.deepcopy(exact)
    reports[1]["min_rank_observed"] = 5
    assert "below" in check("exact-geq12", basis, reports)


def test_gfp_wrong_rank_fails(gfp):
    basis, reports = copy.deepcopy(gfp)
    reports[0]["min_rank_observed"] += 1
    assert "rank mod 5" in check("gfp-scan", basis, reports)


def test_gfp_zero_argmin_fails(gfp):
    basis, reports = copy.deepcopy(gfp)
    reports[0]["params"]["argmin_coeffs"] = [0] * 6
    assert "projective" in check("gfp-scan", basis, reports)


def test_refute_wrong_verdict_fails(refute):
    basis, reports = copy.deepcopy(refute)
    reports[0]["verdict"] = "consistent"
    assert "verdict" in check("sigma-refute", basis, reports)


def test_refute_witness_outside_span_fails(refute):
    basis, reports = copy.deepcopy(refute)
    entries = reports[0]["witnesses"][0]["matrix"]["entries"]
    entries[0] = [entries[0][0] + 1e-3, entries[0][1]]
    assert "basis x coeffs" in check("sigma-refute", basis, reports)


def test_refute_full_rank_witness_fails(refute):
    basis, reports = copy.deepcopy(refute)
    w = reports[0]["witnesses"][0]
    # a genuine combination of the basis, but one of full rank
    coeffs = np.ones(len(basis["matrices"]), dtype=np.complex128)
    w["coeffs"] = [[c.real, c.imag] for c in coeffs]
    stack = np.array([[complex(*e) for e in m["entries"]] for m in basis["matrices"]])
    combo = coeffs @ (stack / np.linalg.norm(stack, axis=1)[:, None])
    w["matrix"]["entries"] = [[z.real, z.imag] for z in combo]
    assert "sigma_3" in check("sigma-refute", basis, reports)


def test_sigma_full_needs_consistent_verdict_and_every_restart():
    full = WORKLOADS["sigma-full"]
    good = {"verdict": "consistent", "samples_or_points": 8}
    assert full.check({}, [good]) is None
    assert full.check({}, [dict(good, verdict="inconclusive")]) is not None
    assert full.check({}, [dict(good, samples_or_points=3)]) is not None


def test_missing_trace_target_drops_its_metrics(monkeypatch):
    targets = tracing.TARGETS + (("statemat.rank_exact", "entspan.verify", "no_such_function", None),)
    monkeypatch.setattr(tracing, "TARGETS", targets)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["entspan.verify.no_such_function"]
    metrics = tracing.layer_metrics(tracer, ops=1, overhead_ratio=1.0, scale={})
    assert "statemat.rank_exact.self_s" not in metrics
    assert "statemat.combine.self_s" in metrics
