"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the line per
criterion; each test also enforces its own wall-clock budget.
"""

import time
from contextlib import contextmanager

import numpy as np

from entspan.bounds import max_dim_geq, random_comparison, variety_dim, westwick_range
from entspan.cli import main as cli_main
from entspan.construct import (
    antisymmetric_basis_3x3,
    basis_stack_rank,
    coeff_stream,
    construct_fixed_rank_subspace,
    construct_max_rank_leq_subspace,
    construct_min_rank_subspace,
    diagonals,
    draw_coeffs,
    random_subspace,
)
from entspan.statemat import rank_exact
from entspan.verify import (
    VERDICT_CONSISTENT,
    gfp_exhaustive_min_rank,
    minimize_sigma_r,
    pencil_low_rank,
    sample_verify_exact,
    structural_certificate,
)

GRID = [(dA, dB, r) for dA in range(2, 9) for dB in range(dA, 9) for r in range(2, dA + 1)]


@contextmanager
def criterion(num, description, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} FAIL  {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {num:2d} PASS  {description} ({elapsed:.2f}s < {budget_s:.0f}s)")
    assert elapsed < budget_s, f"criterion {num} blew its {budget_s}s budget: {elapsed:.2f}s"


def test_criterion_01_dimension_formula():
    with criterion(1, "constructed dimension equals (dA-r+1)(dB-r+1) on the grid", 5):
        for dA, dB, r in GRID:
            basis = construct_min_rank_subspace(dA, dB, r)
            expected = (dA - r + 1) * (dB - r + 1)
            assert basis.dimension == expected
            counting = sum(max(0, d.length - r + 1) for d in diagonals(dA, dB))
            assert counting == expected


def test_criterion_02_linear_independence():
    with criterion(2, "every constructed basis has full exact stack rank", 30):
        for dA, dB, r in GRID:
            basis = construct_min_rank_subspace(dA, dB, r)
            assert basis_stack_rank(basis) == basis.dimension


def test_criterion_03_rank_floor_with_certificates():
    with criterion(3, "1000 seeded samples per case: exact rank >= r and structural certificate", 60):
        for case_index, (dA, dB, r) in enumerate([(3, 3, 2), (4, 5, 3), (5, 5, 4), (6, 7, 2)]):
            basis = construct_min_rank_subspace(dA, dB, r)
            rng = coeff_stream(1000 + case_index)
            for _ in range(1000):
                coeffs = draw_coeffs(rng, basis.dimension)
                assert rank_exact(basis.combination(coeffs)) >= r
                cert = structural_certificate(basis, coeffs)
                assert cert.minor_value != 0
                assert len(cert.positions) == r


def test_criterion_04_finite_field_oracle():
    with criterion(4, "exhaustive GF(p) minimum rank meets the threshold", 5):
        rep = gfp_exhaustive_min_rank(construct_min_rank_subspace(3, 3, 2), 3)
        assert rep.samples_or_points == 40
        assert rep.min_rank_observed >= 2
        rep = gfp_exhaustive_min_rank(construct_min_rank_subspace(2, 4, 2), 5)
        assert rep.min_rank_observed >= 2


def test_criterion_05_upper_bound_falsification():
    with criterion(5, "sigma_2 descent finds a near-rank-1 state in >= 19/20 overfull subspaces", 120):
        target_dim = max_dim_geq(3, 3, 2) + 1
        assert target_dim == 5
        hits = 0
        for seed in range(20):
            basis = random_subspace(3, 3, target_dim, seed=seed)
            _, value, _ = minimize_sigma_r(basis, 2, restarts=64, iters=500, seed=seed)
            if value < 1e-6:
                hits += 1
        assert hits >= 19, f"optimizer found the guaranteed low-rank state in only {hits}/20 cases"


def test_criterion_06_pencil_roots():
    with criterion(6, "pencil solver returns a finite root with residual < 1e-8 for 100 pairs", 30):
        rng = np.random.default_rng(600)
        for trial in range(100):
            d = 2 + trial % 9
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            result = pencil_low_rank(a, b)
            assert result.finite, f"no finite root for trial {trial}, d={d}"
            assert min(result.residuals) < 1e-8


def test_criterion_07_flanders_construction():
    with criterion(7, "rank-<=-2 construction in 3x4 has dimension 8 and holds on 1000 samples", 10):
        basis = construct_max_rank_leq_subspace(3, 4, 2)
        assert basis.dimension == 8
        report = sample_verify_exact(basis, 2, 1000, seed=77, require="leq")
        assert report.verdict == VERDICT_CONSISTENT
        assert report.max_rank_observed <= 2


def test_criterion_08_fixed_rank_families():
    with criterion(8, "antisymmetric and r=dA families have constant rank on exact samples", 10):
        anti = antisymmetric_basis_3x3()
        report = sample_verify_exact(anti, 2, 500, seed=88, require="eq")
        assert report.verdict == VERDICT_CONSISTENT
        assert westwick_range(3, 3, 2)[2] == 3
        fixed = construct_fixed_rank_subspace(2, 4)
        assert fixed.dimension == 3
        report = sample_verify_exact(fixed, 2, 500, seed=89, require="eq")
        assert report.verdict == VERDICT_CONSISTENT


def test_criterion_09_bounds_arithmetic():
    with criterion(9, "closed-form bounds: fixed-rank bracket, complementarity, random comparison", 1):
        assert westwick_range(3, 4, 2) == (3, 4, 3, westwick_range(3, 4, 2)[3])
        lo, hi, exact, _ = westwick_range(3, 4, 2)
        assert (lo, hi, exact) == (3, 4, 3)
        for dA in range(1, 13):
            for dB in range(dA, 13):
                for r in range(1, dA + 1):
                    affine, _ = variety_dim(dA, dB, r)
                    assert affine + max_dim_geq(dA, dB, r) == dA * dB
        rep = random_comparison(100, 100, 0.5)
        assert rep.exact_dim == 2601
        assert rep.asymptotic == 2500.0


def test_criterion_10_cli_reproducibility(tmp_path, capsys):
    with criterion(10, "identical CLI flag sets produce byte-identical artifacts", 60):
        runs = [
            (
                ["construct", "--da", "3", "--db", "3", "--r", "2", "--out"],
                "basis",
            ),
            (
                ["construct", "--kind", "random", "--da", "3", "--db", "3", "--dim", "5", "--seed", "6", "--out"],
                "rand",
            ),
        ]
        for argv, name in runs:
            p1, p2 = tmp_path / f"{name}1.json", tmp_path / f"{name}2.json"
            assert cli_main(argv + [str(p1)]) == 0
            assert cli_main(argv + [str(p2)]) == 0
            assert p1.read_bytes() == p2.read_bytes()
        basis_path = tmp_path / "basis1.json"
        for mode_argv, name in [
            (["--mode", "sample", "--samples", "500", "--seed", "4"], "sample"),
            (["--mode", "gfp", "--p", "3"], "gfp"),
            (["--mode", "structural", "--samples", "50", "--seed", "5"], "structural"),
        ]:
            p1, p2 = tmp_path / f"{name}1.json", tmp_path / f"{name}2.json"
            base = ["verify", "--basis", str(basis_path)] + mode_argv + ["--out"]
            assert cli_main(base + [str(p1)]) == 0
            assert cli_main(base + [str(p2)]) == 0
            assert p1.read_bytes() == p2.read_bytes()
        sig_basis = tmp_path / "rand1.json"
        p1, p2 = tmp_path / "sig1.json", tmp_path / "sig2.json"
        base = ["verify", "--basis", str(sig_basis), "--mode", "sigma", "--r", "2", "--seed", "2", "--out"]
        assert cli_main(base + [str(p1)]) == 3
        assert cli_main(base + [str(p2)]) == 3
        assert p1.read_bytes() == p2.read_bytes()
        capsys.readouterr()


def test_criterion_11_large_construction_proves_itself():
    with criterion(11, "32x32 r=16 construction builds and proves its rank floor", 3):
        basis = construct_min_rank_subspace(32, 32, 16)
        assert basis.dimension == 17 * 17
