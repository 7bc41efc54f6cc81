import json
import math
from fractions import Fraction

import numpy as np
import pytest

from entspan import _kernels
from entspan.construct import (
    antisymmetric_basis_3x3,
    basis_from_json_dict,
    coeff_stream,
    construct_max_rank_leq_subspace,
    construct_min_rank_subspace,
    draw_normals,
    random_subspace,
)
from entspan.errors import DomainError, FieldMismatchError
from entspan.statemat import StateMatrix, rank_exact, schmidt_rank_numeric, to_json, unit_scaled
from entspan.verify import (
    CERT_STRUCTURAL,
    CERT_WITNESS_GT,
    CERT_WITNESS_LT,
    SIGMA_TOL,
    VERDICT_CONSISTENT,
    VERDICT_INCONCLUSIVE,
    VERDICT_REFUTED,
    PencilResult,
    _accepted_witness,
    _complex_stack,
    _exact_drop,
    gfp_exhaustive_min_rank,
    minimize_sigma_r,
    pencil_low_rank,
    sample_verify_exact,
    structural_certificate,
    structural_verify,
)
from oracles import diagonal_of, minor_rank, perm_det


def _single_matrix_basis(matrix, r=2):
    from entspan.construct import SubspaceBasis

    return SubspaceBasis(matrix.rows, matrix.cols, r, "user", (matrix,))


class TestStructuralCertificate:
    def test_unit_vector_on_length3_diagonal(self):
        basis = construct_min_rank_subspace(3, 3, 2)
        idx = next(
            n for n, m in enumerate(basis.matrices)
            if diagonal_of(m) == 0 and all(m.to_lists()[i][i] == 1 for i in range(3))
        )
        coeffs = [0] * basis.dimension
        coeffs[idx] = 1
        cert = structural_certificate(basis, coeffs)
        assert cert.kind == CERT_STRUCTURAL
        assert cert.kappa == 0
        assert len(cert.positions) == 2
        assert cert.minor_value != 0

    def test_full_rank_single_matrix_basis(self):
        basis = construct_min_rank_subspace(4, 4, 4)
        cert = structural_certificate(basis, [1])
        assert cert.positions == ((0, 0), (1, 1), (2, 2), (3, 3))
        assert cert.minor_value != 0

    def test_triple_check_on_random_coefficients(self):
        # Certificate, raw minor recomputation and exact rank must agree.
        basis = construct_min_rank_subspace(4, 5, 3)
        rng = np.random.default_rng(41)
        for _ in range(200):
            coeffs = [int(c) for c in rng.integers(-9, 10, size=basis.dimension)]
            if not any(coeffs):
                coeffs[0] = 1
            cert = structural_certificate(basis, coeffs)
            combo = basis.combination(coeffs)
            values = combo.to_lists()
            rows = [[values[i][j] for j in [c for _, c in cert.positions]] for i in [r for r, _ in cert.positions]]
            assert perm_det(rows) == cert.minor_value != 0
            assert rank_exact(combo) >= 3

    @pytest.mark.parametrize("dA,dB,r", [(3, 3, 2), (4, 5, 3), (5, 4, 2), (3, 6, 3), (4, 4, 4)])
    def test_every_certificate_minor_matches_perm_det(self, dA, dB, r):
        basis = construct_min_rank_subspace(dA, dB, r)
        report = structural_verify(basis, r, 30, seed=dA + dB + r)
        for cert in report.witnesses:
            combo = basis.combination(cert.coeffs).to_lists()
            rows = [[combo[i][j] for _, j in cert.positions] for i, _ in cert.positions]
            assert perm_det(rows) == cert.minor_value != 0

    def test_kappa_is_max_used_diagonal(self):
        basis = construct_min_rank_subspace(3, 4, 2)
        ks = [diagonal_of(m) for m in basis.matrices]
        lowest = min(range(basis.dimension), key=ks.__getitem__)
        highest = max(range(basis.dimension), key=ks.__getitem__)
        coeffs = [0] * basis.dimension
        coeffs[lowest] = 3
        coeffs[highest] = -2
        cert = structural_certificate(basis, coeffs)
        assert cert.kappa == ks[highest]

    def test_labels_are_not_read(self):
        # A loaded file's metadata.per_matrix labels, reversed here, are ignored.
        basis = construct_min_rank_subspace(4, 5, 3)
        labels = [{"k": diagonal_of(m)} for m in reversed(basis.matrices)]
        labelled = basis_from_json_dict({**to_json(basis), "metadata": {"per_matrix": labels}})
        coeffs = [(-1) ** i * (i % 4) for i in range(basis.dimension)]
        assert labelled == basis
        assert structural_certificate(labelled, coeffs) == structural_certificate(basis, coeffs)

    def test_rejects_wrong_kind(self):
        with pytest.raises(DomainError):
            structural_certificate(antisymmetric_basis_3x3(), [1, 0, 0])

    @pytest.mark.parametrize("lead", [0.5, True, "1/3"])
    def test_rejects_inexact_coefficients(self, lead):
        basis = construct_min_rank_subspace(3, 3, 2)
        with pytest.raises(FieldMismatchError):
            structural_certificate(basis, [lead, 1, 0, 0])

    def test_rejects_all_zero(self):
        basis = construct_min_rank_subspace(3, 3, 2)
        with pytest.raises(DomainError):
            structural_certificate(basis, [0, 0, 0, 0])


class TestSampleVerifyExact:
    def test_constructed_basis_consistent(self):
        basis = construct_min_rank_subspace(3, 3, 2)
        report = sample_verify_exact(basis, 2, 1000, seed=7)
        assert report.verdict == VERDICT_CONSISTENT
        assert report.min_rank_observed == 2
        assert report.samples_or_points == 1000
        assert not report.witnesses

    def test_rank_one_generator_refuted(self):
        elementary = StateMatrix.rational([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
        report = sample_verify_exact(_single_matrix_basis(elementary), 2, 10, seed=0)
        assert report.verdict == VERDICT_REFUTED
        w = report.witnesses[0]
        assert w.kind == CERT_WITNESS_LT
        assert w.rank_found == 1
        assert w.matrix is not None
        assert rank_exact(w.matrix) == 1

    def test_flanders_basis_max_rank(self):
        basis = construct_max_rank_leq_subspace(3, 4, 2)
        report = sample_verify_exact(basis, 2, 1000, seed=3, require="leq")
        assert report.verdict == VERDICT_CONSISTENT
        assert report.max_rank_observed == 2

    def test_eq_requirement_refutes_on_high_rank(self):
        identity = StateMatrix.rational([[1, 0], [0, 1]])
        report = sample_verify_exact(_single_matrix_basis(identity, r=1), 1, 10, seed=0, require="eq")
        assert report.verdict == VERDICT_REFUTED
        assert report.witnesses[0].kind == CERT_WITNESS_GT

    def test_deterministic_given_seed(self):
        basis = construct_min_rank_subspace(3, 4, 2)
        a = sample_verify_exact(basis, 2, 50, seed=11)
        b = sample_verify_exact(basis, 2, 50, seed=11)
        assert a == b
        assert json.dumps(to_json(a), sort_keys=True) == json.dumps(to_json(b), sort_keys=True)

    def test_bad_args(self):
        basis = construct_min_rank_subspace(3, 3, 2)
        with pytest.raises(DomainError):
            sample_verify_exact(basis, 2, 0, seed=0)
        with pytest.raises(DomainError):
            sample_verify_exact(basis, 2, 5, seed=0, require="weird")


class TestGfpExhaustive:
    def test_3x3_r2_p3(self):
        basis = construct_min_rank_subspace(3, 3, 2)
        report = gfp_exhaustive_min_rank(basis, 3)
        assert report.samples_or_points == 40  # (3^4 - 1) / 2
        assert report.min_rank_observed >= 2
        assert report.verdict == VERDICT_CONSISTENT

    def test_identity_basis_single_point(self):
        identity = StateMatrix.rational([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        report = gfp_exhaustive_min_rank(_single_matrix_basis(identity, r=3), 2)
        assert report.samples_or_points == 1
        assert report.min_rank_observed == 3

    def test_2x3_r2_p5_point_count(self):
        basis = construct_min_rank_subspace(2, 3, 2)
        assert basis.dimension == 2
        report = gfp_exhaustive_min_rank(basis, 5)
        assert report.samples_or_points == 6  # (5^2 - 1) / 4

    def test_composite_p_rejected(self):
        basis = construct_min_rank_subspace(3, 3, 2)
        with pytest.raises(DomainError, match="prime"):
            gfp_exhaustive_min_rank(basis, 4)

    @pytest.mark.parametrize("p", [4294967311, 2**61 - 1, 2**31 + 11, 1, 0, -7])
    def test_modulus_must_be_prime_below_2_31(self, p):
        basis = construct_min_rank_subspace(3, 3, 2)
        with pytest.raises(DomainError, match="below 2\\*\\*31"):
            gfp_exhaustive_min_rank(basis, p)

    def test_largest_allowed_modulus(self):
        rep = gfp_exhaustive_min_rank(_single_matrix_basis(StateMatrix.rational([[3, 5], [6, 10]]), r=2), 2**31 - 1)
        assert (rep.verdict, rep.min_rank_observed) == (VERDICT_INCONCLUSIVE, 1)

    def test_cap_refusal_names_required_cap(self):
        basis = construct_min_rank_subspace(3, 3, 2)
        with pytest.raises(DomainError, match="40"):
            gfp_exhaustive_min_rank(basis, 3, cap=10)

    def test_complex_basis_above_cap_refused_for_its_field(self):
        # 5**20 points: the cap message would ask for a cap no complex basis could use.
        with pytest.raises(FieldMismatchError, match="exact integer basis"):
            gfp_exhaustive_min_rank(random_subspace(4, 5, 20, 1), 5, r=2)

    def test_fractional_basis_above_cap_refused_for_its_entry(self):
        m = StateMatrix.rational([[Fraction(1, 2), 0], [0, 1]])
        with pytest.raises(DomainError, match="1/2 is not an integer"):
            gfp_exhaustive_min_rank(_single_matrix_basis(m, r=2), 3, cap=0)

    def test_independence_loss_mod_p_rejected(self):
        # Independent over the rationals, but diag(1, 4) is I mod 3.
        a = StateMatrix.rational([[1, 0], [0, 1]])
        b = StateMatrix.rational([[1, 0], [0, 4]])
        from entspan.construct import SubspaceBasis

        basis = SubspaceBasis(2, 2, 2, "user", (a, b))
        with pytest.raises(DomainError, match="independence"):
            gfp_exhaustive_min_rank(basis, 3)

    def test_rational_identity_reads_rank_2_mod_5(self):
        rep = gfp_exhaustive_min_rank(_single_matrix_basis(StateMatrix.rational([[1, 0], [0, 1]]), r=2), 5)
        assert (rep.verdict, rep.min_rank_observed, rep.samples_or_points) == (VERDICT_CONSISTENT, 2, 1)

    def test_mod_p_drop_is_inconclusive_not_refuted(self):
        # det = 3, invertible over Q but rank 1 mod 3.
        m = StateMatrix.rational([[1, 2], [2, 7]])
        report = gfp_exhaustive_min_rank(_single_matrix_basis(m, r=2), 3)
        assert report.min_rank_observed == 1
        assert report.verdict == VERDICT_INCONCLUSIVE

    def test_vandermonde_collapse_mod_2_is_one_sided(self):
        # The (3,4,2) construction carries the column (1,2,3), which reduces
        # to (1,0,1) mod 2; some point drops to rank 1 over GF(2).  That must
        # come back inconclusive, and the same coefficients must still have
        # exact rational rank >= 2.
        basis = construct_min_rank_subspace(3, 4, 2)
        rep = gfp_exhaustive_min_rank(basis, 2)
        assert rep.verdict == VERDICT_INCONCLUSIVE
        assert rep.min_rank_observed == 1
        coeffs = rep.params["argmin_coeffs"]
        assert rank_exact(basis.combination(coeffs)) >= 2

    def test_matches_bruteforce_enumeration(self):
        basis = construct_min_rank_subspace(2, 3, 2)
        p = 5
        report = gfp_exhaustive_min_rank(basis, p)
        # Independent enumeration: all projective points, python arithmetic.
        ranks = []
        count = 0
        for lead in range(2):
            tails = range(p) if lead == 0 else [None]
            for tail in tails:
                coeffs = [0, 0]
                coeffs[lead] = 1
                if lead == 0:
                    coeffs[1] = tail
                count += 1
                combo = basis.combination(coeffs)
                rows = [[int(v) % p for v in row] for row in combo.to_lists()]
                ranks.append(minor_rank(rows, p))
        assert count == report.samples_or_points
        assert min(ranks) == report.min_rank_observed


def _record_targets(monkeypatch, force=None):
    """Record (target, returned value) of each sigma descent; with ``force``, run it at that target instead.

    A lane of ``sigma_descent_lanes`` counts as one descent at target 0; ``force`` leaves lanes as they are.
    """
    descent, lanes, runs = _kernels.sigma_descent, _kernels.sigma_descent_lanes, []

    def spy(A, P, r, iters, x0, rows, cols, target=0.0):
        val, x = descent(A, P, r, iters, x0, rows, cols, target if force is None else force)
        runs.append((target, val))
        return val, x

    def lanes_spy(*args):
        results = lanes(*args)
        runs.extend((0.0, val) for val, _ in results)
        return results

    monkeypatch.setattr(_kernels, "sigma_descent", spy)
    monkeypatch.setattr(_kernels, "sigma_descent_lanes", lanes_spy)
    return runs


def _record_schedule(monkeypatch):
    """Record the sigma kernel calls in order: ("lone", 1) for ``sigma_descent``, ("lanes", n) for n lanes."""
    descent, lanes, calls = _kernels.sigma_descent, _kernels.sigma_descent_lanes, []

    def spy(*args):
        calls.append(("lone", 1))
        return descent(*args)

    def lanes_spy(A, P, r, iters, X0, rows, cols):
        calls.append(("lanes", len(X0)))
        return lanes(A, P, r, iters, X0, rows, cols)

    monkeypatch.setattr(_kernels, "sigma_descent", spy)
    monkeypatch.setattr(_kernels, "sigma_descent_lanes", lanes_spy)
    return calls


def _e00_basis():
    """construct_min_rank_subspace(3, 3, 2) with E00 in place of the identity: dim 4, the bound at r=2, rank 1 inside."""
    from entspan.construct import SubspaceBasis

    matrices = list(construct_min_rank_subspace(3, 3, 2).matrices)
    matrices[1] = StateMatrix.rational([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    return SubspaceBasis(3, 3, None, "user", tuple(matrices))


def _sequential_sigma(basis, r, restarts, iters, seed, tol=SIGMA_TOL):
    """The rational sigma search as a plain loop of lone descents at target 0.

    Returns (verdict, min_sigma_r, witnesses, restarts_run) under the search's stop rule;
    with no witness, a dimension above the paper's bound (dA-r+1)(dB-r+1) reads "refuted".
    """
    A = _complex_stack(basis)
    P = np.linalg.pinv(A)
    rng = coeff_stream(seed)
    best, witness = math.inf, None
    for run in range(1, restarts + 1):
        val, x = _kernels.sigma_descent(A, P, r, iters, draw_normals(rng, basis.dimension), basis.dA, basis.dB)
        if val < best:
            best = val
            witness = _accepted_witness(basis, A, x, r) if val < tol else None
            if witness is not None:
                break
    if witness is not None or basis.dimension > (basis.dA - r + 1) * (basis.dB - r + 1):
        verdict = VERDICT_REFUTED
    else:
        verdict = VERDICT_CONSISTENT if best >= math.sqrt(tol) else VERDICT_INCONCLUSIVE
    return verdict, best, () if witness is None else (witness,), run


class TestMinimizeSigmaR:
    @pytest.mark.parametrize(
        "basis, r, restarts, iters, seed, run, witnessed",
        [
            # Consistent: every restart runs, in groups 1 (alone), 8, 8 + 1 (alone) and 8 + 8 + 4.
            pytest.param(construct_min_rank_subspace(8, 8, 4), 4, 1, 500, 2, 1, False, id="8x8-1"),
            pytest.param(construct_min_rank_subspace(8, 8, 4), 4, 8, 500, 0, 8, False, id="8x8-8"),
            pytest.param(construct_min_rank_subspace(8, 8, 4), 4, 9, 500, 3, 9, False, id="8x8-9"),
            pytest.param(construct_min_rank_subspace(8, 8, 4), 4, 20, 500, 1, 20, False, id="8x8-20"),
            # At the bound with a rank drop: refuted at restart 6, mid-way through the first group of 8.
            pytest.param(_e00_basis(), 2, 16, 200, 52, 6, True, id="3x3-e00-at-bound"),
            # Dim 4 above the bound 1: a witness at restart 2 (second lane), 6 (mid-group) and 16
            # (last lane of the second group).
            pytest.param(construct_min_rank_subspace(3, 3, 2), 3, 16, 200, 68, 2, True, id="3x3-at-r3-seed68"),
            pytest.param(construct_min_rank_subspace(3, 3, 2), 3, 16, 200, 13, 6, True, id="3x3-at-r3-seed13"),
            pytest.param(construct_min_rank_subspace(3, 3, 2), 3, 16, 200, 618, 16, True, id="3x3-at-r3-seed618"),
        ],
    )
    def test_rational_search_matches_sequential_descents(self, basis, r, restarts, iters, seed, run, witnessed):
        # Restarts run in lockstep lanes; read in restart order, they must give
        # exactly what one lone descent after another gives.
        _, value, report = minimize_sigma_r(basis, r, restarts=restarts, iters=iters, seed=seed)
        expected = _sequential_sigma(basis, r, restarts, iters, seed)
        got = (report.verdict, report.min_sigma_r, report.witnesses, report.params["restarts_run"])
        assert got == expected
        assert value == report.min_sigma_r and report.params["restarts_run"] == run
        assert bool(report.witnesses) == witnessed

    @pytest.mark.parametrize(
        "basis, r, restarts, schedule",
        [
            # Rational: groups of 8 lanes, and a group of fewer than 3 starts runs them alone.
            pytest.param(construct_min_rank_subspace(3, 3, 2), 2, 1, [("lone", 1)], id="rational-1"),
            pytest.param(construct_min_rank_subspace(3, 3, 2), 2, 3, [("lanes", 3)], id="rational-3"),
            pytest.param(construct_min_rank_subspace(3, 3, 2), 2, 8, [("lanes", 8)], id="rational-8"),
            pytest.param(construct_min_rank_subspace(3, 3, 2), 2, 10, [("lanes", 8)] + [("lone", 1)] * 2, id="rational-10"),
            pytest.param(
                construct_min_rank_subspace(3, 3, 2), 3, 20, [("lanes", 8), ("lanes", 8), ("lanes", 4)], id="rational-20"
            ),
            # Complex: one restart at a time.
            pytest.param(random_subspace(3, 3, 4, seed=5), 2, 3, [("lone", 1)] * 3, id="complex"),
        ],
    )
    def test_restart_schedule(self, monkeypatch, basis, r, restarts, schedule):
        # One iteration finds no drop, so every restart runs.
        calls = _record_schedule(monkeypatch)
        _, _, report = minimize_sigma_r(basis, r, restarts=restarts, iters=1, seed=0)
        assert report.params["restarts_run"] == restarts
        assert calls == schedule

    def test_overfull_random_subspace_is_refuted(self):
        # Dimension 5 > 4, the bound for rank >= 2 in 3x3, so a rank-1
        # element must exist and the optimizer is expected to find it.
        basis = random_subspace(3, 3, 5, seed=1)
        coeffs, value, report = minimize_sigma_r(basis, 2, restarts=64, iters=500, seed=0)
        assert value < 1e-6
        assert report.verdict == VERDICT_REFUTED
        w = report.witnesses[0]
        assert w.kind == CERT_WITNESS_LT
        assert w.rank_found < 2
        assert schmidt_rank_numeric(w.matrix, 1e-6).rank < 2

    def test_explicit_rank_one_member_found_immediately(self):
        rng = np.random.default_rng(2)
        rank1 = np.outer(rng.standard_normal(3), rng.standard_normal(3))
        other = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        from entspan.construct import SubspaceBasis

        basis = SubspaceBasis(
            3, 3, None, "user",
            (StateMatrix.complex_(rank1.tolist()), StateMatrix.complex_(other.tolist())),
        )
        _, value, report = minimize_sigma_r(basis, 2, restarts=8, iters=200, seed=0)
        assert value < 1e-8
        assert report.verdict == VERDICT_REFUTED

    def test_constructed_basis_floor_bounded_away(self):
        basis = construct_min_rank_subspace(3, 3, 2)
        _, value, report = minimize_sigma_r(basis, 2, restarts=16, iters=300, seed=0)
        assert value > 1e-3
        assert report.verdict == VERDICT_CONSISTENT

    def test_deterministic_given_seed(self):
        basis = random_subspace(3, 3, 4, seed=3)
        a = minimize_sigma_r(basis, 2, restarts=4, iters=50, seed=9)
        b = minimize_sigma_r(basis, 2, restarts=4, iters=50, seed=9)
        assert a[1] == b[1]
        assert np.array_equal(a[0], b[0])
        assert json.dumps(to_json(a[2]), sort_keys=True) == json.dumps(to_json(b[2]), sort_keys=True)

    def test_rational_basis_accepted(self):
        basis = construct_min_rank_subspace(2, 2, 2)
        _, value, report = minimize_sigma_r(basis, 2, restarts=4, iters=100, seed=0)
        assert value > 0

    def test_entries_near_underflow(self):
        # np.linalg.norm squared these entries to zero, and the basis was
        # rejected as "norm underflows to zero".
        basis = _single_matrix_basis(StateMatrix.complex_([[1e-200, 0], [0, 1e-200]]))
        _, value, report = minimize_sigma_r(basis, 2, restarts=2, iters=20, seed=0)
        assert report.verdict == VERDICT_CONSISTENT
        assert value == pytest.approx(1.0)

    @pytest.mark.parametrize("shift", [-600, 600])
    def test_power_of_two_scaling_keeps_verdict_and_value(self, shift):
        from entspan.construct import SubspaceBasis

        for basis in (random_subspace(3, 3, 5, seed=1), random_subspace(3, 4, 3, seed=2)):
            scaled = SubspaceBasis(
                basis.dA, basis.dB, None, "user",
                tuple(StateMatrix(m.rows, m.cols, m.field, tuple(z * 2.0**shift for z in m.entries)) for m in basis.matrices),
            )
            _, _, plain = minimize_sigma_r(basis, 2, restarts=4, iters=100, seed=0)
            _, _, big = minimize_sigma_r(scaled, 2, restarts=4, iters=100, seed=0)
            assert (big.verdict, big.min_sigma_r) == (plain.verdict, plain.min_sigma_r)

    def test_ill_conditioned_rational_basis_is_not_refuted(self):
        # sigma_2 / sigma_1 = 1e-10 is below the tolerance, but diag(10^10, 1)
        # has exact rank 2; this read "refuted" with a numeric witness.
        basis = _single_matrix_basis(StateMatrix.rational([[10**10, 0], [0, 1]]))
        _, value, report = minimize_sigma_r(basis, 2, restarts=4, iters=50, seed=0)
        assert value < SIGMA_TOL
        assert (report.verdict, report.witnesses) == (VERDICT_INCONCLUSIVE, ())
        assert sample_verify_exact(basis, 2, 20, 0).verdict == VERDICT_CONSISTENT

    @pytest.mark.parametrize("scale", [Fraction(1), Fraction(10**400), Fraction(1, 10**400), Fraction(3, 7)])
    def test_rational_witness_confirmed_exactly(self, scale):
        # E00, E01 and E10 span rank-1 matrices such as E00; the witness, rounded
        # to rationals, keeps exact rank 1 at every entry scale.
        from entspan.construct import SubspaceBasis

        units = [[[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [1, 0]]]
        matrices = tuple(StateMatrix.rational([[v * scale for v in row] for row in m]) for m in units)
        basis = SubspaceBasis(2, 2, None, "user", matrices)
        _, _, report = minimize_sigma_r(basis, 2, restarts=8, iters=100, seed=0)
        assert report.verdict == VERDICT_REFUTED
        assert report.witnesses[0].rank_found == 1

    @pytest.mark.parametrize(
        "dim, seed",
        [pytest.param(8, seed, id=str(seed)) for seed in range(10**6, 10**6 + 8)]
        + [pytest.param(7, 10**6 + k, id=f"dim7-{10**6 + k}") for k in (1, 2, 6)],
    )
    def test_complex_refutation_ends_at_search_stop(self, monkeypatch, dim, seed):
        # dim > (4-3+1)(5-3+1) = 6, so a rank-<3 element exists.  The search
        # stops at the first restart that returns below tol; each descent still
        # aims at tol * 1e-3, and polishing further would run the same restarts.
        # At dim 7 these seeds need 3, 11 and 4 restarts.
        basis = random_subspace(4, 5, dim, seed=seed)
        runs = _record_targets(monkeypatch)
        _, value, report = minimize_sigma_r(basis, 3, seed=seed)
        assert report.verdict == VERDICT_REFUTED
        values = [val for _, val in runs]
        first = next(i for i, val in enumerate(values) if val < SIGMA_TOL)
        assert len(runs) == first + 1 == report.params["restarts_run"] < report.samples_or_points
        assert {target for target, _ in runs} == {SIGMA_TOL * 1e-3}
        assert value == report.min_sigma_r == values[first] < SIGMA_TOL
        assert schmidt_rank_numeric(report.witnesses[0].matrix, 1e-6).rank < 3

        monkeypatch.undo()
        untargeted_runs = _record_targets(monkeypatch, force=0.0)
        _, untargeted, _ = minimize_sigma_r(basis, 3, seed=seed)
        assert len(untargeted_runs) == len(runs)
        assert untargeted <= value

    @pytest.mark.parametrize("scale", [10**10, 10**12])
    def test_unconfirmed_rational_drop_ends_nothing(self, monkeypatch, scale):
        # Every element of diag(scale, 1) has exact rank 2, so no numeric drop
        # confirms and every restart runs, however far below tol it returns.
        basis = _single_matrix_basis(StateMatrix.rational([[scale, 0], [0, 1]]))
        runs = _record_targets(monkeypatch)
        _, value, report = minimize_sigma_r(basis, 2, restarts=6, iters=50, seed=0)
        assert len(runs) == report.params["restarts_run"] == 6
        assert all(val < SIGMA_TOL for _, val in runs) and value < SIGMA_TOL
        assert (report.verdict, report.witnesses) == (VERDICT_INCONCLUSIVE, ())

    def test_restarts_run_reported(self):
        _, _, refuted = minimize_sigma_r(random_subspace(3, 3, 5, seed=1), 2, restarts=64, iters=500, seed=0)
        assert refuted.verdict == VERDICT_REFUTED
        assert 1 <= refuted.params["restarts_run"] < refuted.params["restarts"] == refuted.samples_or_points == 64
        _, _, consistent = minimize_sigma_r(construct_min_rank_subspace(3, 3, 2), 2, restarts=5, iters=50, seed=0)
        assert consistent.verdict == VERDICT_CONSISTENT
        assert consistent.params["restarts_run"] == consistent.samples_or_points == 5

    def test_rational_descent_runs_to_its_end(self, monkeypatch):
        # _exact_drop rounds the witness to small denominators, so a rational
        # basis gets no descent target.
        from entspan.construct import SubspaceBasis

        units = [[[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [1, 0]]]
        basis = SubspaceBasis(2, 2, None, "user", tuple(StateMatrix.rational(m) for m in units))
        runs = _record_targets(monkeypatch)
        _, _, report = minimize_sigma_r(basis, 2, restarts=8, iters=100, seed=0)
        assert report.verdict == VERDICT_REFUTED
        assert runs and {target for target, _ in runs} == {0.0}

    def test_exact_check_undoes_scaling_and_phase(self):
        # M1 - M2 has rank 1.  The descent weighs each matrix scaled by a power
        # of two and unit-normalized (2**-601 and 2**-1 here) and returns
        # coefficients up to a complex phase; the check must undo both.
        from entspan.construct import SubspaceBasis

        m1, m2 = StateMatrix.rational([[2**600, 0], [0, 1]]), StateMatrix.rational([[0, 0], [0, 1]])
        basis = SubspaceBasis(2, 2, None, "user", (m1, m2))
        x = np.array([np.linalg.norm(unit_scaled(m)[0]) * 2.0 ** (unit_scaled(m)[1] - 601) for m in (m1, m2)])
        x = x * np.array([1, -1]) * np.exp(1.5707j)  # real parts near 0 until turned
        assert _exact_drop(basis, x, 2)
        assert not _exact_drop(basis, x * np.array([1, 2]), 2)

    def test_bad_r(self):
        basis = random_subspace(3, 3, 2, seed=0)
        with pytest.raises(DomainError):
            minimize_sigma_r(basis, 0)
        with pytest.raises(DomainError):
            minimize_sigma_r(basis, 4)


class TestPencil:
    def test_diagonal_pencil_roots(self):
        result = pencil_low_rank(np.diag([1.0, 2.0]), np.eye(2))
        assert sorted(z.real for z in result.finite) == [-2.0, -1.0]
        assert result.infinite_count == 0
        assert not result.identically_singular

    def test_identity_pencil_root_with_multiplicity(self):
        for d in (2, 4, 6):
            result = pencil_low_rank(np.eye(d), np.eye(d))
            assert len(result.finite) == d
            assert all(abs(z + 1) < 1e-8 for z in result.finite)

    def test_random_roots_match_eigenvalue_oracle(self):
        rng = np.random.default_rng(44)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        result = pencil_low_rank(a, b)
        assert len(result.finite) == 6
        expected = np.linalg.eigvals(-np.linalg.solve(b, a))
        got = sorted(result.finite, key=lambda z: (z.real, z.imag))
        want = sorted(map(complex, expected), key=lambda z: (z.real, z.imag))
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-6

    def test_all_residuals_below_tolerance(self):
        rng = np.random.default_rng(45)
        for d in range(2, 11):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            result = pencil_low_rank(a, b)
            assert result.finite
            assert all(res < 1e-8 for res in result.residuals)

    def test_singular_b_reports_infinite_directions(self):
        a = np.diag([1.0, 2.0])
        b = np.diag([1.0, 0.0])
        result = pencil_low_rank(a, b)
        assert [z.real for z in result.finite] == [-1.0]
        assert result.infinite_count == 1

    def test_identically_singular_pencil(self):
        zero = np.zeros((3, 3))
        result = pencil_low_rank(zero, zero)
        assert result.identically_singular
        # Shared kernel: columns 3 of both are zero.
        a = np.eye(3).copy()
        a[:, 2] = 0
        b = np.ones((3, 3))
        b[:, 2] = 0
        result2 = pencil_low_rank(a, b)
        assert result2.identically_singular

    def test_result_type(self):
        result = pencil_low_rank(np.eye(2), np.eye(2))
        assert isinstance(result, PencilResult)
