import math

import pytest

from entspan.bounds import (
    BoundsTable,
    bounds_table,
    bounds_table_text,
    flanders_max_leq,
    max_dim_geq,
    mixed_state_report,
    random_comparison,
    variety_dim,
    westwick_range,
)
from entspan.construct import (
    antisymmetric_basis_3x3,
    construct_fixed_rank_subspace,
    construct_max_rank_leq_subspace,
    construct_min_rank_subspace,
)
from entspan.errors import DomainError
from entspan.statemat import to_json


class TestMaxDimGeq:
    def test_known_values(self):
        assert max_dim_geq(3, 3, 2) == 4
        assert max_dim_geq(4, 5, 3) == 6
        for d in (2, 3, 5):
            assert max_dim_geq(d, d, d) == 1

    def test_r1_is_whole_space(self):
        assert max_dim_geq(3, 4, 1) == 12

    def test_orientation_symmetric(self):
        assert max_dim_geq(5, 3, 2) == max_dim_geq(3, 5, 2)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            max_dim_geq(3, 3, 4)
        with pytest.raises(DomainError):
            max_dim_geq(3, 3, 0)

    def test_strictly_decreasing_in_r(self):
        for dA, dB in [(4, 4), (3, 7), (6, 6)]:
            values = [max_dim_geq(dA, dB, r) for r in range(1, min(dA, dB) + 1)]
            assert all(a > b for a, b in zip(values, values[1:]))
            if dA == dB:
                assert values[-1] == 1

    def test_construction_meets_bound_on_grid(self):
        for dA in range(2, 9):
            for dB in range(dA, 9):
                for r in range(2, dA + 1):
                    assert construct_min_rank_subspace(dA, dB, r).dimension == max_dim_geq(dA, dB, r)


class TestFlanders:
    def test_known_values(self):
        assert flanders_max_leq(3, 4, 2) == 8
        assert flanders_max_leq(4, 6, 4) == 24
        assert flanders_max_leq(5, 5, 1) == 5

    def test_construction_meets_bound_on_grid(self):
        for dA in range(1, 7):
            for dB in range(dA, 7):
                for r in range(1, dA + 1):
                    assert construct_max_rank_leq_subspace(dA, dB, r).dimension == flanders_max_leq(dA, dB, r)


class TestWestwick:
    def test_3x4_r2_divisibility_clause(self):
        lo, hi, exact, reason = westwick_range(3, 4, 2)
        assert (lo, hi, exact) == (3, 4, 3)
        assert "divide" in reason

    def test_3x3_r2_special_case(self):
        lo, hi, exact, _ = westwick_range(3, 3, 2)
        assert (lo, hi, exact) == (2, 3, 3)
        assert antisymmetric_basis_3x3().dimension == exact

    def test_r_equal_da_bounds_coincide(self):
        for dA, dB in [(3, 5), (2, 4), (4, 4)]:
            lo, hi, exact, _ = westwick_range(dA, dB, dA)
            assert lo == hi == exact == dB - dA + 1
            if dA >= 2:
                assert construct_fixed_rank_subspace(dA, dB).dimension == exact

    def test_open_case_exists(self):
        lo, hi, exact, reason = westwick_range(4, 4, 2)
        assert (lo, hi) == (3, 5)
        assert exact is None
        assert "open" in reason

    def test_orientation_normalized(self):
        assert westwick_range(4, 3, 2) == westwick_range(3, 4, 2)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            westwick_range(3, 4, 1)


class TestVarietyDim:
    def test_3x3_r2(self):
        assert variety_dim(3, 3, 2) == (5, 4)

    def test_segre_quadric(self):
        assert variety_dim(2, 2, 2) == (3, 2)

    def test_whole_space_at_r_min_plus_one(self):
        assert variety_dim(3, 4, 4) == (12, 11)

    def test_complementarity_identity_up_to_12(self):
        for dA in range(1, 13):
            for dB in range(dA, 13):
                for r in range(1, dA + 1):
                    affine, projective = variety_dim(dA, dB, r)
                    assert affine + max_dim_geq(dA, dB, r) == dA * dB
                    assert projective == affine - 1


class TestBoundsTable:
    def test_assembly(self):
        t = bounds_table(3, 4, 2)
        assert isinstance(t, BoundsTable)
        assert t.max_dim_geq == 6
        assert t.flanders_max_leq == 8
        assert (t.westwick_lo, t.westwick_hi, t.westwick_exact) == (3, 4, 3)
        assert t.variety_dim_affine + t.max_dim_geq == 12

    def test_r1_row_has_no_westwick(self):
        t = bounds_table(3, 4, 1)
        assert t.westwick_lo is None
        assert t.max_dim_geq == 12

    def test_text_rendering_stable(self):
        text = bounds_table_text([bounds_table(3, 4, 2), bounds_table(3, 4, 3)])
        lines = text.splitlines()
        assert len(lines) == 3
        assert lines[0].split() == ["da", "db", "r", "geq", "flanders", "westwick", "exact", "variety"]
        assert lines[1].split() == ["3", "4", "2", "6", "8", "[3,4]", "3", "6"]
        assert lines[2].split() == ["3", "4", "3", "2", "12", "[2,2]", "2", "10"]

    def test_json_keys(self):
        d = to_json(bounds_table(3, 3, 2))
        assert d["max_dim_geq"] == 4
        assert d["westwick_exact"] == 3


class TestMixedStateReport:
    def test_d10_p05(self):
        rep = mixed_state_report(10, 0.5)
        assert rep.r == 5
        assert rep.dim == 36
        assert rep.entropy_bits == pytest.approx(math.log2(36))
        assert rep.rank_lower_paper == 25
        assert rep.asymptotic_regime
        assert rep.schmidt_measure_lb == 5

    def test_d4_p05(self):
        rep = mixed_state_report(4, 0.5)
        assert rep.r == 2
        assert rep.dim == 9
        assert rep.schmidt_measure_lb == 2

    def test_trivial_threshold_rejected(self):
        with pytest.raises(DomainError):
            mixed_state_report(10, 0.9)

    def test_float_fuzz_guard(self):
        # (1 - 0.7) * 10 evaluates just above 3.0 in floats; the intended
        # ceiling is still 3.
        assert mixed_state_report(10, 0.7).r == 3

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            mixed_state_report(1, 0.5)
        with pytest.raises(DomainError):
            mixed_state_report(10, 0.0)
        with pytest.raises(DomainError):
            mixed_state_report(10, 1.0)

    def test_json(self):
        d = to_json(mixed_state_report(10, 0.5))
        assert d["dim"] == 36
        assert "justification" in d


class TestRandomComparison:
    def test_100x100_half(self):
        rep = random_comparison(100, 100, 0.5)
        assert rep.r == 50
        assert rep.exact_dim == 51 * 51 == 2601
        assert rep.asymptotic == pytest.approx(2500.0)

    def test_k1_maximal_rank(self):
        rep = random_comparison(4, 4, 1.0)
        assert rep.exact_dim == 1
        assert rep.asymptotic == 0.0
        rect = random_comparison(3, 7, 1.0)
        assert rect.exact_dim == 7 - 3 + 1

    def test_threshold_square_case_is_inverse_e(self):
        rep = random_comparison(100, 100, 0.5)
        assert rep.threshold_k == pytest.approx(math.exp(-1))
        assert rep.random_bound_trivial  # 0.5 >= 1/e

    def test_below_threshold_flag(self):
        rep = random_comparison(100, 100, 0.2)
        assert not rep.random_bound_trivial

    def test_float_fuzz_guard(self):
        assert random_comparison(100, 100, 0.3).r == 30

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            random_comparison(3, 4, 0.0)
        with pytest.raises(DomainError):
            random_comparison(3, 4, 1.5)

    def test_json(self):
        d = to_json(random_comparison(100, 100, 0.5))
        assert d["exact_dim"] == 2601
