import itertools
from fractions import Fraction

import numpy as np
import pytest

from entspan.errors import DimensionError, DomainError
from entspan.tns import (
    CERTIFICATION_CAP,
    CERTIFIED_BY_THEOREM,
    CERTIFIED_EXHAUSTIVE,
    TnsMatrix,
    combination_nonzero_count,
    default_tns,
    is_totally_nonsingular,
    vandermonde,
)
from oracles import perm_det


class TestVandermonde:
    def test_nodes_123(self):
        v = vandermonde([1, 2, 3])
        assert v.to_lists() == [[1, 1, 1], [1, 2, 4], [1, 3, 9]]
        assert v.certified == CERTIFIED_EXHAUSTIVE

    def test_single_node(self):
        assert vandermonde([1]).to_lists() == [[1]]

    def test_all_69_minors_nonzero(self):
        v = vandermonde([1, 2, 3, 4])
        rows = v.to_lists()
        checked = 0
        for order in range(1, 5):
            for ri in itertools.combinations(range(4), order):
                for ci in itertools.combinations(range(4), order):
                    assert perm_det([[rows[i][j] for j in ci] for i in ri]) != 0
                    checked += 1
        assert checked == 69

    def test_minors_strictly_positive_up_to_5(self):
        for m in range(1, 6):
            rows = vandermonde(range(1, m + 1)).to_lists()
            for order in range(1, m + 1):
                for ri in itertools.combinations(range(m), order):
                    for ci in itertools.combinations(range(m), order):
                        assert perm_det([[rows[i][j] for j in ci] for i in ri]) > 0

    def test_rational_nodes(self):
        v = vandermonde([Fraction(1, 2), Fraction(3, 4), 2])
        assert v.at(0, 2) == Fraction(1, 4)
        ok, _ = is_totally_nonsingular(v)
        assert ok

    def test_bad_nodes(self):
        with pytest.raises(DomainError):
            vandermonde([0, 1, 2])
        with pytest.raises(DomainError):
            vandermonde([-1, 1])
        with pytest.raises(DomainError):
            vandermonde([1, 3, 2])
        with pytest.raises(DomainError):
            vandermonde([1, 1, 2])
        with pytest.raises(DomainError):
            vandermonde([])

    def test_certification_cap(self):
        big = vandermonde(range(1, CERTIFICATION_CAP + 2))
        assert big.certified == CERTIFIED_BY_THEOREM
        small = vandermonde(range(1, CERTIFICATION_CAP + 1))
        assert small.certified == CERTIFIED_EXHAUSTIVE

    def test_default_tns_cached(self):
        assert default_tns(4) is default_tns(4)
        assert default_tns(3).nodes == (1, 2, 3)


class TestIsTotallyNonsingular:
    def test_identity_fails_on_off_diagonal_entry(self):
        ok, witness = is_totally_nonsingular([[1, 0], [0, 1]])
        assert not ok
        assert witness == ((0,), (1,))

    def test_all_ones_fails_on_full_determinant(self):
        ok, witness = is_totally_nonsingular([[1, 1], [1, 1]])
        assert not ok
        assert witness == ((0, 1), (0, 1))

    def test_vandermonde_passes(self):
        ok, witness = is_totally_nonsingular(vandermonde([1, 2, 3]))
        assert ok and witness is None

    def test_order_cap_limits_scan(self):
        # Full determinant vanishes but all 1x1 minors are fine.
        ok, _ = is_totally_nonsingular([[1, 2], [2, 4]], order_cap=1)
        assert ok
        ok, witness = is_totally_nonsingular([[1, 2], [2, 4]])
        assert not ok and witness == ((0, 1), (0, 1))

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            is_totally_nonsingular([[1, 2, 3], [4, 5, 6]])

    def test_every_submatrix_of_tns_is_tns_up_to_4(self):
        for m in range(2, 5):
            rows = vandermonde(range(1, m + 1)).to_lists()
            for order in range(1, m + 1):
                for ri in itertools.combinations(range(m), order):
                    for ci in itertools.combinations(range(m), order):
                        sub = [[rows[i][j] for j in ci] for i in ri]
                        ok, _ = is_totally_nonsingular(sub)
                        assert ok


class TestCombinationNonzeroCount:
    def test_single_column_all_nonzero(self):
        v = default_tns(3)
        assert combination_nonzero_count(v, [0], [1]) == 3

    def test_random_pairs_meet_bound(self):
        v = default_tns(3)
        rng = np.random.default_rng(21)
        for _ in range(500):
            coeffs = [int(c) for c in rng.integers(-9, 10, size=2)]
            if coeffs == [0, 0]:
                coeffs = [1, 0]
            assert combination_nonzero_count(v, [0, 1], coeffs) >= 2

    def test_bound_is_tight(self):
        # Solve for a combination of all m columns hitting a basis vector:
        # exactly one nonzero entry, matching m - n + 1 with n = m.
        m = 4
        v = default_tns(m)
        a = np.array(v.to_lists(), dtype=object)
        target = [Fraction(1), Fraction(0), Fraction(0), Fraction(0)]
        coeffs = _solve_exact(a.tolist(), target)
        assert combination_nonzero_count(v, list(range(m)), coeffs) == 1

    def test_all_zero_coeffs_rejected(self):
        with pytest.raises(DomainError):
            combination_nonzero_count(default_tns(3), [0, 1], [0, 0])

    def test_duplicate_columns_rejected(self):
        with pytest.raises(DomainError):
            combination_nonzero_count(default_tns(3), [0, 0], [1, 1])

    def test_zero_count_lemma_all_subsets_up_to_5(self):
        rng = np.random.default_rng(22)
        for m in range(1, 6):
            v = default_tns(m)
            for n in range(1, m + 1):
                for cols in itertools.combinations(range(m), n):
                    for _ in range(200 // (m * n) + 5):
                        coeffs = [int(c) for c in rng.integers(-9, 10, size=n)]
                        if all(c == 0 for c in coeffs):
                            coeffs[0] = 1
                        nonzeros = combination_nonzero_count(v, list(cols), coeffs)
                        assert m - nonzeros <= n - 1


def _solve_exact(rows, target):
    """Gaussian elimination over Fraction for a square exact system."""
    n = len(rows)
    aug = [[Fraction(v) for v in row] + [Fraction(target[i])] for i, row in enumerate(rows)]
    for col in range(n):
        piv = next(i for i in range(col, n) if aug[i][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        pivot = aug[col][col]
        aug[col] = [v / pivot for v in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                factor = aug[i][col]
                aug[i] = [a - factor * b for a, b in zip(aug[i], aug[col])]
    return [aug[i][n] for i in range(n)]

