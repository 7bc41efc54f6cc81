import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from entspan.errors import DimensionError, DomainError, FieldMismatchError
from entspan.statemat import StateMatrix
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

    def test_complex_matrix_rejected(self):
        with pytest.raises(DomainError):
            is_totally_nonsingular(StateMatrix.complex_([[1, 2], [3, 4]]))

    def test_float_rows_rejected(self):
        with pytest.raises(FieldMismatchError):
            is_totally_nonsingular([[1.5, 2], [3, 4]])

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            is_totally_nonsingular([])

    def test_rational_matrix_eliminates_on_numerators(self):
        m = StateMatrix.rational([[Fraction(1, 2), 1], [Fraction(1, 4), Fraction(1, 2)]])
        assert m.denominator == 4
        assert is_totally_nonsingular(m) == (False, ((0, 1), (0, 1)))
        assert is_totally_nonsingular(m, order_cap=1) == (True, None)

    def test_every_submatrix_of_tns_is_tns_up_to_4(self):
        for m in range(2, 5):
            rows = vandermonde(range(1, m + 1)).to_lists()
            for order in range(1, m + 1):
                for ri in itertools.combinations(range(m), order):
                    for ci in itertools.combinations(range(m), order):
                        sub = [[rows[i][j] for j in ci] for i in ri]
                        ok, _ = is_totally_nonsingular(sub)
                        assert ok

    def test_matches_minor_enumeration(self):
        cases = _oracle_matrices()
        assert len(cases) >= 150
        outcomes = set()
        for rows in cases:
            witness = _first_vanishing_minor(rows)
            outcomes.add(None if witness is None else len(witness[0]))
            for cap in range(1, len(rows) + 1):
                expected = (True, None) if witness is None or len(witness[0]) > cap else (False, witness)
                assert is_totally_nonsingular(rows, order_cap=cap) == expected, (rows, cap)
        # Every outcome occurs: totally non-singular, and a first zero at each order.
        assert outcomes == {None, 1, 2, 3, 4, 5, 6}

    def test_matches_minor_enumeration_at_certification_cap(self):
        # An 8-node Vandermonde matrix with its (6, 7) entry moved so that the
        # 4x4 minor on rows (0, 2, 5, 6) and columns (1, 3, 4, 7) vanishes: the
        # minor is linear in that entry, with the nonzero 3x3 cofactor as slope.
        m = CERTIFICATION_CAP
        rows = vandermonde(range(1, m + 1)).to_lists()
        ri, ci = (0, 2, 5, 6), (1, 3, 4, 7)
        minor = perm_det([[rows[i][j] for j in ci] for i in ri])
        cofactor = perm_det([[rows[i][j] for j in ci[:-1]] for i in ri[:-1]])
        rows[6][7] -= minor / cofactor
        witness = _first_vanishing_minor(rows, max_order=4)
        assert witness == (ri, ci)
        assert is_totally_nonsingular(rows, order_cap=3) == (True, None)
        for cap in (4, 5, m, None):
            assert is_totally_nonsingular(rows, order_cap=cap) == (False, witness)


def _first_vanishing_minor(rows, max_order=None):
    """First zero minor in (order, rows, cols) order by permutation expansion, or None."""
    n = len(rows)
    for order in range(1, (max_order or n) + 1):
        for ri in itertools.combinations(range(n), order):
            for ci in itertools.combinations(range(n), order):
                if perm_det([[rows[i][j] for j in ci] for i in ri]) == 0:
                    return ri, ci
    return None


def _oracle_matrices():
    """Seeded square matrices, 1x1 to 6x6, with vanishing minors of every order.

    Integers with zeros, nonzero integers, Fractions and totally positive
    Vandermonde matrices on random nodes, and the last three with a planted
    singular 2x2 or 3x3 block or a singular whole matrix.
    """
    rng = random.Random(23)
    nonzero = [v for v in range(-9, 10) if v]

    def draw(n, kind):
        if kind == "with_zeros":
            return [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if kind == "integer":
            return [[rng.choice(nonzero) for _ in range(n)] for _ in range(n)]
        if kind == "fraction":
            return [[Fraction(rng.choice(nonzero), rng.randint(1, 7)) for _ in range(n)] for _ in range(n)]
        nodes = sorted(rng.sample(range(1, 30), n))
        return vandermonde([Fraction(x, 3) for x in nodes]).to_lists()

    def plant(rows, order):
        # Within a random order x order block, the last row becomes a
        # combination of the others (0 for a 1x1 block), so that block's
        # minor vanishes.
        n = len(rows)
        ri = sorted(rng.sample(range(n), order))
        ci = sorted(rng.sample(range(n), order))
        weights = [Fraction(rng.choice(nonzero), rng.randint(1, 3)) for _ in ri[:-1]]
        for j in ci:
            rows[ri[-1]][j] = sum(w * rows[i][j] for w, i in zip(weights, ri[:-1]))
        return rows

    cases = []
    for n in range(1, 7):
        for kind in ("with_zeros", "integer", "fraction", "vandermonde"):
            cases.append(draw(n, kind))
        for _ in range(4 if n < 3 else 10):
            rows = draw(n, rng.choice(("integer", "fraction", "vandermonde")))
            cases.append(plant(rows, rng.choice([o for o in (2, 3, n) if o <= n])))
        for _ in range(14):
            cases.append(draw(n, rng.choice(("with_zeros", "integer"))))
    return cases


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

