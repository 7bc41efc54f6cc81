import itertools
from fractions import Fraction

import numpy as np
import pytest

from entspan import statemat
from entspan.errors import DimensionError, DomainError, FieldMismatchError, NumericError
from entspan.statemat import (
    COMPLEX,
    GFP,
    RATIONAL,
    StateMatrix,
    bareiss,
    block_rank,
    combine,
    gfp_eliminate,
    matrix_from_json_dict,
    matrix_of_state,
    minor_value,
    rank_exact,
    schmidt_rank_numeric,
    state_of_matrix,
    to_json,
)
from oracles import all_minors_vanish, minor_rank, perm_det


def rational(rows):
    return StateMatrix.rational(rows)


class TestMatrixOfState:
    def test_basis_state_2x2(self):
        m = matrix_of_state([1, 0, 0, 0], 2, 2)
        assert m.to_lists() == [[1, 0], [0, 0]]

    def test_bell_state_2x2(self):
        m = matrix_of_state([1, 0, 0, 1], 2, 2)
        assert m.to_lists() == [[1, 0], [0, 1]]

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            matrix_of_state([1, 0, 0], 2, 2)

    def test_round_trip_3x4(self):
        rng = np.random.default_rng(3)
        amps = [int(v) for v in rng.integers(-50, 50, size=12)]
        assert state_of_matrix(matrix_of_state(amps, 3, 4)) == amps


class TestSchmidtRankNumeric:
    def test_identity(self):
        m = StateMatrix.complex_([[1, 0], [0, 1]])
        assert schmidt_rank_numeric(m, 1e-9).rank == 2

    def test_outer_product_is_rank_one(self):
        u = np.array([1.0, 2.0, -0.5])
        v = np.array([0.3, 1.0, 2.0, -1.0])
        m = StateMatrix.complex_(np.outer(u, v).tolist())
        assert schmidt_rank_numeric(m).rank == 1

    def test_tiny_singular_value_below_tolerance(self):
        m = StateMatrix.complex_([[1, 0], [0, 1e-14]])
        info = schmidt_rank_numeric(m, 1e-9)
        assert info.rank == 1
        assert info.singular_values[0] == pytest.approx(1.0)

    def test_zero_matrix(self):
        m = StateMatrix.zero(3, 2, COMPLEX)
        assert schmidt_rank_numeric(m).rank == 0

    def test_nonfinite_entries(self):
        with pytest.raises(NumericError):
            StateMatrix.complex_([[1, float("inf")], [0, 1]])
        with pytest.raises(NumericError):  # built directly, so no entry was coerced
            schmidt_rank_numeric(StateMatrix(1, 2, COMPLEX, (1j, complex("nan"))))

    def test_entries_near_overflow(self):
        # The largest singular value, 2e308, overflows unless the matrix is
        # scaled first; it read rank 0 with singular values (inf, 0).
        m = StateMatrix.complex_([[1e308, 1e308], [1e308, 1e308]])
        assert schmidt_rank_numeric(m).rank == 1
        assert schmidt_rank_numeric(StateMatrix.complex_([[1e308, 0], [0, -1e308]])).rank == 2

    def test_rank_invariant_under_power_of_two_scaling(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            a = np.outer(rng.standard_normal(3), rng.standard_normal(4)) + 1j * np.eye(3, 4)
            info = schmidt_rank_numeric(StateMatrix.complex_(a.tolist()))
            for shift in (-1000, -600, 600, 1020):
                scaled = schmidt_rank_numeric(StateMatrix.complex_(np.ldexp(a.real, shift) + 1j * np.ldexp(a.imag, shift)))
                assert scaled.rank == info.rank
                if abs(shift) == 600:
                    assert scaled.singular_values == tuple(np.ldexp(info.singular_values, shift))

    @pytest.mark.parametrize("s", [Fraction(10**400), Fraction(1, 10**400)], ids=["10^400", "1/10^400"])
    def test_rational_entries_beyond_double_range(self, s):
        # Their doubles overflow (OverflowError) or round to 0 (rank 0).
        for rows in (
            [[s, 2 * s], [3 * s, 6 * s]],
            [[s, -s, 0], [2 * s, s / 3, 3 * s]],
            [[s / 7, 0], [0, 0], [0, -s]],
            [[0, 0], [0, 0]],
        ):
            m = rational(rows)
            assert schmidt_rank_numeric(m).rank == rank_exact(m)

    def test_singular_values_descending(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
            info = schmidt_rank_numeric(StateMatrix.complex_(a.tolist()))
            assert list(info.singular_values) == sorted(info.singular_values, reverse=True)


class TestRankExact:
    def test_proportional_rows(self):
        assert rank_exact(rational([[1, 2], [2, 4]])) == 1

    def test_zero_matrix(self):
        assert rank_exact(StateMatrix.zero(3, 4)) == 0

    def test_vandermonde_full_rank(self):
        rows = [[1, 1, 1], [1, 2, 4], [1, 3, 9]]
        assert rank_exact(rational(rows)) == 3
        assert minor_rank(rows) == 3  # independent oracle

    def test_fractional_entries(self):
        rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]]
        assert rank_exact(rational(rows)) == 1

    def test_matches_minor_oracle_random(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            dA, dB = rng.integers(1, 5, size=2)
            rows = rng.integers(-4, 5, size=(dA, dB)).tolist()
            assert rank_exact(rational(rows)) == minor_rank(rows)

    def test_zero_columns_between_pivots(self):
        # Exercises the fraction-free elimination's column-skip path.
        rows = [[0, 2, 0, 3], [0, 4, 0, 6], [0, 1, 0, 5]]
        assert rank_exact(rational(rows)) == minor_rank(rows) == 2
        rows = [[0, 0, 1], [0, 0, 2], [0, 0, 3]]
        assert rank_exact(rational(rows)) == minor_rank(rows) == 1

    def test_numpy_integer_entries_accepted(self):
        rng = np.random.default_rng(14)
        arr = rng.integers(-5, 6, size=(2, 3))
        m = StateMatrix.rational(arr.tolist())
        m2 = StateMatrix.rational([[arr[i, j] for j in range(3)] for i in range(2)])
        assert m == m2

    def test_matches_minor_oracle_low_rank(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            dA, dB, r = 4, 4, int(rng.integers(1, 4))
            left = rng.integers(-3, 4, size=(dA, r))
            right = rng.integers(-3, 4, size=(r, dB))
            rows = (left @ right).tolist()
            assert rank_exact(rational(rows)) == minor_rank(rows)

    def test_complex_field_rejected(self):
        with pytest.raises(FieldMismatchError):
            rank_exact(StateMatrix.complex_([[1, 0], [0, 1]]))

    def test_gfp_rank_drop(self):
        # det = 1*4 - 2*2 = 0 over Q; [[1,2],[2,4]] rank 1 over GF(5) as well
        assert rank_exact(StateMatrix.gfp([[1, 2], [2, 4]], p=5)) == 1
        # [[1,2],[2,9]] has det 5, so rank 2 over Q but 1 over GF(5)
        assert rank_exact(rational([[1, 2], [2, 9]])) == 2
        assert rank_exact(StateMatrix.gfp([[1, 2], [2, 9]], p=5)) == 1

    def test_gfp_monotonicity(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            dA, dB = rng.integers(1, 5, size=2)
            rows = rng.integers(-9, 10, size=(dA, dB)).tolist()
            rq = rank_exact(rational(rows))
            for p in (2, 3, 5):
                assert gfp_eliminate([rows], p)[0][0] <= rq

    def test_numeric_agrees_with_exact_500_trials(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            dA, dB = rng.integers(1, 7, size=2)
            rows = rng.integers(-9, 10, size=(dA, dB)).tolist()
            exact = rank_exact(rational(rows))
            numeric = schmidt_rank_numeric(StateMatrix.complex_(rows), 1e-9).rank
            assert numeric == exact

    def test_invariance_under_invertible_factors(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            rows = rng.integers(-5, 6, size=(3, 4)).tolist()
            base = rank_exact(rational(rows))
            left = _random_invertible(rng, 3)
            right = _random_invertible(rng, 4)
            lm = (np.array(left, dtype=object) @ np.array(rows, dtype=object)).tolist()
            mr = (np.array(rows, dtype=object) @ np.array(right, dtype=object)).tolist()
            assert rank_exact(rational(lm)) == base
            assert rank_exact(rational(mr)) == base


def _random_invertible(rng, n):
    while True:
        cand = rng.integers(-4, 5, size=(n, n)).tolist()
        if perm_det(cand) != 0:
            return cand


def order_r_minors(m, r):
    """Every order-r minor as (row-set, col-set, minor_value)."""
    return [
        (ri, ci, minor_value(m, ri, ci))
        for ri in itertools.combinations(range(m.rows), r)
        for ci in itertools.combinations(range(m.cols), r)
    ]


class TestOrderRMinors:
    def test_identity_single_minor(self):
        minors = order_r_minors(rational([[1, 0], [0, 1]]), 2)
        assert minors == [((0, 1), (0, 1), Fraction(1))]

    def test_all_ones_single_zero_minor(self):
        minors = order_r_minors(rational([[1, 1], [1, 1]]), 2)
        assert minors == [((0, 1), (0, 1), Fraction(0))]

    def test_vandermonde_all_2x2_minors_nonzero(self):
        m = rational([[1, 1, 1], [1, 2, 4], [1, 3, 9]])
        minors = order_r_minors(m, 2)
        assert len(minors) == 9
        assert all(value != 0 for _, _, value in minors)

    def test_count_and_values_match_oracle(self):
        rng = np.random.default_rng(10)
        rows = rng.integers(-5, 6, size=(3, 4)).tolist()
        m = rational(rows)
        for r in (1, 2, 3):
            got = order_r_minors(m, r)
            assert len(got) == len(list(itertools.combinations(range(3), r))) * len(
                list(itertools.combinations(range(4), r))
            )
            for ri, ci, value in got:
                assert value == perm_det([[rows[i][j] for j in ci] for i in ri])

    def test_rank_below_r_iff_all_minors_vanish_exhaustive(self):
        rng = np.random.default_rng(12)
        cases = []
        for dA in range(1, 5):
            for dB in range(1, 5):
                for _ in range(6):
                    cases.append(rng.integers(-3, 4, size=(dA, dB)).tolist())
                for rr in range(1, min(dA, dB) + 1):
                    left = rng.integers(-2, 3, size=(dA, rr))
                    right = rng.integers(-2, 3, size=(rr, dB))
                    cases.append((left @ right).tolist())
        for rows in cases:
            m = rational(rows)
            if m.is_zero():
                continue
            rank = rank_exact(m)
            for r in range(1, min(m.rows, m.cols) + 1):
                assert (rank < r) == all_minors_vanish(rows, r)


def _draw_scalar(rng, field, p):
    """A seeded scalar of the field, zero about a third of the time."""
    if rng.random() < 1 / 3:
        return 0
    if field == RATIONAL:
        return Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7)))
    if field == GFP:
        return int(rng.integers(-3 * p, 3 * p))
    return complex(*rng.standard_normal(2))


class TestCombineAndMinorValue:
    @pytest.mark.parametrize(
        "field, p",
        [(RATIONAL, None), (GFP, 2), (GFP, 7), (GFP, 2**31 - 1), (COMPLEX, None)],
        ids=["rational", "gfp2", "gfp7", "gfp2147483647", "complex"],
    )
    def test_combine_matches_dense_sum(self, field, p):
        rng = np.random.default_rng(17)
        for _ in range(10):
            rows, cols = (int(v) for v in rng.integers(1, 5, size=2))
            pool = [
                StateMatrix.from_rows(
                    [[_draw_scalar(rng, field, p) for _ in range(cols)] for _ in range(rows)], field, p
                )
                for _ in range(4)
            ]
            # Each pool matrix serves several calls, some twice in one call,
            # so its cached nonzero cells are reused.
            for _ in range(6):
                picks = [pool[int(i)] for i in rng.integers(0, len(pool), size=int(rng.integers(1, 6)))]
                coeffs = [_draw_scalar(rng, field, p) for _ in picks]
                got = combine(picks, coeffs)
                values = [state_of_matrix(m) for m in picks]
                for k, value in enumerate(state_of_matrix(got)):
                    dense = sum(c * v[k] for c, v in zip(coeffs, values))
                    assert value == (dense % p if field == GFP else dense)
                    assert type(value) is {RATIONAL: Fraction, GFP: int, COMPLEX: complex}[field]

    def test_minor_value_matches_oracle(self):
        rng = np.random.default_rng(13)
        rows = rng.integers(-6, 7, size=(4, 4)).tolist()
        m = rational(rows)
        value = minor_value(m, (0, 2, 3), (1, 2, 3))
        assert value == perm_det([[rows[i][j] for j in (1, 2, 3)] for i in (0, 2, 3)])

    def test_minor_value_fractional_and_gfp(self):
        rows = [[Fraction(1, 2), Fraction(2, 3), 1], [3, Fraction(-1, 4), 0], [Fraction(5, 7), 2, -1]]
        assert minor_value(rational(rows), (0, 1, 2), (0, 1, 2)) == perm_det(rows)
        ints = [[4, 9, 1], [3, 8, 0], [5, 2, 6]]
        assert minor_value(StateMatrix.gfp(ints, 7), (0, 1, 2), (0, 1, 2)) == perm_det(ints) % 7


class TestElimination:
    """Both eliminations against the permutation-expansion oracles."""

    def test_bareiss_matches_oracles(self):
        rng = np.random.default_rng(15)
        for _ in range(300):
            n_rows, n_cols = (int(v) for v in rng.integers(1, 5, size=2))
            rows = rng.integers(-4, 5, size=(n_rows, n_cols)).tolist()
            if rng.random() < 0.3:  # force rank deficiency now and then
                rows[-1] = [2 * v for v in rows[0]]
            rank, det = bareiss(rows)
            assert rank == minor_rank(rows)
            assert det == (perm_det(rows) if n_rows == n_cols else 0)

    def test_gfp_eliminate_matches_oracles(self):
        rng = np.random.default_rng(16)
        for p in (2, 3, 7, 2**31 - 1):
            for _ in range(80):
                n_rows, n_cols = (int(v) for v in rng.integers(1, 5, size=2))
                rows = rng.integers(-10**12, 10**12, size=(n_rows, n_cols)).tolist()
                if rng.random() < 0.3:
                    rows[-1] = [v + p * 5 for v in rows[0]]
                (rank,), (det,) = gfp_eliminate([rows], p)
                assert rank == minor_rank(rows, p)
                assert det == (perm_det(rows) % p if n_rows == n_cols else 0)

    @pytest.mark.parametrize("p", [2, 3, 7, 2**31 - 1])
    def test_gfp_eliminate_mixed_rank_stack(self, p):
        # One call over 4x4 matrices of rational rank 0 to 4, rows shuffled so
        # that pivots need swaps, entries shifted by p * 10**20 beyond int64.
        rng = np.random.default_rng(17)
        stack = []
        for target in range(5):
            for _ in range(6):
                left = rng.integers(-9, 10, size=(4, target))
                rows = (left @ rng.integers(-9, 10, size=(target, 4))).tolist()
                rng.shuffle(rows)
                stack.append([[v + p * 10**20 for v in row] for row in rows])
        ranks, dets = gfp_eliminate(stack, p)
        assert ranks.tolist() == [minor_rank(rows, p) for rows in stack]
        assert dets.tolist() == [int(perm_det(rows) % p) for rows in stack]

    def test_empty_matrix(self):
        assert bareiss([]) == (0, 1)
        ranks, dets = gfp_eliminate(np.zeros((1, 0, 0), dtype=np.int64), 5)
        assert (ranks.tolist(), dets.tolist()) == ([0], [1])


class TestStoredForm:
    """A rational matrix is int numerators over one positive denominator, in lowest terms."""

    @pytest.mark.parametrize(
        "field, entries, p, denominator, error",
        [
            (RATIONAL, (Fraction(1, 2), 0), None, 1, FieldMismatchError),
            (RATIONAL, (True, 0), None, 1, FieldMismatchError),
            (RATIONAL, (1, 2), None, 0, DomainError),
            (RATIONAL, (1, 2), None, -2, DomainError),
            (RATIONAL, (1, 2), None, 2.0, DomainError),
            (RATIONAL, (2, 4), None, 2, DomainError),
            (GFP, (1, 2), 5, 3, DomainError),
            (COMPLEX, (1j, 0j), None, 3, DomainError),
            (GFP, (7, 3), 5, 1, DomainError),
            (GFP, (0, -3), 5, 1, DomainError),
            (GFP, (1.5, 2), 5, 1, FieldMismatchError),
            (GFP, (True, 0), 5, 1, FieldMismatchError),
        ],
        ids=[
            "fraction", "bool", "zero", "negative", "float", "not-reduced", "gfp", "complex",
            "gfp-above-p", "gfp-negative", "gfp-float", "gfp-bool",
        ],
    )
    def test_constructor_rejects(self, field, entries, p, denominator, error):
        with pytest.raises(error):
            StateMatrix(1, 2, field, entries, p, denominator)

    def test_equal_from_every_route(self):
        half_third = matrix_of_state([Fraction(1, 2), Fraction(1, 3)], 1, 2)
        assert (half_third.entries, half_third.denominator) == ((3, 2), 6)
        decoded = matrix_from_json_dict({"rows": 1, "cols": 2, "field": RATIONAL, "entries": ["1/2", "2/6"]})
        halved = combine([rational([[2, 4]])], [Fraction(1, 2)])
        assert (halved.entries, halved.denominator) == ((1, 2), 1)
        summed = combine([rational([[1, 2]])] * 2, [Fraction(1, 4), Fraction(1, 4)])
        assert (summed.entries, summed.denominator) == ((1, 2), 2)
        for a, b in [
            (decoded, half_third),
            (half_third.transpose().transpose(), half_third),
            (halved, rational([[1, 2]])),
            (summed, matrix_of_state([Fraction(1, 2), 1], 1, 2)),
        ]:
            assert a == b and hash(a) == hash(b)

    def test_values_are_fractions(self):
        m = rational([[Fraction(1, 2), 3], [0, Fraction(-5, 4)]])
        assert (m.entries, m.denominator) == ((2, 12, 0, -5), 4)
        assert m.at(1, 1) == Fraction(-5, 4) and type(m.at(0, 1)) is Fraction
        assert m.to_lists() == [[Fraction(1, 2), 3], [0, Fraction(-5, 4)]]
        assert all(type(v) is Fraction for v in state_of_matrix(m))
        assert m._nonzero == ((0, 2), (1, 12), (3, -5))

    def test_gfp_routes_reduce_into_range(self):
        decoded = matrix_from_json_dict({"rows": 1, "cols": 2, "field": GFP, "p": 5, "entries": [7, -3]})
        assert decoded.entries == StateMatrix.gfp([[7, -3]], 5).entries == (2, 2)
        assert combine([StateMatrix.gfp([[1, 4]], 5)], [-3]).entries == (2, 3)

    def test_bools_rejected(self):
        with pytest.raises(FieldMismatchError):
            StateMatrix.rational([[True, False]])
        with pytest.raises(FieldMismatchError):
            StateMatrix.gfp([[True]], 5)
        with pytest.raises(FieldMismatchError):
            combine([rational([[1, 2]])], [True])


class TestJson:
    def test_rational_round_trip(self):
        m = rational([[Fraction(1, 2), 3], [-4, Fraction(-5, 7)]])
        d = to_json(m)
        assert d["field"] == RATIONAL
        assert d["entries"][0] == "1/2"
        assert matrix_from_json_dict(d) == m

    def test_complex_round_trip(self):
        m = StateMatrix.complex_([[1 + 2j, 0], [0.5, -1j]])
        d = to_json(m)
        assert d["entries"][0] == [1.0, 2.0]
        assert matrix_from_json_dict(d) == m

    def test_gfp_round_trip(self):
        m = StateMatrix.gfp([[1, 2], [3, 4]], p=5)
        d = to_json(m)
        assert d["p"] == 5
        assert matrix_from_json_dict(d) == m


def _block_matrix(rng, fractional):
    """Rows and columns cut into up to three blocks of random rank, zero rows added, all shuffled."""
    n_blocks = int(rng.integers(1, 4))
    shapes = [(int(rng.integers(1, 3)), int(rng.integers(1, 3))) for _ in range(n_blocks)]
    n_rows = sum(a for a, _ in shapes) + int(rng.integers(0, 2))
    n_cols = sum(b for _, b in shapes)
    rows = [[Fraction(0)] * n_cols for _ in range(n_rows)]
    row_ids, col_ids = iter(rng.permutation(n_rows).tolist()), iter(rng.permutation(n_cols).tolist())

    def draw():
        v = Fraction(int(rng.integers(-3, 4)))
        return v / int(rng.integers(1, 5)) if fractional else v

    for a, b in shapes:
        # a rank-k product, so some blocks are rank-deficient
        k = int(rng.integers(0, min(a, b) + 1))
        left = [[draw() for _ in range(k)] for _ in range(a)]
        right = [[draw() for _ in range(b)] for _ in range(k)]
        ri, ci = [next(row_ids) for _ in range(a)], [next(col_ids) for _ in range(b)]
        for x, i in enumerate(ri):
            for y, j in enumerate(ci):
                rows[i][j] = sum((left[x][t] * right[t][y] for t in range(k)), Fraction(0))
    return rows


class TestBlockRank:
    @pytest.mark.parametrize("fractional", [False, True], ids=["integer", "fractional"])
    def test_matches_minor_oracle(self, fractional):
        rng = np.random.default_rng(61 + fractional)
        for _ in range(60):
            rows = _block_matrix(rng, fractional)
            assert rank_exact(rational(rows)) == minor_rank(rows)

    def test_cells_of_integer_rows(self):
        rng = np.random.default_rng(63)
        for _ in range(60):
            rows = [[int(v) for v in row] for row in _block_matrix(rng, False)]
            width = len(rows[0])
            cells = [(i * width + j, v) for i, row in enumerate(rows) for j, v in enumerate(row) if v]
            assert block_rank(cells, width) == minor_rank(rows)

    def test_rows_linked_through_a_third_row_share_a_block(self):
        # Rows 0 and 2 share no column; row 1 links them, and the rank is 2, not 3.
        rows = [[1, 1, 0], [0, 1, 1], [1, 0, -1]]
        cells = [(i * 3 + j, v) for i, row in enumerate(rows) for j, v in enumerate(row) if v]
        assert block_rank(cells, 3) == minor_rank(rows) == 2

    def test_empty_and_zero(self):
        assert block_rank([], 4) == 0
        assert rank_exact(StateMatrix.zero(3, 2)) == 0

    def test_one_elimination_per_block(self, monkeypatch):
        # diag(A, B) with A 2x2 of rank 1 and B 1x2: two eliminations, each on its own columns.
        calls = []

        def counting(rows):
            calls.append((len(rows), len(rows[0])))
            return bareiss(rows)

        monkeypatch.setattr(statemat, "bareiss", counting)
        m = rational([[1, 2, 0, 0], [2, 4, 0, 0], [0, 0, 3, 5]])
        assert rank_exact(m) == 2
        assert sorted(calls) == [(1, 2), (2, 2)]
