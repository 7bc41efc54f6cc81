import itertools
from fractions import Fraction

import numpy as np
import pytest

from entspan import statemat
from entspan.errors import DimensionError, DomainError, EntspanError, FieldMismatchError, NumericError
from entspan.statemat import (
    COMPLEX,
    RATIONAL,
    StateMatrix,
    bareiss,
    block_rank,
    combine,
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
        assert schmidt_rank_numeric(m, 1e-9) == 2

    def test_outer_product_is_rank_one(self):
        u = np.array([1.0, 2.0, -0.5])
        v = np.array([0.3, 1.0, 2.0, -1.0])
        m = StateMatrix.complex_(np.outer(u, v).tolist())
        assert schmidt_rank_numeric(m) == 1

    def test_tiny_singular_value_below_tolerance(self):
        m = StateMatrix.complex_([[1, 0], [0, 1e-14]])
        assert schmidt_rank_numeric(m, 1e-9) == 1

    def test_zero_matrix(self):
        m = StateMatrix.complex_([[0, 0]] * 3)
        assert schmidt_rank_numeric(m) == 0

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-9])
    def test_tolerance_outside_0_inf_refused(self, tol):
        # NaN and inf passed a "tol <= 0" test and gave the identity rank 0.
        with pytest.raises(DomainError, match="positive and finite"):
            schmidt_rank_numeric(StateMatrix.complex_([[1, 0], [0, 1]]), tol)

    def test_nonfinite_entries(self):
        with pytest.raises(NumericError):
            StateMatrix.complex_([[1, float("inf")], [0, 1]])
        with pytest.raises(NumericError):  # built directly, so no entry was coerced
            schmidt_rank_numeric(StateMatrix(1, 2, COMPLEX, (1j, complex("nan"))))
        for c in (float("nan"), float("inf")):
            with pytest.raises(NumericError):  # on a zero matrix, so no entry of the combination is non-finite
                combine([StateMatrix.complex_([[0, 0]]), StateMatrix.complex_([[1, 0]])], [c, 1])

    def test_entries_near_overflow(self):
        # The largest singular value, 2e308, overflows unless the matrix is
        # scaled first; it read rank 0 with singular values (inf, 0).
        m = StateMatrix.complex_([[1e308, 1e308], [1e308, 1e308]])
        assert schmidt_rank_numeric(m) == 1
        assert schmidt_rank_numeric(StateMatrix.complex_([[1e308, 0], [0, -1e308]])) == 2

    def test_rank_invariant_under_power_of_two_scaling(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            a = np.outer(rng.standard_normal(3), rng.standard_normal(4)) + 1j * np.eye(3, 4)
            rank = schmidt_rank_numeric(StateMatrix.complex_(a.tolist()))
            for shift in (-1000, -600, 600, 1020):
                scaled = schmidt_rank_numeric(StateMatrix.complex_(np.ldexp(a.real, shift) + 1j * np.ldexp(a.imag, shift)))
                assert scaled == rank

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
            assert schmidt_rank_numeric(m) == rank_exact(m)


class TestRankExact:
    def test_proportional_rows(self):
        assert rank_exact(rational([[1, 2], [2, 4]])) == 1

    def test_zero_matrix(self):
        assert rank_exact(rational([[0] * 4] * 3)) == 0

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

    def test_numeric_agrees_with_exact_500_trials(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            dA, dB = rng.integers(1, 7, size=2)
            rows = rng.integers(-9, 10, size=(dA, dB)).tolist()
            exact = rank_exact(rational(rows))
            numeric = schmidt_rank_numeric(StateMatrix.complex_(rows), 1e-9)
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
            if not any(m.entries):
                continue
            rank = rank_exact(m)
            for r in range(1, min(m.rows, m.cols) + 1):
                assert (rank < r) == all_minors_vanish(rows, r)


def _draw_scalar(rng, field):
    """A seeded scalar of the field, zero about a third of the time."""
    if rng.random() < 1 / 3:
        return 0
    if field == RATIONAL:
        return Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7)))
    return complex(*rng.standard_normal(2))


class TestCombineAndMinorValue:
    @pytest.mark.parametrize("field", [RATIONAL, COMPLEX], ids=["rational", "complex"])
    def test_combine_matches_dense_sum(self, field):
        rng = np.random.default_rng(17)
        for _ in range(10):
            rows, cols = (int(v) for v in rng.integers(1, 5, size=2))
            pool = [
                StateMatrix.from_rows([[_draw_scalar(rng, field) for _ in range(cols)] for _ in range(rows)], field)
                for _ in range(4)
            ]
            # Each pool matrix serves several calls, some twice in one call,
            # so its cached nonzero cells are reused.
            for _ in range(6):
                picks = [pool[int(i)] for i in rng.integers(0, len(pool), size=int(rng.integers(1, 6)))]
                coeffs = [_draw_scalar(rng, field) for _ in picks]
                got = combine(picks, coeffs)
                values = [state_of_matrix(m) for m in picks]
                for k, value in enumerate(state_of_matrix(got)):
                    assert value == sum(c * v[k] for c, v in zip(coeffs, values))
                    assert type(value) is {RATIONAL: Fraction, COMPLEX: complex}[field]

    def test_minor_value_matches_oracle(self):
        rng = np.random.default_rng(13)
        rows = rng.integers(-6, 7, size=(4, 4)).tolist()
        m = rational(rows)
        value = minor_value(m, (0, 2, 3), (1, 2, 3))
        assert value == perm_det([[rows[i][j] for j in (1, 2, 3)] for i in (0, 2, 3)])

    def test_minor_value_fractional(self):
        rows = [[Fraction(1, 2), Fraction(2, 3), 1], [3, Fraction(-1, 4), 0], [Fraction(5, 7), 2, -1]]
        assert minor_value(rational(rows), (0, 1, 2), (0, 1, 2)) == perm_det(rows)

    def test_minor_value_refuses_complex(self):
        with pytest.raises(FieldMismatchError, match="exact field"):
            minor_value(StateMatrix.complex_([[1, 2j], [3, 4]]), (0, 1), (0, 1))


class TestElimination:
    """The Bareiss elimination against the permutation-expansion oracles."""

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

    def test_empty_matrix(self):
        assert bareiss([]) == (0, 1)


class _IntSubclass(int):
    pass


class TestStoredForm:
    """A rational matrix is int numerators over one positive denominator, in lowest terms."""

    @pytest.mark.parametrize(
        "field, entries, denominator, error",
        [
            (RATIONAL, (Fraction(1, 2), 0), 1, FieldMismatchError),
            (RATIONAL, (True, 0), 1, FieldMismatchError),
            (RATIONAL, (1.0, 0), 1, FieldMismatchError),
            (RATIONAL, (np.int64(1), 0), 1, FieldMismatchError),
            (RATIONAL, ("1", 0), 1, FieldMismatchError),
            (RATIONAL, (None, 0), 1, FieldMismatchError),
            (RATIONAL, (_IntSubclass(1), 0), 1, FieldMismatchError),
            (RATIONAL, (1, 2), 0, DomainError),
            (RATIONAL, (1, 2), -2, DomainError),
            (RATIONAL, (1, 2), 2.0, DomainError),
            (RATIONAL, (2, 4), 2, DomainError),
            (COMPLEX, (1j, 0j), 3, DomainError),
            # Each built: the first left a basis of it to raise a bare ValueError, the second wrote a bare inf.
            (COMPLEX, ("a", float("nan")), 1, FieldMismatchError),
            (COMPLEX, (1 + 0j, float("inf")), 1, FieldMismatchError),
            (COMPLEX, (1j, np.complex128(1)), 1, FieldMismatchError),
            (COMPLEX, (1j, complex("inf")), 1, NumericError),
            (COMPLEX, (1j, complex(0, float("nan"))), 1, NumericError),
            ("gfp", (1, 2), 1, DomainError),
        ],
        ids=[
            "fraction", "bool", "float_entry", "numpy_int", "str", "none", "int_subclass", "zero", "negative", "float",
            "not-reduced", "complex", "complex_str", "complex_float_inf", "complex_numpy", "complex_inf", "complex_nan", "gfp",
        ],
    )
    def test_constructor_rejects(self, field, entries, denominator, error):
        with pytest.raises(error):
            StateMatrix(1, 2, field, entries, denominator)

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
        assert m.to_lists() == [[Fraction(1, 2), 3], [0, Fraction(-5, 4)]]
        assert all(type(v) is Fraction for v in state_of_matrix(m))
        assert m._nonzero == ((0, 2), (1, 12), (3, -5))

    def test_bools_rejected(self):
        with pytest.raises(FieldMismatchError):
            StateMatrix.rational([[True, False]])
        with pytest.raises(FieldMismatchError):
            combine([rational([[1, 2]])], [True])

    def test_numpy_ints_become_plain_ints(self):
        # Only plain ints skip the isinstance tests; numpy ints still pass them and are converted.
        assert StateMatrix.rational([[np.int64(3), -2]]).entries == (3, -2)
        assert {type(v) for v in combine([rational([[1, 2]])], [np.int64(3)]).entries} == {int}

    @pytest.mark.parametrize(
        "value", ["1+2j", b"1", True, np.bool_(False), None], ids=["str", "bytes", "bool", "numpy_bool", "none"]
    )
    def test_complex_takes_only_numbers(self, value):
        # complex() parses "1+2j" and reads True as 1; this built (1+2j, 1+0j).
        with pytest.raises(FieldMismatchError):
            StateMatrix.complex_([[1j, value]])
        with pytest.raises(FieldMismatchError):
            combine([StateMatrix.complex_([[1j]])], [value])
        assert StateMatrix.complex_([[1, 2.5, np.complex128(1j), np.int64(3)]]).entries == (1, 2.5, 1j, 3)


def _bad_entry(text):
    return f"bad rational entry {text}; use an int or an 'n' or 'n/d' string"


#: Entries of a 2x2 rational matrix the loader refuses: (entries, exact error type, message).
#: An entry that is neither an int nor an "n/d" text is named before a wrong entry count.
_REFUSED_ENTRIES = {
    "bool": ([1, True, 0, 1], DomainError, _bad_entry("True")),
    "float": ([1, 1.0, 0, 1], DomainError, _bad_entry("1.0")),
    "nested_list": ([1, [1], 0, 1], DomainError, _bad_entry("[1]")),
    "exponent_text": ([1, "1e5", 0, 1], DomainError, _bad_entry("'1e5'")),
    "wrong_count": ([1, 0, 0], DimensionError, "2x2 matrix needs one entry per cell, got 3 entries"),
    "mixed_int_text_wrong_count": ([1, "1/2", 0, 1, 5], DimensionError, "2x2 matrix needs one entry per cell, got 5 entries"),
    "exponent_text_wrong_count": ([1, "1e5", 0], DomainError, _bad_entry("'1e5'")),
    "float_wrong_count": ([1.0, 0, 0], DomainError, _bad_entry("1.0")),
}


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

    def test_plain_scalars_come_back_unchanged(self):
        for value in (True, None, 1.5, "x", 7, 2**70):
            assert to_json(value) is value
        assert to_json((Fraction(1, 2), 2j, (3, (Fraction(-4, 6), False)))) == ["1/2", [0.0, 2.0], [3, ["-2/3", False]]]
        assert to_json({"k": (np.float64(0.5), Fraction(5))}) == {"k": [0.5, "5/1"]}

    @pytest.mark.parametrize("case", sorted(_REFUSED_ENTRIES))
    def test_loader_refusals(self, case):
        entries, error, message = _REFUSED_ENTRIES[case]
        with pytest.raises(EntspanError) as exc:
            matrix_from_json_dict({"rows": 2, "cols": 2, "field": RATIONAL, "entries": entries})
        assert (type(exc.value), str(exc.value)) == (error, message)


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


def _cells(rows):
    """Each row as its nonzero (column, value) cells, the form ``block_rank`` takes."""
    return [[(j, v) for j, v in enumerate(row) if v] for row in rows]


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
            assert block_rank(_cells(rows)) == minor_rank(rows)

    def test_rows_linked_through_a_third_row_share_a_block(self):
        # Rows 0 and 2 share no column; row 1 links them, and the rank is 2, not 3.
        rows = [[1, 1, 0], [0, 1, 1], [1, 0, -1]]
        assert block_rank(_cells(rows)) == minor_rank(rows) == 2

    def test_late_row_links_three_blocks(self, monkeypatch):
        # Rows 0-3 make three blocks of rank 1 each (row 1 doubles row 0), and row 4 a fourth on
        # column 3.  The last row is the sum of rows 0, 2 and 3: it touches each of the first three
        # blocks, so they go to one elimination with it, and the rank is 4.  Ranked apart from any
        # one of those blocks, the last row would count as independent.
        rows = [
            [1, 2, 0, 0, 0, 0],
            [2, 4, 0, 0, 0, 0],
            [0, 0, 3, 0, 0, 0],
            [0, 0, 0, 0, 5, 7],
            [0, 0, 0, 9, 0, 0],
            [0, 0, 0, 0, 0, 0],
            [1, 2, 3, 0, 5, 7],
        ]
        calls = []

        def counting(block):
            calls.append((len(block), len(block[0])))
            return bareiss(block)

        monkeypatch.setattr(statemat, "bareiss", counting)
        assert block_rank(_cells(rows)) == minor_rank(rows) == 4
        assert sorted(calls) == [(1, 1), (5, 5)]

    def test_empty_and_zero(self):
        assert block_rank([]) == block_rank([[], []]) == 0
        assert rank_exact(rational([[0, 0]] * 3)) == 0

    def test_one_elimination_per_block(self, monkeypatch):
        # diag(A, B) with A 2x2 of rank 1 and B 1x2: two eliminations, each on its own columns.
        calls = []

        def counting(rows):
            calls.append((len(rows), len(rows[0])))
            return bareiss(rows)

        monkeypatch.setattr(statemat, "bareiss", counting)
        rows = [[1, 2, 0, 0], [2, 4, 0, 0], [0, 0, 3, 5]]
        assert block_rank(_cells(rows)) == 2
        assert sorted(calls) == [(1, 2), (2, 2)]

    def test_rows_of_one_support_keep_their_block(self, monkeypatch):
        # Supports {0, 1} twice, {1, 2} and {2, 3} chain into one block; {5} twice is a second block
        # and the empty rows none.  Columns are numbered as they first appear, so the first row's
        # support leads the block's columns.
        rows = [
            [(1, 1), (0, 2)],
            [(5, 3)],
            [],
            [(1, 2), (2, 1)],
            [(1, 2), (0, 4)],
            [(2, 1), (3, -1)],
            [(5, -6)],
            [],
        ]
        blocks = []

        def recording(block):
            blocks.append(block)
            return bareiss(block)

        monkeypatch.setattr(statemat, "bareiss", recording)
        assert block_rank(rows) == 4
        assert blocks == [
            [[1, 2, 0, 0], [2, 4, 0, 0], [2, 0, 1, 0], [0, 0, 1, -1]],
            [[3], [-6]],
        ]

    def test_rank_exact_is_one_elimination(self, monkeypatch):
        # A matrix goes to bareiss in one call, as its nonzero numerator rows, whatever its blocks;
        # with more such rows than columns, as the transpose's nonzero rows.
        calls = []

        def counting(rows):
            calls.append([list(row) for row in rows])
            return bareiss(rows)

        monkeypatch.setattr(statemat, "bareiss", counting)
        m = rational([[Fraction(1, 2), 1, 0, 0], [0, 0, 0, 0], [1, 2, 0, 0], [0, 0, 3, 5]])
        assert rank_exact(m) == 2
        assert calls == [[[1, 2, 0, 0], [2, 4, 0, 0], [0, 0, 6, 10]]]
        calls.clear()
        tall = rational([[1, 0, 2], [0, 0, 0], [3, 0, 6], [5, 0, 1], [4, 0, 4]])
        assert rank_exact(tall) == 2
        assert calls == [[[1, 3, 5, 4], [2, 6, 1, 4]]]
