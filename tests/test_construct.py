import collections
import itertools
import json
import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from entspan.construct import (
    KIND_FIXED_RANK,
    SAMPLE_BOX,
    SubspaceBasis,
    _self_check_rank_floor,
    antisymmetric_basis_3x3,
    basis_from_json_dict,
    basis_stack_rank,
    coeff_stream,
    construct_fixed_rank_subspace,
    construct_max_rank_leq_subspace,
    construct_min_rank_subspace,
    default_tns,
    diagonals,
    draw_coeffs,
    draw_normals,
    random_subspace,
)
from entspan import statemat
from entspan.errors import CertificateError, DimensionError, DomainError
from entspan.statemat import COMPLEX, RATIONAL, StateMatrix, rank_exact, to_json
from oracles import diagonal_of, minor_rank, perm_det

GRID = [
    (dA, dB, r)
    for dA in range(2, 9)
    for dB in range(dA, 9)
    for r in range(2, dA + 1)
]

#: The main-diagonal generators of the 3x3 r=2 basis: nodes 1, 2, 3 to the powers 0 and 1.
ONES, NODES = [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 2, 0], [0, 0, 3]]


class TestDiagonals:
    def test_3x4_lengths(self):
        lens = [d.length for d in diagonals(3, 4)]
        assert lens == [1, 2, 3, 3, 2, 1]

    def test_1x5_all_length_one(self):
        ds = diagonals(1, 5)
        assert len(ds) == 5
        assert all(d.length == 1 for d in ds)

    def test_3x3_lengths(self):
        assert [d.length for d in diagonals(3, 3)] == [1, 2, 3, 2, 1]

    def test_k_labels_increase_lower_left_to_upper_right(self):
        ds = diagonals(3, 4)
        assert [d.k for d in ds] == [-2, -1, 0, 1, 2, 3]
        assert ds[0].cells == ((2, 0),)
        assert ds[-1].cells == ((0, 3),)

    @pytest.mark.parametrize("dA,dB", [(1, 1), (2, 5), (5, 2), (4, 4), (3, 7), (6, 3)])
    def test_structural_invariants(self, dA, dB):
        ds = diagonals(dA, dB)
        assert len(ds) == dA + dB - 1
        assert sum(d.length for d in ds) == dA * dB
        for d in ds:
            assert d.length == min(dA, dB, dA + d.k, dB - d.k)
            assert d.cells == tuple((i, i + d.k) for i, _ in d.cells)
            rows = [i for i, _ in d.cells]
            assert rows == sorted(rows)

    def test_full_length_count_matches_shape(self):
        for dA, dB in [(3, 4), (2, 7), (5, 5)]:
            lens = [d.length for d in diagonals(dA, dB)]
            assert lens.count(dA) == 1 + dB - dA
            for short in range(1, dA):
                assert lens.count(short) == 2

    def test_bad_dims(self):
        with pytest.raises(DimensionError):
            diagonals(0, 3)


def _family(k):
    """The generators of the 3x3 r=2 basis on diagonal k, in basis order, and that diagonal."""
    diag = next(d for d in diagonals(3, 3) if d.k == k)
    basis = construct_min_rank_subspace(3, 3, 2)
    return [m for m in basis.matrices if any(m.to_lists()[i][j] for i, j in diag.cells)], diag


class TestBuildDiagonalFamily:
    def test_length_equals_r_single_matrix(self):
        fam, diag = _family(1)  # length 2
        assert len(fam) == 1
        values = [fam[0].to_lists()[i][j] for i, j in diag.cells]
        assert all(v != 0 for v in values)

    def test_3x3_k0_r2_gives_both_vandermonde_columns(self):
        fam, _ = _family(0)
        assert len(fam) == 2
        assert [fam[0].to_lists()[i][i] for i in range(3)] == [1, 1, 1]
        assert [fam[1].to_lists()[i][i] for i in range(3)] == [1, 2, 3]

    def test_random_combinations_keep_r_nonzeros_on_diagonal(self):
        fam, _ = _family(0)
        nodes0, nodes1 = ([f.to_lists()[i][i] for i in range(3)] for f in fam)
        rng = coeff_stream(31)
        for _ in range(500):
            a, b = draw_coeffs(rng, 2)
            combo = [a * x + b * y for x, y in zip(nodes0, nodes1)]
            assert sum(1 for v in combo if v != 0) >= 2

    def test_short_diagonal_contributes_nothing(self):
        assert _family(2)[0] == []  # length 1


class TestMinRankConstruction:
    def test_3x3_r2_dimension(self):
        assert construct_min_rank_subspace(3, 3, 2).dimension == 4

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_full_rank_case_is_one_dimensional(self, d):
        basis = construct_min_rank_subspace(d, d, d)
        assert basis.dimension == 1
        assert rank_exact(basis.matrices[0]) == d

    def test_4x5_r3_dimension(self):
        assert construct_min_rank_subspace(4, 5, 3).dimension == 6

    def test_r_out_of_range(self):
        with pytest.raises(DomainError):
            construct_min_rank_subspace(3, 3, 5)
        with pytest.raises(DomainError):
            construct_min_rank_subspace(3, 3, 1)

    def test_grid_dimension_identity(self):
        for dA, dB, r in GRID:
            lens = [d.length for d in diagonals(dA, dB)]
            counting = sum(max(0, length - r + 1) for length in lens)
            assert counting == (dA - r + 1) * (dB - r + 1)
            assert construct_min_rank_subspace(dA, dB, r).dimension == counting

    def test_grid_linear_independence(self):
        for dA, dB, r in GRID:
            basis = construct_min_rank_subspace(dA, dB, r)
            assert basis_stack_rank(basis) == basis.dimension

    def test_support_disjoint_across_diagonals(self):
        basis = construct_min_rank_subspace(4, 5, 2)
        supports = {}
        for m in basis.matrices:
            k = diagonal_of(m)
            cells = frozenset((i, j) for i, row in enumerate(m.to_lists()) for j, v in enumerate(row) if v != 0)
            supports.setdefault(k, set()).update(cells)
            assert all(j - i == k for i, j in cells)
        ks = sorted(supports)
        for a in ks:
            for b in ks:
                if a != b:
                    assert not (supports[a] & supports[b])

    def test_transposition_symmetry(self):
        for dA, dB, r in [(3, 5, 2), (2, 6, 2), (4, 5, 3)]:
            fwd = construct_min_rank_subspace(dA, dB, r)
            rev = construct_min_rank_subspace(dB, dA, r)
            assert fwd.dimension == rev.dimension
            fwd_set = {m.transpose().entries for m in fwd.matrices}
            rev_set = {m.entries for m in rev.matrices}
            assert fwd_set == rev_set

    def test_generators_written_as_ints(self, monkeypatch):
        # No generator entry goes through the coercion of passed-in values.
        def refuse(*args):
            raise AssertionError(f"coerced {args!r:.60}")

        monkeypatch.setattr(statemat, "_coerce_entry", refuse)
        monkeypatch.setattr(statemat, "matrix_of_state", refuse)
        assert construct_min_rank_subspace(6, 7, 3).dimension == 20

    def test_integer_entries(self):
        basis = construct_min_rank_subspace(5, 6, 3)
        for m in basis.matrices:
            assert m.denominator == 1

    def test_sampled_combinations_have_rank_at_least_r(self):
        rng = coeff_stream(32)
        for dA, dB, r in [(3, 3, 2), (4, 5, 3), (2, 4, 2)]:
            basis = construct_min_rank_subspace(dA, dB, r)
            for _ in range(100):
                coeffs = draw_coeffs(rng, basis.dimension)
                assert rank_exact(basis.combination(coeffs)) >= r


class TestSelfCheck:
    def test_fires_when_combinations_fall_below_r(self):
        # Every combination of the r=1 Flanders basis has rank at most 1.
        with pytest.raises(CertificateError, match=r"diagonal 0: its matrix 0 does not read node\*\*0"):
            _self_check_rank_floor(construct_max_rank_leq_subspace(3, 3, 1), 2)

    def test_fires_on_a_basis_with_a_rank_3_element(self):
        # Row 7 copied from row 6 in the five main-diagonal generators: still
        # a basis, but (x-1)(x-2)(x-3)(x-7) vanishes at four of the nodes 1..8
        # and row 7 repeats row 6's zero, leaving three nonzero entries.
        basis = construct_min_rank_subspace(8, 8, 4)
        matrices = list(basis.matrices)
        main = [n for n, m in enumerate(matrices) if m.to_lists()[0][0]]
        assert len(main) == 5
        for n in main:
            rows = matrices[n].to_lists()
            rows[7] = rows[6]
            matrices[n] = StateMatrix.rational(rows)
        mutated = replace(basis, matrices=tuple(matrices))
        coeffs = [0] * mutated.dimension
        for n, c in zip(main, (42, -83, 53, -13, 1)):
            coeffs[n] = c
        assert rank_exact(mutated.combination(coeffs)) == 3
        with pytest.raises(CertificateError, match=r"is not on one diagonal: it has cells on diagonals \[-1, 0\]"):
            _self_check_rank_floor(mutated, 4)

    @pytest.mark.parametrize(
        "main, witness, match",
        [
            ([[[1, 0, 5], [0, 1, 0], [0, 0, 1]], NODES], None, r"matrix 1 .* on diagonals \[0, 2\]"),
            ([ONES, NODES, [[1, 0, 0], [0, 4, 0], [0, 0, 9]]], [6, -5, 1], "diagonal 0 of length 3 holds 3 matrices, more than 2"),
            ([ONES, [[1, 0, 0], [0, 2, 0], [0, 0, 2]]], [-2, 1], "diagonal 0 repeats a node: 1, 2, 2"),
            ([NODES, [[1, 0, 0], [0, 4, 0], [0, 0, 9]]], None, r"diagonal 0: its matrix 0 does not read node\*\*0"),
        ],
        ids=["extra_cell", "third_generator", "repeated_node", "not_powers"],
    )
    def test_fires_on_edited_main_diagonal(self, main, witness, match):
        # The 3x3 r=2 basis with its two main-diagonal generators replaced;
        # a witness is a combination of the replacements with rank 1.
        first, *_, last = construct_min_rank_subspace(3, 3, 2).matrices
        basis = SubspaceBasis(3, 3, 2, "user", (first, *map(StateMatrix.rational, main), last))
        if witness:
            assert rank_exact(basis.combination([0, *witness, 0])) == 1
        with pytest.raises(CertificateError, match=match):
            _self_check_rank_floor(basis, 2)

    @pytest.mark.parametrize(
        "squares, holds",
        [(["1/4", 1, "9/4"], True), (["1/2", 2, "9/2"], False), ([1, 4, 9], False)],
        ids=["powers", "scaled_powers", "integer_squares"],
    )
    def test_rational_nodes(self, squares, holds):
        # Nodes 1/2, 1, 3/2 on the 3x3 main diagonal: the third matrix must read their
        # squares, whose denominator differs from the nodes'.
        diagonal = [["1/2", 1, "3/2"], squares]
        main = [ONES, *([[v if i == j else 0 for j in range(3)] for i, v in enumerate(d)] for d in diagonal)]
        matrices = tuple(StateMatrix.rational([[Fraction(v) for v in row] for row in m]) for m in main)
        basis = SubspaceBasis(3, 3, 1, "user", matrices)
        if holds:
            _self_check_rank_floor(basis, 1)
        else:
            with pytest.raises(CertificateError, match=r"diagonal 0: its matrix 2 does not read node\*\*2"):
                _self_check_rank_floor(basis, 1)

    def test_zero_count_by_minor_rank_up_to_5(self):
        # The lemma the proof rests on, by brute force: on each diagonal any
        # L - r + 1 of its L cells carry a nonsingular block of its L - r + 1
        # generators, so a nonzero combination vanishes on at most L - r cells.
        for dA, dB, r in GRID:
            if dB > 5:
                continue
            basis = construct_min_rank_subspace(dA, dB, r)
            for diag in diagonals(dA, dB):
                family = [m for m in basis.matrices if any(m.to_lists()[i][j] for i, j in diag.cells)]
                assert len(family) == max(0, diag.length - r + 1)
                block = [[m.to_lists()[i][j] for m in family] for i, j in diag.cells]
                for rows in itertools.combinations(block, len(family)):
                    assert minor_rank(list(rows)) == len(family)


class TestVandermonde:
    def test_nodes_123(self):
        v = default_tns(3)
        assert v.to_lists() == [[1, 1, 1], [1, 2, 4], [1, 3, 9]]
        assert v.field == RATIONAL and v.denominator == 1

    def test_single_node(self):
        assert default_tns(1).to_lists() == [[1]]

    def test_all_69_minors_nonzero(self):
        v = default_tns(4)
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
            rows = default_tns(m).to_lists()
            for order in range(1, m + 1):
                for ri in itertools.combinations(range(m), order):
                    for ci in itertools.combinations(range(m), order):
                        assert perm_det([[rows[i][j] for j in ci] for i in ri]) > 0

    def test_3_node_minors_nonzero(self):
        rows = default_tns(3).to_lists()
        for order in range(1, 4):
            for ri in itertools.combinations(range(3), order):
                for ci in itertools.combinations(range(3), order):
                    assert perm_det([[rows[i][j] for j in ci] for i in ri]) != 0

    def test_every_square_submatrix_has_nonzero_minors_up_to_4(self):
        for m in range(2, 5):
            rows = default_tns(m).to_lists()
            for order in range(1, m + 1):
                for ri in itertools.combinations(range(m), order):
                    for ci in itertools.combinations(range(m), order):
                        sub = [[rows[i][j] for j in ci] for i in ri]
                        for o in range(1, order + 1):
                            for si in itertools.combinations(range(order), o):
                                for sj in itertools.combinations(range(order), o):
                                    assert perm_det([[sub[i][j] for j in sj] for i in si]) != 0

    def test_single_column_combination_has_no_zero_entry(self):
        v = default_tns(3)
        for col in range(3):
            for c in (-9, -1, 1, 7):
                assert all(row[col] * c != 0 for row in v.to_lists())

    def test_random_column_pairs_vanish_at_most_once(self):
        # Two columns of the 3-node Vandermonde matrix: a nonzero combination
        # vanishes on at most n - 1 = 1 of the m = 3 rows.
        v = default_tns(3)
        rng = np.random.default_rng(21)
        for _ in range(500):
            a, b = (int(c) for c in rng.integers(-9, 10, size=2))
            if a == b == 0:
                a = 1
            combo = [a * row[0] + b * row[1] for row in v.to_lists()]
            assert sum(1 for x in combo if x != 0) >= 2

    def test_default_tns_nodes(self):
        assert [row[1] for row in default_tns(3).to_lists()] == [1, 2, 3]


class TestMaxRankConstruction:
    def test_3x4_r2(self):
        basis = construct_max_rank_leq_subspace(3, 4, 2)
        assert basis.dimension == 8
        rng = coeff_stream(33)
        for _ in range(200):
            coeffs = draw_coeffs(rng, 8)
            assert rank_exact(basis.combination(coeffs)) <= 2

    def test_full_rank_gives_whole_space(self):
        basis = construct_max_rank_leq_subspace(3, 5, 3)
        assert basis.dimension == 15

    def test_rank_one(self):
        basis = construct_max_rank_leq_subspace(3, 5, 1)
        assert basis.dimension == 5
        rng = coeff_stream(34)
        for _ in range(100):
            coeffs = draw_coeffs(rng, 5)
            assert rank_exact(basis.combination(coeffs)) == 1

    def test_tall_matrices_use_columns(self):
        basis = construct_max_rank_leq_subspace(5, 3, 2)
        assert basis.dimension == 10  # r * max(dA, dB)
        assert all(j < 2 for m in basis.matrices for row in m.to_lists() for j, v in enumerate(row) if v)
        rng = coeff_stream(35)
        for _ in range(100):
            coeffs = draw_coeffs(rng, 10)
            assert rank_exact(basis.combination(coeffs)) <= 2

    def test_r_out_of_range(self):
        with pytest.raises(DomainError):
            construct_max_rank_leq_subspace(3, 4, 4)

    @pytest.mark.parametrize(
        "build", [lambda: construct_max_rank_leq_subspace(4, 6, 2), antisymmetric_basis_3x3], ids=["flanders", "antisym"]
    )
    def test_units_written_as_ints(self, monkeypatch, build):
        # Like the diagonal construction, no entry goes through the coercion of passed-in values.
        def refuse(*args):
            raise AssertionError(f"coerced {args!r:.60}")

        monkeypatch.setattr(statemat, "_coerce_entry", refuse)
        monkeypatch.setattr(statemat, "matrix_of_state", refuse)
        assert all(m.denominator == 1 for m in build().matrices)


class TestFixedRankConstruction:
    def test_square_case_single_matrix(self):
        assert construct_fixed_rank_subspace(3, 3).dimension == 1

    def test_3x5_meets_lower_bound(self):
        basis = construct_fixed_rank_subspace(3, 5)
        assert basis.dimension == 3  # dB - dA + 1
        assert basis.kind == KIND_FIXED_RANK

    def test_2x4_every_combination_has_rank_exactly_2(self):
        basis = construct_fixed_rank_subspace(2, 4)
        assert basis.dimension == 3
        rng = coeff_stream(36)
        for _ in range(500):
            coeffs = draw_coeffs(rng, 3)
            assert rank_exact(basis.combination(coeffs)) == 2

    def test_orientation_enforced(self):
        with pytest.raises(DomainError):
            construct_fixed_rank_subspace(4, 3)


class TestAntisymmetric:
    def test_basis_size(self):
        assert antisymmetric_basis_3x3().dimension == 3

    def test_single_generator_rank_2(self):
        basis = antisymmetric_basis_3x3()
        assert rank_exact(basis.combination([1, 0, 0])) == 2

    def test_500_random_combinations_rank_exactly_2(self):
        basis = antisymmetric_basis_3x3()
        rng = coeff_stream(37)
        for _ in range(500):
            coeffs = draw_coeffs(rng, 3)
            combo = basis.combination(coeffs)
            assert rank_exact(combo) == 2
            assert combo.transpose().entries == tuple(-v for v in combo.entries)


class TestRandomSubspace:
    def test_deterministic_in_seed(self):
        a = random_subspace(3, 3, 5, seed=42)
        b = random_subspace(3, 3, 5, seed=42)
        assert a == b
        c = random_subspace(3, 3, 5, seed=43)
        assert a != c

    def test_dimension_validated(self):
        with pytest.raises(DomainError):
            random_subspace(2, 2, 5, seed=0)

    def test_independent(self):
        basis = random_subspace(3, 4, 7, seed=5)
        assert basis_stack_rank(basis) == 7

    def test_entries_are_one_normal_draw(self):
        # Matrix by matrix, row-major, from one draw on the seed's stream.
        basis = random_subspace(2, 3, 4, seed=9)
        draws = draw_normals(coeff_stream(9), 24).tolist()
        assert [z for m in basis.matrices for z in m.entries] == draws


class TestIndependence:
    @pytest.mark.parametrize("field", [RATIONAL, COMPLEX], ids=["rational-None", "complex-None"])
    def test_zero_matrix_rejected(self, field):
        matrices = tuple(StateMatrix.from_rows(rows, field) for rows in ([[1, 0], [0, 1]], [[0, 0], [0, 0]]))
        with pytest.raises(DomainError, match="not linearly independent"):
            SubspaceBasis(2, 2, 2, "user", matrices)


class TestStackRank:
    def test_one_elimination_per_diagonal(self, monkeypatch):
        # The stack's rows are the matrices' cells; matrices on different
        # diagonals share no cell, so each diagonal is its own block.
        basis = construct_min_rank_subspace(6, 6, 3)
        calls, bareiss = [], statemat.bareiss

        def counting(rows):
            calls.append(len(rows))
            return bareiss(rows)

        monkeypatch.setattr(statemat, "bareiss", counting)
        assert basis_stack_rank(basis) == basis.dimension
        labels = [diagonal_of(m) for m in basis.matrices]
        assert sorted(calls) == sorted(labels.count(k) for k in set(labels))

    def test_dependency_inside_one_block_rejected(self):
        # Two matrices on cells (0, 0) and (0, 1), a third elsewhere: the
        # block of the first two is rank 1.
        rows = ([[1, 2], [0, 0]], [["1/3", "2/3"], [0, 0]], [[0, 0], [0, 5]])
        doc = {"da": 2, "db": 2, "kind": "user", "matrices": [
            {"rows": 2, "cols": 2, "field": "rational", "entries": [v for row in m for v in row]} for m in rows
        ]}
        with pytest.raises(DomainError, match="stack rank 2 != 3"):
            basis_from_json_dict(doc)


#: The first two draw_coeffs calls (dim 6, then dim 3) on coeff_stream(seed), seeds 0-9.
PINNED_COEFFS = [
    ([7, 5, -2, -5, 0, -2], [5, -4, 0]),
    ([-7, 7, 5, -5, 0, -1], [3, 5, -8]),
    ([9, 9, -8, -8, 6, 4], [3, -4, 2]),
    ([-5, 1, -2, 2, 2, -8], [-9, 6, -5]),
    ([-5, -8, -2, -7, -8, -2], [8, 6, 5]),
    ([2, 5, 6, 8, 5, 8], [-9, -1, 8]),
    ([6, 6, 0, -5, -9, 3], [-1, 5, -2]),
    ([-3, -7, 3, -8, 1, -3], [-8, 0, -9]),
    ([-5, 9, -7, 4, -8, -5], [9, -6, 3]),
    ([-1, -2, -7, 7, -9, 0], [8, -8, 1]),
]

#: Chi-square critical value for 18 degrees of freedom (19 box values) at level 1e-3.
CHI2_18_BOUND = 42.31


class TestCoeffStream:
    """coeff_stream is the standard library's Random; draw_coeffs reads only its random()."""

    def test_stream_is_stdlib_random(self):
        rng, oracle = coeff_stream(5), random.Random(5)
        assert type(rng) is random.Random
        assert [rng.random() for _ in range(3)] == [oracle.random() for _ in range(3)]

    def test_draw_coeffs_values_pinned(self):
        for seed, (first, second) in enumerate(PINNED_COEFFS):
            rng = coeff_stream(seed)
            assert (draw_coeffs(rng, 6), draw_coeffs(rng, 3)) == (first, second), seed

    def test_draw_coeffs_uniform_over_box(self):
        rng, n = coeff_stream(2024), 19000
        counts = collections.Counter(c for _ in range(n // 19) for c in draw_coeffs(rng, 19))
        assert sorted(counts) == list(range(-SAMPLE_BOX, SAMPLE_BOX + 1))
        expected = n / len(counts)
        assert sum((k - expected) ** 2 / expected for k in counts.values()) < CHI2_18_BOUND

    def test_all_zero_draw_is_redrawn(self):
        # At dim 1 a draw is all zero one time in 19: it is dropped, and the next uniform read.
        redrawn = 0
        for seed in range(100):
            raw = random.Random(seed)
            values = [int(raw.random() * (2 * SAMPLE_BOX + 1)) - SAMPLE_BOX for _ in range(5)]
            redrawn += values[0] == 0
            assert draw_coeffs(coeff_stream(seed), 1) == [next(v for v in values if v)], seed
        assert redrawn >= 2

    @pytest.mark.parametrize("seed", [-1, -(2**70), True, 1.5, "3"])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(DomainError, match="seed"):
            coeff_stream(seed)


#: Kolmogorov-Smirnov sample size and the asymptotic critical value at level 1e-3,
#: sqrt(ln(2 / 1e-3) / 2) / sqrt(n).
KS_N = 20000
KS_BOUND = math.sqrt(math.log(2 / 1e-3) / 2) / math.sqrt(KS_N)


def _ks_normal(xs) -> float:
    """Largest gap between the empirical CDF of xs and N(0, 1)'s."""
    gap = 0.0
    for i, x in enumerate(sorted(xs)):
        cdf = 0.5 * (1 + math.erf(x / math.sqrt(2)))
        gap = max(gap, cdf - i / len(xs), (i + 1) / len(xs) - cdf)
    return gap


class TestDrawNormals:
    """draw_normals: Box-Muller on coeff_stream uniforms, the one Gaussian source."""

    def test_same_seed_same_draws(self):
        a, b = draw_normals(coeff_stream(7), 50), draw_normals(coeff_stream(7), 50)
        assert a.tolist() == b.tolist()
        assert a.tolist() != draw_normals(coeff_stream(8), 50).tolist()
        # Successive calls continue the stream.
        rng = coeff_stream(7)
        assert np.concatenate([draw_normals(rng, 20), draw_normals(rng, 30)]).tolist() == a.tolist()

    def test_first_draw_is_box_muller_of_first_words(self):
        for seed in range(10):
            rng = coeff_stream(seed)
            u1, u2 = (1 - rng.random() for _ in range(2))
            radius, angle = math.sqrt(-2 * math.log(u1)), 2 * math.pi * u2
            z = draw_normals(coeff_stream(seed), 1)[0]
            assert z.real == pytest.approx(radius * math.cos(angle), rel=1e-12, abs=1e-12)
            assert z.imag == pytest.approx(radius * math.sin(angle), rel=1e-12, abs=1e-12)

    def test_parts_are_standard_normal_and_uncorrelated(self):
        z = draw_normals(coeff_stream(2024), KS_N)
        assert z.shape == (KS_N,) and z.dtype == np.complex128
        assert _ks_normal(z.real.tolist()) < KS_BOUND
        assert _ks_normal(z.imag.tolist()) < KS_BOUND
        # The sample correlation of independent parts has standard deviation 1/sqrt(n).
        assert abs(np.corrcoef(z.real, z.imag)[0, 1]) < 4 / math.sqrt(KS_N)


class TestBasisJson:
    def test_round_trip(self):
        basis = construct_min_rank_subspace(3, 4, 2)
        d = to_json(basis)
        again = basis_from_json_dict(json.loads(json.dumps(d)))
        assert again == basis

    def test_keys_match_schema(self):
        d = to_json(antisymmetric_basis_3x3())
        assert set(d) == {"da", "db", "r", "kind", "field", "matrices"}

    def test_complex_round_trip(self):
        basis = random_subspace(2, 3, 4, seed=9)
        again = basis_from_json_dict(to_json(basis))
        assert again == basis
