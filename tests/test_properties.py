"""Property tests drawn by hypothesis; the module skips when it is not installed.

They live apart from the example tests so that the rest of the suite runs
without optional packages.
"""

import contextlib
import copy
import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from entspan import _kernels
from entspan.bounds import max_dim_geq
from entspan.cli import main
from entspan.construct import (
    SubspaceBasis,
    basis_from_json_dict,
    coeff_stream,
    construct_min_rank_subspace,
    draw_normals,
    random_subspace,
)
from entspan.errors import DomainError, EntspanError
from entspan.statemat import (
    RATIONAL,
    StateMatrix,
    block_rank,
    combine,
    gfp_eliminate,
    matrix_from_json_dict,
    matrix_of_state,
    state_of_matrix,
    to_json,
)
from entspan.verify import (
    VERDICT_CONSISTENT,
    VERDICT_REFUTED,
    _complex_stack,
    gfp_exhaustive_min_rank,
    minimize_sigma_r,
    sample_verify_exact,
)

from oracles import minor_rank
from test_verify import _sequential_sigma

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


class TestMatrixOfState:
    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, dA, dB, data):
        amps = data.draw(st.lists(st.integers(-99, 99), min_size=dA * dB, max_size=dA * dB))
        m = matrix_of_state(amps, dA, dB)
        assert state_of_matrix(m) == amps
        assert matrix_of_state(state_of_matrix(m), dA, dB) == m


#: Mostly small entries, so that ranks drop; now and then entries beyond int64.
_WIDE_ENTRY = st.integers(-9, 9) | st.integers(-(2**80), 2**80)
_MODULI = st.sampled_from([2, 3, 5, 7, 2**31 - 1])


def _laid_out(values, shape, layout):
    """The (N, m, n) stack of values in one of the forms gfp_eliminate is handed."""
    wide = any(not -(2**63) <= v < 2**63 for v in values)
    a = np.array(values, dtype=object if wide or layout == "object" else np.int64).reshape(shape)
    if layout == "list":
        return a.tolist()
    if layout == "transposed":
        # Each matrix a transposed view: strides (m*n, 1, n).
        return np.array(a.transpose(0, 2, 1)).transpose(0, 2, 1)
    if layout == "cell_major":
        # The scan's chunks: an (m, n, N) array seen as (N, m, n).
        return np.array(a.transpose(1, 2, 0)).transpose(2, 0, 1)
    return a


class TestGfpEliminate:
    """The one GF(p) elimination against the brute-force oracles, matrix by matrix and in a stack."""

    @given(
        st.integers(0, 4),
        st.integers(0, 5),
        st.integers(0, 5),
        _MODULI,
        st.sampled_from(["array", "transposed", "cell_major", "list", "object"]),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_oracles_alone_and_stacked(self, n_mats, m, n, p, layout, data):
        # Tall, wide and empty shapes; C-ordered arrays, strided views, nested lists and object
        # arrays, with ints past 2**63 now and then.  A nested list cannot spell an empty stack
        # or an empty matrix's shape.
        assume(layout != "list" or n_mats * m)
        values = data.draw(st.lists(_WIDE_ENTRY, min_size=n_mats * m * n, max_size=n_mats * m * n))
        stack = _laid_out(values, (n_mats, m, n), layout)
        before = copy.deepcopy(stack)
        ranks = gfp_eliminate(stack, p)
        assert ranks.shape == (n_mats,)
        matrices = np.array(values, dtype=object).reshape(n_mats, m, n).tolist()
        for i, rows in enumerate(matrices):
            assert ranks[i] == minor_rank(rows, p)
            assert gfp_eliminate(stack[i : i + 1], p).tolist() == [ranks[i]]
        assert np.array_equal(np.array(stack, dtype=object), np.array(before, dtype=object))


class TestBlockRank:
    @given(st.integers(1, 4), st.integers(1, 5), st.sampled_from(["shuffled", "descending"]), st.data())
    @settings(max_examples=80, deadline=None)
    def test_cells_in_any_column_order(self, n_rows, n_cols, order, data):
        # Mostly zeros, so the rows fall into several blocks.
        cell = st.sampled_from([0, 0, 0, 1, -1, 2, 3])
        rows = data.draw(st.lists(st.lists(cell, min_size=n_cols, max_size=n_cols), min_size=n_rows, max_size=n_rows))
        cells = [[(j, v) for j, v in enumerate(row) if v] for row in rows]
        if order == "descending":
            cells = [row[::-1] for row in cells]
        else:
            cells = [data.draw(st.permutations(row), label="cells") for row in cells]
        assert block_rank(cells) == minor_rank(rows)


class TestSigmaSearch:
    """The rational sigma search, in lanes and lone descents, against a plain loop of lone descents."""

    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 10), st.integers(1, 60), st.integers(0, 10**6), st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_sequential_descents(self, dA, dB, restarts, iters, seed, data):
        dim = data.draw(st.integers(1, dA * dB), label="dim")
        r = data.draw(st.integers(1, min(dA, dB)), label="r")
        rows = data.draw(
            st.lists(st.lists(st.integers(-3, 3), min_size=dA * dB, max_size=dA * dB), min_size=dim, max_size=dim)
        )
        assume(np.linalg.matrix_rank(np.array(rows)) == dim)
        matrices = tuple(StateMatrix.rational([row[i * dB : (i + 1) * dB] for i in range(dA)]) for row in rows)
        basis = SubspaceBasis(dA, dB, None, "user", matrices)
        _, _, report = minimize_sigma_r(basis, r, restarts=restarts, iters=iters, seed=seed)
        got = (report.verdict, report.min_sigma_r, report.witnesses, report.params["restarts_run"])
        assert got == _sequential_sigma(basis, r, restarts, iters, seed)


class TestSigmaLanes:
    """Each lane of the stacked descent against the lone descent from the same start, bit for bit."""

    @given(st.integers(2, 4), st.integers(2, 4), st.integers(3, 8), st.integers(1, 60), st.integers(0, 10**6), st.data())
    @settings(max_examples=100, deadline=None)
    def test_each_lane_is_the_lone_descent(self, dA, dB, lanes, iters, seed, data):
        dim = data.draw(st.integers(1, min(4, dA * dB)), label="dim")
        r = data.draw(st.integers(1, min(dA, dB)), label="r")
        cell = st.sampled_from([0, 0, 1, -1, 2, 3])
        rows = data.draw(st.lists(st.lists(cell, min_size=dA * dB, max_size=dA * dB), min_size=dim, max_size=dim))
        assume(np.linalg.matrix_rank(np.array(rows)) == dim)
        matrices = tuple(StateMatrix.rational([row[i * dB : (i + 1) * dB] for i in range(dA)]) for row in rows)
        A = _complex_stack(SubspaceBasis(dA, dB, None, "user", matrices))
        P = np.linalg.pinv(A)
        # A unit start is one basis matrix, often of exact rank below r, so its lane
        # reads an exact 0 at once; Gaussian starts run on, and stall at their own times.
        units = data.draw(st.lists(st.none() | st.integers(0, dim - 1), min_size=lanes, max_size=lanes), label="units")
        words = coeff_stream(seed)
        X0 = np.array([draw_normals(words, dim) if i is None else np.eye(dim, dtype=complex)[i] for i in units])
        stacked = _kernels.sigma_descent_lanes(A, P, r, iters, X0, dA, dB)
        assert len(stacked) == lanes
        for x0, (val, x) in zip(X0, stacked):
            lone_val, lone_x = _kernels.sigma_descent(A, P, r, iters, x0, dA, dB)
            assert val == lone_val and np.array_equal(x, lone_x)


class TestVerdictLattice:
    """Every mode on one small integer basis: the one-sided verdicts may not contradict each other."""

    @given(st.integers(2, 4), st.integers(2, 4), st.data())
    @settings(max_examples=150, deadline=None)
    def test_sound_implications_hold(self, dA, dB, data):
        dim = data.draw(st.integers(1, 4), label="dim")
        r = data.draw(st.integers(2, min(dA, dB)), label="r")
        cell = st.sampled_from([0, 0, 1, -1, 2, 3])
        rows = data.draw(st.lists(st.lists(cell, min_size=dA * dB, max_size=dA * dB), min_size=dim, max_size=dim))
        assume(np.linalg.matrix_rank(np.array(rows)) == dim)
        matrices = tuple(StateMatrix.rational([row[i * dB : (i + 1) * dB] for i in range(dA)]) for row in rows)
        basis = SubspaceBasis(dA, dB, None, "user", matrices)
        # (a) An exact rational combination of rank below r, scaled to coprime integer
        # coefficients, stays a nonzero point of rank below r mod every p.
        if sample_verify_exact(basis, r, 64, seed=0).verdict == VERDICT_REFUTED:
            for p in (2, 3, 5, 7):
                try:
                    report = gfp_exhaustive_min_rank(basis, p, r=r)
                except DomainError as exc:
                    assert "loses linear independence" in str(exc)
                    continue
                assert report.verdict != VERDICT_CONSISTENT
        # (b) Above the paper's bound some nonzero element has rank below r.
        if dim > max_dim_geq(dA, dB, r):
            _, _, report = minimize_sigma_r(basis, r, restarts=2, iters=20, seed=0)
            assert report.verdict != VERDICT_CONSISTENT


class TestJson:
    @given(st.integers(1, 3), st.integers(1, 3), st.booleans(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_rational_round_trip_property(self, dA, dB, integral, data):
        # Through JSON text, with numerators and denominators past 2**53, where doubles stop being
        # exact, and past 2**63.
        sizes = st.integers(-40, 40) | st.integers(-(2**70), 2**70) | st.sampled_from([2**53 + 1, -(2**63) - 1, 2**64])
        nums = data.draw(st.lists(sizes, min_size=dA * dB, max_size=dA * dB))
        dens = [1] * (dA * dB) if integral else data.draw(
            st.lists(st.integers(1, 9) | st.integers(1, 2**66), min_size=dA * dB, max_size=dA * dB)
        )
        m = matrix_of_state([Fraction(n, d) for n, d in zip(nums, dens)], dA, dB)
        written = to_json(m)
        assert matrix_from_json_dict(json.loads(json.dumps(written))) == m
        cells = written["entries"]
        if m.denominator == 1:
            assert cells == list(m.entries) and {type(v) for v in cells} == {int}
        else:
            # Every cell, zeros included, is "n/d" text in lowest terms.
            for k, text in enumerate(cells):
                n, d = map(int, text.split("/"))
                assert text == f"{n}/{d}" and d >= 1 and math.gcd(n, d) == 1
                assert Fraction(n, d) == Fraction(m.entries[k], m.denominator)

    @given(st.integers(1, 3), st.integers(1, 4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_decoded_cells_match_computed_cells(self, dA, dB, data):
        # Decoding scales each distinct text; the result must equal the matrix
        # of the same Fractions, zero spellings and ints included.
        texts = st.sampled_from(["0", "0/1", "-0/7", "0/3", "3/6", "-2/3", "5", "1/1", "-4/2", "7/9"])
        entries = data.draw(st.lists(texts | st.integers(-3, 3), min_size=dA * dB, max_size=dA * dB))
        m = matrix_from_json_dict({"rows": dA, "cols": dB, "field": RATIONAL, "entries": entries})
        values = [Fraction(v) for v in entries]
        assert m == matrix_of_state(values, dA, dB)
        assert [k for k, _ in m._nonzero] == [k for k, v in enumerate(values) if v]
        assert all(v == values[k] * m.denominator for k, v in m._nonzero)

    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_every_route_gives_one_stored_form(self, dA, dB, scale, data):
        nums = data.draw(st.lists(st.integers(-40, 40), min_size=dA * dB, max_size=dA * dB))
        dens = data.draw(st.lists(st.integers(1, 9), min_size=dA * dB, max_size=dA * dB))
        m = matrix_of_state([Fraction(n, d) for n, d in zip(nums, dens)], dA, dB)
        unreduced = [f"{n * scale}/{d * scale}" for n, d in zip(nums, dens)]
        scaled_up = matrix_of_state([Fraction(n * scale, d) for n, d in zip(nums, dens)], dA, dB)
        for other in [
            matrix_from_json_dict({"rows": dA, "cols": dB, "field": RATIONAL, "entries": unreduced}),
            combine([scaled_up], [Fraction(1, scale)]),
            combine([m, m], [Fraction(1, 2), Fraction(1, 2)]),
            m.transpose().transpose(),
        ]:
            assert other == m and hash(other) == hash(m)
        assert math.gcd(m.denominator, *m.entries) == 1


#: Long values that a refusal must not echo whole: text, digits past Python's int digit limit, a 4001-digit int.
LONG_VALUES = st.sampled_from(["x" * 5000, "1" * 5000, "1/" + "7" * 4500, 10**4000])

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6) | LONG_VALUES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)

VALID_DOCS = [
    to_json(construct_min_rank_subspace(2, 3, 2)),
    to_json(random_subspace(2, 2, 2, seed=0)),
    {
        "da": 2, "db": 2, "r": 2, "kind": "user", "metadata": {},
        "matrices": [{"rows": 2, "cols": 2, "field": "rational", "entries": [1, 2, 3, 4]}],
    },
]


class TestDecoderFuzz:
    """Malformed basis documents raise EntspanError with a short message, never anything else."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_returns_basis_or_raises_entspan_error(self, data):
        doc = copy.deepcopy(data.draw(st.sampled_from(VALID_DOCS)))
        how = data.draw(st.sampled_from(["whole", "basis_key", "matrix_key", "entry"]))
        matrix = data.draw(st.sampled_from(doc["matrices"]))
        if how == "whole":
            doc = data.draw(JSON_VALUES)
        elif how == "entry":
            matrix["entries"][data.draw(st.integers(0, len(matrix["entries"]) - 1))] = data.draw(JSON_VALUES)
        else:
            target = doc if how == "basis_key" else matrix
            key = data.draw(st.sampled_from(sorted(target) + ["p"]))
            if data.draw(st.booleans()):
                target.pop(key, None)
            else:
                target[key] = data.draw(JSON_VALUES)
        try:
            basis = basis_from_json_dict(doc)
        except EntspanError as exc:
            assert len(str(exc)) < 200
            return
        assert isinstance(basis, SubspaceBasis)


@pytest.fixture(scope="module")
def fuzz_bases(tmp_path_factory):
    """Small basis files over both fields: diagonal, antisymmetric, a user integer basis, complex, and two refused."""
    directory = tmp_path_factory.mktemp("fuzz")
    for name, argv in [
        ("geq", ["--da", "3", "--db", "3", "--r", "2"]),
        ("antisym", ["--kind", "antisym", "--da", "3", "--db", "3"]),
        ("random", ["--kind", "random", "--da", "2", "--db", "3", "--dim", "3", "--seed", "4"]),
    ]:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["construct", *argv, "--out", str(directory / f"{name}.json")]) == 0
    user = [{"rows": 2, "cols": 2, "field": "rational", "entries": e} for e in ([1, 2, 0, 3], [0, 1, 1, 0], [4, 0, 0, 1])]
    doc = {"da": 2, "db": 2, "r": 2, "kind": "user", "matrices": user}
    (directory / "user.json").write_text(json.dumps(doc))
    # Long values, each refused at load.
    (directory / "long_kind.json").write_text(json.dumps({**doc, "kind": "x" * 5000}))
    (directory / "long_entry.json").write_text(json.dumps({**doc, "matrices": [{**user[0], "entries": ["9" * 5000, 0, 0, 1]}]}))
    return sorted(str(path) for path in directory.glob("*.json"))


#: Verify flags the fuzz test draws, each from a small range with negative,
#: zero and boundary values.  The count flags are always given, since their
#: defaults (1000 samples, 64 restarts of 500 iterations) are slow.
FUZZ_COUNTS = {
    "--seed": st.integers(-2, 3),
    "--samples": st.integers(-1, 4),
    "--restarts": st.integers(-1, 3),
    "--iters": st.integers(-1, 5),
}
FUZZ_OPTIONAL = {
    "--r": st.integers(-2, 4),
    "--p": st.sampled_from([-1, 0, 1, 2, 3, 4, 5, 7, 2**31 - 1, 2**31]),
    "--cap": st.sampled_from([-1, 0, 1, 40, 10**6]),
    "--tol": st.sampled_from([-1.0, 0.0, 1e-7, 0.5, 1.0, 2.0, math.inf, math.nan]),
    "--require": st.sampled_from(["geq", "leq", "eq"]),
}


class TestCliFuzz:
    """Any verify flag set ends in a verdict with an artifact, or exit 2 with one line."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_verdict_or_one_error_line(self, fuzz_bases, tmp_path_factory, data):
        out_path = tmp_path_factory.mktemp("run") / "rep.json"
        mode = data.draw(st.sampled_from(["sample", "gfp", "sigma", "structural"]), label="mode")
        argv = ["verify", "--basis", data.draw(st.sampled_from(fuzz_bases), label="basis"), "--mode", mode]
        for flag, values in FUZZ_COUNTS.items():
            argv += [flag, str(data.draw(values, label=flag))]
        for flag, values in FUZZ_OPTIONAL.items():
            value = data.draw(st.none() | values, label=flag)
            argv += [] if value is None else [flag, str(value)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--out", str(out_path)])
        if code == 2:
            assert out.getvalue() == "" and not out_path.exists()
            assert len(err.getvalue().splitlines()) == 1 and err.getvalue().startswith("error: ")
            assert len(err.getvalue()) < 200
        else:
            assert code in (0, 3, 4) and err.getvalue() == ""
            assert json.loads(out_path.read_text())["run"]["mode"] == mode
