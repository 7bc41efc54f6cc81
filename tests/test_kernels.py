"""The GF(p) scan and the sigma descent kernels."""

import itertools
import warnings

import numpy as np
import pytest

from entspan import _kernels
from entspan.construct import SubspaceBasis, coeff_stream, construct_min_rank_subspace, draw_normals, random_subspace
from entspan.statemat import StateMatrix, rank_exact
from entspan.verify import gfp_exhaustive_min_rank

from oracles import minor_rank


def _random_stack(seed, p, dim, cells):
    return np.random.default_rng(seed).integers(0, p, size=(dim, cells)).tolist()


def _oracle_scan(stack, p, rows, cols):
    """(min rank, first minimizer, count) by walking the odometer point by point."""
    dim = len(stack)
    best_rank, best, count = None, None, 0
    for lead in range(dim):
        for tail in itertools.product(range(p), repeat=dim - lead - 1):
            coeffs = [0] * lead + [1, *tail]
            flat = [sum(c * m[k] for c, m in zip(coeffs, stack)) % p for k in range(rows * cols)]
            rank = minor_rank([flat[i * cols : (i + 1) * cols] for i in range(rows)], p)
            if best_rank is None or rank < best_rank:
                best_rank, best = rank, coeffs
            count += 1
    return best_rank, best, count


def _spy_on_eliminate(monkeypatch):
    """The point count of each elimination the scan makes, in order."""
    eliminate, sizes = _kernels.gfp_eliminate, []

    def spy(combos, p):
        sizes.append(combos.shape[-1])
        return eliminate(combos, p)

    monkeypatch.setattr(_kernels, "gfp_eliminate", spy)
    return sizes


def _ranks(matrices, p):
    """gfp_eliminate's ranks of equal-shape matrices, laid out as a scan chunk: (rows, cols, N), C-ordered."""
    return _kernels.gfp_eliminate(np.array(matrices, dtype=np.int64).transpose(1, 2, 0).copy(), p).tolist()


def _oracle_cases(n):
    """Seeded small bases, every other one sparse so that low ranks and ties occur."""
    rng = np.random.default_rng(55)
    for _ in range(n):
        p = int(rng.choice([2, 3, 5, 7]))
        rows, cols = (int(v) for v in rng.integers(1, 4, size=2))
        dim = int(rng.integers(1, 5 if p < 5 else 3))
        stack = rng.integers(0, p, size=(dim, rows * cols))
        if rng.random() < 0.5:
            stack *= rng.random(stack.shape) < 0.3
        yield stack.tolist(), p, rows, cols


class TestGfpScan:
    def test_point_count_formula(self):
        for p, dim in [(2, 3), (3, 4), (5, 2), (7, 3)]:
            _, _, count = _kernels.gfp_min_rank_scan(_random_stack(51, p, dim, 6), p, 2, 3)
            assert count == (p**dim - 1) // (p - 1)

    def test_first_coordinate_normalization(self):
        # The reported minimizer must be a projective representative with
        # first nonzero coordinate 1.
        _, best, _ = _kernels.gfp_min_rank_scan(_random_stack(52, 5, 3, 4), 5, 2, 2)
        nz = [i for i, c in enumerate(best) if c != 0]
        assert best[nz[0]] == 1

    @pytest.mark.parametrize("case", list(_oracle_cases(40)), ids=lambda c: f"p{c[1]}_{c[2]}x{c[3]}_dim{len(c[0])}")
    def test_matches_oracle_enumeration(self, case):
        stack, p, rows, cols = case
        assert _kernels.gfp_min_rank_scan(stack, p, rows, cols) == _oracle_scan(stack, p, rows, cols)

    @pytest.mark.parametrize("points", [1, 2, 3, 7])
    def test_chunk_boundaries(self, monkeypatch, points):
        # Chunks of a few points split each leading coordinate's run at many
        # places; the result must equal the one-chunk scan.  The first of
        # this basis's rank-0 points is [1, 0, 1, 2], the sixth point; a scan
        # with its first free coordinate fastest would report [1, 2, 1, 0].
        stack, p, rows, cols = _random_stack(66, 3, 4, 4), 3, 2, 2
        whole = _kernels.gfp_min_rank_scan(stack, p, rows, cols)
        monkeypatch.setattr(_kernels, "SCAN_CHUNK_BYTES", points * 8 * rows * cols)
        assert _kernels.gfp_min_rank_scan(stack, p, rows, cols) == whole
        assert whole == _oracle_scan(stack, p, rows, cols)

    def test_large_p_splits_the_last_coordinate(self, monkeypatch):
        # p alone exceeds a chunk here, so the scan must split the last
        # coordinate's digits into runs.  M0 + c*M1 has rank 1 at c = 40000
        # and c = 50000, so the first minimizer lies inside the tenth run.
        p, rows, cols = 65521, 2, 2
        stack = [[p - 40000, 12345, 0, p - 50000], [1, 0, 0, 1]]
        sizes = _spy_on_eliminate(monkeypatch)
        result = _kernels.gfp_min_rank_scan(stack, p, rows, cols)
        assert result == _oracle_scan(stack, p, rows, cols) == (1, [1, 40000], 65522)
        chunk = _kernels.SCAN_CHUNK_BYTES // (8 * rows * cols)
        assert len(sizes) <= -(-65522 // chunk) + len(stack)
        assert max(sizes) <= chunk

    def test_benchmark_basis_takes_four_eliminations(self, monkeypatch):
        # 3906 points at 1365 per chunk: lead 0's 3125 points in runs of 2, 2 and 1 digits over
        # the 625-point block, then leads 1-5 (625 + 125 + 25 + 5 + 1 points) packed into one.
        sizes = _spy_on_eliminate(monkeypatch)
        report = gfp_exhaustive_min_rank(construct_min_rank_subspace(3, 4, 2), 5)
        assert (report.verdict, report.samples_or_points) == ("consistent", 3906)
        assert sizes == [1250, 1250, 625, 781]

    @pytest.mark.parametrize("points", [1, 2, 3, 7, None])
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_no_elimination_exceeds_a_chunk(self, monkeypatch, p, points):
        rows, cols = 2, 3
        stack = _random_stack(71 + p, p, 4 if p < 5 else 3, rows * cols)
        if points is not None:
            monkeypatch.setattr(_kernels, "SCAN_CHUNK_BYTES", points * 8 * rows * cols)
        sizes = _spy_on_eliminate(monkeypatch)
        assert _kernels.gfp_min_rank_scan(stack, p, rows, cols) == _oracle_scan(stack, p, rows, cols)
        assert max(sizes) <= _kernels.SCAN_CHUNK_BYTES // (8 * rows * cols)

    @pytest.mark.parametrize("points", [1, 2, 3, 7, None])
    def test_first_minimizer_inside_the_packed_group(self, monkeypatch, points):
        # M1 + M2 = [[1, 0], [0, 0], [0, 0]] is the first rank-1 point, and every point with
        # lead 0 has rank 2.  At 7 points a chunk, leads 1 and 2 share the last chunk; 3x2 is
        # scanned as its 2x3 transposes.
        stack = [[0, 1, 0, 0, 1, 0], [1, 0, 0, 1, 0, 0], [0, 0, 0, 2, 0, 0]]
        if points is not None:
            monkeypatch.setattr(_kernels, "SCAN_CHUNK_BYTES", points * 8 * 6)
        assert _kernels.gfp_min_rank_scan(stack, 3, 3, 2) == _oracle_scan(stack, 3, 3, 2) == (1, [0, 1, 1], 13)

    @pytest.mark.parametrize("points", [1, 2, 3, 7, None])
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_each_chunk_is_a_fresh_array(self, monkeypatch, p, points):
        # gfp_eliminate writes over the chunk it ranks, so no chunk may share memory with the block
        # the chunks are formed from or with an earlier chunk; every chunk is kept alive, so none
        # of their memory is reused.
        rows, cols = 2, 3
        stack = _random_stack(71 + p, p, 4 if p < 5 else 3, rows * cols)
        if points is not None:
            monkeypatch.setattr(_kernels, "SCAN_CHUNK_BYTES", points * 8 * rows * cols)
        scan_chunks, eliminate, blocks, chunks = _kernels._scan_chunks, _kernels.gfp_eliminate, [], []

        def chunks_spy(basis, p, chunk):
            gen = scan_chunks(basis, p, chunk)
            for combos in gen:
                blocks.append(gen.gi_frame.f_locals["block"])
                yield combos

        def eliminate_spy(combos, p):
            chunks.append(combos)
            return eliminate(combos, p)

        monkeypatch.setattr(_kernels, "_scan_chunks", chunks_spy)
        monkeypatch.setattr(_kernels, "gfp_eliminate", eliminate_spy)
        assert _kernels.gfp_min_rank_scan(stack, p, rows, cols) == _oracle_scan(stack, p, rows, cols)
        assert chunks and len(chunks) == len(blocks)
        for i, combos in enumerate(chunks):
            assert not np.shares_memory(combos, blocks[i])
            assert not any(np.shares_memory(combos, earlier) for earlier in chunks[:i])

    def test_end_to_end_verdict(self):
        rep = gfp_exhaustive_min_rank(construct_min_rank_subspace(3, 3, 2), 3)
        assert [rep.verdict, rep.min_rank_observed, rep.samples_or_points] == ["consistent", 2, 40]


class TestGfpEliminate:
    """The one GF(p) elimination on the scan's chunk layout, against the brute-force oracles."""

    def test_rank_drop(self):
        # det = 1*4 - 2*2 = 0 over Q; [[1,2],[2,4]] rank 1 over GF(5) as well
        assert _ranks([[[1, 2], [2, 4]]], 5) == [1]
        # [[1,2],[2,9]] has det 5, so rank 2 over Q but 1 over GF(5)
        assert rank_exact(StateMatrix.rational([[1, 2], [2, 9]])) == 2
        assert _ranks([[[1, 2], [2, 9]]], 5) == [1]

    def test_monotonicity(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            dA, dB = rng.integers(1, 5, size=2)
            rows = rng.integers(-9, 10, size=(dA, dB)).tolist()
            rq = rank_exact(StateMatrix.rational(rows))
            for p in (2, 3, 5):
                assert _ranks([rows], p)[0] <= rq

    def test_matches_oracles(self):
        rng = np.random.default_rng(16)
        for p in (2, 3, 7, 2**31 - 1):
            for _ in range(80):
                n_rows, n_cols = (int(v) for v in rng.integers(1, 5, size=2))
                rows = rng.integers(-10**12, 10**12, size=(n_rows, n_cols)).tolist()
                if rng.random() < 0.3:
                    rows[-1] = [v + p * 5 for v in rows[0]]
                assert _ranks([rows], p) == [minor_rank(rows, p)]

    @pytest.mark.parametrize("p", [2, 3, 7, 2**31 - 1])
    def test_mixed_rank_stack(self, p):
        # One call over 4x4 matrices of rational rank 0 to 4, rows shuffled so
        # that pivots need swaps, entries shifted by the largest multiple of p below 2**62.
        rng = np.random.default_rng(17)
        shift = 2**62 // p * p
        stack = []
        for target in range(5):
            for _ in range(6):
                left = rng.integers(-9, 10, size=(4, target))
                rows = (left @ rng.integers(-9, 10, size=(target, 4))).tolist()
                rng.shuffle(rows)
                stack.append([[v + shift for v in row] for row in rows])
        assert _ranks(stack, p) == [minor_rank(rows, p) for rows in stack]

    def test_empty_matrix(self):
        assert _kernels.gfp_eliminate(np.zeros((0, 0, 1), dtype=np.int64), 5).tolist() == [0]


class TestSigmaDescent:
    def test_descent_is_monotone_enough_to_converge(self):
        basis = random_subspace(3, 3, 5, seed=7)
        A = basis.float_form[0]
        P = np.linalg.pinv(A)
        rng = np.random.default_rng(54)
        best = np.inf
        for _ in range(8):
            x0 = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            val, _ = _kernels.sigma_descent(A, P, 2, 400, x0, 3, 3)
            best = min(best, val)
        assert best < 1e-6

    def test_target_above_floor_changes_nothing(self):
        # The floor of this construction is near 0.14, so no iterate falls
        # below the target and the descent must run exactly as without one.
        basis = construct_min_rank_subspace(4, 4, 2)
        A = basis.float_form[0]
        P = np.linalg.pinv(A)
        rng = np.random.default_rng(56)
        for _ in range(3):
            x0 = rng.standard_normal(basis.dimension) + 1j * rng.standard_normal(basis.dimension)
            plain_val, plain_x = _kernels.sigma_descent(A, P, 2, 200, x0, 4, 4)
            val, x = _kernels.sigma_descent(A, P, 2, 200, x0, 4, 4, target=1e-10)
            assert val == plain_val > 1e-10
            assert np.array_equal(x, plain_x)

    def test_target_ends_descent_at_first_iterate_below_it(self, monkeypatch):
        basis = random_subspace(3, 3, 5, seed=1)
        A = basis.float_form[0]
        P = np.linalg.pinv(A)
        svd, calls = np.linalg.svd, []

        def counted(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        rng = np.random.default_rng(57)
        for _ in range(4):
            x0 = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            calls.clear()
            plain_val, _ = _kernels.sigma_descent(A, P, 2, 500, x0, 3, 3)
            plain_svds = len(calls)
            calls.clear()
            val, x = _kernels.sigma_descent(A, P, 2, 500, x0, 3, 3, target=1e-10)
            assert plain_val <= val < 1e-10
            assert len(calls) < plain_svds
            s = svd((A @ x).reshape(3, 3), full_matrices=False)[1]
            assert s[1] / s[0] == val


def _units_basis():
    """E00, E01 and E10: rank-1 elements abound, so descents at r=2 end at different iterations."""
    units = [[[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [1, 0]]]
    return SubspaceBasis(2, 2, None, "user", tuple(StateMatrix.rational(m) for m in units))


class TestSigmaDescentLanes:
    @pytest.mark.parametrize(
        "basis, r, iters, lanes, staggered",
        [
            pytest.param(construct_min_rank_subspace(8, 8, 4), 4, 200, 8, False, id="8x8r4"),
            pytest.param(construct_min_rank_subspace(4, 5, 3), 3, 500, 8, True, id="4x5r3"),
            pytest.param(construct_min_rank_subspace(3, 3, 2), 3, 200, 8, True, id="3x3r2-at-r3"),
            pytest.param(_units_basis(), 2, 100, 8, True, id="units"),
            pytest.param(construct_min_rank_subspace(4, 5, 3), 3, 500, 1, False, id="one-lane"),
        ],
    )
    def test_each_lane_is_the_lone_descent(self, monkeypatch, basis, r, iters, lanes, staggered):
        A = basis.float_form[0]
        P = np.linalg.pinv(A)
        words = coeff_stream(58)
        X0 = np.array([draw_normals(words, basis.dimension) for _ in range(lanes)])
        stacked = _kernels.sigma_descent_lanes(A, P, r, iters, X0, basis.dA, basis.dB)
        assert len(stacked) == lanes
        svd, calls, ends = np.linalg.svd, [], set()

        def counted(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        for x0, (val, x) in zip(X0, stacked):
            calls.clear()
            lone_val, lone_x = _kernels.sigma_descent(A, P, r, iters, x0, basis.dA, basis.dB)
            ends.add(len(calls))
            assert val == lone_val
            assert np.array_equal(x, lone_x)
        if staggered:
            # These lanes stall at different iterations, so lanes leave the stack mid-run.
            assert len(ends) > 1 and min(ends) < iters

    def test_r1_lanes_leave_at_once_without_warning(self):
        # At r = 1 the truncation is zero, so every lane's refit has norm 0: all
        # lanes leave after their first iterate, and none is divided by its norm.
        basis = construct_min_rank_subspace(4, 5, 3)
        A = basis.float_form[0]
        P = np.linalg.pinv(A)
        words = coeff_stream(60)
        X0 = np.array([draw_normals(words, basis.dimension) for _ in range(5)])
        before = X0.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stacked = _kernels.sigma_descent_lanes(A, P, 1, 50, X0, basis.dA, basis.dB)
            for x0, (val, x) in zip(X0, stacked):
                lone_val, lone_x = _kernels.sigma_descent(A, P, 1, 50, x0, basis.dA, basis.dB)
                assert val == lone_val == 1.0 and np.array_equal(x, lone_x)
        assert np.array_equal(X0, before)

    def test_exact_zero_leaves_the_stack_at_once(self):
        # E00 alone has sigma_2 = 0 exactly: the lane ends at its first iterate
        # while the lanes beside it run on.
        basis = _units_basis()
        A = basis.float_form[0]
        P = np.linalg.pinv(A)
        words = coeff_stream(59)
        X0 = np.array([draw_normals(words, 3), [1, 0, 0], draw_normals(words, 3)], dtype=complex)
        stacked = _kernels.sigma_descent_lanes(A, P, 2, 100, X0, 2, 2)
        assert stacked[1][0] == 0.0 and np.array_equal(stacked[1][1], X0[1])
        for x0, (val, x) in zip(X0, stacked):
            lone_val, lone_x = _kernels.sigma_descent(A, P, 2, 100, x0, 2, 2)
            assert val == lone_val and np.array_equal(x, lone_x)
