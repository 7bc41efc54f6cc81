"""The GF(p) scan and the sigma descent kernels."""

import numpy as np

from entspan import _kernels
from entspan.construct import construct_min_rank_subspace, random_subspace
from entspan.verify import _complex_stack, gfp_exhaustive_min_rank


def _random_stack(seed, p, dim, cells):
    return np.random.default_rng(seed).integers(0, p, size=(dim, cells)).tolist()


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

    def test_end_to_end_verdict(self):
        rep = gfp_exhaustive_min_rank(construct_min_rank_subspace(3, 3, 2), 3)
        assert [rep.verdict, rep.min_rank_observed, rep.samples_or_points] == ["consistent", 2, 40]


class TestSigmaDescent:
    def test_descent_is_monotone_enough_to_converge(self):
        basis = random_subspace(3, 3, 5, seed=7)
        A = _complex_stack(basis)
        P = np.linalg.pinv(A)
        rng = np.random.default_rng(54)
        best = np.inf
        for _ in range(8):
            x0 = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            val, _ = _kernels.sigma_descent(A, P, 2, 400, x0, 3, 3)
            best = min(best, val)
        assert best < 1e-6
