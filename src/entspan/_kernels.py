"""Hot loops: the GF(p) projective scan and the singular-value descent.

Both run as plain Python and numpy; there is one backend.
"""

from __future__ import annotations

import numpy as np

from .statemat import gfp_eliminate

#: No compiled backend exists; perfbench/child.py records this constant in
#: each run's provenance.
USING_NUMBA = False


def gfp_min_rank_scan(stack, p, rows, cols):
    """Minimum rank mod p over every projective coefficient point.

    ``stack`` holds the vectorized basis as lists of ints, one per matrix,
    entries already reduced mod p.  Points are normalized to first nonzero
    coordinate 1 and walked with a base-p odometer, (p**dim - 1)/(p - 1) of
    them in total.  Returns (min_rank, coefficients of the first minimizer,
    point count).
    """
    dim = len(stack)
    cells = list(zip(*stack))
    best_rank = min(rows, cols) + 1
    best = [0] * dim
    count = 0
    for lead in range(dim):
        coeffs = [0] * dim
        coeffs[lead] = 1
        while True:
            count += 1
            flat = [sum(c * v for c, v in zip(coeffs, cell)) for cell in cells]
            rk = gfp_eliminate([flat[a * cols : (a + 1) * cols] for a in range(rows)], p)[0]
            if rk < best_rank:
                best_rank = rk
                best = coeffs[:]
            pos = dim - 1
            while pos > lead:
                coeffs[pos] += 1
                if coeffs[pos] < p:
                    break
                coeffs[pos] = 0
                pos -= 1
            if pos == lead:
                break
    return best_rank, best, count


def sigma_descent(A, P, r, iters, x0, rows, cols):
    """Drive the r-th singular value of a basis combination toward zero.

    Alternates projecting the current combination onto the rank-(r-1)
    matrices (truncated SVD) with a least-squares refit of the coefficients
    (P is the precomputed pseudoinverse of the vectorized basis A), keeping
    coefficients on the unit sphere.  Tracks the best relative value
    sigma_r / sigma_1 seen and the coefficients achieving it.
    """
    nrm0 = np.sqrt(np.real(np.vdot(x0, x0)))
    x = x0 / nrm0
    best_val = np.inf
    best_x = x.copy()
    prev = np.inf
    for _ in range(iters):
        v = A @ x
        M = v.reshape(rows, cols)
        u, s, vh = np.linalg.svd(M, full_matrices=False)
        if s[0] <= 0.0:
            best_val = 0.0
            best_x = x.copy()
            break
        val = s[r - 1] / s[0]
        if val < best_val:
            best_val = val
            best_x = x.copy()
        if val == 0.0:
            break
        if r == 1:
            T = np.zeros((rows, cols), np.complex128)
        else:
            T = (u[:, : r - 1] * s[: r - 1]) @ np.ascontiguousarray(vh[: r - 1, :])
        y = P @ T.reshape(rows * cols)
        nrm = np.sqrt(np.real(np.vdot(y, y)))
        if nrm < 1e-150:
            break
        x = y / nrm
        if abs(prev - val) < 1e-16:
            break
        prev = val
    return best_val, best_x
