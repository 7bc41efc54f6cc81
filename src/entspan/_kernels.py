"""Hot loops: the GF(p) projective scan and the singular-value descent.

The scan forms each chunk of combinations from one precomputed block and
ranks it with ``statemat.gfp_eliminate``, the package's one GF(p)
elimination, which reduces it mod p and returns ranks only.  The descent
comes in two forms that share no code: ``sigma_descent`` runs one start and
can end at a target, ``sigma_descent_lanes`` runs several starts in lockstep
at target 0, each lane bit-identical to the lone descent.  All of it runs as plain Python
and numpy; there is one backend.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .statemat import gfp_eliminate, reduce_mod

#: No compiled backend exists; perfbench/child.py records this constant in
#: each run's provenance.
USING_NUMBA = False

#: Bytes of int64 combinations one scan chunk holds, whatever p is; the
#: chunk's point count is at most this over 8 * rows * cols, and at least half
#: of it unless a leading coordinate has fewer points left.  On a 3906-point
#: scan, chunks of 128 KiB ran as fast as 1 MiB ones, and the scan's traced
#: peak was 0.64 MiB instead of 1.5 MiB.
SCAN_CHUNK_BYTES = 1 << 17


def gfp_min_rank_scan(stack, p, rows, cols):
    """Minimum rank mod p over every projective coefficient point.

    ``stack`` holds the vectorized basis, one row of ints per matrix, entries
    already reduced mod p.  Points are normalized to first nonzero
    coordinate 1 and walked in base-p odometer order (last coordinate
    fastest), (p**dim - 1)/(p - 1) of them in total, a chunk of
    SCAN_CHUNK_BYTES at a time.  Returns (min_rank, coefficients of the
    first minimizer, point count).

    The combinations over the last coordinates, as many as one chunk holds,
    are formed once by outer sums.  Each chunk is a run of digits of the
    coordinate before them, with the earlier digits fixed, added to that
    block; ``gfp_eliminate`` reduces it mod p once.  When p alone exceeds a
    chunk, the block holds the zero combination and the runs split the last
    coordinate's digits.
    """
    basis = np.array(stack, dtype=np.int64)
    dim, cells = len(basis), rows * cols
    chunk = max(1, SCAN_CHUNK_BYTES // (8 * cells))
    depth = 0
    while depth < dim - 1 and p ** (depth + 1) <= chunk:
        depth += 1
    block = np.zeros((1, cells), dtype=np.int64)
    for matrix in basis[dim - depth :]:
        block = reduce_mod((block[:, None, :] + np.arange(p)[:, None] * matrix).reshape(-1, cells), p)
    best_rank = min(rows, cols) + 1
    best = [0] * dim
    count = 0
    for lead in range(dim):
        # The block's first p**inner rows are its combinations over the last inner coordinates.
        inner = min(depth, dim - lead - 1)
        tail = block[: p**inner]
        walk = basis[lead : dim - inner]
        *fixed, last = [range(1, 2)] + [range(p)] * (len(walk) - 1)
        step = max(1, chunk // len(tail))
        for prefix in itertools.product(*fixed):
            offset = np.zeros(cells, dtype=np.int64)
            for digit, matrix in zip(prefix, walk):
                offset = reduce_mod(offset + digit * matrix, p)
            for lo in range(last.start, last.stop, step):
                digits = np.arange(lo, min(lo + step, last.stop))
                # Entries stay below p**2 + 2p < 2**63 until gfp_eliminate reduces them.
                combos = (offset + digits[:, None] * walk[-1])[:, None, :] + tail
                ranks = gfp_eliminate(combos.reshape(-1, rows, cols), p)
                k = int(ranks.argmin())
                if ranks[k] < best_rank:
                    best_rank = int(ranks[k])
                    run, k = divmod(k, len(tail))
                    best = [0] * lead + [*prefix, lo + run] + [k // p**i % p for i in range(inner - 1, -1, -1)]
                count += len(digits) * len(tail)
    return best_rank, best, count


def sigma_descent(A, P, r, iters, x0, rows, cols, target=0.0):
    """Drive the r-th singular value of a basis combination toward zero.

    Alternates projecting the current combination onto the rank-(r-1)
    matrices (truncated SVD) with a least-squares refit of the coefficients
    (P is the precomputed pseudoinverse of the vectorized basis A), keeping
    coefficients on the unit sphere.  Tracks the best relative value
    sigma_r / sigma_1 seen and the coefficients achieving it, and returns
    them after ``iters`` iterations, once the value stalls, or at the first
    iterate whose value is below ``target`` or is 0 (sigma_1 = 0 counts as 0).
    With the default target of 0 only an exact zero ends the descent early.
    """
    x = x0 / math.sqrt(np.vdot(x0, x0).real)
    best_val = math.inf
    best_x = x
    prev = math.inf
    k = r - 1
    for _ in range(iters):
        M = (A @ x).reshape(rows, cols)
        u, s, vh = np.linalg.svd(M, full_matrices=False)
        top = s.item(0)
        if top <= 0.0:
            return 0.0, x
        val = s.item(k) / top
        if val < best_val:
            # x is rebound below, never written in place, so it needs no copy.
            best_val, best_x = val, x
            if val < target or val == 0.0:
                return val, x
        T = (u[:, :k] * s[:k]) @ np.ascontiguousarray(vh[:k, :])
        y = P @ T.reshape(rows * cols)
        nrm = math.sqrt(np.vdot(y, y).real)
        if nrm < 1e-150:
            break
        x = y / nrm
        if abs(prev - val) < 1e-16:
            break
        prev = val
    return best_val, best_x


def sigma_descent_lanes(A, P, r, iters, X0, rows, cols):
    """``sigma_descent`` at target 0 from each row of X0, run in lockstep.

    Each iteration takes one SVD of the stack of the live lanes' matrices.
    Every product is a stacked matmul, which runs the same BLAS call per lane
    as the lone descent's, so lane i returns exactly (bit for bit) what
    ``sigma_descent(A, P, r, iters, X0[i], rows, cols)`` returns; one gemm
    over all lanes (``X @ A.T``) would not.  A lane leaves the stack where the
    lone descent would end: at an exact zero, a stall or an underflow.
    Returns a list of (value, coefficients), one per row of X0.
    """
    X = np.array([x0 / math.sqrt(np.vdot(x0, x0).real) for x0 in X0])
    best_val = np.full(len(X), math.inf)
    best_X = X.copy()
    prev = np.full(len(X), math.inf)
    live = np.arange(len(X))
    k = r - 1
    for _ in range(iters):
        u, s, vh = np.linalg.svd(np.matmul(A, X[:, :, None]).reshape(-1, rows, cols), full_matrices=False)
        top = s[:, 0]
        # sigma_1 = 0 counts as the value 0, as in sigma_descent.
        val = np.divide(s[:, k], top, out=np.zeros(len(top)), where=~(top <= 0.0))
        better = val < best_val[live]
        best_val[live[better]] = val[better]
        best_X[live[better]] = X[better]
        T = np.matmul(u[:, :, :k] * s[:, None, :k], vh[:, :k, :])
        Y = np.matmul(P, T.reshape(len(T), rows * cols, 1))[:, :, 0]
        nrm = np.array([math.sqrt(np.vdot(y, y).real) for y in Y])
        # Negated comparisons keep a NaN lane running, as sigma_descent does.
        go = (val != 0.0) & ~(nrm < 1e-150) & ~(abs(prev - val) < 1e-16)
        live, X, prev = live[go], Y[go] / nrm[go, None], val[go]
        if not len(live):
            break
    return list(zip(best_val.tolist(), best_X))
