"""Hot loops: the GF(p) projective scan and the singular-value descent.

GF(p) lives here, beside the scan of an integer basis, its one reader.  The
scan forms its chunks of combinations from one precomputed block, cell by
cell as (cells, N) arrays; the last leading coordinates, whose points all lie
in the block, share one chunk.  ``gfp_eliminate``, the one GF(p) elimination,
ranks each chunk in place as (rows, cols, N), sweeping the shorter side.  The
descent comes in two forms that share no code: ``sigma_descent`` runs one
start and can end at a target, ``sigma_descent_lanes`` runs several starts
in lockstep at target 0, each lane bit-identical to the lone descent.  All of
it runs as plain Python and numpy; there is one backend.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import DomainError
from .statemat import _is_int

#: No compiled backend exists; perfbench/child.py records this constant in
#: each run's provenance.
USING_NUMBA = False

#: Bytes of int64 combinations one scan chunk holds, whatever p is; the
#: chunk's point count is at most this over 8 * rows * cols.  On a 3906-point
#: scan, chunks of 128 KiB ran as fast as 1 MiB ones, and the scan's traced
#: peak was 0.64 MiB instead of 1.5 MiB.
SCAN_CHUNK_BYTES = 1 << 17

#: GF(p) moduli must be primes below this, so every residue fits a signed
#: 32-bit word and products of two fit 64 bits.
MODULUS_LIMIT = 2**31


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def check_modulus(p) -> None:
    """Reject anything but a prime below MODULUS_LIMIT, range first.

    The range test runs before any trial division, so a huge modulus is
    refused at once instead of being factored.
    """
    if not (_is_int(p) and 2 <= p < MODULUS_LIMIT and is_prime(p)):
        raise DomainError(f"GF(p) needs a prime p below 2**31, got {p!r}")


def reduce_mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in place for an int64 array x, which is returned.

    numpy divides an integer array by a scalar with a multiply and a shift,
    but computes ``x % p`` with one hardware division per entry, several times
    slower; x - (x // p) * p is the same residue in [0, p), for any int64 x:
    where (x // p) * p wraps, the subtraction wraps back.
    """
    q = x // p
    q *= p
    x -= q
    return x


def gfp_eliminate(a: np.ndarray, p: int) -> np.ndarray:
    """The (N,) ranks mod p of the N matrices a[:, :, k] of an int64 (rows, cols, N) array, which it overwrites.

    This is a scan chunk's own layout, so every step works on contiguous runs
    of N values.  Since rank(A) = rank(A^T), the elimination sweeps axis 0,
    the shorter side as the scan lays it out; an axis 1 that is empty needs
    an empty axis 0.  It is fraction-free and swap-free: at each index of
    axis 0 every matrix pivots on its first unused index of axis 1 with a
    nonzero entry there and marks it used, and each other unused line becomes
    pivot * line - head * pivot_line, one later index at a time, so no entry
    needs an inverse.  Residues are below p < 2**31 (``check_modulus``), so
    both products stay below 2**62 and each step is reduced (``reduce_mod``)
    after its update.
    """
    reduce_mod(a, p)
    n_cols, n_rows, n_mats = a.shape
    every = np.arange(n_mats)
    ranks = np.zeros(n_mats, dtype=np.int64)
    unused = np.ones((n_rows, n_mats), dtype=bool)
    for col in range(n_cols):
        heads = a[col] * unused
        nonzero = heads != 0
        piv = nonzero.argmax(axis=0)
        found = nonzero[piv, every]
        ranks += found
        if col + 1 == n_cols:
            break
        pivots = np.where(found, heads[piv, every], 1)
        unused[piv, every] &= ~found
        heads *= unused
        scale = np.where(unused, pivots, 1)
        for rest in a[col + 1 :]:
            pivot_row = rest[piv, every]
            rest *= scale
            rest -= heads * pivot_row
            reduce_mod(rest, p)
    return ranks


def _projective_point(k, dim, p):
    """The k-th of the (p**dim - 1)/(p - 1) normalized points over dim coordinates, in odometer order."""
    for lead in range(dim):
        inner = dim - 1 - lead
        if k < p**inner:
            return [0] * lead + [1] + [k // p**i % p for i in range(inner - 1, -1, -1)]
        k -= p**inner
    raise IndexError("point index past the last projective point")


def _scan_chunks(basis, p, chunk):
    """The combinations of every projective point, in odometer order, as (cells, N) chunks of at most chunk points.

    The combinations over the last ``depth`` coordinates are formed once, as a
    block, by outer sums.  Each leading coordinate before the last depth + 1
    gives chunks that add a run of digits of the coordinate before the block,
    with the earlier digits fixed, to the whole block.  The leading coordinates
    from dim - 1 - depth on have all their points in the block's leading runs,
    so they share one last chunk; depth is the largest that lets those
    (p**(depth+1) - 1)/(p - 1) points fit in a chunk.  When p alone exceeds a
    chunk, the block holds the zero combination and the runs split the last
    coordinate's digits.
    """
    dim, cells = basis.shape
    depth = 0
    while depth < dim - 1 and (p ** (depth + 2) - 1) // (p - 1) <= chunk:
        depth += 1
    block = np.zeros((cells, 1), dtype=np.int64)
    for matrix in basis[dim - depth :]:
        block = reduce_mod((block[:, :, None] + matrix[:, None, None] * np.arange(p)).reshape(cells, -1), p)
    step = max(1, chunk // block.shape[1])
    for lead in range(dim - 1 - depth):
        *walk, last = basis[lead : dim - depth]
        for prefix in itertools.product([1], *[range(p)] * (len(walk) - 1)):
            offset = np.zeros(cells, dtype=np.int64)
            for digit, matrix in zip(prefix, walk):
                offset = reduce_mod(offset + digit * matrix, p)
            for lo in range(0, p, step):
                # Entries stay below p**2 + 2p < 2**63 until gfp_eliminate reduces them.
                runs = offset[:, None] + last[:, None] * np.arange(lo, min(lo + step, p))
                yield (runs[:, :, None] + block[:, None, :]).reshape(cells, -1)
    group = range(dim - 1 - depth, dim)
    yield np.concatenate([basis[lead][:, None] + block[:, : p ** (dim - 1 - lead)] for lead in group], axis=1)


def gfp_min_rank_scan(stack, p, rows, cols):
    """Minimum rank mod p over every projective coefficient point.

    ``stack`` holds the vectorized basis, one row of ints per matrix, entries
    already reduced mod p.  Points are normalized to first nonzero
    coordinate 1 and walked in base-p odometer order (last coordinate
    fastest), (p**dim - 1)/(p - 1) of them in total, a chunk of at most
    SCAN_CHUNK_BYTES at a time (``_scan_chunks``).  Returns (min_rank,
    coefficients of the first minimizer, point count).

    Each chunk is built cell-major, as (cells, N), so ``gfp_eliminate`` ranks
    it as a (rows, cols, N) view, in place: every chunk is a new array.  When
    rows > cols the basis is transposed first, which keeps every rank, so
    that the elimination sweeps the shorter side.
    """
    basis = np.array(stack, dtype=np.int64).reshape(-1, rows, cols)
    if rows > cols:
        basis, rows, cols = basis.transpose(0, 2, 1), cols, rows
    dim = len(basis)
    best_rank = rows + 1
    best = [0] * dim
    count = 0
    for combos in _scan_chunks(basis.reshape(dim, rows * cols), p, max(1, SCAN_CHUNK_BYTES // (8 * rows * cols))):
        ranks = gfp_eliminate(combos.reshape(rows, cols, -1), p)
        k = int(ranks.argmin())
        if ranks[k] < best_rank:
            best_rank, best = int(ranks[k]), _projective_point(count + k, dim, p)
        count += len(ranks)
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
    as the lone descent's, and ``np.vecdot`` makes the same zdotc call per
    lane as its ``np.vdot``, so lane i returns exactly (bit for bit) what
    ``sigma_descent(A, P, r, iters, X0[i], rows, cols)`` returns; one gemm
    over all lanes (``X @ A.T``) would not.  Each lane's best value and
    coefficients sit beside it in the stack.  A lane leaves where the lone
    descent would end: at an exact zero, a stall or an underflow; its best is
    written out then, and only then is the stack compacted.  A leaving lane's
    refit is never divided by its norm, which may be 0.  Returns a list of
    (value, coefficients), one per row of X0.
    """
    X = X0 / np.sqrt(np.vecdot(X0, X0).real)[:, None]
    best_val = np.full(len(X), math.inf)
    best_X = X.copy()
    out_val, out_X = np.empty(len(X)), np.empty_like(X)
    prev = np.full(len(X), math.inf)
    live = np.arange(len(X))
    k = r - 1
    for _ in range(iters):
        u, s, vh = np.linalg.svd(np.matmul(A, X[:, :, None]).reshape(-1, rows, cols), full_matrices=False)
        top = s[:, 0]
        # sigma_1 = 0 counts as the value 0, as in sigma_descent.
        val = np.divide(s[:, k], top, out=np.zeros(len(top)), where=~(top <= 0.0))
        better = val < best_val
        np.copyto(best_val, val, where=better)
        np.copyto(best_X, X, where=better[:, None])
        T = np.matmul(u[:, :, :k] * s[:, None, :k], vh[:, :k, :])
        Y = np.matmul(P, T.reshape(len(T), rows * cols, 1))[:, :, 0]
        nrm = np.sqrt(np.vecdot(Y, Y).real)
        # Negated comparisons keep a NaN lane running, as sigma_descent does.
        go = (val != 0.0) & ~(nrm < 1e-150) & ~(abs(prev - val) < 1e-16)
        if not go.all():
            out_val[live[~go]], out_X[live[~go]] = best_val[~go], best_X[~go]
            live, best_val, best_X, Y, nrm, val = live[go], best_val[go], best_X[go], Y[go], nrm[go], val[go]
            if not len(live):
                break
        X, prev = Y / nrm[:, None], val
    out_val[live], out_X[live] = best_val, best_X
    return list(zip(out_val.tolist(), out_X))
