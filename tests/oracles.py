"""Small brute-force oracles, independent of the package's algorithms.

Determinants here use permutation expansion and ranks use the largest order
of a nonzero minor, so they share no code path with the elimination-based
routines they check.  Only usable at desk scale.
"""

import itertools
from fractions import Fraction


def diagonal_of(m):
    """The one diagonal k = col - row that holds every nonzero entry of matrix m."""
    (k,) = {j - i for i, row in enumerate(m.to_lists()) for j, v in enumerate(row) if v}
    return k


def perm_det(rows):
    """Determinant by signed permutation expansion; O(n!) but independent."""
    n = len(rows)
    assert all(len(r) == n for r in rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = Fraction(1)
        for i in range(n):
            term *= Fraction(rows[i][perm[i]])
        total += sign * term
    return total


def minor_rank(rows, p=None):
    """Rank as the largest order of a nonzero minor (perm_det underneath).

    With a prime ``p``, the rank mod p: minors count when nonzero mod p.
    """
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    for order in range(min(n_rows, n_cols), 0, -1):
        for ri in itertools.combinations(range(n_rows), order):
            for ci in itertools.combinations(range(n_cols), order):
                det = perm_det([[rows[i][j] for j in ci] for i in ri])
                if (det if p is None else det % p) != 0:
                    return order
    return 0


def all_minors_vanish(rows, r):
    """True iff every order-r minor is zero (direct enumeration)."""
    n_rows, n_cols = len(rows), len(rows[0])
    for ri in itertools.combinations(range(n_rows), r):
        for ci in itertools.combinations(range(n_cols), r):
            if perm_det([[rows[i][j] for j in ci] for i in ri]) != 0:
                return False
    return True
