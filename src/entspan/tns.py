"""Totally non-singular matrices: generation, certification, zero counting.

A square matrix is totally non-singular when every minor of every order is
nonzero.  Vandermonde matrices on strictly increasing positive nodes are the
deterministic source used throughout: they are totally positive, hence
totally non-singular.  Construction certifies this exhaustively up to
``CERTIFICATION_CAP``, computing every minor of an m x m matrix by Laplace
expansion from the minors one order down, at m * C(2m - 1, m - 1) integer
multiply-adds (51480 at m = 8); larger sizes rely on the total-positivity
theorem, and ``certification`` names which of the two applies.  A TNS
matrix is a plain rational ``StateMatrix``, and every exact value read here
(nodes, coefficients) passes the same coercion as a matrix entry, so floats,
bools and strings are refused.

The payoff is the zero-count bound: a nonzero combination of n columns of an
m x m totally non-singular matrix has at most n - 1 zero entries, i.e. at
least m - n + 1 nonzero ones.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Sequence

from .errors import DimensionError, DomainError
from .statemat import RATIONAL, StateMatrix, _coerce_entry, _is_int

#: Largest size for which construction proves total non-singularity by
#: computing every minor; that costs m * C(2m - 1, m - 1) multiply-adds, which
#: roughly quadruples with each size, so beyond this the Vandermonde
#: total-positivity theorem is trusted instead.
CERTIFICATION_CAP = 8

CERTIFIED_EXHAUSTIVE = "exhaustive"
CERTIFIED_BY_THEOREM = "by-theorem"


def certification(size: int) -> str:
    """How a Vandermonde source of this size is known to be totally non-singular."""
    return CERTIFIED_EXHAUSTIVE if size <= CERTIFICATION_CAP else CERTIFIED_BY_THEOREM


def is_totally_nonsingular(matrix, order_cap: int | None = None) -> tuple[bool, tuple | None]:
    """Check all minors up to ``order_cap`` (default: full size) are nonzero.

    Returns ``(True, None)`` or ``(False, (row_set, col_set))`` with the first
    vanishing minor in (order, row, column) lexicographic scan order.

    Each order-k minor is a Laplace expansion along its last column, whose k
    cofactors are order-(k-1) minors from the previous order's table, so an
    m x m matrix costs m * C(2m - 1, m - 1) integer multiply-adds in all.
    """
    if order_cap is not None and not (_is_int(order_cap) and order_cap >= 1):
        raise DomainError(f"order_cap must be a positive integer or None, got {order_cap!r}")
    if not isinstance(matrix, StateMatrix):
        matrix = StateMatrix.from_rows(matrix)
    if matrix.field != RATIONAL:
        raise DomainError("total non-singularity checks run over the rationals")
    n = matrix.rows
    if matrix.cols != n:
        raise DimensionError("total non-singularity is defined for square matrices")
    # The common denominator scales each order-k minor by the same nonzero
    # factor, so the numerators have the same vanishing minors.
    rows = [matrix.entries[i * n : (i + 1) * n] for i in range(n)]
    cap = n if order_cap is None else min(order_cap, n)
    # prev[i][j]: the previous order's minor on the i-th row set and j-th
    # column set of prev_index; the order-0 minor is 1.
    prev, prev_index = [[1]], {(): 0}
    for order in range(1, cap + 1):
        sets = list(itertools.combinations(range(n), order))
        # Column set cs expands along its last column cs[-1]; the cofactor
        # columns are cs[:-1].
        col_terms = [(cs[-1], prev_index[cs[:-1]]) for cs in sets]
        table = []
        for rs in sets:
            # Row rs[i] of the last column carries sign (-1)**(i + order - 1)
            # and the cofactor on the remaining rows.
            terms = [
                ([-v for v in rows[r]] if (order - 1 - i) % 2 else rows[r], prev[prev_index[rs[:i] + rs[i + 1 :]]])
                for i, r in enumerate(rs)
            ]
            line = []
            for cs, (c, j) in zip(sets, col_terms):
                det = sum([row[c] * cofactors[j] for row, cofactors in terms])
                if not det:
                    return False, (rs, cs)
                line.append(det)
            table.append(line)
        prev, prev_index = table, {s: k for k, s in enumerate(sets)}
    return True, None


def vandermonde(nodes: Sequence) -> StateMatrix:
    """Vandermonde matrix on strictly increasing positive rational nodes.

    Entry (i, j) is nodes[i]**j.  Such matrices are totally positive, so all
    minors are nonzero; sizes up to CERTIFICATION_CAP are verified minor by
    minor anyway.
    """
    xs = [_coerce_entry(x, RATIONAL, None) for x in nodes]
    if not xs:
        raise DomainError("need at least one node")
    if xs[0] <= 0:
        raise DomainError(f"nodes must be positive, got {xs[0]}")
    for a, b in zip(xs, xs[1:]):
        if b <= a:
            raise DomainError(f"nodes must be strictly increasing, got {a} then {b}")
    m = len(xs)
    matrix = StateMatrix.rational([[x**j for j in range(m)] for x in xs])
    if certification(m) == CERTIFIED_EXHAUSTIVE:
        ok, witness = is_totally_nonsingular(matrix)
        if not ok:
            raise DomainError(f"vanishing minor {witness} in a Vandermonde matrix; nodes {', '.join(map(str, xs))}")
    return matrix


@lru_cache(maxsize=None)
def default_tns(m: int) -> StateMatrix:
    """The package-wide deterministic source: Vandermonde on nodes 1..m."""
    return vandermonde(range(1, m + 1))


def combination_nonzero_count(tns: StateMatrix, cols: Sequence[int], coeffs: Sequence) -> int:
    """Nonzero entries of a combination of columns; at least m - n + 1 of them.

    ``cols`` picks n distinct columns, ``coeffs`` weights them (not all
    zero); coefficients pair with the columns in increasing index order, and
    the count bound holds whichever pairing was meant.
    """
    if tns.field != RATIONAL:
        raise DomainError("zero counts are taken over the rationals")
    col_list = sorted(set(cols))
    if len(col_list) != len(cols):
        raise DomainError("column indices must be distinct")
    n = len(col_list)
    if not 1 <= n <= tns.cols:
        raise DimensionError(f"need between 1 and {tns.cols} columns, got {n}")
    if any(not 0 <= c < tns.cols for c in col_list):
        raise DimensionError(f"column index out of range in {col_list}")
    if len(coeffs) != n:
        raise DimensionError(f"{n} columns but {len(coeffs)} coefficients")
    cs = [_coerce_entry(c, RATIONAL, None) for c in coeffs]
    if not any(cs):
        raise DomainError("coefficients must not all be zero")
    # The numerators are the entries times the common denominator, which
    # changes no entry's vanishing.
    rows = [tns.entries[i * tns.cols : (i + 1) * tns.cols] for i in range(tns.rows)]
    return sum(1 for row in rows if sum(c * row[j] for c, j in zip(cs, col_list)))
