"""Totally non-singular matrices: generation, certification, zero counting.

A square matrix is totally non-singular when every minor of every order is
nonzero.  Vandermonde matrices on strictly increasing positive nodes are the
deterministic source used throughout: they are totally positive, hence
totally non-singular.  Construction certifies this exhaustively up to
``CERTIFICATION_CAP``, computing every minor of an m x m matrix by Laplace
expansion from the minors one order down, at m * C(2m - 1, m - 1) integer
multiply-adds (51480 at m = 8); larger sizes rely on the total-positivity
theorem and say so in their ``certified`` tag.

The payoff is the zero-count bound: a nonzero combination of n columns of an
m x m totally non-singular matrix has at most n - 1 zero entries, i.e. at
least m - n + 1 nonzero ones.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import DimensionError, DomainError
from .statemat import RATIONAL, StateMatrix

#: Largest size for which construction proves total non-singularity by
#: computing every minor; that costs m * C(2m - 1, m - 1) multiply-adds, which
#: roughly quadruples with each size, so beyond this the Vandermonde
#: total-positivity theorem is trusted instead.
CERTIFICATION_CAP = 8

CERTIFIED_EXHAUSTIVE = "exhaustive"
CERTIFIED_BY_THEOREM = "by-theorem"


@dataclass(frozen=True)
class TnsMatrix:
    """Square exact matrix with all minors certified (or asserted) nonzero."""

    size: int
    entries: tuple  # row-major Fractions
    nodes: tuple | None
    certified: str

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.size + j]

    def to_lists(self) -> list[list[Fraction]]:
        s = self.size
        return [list(self.entries[i * s : (i + 1) * s]) for i in range(s)]

    def leading_column(self, length: int, j: int) -> list[Fraction]:
        """Column j of the leading length x length submatrix."""
        if not (0 <= j < length <= self.size):
            raise DimensionError(f"column {j} of leading {length}x{length} block out of range")
        return [self.at(i, j) for i in range(length)]


def is_totally_nonsingular(matrix, order_cap: int | None = None) -> tuple[bool, tuple | None]:
    """Check all minors up to ``order_cap`` (default: full size) are nonzero.

    Returns ``(True, None)`` or ``(False, (row_set, col_set))`` with the first
    vanishing minor in (order, row, column) lexicographic scan order.

    Each order-k minor is a Laplace expansion along its last column, whose k
    cofactors are order-(k-1) minors from the previous order's table, so an
    m x m matrix costs m * C(2m - 1, m - 1) integer multiply-adds in all.
    """
    if not isinstance(matrix, StateMatrix):
        matrix = StateMatrix.from_rows(matrix.to_lists() if isinstance(matrix, TnsMatrix) else matrix)
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


def vandermonde(nodes: Sequence) -> TnsMatrix:
    """Vandermonde matrix on strictly increasing positive nodes.

    Entry (i, j) is nodes[i]**j.  Such matrices are totally positive, so all
    minors are nonzero; sizes up to CERTIFICATION_CAP are verified minor by
    minor anyway.
    """
    fr_nodes = tuple(Fraction(x) for x in nodes)
    if not fr_nodes:
        raise DomainError("need at least one node")
    if fr_nodes[0] <= 0:
        raise DomainError(f"nodes must be positive, got {fr_nodes[0]}")
    for a, b in zip(fr_nodes, fr_nodes[1:]):
        if b <= a:
            raise DomainError(f"nodes must be strictly increasing, got {a} then {b}")
    m = len(fr_nodes)
    flat = tuple(x**j for x in fr_nodes for j in range(m))
    if m <= CERTIFICATION_CAP:
        ok, witness = is_totally_nonsingular([[flat[i * m + j] for j in range(m)] for i in range(m)])
        if not ok:
            raise DomainError(f"vanishing minor {witness} in a Vandermonde matrix; nodes {fr_nodes}")
        certified = CERTIFIED_EXHAUSTIVE
    else:
        certified = CERTIFIED_BY_THEOREM
    return TnsMatrix(m, flat, fr_nodes, certified)


@lru_cache(maxsize=None)
def default_tns(m: int) -> TnsMatrix:
    """The package-wide deterministic source: Vandermonde on nodes 1..m."""
    return vandermonde(range(1, m + 1))


def combination_nonzero_count(tns: TnsMatrix, cols: Sequence[int], coeffs: Sequence) -> int:
    """Nonzero entries of a combination of columns; at least m - n + 1 of them.

    ``cols`` picks n distinct columns, ``coeffs`` weights them (not all
    zero); coefficients pair with the columns in increasing index order, and
    the count bound holds whichever pairing was meant.
    """
    col_list = sorted(set(cols))
    if len(col_list) != len(cols):
        raise DomainError("column indices must be distinct")
    n = len(col_list)
    if not 1 <= n <= tns.size:
        raise DimensionError(f"need between 1 and {tns.size} columns, got {n}")
    if any(not 0 <= c < tns.size for c in col_list):
        raise DimensionError(f"column index out of range in {col_list}")
    if len(coeffs) != n:
        raise DimensionError(f"{n} columns but {len(coeffs)} coefficients")
    cs = [Fraction(c) for c in coeffs]
    if all(c == 0 for c in cs):
        raise DomainError("coefficients must not all be zero")
    count = 0
    for i in range(tns.size):
        if sum(c * tns.at(i, j) for c, j in zip(cs, col_list)) != 0:
            count += 1
    return count

