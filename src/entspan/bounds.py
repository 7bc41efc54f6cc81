"""Closed-form dimension bounds and the reports derived from them.

Everything here is exact integer (or elementary transcendental) arithmetic:
the maximum dimension (dA-r+1)(dB-r+1) for subspaces of rank >= r, the
r * max(dA, dB) bound for rank <= r, the known bracket for rank exactly r
with its decidable special cases, determinantal variety dimensions, and two
consequences: the mixed-state projector report and the comparison against
what random-subspace arguments give.

All operations are symmetric in (dA, dB) and normalize orientation
internally, so callers may pass the local dimensions in either order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

#: Largest min(dA, dB) for which the factorial divisibility clause of the
#: fixed-rank bracket is evaluated exactly; factorials outgrow usefulness
#: beyond this, and the clause's conclusion is unavailable rather than wrong.
FACTORIAL_CLAUSE_CAP = 64


def _normalize(dA: int, dB: int) -> tuple[int, int]:
    if dA < 1 or dB < 1:
        raise DomainError(f"dimensions must be positive, got {dA}, {dB}")
    return (dA, dB) if dA <= dB else (dB, dA)


def max_dim_geq(dA: int, dB: int, r: int) -> int:
    """Largest dimension of a subspace all of whose states have rank >= r."""
    a, b = _normalize(dA, dB)
    if not 1 <= r <= a:
        raise DomainError(f"need 1 <= r <= min(dA, dB) = {a}, got r={r}")
    return (a - r + 1) * (b - r + 1)


def flanders_max_leq(dA: int, dB: int, r: int) -> int:
    """Largest dimension of a subspace all of whose elements have rank <= r."""
    a, b = _normalize(dA, dB)
    if not 1 <= r <= a:
        raise DomainError(f"need 1 <= r <= min(dA, dB) = {a}, got r={r}")
    return r * b


def westwick_range(dA: int, dB: int, r: int) -> tuple[int, int, int | None, str]:
    """(lo, hi, exact, reason) for subspaces of rank exactly r.

    lo = dB - r + 1 and hi = dA + dB - 2r + 1 always hold (dA <= dB after
    normalization).  The exact value is known when the bounds coincide, when
    dB - r + 1 fails to divide (dA-1)!/(r-1)!, and in the special corner
    dA = r + 1, dB = 2r - 1; otherwise it is open.
    """
    a, b = _normalize(dA, dB)
    if not 2 <= r <= a:
        raise DomainError(f"need 2 <= r <= min(dA, dB) = {a}, got r={r}")
    lo = b - r + 1
    hi = a + b - 2 * r + 1
    if lo == hi:
        return lo, hi, lo, "bounds coincide (r = min(dA, dB))"
    if a <= FACTORIAL_CLAUSE_CAP:
        ratio = math.factorial(a - 1) // math.factorial(r - 1)
        if ratio % lo != 0:
            return lo, hi, lo, f"dB-r+1 = {lo} does not divide (dA-1)!/(r-1)! = {ratio}"
        clause_note = ""
    else:
        clause_note = f"; divisibility clause not evaluated for min(dA, dB) > {FACTORIAL_CLAUSE_CAP}"
    if a == r + 1 and b == 2 * r - 1:
        return lo, hi, r + 1, "special case dA = r+1, dB = 2r-1"
    return lo, hi, None, "open in general" + clause_note


def variety_dim(dA: int, dB: int, r: int) -> tuple[int, int]:
    """(affine, projective) dimension of the rank-< r determinantal variety."""
    a, b = _normalize(dA, dB)
    if not 1 <= r <= a + 1:
        raise DomainError(f"need 1 <= r <= min(dA, dB) + 1 = {a + 1}, got r={r}")
    affine = a * b - (a - r + 1) * (b - r + 1)
    return affine, affine - 1


@dataclass(frozen=True)
class BoundsTable:
    """All bound values for one (dA, dB, r) triple."""

    dA: int
    dB: int
    r: int
    max_dim_geq: int
    flanders_max_leq: int
    westwick_lo: int | None
    westwick_hi: int | None
    westwick_exact: int | None
    westwick_reason: str
    variety_dim_affine: int
    variety_dim_projective: int


def bounds_table(dA: int, dB: int, r: int) -> BoundsTable:
    a, b = _normalize(dA, dB)
    geq = max_dim_geq(a, b, r)
    leq = flanders_max_leq(a, b, r)
    if r >= 2:
        w_lo, w_hi, w_exact, w_reason = westwick_range(a, b, r)
    else:
        w_lo = w_hi = w_exact = None
        w_reason = "fixed-rank bracket applies for r >= 2"
    affine, projective = variety_dim(a, b, r)
    return BoundsTable(a, b, r, geq, leq, w_lo, w_hi, w_exact, w_reason, affine, projective)


_TABLE_HEADER = f"{'da':>4} {'db':>4} {'r':>3} {'geq':>6} {'flanders':>9} {'westwick':>12} {'exact':>6} {'variety':>8}"


def bounds_table_text(rows: list[BoundsTable]) -> str:
    """Aligned plain-text rendering, one line per (dA, dB, r)."""
    lines = [_TABLE_HEADER]
    for t in rows:
        wrange = "-" if t.westwick_lo is None else f"[{t.westwick_lo},{t.westwick_hi}]"
        wex = "-" if t.westwick_exact is None else str(t.westwick_exact)
        lines.append(
            f"{t.dA:>4} {t.dB:>4} {t.r:>3} {t.max_dim_geq:>6} {t.flanders_max_leq:>9} "
            f"{wrange:>12} {wex:>6} {t.variety_dim_affine:>8}"
        )
    return "\n".join(lines)


def _guarded_ceil(value: float) -> int:
    # Float fuzz guard: 0.3 * 10 style products land a hair above the
    # integer they mean; 1e-9 absolute slack keeps the intended ceiling.
    return math.ceil(value - 1e-9)


@dataclass(frozen=True)
class MixedStateReport:
    """Entanglement figures for the normalized projector onto a maximal basis.

    ``dim`` counts the subspace dimensions for rank threshold r = ceil((1-p)d)
    in a d x d system; the projector's entropy is exactly log2(dim) bits and
    its Schmidt measure is at least r, because any pure-state decomposition
    of the projector draws its vectors from the subspace itself.
    """

    d: int
    p: float
    r: int
    dim: int
    rank_lower_paper: int
    entropy_bits: float
    schmidt_measure_lb: int
    asymptotic_regime: bool
    justification: str


def mixed_state_report(d: int, p: float) -> MixedStateReport:
    if d < 2:
        raise DomainError(f"need d >= 2, got {d}")
    if d > 2**53:  # r and the asymptote come from doubles, which hold every integer only up to 2**53
        raise DomainError("need d <= 2**53, beyond which a dimension has no exact double")
    if not 0.0 < p < 1.0:
        raise DomainError(f"need 0 < p < 1, got {p}")
    r = _guarded_ceil((1.0 - p) * d)
    if r < 2:
        raise DomainError(f"rank threshold ceil((1-p)d) = {r} < 2: bound is trivial for p={p}, d={d}")
    dim = (d - r + 1) ** 2
    asymptote = p * p * d * d
    return MixedStateReport(
        d=d,
        p=p,
        r=r,
        dim=dim,
        rank_lower_paper=round(asymptote),
        entropy_bits=math.log2(dim),
        schmidt_measure_lb=r,
        asymptotic_regime=dim >= asymptote,
        justification=(
            "every pure-state decomposition of the projector consists of vectors "
            f"inside the subspace, so each has Schmidt rank at least {r}"
        ),
    )


@dataclass(frozen=True)
class RandomComparison:
    """Exact maximal dimension at rank fraction k versus the generic estimate.

    Above ``threshold_k`` the random-subspace argument guarantees nothing
    beyond one dimension, while the exact answer stays of order
    (1-k)^2 dA dB.
    """

    dA: int
    dB: int
    k: float
    r: int
    exact_dim: int
    threshold_k: float
    asymptotic: float
    random_bound_trivial: bool


def random_comparison(dA: int, dB: int, k: float) -> RandomComparison:
    a, b = _normalize(dA, dB)
    if b > 2**53:  # as in mixed_state_report
        raise DomainError("need dA, dB <= 2**53, beyond which a dimension has no exact double")
    if not 0.0 < k <= 1.0:
        raise DomainError(f"need 0 < k <= 1, got {k}")
    r = max(1, _guarded_ceil(k * a))
    exact = max_dim_geq(a, b, r)
    threshold = 2.0 ** (-a / (b * math.log(2)))
    return RandomComparison(
        dA=a,
        dB=b,
        k=k,
        r=r,
        exact_dim=exact,
        threshold_k=threshold,
        asymptotic=(1.0 - k) ** 2 * a * b,
        random_bound_trivial=k >= threshold,
    )
