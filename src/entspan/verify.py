"""Certify or refute rank properties of matrix subspaces.

Minimum rank over a whole subspace is a worst-case quantity, so no single
tool settles it.  This module layers four kinds of evidence:

* structural certificates: for bases built by the diagonal construction, an
  exactly computed nonzero triangular minor on the top-rightmost occupied
  diagonal, mirroring why the construction works.  ``construct`` proves
  that argument for every combination when it builds a basis; a certificate
  proves it for one combination of any basis given to it, loaded ones too;
* seeded exact sampling over the rationals, which can refute but only ever
  reports "consistent" on success;
* exhaustive enumeration over GF(p), an exact finite oracle whose verdict is
  one-sided (rank can only drop when reducing mod p);
* numerical descent on the r-th singular value, a heuristic search for the
  low-rank element whose existence is guaranteed above the dimension bound;
  it stops at the first witness it accepts.

Verdicts are "consistent", "refuted" or "inconclusive".  A refutation
carries a checkable witness, except one that sigma mode reads from the
paper's theorem alone: above the dimension bound (dA-r+1)(dB-r+1) some
nonzero element has rank below r, and the report's params carry the numbers
the bound is recomputed from.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import _kernels
from .bounds import max_dim_geq
from .construct import KIND_FIXED_RANK, KIND_MIN_RANK, SAMPLE_BOX, SubspaceBasis, coeff_stream, draw_coeffs, draw_normals
from .errors import CertificateError, DimensionError, DomainError, FieldMismatchError
from .statemat import (
    COMPLEX,
    RATIONAL,
    StateMatrix,
    _coerce_entry,
    check_modulus,
    minor_value,
    rank_exact,
    schmidt_rank_numeric,
    to_json,
    unit_scaled,
)

VERDICT_CONSISTENT = "consistent"
VERDICT_REFUTED = "refuted"
VERDICT_INCONCLUSIVE = "inconclusive"

CERT_STRUCTURAL = "structural_geq"
CERT_WITNESS_LT = "witness_lt"
CERT_WITNESS_GT = "witness_gt"

#: Relative sigma_r below which the optimizer claims a rank drop (then
#: re-checks it numerically before emitting a witness).
SIGMA_TOL = 1e-7

#: Each sigma descent on a complex basis ends at its first iterate below
#: ``tol * SIGMA_STOP``, which leaves its witness polished well below ``tol``.
SIGMA_STOP = 1e-3

#: Restarts that one stacked descent runs at once on a rational basis.  On a
#: 2-core Xeon, best of 7 at 500 iterations, an 8x8 descent took 30 µs per
#: iteration alone and 41-43 µs as a single lane, and per lane 28 µs at 2
#: lanes, 24 µs at 3 and 18-19 µs at 8 and at 16; larger groups save little
#: and discard more lanes after a refutation mid-group.  A group of fewer than
#: 3 starts runs them one by one on the lone kernel: faster than one lane, and
#: about 6% slower than two.
SIGMA_LANES = 8

#: Residual bound every reported pencil root must satisfy.
PENCIL_TOL = 1e-8

#: Default ceiling on the number of projective points enumerated over GF(p).
GFP_ENUMERATION_CAP = 10**6

#: Largest denominator of the rational point a numeric witness on a rational
#: basis is rounded to before its exact rank is checked.
WITNESS_DENOMINATOR = 10**4

#: The one encoder, under the name perfbench/tracer.py times report
#: encoding by; the CLI encodes reports through this name.
report_to_json_dict = to_json


@dataclass(frozen=True)
class RankCertificate:
    """Witness for a rank statement about one combination.

    ``structural_geq`` pins rank >= r via r positions on diagonal ``kappa``
    whose triangular minor has the recorded nonzero exact value;
    ``witness_lt`` / ``witness_gt`` record a combination whose computed rank
    violates a claimed bound, matrix included for independent re-checking.
    """

    kind: str
    coeffs: tuple
    kappa: int | None = None
    positions: tuple[tuple[int, int], ...] | None = None
    minor_value: object | None = None
    rank_found: int | None = None
    matrix: StateMatrix | None = None


@dataclass(frozen=True)
class VerificationReport:
    mode: str
    samples_or_points: int
    verdict: str
    min_rank_observed: int | None = None
    max_rank_observed: int | None = None
    min_sigma_r: float | None = None
    tolerance: float | None = None
    seed: int | None = None
    witnesses: tuple[RankCertificate, ...] = ()
    params: dict | None = None


def structural_certificate(basis: SubspaceBasis, coeffs: Sequence) -> RankCertificate:
    """Exact rank >= r certificate for a diagonal-construction combination.

    Takes kappa as the top occupied diagonal (largest col - row) of the
    combination itself, collects its first r nonzero entries in row order, and
    evaluates the r x r minor they head.  Everything above diagonal kappa
    vanishes, so the minor is triangular with those entries on its main
    diagonal, hence nonzero.  Nothing but the matrices is read from the basis.
    """
    if basis.kind not in (KIND_MIN_RANK, KIND_FIXED_RANK):
        raise DomainError(f"structural certificates need a diagonal-construction basis, not kind {basis.kind!r}")
    if basis.r is None:
        raise DomainError("structural certificates need the basis's rank threshold r")
    if basis.field != RATIONAL:
        raise FieldMismatchError("structural certificates are exact; basis must be rational")
    if len(coeffs) != basis.dimension:
        raise DimensionError(f"{basis.dimension} basis matrices but {len(coeffs)} coefficients")
    r = basis.r
    cs = [_coerce_entry(c, RATIONAL) for c in coeffs]  # ints stay ints, so they are written as JSON ints
    if not any(cs):
        raise DomainError("coefficients must not all be zero")
    combo = basis.combination(cs)
    occupied = [divmod(k, basis.dB) for k, _ in combo._nonzero]
    kappa = max(j - i for i, j in occupied)
    on_top = [(i, j) for i, j in occupied if j - i == kappa]
    if len(on_top) < r:
        raise CertificateError(
            f"no certificate: top diagonal k={kappa} holds {len(on_top)} nonzero entries, needs {r}"
        )
    chosen = on_top[:r]
    row_idx, col_idx = zip(*chosen)
    value = minor_value(combo, row_idx, col_idx)
    if value == 0:
        raise CertificateError(f"construction bug: triangular minor at rows {row_idx} cols {col_idx} vanished")
    return RankCertificate(
        kind=CERT_STRUCTURAL,
        coeffs=tuple(cs),
        kappa=kappa,
        positions=tuple(chosen),
        minor_value=value,
    )


def structural_verify(basis: SubspaceBasis, r: int, n: int, seed: int) -> VerificationReport:
    """Structural certificates for n seeded combinations; every one must land.

    Each certificate is an order-``basis.r`` minor, so it proves rank >= r
    only for r up to the basis's own threshold.
    """
    if n < 1:
        raise DomainError(f"need at least one sample, got {n}")
    if basis.r is not None and r > basis.r:
        raise DomainError(f"structural certificates prove rank >= {basis.r} (the basis's r), not {r}")
    rng = coeff_stream(seed)
    certs = tuple(structural_certificate(basis, draw_coeffs(rng, basis.dimension)) for _ in range(n))
    return VerificationReport(
        mode="structural",
        samples_or_points=n,
        verdict=VERDICT_CONSISTENT,
        min_rank_observed=r,
        seed=seed,
        witnesses=certs,
        params={"r": r},
    )


def sample_verify_exact(
    basis: SubspaceBasis,
    r: int,
    n: int,
    seed: int,
    require: str = "geq",
) -> VerificationReport:
    """Exact ranks of n seeded integer combinations against a rank bound.

    ``require`` selects the property under test: every combination has rank
    >= r ("geq", the default), <= r ("leq") or == r ("eq").  Any violation
    refutes with a witness; absence of violations is reported as consistent,
    never as proof.
    """
    if n < 1:
        raise DomainError(f"need at least one sample, got {n}")
    if require not in ("geq", "leq", "eq"):
        raise DomainError(f"unknown requirement {require!r}")
    if basis.field != RATIONAL:
        raise FieldMismatchError("exact sampling needs a rational basis")
    rng = coeff_stream(seed)
    lo, hi = None, None
    witnesses: list[RankCertificate] = []
    for _ in range(n):
        coeffs = draw_coeffs(rng, basis.dimension)
        combo = basis.combination(coeffs)
        rank = rank_exact(combo)
        lo = rank if lo is None else min(lo, rank)
        hi = rank if hi is None else max(hi, rank)
        bad_low = require in ("geq", "eq") and rank < r
        bad_high = require in ("leq", "eq") and rank > r
        if bad_low or bad_high:
            witnesses.append(
                RankCertificate(
                    kind=CERT_WITNESS_LT if bad_low else CERT_WITNESS_GT,
                    coeffs=tuple(coeffs),
                    rank_found=rank,
                    matrix=combo,
                )
            )
    return VerificationReport(
        mode="sample_exact",
        samples_or_points=n,
        verdict=VERDICT_REFUTED if witnesses else VERDICT_CONSISTENT,
        min_rank_observed=lo,
        max_rank_observed=hi,
        seed=seed,
        witnesses=tuple(witnesses),
        params={"r": r, "require": require, "box": SAMPLE_BOX},
    )


def gfp_exhaustive_min_rank(
    basis: SubspaceBasis,
    p: int,
    r: int | None = None,
    cap: int = GFP_ENUMERATION_CAP,
) -> VerificationReport:
    """Exact minimum rank of the reduction mod p over all projective points.

    Reduction mod p can only lower rank, so a minimum >= r is consistent
    evidence for the rational statement while a drop below r proves nothing
    about it; the verdict is "inconclusive" in that case, never "refuted".
    """
    check_modulus(p)
    r = basis.r if r is None else r
    if r is None:
        raise DomainError("no rank threshold: basis carries none and r was not given")
    # A basis no cap could admit is refused before the cap is read.
    if basis.field != RATIONAL:
        raise FieldMismatchError("GF(p) enumeration needs an exact integer basis")
    fraction = next((Fraction(v, m.denominator) for m in basis.matrices for v in m.entries if v % m.denominator), None)
    if fraction is not None:
        raise DomainError(f"basis entry {fraction} is not an integer; reduce mod {p} undefined")
    dim = basis.dimension
    points = (p**dim - 1) // (p - 1)
    if points > cap:
        # str() refuses ints over 4300 digits, and no cap reaches a count near that: give its size.
        need = points if points < 10**18 else f"a {int(math.log10(points)) + 1}-digit number of"
        raise DomainError(
            f"enumeration needs {need} projective points, above the cap of {cap}; "
            f"raise cap to at least that many to run this"
        )
    stack = [[v % p for v in m.entries] for m in basis.matrices]
    min_rank, argmin, count = _kernels.gfp_min_rank_scan(stack, p, basis.dA, basis.dB)
    if count != points:
        raise CertificateError(f"enumeration bug: visited {count} points, expected {points}")
    # Only the zero matrix has rank 0: some point's combination vanishes exactly when the basis is dependent mod p.
    if min_rank == 0:
        raise DomainError(f"basis loses linear independence when reduced mod {p}")
    return VerificationReport(
        mode="gfp_exhaustive",
        samples_or_points=points,
        verdict=VERDICT_CONSISTENT if min_rank >= r else VERDICT_INCONCLUSIVE,
        min_rank_observed=min_rank,
        params={"p": p, "r": r, "argmin_coeffs": argmin},
    )


def _complex_stack(basis: SubspaceBasis) -> np.ndarray:
    """Vectorized basis as columns of a complex matrix, unit Frobenius each."""
    cols = [unit_scaled(m)[0].ravel() for m in basis.matrices]
    return np.column_stack([v / np.linalg.norm(v) for v in cols])


def _exact_drop(basis: SubspaceBasis, x: np.ndarray, r: int) -> bool:
    """Whether the witness x, phase-normalized and rounded to rationals, has exact rank below r.

    Column i of the descent's stack is M_i * 2**-e_i / n_i (``_complex_stack``), so x weighs M_i
    by x_i * 2**-e_i / n_i; the weights are scaled so the largest has size about 1, turned by its
    phase, and each real part is rounded by ``limit_denominator``.
    """
    weights = [(c / np.linalg.norm(a), e) for c, (a, e) in zip(x, map(unit_scaled, basis.matrices))]
    top = max(math.frexp(abs(c))[1] - e for c, e in weights if c)
    z = [complex(math.ldexp(c.real, -e - top), math.ldexp(c.imag, -e - top)) for c, e in weights]
    turn = abs(lead := max(z, key=abs)) / lead
    coeffs = [Fraction((v * turn).real).limit_denominator(WITNESS_DENOMINATOR) for v in z]
    return any(coeffs) and rank_exact(basis.combination(coeffs)) < r


def _accepted_witness(basis: SubspaceBasis, A: np.ndarray, x: np.ndarray, r: int) -> RankCertificate | None:
    """The witness the descent's coefficients x give, or None if it is not accepted.

    The combination must have numeric rank below r at 1e-6, and on a rational basis
    ``_exact_drop`` must also confirm the drop with an exact rank.
    """
    combo = StateMatrix.complex_((A @ x).reshape(basis.dA, basis.dB).tolist())
    info = schmidt_rank_numeric(combo, tol=1e-6)
    if info.rank >= r or (basis.field != COMPLEX and not _exact_drop(basis, x, r)):
        return None
    return RankCertificate(kind=CERT_WITNESS_LT, coeffs=tuple(complex(c) for c in x), rank_found=info.rank, matrix=combo)


def _descents(basis: SubspaceBasis, A: np.ndarray, r: int, restarts: int, iters: int, seed: int, tol: float):
    """(value, coefficients) of each restart's descent, in restart order.

    On a complex basis each restart runs alone and ends below ``tol * SIGMA_STOP``,
    so the search usually ends after the first.  On a rational basis every descent
    runs to its own end, ``SIGMA_LANES`` at a time on the stacked kernel, whose
    lanes equal lone descents bit for bit; a group of fewer than 3 starts runs
    them one by one on the lone kernel, which is faster there.
    """
    P = np.linalg.pinv(A)
    rng = coeff_stream(seed)
    starts = (draw_normals(rng, basis.dimension) for _ in range(restarts))
    if basis.field == COMPLEX:
        for x0 in starts:
            yield _kernels.sigma_descent(A, P, r, iters, x0, basis.dA, basis.dB, tol * SIGMA_STOP)
        return
    while lanes := list(itertools.islice(starts, SIGMA_LANES)):
        if len(lanes) < 3:
            yield from (_kernels.sigma_descent(A, P, r, iters, x0, basis.dA, basis.dB) for x0 in lanes)
        else:
            yield from _kernels.sigma_descent_lanes(A, P, r, iters, np.array(lanes), basis.dA, basis.dB)


def minimize_sigma_r(
    basis: SubspaceBasis,
    r: int,
    restarts: int = 64,
    iters: int = 500,
    seed: int = 0,
    tol: float = SIGMA_TOL,
) -> tuple[np.ndarray, float, VerificationReport]:
    """Search for a combination whose r-th singular value (relatively) vanishes.

    Multi-restart alternating projection: truncate the current combination to
    rank r-1, refit coefficients by least squares, renormalize, repeat.  The
    objective sigma_r / sigma_1 is scale invariant.  Each restart starts from
    ``draw_normals`` on ``coeff_stream(seed)``.  The search stops at the first
    restart that improves the best value to below ``tol`` with an accepted
    witness: numeric rank below r, and on a rational basis an exact rank below
    r from ``_exact_drop``.  On a complex basis each descent ends at its first
    iterate below ``tol * SIGMA_STOP``; on a rational basis it runs to its own
    end, because ``_exact_drop`` rounds the witness to small denominators and
    needs it polished; those descents run in lockstep groups (``_descents``).
    A best value below ``tol`` without an accepted witness is inconclusive;
    floors at least sqrt(tol) count as consistent, and anything in between is
    inconclusive, never refuted, unless the dimension exceeds the theorem's
    bound ``max_dim_geq(dA, dB, r)``: then some nonzero element has rank
    below r, the verdict is "refuted" with no witness, and params carry
    ``dimension_bound`` (da, db, r, dim, bound).  A report with an accepted
    witness carries no bound.  The report's ``restarts_run`` counts the
    restarts read, in order, up to the one that ended the search; later lanes
    of that restart's group ran too, and their results are discarded.
    """
    if r < 1:
        raise DomainError(f"need r >= 1, got {r}")
    if r > min(basis.dA, basis.dB):
        raise DomainError(f"r={r} exceeds min(dA, dB) = {min(basis.dA, basis.dB)}")
    if restarts < 1 or iters < 1:
        raise DomainError("need at least one restart and one iteration")
    if not 0 < tol < 1:
        # sigma_r / sigma_1 <= 1, so a tol of 1 or more would take every restart for a drop.
        raise DomainError(f"tol must lie in (0, 1), got {tol}")
    A = _complex_stack(basis)
    best_val = math.inf
    best_x = None
    witness = None
    for run, (val, x) in enumerate(_descents(basis, A, r, restarts, iters, seed, tol), 1):
        if val < best_val:
            best_val, best_x = val, x
            witness = _accepted_witness(basis, A, x, r) if val < tol else None
            if witness is not None:
                break
    params = {"r": r, "restarts": restarts, "iters": iters, "restarts_run": run}
    bound = max_dim_geq(basis.dA, basis.dB, r)
    if witness is not None:
        verdict = VERDICT_REFUTED
    elif basis.dimension > bound:
        verdict = VERDICT_REFUTED
        params["dimension_bound"] = {"da": basis.dA, "db": basis.dB, "r": r, "dim": basis.dimension, "bound": bound}
    elif best_val >= math.sqrt(tol):
        verdict = VERDICT_CONSISTENT
    else:
        # Below tol without a confirmed witness, or close enough to it that more restarts might cross it.
        verdict = VERDICT_INCONCLUSIVE
    report = VerificationReport(
        mode="sigma_min",
        samples_or_points=restarts,
        verdict=verdict,
        min_sigma_r=best_val,
        tolerance=tol,
        seed=seed,
        witnesses=() if witness is None else (witness,),
        params=params,
    )
    return best_x, best_val, report


@dataclass(frozen=True)
class PencilResult:
    """Roots x of det(a + x b) = 0, split by character.

    ``finite`` holds the values passing the residual check; ``infinite_count``
    counts directions where b alone is singular; ``identically_singular``
    flags a pencil whose determinant vanishes for every x.
    """

    finite: tuple[complex, ...]
    infinite_count: int
    identically_singular: bool
    residuals: tuple[float, ...]


def _relative_smallest_sv(m: np.ndarray) -> float:
    sv = np.linalg.svd(m, compute_uv=False)
    if sv[0] == 0.0:
        return 0.0
    return float(sv[-1] / sv[0])


def pencil_low_rank(a, b, residual_tol: float = PENCIL_TOL) -> PencilResult:
    """Singular points of the pencil a + x b via the generalized eigenproblem.

    det(a + x b) is a polynomial of degree at most d, so unless it vanishes
    identically there is a root over the complex numbers; those roots are the
    generalized eigenvalues of (a, -b).  Homogeneous (alpha, beta) pairs
    classify each one: beta ~ 0 means an infinite root (b singular in that
    direction), both ~ 0 means the pencil is identically singular.
    """
    # Imported here, not at module level: scipy.linalg adds about 27 MiB and
    # 0.2 s to every process that imports the CLI, which never needs it.
    import scipy.linalg

    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape != b.shape:
        raise DimensionError(f"need two square matrices of equal size, got {a.shape} and {b.shape}")
    if not (np.all(np.isfinite(a.view(np.float64))) and np.all(np.isfinite(b.view(np.float64)))):
        raise DomainError("pencil matrices must be finite")
    d = a.shape[0]
    # A degree-<=d polynomial vanishing at d+1 distinct points is zero, so
    # probing that many fixed points decides "every x is a root" up front.
    probes = [complex(0.31 + 0.17 * t, 0.41 - 0.05 * t) for t in range(d + 1)]
    if all(_relative_smallest_sv(a + x * b) < 1e-10 for x in probes):
        return PencilResult((), 0, True, ())
    alpha, beta = scipy.linalg.eig(a, -b, right=False, homogeneous_eigvals=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = alpha / beta
    finite: list[complex] = []
    residuals: list[float] = []
    infinite = 0
    for val in np.atleast_1d(w):
        if np.isinf(val):
            infinite += 1
        elif np.isnan(val):
            continue
        else:
            x = complex(val)
            res = _relative_smallest_sv(a + x * b)
            if res < residual_tol:
                finite.append(x)
                residuals.append(res)
    return PencilResult(tuple(finite), infinite, False, tuple(residuals))
