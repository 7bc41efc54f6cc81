"""Bipartite states as coefficient matrices, with exact and numeric rank.

A vector in a dA x dB bipartite space is stored as the dA x dB matrix of its
amplitudes: amplitude (i, j) sits at row i, column j, i.e. flat position
i * dB + j (row-major, 0-based).  The Schmidt rank of the state equals the
linear rank of this matrix, which is what every routine here computes.

Three scalar fields are supported: exact rationals, prime fields GF(p) (ints
in [0, p)), and complex doubles.  A rational matrix stores int numerators over
one positive ``denominator`` in lowest terms, so equal matrices compare equal;
``at``, ``to_lists`` and ``state_of_matrix`` give its values as Fractions.
Exact ranks use fraction-free (Bareiss) elimination on the numerators; numeric
ranks count singular values above a relative tolerance.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionError, DomainError, FieldMismatchError, NumericError

RATIONAL = "rational"
COMPLEX = "complex"
GFP = "gfp"

_FIELDS = (RATIONAL, COMPLEX, GFP)

#: Default relative cutoff for numeric rank: singular values are counted
#: when strictly greater than DEFAULT_TOL times the largest one.
DEFAULT_TOL = 1e-9

#: GF(p) moduli must be primes below this, so every residue fits a signed
#: 32-bit word and products of two fit 64 bits.
MODULUS_LIMIT = 2**31

#: Rational text the decoder takes: the encoder's "n/d" form, so no exponents.
#: Fraction(str) would expand "1e999999999" into a billion-digit integer.
_RATIONAL_TEXT = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@lru_cache(maxsize=64)  # trial division up to 2**31 takes milliseconds; every matrix checks its modulus
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


def _coerce_entry(value, field: str, p: int | None):
    """A scalar of ``field``; rationals come back as a Fraction or an int, both with numerator/denominator."""
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if field == RATIONAL:
        if isinstance(value, Fraction):
            return value
        if integer:
            return int(value)
        raise FieldMismatchError(f"rational matrices take int/Fraction entries, got {type(value).__name__}")
    if field == GFP:
        if not integer:
            raise FieldMismatchError(f"GF(p) matrices take int entries, got {type(value).__name__}")
        return int(value) % p
    if field == COMPLEX:
        z = complex(value)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise NumericError(f"non-finite entry {value!r}")
        return z
    raise DomainError(f"unknown field {field!r}")


@dataclass(frozen=True)
class StateMatrix:
    """Immutable dA x dB matrix over one field; rational ``entries`` are numerators over ``denominator``."""

    rows: int
    cols: int
    field: str
    entries: tuple
    p: int | None = None
    denominator: int = 1

    def __post_init__(self):
        if not (_is_int(self.rows) and _is_int(self.cols)) or self.rows < 1 or self.cols < 1:
            raise DimensionError(f"need positive dimensions, got {self.rows}x{self.cols}")
        if self.field not in _FIELDS:
            raise DomainError(f"unknown field {self.field!r}")
        if self.field == GFP:
            check_modulus(self.p)
        elif self.p is not None:
            raise DomainError(f"field {self.field!r} takes no modulus")
        if len(self.entries) != self.rows * self.cols:
            raise DimensionError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} entries, got {len(self.entries)}"
            )
        d = self.denominator
        if self.field == RATIONAL:
            if not set(map(type, self.entries)) <= {int}:
                raise FieldMismatchError("rational entries are int numerators over the matrix's denominator")
            if not (_is_int(d) and d >= 1 and math.gcd(d, *self.entries) == 1):
                raise DomainError(f"denominator must be a positive int in lowest terms with the entries, got {d!r}")
        elif not (_is_int(d) and d == 1):
            raise DomainError(f"field {self.field!r} takes no denominator, got {d!r}")
        elif self.field == GFP:
            if not set(map(type, self.entries)) <= {int}:
                raise FieldMismatchError("GF(p) entries are ints")
            if not 0 <= min(self.entries) <= max(self.entries) < self.p:
                raise DomainError(f"GF(p) entries must lie in [0, {self.p})")

    @classmethod
    def from_rows(cls, rows_of_entries, field: str = RATIONAL, p: int | None = None) -> "StateMatrix":
        rows = len(rows_of_entries)
        if rows == 0:
            raise DimensionError("empty matrix")
        cols = len(rows_of_entries[0])
        if any(len(r) != cols for r in rows_of_entries):
            raise DimensionError("ragged rows")
        return matrix_of_state([v for r in rows_of_entries for v in r], rows, cols, field, p)

    @classmethod
    def rational(cls, rows_of_entries) -> "StateMatrix":
        return cls.from_rows(rows_of_entries, RATIONAL)

    @classmethod
    def complex_(cls, rows_of_entries) -> "StateMatrix":
        return cls.from_rows(rows_of_entries, COMPLEX)

    @classmethod
    def gfp(cls, rows_of_entries, p: int) -> "StateMatrix":
        return cls.from_rows(rows_of_entries, GFP, p)

    @classmethod
    def zero(cls, rows: int, cols: int, field: str = RATIONAL, p: int | None = None) -> "StateMatrix":
        return cls(rows, cols, field, (0j if field == COMPLEX else 0,) * (rows * cols), p)

    def at(self, i: int, j: int):
        v = self.entries[i * self.cols + j]
        return Fraction(v, self.denominator) if self.field == RATIONAL else v

    def to_lists(self) -> list[list]:
        c, values = self.cols, state_of_matrix(self)
        return [values[i * c : (i + 1) * c] for i in range(self.rows)]

    def transpose(self) -> "StateMatrix":
        flat = tuple(self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows))
        return StateMatrix(self.cols, self.rows, self.field, flat, self.p, self.denominator)

    def is_zero(self) -> bool:
        return not any(self.entries)

    @cached_property
    def _nonzero(self) -> tuple[tuple[int, object], ...]:
        """(flat index, entry) pairs of the nonzero entries; rational entries are numerators."""
        # Built from a list: tuple() of a generator resizes its result, and each resized small tuple
        # is parked in CPython's free list of its new size, which grew a loop of loads by ~1.5 MiB.
        return tuple([(k, v) for k, v in enumerate(self.entries) if v])


def matrix_of_state(amplitudes: Sequence, dA: int, dB: int, field: str = RATIONAL, p: int | None = None) -> StateMatrix:
    """Arrange a flat amplitude list (index i*dB + j) into its dA x dB matrix."""
    if len(amplitudes) != dA * dB:
        raise DimensionError(f"{dA}x{dB} state needs {dA * dB} amplitudes, got {len(amplitudes)}")
    if field == GFP:
        check_modulus(p)
    values = [_coerce_entry(v, field, p) for v in amplitudes]
    if field != RATIONAL:
        return StateMatrix(dA, dB, field, tuple(values), p)
    # The lcm of reduced denominators leaves the numerators in lowest terms with it.
    d = math.lcm(*[f.denominator for f in values])
    return StateMatrix(dA, dB, field, tuple([f.numerator * (d // f.denominator) for f in values]), p, d)


def state_of_matrix(m: StateMatrix) -> list:
    """Inverse of matrix_of_state: the row-major amplitude list, Fractions over the rationals."""
    if m.field != RATIONAL:
        return list(m.entries)
    return [Fraction(v, m.denominator) for v in m.entries]


def combine(matrices: Sequence[StateMatrix], coeffs: Sequence) -> StateMatrix:
    """Sum of coeffs[i] * matrices[i] over nonzero entries; rational terms share one denominator."""
    if not matrices:
        raise DimensionError("empty combination")
    if len(matrices) != len(coeffs):
        raise DimensionError(f"{len(matrices)} matrices but {len(coeffs)} coefficients")
    head = matrices[0]
    for m in matrices[1:]:
        if (m.rows, m.cols, m.field, m.p) != (head.rows, head.cols, head.field, head.p):
            raise FieldMismatchError("combination over mismatched matrices")
    cs = [_coerce_entry(c, head.field, head.p) for c in coeffs]
    denominator = 1
    if head.field == RATIONAL:
        # c_i * M_i = c_i.numerator * entries_i / (c_i.denominator * denominator_i)
        scales = [c.denominator * m.denominator for c, m in zip(cs, matrices)]
        denominator = math.lcm(*scales)
        cs = [c.numerator * (denominator // s) for c, s in zip(cs, scales)]
    acc = [0] * (head.rows * head.cols)
    for c, m in zip(cs, matrices):
        if c:
            for k, v in m._nonzero:
                acc[k] += c * v
    if head.field == RATIONAL:
        g = math.gcd(denominator, *acc)
        flat, denominator = tuple([a // g for a in acc]), denominator // g
    elif head.field == GFP:
        flat = tuple(a % head.p for a in acc)
    else:
        flat = tuple(complex(a) for a in acc)
    return StateMatrix(head.rows, head.cols, head.field, flat, head.p, denominator)


@dataclass(frozen=True)
class SchmidtInfo:
    """Rank plus the singular values backing it (numeric mode only)."""

    rank: int
    singular_values: tuple[float, ...] = ()
    tolerance_used: float | None = None


def unit_scaled(m: StateMatrix) -> tuple[np.ndarray, int]:
    """(a, e): m as a complex128 matrix a * 2**e whose largest real or imaginary part lies in [1/2, 1).

    So a norm or an SVD of ``a`` neither overflows nor underflows.  Rationals are rounded once from
    their integer form (``int / int`` after a power-of-two shift), so entries beyond the double range
    convert too; where an entry's own double is normal, ``a`` holds it times 2**-e, bit for bit.
    """
    if m.field == GFP:
        raise FieldMismatchError("GF(p) has no numeric values: numeric rank and sigma descent run over the complex numbers")
    if m.field == COMPLEX:
        a, shift = np.array(m.entries, dtype=np.complex128), 0
    else:
        scale, cells = m.denominator, m._nonzero
        top = max((abs(v) for _, v in cells), default=0)
        shift = top.bit_length() - scale.bit_length()  # so top / scale / 2**shift lies in (1/2, 2)
        lift, den = max(-shift, 0), scale << max(shift, 0)
        a = np.zeros(m.rows * m.cols, dtype=np.complex128)
        a[[k for k, _ in cells]] = [(v << lift) / den for _, v in cells]
    parts = a.view(np.float64)
    if not np.all(np.isfinite(parts)):
        raise NumericError("matrix contains non-finite entries")
    e = int(np.frexp(np.max(np.abs(parts), initial=0.0))[1])
    return np.ldexp(parts, -e).view(np.complex128).reshape(m.rows, m.cols), shift + e


def schmidt_rank_numeric(m: StateMatrix, tol: float = DEFAULT_TOL) -> SchmidtInfo:
    """Numeric Schmidt rank: singular values above ``tol * sigma_max`` count.

    The zero matrix has rank 0.  ``tol`` is relative, so the answer is
    invariant under rescaling the state.
    """
    if tol <= 0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    scaled, e = unit_scaled(m)
    sv = np.linalg.svd(scaled, compute_uv=False)
    rank = int(np.sum(sv > tol * sv[0])) if sv[0] > 0.0 else 0
    with np.errstate(over="ignore"):
        return SchmidtInfo(rank, tuple(float(s) for s in np.ldexp(sv, e)), tol)


# ---------------------------------------------------------------------------
# exact elimination: one routine per field, each returning (rank, det)
# ---------------------------------------------------------------------------

def bareiss(rows: list[list[int]]) -> tuple[int, int]:
    """(rank, determinant) of an integer matrix by fraction-free elimination.

    Intermediate entries are minors of the input, so all divisions are exact
    and growth stays polynomial in the entry size.  The determinant is 0
    unless the matrix is square and nonsingular (1 for the empty matrix).
    """
    m = [row[:] for row in rows]
    n_rows, n_cols = len(m), len(m[0]) if m else 0
    rank = 0
    prev = 1
    sign = 1
    for col in range(n_cols):
        piv = next((i for i in range(rank, n_rows) if m[i][col] != 0), None)
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            sign = -sign
        pivot = m[rank][col]
        for i in range(rank + 1, n_rows):
            # Every row below the pivot is rescaled, zero head or not: the
            # entries must stay genuine minors for later divisions to be exact.
            head = m[i][col]
            row_i, row_p = m[i], m[rank]
            for j in range(col, n_cols):
                row_i[j] = (pivot * row_i[j] - head * row_p[j]) // prev
        prev = pivot
        rank += 1
        if rank == n_rows:
            break
    return rank, sign * prev if rank == n_rows == n_cols else 0


def _inverse_mod(x: np.ndarray, p: int) -> np.ndarray:
    """x**(p-2) mod p elementwise: the inverse of each nonzero residue (Fermat)."""
    out = np.ones_like(x)
    e = p - 2
    while e:
        if e & 1:
            out = out * x % p
        x = x * x % p
        e >>= 1
    return out


def gfp_eliminate(stack, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(ranks, determinants mod p) of an (N, m, n) stack, one elimination for all N.

    Nested lists of Python ints too large for int64 are reduced mod p before
    the cast, so any integer input stays exact.  Residues are below p < 2**31
    (``check_modulus``), so every product of two stays below 2**62 and is
    reduced before the next operation.  A determinant is 0 unless its matrix
    is square and nonsingular mod p (1 for the empty matrix).
    """
    a = np.asarray(stack)
    if a.dtype.kind != "i":
        a = np.asarray(stack, dtype=object) % p
    a = a.astype(np.int64) % p
    if a.ndim != 3:
        raise DimensionError(f"need an (N, rows, cols) stack, got shape {a.shape}")
    n_mats, n_rows, n_cols = a.shape
    every = np.arange(n_mats)
    row_ids = np.arange(n_rows)
    ranks = np.zeros(n_mats, dtype=np.int64)
    dets = np.ones(n_mats, dtype=np.int64)
    for col in range(n_cols if n_rows else 0):
        # Each matrix pivots on its first nonzero entry at or below its next pivot row.
        candidates = (a[:, :, col] != 0) & (row_ids >= ranks[:, None])
        found = candidates.any(axis=1)
        top = np.minimum(ranks, n_rows - 1)
        piv = np.where(found, candidates.argmax(axis=1), top)
        moved = np.flatnonzero(piv != top)
        dets[moved] = p - dets[moved]  # a row swap negates the determinant
        a[moved, top[moved]], a[moved, piv[moved]] = a[moved, piv[moved]], a[moved, top[moved]]
        pivot_rows = a[every, top]
        pivots = np.where(found, pivot_rows[:, col], 1)
        dets = dets * pivots % p
        # Rows below the pivot take -(head / pivot) times the pivot row; the
        # columns left of col are already zero there.
        below = (row_ids > ranks[:, None]) & found[:, None]
        factors = (p - a[:, :, col]) * _inverse_mod(pivots, p)[:, None] % p * below
        a[:, :, col:] = (a[:, :, col:] + factors[:, :, None] * pivot_rows[:, None, col:]) % p
        ranks += found
        if (ranks == n_rows).all():
            break
    return ranks, np.where((ranks == n_rows) & (n_rows == n_cols), dets, 0)


def block_rank(cells: Iterable[tuple[int, int]], width: int) -> int:
    """Rank of the integer matrix with ``width`` columns and these (flat index, value) cells.

    Rows linked by shared columns, directly or through other rows, form a
    block.  Blocks span subspaces on disjoint columns, so the rank is the sum
    of one ``bareiss`` per block, each over its own columns only.
    """
    rows: dict[int, dict[int, int]] = {}
    for k, v in cells:
        rows.setdefault(k // width, {})[k % width] = v
    root: dict[int, int] = {}

    def find(c: int) -> int:
        while root.setdefault(c, c) != c:
            root[c] = c = root[root[c]]
        return c

    blocks: dict[int, list] = {}
    for row in rows.values():
        for c in row:
            root[find(c)] = find(next(iter(row)))
    for row in rows.values():
        blocks.setdefault(find(next(iter(row))), []).append(row)
    rank = 0
    for block in blocks.values():
        cols = set().union(*block)
        rank += bareiss([[row.get(c, 0) for c in cols] for row in block])[0]
    return rank


def rank_exact(m: StateMatrix) -> int:
    """Exact linear rank over an exact field (rationals or GF(p))."""
    if m.field == RATIONAL:
        return block_rank(m._nonzero, m.cols)
    if m.field == GFP:
        return int(gfp_eliminate([m.to_lists()], m.p)[0][0])
    raise FieldMismatchError("rank_exact needs an exact field; use schmidt_rank_numeric for complex")


def minor_value(m: StateMatrix, row_idx: Sequence[int], col_idx: Sequence[int]):
    """Determinant of the submatrix on the given (increasing) index sets."""
    if len(row_idx) != len(col_idx):
        raise DimensionError("a minor needs as many rows as columns")
    sub = [[m.entries[i * m.cols + j] for j in col_idx] for i in row_idx]
    if m.field == RATIONAL:
        return Fraction(bareiss(sub)[1], m.denominator ** len(row_idx))
    if m.field == GFP:
        stack = np.array(sub, dtype=object).reshape(1, len(row_idx), len(col_idx))
        return int(gfp_eliminate(stack, m.p)[1][0])
    return complex(np.linalg.det(np.array(sub, dtype=np.complex128)))


# ---------------------------------------------------------------------------
# JSON: one encoder for every package value; decoders validate their input
# ---------------------------------------------------------------------------

def to_json(obj):
    """JSON-ready form of a matrix, basis, report or any value inside one.

    Matrices carry ``p`` only over GF(p); dataclasses become objects keyed
    by their lower-cased field names, and a basis adds its ``field``.
    Tuples become lists, rationals reduced ``"n/d"`` strings and complex
    numbers ``[re, im]`` pairs.
    """
    if isinstance(obj, StateMatrix):
        entries, d = obj.entries, obj.denominator
        if obj.field == RATIONAL:
            entries = [f"{v // (g := math.gcd(v, d))}/{d // g}" for v in entries]
        out = {"rows": obj.rows, "cols": obj.cols, "field": obj.field, "entries": to_json(entries)}
        if obj.field == GFP:
            out["p"] = obj.p
        return out
    if is_dataclass(obj):
        out = {f.name.lower(): to_json(getattr(obj, f.name)) for f in fields(obj)}
        if hasattr(obj, "matrices"):
            out["field"] = obj.field
        return out
    if isinstance(obj, dict):
        return {k: to_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_json(v) for v in obj]
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    return obj


def _decode_entry(value, field: str, p: int | None):
    if field == RATIONAL:
        text = _RATIONAL_TEXT.fullmatch(value) if isinstance(value, str) else None
        if text or _is_int(value):
            try:
                return Fraction(int(text[1]), int(text[2] or 1)) if text else Fraction(value)
            except (ValueError, ZeroDivisionError):
                pass
        raise DomainError(f"bad rational entry {value!r}; use an int or an 'n' or 'n/d' string")
    if field == COMPLEX:
        try:
            real, imag = value
            z = complex(real, imag)
        except (TypeError, ValueError, OverflowError):
            raise DomainError(f"complex entries are [re, im] number pairs, got {value!r}") from None
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise NumericError(f"non-finite entry {value!r}")
        return z
    if not _is_int(value):
        raise DomainError(f"bad GF(p) entry {value!r}")
    return value % p


def matrix_from_json_dict(d: dict) -> StateMatrix:
    if not isinstance(d, dict):
        raise DomainError("a matrix must be a JSON object")
    try:
        rows, cols, field = d["rows"], d["cols"], d["field"]
        entries = d["entries"]
    except KeyError as exc:
        raise DomainError(f"matrix object missing key {exc}") from None
    if field not in _FIELDS:
        raise DomainError(f"unknown field {field!r}")
    if not isinstance(entries, list):
        raise DomainError("matrix 'entries' must be a list")
    p = d.get("p")
    if field == GFP:
        if p is None:
            raise DomainError("GF(p) matrix object is missing its modulus field 'p'")
        check_modulus(p)
    if field != RATIONAL:
        return StateMatrix(rows, cols, field, tuple(_decode_entry(v, field, p) for v in entries), p)
    # Each distinct text decodes once (most cells of a constructed basis read "0/1").
    decoded = {}
    for v in entries:
        if type(v) is not str or v not in decoded:
            decoded[v] = _decode_entry(v, field, p)
    d = math.lcm(*[f.denominator for f in decoded.values()])
    scaled = {v: f.numerator * (d // f.denominator) for v, f in decoded.items()}
    return StateMatrix(rows, cols, field, tuple(map(scaled.__getitem__, entries)), p, d)
