"""Bipartite states as coefficient matrices, with exact and numeric rank.

A vector in a dA x dB bipartite space is stored as the dA x dB matrix of its
amplitudes: amplitude (i, j) sits at row i, column j, i.e. flat position
i * dB + j (row-major, 0-based).  The Schmidt rank of the state equals the
linear rank of this matrix, which is what every routine here computes.

Two scalar fields are supported: exact rationals and complex doubles.  A
rational matrix stores int numerators over one positive ``denominator`` in
lowest terms, so equal matrices compare equal; ``to_lists`` and
``state_of_matrix`` give its values as Fractions.  Exact ranks and
determinants come from Bareiss elimination on the numerators; numeric ranks
count singular values above a relative tolerance.  GF(p) is no stored field:
``gfp_eliminate`` ranks integer stacks mod p for the scan of an integer basis.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress
from typing import Sequence

import numpy as np

from .errors import DimensionError, DomainError, FieldMismatchError, NumericError

RATIONAL = "rational"
COMPLEX = "complex"

_FIELDS = (RATIONAL, COMPLEX)

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


def _coerce_entry(value, field: str):
    """A scalar of ``field``; rationals come back as a Fraction or an int, both with numerator/denominator."""
    if field == RATIONAL:
        # Plain ints, most entries passed to ``from_rows`` and most coefficients, return before the slower
        # isinstance tests below; bools and numpy ints are not of type int, so they still take those tests.
        if type(value) is int or isinstance(value, Fraction):
            return value
        if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
            return int(value)
        raise FieldMismatchError(f"rational matrices take int/Fraction entries, got {type(value).__name__}")
    if field == COMPLEX:
        try:
            # complex() would also parse strings and read bools as 0 and 1.
            if isinstance(value, (str, bytes, bool, np.bool_)):
                raise TypeError
            z = complex(value)
        except TypeError:
            raise FieldMismatchError(f"complex matrices take numbers, got {type(value).__name__}") from None
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
    denominator: int = 1

    def __post_init__(self):
        if not (_is_int(self.rows) and _is_int(self.cols)) or self.rows < 1 or self.cols < 1:
            raise DimensionError(f"need positive dimensions, got {self.rows!r:.60}x{self.cols!r:.60}")
        if self.field not in _FIELDS:
            raise DomainError(f"unknown field {self.field!r:.60}")
        if len(self.entries) != self.rows * self.cols:
            raise DimensionError(
                f"{self.rows!r:.60}x{self.cols!r:.60} matrix needs one entry per cell, got {len(self.entries)} entries"
            )
        d = self.denominator
        if self.field == RATIONAL:
            if not set(map(type, self.entries)) <= {int}:
                raise FieldMismatchError("rational entries are int numerators over the matrix's denominator")
            # gcd(1, ...) is 1, so only a denominator above 1 needs the gcd over all the entries.
            if not (_is_int(d) and d >= 1 and (d == 1 or math.gcd(d, *self.entries) == 1)):
                raise DomainError(f"denominator must be a positive int in lowest terms with the entries, got {d!r}")
        elif not (_is_int(d) and d == 1):
            raise DomainError(f"field {self.field!r} takes no denominator, got {d!r}")

    @classmethod
    def from_rows(cls, rows_of_entries, field: str = RATIONAL) -> "StateMatrix":
        rows = len(rows_of_entries)
        if rows == 0:
            raise DimensionError("empty matrix")
        cols = len(rows_of_entries[0])
        if any(len(r) != cols for r in rows_of_entries):
            raise DimensionError("ragged rows")
        return matrix_of_state([v for r in rows_of_entries for v in r], rows, cols, field)

    @classmethod
    def rational(cls, rows_of_entries) -> "StateMatrix":
        return cls.from_rows(rows_of_entries, RATIONAL)

    @classmethod
    def complex_(cls, rows_of_entries) -> "StateMatrix":
        return cls.from_rows(rows_of_entries, COMPLEX)

    def to_lists(self) -> list[list]:
        c, values = self.cols, state_of_matrix(self)
        return [values[i * c : (i + 1) * c] for i in range(self.rows)]

    def transpose(self) -> "StateMatrix":
        flat = tuple(self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows))
        return StateMatrix(self.cols, self.rows, self.field, flat, self.denominator)

    @cached_property
    def _nonzero(self) -> tuple[tuple[int, object], ...]:
        """(flat index, entry) pairs of the nonzero entries; rational entries are numerators."""
        e = self.entries
        # Built from a list: tuple() of an iterator with no length, such as a generator or this zip,
        # resizes its result, and each resized small tuple is parked in CPython's free list of its new
        # size, which grew the peak RSS of a loop of loads by 1-1.5 MiB (``TestLoadMemory``).
        return tuple(list(zip(compress(range(len(e)), e), compress(e, e))))


def matrix_of_state(amplitudes: Sequence, dA: int, dB: int, field: str = RATIONAL) -> StateMatrix:
    """Arrange a flat amplitude list (index i*dB + j) into its dA x dB matrix."""
    if len(amplitudes) != dA * dB:
        raise DimensionError(f"{dA}x{dB} state needs {dA * dB} amplitudes, got {len(amplitudes)}")
    values = [_coerce_entry(v, field) for v in amplitudes]
    if field != RATIONAL:
        return StateMatrix(dA, dB, field, tuple(values))
    # The lcm of reduced denominators leaves the numerators in lowest terms with it.
    d = math.lcm(*[f.denominator for f in values])
    return StateMatrix(dA, dB, field, tuple([f.numerator * (d // f.denominator) for f in values]), d)


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
        if (m.rows, m.cols, m.field) != (head.rows, head.cols, head.field):
            raise FieldMismatchError("combination over mismatched matrices")
    cs = [_coerce_entry(c, head.field) for c in coeffs]
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
    else:
        flat = tuple(complex(a) for a in acc)
    return StateMatrix(head.rows, head.cols, head.field, flat, denominator)


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
    if not 0 < tol < math.inf:  # also refuses NaN, which no comparison admits
        raise DomainError(f"tolerance must be positive and finite, got {tol}")
    scaled, e = unit_scaled(m)
    sv = np.linalg.svd(scaled, compute_uv=False)
    rank = int(np.sum(sv > tol * sv[0])) if sv[0] > 0.0 else 0
    with np.errstate(over="ignore"):
        return SchmidtInfo(rank, tuple(float(s) for s in np.ldexp(sv, e)), tol)


# ---------------------------------------------------------------------------
# exact elimination: one routine per field; determinants come from bareiss
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


def reduce_mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in place for an int64 array x, which is returned.

    numpy divides an integer array by a scalar with a multiply and a shift,
    but computes ``x % p`` with one hardware division per entry, several times
    slower; x - (x // p) * p is the same residue in [0, p).
    """
    q = x // p
    q *= p
    x -= q
    return x


def gfp_eliminate(stack, p: int) -> np.ndarray:
    """The (N,) ranks mod p of an (N, m, n) stack, one elimination for all N.

    Nested lists of Python ints too large for int64 are reduced mod p before
    the cast, so any integer input stays exact; the input is never written.
    Since rank(A) = rank(A^T), the stack is held as (short side, long side, N)
    and the elimination sweeps the shorter side, each step on contiguous runs
    of N values; an (N, m, n) view of an (m, n, N) array with m <= n, or of
    an (n, m, N) one with m > n, is read without a gather.  The elimination
    is fraction-free and swap-free: at each column every matrix pivots on its
    first unused row with a nonzero entry there and marks that row used, and
    each other unused row becomes pivot * row - head * pivot_row, one later
    column at a time, so no entry needs an inverse.  Residues are below
    p < 2**31 (``check_modulus``), so both products stay below 2**62 and each
    column is reduced (``reduce_mod``) after its update.
    """
    a = np.asarray(stack)
    if a.dtype.kind != "i":
        a = np.asarray(stack, dtype=object) % p
    if a.ndim != 3:
        raise DimensionError(f"need an (N, rows, cols) stack, got shape {a.shape}")
    t = (a.transpose(1, 2, 0) if a.shape[1] <= a.shape[2] else a.transpose(2, 1, 0)).astype(np.int64, copy=False)
    # reduce_mod into a new C-ordered array: t - (t // p) * p.
    a = np.floor_divide(t, p, order="C")
    a *= p
    np.subtract(t, a, out=a)
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


def block_rank(rows: Sequence[Sequence[tuple[int, int]]]) -> int:
    """Rank of the integer matrix whose rows are given as their nonzero (column, value) cells.

    Rows linked by shared columns, directly or through other rows, form a
    block.  Blocks span subspaces on disjoint columns, so the rank is the sum
    of one ``bareiss`` per block, each over its own columns only.
    """
    root: dict[int, int] = {}

    def find(c: int) -> int:
        while root.setdefault(c, c) != c:
            root[c] = c = root[root[c]]
        return c

    for row in rows:
        # One step joins every block the row touches: the row's columns lead to these roots.
        tops = {find(c) for c, _ in row}
        if tops:
            top = tops.pop()
            for t in tops:
                root[t] = top
    blocks: dict[int, list] = {}
    for row in rows:
        if row:
            blocks.setdefault(find(row[0][0]), []).append(row)
    rank = 0
    for block in blocks.values():
        # Columns are numbered as they first appear.  The rank does not depend on their order, but the
        # elimination's cost does: cells in ascending column order, as ``_nonzero`` gives them, put a
        # constructed basis's small nodes first, which keeps its intermediate minors small.
        index: dict[int, int] = {}
        for row in block:
            for c, _ in row:
                index.setdefault(c, len(index))
        dense = []
        for row in block:
            values = [0] * len(index)
            for c, v in row:
                values[index[c]] = v
            dense.append(values)
        rank += bareiss(dense)[0]
    return rank


def rank_exact(m: StateMatrix) -> int:
    """Exact linear rank of a rational matrix."""
    if m.field == RATIONAL:
        c, e = m.cols, m.entries
        rows = (e[k : k + c] for k in range(0, len(e), c))
        return block_rank([list(zip(compress(range(c), row), compress(row, row))) for row in rows])
    raise FieldMismatchError("rank_exact needs an exact field; use schmidt_rank_numeric for complex")


def minor_value(m: StateMatrix, row_idx: Sequence[int], col_idx: Sequence[int]):
    """Exact determinant of a rational matrix's submatrix on the given (increasing) index sets."""
    if m.field != RATIONAL:
        raise FieldMismatchError("minor_value needs an exact field; a complex minor has no exact value")
    if len(row_idx) != len(col_idx):
        raise DimensionError("a minor needs as many rows as columns")
    sub = [[m.entries[i * m.cols + j] for j in col_idx] for i in row_idx]
    return Fraction(bareiss(sub)[1], m.denominator ** len(row_idx))


# ---------------------------------------------------------------------------
# JSON: one encoder for every package value; decoders validate their input
# ---------------------------------------------------------------------------

def to_json(obj):
    """JSON-ready form of a matrix, basis, report or any value inside one.

    Dataclasses become objects keyed by their lower-cased field names, and
    a basis adds its ``field``.
    Tuples become lists and complex numbers ``[re, im]`` pairs.  A rational
    matrix with denominator 1 writes its entries as ints; any other rational
    matrix, and every Fraction, writes reduced ``"n/d"`` strings.
    """
    if type(obj) in (int, str, float, bool, type(None)):  # most values; subclasses take the chain below
        return obj
    if isinstance(obj, StateMatrix):
        entries, d = obj.entries, obj.denominator
        if obj.field != RATIONAL:
            entries = to_json(entries)
        elif d == 1:
            entries = list(entries)
        else:
            entries = [f"{v // (g := math.gcd(v, d))}/{d // g}" for v in entries]
        return {"rows": obj.rows, "cols": obj.cols, "field": obj.field, "entries": entries}
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


def _decode_entry(value, field: str):
    if field == RATIONAL:
        text = _RATIONAL_TEXT.fullmatch(value) if isinstance(value, str) else None
        if text:
            try:
                return Fraction(int(text[1]), int(text[2] or 1))
            except ValueError:  # the text is digits, so int() refused its length
                raise DomainError(f"rational entry {value[:20]!r}... passes Python's int digit limit (4300 by default)") from None
            except ZeroDivisionError:
                pass
        raise DomainError(f"bad rational entry {value!r:.60}; use an int or an 'n' or 'n/d' string")
    try:
        real, imag = value
        if isinstance(real, bool) or isinstance(imag, bool):
            raise TypeError
        z = complex(real, imag)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"complex entries are [re, im] number pairs, got {value!r:.60}") from None
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise NumericError(f"non-finite entry {value!r}")
    return z


def matrix_from_json_dict(d: dict, decoded: dict | None = None) -> StateMatrix:
    """Decode a matrix object; ``decoded`` maps entry texts to values, and a basis shares one among its matrices."""
    if not isinstance(d, dict):
        raise DomainError("a matrix must be a JSON object")
    try:
        rows, cols, field = d["rows"], d["cols"], d["field"]
        entries = d["entries"]
    except KeyError as exc:
        raise DomainError(f"matrix object missing key {exc}") from None
    if field not in _FIELDS:
        raise DomainError(f"unknown field {field!r:.60}")
    if not isinstance(entries, list):
        raise DomainError("matrix 'entries' must be a list")
    if field != RATIONAL:
        return StateMatrix(rows, cols, field, tuple(_decode_entry(v, field) for v in entries))
    # An integral matrix as written: the ints are its numerators over 1, and the constructor's type check
    # is the one scan of its entries.  Any other matrix is decoded below, which names a bad entry before
    # a bad shape; the constructor meets the shape again at the end.
    try:
        return StateMatrix(rows, cols, field, tuple(entries))
    except (DimensionError, FieldMismatchError):
        pass
    if not set(map(type, entries)) <= {str, int}:
        # Only texts share ``decoded``: True and 1.0 hash and compare equal to 1.  An exact int
        # stands for itself; the first entry of any other type raises.
        for v in entries:
            if type(v) not in (str, int):
                _decode_entry(v, field)
    # Each distinct text decodes once per ``decoded`` (most cells of a text-form basis read "0/1").
    decoded = {} if decoded is None else decoded
    own = set(entries)
    for v in own.difference(decoded):
        if type(v) is str:
            decoded[v] = _decode_entry(v, field)
    values = {v: decoded.get(v, v) for v in own}  # an int stands for itself
    d = math.lcm(*[f.denominator for f in values.values()])
    scaled = {v: f.numerator * (d // f.denominator) for v, f in values.items()}
    return StateMatrix(rows, cols, field, tuple(map(scaled.__getitem__, entries)), d)
