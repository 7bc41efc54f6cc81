"""Bipartite states as coefficient matrices, with exact and numeric rank.

A vector in a dA x dB bipartite space is stored as the dA x dB matrix of its
amplitudes: amplitude (i, j) sits at row i, column j, i.e. flat position
i * dB + j (row-major, 0-based).  The Schmidt rank of the state equals the
linear rank of this matrix, which is what every routine here computes.

Two scalar fields are supported: exact rationals and complex doubles.  A
rational matrix stores int numerators over one positive ``denominator`` in
lowest terms, so equal matrices compare equal; ``to_lists`` and
``state_of_matrix`` give its values as Fractions.  Exact ranks and
determinants come from Bareiss elimination on the numerators; a numeric rank
is the int count of singular values above a relative tolerance, taken after
``unit_scaled`` brings the matrix near 1 by a power of two.  GF(p) is no stored
field: the projective scan in ``_kernels`` reduces and ranks its own chunks.
"""

from __future__ import annotations

import cmath
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

#: Rational text the decoder takes: the encoder's "n/d" form, so no exponents.
#: Fraction(str) would expand "1e999999999" into a billion-digit integer.
_RATIONAL_TEXT = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


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
            return complex(value)
        except TypeError:
            raise FieldMismatchError(f"complex matrices take numbers, got {type(value).__name__}") from None
    raise DomainError(f"unknown field {field!r}")


@dataclass(frozen=True)
class StateMatrix:
    """Immutable dA x dB matrix over one field: rational ``entries`` are int numerators over ``denominator``,
    complex ones finite Python complexes."""

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
            # One C-level pass: bools, numpy ints and int subclasses are not of type int.
            if list(map(type, self.entries)).count(int) != len(self.entries):
                raise FieldMismatchError("rational entries are int numerators over the matrix's denominator")
            # gcd(1, ...) is 1, so only a denominator above 1 needs the gcd over all the entries.
            if not (_is_int(d) and d >= 1 and (d == 1 or math.gcd(d, *self.entries) == 1)):
                raise DomainError(f"denominator must be a positive int in lowest terms with the entries, got {d!r}")
        else:
            if not (_is_int(d) and d == 1):
                raise DomainError(f"field {self.field!r} takes no denominator, got {d!r}")
            # One C-level pass each: numpy complexes and complex subclasses are not of type complex.
            if list(map(type, self.entries)).count(complex) != len(self.entries):
                raise FieldMismatchError("complex entries are Python complex numbers")
            if not all(map(cmath.isfinite, self.entries)):
                raise NumericError("complex entries must be finite")

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
    elif not all(map(cmath.isfinite, cs)):
        # The constructor checks the entries, and a coefficient on a zero matrix leaves none of its own.
        raise NumericError("complex coefficients must be finite")
    acc = [0] * (head.rows * head.cols)
    for c, m in zip(cs, matrices):
        if c:
            for k, v in m._nonzero:
                acc[k] += c * v
    if head.field == RATIONAL:
        g = math.gcd(denominator, *acc)
        flat = tuple(acc) if g == 1 else tuple([a // g for a in acc])
        denominator //= g
    else:
        flat = tuple(complex(a) for a in acc)
    return StateMatrix(head.rows, head.cols, head.field, flat, denominator)


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
    e = int(np.frexp(np.max(np.abs(parts), initial=0.0))[1])
    return np.ldexp(parts, -e).view(np.complex128).reshape(m.rows, m.cols), shift + e


def schmidt_rank_numeric(m: StateMatrix, tol: float = DEFAULT_TOL) -> int:
    """Numeric Schmidt rank: singular values above ``tol * sigma_max`` count.

    The zero matrix has rank 0.  ``tol`` is relative, so the answer is
    invariant under rescaling the state.
    """
    if not 0 < tol < math.inf:  # also refuses NaN, which no comparison admits
        raise DomainError(f"tolerance must be positive and finite, got {tol}")
    return int(np.linalg.matrix_rank(unit_scaled(m)[0], rtol=tol))


# ---------------------------------------------------------------------------
# exact elimination: one routine per field; determinants come from bareiss
# ---------------------------------------------------------------------------

def bareiss(rows: Sequence[Sequence[int]]) -> tuple[int, int]:
    """(rank, determinant) of an integer matrix by fraction-free elimination.

    Intermediate entries are minors of the input, so all divisions are exact
    and growth stays polynomial in the entry size.  The determinant is 0
    unless the matrix is square and nonsingular (1 for the empty matrix).
    Each step updates only the columns after its pivot's: the entries below
    the pivot would become 0, and no later step reads them.  The input rows,
    lists or tuples, are never written.
    """
    m = [list(row) for row in rows]
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
            for j in range(col + 1, n_cols):
                row_i[j] = (pivot * row_i[j] - head * row_p[j]) // prev
        prev = pivot
        rank += 1
        if rank == n_rows:
            break
    return rank, sign * prev if rank == n_rows == n_cols else 0


def block_rank(rows: Sequence[Sequence[tuple[int, int]]]) -> int:
    """Rank of the integer matrix whose rows are given as their nonzero (column, value) cells.

    Rows linked by shared columns, directly or through other rows, form a
    block.  Blocks span subspaces on disjoint columns, so the rank is the sum
    of one ``bareiss`` per block, each over its own columns only.  Rows are
    grouped by their support, the tuple of their columns, first: rows of one
    support fall in one block, so the blocks are joined once per distinct
    support.  A basis loaded for its independence check is such a stack, its
    matrices' cells one row each; a dense matrix is one block, and
    ``rank_exact`` hands it to ``bareiss`` directly.
    """
    groups: dict[tuple, list] = {}
    for row in rows:
        if row:
            groups.setdefault(next(zip(*row)), []).append(row)
    root: dict[int, int] = {}

    def find(c: int) -> int:
        while root.setdefault(c, c) != c:
            root[c] = c = root[root[c]]
        return c

    for support in groups:
        # One step joins every block the support touches: its columns lead to these roots.
        tops = {find(c) for c in support}
        top = tops.pop()
        for t in tops:
            root[t] = top
    blocks: dict[int, list] = {}
    for support, group in groups.items():
        blocks.setdefault(find(support[0]), []).append(group)
    rank = 0
    for block in blocks.values():
        # Columns are numbered as they first appear.  The rank does not depend on their order, but the
        # elimination's cost does: cells in ascending column order, as ``_nonzero`` gives them, put a
        # constructed basis's small nodes first, which keeps its intermediate minors small.
        index: dict[int, int] = {}
        for group in block:
            for c, _ in group[0]:
                index.setdefault(c, len(index))
        dense = []
        for group in block:
            for row in group:
                values = [0] * len(index)
                for c, v in row:
                    values[index[c]] = v
                dense.append(values)
        rank += bareiss(dense)[0]
    return rank


def rank_exact(m: StateMatrix) -> int:
    """Exact linear rank of a rational matrix: one ``bareiss`` on its nonzero numerator rows.

    The common denominator scales every entry alike, so it leaves the rank as it is.
    Zero rows would only be rescaled at every pivot, so they are dropped; with
    more rows left than columns, the transpose's nonzero rows are eliminated
    instead, which drops the zero columns too.
    """
    if m.field == RATIONAL:
        c, e = m.cols, m.entries
        rows = [row for k in range(0, len(e), c) if any(row := e[k : k + c])]
        if len(rows) > c:
            rows = [col for col in zip(*rows) if any(col)]
        return bareiss(rows)[0]
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
        return complex(real, imag)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"complex entries are [re, im] number pairs, got {value!r:.60}") from None


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
