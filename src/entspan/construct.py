"""Explicit bases for subspaces with constrained Schmidt rank.

The centerpiece builds, for any 2 <= r <= min(dA, dB), a basis of exactly
(dA - r + 1)(dB - r + 1) integer matrices whose every nonzero combination has
rank at least r.  Matrices are grouped by matrix diagonal: diagonal k (k =
col - row, increasing from lower-left to upper-right) of length L >= r
contributes L - r + 1 matrices, each carrying one column of a totally
non-singular matrix down that diagonal.  A combination then keeps at least r
nonzero entries on its top-rightmost occupied diagonal, which forces a
triangular nonzero r x r minor.

Also here: the row-factor construction maximizing dimension under a rank
*upper* bound, the fixed-rank family r = dA, the 3x3 antisymmetric basis,
and seeded random complex subspaces used as optimizer fodder.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from .errors import CertificateError, DimensionError, DomainError, FieldMismatchError
from .statemat import (
    COMPLEX,
    RATIONAL,
    StateMatrix,
    _is_int,
    block_rank,
    combine,
    matrix_from_json_dict,
    matrix_of_state,
    rank_exact,
    schmidt_rank_numeric,
)
from .tns import certification, default_tns

KIND_MIN_RANK = "min_rank_geq_r"
KIND_MAX_RANK = "max_rank_leq_r"
KIND_FIXED_RANK = "fixed_rank"
KIND_ANTISYMMETRIC = "antisymmetric"
KIND_RANDOM = "random"
KIND_USER = "user"

KINDS = (KIND_MIN_RANK, KIND_MAX_RANK, KIND_FIXED_RANK, KIND_ANTISYMMETRIC, KIND_RANDOM, KIND_USER)

#: Number of seeded combinations each rational constructor rank-checks on exit.
SELF_CHECK_SAMPLES = 32
_SELF_CHECK_SEED = 0x5EED

#: Sampled integer coefficients are drawn uniformly from [-SAMPLE_BOX, SAMPLE_BOX].
SAMPLE_BOX = 9


_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(h: int, mult: int):
    """SeedSequence's hashmix: xor in the running constant h, step h by ``mult``, multiply by it."""

    def hashmix(v: int) -> int:
        nonlocal h
        v = (v ^ h) * (h := h * mult & _M32) & _M32
        return v ^ v >> 16

    return hashmix


def coeff_stream(seed: int) -> Iterator[int]:
    """The 32-bit words numpy's ``default_rng(seed)`` draws from, bit for bit, without numpy.random.

    SeedSequence hashes the seed into PCG64's 128-bit state and increment;
    each PCG64 step emits 64 bits by XSL-RR, low half first.
    """
    if not (_is_int(seed) and seed >= 0):
        raise DomainError(f"a seed must be a non-negative integer, got {seed!r}")
    # SeedSequence(seed).generate_state(4, uint64): hash the seed's 32-bit words into a pool
    # of four, mix each pool word into the other three and each later seed word into all
    # four, then hash the pool out to eight words, read as four little-endian 64-bit ones.
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    mixes = ((d, pool[s]) for s in range(4) for d in range(4) if d != s)  # reads pool as it changes
    for dst, word in itertools.chain(mixes, ((d, w) for w in words[4:] for d in range(4))):
        v = (0xCA01F9DD * pool[dst] - 0x4973F715 * hashmix(word)) & _M32
        pool[dst] = v ^ v >> 16
    out = _hasher(0x8B51F9DD, 0x58F38DED)
    w = [out(pool[k % 4]) for k in range(8)]
    u = [w[k] | w[k + 1] << 32 for k in range(0, 8, 2)]
    inc = (u[2] << 64 | u[3]) << 1 & _M128 | 1
    return _pcg64_words((inc + (u[0] << 64 | u[1])) * _PCG64_MULT + inc & _M128, inc)


def _pcg64_words(state: int, inc: int) -> Iterator[int]:
    """PCG64 from a seeded (state, increment): step, XSL-RR output, low 32 bits then high."""
    while True:
        state = state * _PCG64_MULT + inc & _M128
        x, rot = (state >> 64 ^ state) & _M64, state >> 122
        out = (x >> rot | x << (64 - rot)) & _M64
        yield out & _M32
        yield out >> 32


def draw_coeffs(words: Iterator[int], dim: int) -> list[int]:
    """``dim`` integer coefficients from the sample box, not all zero, drawn from a ``coeff_stream``.

    Each is numpy's ``Generator.integers(-SAMPLE_BOX, SAMPLE_BOX + 1)``: Lemire's
    multiply-shift of one word, redrawn while the product's low 32 bits fall below
    the rejection threshold.
    """
    span = 2 * SAMPLE_BOX + 1
    threshold = (2**32 - span) % span
    while True:
        coeffs = []
        for _ in range(dim):
            m = next(words) * span
            while m & _M32 < threshold:
                m = next(words) * span
            coeffs.append((m >> 32) - SAMPLE_BOX)
        if any(coeffs):
            return coeffs


@dataclass(frozen=True)
class DiagonalIndex:
    """One diagonal of a dA x dB matrix: label k = col - row, cells by row."""

    dA: int
    dB: int
    k: int
    length: int
    cells: tuple[tuple[int, int], ...]


def diagonals(dA: int, dB: int) -> list[DiagonalIndex]:
    """All dA + dB - 1 diagonals, in increasing k order.

    Diagonal k has length min(dA, dB, dA + k, dB - k); for dA <= dB that
    means 1 + dB - dA diagonals of full length dA and two of every shorter
    length.
    """
    if dA < 1 or dB < 1:
        raise DimensionError(f"need positive dimensions, got {dA}x{dB}")
    out = []
    for k in range(-(dA - 1), dB):
        i0 = max(0, -k)
        length = min(dA, dB, dA + k, dB - k)
        cells = tuple((i, i + k) for i in range(i0, i0 + length))
        out.append(DiagonalIndex(dA, dB, k, length, cells))
    return out


@dataclass(frozen=True)
class SubspaceBasis:
    """Ordered basis of a matrix subspace; construction checks its independence."""

    dA: int
    dB: int
    r: int | None
    kind: str
    matrices: tuple[StateMatrix, ...]
    metadata: dict

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown basis kind {self.kind!r}")
        if not (_is_int(self.dA) and _is_int(self.dB)):
            raise DimensionError(f"basis dimensions must be integers, got {self.dA!r}x{self.dB!r}")
        if self.r is not None and not (_is_int(self.r) and self.r >= 1):
            raise DomainError(f"rank threshold must be a positive integer, got {self.r!r}")
        if not isinstance(self.metadata, dict):
            raise DomainError("basis metadata must be an object")
        if not self.matrices:
            raise DimensionError("a basis needs at least one matrix")
        head = self.matrices[0]
        for m in self.matrices:
            if (m.rows, m.cols) != (self.dA, self.dB):
                raise DimensionError(f"basis is {self.dA}x{self.dB} but found a {m.rows}x{m.cols} matrix")
            if (m.field, m.p) != (head.field, head.p):
                raise FieldMismatchError("basis matrices must share one field")
        rank = basis_stack_rank(self)
        if rank != self.dimension:
            raise DomainError(f"basis is not linearly independent: stack rank {rank} != {self.dimension}")

    @property
    def dimension(self) -> int:
        return len(self.matrices)

    @property
    def field(self) -> str:
        return self.matrices[0].field

    @property
    def p(self) -> int | None:
        return self.matrices[0].p

    def combination(self, coeffs: Sequence) -> StateMatrix:
        return combine(self.matrices, coeffs)


def basis_stack_rank(basis: SubspaceBasis) -> int:
    """Exact (or, for complex, numeric) rank of the vectorized basis stack."""
    size = basis.dA * basis.dB
    if basis.field == RATIONAL:
        return block_rank(((i * size + k, v) for i, m in enumerate(basis.matrices) for k, v in m._nonzero), size)
    flat = tuple(v for m in basis.matrices for v in m.entries)
    stack = StateMatrix(basis.dimension, size, basis.field, flat, basis.p)
    if basis.field == COMPLEX:
        return schmidt_rank_numeric(stack).rank
    return rank_exact(stack)


def _self_check_rank_floor(basis: SubspaceBasis, r: int) -> None:
    """Exact ranks of seeded combinations must all reach r."""
    rng = coeff_stream(_SELF_CHECK_SEED)
    for _ in range(SELF_CHECK_SAMPLES):
        got = rank_exact(basis.combination(draw_coeffs(rng, basis.dimension)))
        if got < r:
            raise CertificateError(f"self-check found a combination of rank {got} < {r}")


def build_diagonal_family(diag: DiagonalIndex, r: int, tns: StateMatrix) -> list[StateMatrix]:
    """The length - r + 1 generators living on one diagonal.

    Matrix j carries column j of the leading length x length block of ``tns``
    down the diagonal's cells.  Diagonals shorter than r contribute nothing
    and yield an empty list.
    """
    if r < 1:
        raise DomainError(f"rank threshold must be at least 1, got {r}")
    if diag.length < r:
        return []
    if tns.rows < diag.length:
        raise DimensionError(f"TNS source of size {tns.rows} too small for a length-{diag.length} diagonal")
    out = []
    for j in range(diag.length - r + 1):
        flat = [0] * (diag.dA * diag.dB)
        for i, (row, col) in enumerate(diag.cells):
            flat[row * diag.dB + col] = tns.at(i, j)
        out.append(matrix_of_state(flat, diag.dA, diag.dB))
    return out


def construct_min_rank_subspace(dA: int, dB: int, r: int) -> SubspaceBasis:
    """Basis of dimension (dA-r+1)(dB-r+1) whose combinations all have rank >= r."""
    if not 2 <= r <= min(dA, dB):
        raise DomainError(f"need 2 <= r <= min(dA, dB) = {min(dA, dB)}, got r={r}")
    m = min(dA, dB)
    tns = default_tns(m)
    matrices: list[StateMatrix] = []
    per_matrix: list[dict] = []
    for diag in diagonals(dA, dB):
        for j, mat in enumerate(build_diagonal_family(diag, r, tns)):
            matrices.append(mat)
            per_matrix.append({"k": diag.k, "tns_column": j})
    expected = (dA - r + 1) * (dB - r + 1)
    if len(matrices) != expected:
        raise CertificateError(f"diagonal counting bug: built {len(matrices)} matrices, expected {expected}")
    basis = SubspaceBasis(
        dA,
        dB,
        r,
        KIND_MIN_RANK,
        tuple(matrices),
        {
            "per_matrix": per_matrix,
            # Column 1 of a Vandermonde matrix holds its nodes.
            "tns_nodes": [str(tns.at(i, 1)) for i in range(m)],
            "tns_certified": certification(m),
        },
    )
    _self_check_rank_floor(basis, r)
    return basis


def construct_max_rank_leq_subspace(dA: int, dB: int, r: int) -> SubspaceBasis:
    """The r * max(dA, dB) elementary matrices supported on r rows (or columns).

    Every combination lives in (span of r rows) x full column space, so its
    rank never exceeds r; this meets the dimension bound for rank-<=-r
    subspaces exactly.
    """
    if not 1 <= r <= min(dA, dB):
        raise DomainError(f"need 1 <= r <= min(dA, dB) = {min(dA, dB)}, got r={r}")
    factor_side = "rows" if dA <= dB else "cols"
    matrices = []
    per_matrix = []
    if factor_side == "rows":
        span = [(i, j) for i in range(r) for j in range(dB)]
    else:
        span = [(i, j) for j in range(r) for i in range(dA)]
    for i, j in span:
        entries = [[0] * dB for _ in range(dA)]
        entries[i][j] = 1
        matrices.append(StateMatrix.rational(entries))
        per_matrix.append({"row": i, "col": j})
    return SubspaceBasis(
        dA,
        dB,
        r,
        KIND_MAX_RANK,
        tuple(matrices),
        {"factor_side": factor_side, "factor_count": r, "per_matrix": per_matrix},
    )


def construct_fixed_rank_subspace(dA: int, dB: int) -> SubspaceBasis:
    """Dimension dB-dA+1 subspace in which every nonzero element has rank dA.

    This is the minimum-rank construction at its extreme r = dA: rank cannot
    exceed dA, and the construction forbids anything below it.
    """
    if dA > dB:
        raise DomainError(f"need dA <= dB, got {dA} > {dB}; transpose the problem first")
    if dA < 2:
        raise DomainError("fixed-rank construction needs dA >= 2")
    base = construct_min_rank_subspace(dA, dB, dA)
    return replace(base, kind=KIND_FIXED_RANK)


def antisymmetric_basis_3x3() -> SubspaceBasis:
    """The three antisymmetric 3x3 generators; every combination has rank 2.

    Nonzero antisymmetric matrices of odd size have even rank below the size,
    which pins the rank of every nonzero combination at exactly 2.
    """
    pairs = [(0, 1), (0, 2), (1, 2)]
    matrices = []
    for i, j in pairs:
        entries = [[0] * 3 for _ in range(3)]
        entries[i][j] = 1
        entries[j][i] = -1
        matrices.append(StateMatrix.rational(entries))
    return SubspaceBasis(
        3,
        3,
        2,
        KIND_ANTISYMMETRIC,
        tuple(matrices),
        {"generators": [f"E{i}{j}-E{j}{i}" for i, j in pairs]},
    )


def random_subspace(dA: int, dB: int, dim: int, seed: int) -> SubspaceBasis:
    """Seeded complex Gaussian basis of the requested dimension.

    Gaussian stacks are almost surely full rank; independence is still
    checked, and the draw is deterministic in the seed.
    """
    if not 1 <= dim <= dA * dB:
        raise DomainError(f"need 1 <= dim <= {dA * dB}, got {dim}")
    rng = np.random.default_rng(seed)
    matrices = []
    for _ in range(dim):
        a = rng.standard_normal((dA, dB)) + 1j * rng.standard_normal((dA, dB))
        matrices.append(StateMatrix.complex_(a.tolist()))
    return SubspaceBasis(dA, dB, None, KIND_RANDOM, tuple(matrices), {"seed": seed})


def basis_from_json_dict(d: dict) -> SubspaceBasis:
    """Decode a basis object; malformed input raises an EntspanError."""
    if not isinstance(d, dict):
        raise DomainError("a basis must be a JSON object")
    try:
        dA, dB, kind, matrices = d["da"], d["db"], d["kind"], d["matrices"]
    except KeyError as exc:
        raise DomainError(f"basis object missing key {exc}") from None
    if not isinstance(matrices, list):
        raise DomainError("basis 'matrices' must be a list")
    matrices = tuple(matrix_from_json_dict(md) for md in matrices)
    return SubspaceBasis(dA, dB, d.get("r"), kind, matrices, d.get("metadata", {}))
