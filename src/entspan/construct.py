"""Explicit bases for subspaces with constrained Schmidt rank.

The centerpiece builds, for any 2 <= r <= min(dA, dB), a basis of exactly
(dA - r + 1)(dB - r + 1) integer matrices whose every nonzero combination has
rank at least r.  Matrices are grouped by matrix diagonal: diagonal k (k =
col - row, increasing from lower-left to upper-right) of length L >= r
contributes L - r + 1 matrices, the t-th carrying x_i**t at the diagonal's
i-th cell for the nodes x_i = i + 1 (column t of a Vandermonde matrix).  On
its top-rightmost occupied diagonal a combination is then a nonzero
polynomial of degree at most L - r evaluated at L distinct nodes, so it keeps
at least r nonzero entries there, which forces a triangular nonzero r x r
minor.  Each such basis is checked against exactly these conditions before
it is returned.

Also here: the row-factor construction maximizing dimension under a rank
*upper* bound, the fixed-rank family r = dA, the 3x3 antisymmetric basis,
and seeded random complex subspaces used as optimizer fodder.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import CertificateError, DimensionError, DomainError, FieldMismatchError
from .statemat import (
    RATIONAL,
    StateMatrix,
    _is_int,
    block_rank,
    combine,
    matrix_from_json_dict,
    schmidt_rank_numeric,
)

KIND_MIN_RANK = "min_rank_geq_r"
KIND_MAX_RANK = "max_rank_leq_r"
KIND_FIXED_RANK = "fixed_rank"
KIND_ANTISYMMETRIC = "antisymmetric"
KIND_RANDOM = "random"
KIND_USER = "user"

KINDS = (KIND_MIN_RANK, KIND_MAX_RANK, KIND_FIXED_RANK, KIND_ANTISYMMETRIC, KIND_RANDOM, KIND_USER)

#: Sampled integer coefficients are drawn uniformly from [-SAMPLE_BOX, SAMPLE_BOX].
SAMPLE_BOX = 9


def coeff_stream(seed: int) -> random.Random:
    """The seeded generator every sampled claim draws from: the standard library's ``random.Random(seed)``.

    Only its ``random()`` is read, the one method whose sequence for an int
    seed Python keeps the same across versions.
    """
    if not (_is_int(seed) and seed >= 0):
        # Random(-s) seeds with |s|, so a negative seed would repeat another seed's stream.
        raise DomainError(f"a seed must be a non-negative integer, got {seed!r}")
    return random.Random(seed)


def draw_coeffs(rng: random.Random, dim: int) -> list[int]:
    """``dim`` integer coefficients uniform over the sample box, not all zero, drawn from a ``coeff_stream``.

    Each is ``int(rng.random() * span) - SAMPLE_BOX``; an all-zero draw is redrawn whole.
    """
    span = 2 * SAMPLE_BOX + 1
    while True:
        coeffs = [int(rng.random() * span) - SAMPLE_BOX for _ in range(dim)]
        if any(coeffs):
            return coeffs


def draw_normals(rng: random.Random, n: int) -> np.ndarray:
    """``n`` complex numbers whose real and imaginary parts are independent N(0, 1), from a ``coeff_stream``.

    Box–Muller on pairs of uniforms u = 1 - rng.random() in (0, 1]: the first of a
    pair gives the radius sqrt(-2 ln u), the second the angle 2 pi u.
    """
    u = 1.0 - np.array([rng.random() for _ in range(2 * n)])
    return np.sqrt(-2.0 * np.log(u[0::2])) * np.exp(2j * np.pi * u[1::2])


@dataclass(frozen=True)
class DiagonalIndex:
    """One diagonal of a matrix: label k = col - row, and its (row, col) cells by row."""

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
        out.append(DiagonalIndex(k, length, cells))
    return out


@dataclass(frozen=True)
class SubspaceBasis:
    """Ordered basis of a matrix subspace; construction checks its independence."""

    dA: int
    dB: int
    r: int | None
    kind: str
    matrices: tuple[StateMatrix, ...]

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown basis kind {self.kind!r:.60}")
        if not (_is_int(self.dA) and _is_int(self.dB)):
            raise DimensionError(f"basis dimensions must be integers, got {self.dA!r:.60}x{self.dB!r:.60}")
        if self.r is not None and not (_is_int(self.r) and self.r >= 1):
            raise DomainError(f"rank threshold must be a positive integer, got {self.r!r:.60}")
        if not self.matrices:
            raise DimensionError("a basis needs at least one matrix")
        head = self.matrices[0]
        for m in self.matrices:
            if (m.rows, m.cols) != (self.dA, self.dB):
                raise DimensionError(
                    f"basis is {self.dA!r:.60}x{self.dB!r:.60} but found a {m.rows!r:.60}x{m.cols!r:.60} matrix"
                )
            if m.field != head.field:
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

    def combination(self, coeffs: Sequence) -> StateMatrix:
        return combine(self.matrices, coeffs)


def basis_stack_rank(basis: SubspaceBasis) -> int:
    """Exact (or, for complex, numeric) rank of the vectorized basis stack."""
    if basis.field == RATIONAL:
        return block_rank([m._nonzero for m in basis.matrices])
    flat = tuple(v for m in basis.matrices for v in m.entries)
    return schmidt_rank_numeric(StateMatrix(basis.dimension, basis.dA * basis.dB, basis.field, flat)).rank


def _self_check_rank_floor(basis: SubspaceBasis, r: int) -> None:
    """Prove that every nonzero combination of ``basis`` has rank >= r, or raise CertificateError.

    Reads only the matrices.  Each must lie on one diagonal; a diagonal of
    length L may hold at most L - r + 1 of them, and down its cells the t-th
    of them, in basis order, must read x_i**t for pairwise distinct nodes
    x_i.  On a combination's top occupied diagonal, which carries no other
    matrices' cells, the entries are then a nonzero polynomial of degree at
    most L - r at L distinct nodes, so at least r of them are nonzero, and r
    of them head a triangular nonzero minor (every entry above that diagonal
    is zero).
    """
    families: dict[int, list[StateMatrix]] = {}
    for n, m in enumerate(basis.matrices):
        ks = {idx % basis.dB - idx // basis.dB for idx, _ in m._nonzero}
        if len(ks) != 1:
            raise CertificateError(f"matrix {n} is not on one diagonal: it has cells on diagonals {sorted(ks)}")
        families.setdefault(ks.pop(), []).append(m)
    for diag in diagonals(basis.dA, basis.dB):
        family = families.get(diag.k)
        if not family:
            continue
        if len(family) > diag.length - r + 1:
            raise CertificateError(
                f"diagonal {diag.k} of length {diag.length} holds {len(family)} matrices, "
                f"more than {max(0, diag.length - r + 1)}"
            )
        flat = [row * basis.dB + col for row, col in diag.cells]
        # Node i is nodes[i] / scale, read off the second matrix; node i to the t is powers[i] / scale**t.
        nodes, scale = ([family[1].entries[idx] for idx in flat], family[1].denominator) if len(family) > 1 else ([], 1)
        if len(set(nodes)) != len(nodes):
            raise CertificateError(f"diagonal {diag.k} repeats a node: {', '.join(str(Fraction(x, scale)) for x in nodes)}")
        powers, power_scale = [1] * diag.length, 1
        for t, m in enumerate(family):
            # Every cell of m lies on this diagonal, so m reads node**t iff each cross-multiplied pair agrees.
            if [m.entries[idx] * power_scale for idx in flat] != [v * m.denominator for v in powers]:
                raise CertificateError(f"diagonal {diag.k}: its matrix {t} does not read node**{t} down the diagonal")
            powers, power_scale = [v * x for v, x in zip(powers, nodes)], power_scale * scale


def default_tns(m: int) -> StateMatrix:
    """The integer Vandermonde matrix on the nodes 1..m: entry (i, j) is (i + 1)**j."""
    return StateMatrix(m, m, RATIONAL, tuple([x**j for x in range(1, m + 1) for j in range(m)]))


def construct_min_rank_subspace(dA: int, dB: int, r: int) -> SubspaceBasis:
    """Basis of dimension (dA-r+1)(dB-r+1) whose combinations all have rank >= r."""
    if not 2 <= r <= min(dA, dB):
        raise DomainError(f"need 2 <= r <= min(dA, dB) = {min(dA, dB)}, got r={r}")
    m = min(dA, dB)
    powers = default_tns(m).entries  # (i + 1)**j at i * m + j
    matrices: list[StateMatrix] = []
    for diag in diagonals(dA, dB):
        flat = [row * dB + col for row, col in diag.cells]
        # Generator j writes Vandermonde column j down the diagonal, as int numerators over 1.
        for j in range(diag.length - r + 1):
            entries = [0] * (dA * dB)
            for i, idx in enumerate(flat):
                entries[idx] = powers[i * m + j]
            matrices.append(StateMatrix(dA, dB, RATIONAL, tuple(entries)))
    expected = (dA - r + 1) * (dB - r + 1)
    if len(matrices) != expected:
        raise CertificateError(f"diagonal counting bug: built {len(matrices)} matrices, expected {expected}")
    basis = SubspaceBasis(dA, dB, r, KIND_MIN_RANK, tuple(matrices))
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
    if dA <= dB:
        cells = [i * dB + j for i in range(r) for j in range(dB)]  # E_ij on the first r rows
    else:
        cells = [i * dB + j for j in range(r) for i in range(dA)]  # E_ij on the first r columns
    units = [(0,) * idx + (1,) + (0,) * (dA * dB - idx - 1) for idx in cells]
    return SubspaceBasis(dA, dB, r, KIND_MAX_RANK, tuple(StateMatrix(dA, dB, RATIONAL, u) for u in units))


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
    matrices = []
    for i, j in [(0, 1), (0, 2), (1, 2)]:
        entries = [0] * 9
        entries[3 * i + j], entries[3 * j + i] = 1, -1
        matrices.append(StateMatrix(3, 3, RATIONAL, tuple(entries)))
    return SubspaceBasis(3, 3, 2, KIND_ANTISYMMETRIC, tuple(matrices))


def random_subspace(dA: int, dB: int, dim: int, seed: int) -> SubspaceBasis:
    """Seeded complex Gaussian basis of the requested dimension.

    The dim * dA * dB entries are one ``draw_normals`` call on ``coeff_stream(seed)``,
    matrix by matrix in row-major order, so the draw is deterministic in the seed.
    Gaussian stacks are almost surely full rank; independence is still checked.
    """
    if not 1 <= dim <= dA * dB:
        raise DomainError(f"need 1 <= dim <= {dA * dB}, got {dim}")
    draws = draw_normals(coeff_stream(seed), dim * dA * dB).reshape(dim, dA, dB)
    matrices = tuple(StateMatrix.complex_(a.tolist()) for a in draws)
    return SubspaceBasis(dA, dB, None, KIND_RANDOM, matrices)


def basis_from_json_dict(d: dict) -> SubspaceBasis:
    """Decode a basis object, ignoring keys other than its own; malformed input raises an EntspanError."""
    if not isinstance(d, dict):
        raise DomainError("a basis must be a JSON object")
    try:
        dA, dB, kind, matrices = d["da"], d["db"], d["kind"], d["matrices"]
    except KeyError as exc:
        raise DomainError(f"basis object missing key {exc}") from None
    if not isinstance(matrices, list):
        raise DomainError("basis 'matrices' must be a list")
    decoded: dict = {}  # entry text -> value, for this basis only
    matrices = tuple(matrix_from_json_dict(md, decoded) for md in matrices)
    return SubspaceBasis(dA, dB, d.get("r"), kind, matrices)
