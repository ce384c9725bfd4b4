"""Discrete realizations of the lift operators on R^n x L2([-d,0]; R^n).

The module provides the left-shift semigroup, the dissipative generator
(head damping plus tail derivative), its explicit inverse, the weak norm
induced by that inverse, the weighted Gram operator of the inverse with its
spectral decomposition, and the two structural quadratic forms (dissipativity
and the inverse pairing) that every state must keep nonpositive. The inverse
has one implementation, apply_generator_inverse: the Gram operator is
assembled from its image of the unit states.

All adjoints are taken in the quadrature-weighted inner product so matrix
identities mirror the continuous ones. Every matrix here is a scalar
(m+2)-square block: on the flat [head; nodes] vector of an R^n-valued state,
component index fastest, the operator is that block times I_n, so n is a
multiplicity. One discretization artifact is handled explicitly: because
the inverse's range satisfies the nodal domain constraint tail(0) = head,
the scalar inverse matrix is rank deficient by one, and the Gram operator
carries one machine-zero eigenvalue per component, whose eigenvector is the
alternating (Nyquist) tail mode. The spectral decomposition strips it.

The functional operators, the forms and the norms act on a LiftedBatch
(heads (S, n), tails (S, m+1, n)) in one pass: an operator gives a batch,
a form or norm one value per sample (S,).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DomainError,
    LiftedBatch,
    NumericalError,
    SegmentGrid,
    _dot_rows,
    interp_columns,
    lifted_inner,
    lifted_norm,
)

GHOST_RELATIVE_TOL = 1e-13
# samples per batch in sample_audit: at n = 2, m = 400 a tail array of 128
# samples holds 0.8 MB, and the audit keeps a few alive at once
BLOCK = 128
# coefficients per component of a smooth state: cubic plus two trig modes
SMOOTH_MODES = 6


def weight_vector(grid: SegmentGrid) -> np.ndarray:
    """Diagonal of the scalar quadrature weight matrix, ordered [head; nodes]."""
    return np.concatenate([[1.0], grid.weights])


def apply_shift_semigroup(t, x: LiftedBatch) -> LiftedBatch:
    """Transport the history left by t; entries shifted past 0 read the head.

    t is one time, or one per sample (S,). The head is unchanged.
    Node values between old nodes are linearly interpolated. The weighted
    norm never grows by more than sqrt(2(1+d)).
    """
    ts = np.broadcast_to(np.asarray(t, dtype=float), (len(x.heads),))
    if np.any(ts < 0):
        raise DomainError(f"semigroup time must be nonnegative, got {float(np.min(ts))}")
    nodes = x.grid.nodes
    tails = np.stack([tail if s == 0.0 else _shift_tail(s, nodes, tail, head)
                      for s, tail, head in zip(ts, x.tails, x.heads)])
    return LiftedBatch(x.grid, x.heads, tails)


def _shift_tail(t: float, nodes: np.ndarray, tail: np.ndarray,
                head: np.ndarray) -> np.ndarray:
    """Tail (m+1, n) on nodes, transported left by t >= 0 under head (n,)."""
    pos = t + nodes
    # the initial segment applies on [-d, 0); at time 0 the head takes over
    return np.where((pos < 0.0)[:, None], interp_columns(pos, nodes, tail), head[None, :])


def apply_generator(x: LiftedBatch) -> LiftedBatch:
    """Dissipative generator: negate the head, differentiate the tail.

    Finite differences: central in the interior, second-order one-sided at
    both ends, so the derivative is uniformly second order.
    Every sample must satisfy the nodal domain constraint tail(0) = head
    to 1e-9.
    """
    v = x.tails
    gap = float(np.max(np.abs(v[:, -1] - x.heads)))
    if gap > 1e-9:
        raise DomainError(f"state outside generator domain: |tail(0) - head| = {gap:g} > 1e-09")
    h = x.grid.h
    dv = np.empty_like(v)
    dv[:, 1:-1] = (v[:, 2:] - v[:, :-2]) / (2 * h)
    if x.grid.m >= 2:
        dv[:, 0] = (-3 * v[:, 0] + 4 * v[:, 1] - v[:, 2]) / (2 * h)
        dv[:, -1] = (3 * v[:, -1] - 4 * v[:, -2] + v[:, -3]) / (2 * h)
    else:
        dv[:, 0] = dv[:, -1] = (v[:, -1] - v[:, 0]) / h
    return LiftedBatch(x.grid, -x.heads, dv)


def apply_generator_inverse(x: LiftedBatch) -> LiftedBatch:
    """Explicit inverse: head -> -head, tail -> -head - integral of tail to 0.

    The integral is the cumulative trapezoid rule from each node to 0, so the
    output satisfies the domain constraint exactly (its tail at 0 is -head).
    """
    v = x.tails
    h = x.grid.h
    increments = h * (v[:, :-1] + v[:, 1:]) / 2.0
    # the integral from each node to 0, summed from 0 outward, in place
    tail = np.zeros_like(v)
    np.cumsum(increments[:, ::-1], axis=1, out=tail[:, -2::-1])
    np.subtract(-x.heads[:, None, :], tail, out=tail)
    return LiftedBatch(x.grid, -x.heads, tail)


def minus_one_norm(x: LiftedBatch) -> np.ndarray:
    """Weak norm: the lifted norm of the inverse-generator image.

    Dominates the head: |head| <= minus_one_norm(x).
    """
    return lifted_norm(apply_generator_inverse(x))


def dissipativity_form(x: LiftedBatch) -> np.ndarray:
    """Quadratic form of the generator; nonpositive on its domain.

    The discrete value telescopes to -|head|^2/2 - |tail(-d)|^2/2 with an
    end correction of order h^2 times the local curvature.
    """
    return lifted_inner(apply_generator(x), x)


def generator_inverse_form(x: LiftedBatch) -> np.ndarray:
    """Pairing of the inverse-generator image with the state; nonpositive."""
    return lifted_inner(apply_generator_inverse(x), x)


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Dense scalar operator with its grid."""

    matrix: np.ndarray
    grid: SegmentGrid


# the bench trace reads the result's .matrix (bench/spans.py, _observe_gram)
def assemble_gram_operator(grid: SegmentGrid) -> OperatorMatrix:
    """Weighted Gram operator of the inverse generator: (adjoint of M) M.

    M is the scalar matrix of apply_generator_inverse, assembled column by
    column as its image of the m+2 unit [head; nodes] states in one batch.
    The adjoint is taken in the quadrature inner product, so the quadratic
    form of the result equals the squared weak norm exactly.
    """
    basis = np.eye(grid.m + 2)[:, :, None]
    image = apply_generator_inverse(LiftedBatch(grid, basis[:, 0], basis[:, 1:]))
    M = np.concatenate([image.heads, image.tails[..., 0]], axis=1).T
    w = weight_vector(grid)
    B = (M.T * w[None, :]) @ M / w[:, None]
    return OperatorMatrix(B, grid)


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Weighted-orthonormal eigenpairs of the Gram operator, descending.

    eigenvalues are strictly positive; vectors holds the eigenvectors as
    columns. The exact-zero ghost mode of the discretization (the
    alternating tail vector annihilated by the trapezoid rule) is excluded
    and kept in ghost_vectors for diagnostics.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    ghost_vectors: np.ndarray
    grid: SegmentGrid

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def operator_norm(self) -> float:
        """Largest eigenvalue = squared operator norm of the inverse generator."""
        return float(self.eigenvalues[0])

    def tail_projector(self, n_modes: int) -> np.ndarray:
        """Q = I - P, with P the weighted-orthogonal projector onto the
        leading n_modes eigenvectors."""
        if not 1 <= n_modes <= self.dim:
            raise ValueError(f"mode count must be in [1, {self.dim}], got {n_modes}")
        F = self.vectors[:, :n_modes]
        w = weight_vector(self.grid)
        P = F @ (w[:, None] * F).T
        return np.eye(P.shape[0]) - P


def _symmetrized(mat: np.ndarray, grid: SegmentGrid) -> tuple[np.ndarray, np.ndarray]:
    """The symmetric rescaling s mat / s of a scalar operator self-adjoint in
    the weighted metric (s the square root of the weights), and s; an
    operator that is not self-adjoint in that metric raises NumericalError."""
    s = np.sqrt(weight_vector(grid))
    S = (s[:, None] * mat) / s[None, :]
    asym = np.max(np.abs(S - S.T))
    if asym > 1e-10 * max(np.max(np.abs(S)), 1.0):
        raise NumericalError(f"symmetrization failure: asymmetry {asym:g}")
    return (S + S.T) / 2.0, s


def spectral_decomposition(op: OperatorMatrix) -> SpectralDecomposition:
    """Eigendecomposition in the weighted metric via symmetric rescaling; an
    operator not self-adjoint in that metric raises NumericalError."""
    S, s = _symmetrized(op.matrix, op.grid)
    lam, V = np.linalg.eigh(S)
    order = np.argsort(lam)[::-1]
    lam = lam[order]
    V = V[:, order]
    F = V / s[:, None]
    keep = lam > GHOST_RELATIVE_TOL * lam[0]
    n_ghost = int(np.sum(~keep))
    if n_ghost != 1:
        raise NumericalError(
            f"expected exactly 1 ghost mode, found {n_ghost}; "
            "grid is outside the validated desk scale"
        )
    return SpectralDecomposition(
        eigenvalues=lam[keep],
        vectors=F[:, keep],
        ghost_vectors=F[:, ~keep],
        grid=op.grid,
    )


def g_operator_norm(mat: np.ndarray, grid: SegmentGrid) -> float:
    """Operator norm in the weighted metric of a scalar operator self-adjoint
    in it, as its largest |eigenvalue| (a symmetric eigensolve, not an SVD);
    mat times I_n has the same norm. Any other operator raises NumericalError."""
    return float(np.max(np.abs(np.linalg.eigvalsh(_symmetrized(mat, grid)[0]))))


def lifted_norm_sq(x: LiftedBatch) -> np.ndarray:
    return lifted_inner(x, x)


def smooth_states(grid: SegmentGrid, coeffs: np.ndarray) -> LiftedBatch:
    """Generator-domain states with smooth tails, coeffs (S, n, SMOOTH_MODES)
    on the basis 1, xi, xi^2, xi^3, cos(pi xi), sin(pi xi) in xi = node/d.

    Each head is its tail's value at 0.
    """
    xi = grid.nodes / grid.d
    basis = np.stack([
        np.ones_like(xi), xi, xi ** 2, xi ** 3,
        np.cos(np.pi * xi), np.sin(np.pi * xi),
    ])
    # the tails keep the product's layout, component by component, and a
    # slice of one sample keeps it too: quadrature sums follow memory order,
    # so each sample sums bitwise as its one-sample batch would
    tails = (coeffs @ basis).swapaxes(1, 2)
    return LiftedBatch(grid, tails[:, -1].copy(), tails)


def random_smooth_state(grid: SegmentGrid, n: int, rng: np.random.Generator,
                        domain: bool = True) -> LiftedBatch:
    """One random state with a smooth tail, as a batch of one: low-order
    polynomial plus two trig modes.

    With domain=True the head is set to the tail value at 0, so the state
    lies in the generator domain; otherwise it is drawn after the tail.
    """
    x = smooth_states(grid, rng.normal(size=(1, n, SMOOTH_MODES)))
    return x if domain else LiftedBatch(grid, rng.normal(size=(1, n)), x.tails)


def sample_audit(grid: SegmentGrid, coeffs: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Structural audit of the smooth states coeffs (S, n, SMOOTH_MODES),
    BLOCK samples per batch; one row per sample.

    Columns: the dissipativity and inverse-pairing forms over the squared
    norm, |head|, the weak norm, the generator round trip's relative error,
    and the norm growth of the shift semigroup at the sample's time in
    times (S,).
    """
    rows = np.empty((len(coeffs), 6))
    for lo in range(0, len(coeffs), BLOCK):
        x = smooth_states(grid, coeffs[lo:lo + BLOCK])
        nx = lifted_norm(x)
        nx_floor, sq_floor = np.maximum(nx, 1e-300), np.maximum(nx * nx, 1e-300)
        # the weak norm (minus_one_norm) and the round trip share one image
        inv = apply_generator_inverse(x)
        shifted = apply_shift_semigroup(times[lo:lo + BLOCK], x)
        rows[lo:lo + BLOCK] = np.column_stack([
            dissipativity_form(x) / sq_floor,
            generator_inverse_form(x) / sq_floor,
            np.sqrt(_dot_rows(x.heads, x.heads)),
            lifted_norm(inv),
            lifted_norm(apply_generator(inv) - x) / nx_floor,
            lifted_norm(shifted) / nx_floor,
        ])
    return rows
