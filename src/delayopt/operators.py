"""Discrete realizations of the lift operators on R^n x L2([-d,0]; R^n).

The module provides the left-shift semigroup, the dissipative generator
(head damping plus tail derivative), its explicit inverse, the weak norm
induced by that inverse, the weighted Gram operator of the inverse with its
spectral decomposition, and the two structural quadratic forms (dissipativity
and the inverse pairing) that every state must keep nonpositive.

All adjoints are taken in the quadrature-weighted inner product so matrix
identities mirror the continuous ones. One discretization artifact is
handled explicitly: because the inverse's range satisfies the nodal domain
constraint tail(0) = head, the flat inverse matrix is rank deficient by n,
and the composed Gram operator carries exactly n machine-zero eigenvalues
whose eigenvectors are the alternating (Nyquist) tail modes. The spectral
decomposition strips those ghost modes and records their count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DomainError,
    LiftedState,
    NumericalError,
    Segment,
    SegmentGrid,
    interp_columns,
    lifted_inner,
    lifted_norm,
)

GHOST_RELATIVE_TOL = 1e-13


def weight_vector(grid: SegmentGrid, n: int) -> np.ndarray:
    """Diagonal of the flat quadrature weight matrix, ordered [head; nodes]."""
    return np.concatenate([np.ones(n), np.repeat(grid.weights, n)])


def flatten(x: LiftedState) -> np.ndarray:
    return np.concatenate([x.head, x.tail.values.ravel()])


def unflatten(vec: np.ndarray, grid: SegmentGrid, n: int) -> LiftedState:
    return LiftedState(vec[:n], Segment(grid, vec[n:].reshape(grid.m + 1, n)))


def apply_shift_semigroup(t: float, x: LiftedState) -> LiftedState:
    """Transport the history left by t; entries shifted past 0 read the head.

    The head is unchanged. Node values between old nodes are linearly
    interpolated. The weighted norm never grows by more than sqrt(2(1+d)).
    """
    if t < 0:
        raise DomainError(f"semigroup time must be nonnegative, got {t}")
    if t == 0.0:
        return x
    grid = x.grid
    pos = t + grid.nodes
    # the initial segment applies on [-d, 0); at time 0 the head takes over
    past = pos < 0.0
    tail_new = np.where(past[:, None], interp_columns(pos, grid.nodes, x.tail.values),
                        x.head[None, :])
    return LiftedState(x.head, Segment(grid, tail_new))


def apply_generator(x: LiftedState, domain_tol: float = 1e-9) -> LiftedState:
    """Dissipative generator: negate the head, differentiate the tail.

    Finite differences: central in the interior, second-order one-sided at
    both ends, so the derivative is uniformly second order.
    The state must satisfy the nodal domain constraint tail(0) = head.
    """
    gap = float(np.max(np.abs(x.tail.values[-1] - x.head)))
    if gap > domain_tol:
        raise DomainError(
            f"state outside generator domain: |tail(0) - head| = {gap:g} > {domain_tol:g}"
        )
    h = x.grid.h
    v = x.tail.values
    dv = np.empty_like(v)
    dv[1:-1] = (v[2:] - v[:-2]) / (2 * h)
    if x.grid.m >= 2:
        dv[0] = (-3 * v[0] + 4 * v[1] - v[2]) / (2 * h)
        dv[-1] = (3 * v[-1] - 4 * v[-2] + v[-3]) / (2 * h)
    else:
        dv[0] = dv[-1] = (v[-1] - v[0]) / h
    return LiftedState(-x.head, Segment(x.grid, dv))


def apply_generator_inverse(x: LiftedState) -> LiftedState:
    """Explicit inverse: head -> -head, tail -> -head - integral of tail to 0.

    The integral is the cumulative trapezoid rule from each node to 0, so the
    output satisfies the domain constraint exactly (its tail at 0 is -head).
    """
    v = x.tail.values
    h = x.grid.h
    increments = h * (v[:-1] + v[1:]) / 2.0
    tail_int = np.zeros_like(v)
    tail_int[:-1] = np.cumsum(increments[::-1], axis=0)[::-1]
    tail_new = -x.head[None, :] - tail_int
    return LiftedState(-x.head, Segment(x.grid, tail_new))


def minus_one_norm(x: LiftedState) -> float:
    """Weak norm: the lifted norm of the inverse-generator image.

    Dominates the head: |head| <= minus_one_norm(x).
    """
    return lifted_norm(apply_generator_inverse(x))


def dissipativity_form(x: LiftedState, domain_tol: float = 1e-9) -> float:
    """Quadratic form of the generator; nonpositive on its domain.

    The discrete value telescopes to -|head|^2/2 - |tail(-d)|^2/2 with an
    end correction of order h^2 times the local curvature.
    """
    return lifted_inner(apply_generator(x, domain_tol), x)


def generator_inverse_form(x: LiftedState) -> float:
    """Pairing of the inverse-generator image with the state; nonpositive."""
    return lifted_inner(apply_generator_inverse(x), x)


def inverse_generator_matrix(grid: SegmentGrid, n: int) -> np.ndarray:
    """Flat matrix of the inverse generator on [head; tail nodes]."""
    m, h = grid.m, grid.h
    # cumulative trapezoid coefficients: row j integrates from node j to 0
    C = np.zeros((m + 1, m + 1))
    for j in range(m):
        C[j, j] = h / 2.0
        C[j, m] = h / 2.0
        C[j, j + 1 : m] = h
    # one scalar block per component; 0.0 - C keeps the zeros positive
    S = np.zeros((m + 2, m + 2))
    S[:, 0] = -1.0
    S[1:, 1:] = 0.0 - C
    return np.kron(S, np.eye(n))


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Dense flat operator with its grid, dimension, and self-adjointness flag."""

    matrix: np.ndarray
    grid: SegmentGrid
    n: int
    g_selfadjoint: bool = False

    def check_g_selfadjoint(self, tol: float = 1e-10) -> bool:
        w = weight_vector(self.grid, self.n)
        gm = w[:, None] * self.matrix
        scale = np.max(np.abs(gm))
        return bool(np.max(np.abs(gm - gm.T)) <= tol * max(scale, 1.0))

    def head_block(self) -> np.ndarray:
        return self.matrix[: self.n, : self.n]


def assemble_gram_operator(grid: SegmentGrid, n: int) -> OperatorMatrix:
    """Weighted Gram operator of the inverse generator: (adjoint of M) M.

    The adjoint is taken in the quadrature inner product, so the quadratic
    form of the result equals the squared weak norm exactly.
    """
    M = inverse_generator_matrix(grid, n)
    w = weight_vector(grid, n)
    B = (M.T * w[None, :]) @ M / w[:, None]
    op = OperatorMatrix(B, grid, n, g_selfadjoint=True)
    if not op.check_g_selfadjoint():
        raise NumericalError("gram operator lost weighted self-adjointness")
    return op


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Weighted-orthonormal eigenpairs of the Gram operator, descending.

    eigenvalues are strictly positive; vectors holds the eigenvectors as
    columns; scaled_vectors is the weak-norm orthonormal rescaling. The n
    exact-zero ghost modes of the flat discretization (alternating tail
    vectors annihilated by the trapezoid rule) are excluded and kept in
    ghost_vectors for diagnostics.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    scaled_vectors: np.ndarray
    ghost_vectors: np.ndarray
    grid: SegmentGrid
    n: int

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def operator_norm(self) -> float:
        """Largest eigenvalue = squared operator norm of the inverse generator."""
        return float(self.eigenvalues[0])

    def mode(self, i: int) -> LiftedState:
        return unflatten(self.vectors[:, i], self.grid, self.n)

    def projection_matrix(self, n_modes: int, which: str = "P") -> np.ndarray:
        if not 1 <= n_modes <= self.dim:
            raise ValueError(f"mode count must be in [1, {self.dim}], got {n_modes}")
        F = self.vectors[:, :n_modes]
        w = weight_vector(self.grid, self.n)
        P = F @ (w[:, None] * F).T
        if which == "P":
            return P
        if which == "Q":
            return np.eye(P.shape[0]) - P
        raise ValueError(f"which must be 'P' or 'Q', got {which!r}")

    def ghost_component(self, x: LiftedState) -> np.ndarray:
        """Coefficients of x on the excluded ghost modes."""
        w = weight_vector(self.grid, self.n)
        return (w[:, None] * self.ghost_vectors).T @ flatten(x)


def spectral_decomposition(op: OperatorMatrix) -> SpectralDecomposition:
    """Eigendecomposition in the weighted metric via symmetric rescaling."""
    w = weight_vector(op.grid, op.n)
    s = np.sqrt(w)
    S = (s[:, None] * op.matrix) / s[None, :]
    asym = np.max(np.abs(S - S.T))
    if asym > 1e-10 * max(np.max(np.abs(S)), 1.0):
        raise NumericalError(f"symmetrization failure: asymmetry {asym:g}")
    S = (S + S.T) / 2.0
    lam, V = np.linalg.eigh(S)
    order = np.argsort(lam)[::-1]
    lam = lam[order]
    V = V[:, order]
    F = V / s[:, None]
    keep = lam > GHOST_RELATIVE_TOL * lam[0]
    n_ghost = int(np.sum(~keep))
    if n_ghost != op.n:
        raise NumericalError(
            f"expected exactly {op.n} ghost modes, found {n_ghost}; "
            "grid is outside the validated desk scale"
        )
    E = F[:, keep] / np.sqrt(lam[keep])[None, :]
    return SpectralDecomposition(
        eigenvalues=lam[keep],
        vectors=F[:, keep],
        scaled_vectors=E,
        ghost_vectors=F[:, ~keep],
        grid=op.grid,
        n=op.n,
    )


def g_operator_norm(mat: np.ndarray, grid: SegmentGrid, n: int) -> float:
    """Operator norm in the weighted metric (spectral norm after rescaling)."""
    s = np.sqrt(weight_vector(grid, n))
    return float(np.linalg.norm((s[:, None] * mat) / s[None, :], 2))


def lifted_norm_sq(x: LiftedState) -> float:
    return lifted_inner(x, x)


def random_smooth_state(grid: SegmentGrid, n: int, rng: np.random.Generator,
                        domain: bool = True) -> LiftedState:
    """Random state with a smooth tail: low-order polynomial plus two trig modes.

    With domain=True the head is set to the tail value at 0, so the state
    lies in the generator domain.
    """
    xi = grid.nodes / grid.d
    basis = np.stack([
        np.ones_like(xi), xi, xi ** 2, xi ** 3,
        np.cos(np.pi * xi), np.sin(np.pi * xi),
    ])
    coeffs = rng.normal(size=(n, basis.shape[0]))
    tail = (coeffs @ basis).T
    head = tail[-1].copy() if domain else rng.normal(size=n)
    return LiftedState(head, Segment(grid, tail))
