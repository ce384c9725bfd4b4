"""Grids, lifted states, delay kernels, and problem data.

Everything downstream works on one vocabulary: a uniform grid on [-d, 0]
with trapezoid quadrature weights, lifted states (a head vector and a tail
(m+1, n) tabulated at the grid nodes), and kernels acting on tails through
the same quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np


class ValidationError(ValueError):
    """Raised when problem data violates a declared invariant."""


class GridMismatchError(ValidationError):
    """Raised when two objects do not share a grid or dimension."""


class DomainError(ValidationError):
    """Raised when a state is outside an operator's domain."""


class NumericalError(RuntimeError):
    """Raised on NaN detection, non-convergence, or a failed factorization."""


@dataclass(frozen=True)
class SegmentGrid:
    """Uniform grid on [-d, 0] with m intervals and trapezoid weights."""

    d: float
    m: int

    def __post_init__(self):
        if not (np.isfinite(self.d) and self.d > 0):
            raise ValidationError(f"delay horizon must be finite and positive, got d={self.d}")
        if self.m < 1:
            raise ValidationError(f"interval count must be >= 1, got m={self.m}")

    @property
    def h(self) -> float:
        return self.d / self.m

    @cached_property
    def nodes(self) -> np.ndarray:
        nodes = -self.d + self.h * np.arange(self.m + 1)
        nodes[-1] = 0.0
        nodes.setflags(write=False)
        return nodes

    @cached_property
    def weights(self) -> np.ndarray:
        w = np.full(self.m + 1, self.h)
        w[0] = w[-1] = self.h / 2.0
        w.setflags(write=False)
        return w

    def matches(self, other: "SegmentGrid") -> bool:
        return self.m == other.m and abs(self.d - other.d) <= 1e-12


def _check_same_grid(a: SegmentGrid, b: SegmentGrid, what: str) -> None:
    if not a.matches(b):
        raise GridMismatchError(
            f"{what}: grids differ (d={a.d}, m={a.m}) vs (d={b.d}, m={b.m})"
        )


def _check_same_horizon(a: SegmentGrid, b: SegmentGrid) -> None:
    """Resampling onto another grid keeps the horizon: refuse grids whose d differ."""
    if not np.isclose(a.d, b.d, rtol=0, atol=1e-12):
        raise GridMismatchError(f"resample requires equal horizons, got {a.d} and {b.d}")


def _freeze(arr: np.ndarray, dtype=float) -> np.ndarray:
    """A read-only copy of arr as dtype (None keeps arr's own)."""
    out = np.array(arr, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class LiftedState:
    """Element (head, tail) of R^n x L2([-d,0]; R^n), validated: the initial
    state the simulators take, laid out as one sample of a LiftedBatch, the
    head (n,) and the tail (m+1, n) with row j at node xi_j. The operators
    take a LiftedBatch."""

    grid: SegmentGrid
    head: np.ndarray
    tail: np.ndarray

    def __post_init__(self):
        head = np.atleast_1d(np.asarray(self.head, dtype=float))
        tail = np.asarray(self.tail, dtype=float)
        if head.ndim != 1 or tail.ndim != 2 or tail.shape[0] != self.grid.m + 1:
            raise ValidationError(f"a state is a head (n,) and a tail ({self.grid.m + 1}, n), "
                                  f"got {head.shape} and {tail.shape}")
        if head.shape[0] != tail.shape[1]:
            raise GridMismatchError(
                f"head dimension {head.shape[0]} != tail dimension {tail.shape[1]}")
        if not (np.all(np.isfinite(head)) and np.all(np.isfinite(tail))):
            raise ValidationError("head and tail must be finite")
        object.__setattr__(self, "head", _freeze(head))
        object.__setattr__(self, "tail", _freeze(tail))

    def resampled(self, grid: SegmentGrid) -> "LiftedState":
        """The state with its tail resampled piecewise linearly onto a grid
        with the same horizon."""
        _check_same_horizon(self.grid, grid)
        return LiftedState(grid, self.head,
                           interp_columns(grid.nodes, self.grid.nodes, self.tail))


@dataclass(frozen=True, eq=False)
class LiftedBatch:
    """S elements of R^n x L2([-d,0]; R^n) on one grid: heads (S, n) and
    tails (S, m+1, n), row j of a tail at node xi_j.

    The arrays are held as given, neither copied nor checked for finiteness,
    so a batch costs no pass over its samples. The operators, forms and
    norms take a batch and give a batch or one value per sample; a single
    state is a batch of one.
    """

    grid: SegmentGrid
    heads: np.ndarray
    tails: np.ndarray

    def __post_init__(self):
        s, n = self.heads.shape
        if self.tails.shape != (s, self.grid.m + 1, n):
            raise GridMismatchError(
                f"tails of shape {self.tails.shape} do not fit {s} heads of dimension {n} "
                f"on {self.grid.m + 1} nodes"
            )

    @property
    def n(self) -> int:
        return self.heads.shape[1]

    def __sub__(self, other: "LiftedBatch") -> "LiftedBatch":
        _check_same_grid(self.grid, other.grid, "batch subtraction")
        return LiftedBatch(self.grid, self.heads - other.heads, self.tails - other.tails)


def _dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row dot products of (S, n) arrays: each row's products summed in
    index order by elementwise arithmetic, with no BLAS call, so a row is
    bitwise its one-row batch on every BLAS kernel."""
    out = a[:, 0] * b[:, 0]
    for k in range(1, a.shape[1]):
        out = out + a[:, k] * b[:, k]
    return out


def lifted_inner(x: LiftedBatch, y: LiftedBatch) -> np.ndarray:
    """Inner product: head dot product plus quadrature pairing of the tails,
    one value per sample (shape (S,)).

    The sums follow memory order, so a sample gets the value of its
    one-sample batch bitwise when its tail keeps that batch's memory order.
    """
    _check_same_grid(x.grid, y.grid, "lifted_inner")
    if x.n != y.n:
        raise GridMismatchError(f"dimension mismatch {x.n} != {y.n}")
    w = x.grid.weights
    return _dot_rows(x.heads, y.heads) + np.sum(w[:, None] * x.tails * y.tails, axis=(1, 2))


def lifted_norm(x: LiftedBatch) -> np.ndarray:
    return np.sqrt(lifted_inner(x, x))


@dataclass(frozen=True, eq=False)
class Kernel:
    """Matrix-valued delay kernel tabulated at grid nodes, shape (m+1, h, n).

    Row 0 (the node at -d) must vanish; the discrete first-derivative
    seminorm must be finite. preset, when given, tabulates the same analytic
    kernel on any grid.
    """

    grid: SegmentGrid
    values: np.ndarray
    preset: Callable[[SegmentGrid], "Kernel"] | None = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 3 or vals.shape[0] != self.grid.m + 1:
            raise ValidationError(
                f"kernel table must have shape (m+1, h, n), got {vals.shape}"
            )
        object.__setattr__(self, "values", _freeze(vals))

    @property
    def h_dim(self) -> int:
        return self.values.shape[1]

    @property
    def n(self) -> int:
        return self.values.shape[2]

    def seminorm(self) -> float:
        """Discrete first-derivative seminorm: quadrature norm of forward differences."""
        dv = np.diff(self.values, axis=0) / self.grid.h
        return float(np.sqrt(np.sum(dv * dv) * self.grid.h))


@dataclass(frozen=True)
class KernelReport:
    ok: bool
    failures: tuple[str, ...]


def validate_kernel(a: Kernel) -> KernelReport:
    """Accept iff the kernel vanishes at -d and its derivative seminorm is finite.

    Returns a structured report; never raises.
    """
    failures = []
    endpoint = float(np.max(np.abs(a.values[0])))
    if endpoint != 0.0:
        failures.append(f"endpoint: kernel must vanish at -d, |a(-d)| = {endpoint:g}")
    semi = a.seminorm()
    if not np.isfinite(semi):
        failures.append(f"seminorm: derivative seminorm is not finite ({semi})")
    return KernelReport(ok=not failures, failures=tuple(failures))


def kernel_convolve(a: Kernel, tail: np.ndarray) -> np.ndarray:
    """Quadrature of a(xi) tail(xi) over [-d, 0] for a tail (m+1, n) on the
    kernel's grid; returns a vector of length h."""
    if np.shape(tail) != (a.grid.m + 1, a.n):
        raise GridMismatchError(
            f"kernel acts on tails of shape ({a.grid.m + 1}, {a.n}), got {np.shape(tail)}"
        )
    return np.einsum("j,jhn,jn->h", a.grid.weights, a.values, tail)


def interp_columns(x, xp: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """np.interp(x, xp, column) for every column of fp, stacked on the last axis."""
    out = np.empty(np.shape(x) + fp.shape[1:])
    for i in range(fp.shape[1]):
        out[..., i] = np.interp(x, xp, fp[:, i])
    return out


def resample_kernel(a: Kernel, new_grid: SegmentGrid) -> Kernel:
    """Resample a kernel table; an analytic preset re-tabulates itself exactly."""
    if a.preset is not None:
        return a.preset(new_grid)
    _check_same_horizon(a.grid, new_grid)
    out = interp_columns(new_grid.nodes, a.grid.nodes, a.values.reshape(a.grid.m + 1, -1))
    return Kernel(new_grid, out.reshape(new_grid.m + 1, a.h_dim, a.n))


def weighted_kernels(spec: ProblemSpec, grid: SegmentGrid) -> tuple[np.ndarray, np.ndarray]:
    """Drift and noise kernel tables on grid, each node scaled by its quadrature
    weight, as _delay_integrals takes them. An all-zero table keeps none of
    its nodes (shape (0, h, n)), so its integrals cost no contraction."""
    w = grid.weights[:, None, None]
    tables = (w * resample_kernel(spec.kernel_drift, grid).values,
              w * resample_kernel(spec.kernel_noise, grid).values)
    return tuple(table if table.any() else table[:0] for table in tables)


def _delay_integrals(wk: tuple[np.ndarray, np.ndarray],
                     window: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drift and noise delay integrals of windows (..., J, n), oldest node
    first, on the J-node grid of the weighted tables wk; zeros for a table
    without nodes."""
    return tuple(np.einsum("jhn,...jn->...h", table, window) if len(table)
                 else np.zeros(window.shape[:-2] + table.shape[1:2]) for table in wk)


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """Complete problem datum for the delayed control problem.

    drift, noise and cost are batched callables:
        drift(y, z, u) -> (..., n)      for y (..., n), z (..., h), u (..., p)
        noise(y, z, u) -> (..., n, q)
        cost(y, u)     -> (...,)
    The declared constants are the bounds the model constructors certify on
    a stated audit radius (see models.audit_constants). params is the
    parameter object the problem was built from (models.MertonParams,
    AdvertisingParams or AffineTestParams), or None for a problem assembled
    by hand. The delay horizon d is the segment grid's.

    A problem is valid by construction (dataclasses.replace included): a
    finite positive discount, finite nonnegative declared constants, an
    ellipticity floor that is None or finite and positive, a nonempty
    (points, p) control set of finite points, kernels on dimension n that pass
    validate_kernel, n head names, and an initial head and history value
    that are each None or n numbers. Anything else raises ValidationError.
    """

    n: int
    q: int
    p: int
    grid: SegmentGrid
    kernel_drift: Kernel
    kernel_noise: Kernel
    drift: Callable
    noise: Callable
    cost: Callable
    rho: float
    control_set: np.ndarray
    growth_const: float
    lipschitz_const: float
    cost_growth_const: float
    cost_growth_exponent: float
    ellipticity_floor: float | None = None
    params: object = None
    # names of the head components (y0, y1, ... when not given) and the
    # initial state as a head vector over a constant history value
    head_names: tuple[str, ...] = ()
    initial_head: tuple[float, ...] | None = None
    initial_history: tuple[float, ...] | None = None

    def __post_init__(self):
        cs = _freeze(np.atleast_2d(np.asarray(self.control_set, dtype=float)))
        object.__setattr__(self, "control_set", cs)
        if not self.head_names:
            object.__setattr__(self, "head_names", tuple(f"y{i}" for i in range(self.n)))
        if len(self.head_names) != self.n:
            raise ValidationError(f"{len(self.head_names)} head names for state dimension "
                                  f"{self.n}")
        for name in ("initial_head", "initial_history"):
            if (value := getattr(self, name)) is None:
                continue
            try:
                arr = np.asarray(value)
                ok = arr.dtype.kind in "biuf" and arr.shape == (self.n,)
            except ValueError:  # a ragged sequence
                ok = False
            if not ok:
                raise ValidationError(f"{name} must be {self.n} numbers, got {value!r}")
        if not 0 < self.rho < np.inf:
            raise ValidationError(f"discount must be finite and positive, got {self.rho}")
        for name in ("growth_const", "lipschitz_const", "cost_growth_const",
                     "cost_growth_exponent"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValidationError(f"{name} must be finite and nonnegative, "
                                      f"got {getattr(self, name)}")
        floor = self.ellipticity_floor
        if floor is not None and not 0 < floor < np.inf:
            raise ValidationError(f"ellipticity floor must be None or finite and positive, "
                                  f"got {floor}")
        if cs.shape[0] == 0:
            raise ValidationError("control set must be nonempty")
        if not np.all(np.isfinite(cs)):
            raise ValidationError("control points must be finite")
        if cs.shape[1] != self.p:
            raise ValidationError(f"control points have dimension {cs.shape[1]}, "
                                  f"declared p={self.p}")
        for name, k in (("drift kernel", self.kernel_drift),
                        ("noise kernel", self.kernel_noise)):
            rep = validate_kernel(k)
            if not rep.ok:
                raise ValidationError(f"{name} rejected: {'; '.join(rep.failures)}")
            if k.n != self.n:
                raise ValidationError(f"{name} dimension {k.n} != state dimension {self.n}")

    @property
    def d(self) -> float:
        return self.grid.d
