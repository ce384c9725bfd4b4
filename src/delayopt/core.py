"""Grids, history segments, lifted states, delay kernels, and problem data.

Everything downstream works on one vocabulary: a uniform grid on [-d, 0]
with trapezoid quadrature weights, vector-valued segments tabulated on that
grid, lifted states (head value, history segment), and kernels acting on
segments through the same quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np


class GridMismatchError(ValueError):
    """Raised when two objects do not share a grid or dimension."""


class ValidationError(ValueError):
    """Raised when problem data violates a declared invariant."""


class DomainError(ValueError):
    """Raised when a state is outside an operator's domain."""


class NumericalError(RuntimeError):
    """Raised on NaN detection, non-convergence, or a failed factorization."""


@dataclass(frozen=True)
class SegmentGrid:
    """Uniform grid on [-d, 0] with m intervals and trapezoid weights."""

    d: float
    m: int

    def __post_init__(self):
        if not self.d > 0:
            raise ValidationError(f"delay horizon must be positive, got d={self.d}")
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
        return self.m == other.m and np.isclose(self.d, other.d, rtol=0, atol=1e-12)


def _check_same_grid(a: SegmentGrid, b: SegmentGrid, what: str) -> None:
    if not a.matches(b):
        raise GridMismatchError(
            f"{what}: grids differ (d={a.d}, m={a.m}) vs (d={b.d}, m={b.m})"
        )


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Segment:
    """Vector-valued function on [-d, 0], tabulated at grid nodes.

    values has shape (m+1, n) and row j holds the value at node xi_j.
    """

    grid: SegmentGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.atleast_1d(np.asarray(self.values, dtype=float))
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.shape[0] != self.grid.m + 1:
            raise ValidationError(
                f"segment needs {self.grid.m + 1} node values, got {vals.shape[0]}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValidationError("segment values must be finite")
        object.__setattr__(self, "values", _freeze(vals))

    @property
    def n(self) -> int:
        return self.values.shape[1]

    @classmethod
    def constant(cls, grid: SegmentGrid, value) -> "Segment":
        v = np.atleast_1d(np.asarray(value, dtype=float))
        return cls(grid, np.tile(v, (grid.m + 1, 1)))


@dataclass(frozen=True, eq=False)
class LiftedState:
    """Element (head, tail) of R^n x L2([-d,0]; R^n)."""

    head: np.ndarray
    tail: Segment

    def __post_init__(self):
        head = np.atleast_1d(np.asarray(self.head, dtype=float))
        if head.ndim != 1:
            raise ValidationError("head must be a vector")
        if head.shape[0] != self.tail.n:
            raise GridMismatchError(
                f"head dimension {head.shape[0]} != tail dimension {self.tail.n}"
            )
        if not np.all(np.isfinite(head)):
            raise ValidationError("head must be finite")
        object.__setattr__(self, "head", _freeze(head))

    @property
    def n(self) -> int:
        return self.head.shape[0]

    @property
    def grid(self) -> SegmentGrid:
        return self.tail.grid

    def in_generator_domain(self, tol: float = 1e-9) -> bool:
        """Discrete domain predicate: tail value at 0 equals the head."""
        return bool(np.max(np.abs(self.tail.values[-1] - self.head)) <= tol)

    def __add__(self, other: "LiftedState") -> "LiftedState":
        _check_same_grid(self.grid, other.grid, "state addition")
        return LiftedState(self.head + other.head,
                           Segment(self.grid, self.tail.values + other.tail.values))

    def __sub__(self, other: "LiftedState") -> "LiftedState":
        _check_same_grid(self.grid, other.grid, "state subtraction")
        return LiftedState(self.head - other.head,
                           Segment(self.grid, self.tail.values - other.tail.values))

    def __mul__(self, scalar: float) -> "LiftedState":
        return LiftedState(self.head * scalar,
                           Segment(self.grid, self.tail.values * scalar))

    __rmul__ = __mul__


def lifted_inner(x: LiftedState, y: LiftedState) -> float:
    """Inner product: head dot product plus quadrature pairing of the tails."""
    _check_same_grid(x.grid, y.grid, "lifted_inner")
    if x.n != y.n:
        raise GridMismatchError(f"dimension mismatch {x.n} != {y.n}")
    w = x.grid.weights
    return float(x.head @ y.head + np.sum(w[:, None] * x.tail.values * y.tail.values))


def lifted_norm(x: LiftedState) -> float:
    return float(np.sqrt(lifted_inner(x, x)))


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
        if vals.ndim == 1:
            vals = vals[:, None, None]
        elif vals.ndim == 2:
            vals = vals[:, None, :]
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
    endpoint_magnitude: float
    seminorm: float


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
    return KernelReport(ok=not failures, failures=tuple(failures),
                        endpoint_magnitude=endpoint, seminorm=semi)


def kernel_convolve(a: Kernel, s: Segment) -> np.ndarray:
    """Quadrature of a(xi) s(xi) over [-d, 0]; returns a vector of length h."""
    _check_same_grid(a.grid, s.grid, "kernel_convolve")
    if a.n != s.n:
        raise GridMismatchError(f"kernel acts on dimension {a.n}, segment has {s.n}")
    w = a.grid.weights
    return np.einsum("j,jhn,jn->h", w, a.values, s.values)


def interp_columns(x, xp: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """np.interp(x, xp, column) for every column of fp, stacked on the last axis."""
    return np.stack([np.interp(x, xp, fp[:, i]) for i in range(fp.shape[1])], axis=-1)


def resample_segment(s: Segment, new_grid: SegmentGrid) -> Segment:
    """Piecewise-linear resampling onto another grid with the same horizon."""
    if not np.isclose(s.grid.d, new_grid.d, rtol=0, atol=1e-12):
        raise GridMismatchError(
            f"resample requires equal horizons, got {s.grid.d} and {new_grid.d}"
        )
    if new_grid.m == s.grid.m:
        return Segment(new_grid, s.values)
    return Segment(new_grid, interp_columns(new_grid.nodes, s.grid.nodes, s.values))


def resample_kernel(a: Kernel, new_grid: SegmentGrid) -> Kernel:
    """Resample a kernel table; an analytic preset re-tabulates itself exactly."""
    if a.preset is not None:
        return a.preset(new_grid)
    if not np.isclose(a.grid.d, new_grid.d, rtol=0, atol=1e-12):
        raise GridMismatchError("resample requires equal horizons")
    if new_grid.m == a.grid.m:
        return Kernel(new_grid, a.values)
    out = interp_columns(new_grid.nodes, a.grid.nodes, a.values.reshape(a.grid.m + 1, -1))
    return Kernel(new_grid, out.reshape(new_grid.m + 1, a.h_dim, a.n))


def weighted_kernels(spec: ProblemSpec, grid: SegmentGrid) -> tuple[np.ndarray, np.ndarray]:
    """Drift and noise kernel tables on grid, each node scaled by its quadrature
    weight, as _delay_integrals takes them."""
    w = grid.weights[:, None, None]
    return (w * resample_kernel(spec.kernel_drift, grid).values,
            w * resample_kernel(spec.kernel_noise, grid).values)


def _delay_integrals(wk: tuple[np.ndarray, np.ndarray],
                     window: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drift and noise delay integrals of windows (..., J, n), oldest node
    first, on the J-node grid of the weighted tables wk."""
    return tuple(np.einsum("jhn,...jn->...h", table, window) for table in wk)


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
    cost_is_lipschitz: bool = False
    params: object = None
    # names of the head components (y0, y1, ... when not given) and the
    # initial state as a head vector over a constant history value
    head_names: tuple[str, ...] = ()
    initial_head: tuple[float, ...] | None = None
    initial_history: tuple[float, ...] | None = None

    def __post_init__(self):
        cs = np.atleast_2d(np.asarray(self.control_set, dtype=float))
        if cs.shape[0] == 1 and cs.shape[1] > 1 and self.p == 1:
            cs = cs.T
        object.__setattr__(self, "control_set", _freeze(cs))
        if not self.head_names:
            object.__setattr__(self, "head_names", tuple(f"y{i}" for i in range(self.n)))

    @property
    def d(self) -> float:
        return self.grid.d

    def validate(self) -> None:
        if not self.rho > 0:
            raise ValidationError(f"discount must be positive, got {self.rho}")
        if self.control_set.shape[0] == 0:
            raise ValidationError("control set must be nonempty")
        if self.control_set.shape[1] != self.p:
            raise ValidationError(
                f"control points have dimension {self.control_set.shape[1]}, "
                f"declared p={self.p}"
            )
        for name, k in (("drift kernel", self.kernel_drift),
                        ("noise kernel", self.kernel_noise)):
            rep = validate_kernel(k)
            if not rep.ok:
                raise ValidationError(f"{name} rejected: {'; '.join(rep.failures)}")
            if k.n != self.n:
                raise ValidationError(f"{name} dimension {k.n} != state dimension {self.n}")

    def delay_integrals(self, tail: Segment) -> tuple[np.ndarray, np.ndarray]:
        """Both kernel integrals of a history segment."""
        return kernel_convolve(self.kernel_drift, tail), kernel_convolve(self.kernel_noise, tail)
