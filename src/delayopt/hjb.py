"""Hamiltonian, discount arithmetic, lag-chain dynamic programming, and probes.

The delay problem is reduced to a finite-dimensional Markov chain by keeping
a shift register of past node values with lag step Delta = d / m_lag. The
register head is advanced by Euler with the kernel quadrature evaluated on
the register, then the register shifts. Modified policy iteration on a
tensor grid (full Bellman sweeps that fix the greedy policy, each followed
by a BiCGSTAB solve for that policy's value) solves the reduced problem and
stops once the a-posteriori bound on the value error (bellman_bound: the
residual |Tv - v|_inf and one sweep's rounding, over 1 - g with the step
discount g) is within tol. The dynamic-programming gap, the reduced
equation residual, the growth and continuity probes, and candidate
feedback extraction all operate on that fixed point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from .core import (
    DomainError,
    LiftedBatch,
    LiftedState,
    NumericalError,
    ProblemSpec,
    SegmentGrid,
    ValidationError,
    _delay_integrals,
    _dot_rows,
    _freeze,
    lifted_norm,
    weighted_kernels,
)
from .operators import minus_one_norm
from .sdde import (OpenLoopControl, _euler_head, _mean_stderr, _start_window, _steps_of,
                   batch_increments, mc_cost, simulate_sdde)


# ---------------------------------------------------------------------------
# discount and growth arithmetic


def discount_floor(c: float, m: float) -> float:
    """Discount admissibility floor as a function of the coefficient constant
    and the cost growth exponent: 0 for m = 0, c m + c^2 m / 2 for m < 2,
    c m + c^2 m (m - 1) / 2 beyond."""
    if c < 0 or m < 0:
        raise ValidationError(f"constants must be nonnegative, got c={c}, m={m}")
    if m == 0:
        return 0.0
    if m < 2:
        return c * m + 0.5 * c * c * m
    return c * m + 0.5 * c * c * m * (m - 1.0)


def max_growth_exponent(rho: float, c: float) -> tuple[float, str]:
    """Largest polynomial growth exponent compatible with the discount.

    Below the two-case switch the bound is rho / (c + c^2/2); above it, the
    positive root of c k + c^2 k (k - 1) / 2 = rho. The bound is exclusive.
    At c = 0 every exponent is admissible: (inf, "quadratic-bound"), the
    limit as c -> 0+.
    """
    # written so that NaN fails it
    if not (rho > 0 and c >= 0):
        raise ValidationError(f"need rho > 0 and c >= 0, got rho={rho}, c={c}")
    if c == 0:
        return math.inf, "quadratic-bound"
    ratio = rho / (c + 0.5 * c * c)
    if ratio <= 2.0:
        return ratio, "linear-bound"
    half = c - 0.5 * c * c
    k = (-half + math.sqrt(half * half + 2.0 * c * c * rho)) / (c * c)
    return k, "quadratic-bound"


def lipschitz_discount_threshold(c: float, gram_norm: float) -> float:
    """Sufficient discount for a Lipschitz value: c + c^2 |B| / 2."""
    if c < 0 or gram_norm < 0:
        raise ValidationError("constants must be nonnegative")
    return c + 0.5 * c * c * gram_norm


def _tail_gap(spec: ProblemSpec) -> float:
    """Decay rate of the discounted moment bound: the discount minus the
    rate midway between it and its admissibility floor, which it must clear."""
    rho0 = discount_floor(spec.growth_const, spec.cost_growth_exponent)
    if spec.rho <= rho0:
        raise ValidationError(
            f"discount {spec.rho} does not exceed the admissibility floor {rho0:g}"
        )
    lam = (spec.rho + rho0) / 2.0
    return spec.rho - lam


def truncation_tail_bound(spec: ProblemSpec, x_norm: float, T: float) -> float:
    """Bound on the discounted cost beyond T: (1 + |x0|^m) / gap * exp(-gap T).

    An estimate: the moment-bound prefactor has no closed form and is taken
    to be 1.
    """
    gap = _tail_gap(spec)
    return (1.0 + x_norm ** spec.cost_growth_exponent) / gap * math.exp(-gap * T)


def truncation_horizon(spec: ProblemSpec, x_norm: float, tol: float) -> float:
    """Horizon beyond which the discounted tail is below tol: the T at which
    truncation_tail_bound equals tol, 0 when it is below tol already."""
    bound0 = truncation_tail_bound(spec, x_norm, 0.0)
    if bound0 <= tol:
        return 0.0
    return math.log(bound0 / tol) / _tail_gap(spec)


# ---------------------------------------------------------------------------
# Hamiltonian


def _best_score(spec: ProblemSpec, y: np.ndarray, z1: np.ndarray, z2: np.ndarray,
                p0: np.ndarray, z00: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced Hamiltonian at each of k points, and the index of its best
    control: -y . p0 plus the best control score
    -drift . p0 - Tr(noise noise^T z00)/2 - cost, ties broken to the lowest
    control index.

    y, z1, z2, p0 hold one row per point (head, delay integrals, head
    gradient) and z00 one symmetric (n, n) head Hessian block per point.
    Drift, noise and cost are evaluated once over control-major rows: row
    iu * k + i is control iu at point i.
    """
    k, n_u = y.shape[0], spec.control_set.shape[0]
    u = np.repeat(spec.control_set, k, axis=0)
    ys = np.tile(y, (n_u, 1))
    b = np.asarray(spec.drift(ys, np.tile(z1, (n_u, 1)), u)).reshape(n_u, k, spec.n)
    sig = np.asarray(spec.noise(ys, np.tile(z2, (n_u, 1)), u)).reshape(n_u, k, spec.n, -1)
    l = np.asarray(spec.cost(ys, u)).reshape(n_u, k)
    trace = np.einsum("uknq,ukmq,knm->uk", sig, sig, z00)
    scores = -np.einsum("ukn,kn->uk", b, p0) - 0.5 * trace - l
    best = np.argmax(scores, axis=0)
    return -np.einsum("kn,kn->k", y, p0) + scores[best, np.arange(k)], best


# ---------------------------------------------------------------------------
# lag chain


@dataclass(frozen=True, eq=False)
class LagChainSpec:
    """Shift-register Markov approximation with lag step delta = d / m_lag.

    A register is the history window of sdde's Euler scheme at step delta,
    on the lag grid coarse_grid: shape (..., m_lag + 1, n), oldest node
    first, so the last row holds the head y(t). One chain step is that
    scheme's step: an Euler head update (sdde._euler_head, the kernel
    quadrature over the register) and a shift, with a standard normal draw
    zeta as the increment zeta * sqrt(delta). Per-step discount is
    exp(-rho delta). A flat state (grid axes, value_policy.csv columns,
    policy.json axes) lists the nodes head first, [y(t), y(t - delta), ...,
    y(t - d)]; flatten and unflatten alone know that order.
    """

    spec: ProblemSpec
    coarse_grid: SegmentGrid
    wk: tuple[np.ndarray, np.ndarray]  # weighted drift and noise tables on coarse_grid

    @property
    def m_lag(self) -> int:
        return self.coarse_grid.m

    @property
    def delta(self) -> float:
        return self.coarse_grid.h

    @property
    def state_dim(self) -> int:
        return self.spec.n * (self.m_lag + 1)

    @property
    def step_discount(self) -> float:
        return math.exp(-self.spec.rho * self.delta)

    def axis_names(self) -> list[str]:
        heads = self.spec.head_names
        names = list(heads)
        for j in range(1, self.m_lag + 1):
            names.extend(f"{h}_lag{j}" for h in heads)
        return names

    def step(self, reg: np.ndarray, u: np.ndarray, zeta: np.ndarray) -> np.ndarray:
        """Advance registers (P, m_lag + 1, n) one lag step; zeta (P, q) is a
        standard normal draw. G stacked draws, zeta (G, P, q), give the G
        next registers (G, P, m_lag + 1, n), each bitwise its own draw's."""
        y_new = _euler_head(self.spec, self.wk, reg[:, -1, :], reg, u,
                            zeta * math.sqrt(self.delta), self.delta)
        nxt = np.empty(y_new.shape[:-1] + reg.shape[-2:])
        nxt[..., :-1, :] = reg[:, 1:, :]
        nxt[..., -1, :] = y_new
        return nxt

    def flatten(self, reg: np.ndarray) -> np.ndarray:
        """Registers (..., m_lag + 1, n) to flat states, head first."""
        return reg.take(np.arange(self.m_lag, -1, -1), axis=-2).reshape(
            reg.shape[:-2] + (self.state_dim,))

    def unflatten(self, flat: np.ndarray) -> np.ndarray:
        """Flat states to registers: a view, oldest node first."""
        return flat.reshape(flat.shape[:-1] + (self.m_lag + 1, self.spec.n))[..., ::-1, :]


def reduce_to_lag_chain(spec: ProblemSpec, m_lag: int) -> LagChainSpec:
    """Resample the kernels onto the lag grid and package the reduced chain."""
    if m_lag < 1:
        raise ValidationError(f"lag count must be >= 1, got {m_lag}")
    coarse = SegmentGrid(spec.d, m_lag)
    return LagChainSpec(spec=spec, coarse_grid=coarse, wk=weighted_kernels(spec, coarse))


# ---------------------------------------------------------------------------
# tensor fields


def _interp_plan(axes: tuple[np.ndarray, ...], pts: np.ndarray):
    """Multilinear interpolation plan: corner flat indices and weights, one
    row per point, and the number of points clamped onto the grid.

    Axes with a single node are collapsed: they contribute index 0. So is a
    bracketed axis on which every point sits exactly on a node (fraction 0
    or 1, by float equality), as a lag register does when it copies an axis
    with the same nodes: its node i0 + (fraction == 1) goes into every
    corner's index with weight 1. A row holds 2^k corners, k the bracketed
    axes that are not collapsed. A point counts as clamped once when it leaves
    any axis with more than one node; a NaN coordinate leaves no axis.
    """
    n_pts = pts.shape[0]
    strides = np.cumprod([1] + [len(ax) for ax in axes[:0:-1]], dtype=np.int64)[::-1]
    base = np.zeros(n_pts, dtype=np.int64)
    brackets, clamped = [], np.zeros(n_pts, dtype=bool)
    for a, ax in enumerate(axes):
        if len(ax) == 1:
            continue
        xc = np.minimum(ax[-1], np.maximum(ax[0], pts[:, a]))  # np.clip, bound first: ties keep x
        # xc >= ax[0] or NaN, which sorts last, so i0 needs no lower clamp
        i0 = np.minimum(np.searchsorted(ax, xc, side="right") - 1, len(ax) - 2)
        clamped |= (pts[:, a] < ax[0]) | (pts[:, a] > ax[-1])
        th = (xc - ax[i0]) / (ax[i0 + 1] - ax[i0])
        upper = th == 1.0
        if np.all(upper | (th == 0.0)):
            base += (i0 + upper) * strides[a]
        else:
            brackets.append((a, i0, th))
    n_corners = 2 ** len(brackets)
    idx = np.empty((n_pts, n_corners), dtype=np.int64)
    wts = np.empty((n_pts, n_corners))
    for c, bits in enumerate(itertools.product((0, 1), repeat=len(brackets))):
        flat = base.copy()
        weight = np.ones(n_pts)
        for (a, i0, th), bit in zip(brackets, bits):
            flat += (i0 + bit) * strides[a]
            weight *= th if bit else (1.0 - th)
        idx[:, c] = flat
        wts[:, c] = weight
    return idx, wts, int(np.sum(clamped))


def _plan_dot(v: np.ndarray, idx: np.ndarray, wts: np.ndarray) -> np.ndarray:
    """Row contraction of a plan against flat values: sum_j v[idx[i, j]] wts[i, j]."""
    return np.einsum("ij,ij->i", v[idx], wts)


def _tensor_nodes(axes) -> np.ndarray:
    """Nodes of the tensor grid over axes, one per row, the last axis fastest."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _grid_axes(axes, shape: tuple[int, ...], what: str) -> tuple[np.ndarray, ...]:
    """Float axes of a field of the given shape: one axis per dimension with
    that many nodes, each finite and strictly increasing."""
    axes = tuple(np.asarray(ax, dtype=float) for ax in axes)
    grid = tuple(len(ax) for ax in axes)
    if shape != grid:
        raise ValidationError(f"{what} shape {shape} != grid {grid}")
    for ax in axes:
        if not (np.all(np.isfinite(ax)) and np.all(np.diff(ax) > 0)):
            raise ValidationError("axes must be finite and strictly increasing")
    return axes


@dataclass(eq=False)
class ValueField:
    """Tensor-grid scalar field with multilinear interpolation."""

    axes: tuple[np.ndarray, ...]
    values: np.ndarray

    def __post_init__(self):
        self.axes = _grid_axes(self.axes, self.values.shape, "value")

    def nodes(self) -> np.ndarray:
        return _tensor_nodes(self.axes)

    def interp(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        idx, wts, _ = _interp_plan(self.axes, pts)
        return _plan_dot(self.values.ravel(), idx, wts)


_SIGN = np.int64(-2 ** 63)


def _float_keys(x: np.ndarray) -> np.ndarray:
    """Floats to int64 keys in the same order (both zeros to key 0)."""
    bits = x.view(np.int64)
    return np.where(bits < 0, -(bits & ~_SIGN), bits)


def _key_floats(k: np.ndarray) -> np.ndarray:
    """The inverse of _float_keys (key 0 to +0.0)."""
    return np.where(k < 0, -k | _SIGN, k).view(np.float64)


def _nearest_node_breaks(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per interval [lo, hi], the smallest float t with (t - lo) > (hi - t):
    the point from which the nearest-node rule, ties to the lower node,
    picks hi. Both sides are monotone in t, so the rule is false up to t and
    true from it; bisection over the float keys takes at most 64 steps."""
    below, above = _float_keys(lo), _float_keys(hi)  # rule false, true
    while True:
        mid = (below >> 1) + (above >> 1) + (below & above & 1)  # floor, no overflow
        if np.array_equal(mid, below):
            return _key_floats(above)
        t = _key_floats(mid)
        flip = (t - lo) > (hi - t)
        above, below = np.where(flip, mid, above), np.where(flip, below, mid)


@dataclass(eq=False, frozen=True)
class PolicyField:
    """Control index per grid node, with nearest-node lookup (ties to the
    lower node, points outside the grid clamped to it, a NaN coordinate read
    as node len - 2 of its axis). The field holds read-only copies of its
    axes, indices and control set, so the caller's arrays stay its own.

    The lookup runs on tables built once at construction. Along each axis
    the nodes whose slices of indices are equal merge into one cell, so a
    cell boundary is kept only where the control changes. Each kept
    boundary is the exact float at which the nearest-node rule flips
    (_nearest_node_breaks), and a NaN break, which sorts last, leads to a
    copy of node len - 2's cell. index_at then takes one searchsorted per
    axis that has a boundary: clamping and infinite coordinates fall out of
    the search, and an axis with a single cell is not searched.
    """

    axes: tuple[np.ndarray, ...]
    indices: np.ndarray
    control_set: np.ndarray
    _cells: np.ndarray = field(init=False, repr=False)  # compressed indices, flat
    _searches: tuple = field(init=False, repr=False)    # (axis, breaks, stride)

    def __post_init__(self):
        indices, control_set = _freeze(self.indices, dtype=None), _freeze(self.control_set)
        axes = _grid_axes([_freeze(ax) for ax in self.axes], indices.shape, "policy")
        if not np.issubdtype(indices.dtype, np.integer):
            raise ValidationError(f"policy indices must be integers, got {indices.dtype}")
        if control_set.ndim != 2 or not np.all(np.isfinite(control_set)):
            raise ValidationError("policy controls must be a finite (points, p) table")
        if indices.size and (indices.min() < 0 or indices.max() >= control_set.shape[0]):
            raise ValidationError("policy indices outside the control set")
        cells, breaks = indices, {}
        for a, ax in enumerate(axes):
            # the intervals i across which the slice of indices changes
            step = np.moveaxis(indices, a, 0)
            switch = np.flatnonzero(np.any(step[1:] != step[:-1],
                                           axis=tuple(range(1, step.ndim))))
            if len(switch) == 0:
                cells = cells.take([0], axis=a)
                continue
            # cell c starts at node switch[c - 1] + 1; the NaN cell is node len - 2
            cells = cells.take(np.r_[0, switch + 1, len(ax) - 2], axis=a)
            breaks[a] = np.r_[_nearest_node_breaks(ax[switch], ax[switch + 1]), np.nan]
        strides = np.cumprod((1,) + cells.shape[:0:-1])[::-1]
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "control_set", control_set)
        object.__setattr__(self, "_cells", cells.ravel())
        object.__setattr__(self, "_searches",
                           tuple((a, t, int(strides[a])) for a, t in breaks.items()))

    def index_at(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        flat = np.zeros(len(pts), dtype=np.intp)
        for a, breaks, stride in self._searches:
            flat += np.searchsorted(breaks, pts[:, a], side="right") * stride
        return self._cells[flat]

    def control_at(self, pts: np.ndarray) -> np.ndarray:
        return self.control_set[self.index_at(pts)]


def noise_rule(q: int, points: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss-Hermite quadrature for a standard normal draw in q
    dimensions (points = 2 is the antithetic rule: nodes -1, 1, weights 1/2)."""
    if points < 1:
        raise ValidationError(f"the noise rule needs at least 1 point, got {points}")
    nodes1, w1 = hermegauss(points)
    w1 = w1 / w1.sum()
    return _tensor_nodes([nodes1] * q), np.prod(_tensor_nodes([w1] * q), axis=1)


# ---------------------------------------------------------------------------
# value iteration

# Each policy evaluation stops once its residual max-norm is within EVAL_RTOL
# times the residual of the improvement sweep before it.
EVAL_RTOL = 1e-3


@dataclass(eq=False)
class ValueIterationResult:
    """value_iteration's value and greedy policy after its last improvement
    sweep, with the sweeps' convergence and the work they did.

    value_error_bound, the last sweep's bellman_bound, bounds the distance
    from value to the fixed point. evaluation_sweeps counts the plan
    contractions of the policy evaluations, each about 1 / n_controls of an
    improvement sweep.
    """

    value: ValueField
    policy: PolicyField
    residual_history: np.ndarray  # |Tv - v|_inf of every improvement sweep
    bound_history: np.ndarray     # bellman_bound of every improvement sweep
    clamp_rate: float           # share of plan points clamped onto the grid
    transition_entries: int     # index/weight pairs stored in the plans of all controls
    evaluation_sweeps: int      # plan contractions of the policy evaluations, in total

    @property
    def iterations(self) -> int:  # improvement (full Bellman) sweeps
        return len(self.residual_history)

    @property
    def residual(self) -> float:  # |Tv - v|_inf of the last improvement sweep
        return float(self.residual_history[-1])

    @property
    def value_error_bound(self) -> float:  # >= |value - fixed point|_inf
        return float(self.bound_history[-1])

    @property
    def clamp_warning(self) -> bool:
        return self.clamp_rate > 0.20


def bellman_bound(step_discount: float, residual: float, width: int, scale: float) -> float:
    """A-posteriori value error of a computed sweep v' = Tv with the step
    discount g: (g |v' - v|_inf + e) / (1 - g), inf when g rounds to 1.

    e = (width + 2) eps scale bounds the rounding of one sweep of plan rows
    at most width wide, with scale = |v'|_inf: the row sum, the discount
    and the stage cost. 1 / (1 - g) amplifies it once the sweeps sit on a
    float fixed point, where the residual alone reads 0.
    """
    slack = step_discount * residual + (width + 2) * np.finfo(float).eps * scale
    if not slack:
        return 0.0
    return slack / (1.0 - step_discount) if step_discount < 1.0 else math.inf


class _Breakdown(ArithmeticError):
    """A zero or non-finite inner product in _bicgstab."""


def _bicgstab(apply, b: np.ndarray, x: np.ndarray, target: float,
              cap: int) -> tuple[np.ndarray | None, int]:
    """Solve apply(x) = b by BiCGSTAB from x (H. A. van der Vorst, SIAM J.
    Sci. Stat. Comput. 13, 1992; Y. Saad, Iterative Methods for Sparse
    Linear Systems, 2nd ed., 2003, section 7.4).

    Returns (solution, applications of the operator). The solution is the
    first iterate whose recurrence residual has max-norm <= target, and None
    on a breakdown (a zero or non-finite inner product) or when cap
    applications do not reach the target. The dots are einsum, not BLAS.
    """
    def dot(a, c):
        value = float(np.einsum("i,i->", a, c))
        if value == 0.0 or not math.isfinite(value):
            raise _Breakdown
        return value

    r = b - apply(x)
    used = 1
    shadow, rho, alpha, omega = r, 1.0, 1.0, 1.0
    p = u = np.zeros_like(r)
    try:
        while np.max(np.abs(r)) > target:
            if used >= cap:
                return None, used
            rho_next = dot(shadow, r)
            p = r + (rho_next / rho) * (alpha / omega) * (p - omega * u)
            rho = rho_next
            u = apply(p)
            used += 1
            alpha = rho / dot(shadow, u)
            x = x + alpha * p
            s = r - alpha * u
            if np.max(np.abs(s)) <= target:
                return x, used
            if used >= cap:
                return None, used
            t = apply(s)
            used += 1
            omega = dot(t, s) / dot(t, t)
            x = x + omega * s
            r = s - omega * t
    except _Breakdown:
        return None, used
    return x, used


def _build_plans(chain: LagChainSpec, axes: tuple[np.ndarray, ...], gh_points: int):
    """Stage costs and transition plans of every control on the tensor grid
    over axes.

    Returns the stage costs (n_u, nodes), one (idx, wts) plan per control
    (a row is its node's Gauss-Hermite blocks side by side, each block's
    weights scaled by its Gauss-Hermite weight), the number of planned next
    states clamped onto the grid, and the index/weight pairs the plans
    store. A control steps its registers once, all Gauss-Hermite nodes
    stacked, so the drift, the noise and the kernel quadrature are evaluated
    once per control, and interpolates all its next states in one
    _interp_plan call, so its on-node collapse is decided once.
    """
    spec = chain.spec
    pts = _tensor_nodes(axes)
    n_nodes = pts.shape[0]
    regs = chain.unflatten(pts)
    zeta, zw = noise_rule(spec.q, gh_points)
    zz = np.broadcast_to(zeta[:, None, :], (zeta.shape[0], n_nodes, spec.q))
    n_u = spec.control_set.shape[0]
    clamped = 0
    plans = []
    stage = np.empty((n_u, n_nodes))
    for iu in range(n_u):
        u = np.broadcast_to(spec.control_set[iu], (n_nodes, spec.p))
        stage[iu] = np.asarray(spec.cost(regs[:, -1, :], u)) * chain.delta
        nxt = chain.flatten(chain.step(regs, u, zz))
        # node-major, so a node's Gauss-Hermite blocks are adjacent rows
        idx, wts, n_out = _interp_plan(axes, nxt.swapaxes(0, 1).reshape(-1, nxt.shape[-1]))
        clamped += n_out
        wts *= np.tile(zw, n_nodes)[:, None]
        plans.append((idx.reshape(n_nodes, -1), wts.reshape(n_nodes, -1)))
    return stage, plans, clamped, sum(idx.size for idx, _ in plans)


# the bench passes v0 and reads .iterations and .clamp_rate (bench/workloads.py, spans.py)
def value_iteration(chain: LagChainSpec, axes, tol: float, max_iter: int, gh_points: int,
                    v0: ValueField | None = None) -> ValueIterationResult:
    """Discounted fixed point of the reduced Bellman operator T, by modified
    policy iteration (Puterman, Markov Decision Processes, section 6.5).

    Each round is one improvement sweep v <- Tv over every control, which
    also fixes the greedy policy pi, then an evaluation of pi: a BiCGSTAB
    solve of (I - g P_pi) v = c_pi from v, with the step discount g, until
    its residual max-norm is within EVAL_RTOL times the sweep's residual.
    A solve that breaks down, or misses that target within the
    ceil(ln EVAL_RTOL / ln g) contractions that fixed-policy sweeps would
    need for the same reduction, leaves v at Tv: that round is a plain
    Bellman step. evaluation_sweeps counts the solves' contractions. The
    loop stops right after an improvement sweep whose bellman_bound is
    within tol: that bound on the distance from the returned Tv to the
    fixed point is value_error_bound, so tol bounds the value error, not
    just the last change. tol = inf returns exactly one Bellman sweep from
    v0; max_iter caps the improvement sweeps.

    The noise expectation uses a fixed Gauss-Hermite rule, transitions are
    precomputed as one interpolation plan per control (_build_plans; an
    axis on which every next state of the control lands on a node takes no
    upper corner),
    transition_entries counts what the plans store, and out-of-box
    transitions clamp to the boundary (rate above 20 percent sets the
    warning flag).
    """
    spec = chain.spec
    if not tol >= 0:  # also refuses nan
        raise ValidationError(f"tol must be nonnegative, got {tol}")
    if max_iter < 1:
        raise ValidationError(f"max_iter must be at least 1, got {max_iter}")
    shape = tuple(len(ax) for ax in axes)
    axes = _grid_axes(axes, shape, "value")  # bad axes are refused before the sweeps
    if len(axes) != chain.state_dim:
        raise ValidationError(f"need {chain.state_dim} axes, got {len(axes)}")
    stage, plans, clamped, entries = _build_plans(chain, axes, gh_points)
    n_u, n_nodes = stage.shape
    disc = chain.step_discount
    width = max(idx.shape[1] for idx, _ in plans)
    cap = math.ceil(math.log(EVAL_RTOL) / math.log(disc)) if 0.0 < disc < 1.0 else 0
    eps_row = (width + 2) * np.finfo(float).eps
    v = (v0.values.ravel().copy() if v0 is not None else np.zeros(n_nodes))
    rows = np.arange(n_nodes)
    history, bounds, evaluations = [], [], 0
    for _ in range(max_iter):
        totals = np.empty((n_u, n_nodes))
        for iu in range(n_u):
            idx, wts = plans[iu]
            totals[iu] = stage[iu] + disc * _plan_dot(v, idx, wts)
        best_u = np.argmin(totals, axis=0)
        v_new = totals[best_u, rows]
        residual = float(np.max(np.abs(v_new - v)))
        scale = float(np.max(np.abs(v_new)))
        bound = bellman_bound(disc, residual, width, scale)
        history.append(residual)
        bounds.append(bound)
        v = v_new
        if bound <= tol:
            return ValueIterationResult(
                value=ValueField(axes, v.reshape(shape)),
                policy=PolicyField(axes, best_u.reshape(shape), spec.control_set),
                residual_history=np.asarray(history), bound_history=np.asarray(bounds),
                clamp_rate=clamped / (n_u * gh_points ** spec.q * n_nodes),
                transition_entries=entries, evaluation_sweeps=evaluations)
        # the greedy policy's rows of the plans; a narrower plan pads its
        # rows with weight 0 on node 0
        idx_pi = np.zeros((n_nodes, width), dtype=np.int64)
        wts_pi = np.zeros((n_nodes, width))
        for iu, (idx, wts) in enumerate(plans):
            on = best_u == iu
            idx_pi[on, : idx.shape[1]] = idx[on]
            wts_pi[on, : idx.shape[1]] = wts[on]
        # (I - g P_pi) v = c_pi, to no target below the rounding of one
        # contraction, which no solve resolves
        target = max(EVAL_RTOL * residual, eps_row * scale)
        v_pi, used = _bicgstab(lambda y: y - disc * _plan_dot(y, idx_pi, wts_pi),
                               stage[best_u, rows], v, target, cap)
        evaluations += used
        if v_pi is not None:
            v = v_pi
    raise NumericalError(
        f"value iteration did not bound the value error by tol {tol:g} in {max_iter} "
        f"improvement sweeps (residual {history[-1]:g}, bound {bound:g})"
    )


# ---------------------------------------------------------------------------
# closed-loop evaluation and the dynamic programming gap


def feedback_from_policy(chain: LagChainSpec, policy: PolicyField, delta: float):
    """Control reading the policy at the register sampled from a step-grid
    window (step delta, a divisor of the lag step): window (paths, nodes, n)
    to controls (paths, p). A policy needs one axis per register coordinate
    (chain.state_dim) and controls of the problem's width p.

    A step gathers the window cell of every register coordinate, in the
    policy's axis order, and looks the control up on the policy itself.
    """
    p = chain.spec.p
    if len(policy.axes) != chain.state_dim or policy.control_set.shape[1:] != (p,):
        raise ValidationError(
            f"policy has {len(policy.axes)} axes and controls of shape "
            f"{policy.control_set.shape[1:]}; the problem needs {chain.state_dim} axes "
            f"and controls of shape ({p},)")
    stride = _steps_of(chain.delta, delta, "the lag step")
    # the register node and component of each axis, read off the flattened
    # register of node and component numbers; register node k is window
    # node k * stride
    node, comp = chain.flatten(np.indices((chain.m_lag + 1, chain.spec.n)))
    node = node * stride

    def control(window):
        return policy.control_at(window[:, node, comp])

    return control


def policy_mc_value(chain: LagChainSpec, policy: PolicyField, x: LiftedState,
                    T: float, delta: float, n_paths: int, seed: int) -> tuple[float, float]:
    """Monte Carlo value of the closed loop driven by a policy field."""
    ctrl = feedback_from_policy(chain, policy, delta)
    return mc_cost(chain.spec, x, ctrl, T, delta, n_paths, seed)


@dataclass(frozen=True)
class DppReport:
    """The gap passes when it is at most twice its standard error plus the
    grid tolerance 0.03 (1 + |V(x)|)."""

    gap: float
    stderr: float
    value_at_x: float

    @property
    def grid_tol(self) -> float:
        return 0.03 * (1.0 + abs(self.value_at_x))

    @property
    def bound(self) -> float:
        return 2.0 * self.stderr + self.grid_tol

    @property
    def ok(self) -> bool:
        return self.gap <= self.bound


def dpp_gap(chain: LagChainSpec, value: ValueField, x: LiftedState, tau: float,
            n_paths: int, seed: int) -> DppReport:
    """Signed dynamic-programming gap over constant controls on the chain.

    gap = V(x) - min_u E[ sum of discounted stage costs + discounted V at
    the stopped register ]. Constant controls are a subfamily of policies,
    so at the fixed point the gap is nonpositive up to grid and Monte Carlo
    tolerance. Path i draws its noise from the stream keyed on (seed, i);
    the same draws serve every control (common random numbers), and tau
    must be a multiple of the lag step. At tau = 0 the gap is 0 exactly and
    no path is drawn.
    """
    spec = chain.spec
    k_tau = _steps_of(tau, chain.delta, "tau")
    v_x = value.interp(chain.flatten(_start_window(x, chain.coarse_grid)))[0]
    if k_tau == 0:
        return DppReport(gap=0.0, stderr=0.0, value_at_x=v_x)
    dw = batch_increments(seed, range(n_paths), chain.delta, spec.q, k_tau)
    best = (math.inf, 0.0)
    for u in spec.control_set:
        batch = simulate_sdde(spec, x, OpenLoopControl(u), tau, chain.delta, dw)
        stat = _mean_stderr(batch.costs + math.exp(-spec.rho * tau)
                            * value.interp(chain.flatten(batch.window)))
        if stat[0] < best[0]:
            best = stat
    return DppReport(gap=v_x - best[0], stderr=best[1], value_at_x=v_x)


# ---------------------------------------------------------------------------
# reduced-equation residual


def _central_differences(f, pts: np.ndarray, steps: np.ndarray, n: int):
    """Central differences of a batched map f, points (k, dim) to values
    (k,), at each of S points (S, dim), axis a at spacing steps[a].

    f is called once, on the whole stencil: each point, the point +- steps[a]
    along every axis, and the four corners +- steps[i] +- steps[j] of every
    pair i < j of the first n (head) axes. Returns the values (S,), the
    gradients (S, dim) and the head Hessians (S, n, n). An axis of spacing 0
    is not stepped: its derivatives are 0.
    """
    n_pts, dim = pts.shape
    live = np.flatnonzero(steps)
    e, h = np.diag(steps)[live], steps[live]  # row k of e steps along axis live[k]
    head = np.flatnonzero(live < n)  # head pairs (i, j) index live too
    i, j = np.array(list(itertools.combinations(head, 2)), dtype=int).reshape(-1, 2).T
    corners = np.stack([e[i] + e[j], e[i] - e[j], -e[i] + e[j], -e[i] - e[j]], axis=1)
    offsets = np.concatenate([np.zeros((1, dim)), e, -e, corners.reshape(-1, dim)])
    vals = np.asarray(f((pts[:, None, :] + offsets).reshape(-1, dim)), dtype=float)
    v, up, down, corner = np.split(vals.reshape(n_pts, len(offsets)),
                                   [1, 1 + len(live), 1 + 2 * len(live)], axis=1)
    grad = np.zeros((n_pts, dim))
    grad[:, live] = (up - down) / (2 * h)
    hess = np.zeros((n_pts, n, n))
    hess[:, live[head], live[head]] = (up[:, head] - 2 * v + down[:, head]) / h[head] ** 2
    pp, pm, mp, mm = corner.reshape(n_pts, len(i), 4).transpose(2, 0, 1)
    hess[:, live[i], live[j]] = hess[:, live[j], live[i]] = (pp - pm - mp + mm) / (4 * h[i] * h[j])
    return v[:, 0], grad, hess


def hjb_residual(chain: LagChainSpec, value: ValueField, pts: np.ndarray) -> np.ndarray:
    """Residual of the reduced stationary equation at interior points (S,
    dim), one per point (S,).

    Space derivatives are central differences of the interpolant at the
    local grid spacing (_central_differences); the transport term carries
    the damped head drift and the register shift velocities, so a constant
    field with constant cost has residual zero.
    """
    pts = np.asarray(pts, dtype=float)
    spec = chain.spec
    steps = np.zeros(len(value.axes))
    for a, ax in enumerate(value.axes):
        if len(ax) == 1:
            continue
        outside = (pts[:, a] < ax[1] - 1e-12) | (pts[:, a] > ax[-2] + 1e-12)
        if np.any(outside):
            raise DomainError(
                f"point must keep a one-node margin on axis {a}: "
                f"{pts[np.argmax(outside), a]} not in [{ax[1]}, {ax[-2]}]"
            )
        steps[a] = np.min(np.diff(ax))
    v, grad, hess = _central_differences(value.interp, pts, steps, spec.n)
    regs = chain.unflatten(pts)
    transport = chain.flatten(np.concatenate([np.diff(regs, axis=-2) / chain.delta,
                                              -regs[:, -1:]], axis=-2))
    ham, _ = _best_score(spec, regs[:, -1], *_delay_integrals(chain.wk, regs),
                         grad[:, :spec.n], hess)
    return spec.rho * v - _dot_rows(transport, grad) + ham


# ---------------------------------------------------------------------------
# feedback extraction


def _field_gradients(value: ValueField, head_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Head gradient (nodes, n) and Hessian (nodes, n, n) by nodal differences
    along the head axes; a single-node axis has zero derivatives."""
    def diff(f, a):
        ax = value.axes[a]
        return np.gradient(f, ax, axis=a) if len(ax) > 1 else np.zeros_like(f)

    grads = [diff(value.values, a) for a in range(head_dim)]
    hess = np.empty(value.values.shape + (head_dim, head_dim))
    for i in range(head_dim):
        for j in range(i, head_dim):
            hess[..., i, j] = hess[..., j, i] = diff(grads[i], j)
    return (np.stack(grads, axis=-1).reshape(-1, head_dim),
            hess.reshape(-1, head_dim, head_dim))


def extract_feedback(chain: LagChainSpec, value: ValueField) -> PolicyField:
    """Candidate feedback: per-node best control of the Hamiltonian.

    At every node the head gradient and Hessian come from nodal differences
    of the field, and the control maximizes the Hamiltonian's score
    -drift . p0 - Tr(noise noise^T z00)/2 - cost, ties to the lowest index.
    When the noise ignores the control the trace term is the same for every
    control and the choice rests on drift and cost.
    """
    spec = chain.spec
    p0, z00 = _field_gradients(value, spec.n)
    regs = chain.unflatten(value.nodes())
    _, best = _best_score(spec, regs[:, -1, :], *_delay_integrals(chain.wk, regs), p0, z00)
    return PolicyField(value.axes, best.reshape(value.values.shape), spec.control_set)


# ---------------------------------------------------------------------------
# probes


@dataclass(frozen=True)
class RegularityReport:
    lipschitz: float
    alpha_hat: float | None
    alpha_se: float | None
    flags: tuple[str, ...]

    @property
    def alpha_band(self) -> tuple[float, float] | None:
        if self.alpha_hat is None or self.alpha_se is None:
            return None
        return (self.alpha_hat - 2 * self.alpha_se, self.alpha_hat + 2 * self.alpha_se)


def regularity_probe(spec: ProblemSpec, estimator, box, samples: int,
                     gradient_spacing: float) -> RegularityReport:
    """Lipschitz and gradient-smoothness estimates of a head-section map.

    estimator maps a batch of head points (k, n) to values (k,). The
    Lipschitz estimate is the largest difference quotient on a lattice of
    samples points per axis over the box. Gradients are central differences
    at gradient_spacing; their pairwise log-log fit gives the smoothness
    exponent with its standard error. Returns flags instead of asserting
    when the gradient jumps, or when spec declares no ellipticity floor.
    A box axis no wider than two gradient spacings is refused: the
    gradient lattice keeps its stencil one spacing inside the box.
    """
    if samples < 2:
        raise ValidationError(f"the lattice needs at least 2 samples per axis, got {samples}")
    box = [(float(lo), float(hi)) for lo, hi in box]
    narrow = [(lo, hi) for lo, hi in box if hi - lo <= 2 * gradient_spacing]
    if narrow:
        raise ValidationError(f"box ranges {narrow} are no wider than two gradient "
                              f"spacings ({2 * gradient_spacing:g})")
    pts = _tensor_nodes([np.linspace(lo, hi, samples) for lo, hi in box])
    vals = np.asarray(estimator(pts), dtype=float)

    flags: list[str] = []
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.linalg.norm(diff, axis=-1)
    dv = np.abs(vals[:, None] - vals[None, :])
    mask = dist > 1e-12
    lipschitz = float(np.max(dv[mask] / dist[mask]))

    h = gradient_spacing
    g_pts = _tensor_nodes([np.linspace(lo + h, hi - h, max(3, samples - 2)) for lo, hi in box])
    _, grads, _ = _central_differences(estimator, g_pts, np.full(len(box), h), 0)

    gd = np.linalg.norm(grads[:, None, :] - grads[None, :, :], axis=-1)
    gr = np.linalg.norm(g_pts[:, None, :] - g_pts[None, :, :], axis=-1)
    sel = (gr > max(h, 1e-12)) & (gd > 1e-14)
    if np.sum(sel) < 4:
        flags.append("gradient-jump: too few resolvable gradient differences")
        return RegularityReport(lipschitz=lipschitz, alpha_hat=None,
                                alpha_se=None, flags=tuple(flags))
    # a kink leaves order-one gradient differences at the smallest
    # separations; on a smooth field those shrink with the separation
    small = sel & (gr <= np.quantile(gr[sel], 0.15))
    if np.any(small) and float(np.median(gd[small])) >= 0.4 * float(np.max(gd[sel])):
        flags.append("gradient-jump: differences do not shrink at small separation")
    lx = np.log(gr[sel])
    ly = np.log(gd[sel])
    A = np.stack([lx, np.ones_like(lx)], axis=-1)
    coef, res, _, _ = np.linalg.lstsq(A, ly, rcond=None)
    alpha = float(coef[0])
    n_fit = len(lx)
    sigma2 = float(res[0]) / (n_fit - 2) if res.size and n_fit > 2 else 0.0
    sxx = float(np.sum((lx - lx.mean()) ** 2))
    alpha_se = math.sqrt(sigma2 / sxx) if sxx > 0 else math.inf
    if alpha < 0.15:
        flags.append("gradient-jump: smoothness exponent indistinguishable from zero")
    if spec.ellipticity_floor is None:
        flags.append("ellipticity-not-declared: smoothness exponent reported, not asserted")
    return RegularityReport(lipschitz=lipschitz, alpha_hat=alpha,
                            alpha_se=alpha_se, flags=tuple(flags))


@dataclass(frozen=True, eq=False)
class ContinuityTable:
    """Scatter rows (weak distance, value difference, standard error),
    sorted by distance when the table is built."""

    distances: np.ndarray
    differences: np.ndarray
    stderrs: np.ndarray

    def __post_init__(self):
        order = np.argsort(self.distances)
        for name in ("distances", "differences", "stderrs"):
            object.__setattr__(self, name, getattr(self, name)[order])


def b_continuity_probe(spec: ProblemSpec, ctrl, x: LiftedState, ys: LiftedBatch, T: float,
                       delta: float, n_paths: int, seed: int) -> ContinuityTable:
    """Paired Monte Carlo value differences from x to each sample of ys,
    against their weak distance.

    One increment array serves x and every y (common random numbers), so x
    is simulated once; each y is simulated from its validated LiftedState.
    A row is the weak distance |x - y|_{-1} with the absolute mean and the
    standard error of the per-path cost differences. A zero horizon is
    refused: every difference would be 0 by construction.
    """
    n_steps = _steps_of(T, delta, "T")
    if n_steps == 0:
        raise ValidationError("a paired estimate needs a positive horizon T")
    dw = batch_increments(seed, np.arange(n_paths), delta, spec.q, n_steps)
    base = simulate_sdde(spec, x, ctrl, T, delta, dw).costs
    diff, err = [], []
    for head, tail in zip(ys.heads, ys.tails):
        y = LiftedState(ys.grid, head, tail)
        d, s = _mean_stderr(base - simulate_sdde(spec, y, ctrl, T, delta, dw).costs)
        diff.append(abs(d))
        err.append(s)
    dist = minus_one_norm(LiftedBatch(x.grid, x.head - ys.heads, x.tail - ys.tails))
    return ContinuityTable(dist, np.asarray(diff), np.asarray(err))


def envelope_is_monotone(table: ContinuityTable) -> tuple[bool, bool]:
    """(monotone within error bars, vanishing at zero).

    Splits the rows, in distance order, into five buckets (one per row when
    there are fewer). Monotone means bucket means do not decrease beyond
    their pooled error bars plus 1e-6; vanishing means the smallest bucket
    sits within its error bars plus 5% of the table's largest bucket mean
    plus 1e-6. Fewer than 2 rows are refused: one bucket is monotone
    vacuously.
    """
    n = len(table.distances)
    if n < 2:
        raise ValidationError(f"an envelope needs at least 2 rows, got {n}")
    edges = np.linspace(0, n, min(5, n) + 1).astype(int)
    means, errs = [], []
    for b in range(len(edges) - 1):
        sl = slice(edges[b], edges[b + 1])
        means.append(float(np.mean(table.differences[sl])))
        errs.append(float(np.sqrt(np.mean(table.stderrs[sl] ** 2)
                                  / max(1, edges[b + 1] - edges[b]))))
    monotone = all(means[b] <= means[b + 1] + 2 * (errs[b] + errs[b + 1]) + 1e-6
                   for b in range(len(means) - 1))
    vanishing = means[0] <= 2 * errs[0] + 0.05 * max(means) + 1e-6
    return monotone, vanishing


def growth_fit(value: ValueField, chain: LagChainSpec) -> float:
    """Smallest constant with |V| <= c (1 + |state|^m) at all grid nodes, m
    the problem's cost growth exponent."""
    regs = chain.unflatten(value.nodes())
    norms = lifted_norm(LiftedBatch(chain.coarse_grid, regs[:, -1, :], regs))
    return float(np.max(np.abs(value.values.ravel())
                        / (1.0 + norms ** chain.spec.cost_growth_exponent)))
