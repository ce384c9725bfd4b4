"""Hamiltonian, discount arithmetic, lag-chain dynamic programming, and probes.

The delay problem is reduced to a finite-dimensional Markov chain by keeping
a shift register of past node values with lag step Delta = d / m_lag. The
register head is advanced by Euler with the kernel quadrature evaluated on
the register, then the register shifts. Modified policy iteration on a
tensor grid (full Bellman sweeps that fix the greedy policy, each followed
by cheaper fixed-policy sweeps) solves the reduced problem and stops once
the a-posteriori bound g / (1 - g) * |Tv - v|_inf on the value error, with
the step discount g, is within tol. The dynamic-programming gap, the
reduced equation residual, the growth and continuity probes, and candidate
feedback extraction all operate on that fixed point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from .core import (
    DomainError,
    LiftedState,
    NumericalError,
    ProblemSpec,
    Segment,
    SegmentGrid,
    ValidationError,
    _delay_integrals,
    interp_columns,
    weighted_kernels,
)
from .operators import minus_one_norm
from .sdde import (FeedbackControl, OpenLoopControl, _euler_head, _simulate_batch,
                   _steps_of, batch_increments, mc_cost)


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
    """
    if rho <= 0 or c <= 0:
        raise ValidationError(f"need rho > 0 and c > 0, got rho={rho}, c={c}")
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


def truncation_horizon(spec: ProblemSpec, x_norm: float, tol: float) -> float:
    """Horizon beyond which the discounted tail is below tol.

    Uses the moment bound with rate midway between the discount and its
    admissibility floor; requires the discount to clear the floor. The
    moment-bound prefactor has no closed form and is taken to be 1.
    """
    rho0 = discount_floor(spec.growth_const, spec.cost_growth_exponent)
    if spec.rho <= rho0:
        raise ValidationError(
            f"discount {spec.rho} does not exceed the admissibility floor {rho0:g}"
        )
    lam = (spec.rho + rho0) / 2.0
    gap = spec.rho - lam
    bound0 = (1.0 + x_norm ** spec.cost_growth_exponent) / gap
    if bound0 <= tol:
        return 0.0
    return math.log(bound0 / tol) / gap


# ---------------------------------------------------------------------------
# Hamiltonian


def hamiltonian(spec: ProblemSpec, x: LiftedState, p0: np.ndarray,
                z00: np.ndarray) -> tuple[float, np.ndarray]:
    """Reduced Hamiltonian at a lifted state with head gradient and Hessian.

    Value is -head . p0 plus the best control score
    -drift . p0 - Tr(noise noise^T z00)/2 - cost; ties break to the lowest
    control index. z00 must be symmetric.
    """
    p0, z00 = np.asarray(p0, dtype=float), np.asarray(z00, dtype=float)
    if z00.shape != (spec.n, spec.n):
        raise ValidationError(f"hessian block must be {(spec.n, spec.n)}, got {z00.shape}")
    if not np.allclose(z00, z00.T, rtol=0, atol=1e-12 * max(1.0, np.max(np.abs(z00)))):
        raise ValidationError("hessian block must be symmetric")
    z1, z2 = spec.delay_integrals(x.tail)
    value, best = _best_score(spec, x.head[None], z1[None], z2[None], p0[None], z00[None])
    return float(value[0]), spec.control_set[best[0]]


def _best_score(spec: ProblemSpec, y: np.ndarray, z1: np.ndarray, z2: np.ndarray,
                p0: np.ndarray, z00: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """-y . p0 plus the best control score at each of k points, and the index
    of that control.

    y, z1, z2, p0 hold one row per point and z00 one (n, n) block per point.
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

    A register [y(t), y(t - delta), ..., y(t - d)] advances by one Euler
    head update (kernel quadrature over the register) followed by a shift.
    One chain step is the direct Euler step of sdde at step delta: the
    register reversed is that scheme's history window, and a standard
    normal draw zeta is the increment zeta * sqrt(delta). Per-step discount
    is exp(-rho delta).
    """

    spec: ProblemSpec
    m_lag: int
    delta: float
    coarse_grid: SegmentGrid
    wk: tuple[np.ndarray, np.ndarray]  # weighted drift and noise tables on coarse_grid

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

    def delay_integrals(self, reg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _delay_integrals(self.wk, reg[..., ::-1, :])

    def step(self, reg: np.ndarray, u: np.ndarray, zeta: np.ndarray) -> np.ndarray:
        """Advance registers (P, m_lag + 1, n) one lag step; zeta (P, q) is a
        standard normal draw."""
        y_new = _euler_head(self.spec, self.wk, reg[:, 0, :],
                            reg[:, ::-1, :], u, zeta * math.sqrt(self.delta), self.delta)
        return np.concatenate([y_new[:, None, :], reg[:, :-1, :]], axis=1)

    def running_cost(self, reg: np.ndarray, u: np.ndarray) -> np.ndarray:
        return np.asarray(self.spec.cost(reg[..., 0, :], u)) * self.delta

    def flatten(self, reg: np.ndarray) -> np.ndarray:
        return reg.reshape(reg.shape[:-2] + (self.state_dim,))

    def unflatten(self, flat: np.ndarray) -> np.ndarray:
        return flat.reshape(flat.shape[:-1] + (self.m_lag + 1, self.spec.n))


def reduce_to_lag_chain(spec: ProblemSpec, m_lag: int) -> LagChainSpec:
    """Resample the kernels onto the lag grid and package the reduced chain."""
    if m_lag < 1:
        raise ValidationError(f"lag count must be >= 1, got {m_lag}")
    coarse = SegmentGrid(spec.d, m_lag)
    return LagChainSpec(spec=spec, m_lag=m_lag, delta=spec.d / m_lag,
                        coarse_grid=coarse, wk=weighted_kernels(spec, coarse))


def register_from_state(chain: LagChainSpec, x: LiftedState) -> np.ndarray:
    """Sample a lifted state onto the register: head, then lagged tail values."""
    reg = np.empty((chain.m_lag + 1, chain.spec.n))
    reg[0] = x.head
    lags = -chain.delta * np.arange(1, chain.m_lag + 1)
    reg[1:] = interp_columns(lags, x.grid.nodes, x.tail.values)
    return reg


# ---------------------------------------------------------------------------
# tensor fields


@dataclass
class ClampStats:
    lookups: int = 0
    clamped: int = 0

    @property
    def rate(self) -> float:
        return self.clamped / self.lookups if self.lookups else 0.0


def _brackets(axes: tuple[np.ndarray, ...], pts: np.ndarray,
              stats: ClampStats | None = None) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Bracket of every point on every axis with more than one node.

    Returns (axis, lower node index, coordinate clipped to the axis) per such
    axis. Single-node axes are skipped and take no part in clamp accounting;
    a point counts as clamped when it leaves any other axis.
    """
    out, clamped = [], np.zeros(pts.shape[0], dtype=bool)
    for a, ax in enumerate(axes):
        if len(ax) == 1:
            continue
        x = pts[:, a]
        if stats is not None:
            clamped |= (x < ax[0]) | (x > ax[-1])
        xc = np.clip(x, ax[0], ax[-1])
        i0 = np.clip(np.searchsorted(ax, xc, side="right") - 1, 0, len(ax) - 2)
        out.append((a, i0, xc))
    if stats is not None:
        stats.lookups += pts.shape[0]
        stats.clamped += int(np.sum(clamped))
    return out


def _interp_plan(axes: tuple[np.ndarray, ...], pts: np.ndarray,
                 stats: ClampStats | None = None):
    """Multilinear interpolation plan: corner flat indices and weights.

    Axes with a single node are collapsed: they contribute index 0.
    """
    n_pts = pts.shape[0]
    strides = np.cumprod([1] + [len(ax) for ax in axes[:0:-1]], dtype=np.int64)[::-1]
    brackets = [(a, i0, (xc - axes[a][i0]) / (axes[a][i0 + 1] - axes[a][i0]))
                for a, i0, xc in _brackets(axes, pts, stats)]
    n_corners = 2 ** len(brackets)
    idx = np.empty((n_pts, n_corners), dtype=np.int64)
    wts = np.empty((n_pts, n_corners))
    for c, bits in enumerate(itertools.product((0, 1), repeat=len(brackets))):
        flat = np.zeros(n_pts, dtype=np.int64)
        weight = np.ones(n_pts)
        for (a, i0, th), bit in zip(brackets, bits):
            flat += (i0 + bit) * strides[a]
            weight *= th if bit else (1.0 - th)
        idx[:, c] = flat
        wts[:, c] = weight
    return idx, wts


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

    @property
    def dim(self) -> int:
        return len(self.axes)

    def nodes(self) -> np.ndarray:
        return _tensor_nodes(self.axes)

    def interp(self, pts: np.ndarray, stats: ClampStats | None = None) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        idx, wts = _interp_plan(self.axes, pts, stats)
        return np.sum(self.values.ravel()[idx] * wts, axis=1)

    def interp_one(self, pt) -> float:
        return float(self.interp(np.asarray(pt, dtype=float)[None, :])[0])


@dataclass(eq=False)
class PolicyField:
    """Control index per grid node, with nearest-node lookup (ties to the
    lower node, points outside the grid clamped to it)."""

    axes: tuple[np.ndarray, ...]
    indices: np.ndarray
    control_set: np.ndarray

    def __post_init__(self):
        self.axes = _grid_axes(self.axes, self.indices.shape, "policy")
        if self.indices.size and (self.indices.min() < 0
                                  or self.indices.max() >= self.control_set.shape[0]):
            raise ValidationError("policy indices outside the control set")

    def index_at(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        node = [np.zeros(pts.shape[0], dtype=np.int64)] * len(self.axes)
        for a, i0, xc in _brackets(self.axes, pts):
            ax = self.axes[a]
            node[a] = i0 + (xc - ax[i0] > ax[i0 + 1] - xc)
        return self.indices[tuple(node)]

    def control_at(self, pts: np.ndarray) -> np.ndarray:
        return self.control_set[self.index_at(pts)]


def noise_rule(q: int, points: int = 5) -> tuple[np.ndarray, np.ndarray]:
    """Tensor quadrature for a standard normal draw in q dimensions.

    points = 2 gives the antithetic two-point rule; otherwise Gauss-Hermite.
    """
    if points < 1:
        raise ValidationError(f"the noise rule needs at least 1 point, got {points}")
    if points == 2:
        nodes1, w1 = np.array([-1.0, 1.0]), np.array([0.5, 0.5])
    else:
        nodes1, w1 = hermegauss(points)
        w1 = w1 / w1.sum()
    return _tensor_nodes([nodes1] * q), np.prod(_tensor_nodes([w1] * q), axis=1)


# ---------------------------------------------------------------------------
# value iteration

# Fixed-policy sweeps after each improvement sweep of value_iteration. One
# costs about 1/n_controls of a Bellman sweep; at step discounts near 0.98 a
# round of 100 shrinks the residual about 7-fold.
EVAL_SWEEPS = 100


@dataclass(eq=False)
class ValueIterationResult:
    value: ValueField
    policy: PolicyField
    iterations: int             # improvement (full Bellman) sweeps
    residual: float             # |Tv - v|_inf of the last improvement sweep
    clamp_rate: float
    clamp_warning: bool
    residual_history: np.ndarray  # residual of every improvement sweep
    value_error_bound: float    # g / (1 - g) * residual >= |value - fixed point|_inf
    evaluation_sweeps: int      # fixed-policy sweeps, in total


def bellman_bound(step_discount: float, residual: float) -> float:
    """A-posteriori value error of Tv for a sweep residual |Tv - v|_inf:
    g / (1 - g) * residual with the step discount g (inf when g rounds to 1)."""
    if not residual:
        return 0.0
    return step_discount / (1.0 - step_discount) * residual if step_discount < 1.0 else math.inf


def value_iteration(chain: LagChainSpec, axes, tol: float = 1e-6,
                    max_iter: int = 5000, gh_points: int = 5,
                    v0: ValueField | None = None) -> ValueIterationResult:
    """Discounted fixed point of the reduced Bellman operator T, by modified
    policy iteration (Puterman, Markov Decision Processes, section 6.5).

    Each round is one improvement sweep v <- Tv over every control, which
    also fixes the greedy policy pi, then EVAL_SWEEPS fixed-policy sweeps
    v <- c_pi + g P_pi v with the step discount g. The loop stops right after
    an improvement sweep once g / (1 - g) * |Tv - v|_inf <= tol: that bound on
    the distance from the returned Tv to the fixed point is value_error_bound,
    so tol bounds the value error, not just the last change. tol = inf returns
    exactly one Bellman sweep from v0; max_iter caps the improvement sweeps.

    The noise expectation uses a fixed Gauss-Hermite rule, transitions are
    precomputed as interpolation plans, and out-of-box transitions clamp to
    the boundary (rate above 20 percent sets the warning flag).
    """
    spec = chain.spec
    if spec.rho <= 0:
        raise ValidationError("value iteration needs a positive discount")
    if not tol >= 0:  # also refuses nan
        raise ValidationError(f"tol must be nonnegative, got {tol}")
    if max_iter < 1:
        raise ValidationError(f"max_iter must be at least 1, got {max_iter}")
    shape = tuple(len(ax) for ax in axes)
    axes = _grid_axes(axes, shape, "value")  # bad axes are refused before the sweeps
    if len(axes) != chain.state_dim:
        raise ValidationError(f"need {chain.state_dim} axes, got {len(axes)}")
    pts = _tensor_nodes(axes)
    n_nodes = pts.shape[0]
    regs = chain.unflatten(pts)
    zeta, zw = noise_rule(spec.q, gh_points)
    n_u = spec.control_set.shape[0]
    disc = chain.step_discount

    stats = ClampStats()
    plans = []
    stage = np.empty((n_u, n_nodes))
    for iu in range(n_u):
        u = np.broadcast_to(spec.control_set[iu], (n_nodes, spec.p))
        stage[iu] = chain.running_cost(regs, u)
        idx_list, wts_list = [], []
        for ig in range(zeta.shape[0]):
            zz = np.broadcast_to(zeta[ig], (n_nodes, spec.q))
            nxt = chain.flatten(chain.step(regs, u, zz))
            idx, wts = _interp_plan(axes, nxt, stats)
            idx_list.append(idx)
            wts_list.append(wts * zw[ig])
        plans.append((np.concatenate(idx_list, axis=1),
                      np.concatenate(wts_list, axis=1)))

    v = (v0.values.ravel().copy() if v0 is not None else np.zeros(n_nodes))
    rows = np.arange(n_nodes)
    history = []
    for it in range(1, max_iter + 1):
        totals = np.empty((n_u, n_nodes))
        for iu in range(n_u):
            idx, wts = plans[iu]
            totals[iu] = stage[iu] + disc * np.sum(v[idx] * wts, axis=1)
        best_u = np.argmin(totals, axis=0)
        v_new = totals[best_u, rows]
        residual = float(np.max(np.abs(v_new - v)))
        history.append(residual)
        v = v_new
        bound = bellman_bound(disc, residual)
        if bound <= tol:
            return ValueIterationResult(
                value=ValueField(axes, v.reshape(shape)),
                policy=PolicyField(axes, best_u.reshape(shape), spec.control_set),
                iterations=it, residual=residual, clamp_rate=stats.rate,
                clamp_warning=stats.rate > 0.20,
                residual_history=np.asarray(history), value_error_bound=bound,
                evaluation_sweeps=(it - 1) * EVAL_SWEEPS)
        # partial evaluation of the greedy policy on its rows of the plans
        idx_pi = np.empty_like(plans[0][0])
        wts_pi = np.empty_like(plans[0][1])
        for iu in range(n_u):
            on = best_u == iu
            idx_pi[on] = plans[iu][0][on]
            wts_pi[on] = plans[iu][1][on]
        cost_pi = stage[best_u, rows]
        for _ in range(EVAL_SWEEPS):
            v = cost_pi + disc * np.sum(v[idx_pi] * wts_pi, axis=1)
    raise NumericalError(
        f"value iteration did not bound the value error by tol {tol:g} in {max_iter} "
        f"improvement sweeps (residual {history[-1]:g}, bound {bound:g})"
    )


# ---------------------------------------------------------------------------
# closed-loop evaluation and the dynamic programming gap


def feedback_from_policy(chain: LagChainSpec, policy: PolicyField,
                         delta: float) -> FeedbackControl:
    """Feedback control reading the policy at the sampled register."""
    stride_i = _steps_of(chain.delta, delta, "the lag step")
    offsets = np.array([-1 - j * stride_i for j in range(chain.m_lag + 1)])

    def fn(k, t, window):
        return policy.control_at(chain.flatten(window[:, offsets, :]))

    return FeedbackControl(fn)


def policy_mc_value(chain: LagChainSpec, policy: PolicyField, x: LiftedState,
                    T: float, delta: float, n_paths: int, seed: int) -> tuple[float, float]:
    """Monte Carlo value of the closed loop driven by a policy field."""
    ctrl = feedback_from_policy(chain, policy, delta)
    return mc_cost(chain.spec, x, ctrl, T, delta, n_paths, seed)


@dataclass(frozen=True)
class DppReport:
    gap: float
    stderr: float
    value_at_x: float
    best_control_index: int
    tau: float

    def ok(self, grid_tol: float) -> bool:
        return self.gap <= 2.0 * self.stderr + grid_tol


def dpp_gap(chain: LagChainSpec, value: ValueField, x: LiftedState, tau: float,
            n_paths: int, seed: int) -> DppReport:
    """Signed dynamic-programming gap over constant controls on the chain.

    gap = V(x) - min_u E[ sum of discounted stage costs + discounted V at
    the stopped register ]. Constant controls are a subfamily of policies,
    so at the fixed point the gap is nonpositive up to grid and Monte Carlo
    tolerance. Path i draws its noise from the stream keyed on (seed, i);
    the same draws serve every control (common random numbers), and tau
    must be a multiple of the lag step.
    """
    spec = chain.spec
    k_tau = _steps_of(tau, chain.delta, "tau")
    if n_paths < 2:
        raise ValidationError(f"the gap's standard error needs at least 2 paths, got {n_paths}")
    z0 = chain.flatten(register_from_state(chain, x))
    v_x = value.interp_one(z0)
    if k_tau == 0:
        return DppReport(gap=0.0, stderr=0.0, value_at_x=v_x,
                         best_control_index=0, tau=tau)
    # the register as a state on the lag grid, so the rollout starts from z0
    reg0 = chain.unflatten(z0)
    x_reg = LiftedState(reg0[0], Segment(chain.coarse_grid, reg0[::-1]))
    dw = batch_increments(seed, range(n_paths), chain.delta, spec.q, k_tau)
    best = (math.inf, 0.0, 0)
    for iu in range(spec.control_set.shape[0]):
        _, states, _, cost = _simulate_batch(spec, x_reg, OpenLoopControl(spec.control_set[iu]),
                                             tau, chain.delta, dw)
        regs = states[:, :-chain.m_lag - 2:-1]  # newest node first
        cost += math.exp(-spec.rho * tau) * value.interp(chain.flatten(regs))
        mean = float(np.mean(cost))
        se = float(np.std(cost, ddof=1) / math.sqrt(n_paths))
        if mean < best[0]:
            best = (mean, se, iu)
    return DppReport(gap=v_x - best[0], stderr=best[1], value_at_x=v_x,
                     best_control_index=best[2], tau=tau)


# ---------------------------------------------------------------------------
# reduced-equation residual


def hjb_residual(chain: LagChainSpec, value: ValueField, z) -> float:
    """Residual of the reduced stationary equation at an interior point.

    Space derivatives are central differences of the interpolant at the
    local grid spacing; the transport term carries the damped head drift
    and the register shift velocities, so a constant field with constant
    cost has residual zero.
    """
    z = np.asarray(z, dtype=float).ravel()
    axes = value.axes
    spec = chain.spec
    n = spec.n
    steps = np.zeros(len(axes))
    for a, ax in enumerate(axes):
        if len(ax) == 1:
            continue
        if z[a] < ax[1] - 1e-12 or z[a] > ax[-2] + 1e-12:
            raise DomainError(
                f"point must keep a one-node margin on axis {a}: "
                f"{z[a]} not in [{ax[1]}, {ax[-2]}]"
            )
        steps[a] = np.min(np.diff(ax))

    v_at = value.interp_one
    e = np.diag(steps)  # row a steps along axis a
    grad = np.array([(v_at(z + e[a]) - v_at(z - e[a])) / (2 * h) if h else 0.0
                     for a, h in enumerate(steps)])
    hess = np.zeros((n, n))
    for i in range(n):
        if steps[i] == 0.0:
            continue
        hess[i, i] = (v_at(z + e[i]) - 2 * v_at(z) + v_at(z - e[i])) / steps[i] ** 2
        for j in range(i + 1, n):
            if steps[j] == 0.0:
                continue
            hess[i, j] = hess[j, i] = (
                v_at(z + e[i] + e[j]) - v_at(z + e[i] - e[j])
                - v_at(z - e[i] + e[j]) + v_at(z - e[i] - e[j])
            ) / (4 * steps[i] * steps[j])

    reg = chain.unflatten(z)
    transport = np.concatenate([-reg[0], ((reg[:-1] - reg[1:]) / chain.delta).ravel()])
    ham, _ = _best_score(spec, reg[:1], *chain.delay_integrals(reg[None]), grad[None, :n],
                         hess[None])
    return float(spec.rho * v_at(z) - transport @ grad + ham[0])


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
    _, best = _best_score(spec, regs[:, 0, :], *chain.delay_integrals(regs), p0, z00)
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


def regularity_probe(spec: ProblemSpec | None, estimator, box,
                     samples: int = 7, gradient_spacing: float | None = None,
                     noise: float = 0.0) -> RegularityReport:
    """Lipschitz and gradient-smoothness estimates of a head-section map.

    estimator maps a batch of head points (k, n) to values (k,). The
    Lipschitz estimate is the largest difference quotient on a lattice over
    the box. Gradients are central differences at a spacing at least the
    square root of the estimator noise; their pairwise log-log fit gives
    the smoothness exponent with its standard error. Returns flags instead
    of asserting when the signal is dominated by noise, when the gradient
    jumps, or when no ellipticity floor is declared.
    """
    if samples < 2:
        raise ValidationError(f"the lattice needs at least 2 samples per axis, got {samples}")
    box = [(float(lo), float(hi)) for lo, hi in box]
    pts = _tensor_nodes([np.linspace(lo, hi, samples) for lo, hi in box])
    vals = np.asarray(estimator(pts), dtype=float)

    flags: list[str] = []
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.linalg.norm(diff, axis=-1)
    dv = np.abs(vals[:, None] - vals[None, :])
    mask = dist > 1e-12
    lipschitz = float(np.max(dv[mask] / dist[mask]))

    if noise > 0 and float(np.median(dv[mask])) < 3.0 * noise:
        flags.append("inconclusive: estimator noise dominates the sampled spread")
        return RegularityReport(lipschitz=lipschitz, alpha_hat=None,
                                alpha_se=None, flags=tuple(flags))

    span = max(hi - lo for lo, hi in box)
    h = gradient_spacing if gradient_spacing is not None else span / (2 * (samples - 1))
    if noise > 0:
        h = max(h, math.sqrt(noise))
    g_pts = _tensor_nodes([np.linspace(lo + h, hi - h, max(3, samples - 2)) for lo, hi in box])
    grads = np.empty_like(g_pts)
    for a, e in enumerate(h * np.eye(len(box))):
        grads[:, a] = (np.asarray(estimator(g_pts + e)) -
                       np.asarray(estimator(g_pts - e))) / (2 * h)

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
    if spec is not None and spec.ellipticity_floor is None:
        flags.append("ellipticity-not-declared: smoothness exponent reported, not asserted")
    return RegularityReport(lipschitz=lipschitz, alpha_hat=alpha,
                            alpha_se=alpha_se, flags=tuple(flags))


@dataclass(frozen=True, eq=False)
class ContinuityTable:
    """Scatter rows (weak distance, value difference, standard error)."""

    distances: np.ndarray
    differences: np.ndarray
    stderrs: np.ndarray

    def sorted(self) -> "ContinuityTable":
        order = np.argsort(self.distances)
        return ContinuityTable(self.distances[order], self.differences[order],
                               self.stderrs[order])


def b_continuity_probe(spec: ProblemSpec, pairs, estimator) -> ContinuityTable:
    """Evaluate a paired value estimator over state pairs against weak distance.

    estimator(x, y) must return (difference estimate, standard error); pairs
    are (LiftedState, LiftedState) tuples.
    """
    dist, diff, err = [], [], []
    for x, y in pairs:
        d, s = estimator(x, y)
        dist.append(minus_one_norm(x - y))
        diff.append(abs(float(d)))
        err.append(float(s))
    return ContinuityTable(np.asarray(dist), np.asarray(diff), np.asarray(err)).sorted()


def envelope_is_monotone(table: ContinuityTable, abs_tol: float = 0.0,
                         rel_tol: float = 0.05, buckets: int = 5) -> tuple[bool, bool]:
    """(monotone within error bars, vanishing at zero).

    Buckets the sorted rows by distance. Monotone means bucket means do not
    decrease beyond their pooled error bars; vanishing means the smallest
    bucket sits within its error bars plus rel_tol of the table's largest
    bucket mean. Fewer than 2 rows are refused: one bucket is monotone
    vacuously.
    """
    t = table.sorted()
    n = len(t.distances)
    if n < 2:
        raise ValidationError(f"an envelope needs at least 2 rows, got {n}")
    edges = np.linspace(0, n, min(buckets, n) + 1).astype(int)
    means, errs = [], []
    for b in range(len(edges) - 1):
        sl = slice(edges[b], edges[b + 1])
        means.append(float(np.mean(t.differences[sl])))
        errs.append(float(np.sqrt(np.mean(t.stderrs[sl] ** 2) / max(1, edges[b + 1] - edges[b]))))
    monotone = all(means[b] <= means[b + 1] + 2 * (errs[b] + errs[b + 1]) + abs_tol
                   for b in range(len(means) - 1))
    vanishing = means[0] <= 2 * errs[0] + rel_tol * max(means) + abs_tol
    return monotone, vanishing


def paired_cost_estimator(spec: ProblemSpec, ctrl, T: float, delta: float,
                          n_paths: int, seed: int):
    """Difference estimator with common random numbers across the pair."""
    if n_paths < 2:
        raise ValidationError(f"a paired estimate needs at least 2 paths, got {n_paths}")
    dw = batch_increments(seed, np.arange(n_paths), delta, spec.q, _steps_of(T, delta, "T"))

    def estimate(x: LiftedState, y: LiftedState) -> tuple[float, float]:
        d = (_simulate_batch(spec, x, ctrl, T, delta, dw)[3]
             - _simulate_batch(spec, y, ctrl, T, delta, dw)[3])
        return float(np.mean(d)), float(np.std(d, ddof=1) / math.sqrt(n_paths))

    return estimate


def growth_fit(value: ValueField, chain: LagChainSpec,
               exponent: float) -> float:
    """Smallest constant with |V| <= c (1 + |state|^m) at all grid nodes."""
    pts = value.nodes()
    regs = chain.unflatten(pts)
    w = chain.coarse_grid.weights
    window = regs[..., ::-1, :]
    tail_sq = np.einsum("j,kjn,kjn->k", w, window, window)
    norms = np.sqrt(np.einsum("kn,kn->k", regs[:, 0, :], regs[:, 0, :]) + tail_sq)
    return float(np.max(np.abs(value.values.ravel()) / (1.0 + norms ** exponent)))
