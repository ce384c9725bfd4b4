"""Hamiltonian, discount arithmetic, lag-chain dynamic programming, and probes.

The delay problem is reduced to a finite-dimensional Markov chain by keeping
a shift register of past node values with lag step Delta = d / m_lag. The
register head is advanced by Euler with the kernel quadrature evaluated on
the register, then the register shifts. Discounted value iteration on a
tensor grid solves the reduced problem; the dynamic-programming gap, the
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
    SegmentGrid,
    ValidationError,
    interp_columns,
    kernel_convolve,
    weighted_kernels,
)
from .sdde import (FeedbackControl, _philox, _simulate_batch, _steps_of, batch_increments,
                   mc_cost)


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


# ---------------------------------------------------------------------------
# Hamiltonian


def _control_batch(spec: ProblemSpec, y: np.ndarray, z1: np.ndarray,
                   z2: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate drift, noise, cost at one (y, z) for every control point."""
    n_u = spec.control_set.shape[0]
    ys = np.broadcast_to(y, (n_u, y.shape[0]))
    z1s = np.broadcast_to(z1, (n_u, z1.shape[0]))
    z2s = np.broadcast_to(z2, (n_u, z2.shape[0]))
    b = np.asarray(spec.drift(ys, z1s, spec.control_set))
    sig = np.asarray(spec.noise(ys, z2s, spec.control_set))
    l = np.asarray(spec.cost(ys, spec.control_set))
    return b, sig, l


def hamiltonian(spec: ProblemSpec, x: LiftedState, p0: np.ndarray,
                z00: np.ndarray) -> tuple[float, np.ndarray]:
    """Reduced Hamiltonian at a lifted state with head gradient and Hessian.

    Value is -head . p0 plus the best control score
    -drift . p0 - Tr(noise noise^T z00)/2 - cost; ties break to the lowest
    control index. z00 must be symmetric.
    """
    p0 = np.asarray(p0, dtype=float)
    z00 = np.asarray(z00, dtype=float)
    if z00.shape != (spec.n, spec.n):
        raise ValidationError(f"hessian block must be {(spec.n, spec.n)}, got {z00.shape}")
    if not np.allclose(z00, z00.T, rtol=0, atol=1e-12 * max(1.0, np.max(np.abs(z00)))):
        raise ValidationError("hessian block must be symmetric")
    z1 = kernel_convolve(spec.kernel_drift, x.tail)
    z2 = kernel_convolve(spec.kernel_noise, x.tail)
    value, best = _best_score(spec, x.head, z1, z2, p0, z00)
    return value, spec.control_set[best]


def _best_score(spec: ProblemSpec, y: np.ndarray, z1: np.ndarray, z2: np.ndarray,
                p0: np.ndarray, z00: np.ndarray) -> tuple[float, int]:
    """-y . p0 plus the best control score, and the index of that control."""
    b, sig, l = _control_batch(spec, y, z1, z2)
    trace = np.einsum("unq,umq,nm->u", sig, sig, z00)
    scores = -b @ p0 - 0.5 * trace - l
    best = int(np.argmax(scores))
    return float(-y @ p0 + scores[best]), best


# ---------------------------------------------------------------------------
# lag chain


@dataclass(frozen=True, eq=False)
class LagChainSpec:
    """Shift-register Markov approximation with lag step delta = d / m_lag.

    A register [y(t), y(t - delta), ..., y(t - d)] advances by one Euler
    head update (kernel quadrature over the register) followed by a shift.
    Per-step discount is exp(-rho delta).
    """

    spec: ProblemSpec
    m_lag: int
    delta: float
    coarse_grid: SegmentGrid
    wk_drift: np.ndarray
    wk_noise: np.ndarray

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
        window = reg[..., ::-1, :]  # ascending in time, oldest node first
        z1 = np.einsum("jhn,...jn->...h", self.wk_drift, window)
        z2 = np.einsum("jhn,...jn->...h", self.wk_noise, window)
        return z1, z2

    def step(self, reg: np.ndarray, u: np.ndarray, zeta: np.ndarray) -> np.ndarray:
        """Advance registers one lag step; zeta is a standard normal draw."""
        y = reg[..., 0, :]
        z1, z2 = self.delay_integrals(reg)
        b = np.asarray(self.spec.drift(y, z1, u))
        sig = np.asarray(self.spec.noise(y, z2, u))
        y_new = (y + b * self.delta
                 + np.einsum("...nq,...q->...n", sig, zeta) * math.sqrt(self.delta))
        return np.concatenate([y_new[..., None, :], reg[..., :-1, :]], axis=-2)

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
    wk_drift, wk_noise = weighted_kernels(spec, coarse)
    return LagChainSpec(spec=spec, m_lag=m_lag, delta=spec.d / m_lag,
                        coarse_grid=coarse, wk_drift=wk_drift, wk_noise=wk_noise)


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


def _interp_plan(axes: tuple[np.ndarray, ...], pts: np.ndarray,
                 stats: ClampStats | None = None):
    """Multilinear interpolation plan: corner flat indices and weights.

    Axes with a single node are collapsed: they contribute index 0 and do
    not take part in clamp accounting.
    """
    n_pts, dim = pts.shape
    shape = tuple(len(ax) for ax in axes)
    strides = np.ones(dim, dtype=np.int64)
    for a in range(dim - 2, -1, -1):
        strides[a] = strides[a + 1] * shape[a + 1]
    active = [a for a in range(dim) if shape[a] > 1]
    base = np.zeros(n_pts, dtype=np.int64)
    lowers, thetas = [], []
    clamped = np.zeros(n_pts, dtype=bool)
    for a in active:
        ax = axes[a]
        x = pts[:, a]
        clamped |= (x < ax[0]) | (x > ax[-1])
        xc = np.clip(x, ax[0], ax[-1])
        i0 = np.clip(np.searchsorted(ax, xc, side="right") - 1, 0, len(ax) - 2)
        th = (xc - ax[i0]) / (ax[i0 + 1] - ax[i0])
        lowers.append(i0)
        thetas.append(th)
    if stats is not None:
        stats.lookups += n_pts
        stats.clamped += int(np.sum(clamped))
    n_corners = 2 ** len(active)
    idx = np.empty((n_pts, n_corners), dtype=np.int64)
    wts = np.empty((n_pts, n_corners))
    for c, bits in enumerate(itertools.product((0, 1), repeat=len(active))):
        flat = base.copy()
        weight = np.ones(n_pts)
        for (a, bit, i0, th) in zip(active, bits, lowers, thetas):
            flat += (i0 + bit) * strides[a]
            weight *= th if bit else (1.0 - th)
        idx[:, c] = flat
        wts[:, c] = weight
    return idx, wts


@dataclass(eq=False)
class ValueField:
    """Tensor-grid scalar field with multilinear interpolation."""

    axes: tuple[np.ndarray, ...]
    values: np.ndarray

    def __post_init__(self):
        self.axes = tuple(np.asarray(ax, dtype=float) for ax in self.axes)
        shape = tuple(len(ax) for ax in self.axes)
        if self.values.shape != shape:
            raise ValidationError(f"value shape {self.values.shape} != grid {shape}")
        for ax in self.axes:
            if len(ax) > 1 and np.any(np.diff(ax) <= 0):
                raise ValidationError("axes must be strictly increasing")

    @property
    def dim(self) -> int:
        return len(self.axes)

    def nodes(self) -> np.ndarray:
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def interp(self, pts: np.ndarray, stats: ClampStats | None = None) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        idx, wts = _interp_plan(self.axes, pts, stats)
        return np.sum(self.values.ravel()[idx] * wts, axis=1)

    def interp_one(self, pt) -> float:
        return float(self.interp(np.asarray(pt, dtype=float)[None, :])[0])


@dataclass(eq=False)
class PolicyField:
    """Control index per grid node, with nearest-node lookup."""

    axes: tuple[np.ndarray, ...]
    indices: np.ndarray
    control_set: np.ndarray

    def __post_init__(self):
        shape = tuple(len(ax) for ax in self.axes)
        if self.indices.shape != shape:
            raise ValidationError(f"policy shape {self.indices.shape} != grid {shape}")
        if self.indices.size and (self.indices.min() < 0
                                  or self.indices.max() >= self.control_set.shape[0]):
            raise ValidationError("policy indices outside the control set")

    def index_at(self, pts: np.ndarray, stats: ClampStats | None = None) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        n_pts = pts.shape[0]
        node_idx = []
        clamped = np.zeros(n_pts, dtype=bool)
        for a, ax in enumerate(self.axes):
            if len(ax) == 1:
                node_idx.append(np.zeros(n_pts, dtype=np.int64))
                continue
            x = pts[:, a]
            clamped |= (x < ax[0]) | (x > ax[-1])
            xc = np.clip(x, ax[0], ax[-1])
            i0 = np.clip(np.searchsorted(ax, xc, side="right") - 1, 0, len(ax) - 2)
            pick = i0 + (xc - ax[i0] > ax[i0 + 1] - xc)
            node_idx.append(pick.astype(np.int64))
        if stats is not None:
            stats.lookups += n_pts
            stats.clamped += int(np.sum(clamped))
        return self.indices[tuple(node_idx)]

    def control_at(self, pts: np.ndarray, stats: ClampStats | None = None) -> np.ndarray:
        return self.control_set[self.index_at(pts, stats)]


def noise_rule(q: int, points: int = 5) -> tuple[np.ndarray, np.ndarray]:
    """Tensor quadrature for a standard normal draw in q dimensions.

    points = 2 gives the antithetic two-point rule; otherwise Gauss-Hermite.
    """
    if points == 2:
        nodes1, w1 = np.array([-1.0, 1.0]), np.array([0.5, 0.5])
    else:
        nodes1, w1 = hermegauss(points)
        w1 = w1 / w1.sum()
    grids = np.meshgrid(*([nodes1] * q), indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=-1)
    wgrids = np.meshgrid(*([w1] * q), indexing="ij")
    weights = np.prod(np.stack([g.ravel() for g in wgrids], axis=-1), axis=1)
    return nodes, weights


# ---------------------------------------------------------------------------
# value iteration


@dataclass(eq=False)
class ValueIterationResult:
    value: ValueField
    policy: PolicyField
    iterations: int
    residual: float
    clamp_rate: float
    clamp_warning: bool
    residual_history: np.ndarray


def value_iteration(chain: LagChainSpec, axes, tol: float = 1e-6,
                    max_iter: int = 5000, gh_points: int = 5,
                    v0: ValueField | None = None) -> ValueIterationResult:
    """Discounted fixed point of the reduced Bellman operator.

    The noise expectation uses a fixed Gauss-Hermite rule, transitions are
    precomputed as interpolation plans, and out-of-box transitions clamp to
    the boundary (rate above 20 percent sets the warning flag).
    """
    spec = chain.spec
    if spec.rho <= 0:
        raise ValidationError("value iteration needs a positive discount")
    axes = tuple(np.asarray(ax, dtype=float) for ax in axes)
    if len(axes) != chain.state_dim:
        raise ValidationError(f"need {chain.state_dim} axes, got {len(axes)}")
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=-1)
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
    history = []
    shape = tuple(len(ax) for ax in axes)
    best_u = np.zeros(n_nodes, dtype=np.int64)
    for it in range(1, max_iter + 1):
        totals = np.empty((n_u, n_nodes))
        for iu in range(n_u):
            idx, wts = plans[iu]
            totals[iu] = stage[iu] + disc * np.sum(v[idx] * wts, axis=1)
        best_u = np.argmin(totals, axis=0)
        v_new = totals[best_u, np.arange(n_nodes)]
        residual = float(np.max(np.abs(v_new - v)))
        history.append(residual)
        v = v_new
        if residual <= tol:
            return ValueIterationResult(
                value=ValueField(axes, v.reshape(shape)),
                policy=PolicyField(axes, best_u.reshape(shape), spec.control_set),
                iterations=it, residual=residual, clamp_rate=stats.rate,
                clamp_warning=stats.rate > 0.20,
                residual_history=np.asarray(history))
    raise NumericalError(
        f"value iteration did not reach tol {tol:g} in {max_iter} sweeps "
        f"(residual {history[-1]:g})"
    )


# ---------------------------------------------------------------------------
# closed-loop evaluation and the dynamic programming gap


def feedback_from_policy(chain: LagChainSpec, policy: PolicyField, delta: float,
                         stats: ClampStats | None = None) -> FeedbackControl:
    """Feedback control reading the policy at the sampled register."""
    stride_i = _steps_of(chain.delta, delta, "the lag step")
    offsets = np.array([-1 - j * stride_i for j in range(chain.m_lag + 1)])

    def fn(k, t, window):
        reg = window[:, offsets, :]
        flat = chain.flatten(reg)
        return policy.control_at(flat, stats)

    return FeedbackControl(fn)


def policy_mc_value(chain: LagChainSpec, policy: PolicyField, x: LiftedState,
                    T: float, delta: float, n_paths: int, seed: int,
                    clamp_stats: ClampStats | None = None) -> tuple[float, float]:
    """Monte Carlo value of the closed loop driven by a policy field."""
    ctrl = feedback_from_policy(chain, policy, delta, clamp_stats)
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
    tolerance. The same noise draws serve every control (common random
    numbers), and tau must be a multiple of the lag step.
    """
    spec = chain.spec
    k_tau = _steps_of(tau, chain.delta, "tau")
    z0 = chain.flatten(register_from_state(chain, x))
    v_x = value.interp_one(z0)
    if k_tau == 0:
        return DppReport(gap=0.0, stderr=0.0, value_at_x=v_x,
                         best_control_index=0, tau=tau)
    rng = _philox(seed, 0)
    zeta = rng.standard_normal((k_tau, n_paths, spec.q))
    best = (math.inf, 0.0, 0)
    for iu in range(spec.control_set.shape[0]):
        u = np.broadcast_to(spec.control_set[iu], (n_paths, spec.p))
        regs = np.repeat(chain.unflatten(z0)[None, :, :], n_paths, axis=0)
        cost = np.zeros(n_paths)
        for k in range(k_tau):
            cost += math.exp(-spec.rho * k * chain.delta) * chain.running_cost(regs, u)
            regs = chain.step(regs, u, zeta[k])
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
        h = float(np.min(np.diff(ax)))
        if z[a] < ax[1] - 1e-12 or z[a] > ax[-2] + 1e-12:
            raise DomainError(
                f"point must keep a one-node margin on axis {a}: "
                f"{z[a]} not in [{ax[1]}, {ax[-2]}]"
            )
        steps[a] = h

    def v_at(p):
        return value.interp_one(p)

    grad = np.zeros(len(axes))
    for a in range(len(axes)):
        if steps[a] == 0.0:
            continue
        e = np.zeros(len(axes)); e[a] = steps[a]
        grad[a] = (v_at(z + e) - v_at(z - e)) / (2 * steps[a])

    hess = np.zeros((n, n))
    for i in range(n):
        if steps[i] == 0.0:
            continue
        ei = np.zeros(len(axes)); ei[i] = steps[i]
        hess[i, i] = (v_at(z + ei) - 2 * v_at(z) + v_at(z - ei)) / steps[i] ** 2
        for j in range(i + 1, n):
            if steps[j] == 0.0:
                continue
            ej = np.zeros(len(axes)); ej[j] = steps[j]
            hess[i, j] = hess[j, i] = (
                v_at(z + ei + ej) - v_at(z + ei - ej)
                - v_at(z - ei + ej) + v_at(z - ei - ej)
            ) / (4 * steps[i] * steps[j])

    reg = chain.unflatten(z)
    transport = np.zeros(len(axes))
    transport[:n] = -reg[0]
    for j in range(1, chain.m_lag + 1):
        transport[j * n : (j + 1) * n] = (reg[j - 1] - reg[j]) / chain.delta
    ham, _ = _best_score(spec, reg[0], *chain.delay_integrals(reg), grad[:n], hess)
    return float(spec.rho * v_at(z) - transport @ grad + ham)


# ---------------------------------------------------------------------------
# feedback extraction


def _noise_depends_on_control(spec: ProblemSpec, seed: int = 0) -> bool:
    rng = np.random.default_rng(seed)
    y = rng.normal(size=(8, spec.n))
    z = rng.normal(size=(8, spec.kernel_noise.h_dim))
    vals = []
    for u in spec.control_set:
        uu = np.broadcast_to(u, (8, spec.p))
        vals.append(np.asarray(spec.noise(y, z, uu)))
    spread = float(np.max(np.abs(np.max(vals, axis=0) - np.min(vals, axis=0))))
    scale = float(np.max(np.abs(vals))) or 1.0
    return spread > 1e-12 * scale


def _field_gradients(value: ValueField, head_dim: int):
    """Head gradient and Hessian arrays by nodal differences along head axes."""
    grads = []
    for a in range(head_dim):
        ax = value.axes[a]
        if len(ax) == 1:
            grads.append(np.zeros_like(value.values))
        else:
            grads.append(np.gradient(value.values, ax, axis=a))
    hess = [[None] * head_dim for _ in range(head_dim)]
    for i in range(head_dim):
        for j in range(i, head_dim):
            ax = value.axes[j]
            if len(value.axes[i]) == 1 or len(ax) == 1:
                hij = np.zeros_like(value.values)
            else:
                hij = np.gradient(grads[i], ax, axis=j)
            hess[i][j] = hij
            hess[j][i] = hij
    return grads, hess


def extract_feedback(chain: LagChainSpec, value: ValueField) -> PolicyField:
    """Candidate feedback: per-node best control against the head gradient.

    When the noise does not depend on the control the score is the drift
    term plus the running cost; otherwise the diffusion trace term joins in
    with the head Hessian. Ties break to the lowest control index.
    """
    spec = chain.spec
    n = spec.n
    grads, hess = _field_gradients(value, n)
    pts = value.nodes()
    regs = chain.unflatten(pts)
    y = regs[..., 0, :]
    z1, z2 = chain.delay_integrals(regs)
    p0 = np.stack([g.ravel() for g in grads], axis=-1)
    with_trace = _noise_depends_on_control(spec)
    n_nodes = pts.shape[0]
    scores = np.empty((spec.control_set.shape[0], n_nodes))
    for iu, u in enumerate(spec.control_set):
        uu = np.broadcast_to(u, (n_nodes, spec.p))
        b = np.asarray(spec.drift(y, z1, uu))
        score = np.einsum("kn,kn->k", b, p0) + np.asarray(spec.cost(y, uu))
        if with_trace:
            sig = np.asarray(spec.noise(y, z2, uu))
            z00 = np.empty((n_nodes, n, n))
            for i in range(n):
                for j in range(n):
                    z00[:, i, j] = hess[i][j].ravel()
            score = score + 0.5 * np.einsum("knq,kmq,knm->k", sig, sig, z00)
        scores[iu] = score
    best = np.argmin(scores, axis=0)
    shape = tuple(len(ax) for ax in value.axes)
    return PolicyField(value.axes, best.reshape(shape), spec.control_set)


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
    box = [(float(lo), float(hi)) for lo, hi in box]
    dim = len(box)
    axes = [np.linspace(lo, hi, samples) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=-1)
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
    g_axes = [np.linspace(lo + h, hi - h, max(3, samples - 2)) for lo, hi in box]
    g_mesh = np.meshgrid(*g_axes, indexing="ij")
    g_pts = np.stack([g.ravel() for g in g_mesh], axis=-1)
    grads = np.empty_like(g_pts)
    for a in range(dim):
        e = np.zeros(dim); e[a] = h
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
    from .operators import minus_one_norm

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
    bucket mean.
    """
    t = table.sorted()
    n = len(t.distances)
    if n == 0:
        return True, True
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
