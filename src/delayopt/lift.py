"""Mild simulation in the lifted space and its agreement with the direct path.

The lifted state evolves by one-step mild Euler: add the drift and noise
increments to the head, then transport the whole state with the explicit
shift semigroup. Agreement with the direct Euler path of the delay equation
is measured pathwise on matched noise, in the head and in the quadrature
distance between the transported tail and the lifted history window.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    LiftedBatch,
    LiftedState,
    NumericalError,
    ProblemSpec,
    Segment,
    SegmentGrid,
    ValidationError,
    interp_columns,
    resample_kernel,
    resample_segment,
    weighted_kernels,
)
from .operators import (_shift_tail, assemble_gram_operator, minus_one_norm,
                        spectral_decomposition)
from .sdde import (
    SddePath,
    _euler_head,
    _mean_stderr,
    _simulate_batch,
    _steps_of,
    batch_increments,
    coarsen_increments,
    simulate_sdde,
)


def with_resolution(spec: ProblemSpec, m: int) -> ProblemSpec:
    """Copy of a problem with the segment grid refined or coarsened to m."""
    grid = SegmentGrid(spec.d, m)
    return dataclasses.replace(
        spec,
        grid=grid,
        kernel_drift=resample_kernel(spec.kernel_drift, grid),
        kernel_noise=resample_kernel(spec.kernel_noise, grid),
    )


def simulate_mild(spec: ProblemSpec, x: LiftedState, ctrl, T: float, delta: float,
                  increments: np.ndarray) -> LiftedBatch:
    """One-step mild Euler for the lifted equation on one path's increments
    (>= K, q), the array its direct counterpart simulate_sdde is given. The
    path is the batch of its states at the K + 1 step times.

    Per step the drift and noise enter the head only; the shift semigroup
    then transports the combined state, which folds the new head value into
    the most recent stretch of history.
    """
    n_steps = _steps_of(T, delta, "T")
    _steps_of(spec.d, delta, "d")
    if len(increments) < n_steps:
        raise ValidationError(f"need {n_steps} increments, got {len(increments)}")
    grid = spec.grid
    wk = weighted_kernels(spec, grid)
    heads = np.empty((n_steps + 1, spec.n))
    tails = np.empty((n_steps + 1, grid.m + 1, spec.n))
    heads[0] = x.head
    tails[0] = x.tail.values
    for k in range(n_steps):
        head, tail = heads[k], tails[k]
        u = ctrl(tail[None])
        head_new = _euler_head(spec, wk, head[None, :], tail[None, :, :], u,
                               increments[None, k], delta)[0]
        if not np.all(np.isfinite(head_new)):
            raise NumericalError(f"non-finite lifted head at step {k + 1}")
        tails[k + 1] = _shift_tail(delta, grid.nodes, tail, head_new)
        heads[k + 1] = head_new
    return LiftedBatch(grid, heads, tails)


def _lift_at(t: float, times: np.ndarray, states: np.ndarray,
             grid: SegmentGrid) -> tuple[np.ndarray, np.ndarray]:
    """(values at t (..., n), windows over [t - d, t] on grid (..., m+1, n))
    of paths states (..., J, n) tabulated at times."""
    shape = states.shape[:-2] + states.shape[-1:]
    cols = np.moveaxis(states, -2, 0).reshape(len(times), -1)
    vals = interp_columns(np.concatenate([[t], t + grid.nodes]), times, cols)
    # each path's lift contiguous, as for one path: quadrature sums follow
    # memory order, so a batch sums each sample as its LiftedState would
    vals = np.ascontiguousarray(np.moveaxis(vals.reshape((grid.m + 2,) + shape), 0, -2))
    return vals[..., 0, :], vals[..., 1:, :]


def lift_history(path: SddePath, t: float) -> LiftedState:
    """Lift of the direct path at time t: (current value, trailing window).

    The window over [t - d, t] is resampled onto the segment grid of the
    problem the path was simulated from.
    """
    t_lo, t_hi = float(path.times[path.n_history]), float(path.times[-1])
    if t < t_lo - 1e-12 or t > t_hi + 1e-12:
        raise ValueError(f"time {t} outside simulated range [{t_lo}, {t_hi}]")
    head, tail = _lift_at(t, path.times, path.states, path.segment_grid)
    return LiftedState(head, Segment(path.segment_grid, tail))


@dataclass(frozen=True)
class EquivalenceLevel:
    delta: float
    m: int
    head_mismatch: float
    tail_mismatch: float
    head_scale: float


@dataclass(frozen=True)
class EquivalenceReport:
    """Pathwise lift agreement at a base resolution and after joint halving.

    head_ratio is the base head mismatch over the refined one: inf when
    only the refined level agrees exactly, nan when both do.
    """

    base: EquivalenceLevel
    refined: EquivalenceLevel
    head_ratio: float


def _mismatch(spec: ProblemSpec, path: SddePath, lifted: LiftedBatch) -> EquivalenceLevel:
    grid = spec.grid
    y = path.states[path.n_history:]
    head_mis = float(np.max(np.linalg.norm(lifted.heads - y, axis=1)))
    # the lifted history window at every step time, in one interpolation
    t = path.delta * np.arange(y.shape[0])
    windows = interp_columns((t[:, None] + grid.nodes).ravel(), path.times, path.states)
    diff = lifted.tails - windows.reshape(lifted.tails.shape)
    tail_sq = np.sum(grid.weights[:, None] * diff * diff, axis=(1, 2))
    tail_mis = math.sqrt(float(np.max(tail_sq)))
    return EquivalenceLevel(delta=path.delta, m=grid.m, head_mismatch=head_mis,
                            tail_mismatch=tail_mis,
                            head_scale=1.0 + float(np.max(np.linalg.norm(y, axis=1))))


def equivalence_report(spec: ProblemSpec, x: LiftedState, ctrl, T: float,
                       delta: float, seed: int) -> EquivalenceReport:
    """Run both simulators on matched noise; report mismatches and halving ratios.

    The refined level uses half the step and double the segment resolution,
    with the coarse increments aggregated from the fine ones so both levels
    see the same Brownian path.
    """
    n_steps = _steps_of(T, delta, "T")
    if n_steps == 0:
        raise ValidationError("the agreement report needs a positive horizon T")
    fine = batch_increments(seed, [0], delta / 2, spec.q, 2 * n_steps)[0]
    coarse = coarsen_increments(fine, 2)

    path = simulate_sdde(spec, x, ctrl, T, delta, coarse)
    lifted = simulate_mild(spec, x, ctrl, T, delta, coarse)
    base = _mismatch(spec, path, lifted)

    spec_f = with_resolution(spec, 2 * spec.grid.m)
    x_f = LiftedState(x.head, resample_segment(x.tail, spec_f.grid))
    path_f = simulate_sdde(spec_f, x_f, ctrl, T, delta / 2, fine)
    lifted_f = simulate_mild(spec_f, x_f, ctrl, T, delta / 2, fine)
    refined = _mismatch(spec_f, path_f, lifted_f)

    if refined.head_mismatch > 0:
        ratio = base.head_mismatch / refined.head_mismatch
    else:  # 0/0 when both levels agree exactly: no halving to report
        ratio = math.nan if base.head_mismatch == 0 else math.inf
    return EquivalenceReport(base=base, refined=refined, head_ratio=ratio)


@dataclass(frozen=True)
class ContractionReport:
    """Monte Carlo two-point spread in the weak norm against its growth bound."""

    lhs: float
    stderr: float
    rhs: float

    @property
    def ok(self) -> bool:
        return self.lhs <= self.rhs + 2.0 * self.stderr


def contraction_probe(spec: ProblemSpec, x: LiftedState, y: LiftedState, ctrl,
                      r: float, n_paths: int, delta: float,
                      seed: int = 0) -> ContractionReport:
    """Estimate mean squared weak-norm spread of matched-noise solution pairs.

    The bound is exp((2C + C^2 |B|) r) times the initial squared weak
    distance, with C the declared coefficient constant and |B| the largest
    Gram eigenvalue.
    """
    decomp = spectral_decomposition(assemble_gram_operator(spec.grid))
    c = spec.growth_const
    rate = 2.0 * c + c * c * decomp.operator_norm
    d0 = minus_one_norm(x - y)
    rhs = math.exp(rate * r) * d0 * d0

    n_steps = _steps_of(r, delta, "r")
    # matched noise: both batches draw path i from the stream keyed on (seed, i)
    wx = _simulate_batch(spec, x, ctrl, r, delta, (seed, n_paths)).window
    wy = _simulate_batch(spec, y, ctrl, r, delta, (seed, n_paths)).window
    times = delta * np.arange(n_steps + 1 - wx.shape[1], n_steps + 1)
    (hx, tx), (hy, ty) = _lift_at(r, times, wx, spec.grid), _lift_at(r, times, wy, spec.grid)
    lhs, stderr = _mean_stderr(minus_one_norm(LiftedBatch(spec.grid, hx - hy, tx - ty)) ** 2)
    return ContractionReport(lhs=lhs, stderr=stderr, rhs=rhs)

