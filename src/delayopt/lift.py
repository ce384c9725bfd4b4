"""Mild simulation in the lifted space and its agreement with the direct path.

The lifted state evolves by one-step mild Euler: add the drift and noise
increments to the head, then transport the whole state with the explicit
shift semigroup. The direct Euler path of the delay equation lifts to the
same space by history_lift: at time t, its value and its window over
[t - d, t] on the segment grid. The two are compared pathwise on matched
noise, in the head and in the quadrature distance between the transported
tail and the lifted window.
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
    SegmentGrid,
    ValidationError,
    interp_columns,
    lifted_norm,
    resample_kernel,
    weighted_kernels,
)
from .operators import _shift_tail
from .sdde import (
    Simulation,
    _euler_head,
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
    (>= K, q), the row its direct counterpart simulate_sdde is given. The
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
    tails[0] = x.tail
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


def history_lift(grid: SegmentGrid, times: np.ndarray, states: np.ndarray,
                 at: np.ndarray) -> LiftedBatch:
    """Lift of a direct path, its states (N, n) at its step times (N,), at
    each of at (T,): its window over [t - d, t] on grid, interpolated
    between step times, and its value there, the window's node at 0. Each
    sample's tail is C-contiguous, so its forms and norms are bitwise those
    of its one-sample slice."""
    tails = interp_columns((at[:, None] + grid.nodes).ravel(), times, states)
    tails = tails.reshape(len(at), grid.m + 1, -1)
    return LiftedBatch(grid, tails[:, -1].copy(), tails)


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


def _mismatch(delta: float, path: Simulation, lifted: LiftedBatch) -> EquivalenceLevel:
    """Head and quadrature tail distances, largest over the step times 0 .. T,
    between the mild path and the kept direct path's history lift on the mild
    path's grid at the same times."""
    grid = lifted.grid
    direct = history_lift(grid, path.times, path.states[0],
                          path.times[-len(lifted.heads):])
    head_mis = float(np.max(np.linalg.norm(lifted.heads - direct.heads, axis=1)))
    tail_diff = LiftedBatch(grid, np.zeros_like(direct.heads), lifted.tails - direct.tails)
    tail_mis = float(np.max(lifted_norm(tail_diff)))
    return EquivalenceLevel(delta=delta, m=grid.m, head_mismatch=head_mis,
                            tail_mismatch=tail_mis,
                            head_scale=1.0 + float(np.max(np.linalg.norm(direct.heads, axis=1))))


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
    spec_f = with_resolution(spec, 2 * spec.grid.m)
    levels = []
    for sp, state, step, dw in ((spec, x, delta, coarsen_increments(fine, 2)),
                                (spec_f, x.resampled(spec_f.grid), delta / 2, fine)):
        path = simulate_sdde(sp, state, ctrl, T, step, dw[None], keep=1)
        lifted = simulate_mild(sp, state, ctrl, T, step, dw)
        levels.append(_mismatch(step, path, lifted))
    base, refined = levels
    if refined.head_mismatch > 0:
        ratio = base.head_mismatch / refined.head_mismatch
    else:  # 0/0 when both levels agree exactly: no halving to report
        ratio = math.nan if base.head_mismatch == 0 else math.inf
    return EquivalenceReport(base=base, refined=refined, head_ratio=ratio)
