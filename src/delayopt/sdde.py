"""Strong simulation of the controlled delay equation.

Explicit Euler-Maruyama on a step grid that divides the delay horizon, so
the history window always aligns with stored nodes and the kernel
quadrature needs no interpolation. Brownian increments come from
counter-based generators keyed on (seed, path index), which makes every
path bit-reproducible and independent across indices. The step loop also
accumulates each path's discounted running cost, so a Monte Carlo estimate
walks the paths once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    LiftedState,
    NumericalError,
    ProblemSpec,
    SegmentGrid,
    ValidationError,
    _delay_integrals,
    resample_segment,
    weighted_kernels,
)


def _philox(seed: int, path_index: int) -> np.random.Generator:
    key = (int(seed) & 0xFFFFFFFFFFFFFFFF) << 64 | (int(path_index) & 0xFFFFFFFFFFFFFFFF)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class BrownianDriver:
    """Counter-based Wiener increment source for one path."""

    seed: int
    path_index: int
    delta: float
    q: int

    def increments(self, n_steps: int) -> np.ndarray:
        """Increment stream, shape (n_steps, q); identical on every call."""
        rng = _philox(self.seed, self.path_index)
        return rng.standard_normal((n_steps, self.q)) * math.sqrt(self.delta)


def batch_increments(seed: int, path_indices, delta: float, q: int,
                     n_steps: int) -> np.ndarray:
    """Stacked increments for several paths, shape (P, n_steps, q)."""
    out = np.empty((len(path_indices), n_steps, q))
    for i, idx in enumerate(path_indices):
        out[i] = BrownianDriver(seed, int(idx), delta, q).increments(n_steps)
    return out


def coarsen_increments(dw: np.ndarray, factor: int) -> np.ndarray:
    """Aggregate fine increments into coarse ones (pairwise sums for factor 2)."""
    steps = dw.shape[-2]
    if steps % factor:
        raise ValidationError(f"{steps} increments not divisible by factor {factor}")
    shape = dw.shape[:-2] + (steps // factor, factor, dw.shape[-1])
    return dw.reshape(shape).sum(axis=-2)


class OpenLoopControl:
    """Piecewise-constant control: one value, or one value per step."""

    def __init__(self, values):
        self.values = np.atleast_1d(np.asarray(values, dtype=float))
        if not np.all(np.isfinite(self.values)):
            raise ValidationError("control values must be finite")

    def resolve(self, k: int, t: float, window: np.ndarray) -> np.ndarray:
        n_paths = window.shape[0]
        if self.values.ndim == 1:
            return np.broadcast_to(self.values, (n_paths, self.values.shape[0]))
        return np.broadcast_to(self.values[k], (n_paths, self.values.shape[1]))


class FeedbackControl:
    """Stationary feedback: a map from the current history window to a control.

    The callback receives (step index, time, window) where window has shape
    (paths, history nodes + 1, n) and covers [t - d, t]; it must return
    controls of shape (paths, p). Evaluation is deterministic by contract.
    """

    def __init__(self, fn):
        self.fn = fn

    def resolve(self, k: int, t: float, window: np.ndarray) -> np.ndarray:
        u = np.asarray(self.fn(k, t, window), dtype=float)
        if u.ndim == 1:
            u = u[:, None]
        return u


@dataclass(frozen=True, eq=False)
class SddePath:
    """One realized trajectory on [-d, T] with the applied control path.

    discounted_cost is the left Riemann sum of the discounted running cost
    over [0, T).
    """

    times: np.ndarray
    states: np.ndarray
    controls: np.ndarray
    discounted_cost: float
    delta: float
    n_history: int
    segment_grid: SegmentGrid

    @property
    def step_times(self) -> np.ndarray:
        """Times from 0 to T."""
        return self.times[self.n_history:]

    @property
    def step_states(self) -> np.ndarray:
        return self.states[self.n_history:]


def _steps_of(span: float, delta: float, what: str) -> int:
    """Number of steps of size delta in span: 0 for a zero span, else at least 1."""
    if not (math.isfinite(delta) and delta > 0):
        raise ValidationError(f"step must be finite and positive, got {delta}")
    if not (math.isfinite(span) and span >= 0):
        raise ValidationError(f"{what} must be finite and nonnegative, got {span}")
    if span == 0:
        return 0
    steps = span / delta
    rounded = round(steps)
    if rounded < 1 or abs(steps - rounded) > 1e-9 * max(1.0, abs(steps)):
        raise ValidationError(
            f"step {delta} must divide {what}={span} (got {steps} steps)"
        )
    return int(rounded)


def _euler_head(spec: ProblemSpec, wk: tuple[np.ndarray, np.ndarray], y: np.ndarray,
                window: np.ndarray, u: np.ndarray, dw: np.ndarray,
                delta: float) -> np.ndarray:
    """One Euler-Maruyama head update of a batch: y (P, n), window (P, J, n)
    on the J-node grid of the tables wk, u (P, p), dw (P, q)."""
    z1, z2 = _delay_integrals(wk, window)
    b = np.asarray(spec.drift(y, z1, u), dtype=float)
    sig = np.asarray(spec.noise(y, z2, u), dtype=float)
    return y + b * delta + np.einsum("pnq,pq->pn", sig, dw)


def _simulate_batch(spec: ProblemSpec, x: LiftedState, ctrl, T: float, delta: float,
                    increments: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Euler-Maruyama over a batch of paths sharing spec, state, and control.

    Returns (times, states (P, K+1+hist, n), controls (P, n_steps, p),
    discounted costs (P,)). The cost is the left Riemann sum of the
    discounted running cost, accumulated as the paths are stepped.
    """
    n_hist = _steps_of(spec.d, delta, "d")
    n_steps = _steps_of(T, delta, "T")
    P = increments.shape[0]
    if n_steps and increments.shape[1] < n_steps:
        raise ValidationError(
            f"need {n_steps} increments, driver provided {increments.shape[1]}"
        )
    step_grid = SegmentGrid(spec.d, n_hist)
    wk = weighted_kernels(spec, step_grid)

    times = delta * np.arange(-n_hist, n_steps + 1)
    states = np.empty((P, n_hist + n_steps + 1, spec.n))
    init_tail = resample_segment(x.tail, step_grid).values
    states[:, : n_hist + 1] = init_tail[None, :, :]
    states[:, n_hist] = x.head[None, :]
    controls = np.empty((P, n_steps, spec.control_set.shape[1]))
    disc = np.exp(-spec.rho * (delta * np.arange(n_steps)))
    cost = np.zeros(P)

    for k in range(n_steps):
        window = states[:, k : k + n_hist + 1]
        y = states[:, k + n_hist]
        u = ctrl.resolve(k, k * delta, window)
        controls[:, k] = u
        cost += disc[k] * np.asarray(spec.cost(y, u), dtype=float)
        y_next = _euler_head(spec, wk, y, window, u, increments[:, k], delta)
        if not np.all(np.isfinite(y_next)):
            raise NumericalError(f"non-finite state at step {k + 1} (t={ (k + 1) * delta:g})")
        states[:, k + n_hist + 1] = y_next
    return times, states, controls, cost * delta


def simulate_sdde(spec: ProblemSpec, x: LiftedState, ctrl, T: float,
                  delta: float, driver: BrownianDriver,
                  increments: np.ndarray | None = None) -> SddePath:
    """Simulate one strong path of the delayed state equation."""
    spec.validate()
    if increments is None:
        increments = driver.increments(_steps_of(T, delta, "T"))
    times, states, controls, cost = _simulate_batch(
        spec, x, ctrl, T, delta, np.asarray(increments, dtype=float)[None, :, :])
    return SddePath(times=times, states=states[0], controls=controls[0],
                    discounted_cost=float(cost[0]), delta=delta,
                    n_history=_steps_of(spec.d, delta, "d"),
                    segment_grid=spec.grid)


MC_CHUNK = 256  # paths per batch; bounds the stored (paths, steps, n) state array


def mc_cost(spec: ProblemSpec, x: LiftedState, ctrl, T: float, delta: float,
            n_paths: int, seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of the discounted cost: (mean, standard error).

    Paths use independent counter-based streams, so the result is
    deterministic in the seed and each path's cost is the one simulate_sdde
    gives for that path's driver.
    """
    if n_paths < 2:
        raise ValidationError("mc_cost needs at least 2 paths")
    spec.validate()
    n_steps = _steps_of(T, delta, "T")
    costs: list[float] = []
    for start in range(0, n_paths, MC_CHUNK):
        idx = np.arange(start, min(start + MC_CHUNK, n_paths))
        dw = batch_increments(seed, idx, delta, spec.q, n_steps)
        costs.extend(_simulate_batch(spec, x, ctrl, T, delta, dw)[3].tolist())
    mean = math.fsum(costs) / n_paths
    var = math.fsum((c - mean) ** 2 for c in costs) / (n_paths - 1)
    return mean, math.sqrt(var / n_paths)

