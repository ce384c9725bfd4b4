"""Strong simulation of the controlled delay equation.

Explicit Euler-Maruyama on a step grid that divides the delay horizon, so
the history window always aligns with stored nodes and the kernel
quadrature needs no interpolation. Path i's Brownian increments come from
the counter-based stream keyed on (seed, i), drawn by `_increment_blocks`
alone, so every path is bit-reproducible and independent of the others.
The strong simulator, `simulate_sdde`, takes noise as (seed, P), paths
0 .. P - 1, or as an explicit increment array that callers share or
coarsen, and steps every path of a batch at once in one streaming pass: it
draws the increments BLOCK steps at a time from each path's stream, holding
one block at a time, keeps a rolling buffer of the last history window plus
one block, and charges each path's discounted running cost at every step.
It keeps every path's cost and final window, and the whole trajectory only
of the paths a caller asks to keep, so memory is O(paths (history nodes +
BLOCK) n) plus the kept paths and does not grow with T. Every estimate
reduces its per-path samples with the one compensated-sum statistic
`_mean_stderr`.

A control is any callable from a batch of history windows to controls.
The window has shape (paths, history nodes + 1, n) and covers [t - d, t],
newest node last, on the simulator's grid (the step grid here, the segment
grid in `lift.simulate_mild`). The control returns shape (paths, p) and is
deterministic. So every control is a stationary feedback of the window,
and `OpenLoopControl` is the constant special case.
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
    weighted_kernels,
)


def _philox(seed: int, path_index: int) -> np.random.Generator:
    key = (int(seed) & 0xFFFFFFFFFFFFFFFF) << 64 | (int(path_index) & 0xFFFFFFFFFFFFFFFF)
    return np.random.Generator(np.random.Philox(key=key))


BLOCK = 256  # steps per increment block: the window buffer holds n_hist + 1 + BLOCK nodes


def _increment_blocks(seed: int, path_indices, delta: float, q: int, n_steps: int):
    """Increments of the given paths, BLOCK steps at a time, shape (P, b, q).
    The one draw from the Philox streams: each path continues its own stream
    from block to block, so no block split changes a bit of its increments.
    No reference to a yielded block stays here, so a consumer that drops
    each block before asking for the next holds one block at a time."""
    rngs = [_philox(seed, i) for i in path_indices]
    scale = math.sqrt(delta)

    def draw(b: int) -> np.ndarray:
        block = np.empty((len(rngs), b, q))
        for out, rng in zip(block, rngs):
            rng.standard_normal(out.shape, out=out)
        block *= scale
        return block

    for k0 in range(0, n_steps, BLOCK):
        yield draw(min(BLOCK, n_steps - k0))


def batch_increments(seed: int, path_indices, delta: float, q: int,
                     n_steps: int) -> np.ndarray:
    """Increments of the given paths, shape (P, n_steps, q): the blocks of
    _increment_blocks joined, so a path's row is the same in every batch."""
    blocks = _increment_blocks(seed, path_indices, delta, q, n_steps)
    return np.concatenate([np.empty((len(path_indices), 0, q)), *blocks], axis=1)


@dataclass(frozen=True)
class BrownianDriver:
    """One path's increments; no caller in the package. The benchmark's tracer
    wraps this method by name until ROADMAP item 7 re-keys it and deletes this."""

    seed: int
    path_index: int
    delta: float
    q: int

    def increments(self, n_steps: int) -> np.ndarray:
        return batch_increments(self.seed, [self.path_index], self.delta, self.q, n_steps)[0]


def coarsen_increments(dw: np.ndarray, factor: int) -> np.ndarray:
    """Aggregate fine increments into coarse ones (pairwise sums for factor 2)."""
    steps = dw.shape[-2]
    if steps % factor:
        raise ValidationError(f"{steps} increments not divisible by factor {factor}")
    shape = dw.shape[:-2] + (steps // factor, factor, dw.shape[-1])
    return dw.reshape(shape).sum(axis=-2)


class OpenLoopControl:
    """Constant control: the same value at every window."""

    def __init__(self, values):
        self.values = np.atleast_1d(np.asarray(values, dtype=float))
        if self.values.ndim != 1 or not np.all(np.isfinite(self.values)):
            raise ValidationError("control values must be one finite vector")

    def __call__(self, window: np.ndarray) -> np.ndarray:
        return np.broadcast_to(self.values, (window.shape[0], self.values.shape[0]))


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
    on the J-node grid of the tables wk, u (P, p), dw (P, q).

    dw may also stack G increments of the batch, (G, P, q), for G updates
    (G, P, n) from one evaluation of the drift, noise and delay integrals;
    each is bitwise the update of its own (P, q) slice."""
    z1, z2 = _delay_integrals(wk, window)
    b = np.asarray(spec.drift(y, z1, u), dtype=float)
    sig = np.asarray(spec.noise(y, z2, u), dtype=float)
    return y + b * delta + np.einsum("pnq,...pq->...pn", sig, dw)


def _start_window(x: LiftedState, grid: SegmentGrid) -> np.ndarray:
    """The history window of a state on grid, (m + 1, n) oldest node first:
    the tail resampled onto grid, with the last node (time 0) set to the head."""
    return np.concatenate([x.resampled(grid).tail[:-1], x.head[None, :]])


@dataclass(frozen=True, eq=False)
class Simulation:
    """What one pass over a batch of P paths keeps."""

    costs: np.ndarray      # (P,) discounted costs
    window: np.ndarray     # (P, n_hist + 1, n) every path's final window [T - d, T]
    times: np.ndarray      # (n_hist + 1 + K,) the step times -d .. T of the kept paths
    states: np.ndarray     # (keep, n_hist + 1 + K, n) paths 0 .. keep - 1 at those times
    controls: np.ndarray   # (keep, K, p) their controls at the step times 0 .. T - delta


def simulate_sdde(spec: ProblemSpec, x: LiftedState, ctrl, T: float, delta: float,
                  noise, keep: int = 0) -> Simulation:
    """Euler-Maruyama over a batch of paths sharing spec, state, and control.

    noise is either explicit increments (P, >= K, q) or a pair (seed, P):
    paths 0 .. P - 1 drawn from their own streams (_increment_blocks). Both
    are read BLOCK steps at a time, a step reading its (P, q) increments in
    place, and a block is let go before the next is drawn. The paths
    advance in a path-major buffer of n_hist + 1 + B nodes, B the block
    length; at each block boundary the last n_hist + 1 nodes move to the
    front, so every window is a contiguous [t - d, t] slice. The pass needs
    O(P (n_hist + BLOCK) n) memory plus the kept paths, independent of T:
    paths 0 .. keep - 1 (keep <= P) keep their states on [-d, T] and their
    controls. The cost is the left Riemann sum of the discounted running
    cost: each step adds spec.cost of the head and the step's control,
    before the Euler update, in step order.
    """
    n_hist = _steps_of(spec.d, delta, "d")
    n_steps = _steps_of(T, delta, "T")
    if isinstance(noise, np.ndarray):
        P = noise.shape[0]
        if n_steps and noise.shape[1] < n_steps:
            raise ValidationError(f"need {n_steps} increments, got {noise.shape[1]}")
        blocks = (noise[:, k0 : min(k0 + BLOCK, n_steps)] for k0 in range(0, n_steps, BLOCK))
    else:
        seed, P = noise
        if P < 0:
            raise ValidationError(f"path count must be nonnegative, got {P}")
        blocks = _increment_blocks(seed, range(P), delta, spec.q, n_steps)
    step_grid = SegmentGrid(spec.d, n_hist)
    wk = weighted_kernels(spec, step_grid)
    width = min(BLOCK, n_steps)

    buf = np.empty((P, n_hist + 1 + width, spec.n))
    buf[:, : n_hist + 1] = _start_window(x, step_grid)[None, :, :]
    y = buf[:, n_hist].copy()
    states = np.empty((keep, n_hist + 1 + n_steps, spec.n))
    states[:, : n_hist + 1] = buf[:keep, : n_hist + 1]
    controls = np.empty((keep, n_steps, spec.control_set.shape[1]))
    cost = np.zeros(P)

    k0 = 0
    for dw in blocks:
        b = dw.shape[1]
        disc = np.exp(-spec.rho * (delta * np.arange(k0, k0 + b)))
        for j in range(b):
            window = buf[:, j : j + n_hist + 1]
            u = ctrl(window)
            controls[:, k0 + j] = u[:keep]
            cost += disc[j] * np.asarray(spec.cost(y, u), dtype=float)
            y = _euler_head(spec, wk, y, window, u, dw[:, j], delta)
            if not np.isfinite(y).all():
                k = k0 + j + 1
                raise NumericalError(f"non-finite state at step {k} (t={k * delta:g})")
            buf[:, j + n_hist + 1] = y
        del dw  # the next block is drawn while no other is held
        states[:, n_hist + 1 + k0 : n_hist + 1 + k0 + b] = buf[:keep, n_hist + 1 : n_hist + 1 + b]
        buf[:, : n_hist + 1] = buf[:, b : b + n_hist + 1]
        k0 += b
    return Simulation(costs=cost * delta, window=buf[:, : n_hist + 1],
                      times=delta * np.arange(-n_hist, n_steps + 1), states=states,
                      controls=controls)


def _mean_stderr(samples) -> tuple[float, float]:
    """(mean, standard error) of per-path samples by compensated summation.

    One path has no standard error, so fewer than 2 samples are refused. A
    non-finite sample raises NumericalError, as a non-finite state does.
    """
    xs = np.asarray(samples, dtype=float).ravel()
    n = len(xs)
    if n < 2:
        raise ValidationError(f"a Monte Carlo estimate needs at least 2 paths, got {n}")
    if bad := n - int(np.count_nonzero(np.isfinite(xs))):
        raise NumericalError(f"{bad} of {n} Monte Carlo samples are not finite")
    xs = xs.tolist()
    mean = math.fsum(xs) / n
    var = math.fsum((c - mean) ** 2 for c in xs) / (n - 1)
    return mean, math.sqrt(var / n)


# the bench trace binds the arguments by these positional names (bench/spans.py, _MC_ARGS)
def mc_cost(spec: ProblemSpec, x: LiftedState, ctrl, T: float, delta: float,
            n_paths: int, seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of the discounted cost: (mean, standard error).

    All paths step together in one streaming pass (simulate_sdde), each
    drawing from its own counter-based stream, so the result is
    deterministic in the seed, path i's cost is the one a pass gives on
    path i's increments alone, and no batching or block size changes a bit
    of it. Memory does not grow with T.
    """
    return _mean_stderr(simulate_sdde(spec, x, ctrl, T, delta, (seed, n_paths)).costs)
