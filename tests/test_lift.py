import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from conftest import batch_of

from delayopt import models
from delayopt.core import (LiftedState, NumericalError, ValidationError, interp_columns,
                           kernel_convolve)
from delayopt.lift import (
    equivalence_report,
    history_lift,
    simulate_mild,
    with_resolution,
)
from delayopt.models import AdvertisingParams, AffineTestParams, build_advertising, build_affine_test
from delayopt.operators import (
    apply_shift_semigroup,
    assemble_gram_operator,
    minus_one_norm,
    spectral_decomposition,
)
from delayopt.sdde import (OpenLoopControl, _mean_stderr, _steps_of, batch_increments,
                           simulate_sdde)

SPECS = Path(__file__).resolve().parent.parent / "specs"


def zero_dynamics_spec(m=10):
    p = AffineTestParams(drift_const=(0.0,), drift_state=((0.0,),),
                         drift_delay=((0.0,),), drift_control=((0.0,),),
                         noise_const=((0.0,),), kernel_scale=0.0,
                         rho=1.0, d=1.0, x0=(0.5,), x1=(0.0,))
    return build_affine_test(p, m)


def test_pure_transport_matches_semigroup_orbit():
    # no drift, no noise, step equal to the node spacing: the mild path is
    # the exact shift orbit
    spec = zero_dynamics_spec(m=10)
    g = spec.grid
    x = LiftedState(g, [0.5], np.sin(np.pi * g.nodes)[:, None])
    delta = g.h
    lp = simulate_mild(spec, x, OpenLoopControl([0.0]), 1.0, delta, np.zeros((10, 1)))
    for k in range(11):
        orbit = apply_shift_semigroup(k * delta, batch_of(x))
        np.testing.assert_allclose(lp.tails[k], orbit.tails[0], atol=1e-12)
        np.testing.assert_allclose(lp.heads[k], orbit.heads[0], atol=1e-12)


def test_constant_drift_head():
    p = AffineTestParams(drift_const=(0.7,), drift_state=((0.0,),),
                         drift_delay=((0.0,),), drift_control=((0.0,),),
                         noise_const=((0.0,),), kernel_scale=0.0,
                         rho=1.0, x0=(0.0,), x1=(0.0,))
    spec = build_affine_test(p, 10)
    x = models.initial_state(spec)
    lp = simulate_mild(spec, x, OpenLoopControl([0.0]), 2.0, 0.05, np.zeros((40, 1)))
    assert lp.heads[-1, 0] == pytest.approx(1.4, abs=1e-12)
    # the increments are given, never drawn, so too few of them are refused
    with pytest.raises(ValidationError, match="need 40 increments, got 39"):
        simulate_mild(spec, x, OpenLoopControl([0.0]), 2.0, 0.05, np.zeros((39, 1)))


def test_mild_path_refuses_a_nonfinite_head():
    spec = dataclasses.replace(zero_dynamics_spec(),
                               drift=lambda y, z, u: np.full(y.shape, np.inf))
    x = models.initial_state(spec)
    with pytest.raises(NumericalError, match="non-finite lifted head at step 1"):
        simulate_mild(spec, x, OpenLoopControl([0.0]), 0.5, 0.1, np.zeros((5, 1)))


def test_lift_history_at_time_zero():
    spec = build_advertising(AdvertisingParams(), 50)
    x = models.initial_state(spec)
    path = simulate_sdde(spec, x, OpenLoopControl([0.5]), 1.0, 0.02, (1, 1), keep=1)
    lifted = history_lift(spec.grid, path.times, path.states[0], np.array([0.0]))
    np.testing.assert_allclose(lifted.heads[0], x.head, atol=1e-12)
    np.testing.assert_allclose(lifted.tails[0, :-1], x.tail[:-1],
                               atol=1e-12)
    # the node at 0 reads the head, not the stored segment value
    np.testing.assert_allclose(lifted.tails[0, -1], x.head, atol=1e-12)


def test_lift_history_constant_path():
    spec = zero_dynamics_spec()
    g = spec.grid
    x = LiftedState(g, [0.5], np.full((g.m + 1, 1), 0.5))
    path = simulate_sdde(spec, x, OpenLoopControl([0.0]), 1.0, 0.1, np.zeros((1, 10, 1)), keep=1)
    lifted = history_lift(g, path.times, path.states[0], np.array([0.7]))
    np.testing.assert_allclose(lifted.heads[0], [0.5], atol=1e-14)
    np.testing.assert_allclose(lifted.tails[0], 0.5, atol=1e-14)


def test_lift_history_linear_path():
    # unit drift from zero with linear history: y(s) = s; at t = d the lift
    # is (d, d + xi)
    p = AffineTestParams(drift_const=(1.0,), drift_state=((0.0,),),
                         drift_delay=((0.0,),), drift_control=((0.0,),),
                         noise_const=((0.0,),), kernel_scale=0.0,
                         rho=1.0, d=1.0, x0=(0.0,), x1=(0.0,))
    spec = build_affine_test(p, 10)
    g = spec.grid
    x = LiftedState(g, [0.0], g.nodes[:, None])
    path = simulate_sdde(spec, x, OpenLoopControl([0.0]), 2.0, 0.1, np.zeros((1, 20, 1)), keep=1)
    lifted = history_lift(g, path.times, path.states[0], np.array([1.0]))
    np.testing.assert_allclose(lifted.heads[0], [1.0], atol=1e-12)
    np.testing.assert_allclose(lifted.tails[0, :, 0], 1.0 + g.nodes, atol=1e-12)


@pytest.mark.parametrize("spec_file", ["advertising.json", "merton_delay.json"])
def test_history_lift_at_step_times_is_the_path_and_its_interpolated_window(spec_file):
    # at the path's own step times the heads are its states, and the tails
    # are the window interpolation lift-check computed inline, bit for bit
    spec = models.load_spec_file(SPECS / spec_file)
    path = simulate_sdde(spec, models.initial_state(spec), OpenLoopControl(spec.control_set[1]),
                         0.5, 0.01, (3, 1), keep=1)
    steps = path.times >= 0
    t, states = path.times[steps], path.states[0]
    lifted = history_lift(spec.grid, path.times, states, t)
    np.testing.assert_array_equal(lifted.heads, states[steps])
    windows = interp_columns((t[:, None] + spec.grid.nodes).ravel(), path.times, states)
    np.testing.assert_array_equal(lifted.tails, windows.reshape(lifted.tails.shape))


# ---------------------------------------------------------------------------
# pathwise agreement


def test_equivalence_zero_dynamics_interp_error_only():
    spec = zero_dynamics_spec(m=10)
    g = spec.grid
    # continuous initial state sampled on the nodes: the shift lands on
    # nodes at every step, so both metrics vanish to rounding
    smooth = LiftedState(g, [0.5], (0.5 * np.cos(np.pi * g.nodes))[:, None])
    rep = equivalence_report(spec, smooth, OpenLoopControl([0.0]), T=1.0,
                             delta=0.1, seed=0)
    assert rep.base.head_mismatch <= 1e-12
    assert rep.base.tail_mismatch <= 1e-10
    # a head/tail jump is smeared by transport: the mismatch is exactly the
    # interpolation error of the jump, bounded by |jump| sqrt(h)
    jump = models.initial_state(spec)  # head 0.5 over a zero tail
    rep2 = equivalence_report(spec, jump, OpenLoopControl([0.0]), T=1.0,
                              delta=0.1, seed=0)
    assert rep2.base.head_mismatch <= 1e-12
    assert rep2.base.tail_mismatch <= 0.5 * math.sqrt(g.h)


def test_equivalence_advertising_within_tolerance():
    spec = build_advertising(AdvertisingParams(), 100)
    x = models.initial_state(spec)
    rep = equivalence_report(spec, x, OpenLoopControl([0.5]), T=1.0, delta=1e-3,
                             seed=11)
    assert rep.base.head_mismatch <= 0.05 * rep.base.head_scale
    assert 1.3 <= rep.head_ratio <= 3.0


def test_equivalence_merton_constant_control():
    spec = models.load_spec_file(SPECS / "merton_delay.json")
    x = models.initial_state(spec)
    rep = equivalence_report(spec, x, OpenLoopControl([0.5]), T=0.5, delta=1e-3,
                             seed=7)
    assert rep.base.head_mismatch <= 0.05 * rep.base.head_scale


# ---------------------------------------------------------------------------
# two-point spread bound


@dataclass(frozen=True)
class ContractionReport:
    """Monte Carlo two-point spread in the weak norm against its growth bound."""

    lhs: float
    stderr: float
    rhs: float

    @property
    def ok(self) -> bool:
        return self.lhs <= self.rhs + 2.0 * self.stderr


def contraction_probe(spec, x, y, ctrl, r, n_paths, delta, seed):
    """Mean squared weak-norm spread at time r of solution pairs from x and y
    on matched noise (path i of both from the stream keyed on (seed, i)).

    The bound is exp((2C + C^2 |B|) r) times the initial squared weak
    distance, with C the declared coefficient constant and |B| the largest
    Gram eigenvalue.
    """
    decomp = spectral_decomposition(assemble_gram_operator(spec.grid))
    c = spec.growth_const
    rate = 2.0 * c + c * c * decomp.operator_norm
    d0 = minus_one_norm(batch_of(x) - batch_of(y))[0]
    rhs = math.exp(rate * r) * d0 * d0
    spreads, at_r = [], np.array([r])
    for dw in batch_increments(seed, range(n_paths), delta, spec.q, _steps_of(r, delta, "r")):
        paths = [simulate_sdde(spec, s, ctrl, r, delta, dw[None], keep=1) for s in (x, y)]
        lx, ly = (history_lift(spec.grid, p.times, p.states[0], at_r) for p in paths)
        spreads.append(minus_one_norm(lx - ly)[0] ** 2)
    lhs, stderr = _mean_stderr(spreads)
    return ContractionReport(lhs=lhs, stderr=stderr, rhs=rhs)


def test_contraction_identical_states():
    spec = build_advertising(AdvertisingParams(), 40)
    x = models.initial_state(spec)
    rep = contraction_probe(spec, x, x, OpenLoopControl([0.5]), r=0.5,
                            n_paths=8, delta=0.01, seed=0)
    assert rep.lhs == 0.0 and rep.rhs == 0.0


def test_contraction_deterministic_affine():
    p = AffineTestParams(noise_const=((0.0,),), x0=(1.0,), x1=(1.0,))
    spec = build_affine_test(p, 40)
    x = models.initial_state(spec)
    y = LiftedState(spec.grid, x.head + 0.5, x.tail - 0.3)
    rep = contraction_probe(spec, x, y, OpenLoopControl([0.5]), r=0.5,
                            n_paths=4, delta=0.01, seed=0)
    assert rep.stderr <= 1e-12
    assert rep.lhs <= rep.rhs


def test_contraction_probe_refuses_one_path():
    # one path has no standard error
    spec = build_advertising(AdvertisingParams(), 40)
    x = models.initial_state(spec)
    y = LiftedState(spec.grid, x.head + 0.3, x.tail)
    with pytest.raises(ValidationError, match="at least 2 paths"):
        contraction_probe(spec, x, y, OpenLoopControl([0.5]), r=0.5,
                          n_paths=1, delta=0.01, seed=0)


def test_contraction_advertising_monte_carlo():
    spec = build_advertising(AdvertisingParams(), 50)
    x = models.initial_state(spec)
    y = LiftedState(spec.grid, x.head + 0.3, x.tail - 0.2)
    rep = contraction_probe(spec, x, y, OpenLoopControl([0.5]), r=0.5,
                            n_paths=100, delta=0.01, seed=3)
    assert rep.ok


# ---------------------------------------------------------------------------
# coefficient continuity in the weak norm, measured on simulated pairs


def head_drift_lifted(spec, head, tail, u):
    z1 = kernel_convolve(spec.kernel_drift, tail)
    b0 = np.asarray(spec.drift(head, z1, u))
    return b0 + head  # drift of the rewritten equation acts on the head


def test_coefficient_lipschitz_in_weak_norm_stable_under_refinement():
    fits = []
    for m in (50, 100):
        spec = build_advertising(AdvertisingParams(), m)
        rng = np.random.default_rng(17)
        g = spec.grid
        u = np.array([0.5])
        worst = 0.0
        from delayopt.operators import random_smooth_state
        for _ in range(60):
            x = random_smooth_state(g, 1, rng, domain=False)
            y = random_smooth_state(g, 1, rng, domain=False)
            db = np.linalg.norm(head_drift_lifted(spec, x.heads[0], x.tails[0], u)
                                - head_drift_lifted(spec, y.heads[0], y.tails[0], u))
            dist = minus_one_norm(x - y)[0]
            worst = max(worst, db / dist)
        fits.append(worst)
    assert fits[0] / fits[1] == pytest.approx(1.0, abs=0.5)


def test_coefficient_lipschitz_on_simulated_pairs():
    # same inequality evaluated on lifted snapshots of two noisy paths
    spec = build_advertising(AdvertisingParams(), 50)
    x = models.initial_state(spec)
    u_arr = np.array([0.5])
    ctrl = OpenLoopControl(u_arr)
    dw = batch_increments(41, [0, 1], 0.01, 1, 200)
    pair = simulate_sdde(spec, x, ctrl, 2.0, 0.01, dw, keep=2)
    times = np.linspace(0.2, 2.0, 10)
    la, lb = (history_lift(spec.grid, pair.times, states, times) for states in pair.states)
    worst = 0.0
    for dist, ha, ta, hb, tb in zip(minus_one_norm(la - lb), la.heads, la.tails,
                                    lb.heads, lb.tails):
        if dist < 1e-12:
            continue
        db = np.linalg.norm(head_drift_lifted(spec, ha, ta, u_arr)
                            - head_drift_lifted(spec, hb, tb, u_arr))
        worst = max(worst, db / dist)
    assert np.isfinite(worst) and worst < 20.0


def test_noise_coefficient_lipschitz_in_weak_norm():
    spec = models.load_spec_file(SPECS / "merton_delay.json")
    rng = np.random.default_rng(19)
    g = spec.grid
    u = np.array([0.5])
    from delayopt.operators import random_smooth_state
    worst = 0.0
    for _ in range(60):
        x = random_smooth_state(g, 2, rng, domain=False)
        y = random_smooth_state(g, 2, rng, domain=False)
        z2x = kernel_convolve(spec.kernel_noise, x.tails[0])
        z2y = kernel_convolve(spec.kernel_noise, y.tails[0])
        ds = np.linalg.norm(np.asarray(spec.noise(x.heads[0], z2x, u))
                            - np.asarray(spec.noise(y.heads[0], z2y, u)))
        worst = max(worst, ds / minus_one_norm(x - y)[0])
    assert np.isfinite(worst) and worst > 0


def test_noise_trace_term_vanishes_spectrally():
    # trace of (noise gram) B Q_N against the mode count, computed with the
    # flat matrices; nonincreasing and exactly zero once all modes are kept
    spec = build_affine_test(AffineTestParams(), 40)
    g = spec.grid
    op = assemble_gram_operator(g)
    dec = spectral_decomposition(op)
    sig = np.asarray(spec.noise(np.array([1.0]), np.array([0.5]), np.array([0.5])))
    N = op.matrix.shape[0]
    gram_flat = np.zeros((N, N))
    gram_flat[:1, :1] = sig @ sig.T
    traces = []
    for n_modes in (1, 5, 10, 20, 30, dec.dim):
        q = dec.tail_projector(n_modes)
        traces.append(float(np.trace(gram_flat @ op.matrix @ q)))
    assert all(a >= b - 1e-12 for a, b in zip(traces, traces[1:]))
    assert traces[-1] <= 1e-12
    assert traces[0] > 0


def test_with_resolution_resamples_kernels():
    spec = build_advertising(AdvertisingParams(), 50)
    spec2 = with_resolution(spec, 100)
    assert spec2.grid.m == 100
    g2 = spec2.grid
    np.testing.assert_allclose(spec2.kernel_drift.values[:, 0, 0],
                               -0.5 * (g2.nodes + 1.0), atol=1e-14)
