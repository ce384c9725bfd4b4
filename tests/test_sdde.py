import math

import numpy as np
import pytest

from delayopt import models
from delayopt.core import LiftedState, NumericalError, ProblemSpec, SegmentGrid, ValidationError
from delayopt.models import AdvertisingParams, AffineTestParams, build_advertising, build_affine_test
from delayopt.sdde import (
    BLOCK,
    BrownianDriver,
    OpenLoopControl,
    batch_increments,
    coarsen_increments,
    mc_cost,
    simulate_sdde,
)
from delayopt.hjb import truncation_horizon, truncation_tail_bound
from delayopt import sdde

from conftest import node_tuple_control


def pure_noise_spec(sigma=1.0, m=10):
    p = AffineTestParams(drift_const=(0.0,), drift_state=((0.0,),),
                         drift_delay=((0.0,),), drift_control=((0.0,),),
                         noise_const=((sigma,),), kernel_scale=0.0,
                         rho=1.0, d=1.0, x0=(0.0,), x1=(0.0,))
    return build_affine_test(p, m)


def drift_only_spec(c, m=10):
    p = AffineTestParams(drift_const=(c,), drift_state=((0.0,),),
                         drift_delay=((0.0,),), drift_control=((0.0,),),
                         noise_const=((0.0,),), kernel_scale=0.0,
                         rho=1.0, d=1.0, x0=(0.0,), x1=(0.0,))
    return build_affine_test(p, m)


# ---------------------------------------------------------------------------
# drivers: the seed-keyed increment streams of the paths


def test_driver_bit_reproducible():
    # a path's increments depend on (seed, path index) only, not on the
    # call or on the other paths of the batch
    a = batch_increments(123, [7], 0.01, 2, 50)
    np.testing.assert_array_equal(a, batch_increments(123, [7], 0.01, 2, 50))
    np.testing.assert_array_equal(a[0], batch_increments(123, [3, 7], 0.01, 2, 50)[1])


def test_driver_streams_differ_across_paths():
    a, b = batch_increments(1, [0, 1], 0.01, 1, 1000)[:, :, 0]
    assert not np.array_equal(a, b)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.1


def test_driver_variance_scales_with_step():
    dw = batch_increments(5, [0], 0.25, 1, 4000)[0, :, 0]
    assert np.var(dw) == pytest.approx(0.25, rel=0.1)


def test_zero_steps_draw_an_empty_batch():
    assert batch_increments(5, range(3), 0.25, 2, 0).shape == (3, 0, 2)
    assert list(sdde._increment_blocks(5, range(3), 0.25, 2, 0)) == []


@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("block", [7, BLOCK])
def test_block_draws_equal_one_full_draw(q, block, monkeypatch):
    # each path continues its own stream across blocks, so the blocks
    # concatenate to the one full draw bit for bit, remainder block included
    monkeypatch.setattr(sdde, "BLOCK", block)
    n_steps = 2 * block + 5
    blocks = list(sdde._increment_blocks(11, range(3), 0.01, q, n_steps))
    assert [b.shape for b in blocks] == [(3, block, q)] * 2 + [(3, 5, q)]
    one_draw = np.stack([sdde._philox(11, i).standard_normal((n_steps, q)) * math.sqrt(0.01)
                         for i in range(3)])
    full = batch_increments(11, range(3), 0.01, q, n_steps)
    np.testing.assert_array_equal(np.concatenate(blocks, axis=1), one_draw)
    np.testing.assert_array_equal(full, one_draw)
    # the benchmark's shim draws a batch_increments row
    np.testing.assert_array_equal(full[2], BrownianDriver(11, 2, 0.01, q).increments(n_steps))


def test_coarsen_increments_pairwise_sums():
    dw = np.arange(12.0).reshape(6, 2)
    out = coarsen_increments(dw, 2)
    np.testing.assert_array_equal(out, dw.reshape(3, 2, 2).sum(axis=1))
    with pytest.raises(ValidationError, match="5 increments not divisible by factor 2"):
        coarsen_increments(dw[:5], 2)


def test_simulate_sdde_refuses_too_few_increments():
    spec = pure_noise_spec()
    x = models.initial_state(spec)
    with pytest.raises(ValidationError, match="need 10 increments, got 9"):
        simulate_sdde(spec, x, OpenLoopControl([0.0]), 1.0, 0.1, np.zeros((2, 9, 1)))


# ---------------------------------------------------------------------------
# simulation


def test_driftless_unit_noise_terminal_moments():
    spec = pure_noise_spec()
    x = models.initial_state(spec)
    dw = batch_increments(17, np.arange(10000), 0.05, 1, 20)
    yT = simulate_sdde(spec, x, OpenLoopControl([0.0]), 1.0, 0.05, dw).window[:, -1, 0]
    stderr = yT.std(ddof=1) / math.sqrt(len(yT))
    assert abs(yT.mean()) <= 3 * stderr
    assert yT.var(ddof=1) == pytest.approx(1.0, rel=0.05)


def test_constant_drift_exact():
    spec = drift_only_spec(1.7)
    x = models.initial_state(spec)
    path = simulate_sdde(spec, x, OpenLoopControl([0.0]), 2.0, 0.1, (0, 1), keep=1)
    k = spec_hist(spec, 0.1)
    np.testing.assert_allclose(path.states[0, k:, 0], 1.7 * path.times[k:], atol=1e-12)


def test_advertising_delay_ode_against_fine_reference():
    # a0 = c0 = 0, sigma = 0, forgetting kernel -(xi+d)/d, constant history:
    # a pure delay integro-differential equation
    p = AdvertisingParams(a0=0.0, c0=0.0, sigma=0.0, kernel_scale=-1.0,
                          x0=1.0, x1=1.0)
    spec = build_advertising(p, 100)
    x = models.initial_state(spec)
    u = OpenLoopControl([0.0])
    coarse = simulate_sdde(spec, x, u, 1.0, 0.01, np.zeros((1, 100, 1)))
    fine = simulate_sdde(spec, x, u, 1.0, 0.001, np.zeros((1, 1000, 1)))
    yc, yf = coarse.window[0, -1, 0], fine.window[0, -1, 0]
    assert abs(yc - yf) <= 0.01 * abs(yf)


@pytest.mark.parametrize("P", [1, 3])
def test_single_path_seed_noise_is_path_zero_of_the_batch(P):
    # (seed, 1) streams path 0 block by block, across a block boundary: its
    # states, controls and cost are bitwise those of path 0 in a batch of P
    # and those of one explicit draw of path 0's increments
    spec = build_advertising(AdvertisingParams(), 20)
    x = models.initial_state(spec)
    K, delta = BLOCK + 5, 0.05

    def ctrl(window):
        return 0.5 + 0.25 * np.tanh(window[:, -1, :1] - window[:, 0, :1])

    drawn_dw = batch_increments(7, [0], delta, spec.q, K)
    one = simulate_sdde(spec, x, ctrl, K * delta, delta, (7, 1), keep=1)
    batch = simulate_sdde(spec, x, ctrl, K * delta, delta, (7, P), keep=1)
    one_drawn = simulate_sdde(spec, x, ctrl, K * delta, delta, drawn_dw, keep=1)
    n_hist = spec_hist(spec, delta)
    assert one.states.shape == (1, n_hist + 1 + K, spec.n)
    np.testing.assert_array_equal(one.times, delta * np.arange(-n_hist, K + 1))
    for other in (batch, one_drawn):
        np.testing.assert_array_equal(one.states, other.states)
        np.testing.assert_array_equal(one.controls, other.controls)
        np.testing.assert_array_equal(one.times, other.times)
    assert one.costs[0] == batch.costs[0] == one_drawn.costs[0]
    assert np.ptp(one.controls[0]) > 0  # the feedback saw the noise


def test_step_must_divide_horizons():
    spec = pure_noise_spec()
    x = models.initial_state(spec)
    with pytest.raises(ValidationError):
        simulate_sdde(spec, x, OpenLoopControl([0.0]), 1.0, 0.3, (0, 1))


@pytest.mark.filterwarnings("ignore:overflow")
def test_nan_abort_names_step():
    g = SegmentGrid(1.0, 4)
    kern = models.build_kernel({"preset": "zero"}, g, 1)
    spec = ProblemSpec(
        n=1, q=1, p=1, grid=g, kernel_drift=kern, kernel_noise=kern,
        drift=lambda y, z, u: np.exp(y) * 1e30, noise=lambda y, z, u: y[..., None] * 0.0,
        cost=lambda y, u: np.zeros(y.shape[:-1]), rho=1.0,
        control_set=np.array([[0.0]]), growth_const=1.0, lipschitz_const=1.0,
        cost_growth_const=1.0, cost_growth_exponent=0.0)
    x = LiftedState(g, [1.0], np.full((g.m + 1, 1), 1.0))
    with pytest.raises(NumericalError, match=r"step 2 \(t=0\.5\)"):
        simulate_sdde(spec, x, OpenLoopControl([0.0]), 2.0, 0.25, (0, 1))


def nan_at_step_spec(delta, k_nan):
    """A 1-d problem on d = 1 with unit drift from y = 1 until y passes the
    node of step k_nan - 1, then NaN: its first non-finite state is at step
    k_nan. Returns (spec, initial state)."""
    g = SegmentGrid(1.0, 4)
    kern = models.build_kernel({"preset": "zero"}, g, 1)
    edge = 1.0 + delta * (k_nan - 1.5)
    spec = ProblemSpec(
        n=1, q=1, p=1, grid=g, kernel_drift=kern, kernel_noise=kern,
        drift=lambda y, z, u: np.where(y > edge, np.nan, 1.0),
        noise=lambda y, z, u: y[..., None] * 0.0,
        cost=lambda y, u: np.zeros(y.shape[:-1]), rho=1.0,
        control_set=np.array([[0.0]]), growth_const=1.0, lipschitz_const=1.0,
        cost_growth_const=1.0, cost_growth_exponent=0.0)
    return spec, LiftedState(g, [1.0], np.full((g.m + 1, 1), 1.0))


def test_mc_cost_refuses_nonfinite_samples():
    # the states stay finite, but the cost is NaN above the start value, so
    # a path's discounted cost is NaN once its head passes 1 at steps 1..3;
    # the estimate is refused with the number of such paths
    g = SegmentGrid(1.0, 4)
    kern = models.build_kernel({"preset": "zero"}, g, 1)
    spec = ProblemSpec(
        n=1, q=1, p=1, grid=g, kernel_drift=kern, kernel_noise=kern,
        drift=lambda y, z, u: 0.0 * y, noise=lambda y, z, u: np.ones(y.shape + (1,)),
        cost=lambda y, u: np.where(y[..., 0] > 1.0, np.nan, 0.0), rho=1.0,
        control_set=np.array([[0.0]]), growth_const=1.0, lipschitz_const=1.0,
        cost_growth_const=1.0, cost_growth_exponent=0.0)
    x = LiftedState(g, [1.0], np.full((g.m + 1, 1), 1.0))
    dw = batch_increments(0, range(10), 0.25, 1, 4)
    bad = int(np.sum(np.any(np.cumsum(dw[:, :3, 0], axis=1) > 0.0, axis=1)))
    assert 0 < bad < 10
    with pytest.raises(NumericalError, match=f"^{bad} of 10 Monte Carlo samples are not finite"):
        mc_cost(spec, x, OpenLoopControl([0.0]), 1.0, 0.25, 10, 0)


@pytest.mark.parametrize("how", ["simulate_sdde", "mc_cost"])
def test_nan_abort_names_step_after_the_first_block(how):
    # the first non-finite state is at step k_nan, inside the second block,
    # so a block-local step index would be wrong
    delta, k_nan = 0.01, BLOCK + 45
    spec, x = nan_at_step_spec(delta, k_nan)
    T = 2 * BLOCK * delta
    with pytest.raises(NumericalError, match=rf"step {k_nan} \(t={k_nan * delta:g}\)"):
        if how == "mc_cost":
            mc_cost(spec, x, OpenLoopControl([0.0]), T, delta, 3, seed=0)
        else:
            simulate_sdde(spec, x, OpenLoopControl([0.0]), T, delta, (0, 1))


@pytest.mark.parametrize("delta", [0.01, 0.1])
@pytest.mark.parametrize("how", ["simulate_sdde", "mc_cost"])
def test_nan_abort_names_the_first_step_of_a_block(how, delta):
    # the first non-finite state is made by the first step of the third
    # block, with a history window of 101 (delta = 0.01) and 11 nodes: the
    # blocks before it are complete, and the step index is the global one
    k_nan = 2 * BLOCK + 1
    spec, x = nan_at_step_spec(delta, k_nan)
    T = (3 * BLOCK + 5) * delta
    with pytest.raises(NumericalError, match=rf"step {k_nan} \(t={k_nan * delta:g}\)"):
        if how == "mc_cost":
            mc_cost(spec, x, OpenLoopControl([0.0]), T, delta, 3, seed=0)
        else:
            simulate_sdde(spec, x, OpenLoopControl([0.0]), T, delta, (0, 1))


# ---------------------------------------------------------------------------
# the streaming pass against a block-buffer oracle


def _oracle_batch(spec, x, ctrl, T, delta, noise, keep=0):
    """The pass as it stepped before the per-block cost: a path-major buffer
    of n_hist + 1 + BLOCK nodes (an explicit array as one full-width block),
    each block's increments read strided, spec.cost called at every step.
    Returns (costs, window, states, controls)."""
    from delayopt.core import weighted_kernels

    n_hist = sdde._steps_of(spec.d, delta, "d")
    n_steps = sdde._steps_of(T, delta, "T")
    if isinstance(noise, np.ndarray):
        P, width = noise.shape[0], n_steps
        blocks = [noise[:, :n_steps]] if n_steps else []
    else:
        seed, P = noise
        width = min(BLOCK, n_steps)
        blocks = sdde._increment_blocks(seed, range(P), delta, spec.q, n_steps)
    step_grid = SegmentGrid(spec.d, n_hist)
    wk = weighted_kernels(spec, step_grid)
    buf = np.empty((P, n_hist + 1 + width, spec.n))
    buf[:, : n_hist + 1] = x.resampled(step_grid).tail[None, :, :]
    buf[:, n_hist] = x.head[None, :]
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
            y = buf[:, j + n_hist]
            u = ctrl(window)
            controls[:, k0 + j] = u[:keep]
            cost += disc[j] * np.asarray(spec.cost(y, u), dtype=float)
            buf[:, j + n_hist + 1] = sdde._euler_head(spec, wk, y, window, u, dw[:, j], delta)
        states[:, n_hist + 1 + k0 : n_hist + 1 + k0 + b] = buf[:keep, n_hist + 1 : n_hist + 1 + b]
        buf[:, : n_hist + 1] = buf[:, b : b + n_hist + 1]
        k0 += b
    return cost * delta, buf[:, : n_hist + 1], states, controls


def _noisy_control(window):
    return 0.5 + 0.25 * np.tanh(window[:, -1, :1] - window[:, 0, :1])


@pytest.mark.parametrize("keep", [0, 3])
@pytest.mark.parametrize("noise", ["seed", "array"])
@pytest.mark.parametrize("case", ["advertising", "affine", "merton_closed_loop"])
def test_streaming_pass_matches_the_block_buffer_oracle(case, noise, keep, advertising_spec,
                                                        merton_nodelay_spec):
    # costs, final windows, kept states and controls are bitwise those of the
    # per-step oracle across two increment blocks and a remainder, with
    # history windows of 101 (advertising, affine) and 11 (merton) nodes
    from delayopt.hjb import PolicyField, feedback_from_policy, reduce_to_lag_chain

    K, delta, P = 2 * BLOCK + 9, 0.01, 5
    if case == "advertising":
        spec = advertising_spec
        assert np.any(spec.kernel_drift.values) and spec_hist(spec, delta) == 100
        ctrl = oracle_ctrl = _noisy_control
    elif case == "affine":
        # specs/affine.json's model at n = q = 2 with full matrices: each head
        # component sums two increments and the cost norms two components
        spec = build_affine_test(AffineTestParams(
            n=2, q=2, drift_const=(0.0, 0.0), drift_state=((-0.5, 0.1), (0.2, -0.5)),
            drift_delay=((0.3,), (0.3,)), drift_control=((0.5,), (0.5,)),
            noise_const=((0.4, 0.1), (-0.2, 0.3)), x0=(1.0, 0.5), x1=(1.0, -0.5)), m=50)
        assert spec_hist(spec, delta) == 100
        ctrl = oracle_ctrl = _noisy_control
    else:
        # the solved Merton policy is the clamp u = 1 near z = 1, so a policy
        # that changes from node to node on the solver's wealth axis
        spec = merton_nodelay_spec
        chain = reduce_to_lag_chain(spec, 1)
        axes = (np.array([1.0]), np.geomspace(0.005, 100.0, 281), np.array([1.0]),
                np.array([1.0]))
        indices = ((7 * np.arange(281)) % len(spec.control_set)).reshape(1, 281, 1, 1)
        policy = PolicyField(axes, indices, spec.control_set)
        ctrl = feedback_from_policy(chain, policy, delta)
        oracle_ctrl = node_tuple_control(chain, policy, delta)
    x = models.initial_state(spec)
    dw = (7, P) if noise == "seed" else batch_increments(7, range(P), delta, spec.q, K + 4)
    got = simulate_sdde(spec, x, ctrl, K * delta, delta, dw, keep=keep)
    want = _oracle_batch(spec, x, oracle_ctrl, K * delta, delta, dw, keep=keep)
    for field, ref in zip(("costs", "window", "states", "controls"), want):
        np.testing.assert_array_equal(getattr(got, field), ref, err_msg=field)
    assert np.ptp(want[0]) > 0
    if keep:
        assert np.ptp(want[3]) > 0  # the feedback saw the noise


# ---------------------------------------------------------------------------
# controls


def test_plain_function_control_matches_open_loop():
    # a control is any callable of the window; the window covers [t - d, t]
    # on the step grid with the current state as its newest node
    spec = build_advertising(AdvertisingParams(), 20)
    x = models.initial_state(spec)
    dw = batch_increments(5, np.arange(8), 0.05, 1, 40)
    windows = []

    def control(window):
        windows.append(window.copy())
        return np.full((window.shape[0], 1), 0.5)

    got = simulate_sdde(spec, x, control, 2.0, 0.05, dw, keep=8)
    ref = simulate_sdde(spec, x, OpenLoopControl([0.5]), 2.0, 0.05, dw, keep=8)
    states = got.states
    np.testing.assert_array_equal(states, ref.states)
    np.testing.assert_array_equal(got.controls, ref.controls)
    np.testing.assert_array_equal(got.costs, ref.costs)
    n_hist = spec_hist(spec, 0.05)
    assert len(windows) == 40
    for k, window in enumerate(windows):
        np.testing.assert_array_equal(window, states[:, k:k + n_hist + 1])


def test_open_loop_control_is_one_finite_vector():
    u = OpenLoopControl([0.5, 1.0])
    assert u(np.zeros((3, 5, 1))).shape == (3, 2)
    with pytest.raises(ValidationError):
        OpenLoopControl([[0.5], [1.0]])
    with pytest.raises(ValidationError):
        OpenLoopControl([np.nan])


# ---------------------------------------------------------------------------
# costs


def test_unit_cost_discounted_integral():
    # l = |u|^2 with u = 1 gives l = 1; the discounted integral tends to 1
    p = AffineTestParams(drift_const=(0.0,), drift_state=((0.0,),),
                         drift_delay=((0.0,),), drift_control=((0.0,),),
                         noise_const=((0.0,),), kernel_scale=0.0, rho=1.0,
                         cost_state_scale=0.0, cost_control_scale=1.0,
                         control_lo=1.0, control_hi=1.0, n_controls=1,
                         x0=(0.0,), x1=(0.0,))
    spec = build_affine_test(p, 10)
    x = models.initial_state(spec)
    delta = 0.01
    for T in (2.0, 5.0, 10.0):
        val = simulate_sdde(spec, x, OpenLoopControl([1.0]), T, delta,
                            np.zeros((1, int(T / delta), 1))).costs[0]
        # left Riemann sum of exp(-t) over [0, T)
        exact = float(np.sum(np.exp(-delta * np.arange(int(T / delta)))) * delta)
        assert val == pytest.approx(exact, rel=1e-12)
        assert val == pytest.approx(1.0 - math.exp(-T), abs=2 * delta)


def test_zero_cost():
    p = AffineTestParams(cost_state_scale=0.0, cost_control_scale=0.0,
                         x0=(1.0,), x1=(1.0,))
    spec = build_affine_test(p, 10)
    x = models.initial_state(spec)
    batch = simulate_sdde(spec, x, OpenLoopControl([0.5]), 1.0, 0.1, (0, 1))
    assert batch.costs[0] == 0.0


@pytest.mark.parametrize("noise", ["seed", "array"])
def test_zero_horizon_costs_nothing(noise):
    # T = 0 takes no step: zero costs, the initial window, empty kept paths
    spec = pure_noise_spec()
    x = models.initial_state(spec)
    u = OpenLoopControl([0.5])
    dw = (3, 4) if noise == "seed" else batch_increments(3, range(4), 0.1, spec.q, 0)
    batch = simulate_sdde(spec, x, u, 0.0, 0.1, dw, keep=2)
    np.testing.assert_array_equal(batch.costs, np.zeros(4))
    assert batch.window.shape == (4, spec_hist(spec, 0.1) + 1, spec.n)
    assert np.all(batch.window[:, -1] == x.head)
    assert batch.controls.shape == (2, 0, 1)
    assert mc_cost(spec, x, u, 0.0, 0.1, 4, seed=3) == (0.0, 0.0)
    one = simulate_sdde(spec, x, u, 0.0, 0.1, (3, 1), keep=1)
    assert one.costs[0] == 0.0 and one.controls[0].shape == (0, 1)
    assert one.states.shape == (1, spec_hist(spec, 0.1) + 1, spec.n)
    np.testing.assert_array_equal(one.times, 0.1 * np.arange(-spec_hist(spec, 0.1), 1))


def test_constant_path_linear_cost():
    # zero dynamics from x0=2 with l = |y|: expect 2 (1 - e^{-10}) up to O(delta)
    p = AffineTestParams(drift_const=(0.0,), drift_state=((0.0,),),
                         drift_delay=((0.0,),), drift_control=((0.0,),),
                         noise_const=((0.0,),), kernel_scale=0.0, rho=1.0,
                         cost_exponent=1.0, cost_state_scale=1.0,
                         cost_control_scale=0.0, x0=(2.0,), x1=(2.0,))
    spec = build_affine_test(p, 10)
    x = models.initial_state(spec)
    delta = 0.01
    val = simulate_sdde(spec, x, OpenLoopControl([0.0]), 10.0, delta,
                        np.zeros((1, 1000, 1))).costs[0]
    assert val == pytest.approx(2.0 * (1 - math.exp(-10.0)), abs=4 * delta)


# ---------------------------------------------------------------------------
# monte carlo


def test_mc_deterministic_given_seed_and_chunk_free():
    # every path's cost in the one-batch estimate is the single-path cost on
    # its own increments, across two block boundaries and a remainder block too
    spec = pure_noise_spec()
    x = models.initial_state(spec)
    n_paths, delta = 9, 0.05
    K = 2 * BLOCK + 9
    T = K * delta
    costs = [simulate_sdde(spec, x, OpenLoopControl([0.5]), T, delta,
                           batch_increments(3, [i], delta, 1, K)).costs[0]
             for i in range(n_paths)]
    mean = math.fsum(costs) / n_paths
    var = math.fsum((c - mean) ** 2 for c in costs) / (n_paths - 1)
    got = mc_cost(spec, x, OpenLoopControl([0.5]), T, delta, n_paths, seed=3)
    assert got == (mean, math.sqrt(var / n_paths))


def test_mc_cost_memory_does_not_grow_with_horizon():
    # one streaming pass keeps a window buffer and one increment block per
    # path, so four times the horizon needs no more memory
    import tracemalloc

    spec = pure_noise_spec()
    x = models.initial_state(spec)
    u = OpenLoopControl([0.5])

    def peak(T):
        tracemalloc.start()
        try:
            mc_cost(spec, x, u, T, 0.05, 64, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1.0)  # first-call allocations
    short = min(peak(20.0) for _ in range(2))  # 400 steps, more than one block
    long = min(peak(80.0) for _ in range(2))
    assert long <= 1.25 * short, (short, long)


def test_closed_loop_pass_stays_within_its_memory_bound(merton_nodelay_solution):
    # merton-check's pass, 1000 paths at dt = 0.01 under the solved policy's
    # feedback, over two increment blocks and a remainder, traced by
    # tracemalloc: about 7.1 MB, the window buffer (1000 x 267 x 2 floats,
    # 4.3 MB), one increment block (2.0 MB) and the Philox generators. With
    # a block's controls, its cost slab with the cost's temporaries and a
    # second copy of its increments held as well, it peaked at 21.6 MB
    import tracemalloc
    from delayopt.hjb import feedback_from_policy

    chain, res = merton_nodelay_solution
    spec, delta = chain.spec, 0.01
    x, ctrl = models.initial_state(spec), feedback_from_policy(chain, res.policy, delta)
    simulate_sdde(spec, x, ctrl, 1.0, delta, (3, 4))  # first-call allocations
    tracemalloc.start()
    try:
        simulate_sdde(spec, x, ctrl, (2 * BLOCK + 9) * delta, delta, (3, 1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8.5e6, f"the pass peaked at {peak / 1e6:.1f} MB"


def test_mean_stderr_is_compensated_and_needs_two_samples():
    # the one Monte Carlo statistic: fsum mean and standard error
    from delayopt.sdde import _mean_stderr
    assert _mean_stderr([1e16, 1.0, -1e16, 1.0])[0] == 0.5
    assert _mean_stderr(np.array([1.0, 3.0])) == (2.0, 1.0)
    for samples in ([], [1.0]):
        with pytest.raises(ValidationError, match="at least 2 paths"):
            _mean_stderr(samples)
    spec = pure_noise_spec()
    with pytest.raises(ValidationError, match="at least 2 paths"):
        mc_cost(spec, models.initial_state(spec), OpenLoopControl([0.0]), 1.0, 0.1, 1, seed=0)


def test_mc_zero_noise_zero_stderr():
    spec = drift_only_spec(0.3)
    x = models.initial_state(spec)
    mean, stderr = mc_cost(spec, x, OpenLoopControl([0.0]), 1.0, 0.1, 16, seed=0)
    assert stderr == 0.0


def test_mc_driftless_wealth_closed_form():
    # all wealth in the bond: utility stream is deterministic with rate
    # rho - gamma r; compare at the simulated horizon
    spec = models.build_merton(models.MertonParams(), m=4)
    x = models.initial_state(spec)
    T, delta = 20.0, 0.01
    mean, stderr = mc_cost(spec, x, OpenLoopControl([0.0]), T, delta, 50, seed=1)
    gamma, r, rho = 0.5, 0.01, 0.1
    exact = -(1.0 / gamma) * (1 - math.exp(-(rho - gamma * r) * T)) / (rho - gamma * r)
    assert mean == pytest.approx(exact, abs=3 * stderr + 0.05)


# ---------------------------------------------------------------------------
# truncation horizon


def test_truncation_horizon_formula():
    # bounded cost (m = 0) keeps the admissibility floor at zero; with
    # rho = 0.1 the rate midpoint is 0.05 and the worked value is
    # ln(2 / (0.01 * 0.05)) / 0.05
    p = AffineTestParams(rho=0.1, cost_clip=1.0, x0=(1.0,), x1=(1.0,))
    spec = build_affine_test(p, 10)
    T = truncation_horizon(spec, x_norm=1.0, tol=0.01)
    assert T == pytest.approx(math.log(2.0 / (0.01 * 0.05)) / 0.05, rel=1e-12)
    assert T == pytest.approx(165.9, abs=0.5)


@pytest.mark.parametrize("x_norm, tol", [(1.0, 0.01), (2.5, 1e-4)])
def test_tail_bound_at_the_truncation_horizon_is_the_tolerance(x_norm, tol):
    # truncation_horizon inverts truncation_tail_bound
    for spec in (build_affine_test(AffineTestParams(rho=0.1, cost_clip=1.0,
                                                    x0=(1.0,), x1=(1.0,)), 10),
                 build_advertising(AdvertisingParams(), 20)):
        T = truncation_horizon(spec, x_norm, tol)
        assert T > 0
        assert truncation_tail_bound(spec, x_norm, T) == pytest.approx(tol, rel=1e-12)


def test_truncation_horizon_tol_halving():
    p = AffineTestParams(rho=0.1, cost_clip=1.0, x0=(1.0,), x1=(1.0,))
    spec = build_affine_test(p, 10)
    t1 = truncation_horizon(spec, 1.0, 0.01)
    t2 = truncation_horizon(spec, 1.0, 0.005)
    assert t2 - t1 == pytest.approx(math.log(2.0) / 0.05, rel=1e-10)


def test_truncation_horizon_zero_when_tolerance_loose():
    p = AffineTestParams(rho=0.1, cost_clip=1.0, x0=(1.0,), x1=(1.0,))
    spec = build_affine_test(p, 10)
    assert truncation_horizon(spec, 1.0, tol=1e9) == 0.0


def test_truncation_horizon_rejects_small_discount():
    p = AffineTestParams(rho=0.05, cost_exponent=2.0, cost_clip=np.inf,
                         x0=(1.0,), x1=(1.0,))
    spec = build_affine_test(p, 10)
    with pytest.raises(ValidationError):
        truncation_horizon(spec, 1.0, 0.01)


# ---------------------------------------------------------------------------
# convergence probes


def spec_hist(spec, delta):
    return int(round(spec.d / delta))


def test_strong_convergence_rate_additive_noise():
    # coupled refinement against a delta/8 reference; additive noise keeps
    # the strong order near one
    spec = models.build_advertising(models.AdvertisingParams(), m=20)
    x = models.initial_state(spec)
    u = OpenLoopControl([0.5])
    T = 1.0
    fine_delta = 0.0025
    n_fine = int(T / fine_delta)
    errs = []
    deltas = [0.02, 0.01]
    dw_fine = batch_increments(23, np.arange(64), fine_delta, 1, n_fine)
    ref = simulate_sdde(spec, x, u, T, fine_delta, dw_fine).window
    for delta in deltas:
        factor = int(delta / fine_delta)
        dw = coarsen_increments(dw_fine, factor)
        states = simulate_sdde(spec, x, u, T, delta, dw).window
        errs.append(np.abs(states[:, -1, 0] - ref[:, -1, 0]).mean())
    rate = math.log2(errs[0] / errs[1])
    assert 0.4 <= rate <= 1.1


def test_moment_growth_envelope():
    # fitted moment-bound prefactor stays stable when the step halves
    spec = models.build_advertising(models.AdvertisingParams(), m=20)
    x = models.initial_state(spec)
    u = OpenLoopControl([0.5])
    from delayopt.hjb import discount_floor
    rho0 = discount_floor(spec.growth_const, spec.cost_growth_exponent)
    lam = (spec.rho + rho0) / 2
    x_norm = 1.0 + abs(x.head[0])
    fits = []
    for delta, seed in ((0.02, 31), (0.01, 31)):
        n = int(2.0 / delta)
        dw = batch_increments(seed, np.arange(256), delta, 1, n)
        states = simulate_sdde(spec, x, u, 2.0, delta, dw, keep=256).states
        t = delta * np.arange(n + 1)
        moments = np.abs(states[:, spec_hist(spec, delta):, 0]).mean(axis=0)
        fits.append(float(np.max(moments / (x_norm * np.exp(lam * t)))))
    assert fits[0] / fits[1] == pytest.approx(1.0, abs=0.25)
