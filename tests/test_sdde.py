import math

import numpy as np
import pytest

from delayopt import models
from delayopt.core import LiftedState, NumericalError, ProblemSpec, Segment, SegmentGrid, ValidationError
from delayopt.models import AdvertisingParams, AffineTestParams, build_advertising, build_affine_test
from delayopt.sdde import (
    MC_CHUNK,
    BrownianDriver,
    OpenLoopControl,
    batch_increments,
    coarsen_increments,
    mc_cost,
    simulate_sdde,
)
from delayopt.hjb import truncation_horizon


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
# drivers


def test_driver_bit_reproducible():
    d1 = BrownianDriver(seed=123, path_index=7, delta=0.01, q=2)
    d2 = BrownianDriver(seed=123, path_index=7, delta=0.01, q=2)
    np.testing.assert_array_equal(d1.increments(50), d2.increments(50))


def test_driver_streams_differ_across_paths():
    a = BrownianDriver(1, 0, 0.01, 1).increments(1000)[:, 0]
    b = BrownianDriver(1, 1, 0.01, 1).increments(1000)[:, 0]
    assert not np.array_equal(a, b)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.1


def test_driver_variance_scales_with_step():
    dw = BrownianDriver(5, 0, 0.25, 1).increments(4000)[:, 0]
    assert np.var(dw) == pytest.approx(0.25, rel=0.1)


def test_coarsen_increments_pairwise_sums():
    dw = np.arange(12.0).reshape(6, 2)
    out = coarsen_increments(dw, 2)
    np.testing.assert_array_equal(out, dw.reshape(3, 2, 2).sum(axis=1))


# ---------------------------------------------------------------------------
# simulation


def test_driftless_unit_noise_terminal_moments():
    spec = pure_noise_spec()
    x = models.initial_state(spec)
    dw = batch_increments(17, np.arange(10000), 0.05, 1, 20)
    from delayopt.sdde import _simulate_batch
    _, states, _, _ = _simulate_batch(spec, x, OpenLoopControl([0.0]), 1.0, 0.05, dw)
    yT = states[:, -1, 0]
    stderr = yT.std(ddof=1) / math.sqrt(len(yT))
    assert abs(yT.mean()) <= 3 * stderr
    assert yT.var(ddof=1) == pytest.approx(1.0, rel=0.05)


def test_constant_drift_exact():
    spec = drift_only_spec(1.7)
    x = models.initial_state(spec)
    driver = BrownianDriver(0, 0, 0.1, 1)
    path = simulate_sdde(spec, x, OpenLoopControl([0.0]), 2.0, 0.1, driver)
    np.testing.assert_allclose(path.step_states[:, 0], 1.7 * path.step_times,
                               atol=1e-12)


def test_advertising_delay_ode_against_fine_reference():
    # a0 = c0 = 0, sigma = 0, forgetting kernel -(xi+d)/d, constant history:
    # a pure delay integro-differential equation
    p = AdvertisingParams(a0=0.0, c0=0.0, sigma=0.0, kernel_scale=-1.0,
                          x0=1.0, x1=1.0)
    spec = build_advertising(p, 100)
    x = models.initial_state(spec)
    u = OpenLoopControl([0.0])
    coarse = simulate_sdde(spec, x, u, 1.0, 0.01, BrownianDriver(0, 0, 0.01, 1),
                           increments=np.zeros((100, 1)))
    fine = simulate_sdde(spec, x, u, 1.0, 0.001, BrownianDriver(0, 0, 0.001, 1),
                         increments=np.zeros((1000, 1)))
    yc, yf = coarse.step_states[-1, 0], fine.step_states[-1, 0]
    assert abs(yc - yf) <= 0.01 * abs(yf)


def test_step_must_divide_horizons():
    spec = pure_noise_spec()
    x = models.initial_state(spec)
    with pytest.raises(ValidationError):
        simulate_sdde(spec, x, OpenLoopControl([0.0]), 1.0, 0.3,
                      BrownianDriver(0, 0, 0.3, 1))


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
    x = LiftedState([1.0], Segment.constant(g, 1.0))
    with pytest.raises(NumericalError, match="step"):
        simulate_sdde(spec, x, OpenLoopControl([0.0]), 2.0, 0.25,
                      BrownianDriver(0, 0, 0.25, 1))


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
        path = simulate_sdde(spec, x, OpenLoopControl([1.0]), T, delta,
                             BrownianDriver(0, 0, delta, 1),
                             increments=np.zeros((int(T / delta), 1)))
        val = path.discounted_cost
        # left Riemann sum of exp(-t) over [0, T)
        exact = float(np.sum(np.exp(-delta * np.arange(int(T / delta)))) * delta)
        assert val == pytest.approx(exact, rel=1e-12)
        assert val == pytest.approx(1.0 - math.exp(-T), abs=2 * delta)


def test_zero_cost():
    p = AffineTestParams(cost_state_scale=0.0, cost_control_scale=0.0,
                         x0=(1.0,), x1=(1.0,))
    spec = build_affine_test(p, 10)
    x = models.initial_state(spec)
    path = simulate_sdde(spec, x, OpenLoopControl([0.5]), 1.0, 0.1,
                         BrownianDriver(0, 0, 0.1, 1))
    assert path.discounted_cost == 0.0


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
    path = simulate_sdde(spec, x, OpenLoopControl([0.0]), 10.0, delta,
                         BrownianDriver(0, 0, delta, 1),
                         increments=np.zeros((1000, 1)))
    val = path.discounted_cost
    assert val == pytest.approx(2.0 * (1 - math.exp(-10.0)), abs=4 * delta)


# ---------------------------------------------------------------------------
# monte carlo


def test_mc_deterministic_given_seed_and_chunk_free():
    # every path's cost in the batched estimate is the single-path cost of
    # its own driver, across a chunk boundary too
    spec = pure_noise_spec()
    x = models.initial_state(spec)
    n_paths = MC_CHUNK + 9
    costs = [simulate_sdde(spec, x, OpenLoopControl([0.5]), 1.0, 0.05,
                           BrownianDriver(3, i, 0.05, 1)).discounted_cost
             for i in range(n_paths)]
    mean = math.fsum(costs) / n_paths
    var = math.fsum((c - mean) ** 2 for c in costs) / (n_paths - 1)
    got = mc_cost(spec, x, OpenLoopControl([0.5]), 1.0, 0.05, n_paths, seed=3)
    assert got == (mean, math.sqrt(var / n_paths))


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
    from delayopt.sdde import _simulate_batch
    dw_fine = batch_increments(23, np.arange(64), fine_delta, 1, n_fine)
    _, ref, _, _ = _simulate_batch(spec, x, u, T, fine_delta, dw_fine)
    for delta in deltas:
        factor = int(delta / fine_delta)
        dw = coarsen_increments(dw_fine, factor)
        _, states, _, _ = _simulate_batch(spec, x, u, T, delta, dw)
        errs.append(np.abs(states[:, -1, 0] - ref[:, -1, 0]).mean())
    rate = math.log2(errs[0] / errs[1])
    assert 0.4 <= rate <= 1.1


def test_moment_growth_envelope():
    # fitted moment-bound prefactor stays stable when the step halves
    spec = models.build_advertising(models.AdvertisingParams(), m=20)
    x = models.initial_state(spec)
    u = OpenLoopControl([0.5])
    from delayopt.sdde import _simulate_batch
    from delayopt.hjb import discount_floor
    rho0 = discount_floor(spec.growth_const, spec.cost_growth_exponent)
    lam = (spec.rho + rho0) / 2
    x_norm = 1.0 + abs(x.head[0])
    fits = []
    for delta, seed in ((0.02, 31), (0.01, 31)):
        n = int(2.0 / delta)
        dw = batch_increments(seed, np.arange(256), delta, 1, n)
        _, states, _, _ = _simulate_batch(spec, x, u, 2.0, delta, dw)
        t = delta * np.arange(n + 1)
        moments = np.abs(states[:, spec_hist(spec, delta):, 0]).mean(axis=0)
        fits.append(float(np.max(moments / (x_norm * np.exp(lam * t)))))
    assert fits[0] / fits[1] == pytest.approx(1.0, abs=0.25)
