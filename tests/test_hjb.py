import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayopt import models
from delayopt.core import DomainError, LiftedState, Segment, ValidationError, kernel_convolve
from delayopt.hjb import (
    EVAL_SWEEPS,
    ClampStats,
    PolicyField,
    ValueField,
    _interp_plan,
    _tensor_nodes,
    b_continuity_probe,
    bellman_bound,
    discount_floor,
    dpp_gap,
    envelope_is_monotone,
    extract_feedback,
    feedback_from_policy,
    hamiltonian,
    hjb_residual,
    lipschitz_discount_threshold,
    max_growth_exponent,
    noise_rule,
    paired_cost_estimator,
    policy_mc_value,
    reduce_to_lag_chain,
    register_from_state,
    regularity_probe,
    value_iteration,
    growth_fit,
)
from delayopt.models import AdvertisingParams, AffineTestParams, build_advertising, build_affine_test
from delayopt.operators import random_smooth_state

SPECS = Path(__file__).resolve().parent.parent / "specs"
from delayopt.sdde import OpenLoopControl, mc_cost


# ---------------------------------------------------------------------------
# discount and growth arithmetic


def test_discount_floor_cases():
    assert discount_floor(3.0, 0.0) == 0.0
    assert discount_floor(1.0, 2.0) == pytest.approx(3.0)
    assert discount_floor(2.0, 1.0) == pytest.approx(4.0)
    assert discount_floor(1.0, 1.5) == pytest.approx(1.5 + 0.75)
    with pytest.raises(ValidationError):
        discount_floor(-1.0, 1.0)


def test_max_growth_exponent_cases():
    k, case = max_growth_exponent(1.0, 1.0)
    assert case == "linear-bound" and k == pytest.approx(2.0 / 3.0)
    k, case = max_growth_exponent(10.0, 1.0)
    assert case == "quadratic-bound" and k == pytest.approx(4.0)
    # the bound is the positive root of k^2/2 + k/2 = rho
    assert 1.0 * 4 + 0.5 * 4 * 3 == pytest.approx(10.0)


def test_max_growth_exponent_monotone_in_discount():
    ks = [max_growth_exponent(rho, 0.7)[0] for rho in (0.5, 1.0, 2.0, 5.0, 20.0)]
    assert all(a < b for a, b in zip(ks, ks[1:]))


def test_lipschitz_discount_threshold():
    assert lipschitz_discount_threshold(0.0, 5.0) == 0.0
    assert lipschitz_discount_threshold(1.0, 2.0) == pytest.approx(2.0)
    a = lipschitz_discount_threshold(1.0, 2.0)
    assert lipschitz_discount_threshold(1.5, 2.0) > a
    assert lipschitz_discount_threshold(1.0, 3.0) > a


# ---------------------------------------------------------------------------
# Hamiltonian


@pytest.fixture(scope="module")
def advert_spec():
    return build_advertising(AdvertisingParams(), 40)


def test_hamiltonian_singleton_formula(advert_spec):
    spec = build_advertising(AdvertisingParams(n_controls=1, u_max=1e-9), 40)
    rng = np.random.default_rng(0)
    x = random_smooth_state(spec.grid, 1, rng)
    p0 = rng.normal(size=1)
    z00 = np.array([[0.7]])
    val, u = hamiltonian(spec, x, p0, z00)
    z1 = kernel_convolve(spec.kernel_drift, x.tail)
    b = np.asarray(spec.drift(x.head, z1, u))
    sig = np.asarray(spec.noise(x.head, kernel_convolve(spec.kernel_noise, x.tail), u))
    expected = (-x.head @ p0 - b @ p0 - 0.5 * (sig @ sig.T * z00).item()
                - float(spec.cost(x.head, u)))
    assert val == pytest.approx(float(expected), rel=1e-12)


def test_hamiltonian_monotone_in_hessian(advert_spec):
    # adding a positive semidefinite block cannot increase the value
    spec = advert_spec
    rng = np.random.default_rng(1)
    for _ in range(1000):
        x = random_smooth_state(spec.grid, 1, rng, domain=False)
        p0 = rng.normal(size=1)
        z = rng.normal(size=(1, 1))
        z = (z + z.T) / 2
        bump = rng.uniform(0, 2, size=(1, 1))  # psd in one dimension
        v1, _ = hamiltonian(spec, x, p0, z)
        v2, _ = hamiltonian(spec, x, p0, z + bump)
        assert v2 <= v1 + 1e-12


def test_hamiltonian_monotone_in_hessian_2d():
    spec = models.load_spec_file(SPECS / "merton_delay.json")
    rng = np.random.default_rng(2)
    for _ in range(200):
        x = random_smooth_state(spec.grid, 2, rng, domain=False)
        p0 = rng.normal(size=2)
        a = rng.normal(size=(2, 2))
        z = (a + a.T) / 2
        c = rng.normal(size=(2, 2))
        bump = c @ c.T
        v1, _ = hamiltonian(spec, x, p0, z)
        v2, _ = hamiltonian(spec, x, p0, z + bump)
        assert v2 <= v1 + 1e-10


def test_hamiltonian_perturbation_bound(advert_spec):
    # effective coefficient constant for the rewritten drift (head damping
    # included) and kernel-weighted delay term
    spec = advert_spec
    kn = float(np.sqrt(np.sum(spec.kernel_drift.values ** 2)
                       * spec.grid.h))
    c_eff = (spec.growth_const * (1.0 + kn) + 1.0) * 2.0
    rng = np.random.default_rng(3)
    for _ in range(300):
        x = random_smooth_state(spec.grid, 1, rng, domain=False)
        nx = math.sqrt(max(np.sum(x.head ** 2)
                           + np.sum(spec.grid.weights[:, None] * x.tail.values ** 2), 0))
        p0, q0 = rng.normal(size=1), rng.normal(size=1)
        za, zb = rng.normal(size=(1, 1)), rng.normal(size=(1, 1))
        v1, _ = hamiltonian(spec, x, p0, za)
        v2, _ = hamiltonian(spec, x, p0 + q0, za + zb)
        bound = (c_eff * (1 + nx) * abs(q0[0])
                 + 0.5 * c_eff ** 2 * (1 + nx) ** 2 * abs(zb[0, 0]))
        assert abs(v2 - v1) <= bound + 1e-10


def test_hamiltonian_tie_breaks_to_lowest_index():
    # duplicate control points force a tie; argmax must pick the first
    p = AdvertisingParams(c0=0.0, spend_cost=0.0)
    spec = build_advertising(p, 20)
    rng = np.random.default_rng(4)
    x = random_smooth_state(spec.grid, 1, rng)
    _, u = hamiltonian(spec, x, np.array([0.3]), np.array([[0.1]]))
    assert u[0] == spec.control_set[0, 0]


def test_hamiltonian_bq_block_perturbation_vanishes(advert_spec):
    # adding the head block of B Q_N perturbs the value less and less as
    # modes accumulate, and not at all once the spectrum is exhausted
    from delayopt.operators import assemble_gram_operator, spectral_decomposition
    spec = advert_spec
    op = assemble_gram_operator(spec.grid, 1)
    dec = spectral_decomposition(op)
    rng = np.random.default_rng(5)
    x = random_smooth_state(spec.grid, 1, rng)
    p0 = rng.normal(size=1)
    z = np.array([[0.4]])
    lam = 2.0
    devs = []
    for n_modes in (1, 5, 20, dec.dim):
        bq = op.matrix @ dec.projection_matrix(n_modes, "Q")
        block = lam * bq[:1, :1]
        v1, _ = hamiltonian(spec, x, p0, z)
        v2, _ = hamiltonian(spec, x, p0, z + (block + block.T) / 2)
        devs.append(abs(v2 - v1))
    assert all(a >= b - 1e-14 for a, b in zip(devs, devs[1:]))
    assert devs[-1] <= 1e-12


def test_hamiltonian_validates_hessian(advert_spec):
    rng = np.random.default_rng(6)
    x = random_smooth_state(advert_spec.grid, 1, rng)
    with pytest.raises(ValidationError):
        hamiltonian(advert_spec, x, np.zeros(1), np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# lag chain


def test_chain_kernel_consistent_with_convolution(advert_spec):
    from delayopt.core import resample_kernel

    spec = advert_spec
    chain = reduce_to_lag_chain(spec, 4)
    coarse_kernel = resample_kernel(spec.kernel_drift, chain.coarse_grid)
    rng = np.random.default_rng(7)
    reg = rng.normal(size=(3, 5, 1))
    z1, _ = chain.delay_integrals(reg)
    for i in range(3):
        seg = Segment(chain.coarse_grid, reg[i, ::-1, :])
        np.testing.assert_allclose(z1[i], kernel_convolve(coarse_kernel, seg),
                                   rtol=1e-12)


def test_chain_single_lag_degenerate_quadrature():
    # with one lag the trapezoid reduces to (d/2)(a(-d) y_lag + a(0) y0) and
    # the kernel vanishes at -d
    spec = build_advertising(AdvertisingParams(kernel_scale=-1.0), 10)
    chain = reduce_to_lag_chain(spec, 1)
    reg = np.array([[[2.0], [5.0]]])
    z1, _ = chain.delay_integrals(reg)
    assert z1[0, 0] == pytest.approx(0.5 * 1.0 * (-1.0) * 2.0, rel=1e-12)


def test_chain_matches_direct_simulation_stepwise():
    spec = build_advertising(AdvertisingParams(sigma=0.3), 10)
    x = models.initial_state(spec)
    chain = reduce_to_lag_chain(spec, 10)
    delta = chain.delta
    n_steps = 7
    from delayopt.sdde import _simulate_batch, batch_increments
    dw = batch_increments(9, [0], delta, 1, n_steps)
    _, states, _, _ = _simulate_batch(spec, x, OpenLoopControl([0.4]), n_steps * delta,
                                      delta, dw)
    reg = register_from_state(chain, x)[None, :, :]
    for k in range(n_steps):
        reg = chain.step(reg, np.array([[0.4]]), dw[:, k] / math.sqrt(delta))
        assert reg[0, 0, 0] == states[0, chain.m_lag + 1 + k, 0]


def test_chain_deterministic_recursion():
    spec = build_advertising(AdvertisingParams(sigma=0.0), 4)
    chain = reduce_to_lag_chain(spec, 2)
    reg = np.array([[[1.0], [0.5], [0.2]]])
    u = np.array([[0.3]])
    z1, _ = chain.delay_integrals(reg)
    b = spec.drift(reg[:, 0, :], z1, u)
    nxt = chain.step(reg, u, np.zeros((1, 1)))
    assert nxt[0, 0, 0] == pytest.approx(1.0 + float(b[0, 0]) * chain.delta)
    np.testing.assert_array_equal(nxt[0, 1:, 0], [1.0, 0.5])


def test_register_from_state_samples_lags(advert_spec):
    chain = reduce_to_lag_chain(advert_spec, 4)
    g = advert_spec.grid
    x = LiftedState([2.0], Segment(g, (g.nodes ** 2)[:, None]))
    reg = register_from_state(chain, x)
    assert reg[0, 0] == 2.0
    for j in range(1, 5):
        assert reg[j, 0] == pytest.approx((j * chain.delta) ** 2, abs=1e-4)


# ---------------------------------------------------------------------------
# tensor fields and the noise rule


def test_value_field_exact_at_nodes_and_clamps():
    axes = (np.linspace(0, 1, 5), np.array([2.0]))
    vals = np.arange(5.0).reshape(5, 1)
    f = ValueField(axes, vals)
    pts = np.array([[0.25, 2.0], [1.5, 2.0]])
    stats = ClampStats()
    out = f.interp(pts, stats)
    assert out[0] == pytest.approx(1.0)
    assert out[1] == pytest.approx(4.0)  # clamped to the right edge
    assert stats.lookups == 2 and stats.clamped == 1


def test_policy_field_nearest_node():
    axes = (np.linspace(0, 1, 3),)
    pol = PolicyField(axes, np.array([0, 1, 2]), np.array([[0.0], [0.5], [1.0]]))
    picks = pol.index_at(np.array([[0.2], [0.3], [0.9]]))
    np.testing.assert_array_equal(picks, [0, 1, 2])


@st.composite
def grids_and_points(draw):
    """Strictly increasing axes of 1-5 nodes and points on, between, around them."""
    axes = tuple(np.cumsum(draw(st.lists(st.floats(0.01, 2.0), min_size=k, max_size=k))) - 1.0
                 for k in draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)))

    def coordinate(ax):
        marks = list(ax) + list((ax[:-1] + ax[1:]) / 2)  # nodes and midpoints
        return st.one_of(st.floats(ax[0] - 1.0, ax[-1] + 1.0), st.sampled_from(marks))

    pts = draw(st.lists(st.tuples(*map(coordinate, axes)), min_size=1, max_size=8))
    return axes, np.array(pts, dtype=float)


@settings(max_examples=200, deadline=None)
@given(grids_and_points())
def test_policy_lookup_is_brute_force_nearest_node(case):
    # nearest node per axis, ties to the lower node, outside points clamped;
    # the multilinear interpolant is exact at the nodes
    axes, pts = case
    shape = tuple(len(ax) for ax in axes)
    size = math.prod(shape)
    pol = PolicyField(axes, np.arange(size).reshape(shape), np.zeros((size, 1)))
    nearest = [np.argmin(np.abs(ax[None, :] - np.clip(pts[:, [a]], ax[0], ax[-1])), axis=1)
               for a, ax in enumerate(axes)]
    np.testing.assert_array_equal(pol.index_at(pts), np.ravel_multi_index(nearest, shape))
    field = ValueField(axes, np.sin(np.arange(size, dtype=float)).reshape(shape))
    np.testing.assert_array_equal(field.interp(field.nodes()), field.values.ravel())


@pytest.mark.parametrize("axis", [np.array([1.0, 0.5, 0.0]), np.array([0.0, np.nan, 1.0]),
                                  np.array([np.nan])], ids=["decreasing", "nan", "nan-single"])
def test_fields_refuse_unordered_or_nan_axes(axis):
    with pytest.raises(ValidationError):
        ValueField((axis,), np.zeros(len(axis)))
    with pytest.raises(ValidationError):
        PolicyField((axis,), np.zeros(len(axis), dtype=np.int64), np.zeros((1, 1)))


def test_noise_rule_moments():
    nodes, w = noise_rule(1, 5)
    assert w.sum() == pytest.approx(1.0, abs=1e-14)
    # exact standard normal moments through degree 9
    for k, exact in [(1, 0.0), (2, 1.0), (3, 0.0), (4, 3.0), (6, 15.0), (8, 105.0)]:
        assert float(np.sum(w * nodes[:, 0] ** k)) == pytest.approx(exact, abs=1e-9)
    nodes2, w2 = noise_rule(1, 2)
    assert float(np.sum(w2 * nodes2[:, 0] ** 2)) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# value iteration


def constant_cost_chain(rho=1.0, delta_target=0.5):
    p = AffineTestParams(drift_const=(0.0,), drift_state=((0.0,),),
                         drift_delay=((0.0,),), drift_control=((0.0,),),
                         noise_const=((0.0,),), kernel_scale=0.0, rho=rho,
                         cost_state_scale=0.0, cost_control_scale=1.0,
                         control_lo=1.0, control_hi=1.0, n_controls=1,
                         d=delta_target, x0=(0.0,), x1=(0.0,))
    spec = build_affine_test(p, 4)
    return reduce_to_lag_chain(spec, 1)


def test_value_iteration_constant_cost_fixed_point():
    chain = constant_cost_chain()
    axes = (np.linspace(-1, 1, 5), np.array([0.0]))
    res = value_iteration(chain, axes, tol=1e-12, max_iter=10000)
    delta = chain.delta
    expected = delta / (1 - math.exp(-chain.spec.rho * delta))
    np.testing.assert_allclose(res.value.values, expected, rtol=1e-10)
    # the fixed point approaches 1/rho as the lag step shrinks
    fine = constant_cost_chain(delta_target=0.01)
    res2 = value_iteration(fine, (np.linspace(-1, 1, 3), np.array([0.0])),
                           tol=1e-12, max_iter=100000)
    assert res2.value.values[0, 0] == pytest.approx(1.0, abs=0.01)


def test_value_iteration_contracts_at_discount_rate(advertising_solution):
    chain, res = advertising_solution
    rate = chain.step_discount
    hist = res.residual_history
    ratios = hist[1:] / np.maximum(hist[:-1], 1e-300)
    assert np.all(ratios[1:] <= rate + 0.05)


def test_value_iteration_merton_quick(merton_nodelay_solution):
    chain, res = merton_nodelay_solution
    oracle = models.merton_classical_oracle(0.01, 0.07, 0.3, 0.5, 0.1)
    x = models.initial_state(chain.spec)
    z0 = chain.flatten(register_from_state(chain, x))
    v = -res.value.interp_one(z0)
    assert v == pytest.approx(oracle.value(1.0), rel=0.03)


def test_value_iteration_matches_affine_oracle():
    # with affine dynamics, additive noise and a linear utility the exact
    # chain value is affine, V(z) = kappa + p . z with p solving a linear
    # fixed point and a state-independent best control; multilinear
    # interpolation and the noise quadrature are exact on affine fields, so
    # value iteration must reproduce it to rounding
    p_ad = AdvertisingParams()
    spec = build_advertising(p_ad, 100)
    for m_lag in (1, 2):
        chain = reduce_to_lag_chain(spec, m_lag)
        delta, beta, k = chain.delta, chain.step_discount, m_lag + 1
        w = np.array([chain.wk[0][k - 1 - j, 0, 0] for j in range(k)])
        M = np.zeros((k, k))
        M[0, :] = delta * w
        M[0, 0] += 1 + delta * p_ad.a0
        for j in range(1, k):
            M[j, j - 1] = 1.0
        e0 = np.zeros(k)
        e0[0] = 1.0
        p = np.linalg.solve(np.eye(k) - beta * M.T, -delta * e0)
        us = spec.control_set[:, 0]
        scores = p_ad.spend_cost * us ** 2 * delta + beta * p[0] * delta * p_ad.c0 * us
        kappa = float(np.min(scores)) / (1 - beta)
        x = models.initial_state(spec)
        z0 = chain.flatten(register_from_state(chain, x))
        v_oracle = kappa + p @ z0

        axes = tuple([np.linspace(-2.0, 4.0, 41)]
                     + [np.linspace(-2.0, 4.0, 11)] * m_lag)
        res = value_iteration(chain, axes, tol=1e-10, max_iter=20000)
        # a handful of extreme corners clamp; their bias dies out long
        # before the evaluation point
        assert res.clamp_rate <= 1e-3
        assert res.value.interp_one(z0) == pytest.approx(v_oracle, abs=1e-8)
        u_num = res.policy.control_set[res.policy.index_at(z0[None, :])[0], 0]
        assert u_num == pytest.approx(us[int(np.argmin(scores))])


def test_value_iteration_two_noise_sources():
    # tensor quadrature over two independent drivers
    p = AffineTestParams(n=1, q=2, noise_const=((0.3, 0.2),),
                         drift_state=((-0.5,),), rho=1.0, d=0.5,
                         x0=(0.5,), x1=(0.5,))
    spec = build_affine_test(p, 10)
    chain = reduce_to_lag_chain(spec, 1)
    axes = (np.linspace(-2, 3, 15), np.linspace(-2, 3, 7))
    res = value_iteration(chain, axes, tol=1e-9, max_iter=20000, gh_points=3)
    x = models.initial_state(spec)
    rep = dpp_gap(chain, res.value, x, tau=2 * chain.delta, n_paths=2000, seed=2)
    assert rep.ok(0.03 * (1 + abs(rep.value_at_x)))


def _reference_plans(chain, axes, gh_points=5):
    """Stage costs and interpolation plans of every control, built like
    value_iteration's: one plan block per Gauss-Hermite node, in node order."""
    spec, pts = chain.spec, _tensor_nodes(axes)
    regs, (zeta, zw) = chain.unflatten(pts), noise_rule(spec.q, gh_points)
    stage, plans = [], []
    for u in spec.control_set:
        uu = np.broadcast_to(u, (pts.shape[0], spec.p))
        stage.append(chain.running_cost(regs, uu))
        blocks = [_interp_plan(axes, chain.flatten(chain.step(
            regs, uu, np.broadcast_to(z, (pts.shape[0], spec.q))))) for z in zeta]
        plans.append((np.concatenate([i for i, _ in blocks], axis=1),
                      np.concatenate([w * g for (_, w), g in zip(blocks, zw)], axis=1)))
    return stage, plans


def _reference_sweep(chain, stage, plans, v):
    """One plain Bellman sweep: (Tv, greedy control index per node)."""
    totals = np.stack([c + chain.step_discount * np.sum(v[i] * w, axis=1)
                       for c, (i, w) in zip(stage, plans)])
    best = np.argmin(totals, axis=0)
    return totals[best, np.arange(v.size)], best


def _reference_value_iteration(chain, axes, tol):
    """Plain value iteration from zero until |Tv - v| <= tol: (Tv, policy, residual)."""
    stage, plans = _reference_plans(chain, axes)
    v = np.zeros(len(stage[0]))
    while True:
        v_new, best = _reference_sweep(chain, stage, plans, v)
        residual, v = float(np.max(np.abs(v_new - v))), v_new
        if residual <= tol:
            return v, best, residual


@pytest.fixture(scope="module")
def oracle_cases(advertising_solution, merton_nodelay_solution):
    """(chain, value_iteration result) on the advertising fixture, specs/affine.json
    and the 281-node merton_nodelay grid."""
    affine_chain = reduce_to_lag_chain(models.load_spec_file(SPECS / "affine.json"), 1)
    affine_axes = (np.linspace(-1.0, 2.5, 17), np.linspace(-1.0, 2.5, 7))
    return [advertising_solution,
            (affine_chain, value_iteration(affine_chain, affine_axes, tol=1e-8, max_iter=20000)),
            merton_nodelay_solution]


def test_value_iteration_agrees_with_plain_value_iteration(oracle_cases):
    # the reference stops on the sweep residual; both values lie within their
    # own a-posteriori bound of the fixed point, so within the sum of each other
    for chain, res in oracle_cases:
        v_ref, policy_ref, residual_ref = _reference_value_iteration(
            chain, res.value.axes, tol=1e-8)
        np.testing.assert_array_equal(res.policy.indices.ravel(), policy_ref)
        gap = np.max(np.abs(res.value.values.ravel() - v_ref))
        assert gap <= res.value_error_bound + bellman_bound(chain.step_discount, residual_ref)
        assert res.value_error_bound == bellman_bound(chain.step_discount, res.residual)
        assert res.evaluation_sweeps == (res.iterations - 1) * EVAL_SWEEPS


def test_value_iteration_one_sweep_is_the_reference_sweep(oracle_cases):
    # tol = inf, max_iter = 1 from v0 is one plain Bellman sweep, bit for bit
    for chain, res in oracle_cases:
        axes, v = res.value.axes, res.value.values.ravel()
        one = value_iteration(chain, axes, tol=math.inf, max_iter=1, v0=res.value)
        v_ref, policy_ref = _reference_sweep(chain, *_reference_plans(chain, axes), v)
        np.testing.assert_array_equal(one.value.values.ravel(), v_ref)
        np.testing.assert_array_equal(one.policy.indices.ravel(), policy_ref)
        assert one.residual == np.max(np.abs(v_ref - v))
        assert (one.iterations, one.evaluation_sweeps) == (1, 0)


def test_value_iteration_nonconvergence_raises():
    chain = constant_cost_chain(rho=1e-9)
    axes = (np.linspace(-1, 1, 3), np.array([0.0]))
    from delayopt.core import NumericalError
    with pytest.raises(NumericalError, match="residual"):
        value_iteration(chain, axes, tol=1e-12, max_iter=5)


def test_value_iteration_infinite_tol_is_one_sweep():
    # a single reference Bellman sweep; negative and nan tols are refused
    # (see test_cli.py::test_malformed_input_exits_one)
    chain = constant_cost_chain()
    axes = (np.linspace(-1, 1, 3), np.array([0.0]))
    assert value_iteration(chain, axes, tol=math.inf, max_iter=1).iterations == 1


# ---------------------------------------------------------------------------
# dynamic programming gap


def test_dpp_gap_zero_horizon(advertising_solution):
    chain, res = advertising_solution
    x = models.initial_state(chain.spec)
    rep = dpp_gap(chain, res.value, x, tau=0.0, n_paths=10, seed=0)
    assert rep.gap == 0.0 and rep.stderr == 0.0


def test_dpp_gap_singleton_control_is_bellman_residual():
    p = AffineTestParams(n_controls=1, control_lo=0.5, control_hi=0.5,
                         noise_const=((0.3,),), rho=1.0, d=0.5,
                         x0=(0.5,), x1=(0.5,))
    spec = build_affine_test(p, 4)
    chain = reduce_to_lag_chain(spec, 1)
    axes = (np.linspace(-2, 3, 41), np.linspace(-2, 3, 11))
    res = value_iteration(chain, axes, tol=1e-10, max_iter=20000)
    x = models.initial_state(spec)
    rep = dpp_gap(chain, res.value, x, tau=2 * chain.delta, n_paths=4000, seed=1)
    # single control: the gap is a pure discretization + Monte Carlo residual
    assert abs(rep.gap) <= 2 * rep.stderr + 0.03 * (1 + abs(rep.value_at_x))


def test_dpp_gap_advertising(advertising_solution):
    chain, res = advertising_solution
    x = models.initial_state(chain.spec)
    rep = dpp_gap(chain, res.value, x, tau=5 * chain.delta, n_paths=4000, seed=2)
    assert rep.ok(0.03 * (1 + abs(rep.value_at_x)))


def _register_rollout_gap(chain, value, x, tau, n_paths, seed):
    """(gap, stderr) of the register rollout dpp_gap ran before it stepped
    through sdde: the chain's own Euler head update and shift, with the
    discounted stage costs summed step by step. Path i draws its noise from
    the stream keyed on (seed, i)."""
    from delayopt.sdde import _philox

    spec, delta = chain.spec, chain.delta
    k_tau = round(tau / delta)
    z0 = chain.flatten(register_from_state(chain, x))
    zeta = np.stack([_philox(seed, i).standard_normal((k_tau, spec.q))
                     for i in range(n_paths)], axis=1)
    best = (math.inf, 0.0)
    for c in spec.control_set:
        u = np.broadcast_to(c, (n_paths, spec.p))
        regs = np.repeat(chain.unflatten(z0)[None, :, :], n_paths, axis=0)
        cost = np.zeros(n_paths)
        for k in range(k_tau):
            y = regs[:, 0, :]
            cost += math.exp(-spec.rho * k * delta) * np.asarray(spec.cost(y, u)) * delta
            z1, z2 = chain.delay_integrals(regs)
            y_new = (y + np.asarray(spec.drift(y, z1, u)) * delta
                     + np.einsum("pnq,pq->pn", spec.noise(y, z2, u), zeta[k]) * math.sqrt(delta))
            regs = np.concatenate([y_new[:, None, :], regs[:, :-1, :]], axis=1)
        cost += math.exp(-spec.rho * tau) * value.interp(chain.flatten(regs))
        if np.mean(cost) < best[0]:
            best = (float(np.mean(cost)), float(np.std(cost, ddof=1) / math.sqrt(n_paths)))
    return value.interp_one(z0) - best[0], best[1]


def test_dpp_gap_matches_register_rollout(merton_delay_spec):
    # delayed Merton on a 3-node register, from a non-constant history, with
    # an arbitrary field: the sdde rollout reproduces the register rollout
    spec = merton_delay_spec
    chain = reduce_to_lag_chain(spec, 2)
    g = spec.grid
    tail = np.stack([1.0 + 0.8 * g.nodes, 1.0 - 1.5 * g.nodes], axis=-1)
    x = LiftedState(tail[-1], Segment(g, tail))
    z0 = chain.flatten(register_from_state(chain, x))
    axes = tuple(np.linspace(0.5 * v, 1.5 * v, 4) for v in z0)
    rng = np.random.default_rng(5)
    value = ValueField(axes, rng.normal(size=(4,) * len(axes)))
    rep = dpp_gap(chain, value, x, tau=3 * chain.delta, n_paths=400, seed=4)
    gap, stderr = _register_rollout_gap(chain, value, x, 3 * chain.delta, 400, 4)
    assert rep.gap == pytest.approx(gap, rel=1e-12)
    assert rep.stderr == pytest.approx(stderr, rel=1e-12)


# ---------------------------------------------------------------------------
# reduced-equation residual


def test_residual_constant_field_zero():
    chain = constant_cost_chain()
    axes = (np.linspace(-1, 1, 9), np.linspace(-1, 1, 9))
    rho = chain.spec.rho
    f = ValueField(axes, np.full((9, 9), 1.0 / rho))
    r = hjb_residual(chain, f, np.array([0.1, -0.2]))
    assert r == pytest.approx(0.0, abs=1e-10)


def test_residual_shift_adds_discount_times_constant():
    chain = constant_cost_chain()
    axes = (np.linspace(-1, 1, 9), np.linspace(-1, 1, 9))
    rho = chain.spec.rho
    f1 = ValueField(axes, np.full((9, 9), 1.0 / rho))
    f2 = ValueField(axes, np.full((9, 9), 1.0 / rho + 0.37))
    z = np.array([0.1, -0.2])
    assert hjb_residual(chain, f2, z) - hjb_residual(chain, f1, z) == pytest.approx(
        rho * 0.37, rel=1e-10)


def test_residual_boundary_margin_enforced():
    chain = constant_cost_chain()
    axes = (np.linspace(-1, 1, 9), np.linspace(-1, 1, 9))
    f = ValueField(axes, np.zeros((9, 9)))
    with pytest.raises(DomainError):
        hjb_residual(chain, f, np.array([-1.0, 0.0]))


def test_residual_median_decreases_under_lag_refinement(advertising_spec):
    spec = advertising_spec
    rng_pts = np.random.default_rng(1)
    medians = []
    for m_lag in (1, 2):
        chain = reduce_to_lag_chain(spec, m_lag)
        axes = tuple([np.linspace(-1.0, 2.5, 33)]
                     + [np.linspace(-1.0, 2.5, 9)] * m_lag)
        res = value_iteration(chain, axes, tol=1e-9, max_iter=10000)
        rs = []
        rng = np.random.default_rng(2)
        for _ in range(40):
            pt = np.array([rng.uniform(ax[1], ax[-2]) for ax in axes])
            rs.append(abs(hjb_residual(chain, res.value, pt)))
        medians.append(float(np.median(rs)))
    assert medians[1] <= 0.8 * medians[0]


# ---------------------------------------------------------------------------
# feedback extraction and closed-loop evaluation


def test_extract_feedback_singleton_constant():
    chain = constant_cost_chain()
    axes = (np.linspace(-1, 1, 5), np.array([0.0]))
    res = value_iteration(chain, axes, tol=1e-10, max_iter=10000)
    pol = extract_feedback(chain, res.value)
    assert np.all(pol.indices == 0)


def test_extract_feedback_bang_bang_for_linear_control():
    # control enters the drift linearly and the cost not at all: the best
    # control sits at a bound wherever the gradient is resolved
    p = AffineTestParams(drift_control=((1.0,),), cost_control_scale=0.0,
                         noise_const=((0.3,),), control_lo=-1.0, control_hi=1.0,
                         n_controls=5, rho=1.0, d=0.5, x0=(0.5,), x1=(0.5,))
    spec = build_affine_test(p, 4)
    chain = reduce_to_lag_chain(spec, 1)
    axes = (np.linspace(-3, 3, 31), np.linspace(-3, 3, 7))
    res = value_iteration(chain, axes, tol=1e-9, max_iter=20000)
    pol = extract_feedback(chain, res.value)
    counts = np.bincount(pol.indices.ravel(), minlength=5)
    assert counts[0] + counts[-1] >= 0.9 * pol.indices.size


def test_extract_feedback_uses_diffusion_when_control_dependent(
        merton_nodelay_solution):
    chain, res = merton_nodelay_solution
    pol = extract_feedback(chain, res.value)
    x = models.initial_state(chain.spec)
    z0 = chain.flatten(register_from_state(chain, x))
    assert float(pol.control_at(z0[None, :])[0][0]) == pytest.approx(1.0)


def _drift_cost_argmin(chain, value):
    """Feedback by the argmin of drift . p0 + cost alone, the extraction's
    score when the noise ignores the control."""
    spec = chain.spec
    p0 = np.stack([np.gradient(value.values, ax, axis=a).ravel() if len(ax) > 1
                   else np.zeros(value.values.size)
                   for a, ax in enumerate(value.axes[:spec.n])], axis=-1)
    regs = chain.unflatten(value.nodes())
    y = regs[..., 0, :]
    z1, _ = chain.delay_integrals(regs)
    scores = []
    for u in spec.control_set:
        uu = np.broadcast_to(u, (y.shape[0], spec.p))
        scores.append(np.einsum("kn,kn->k", np.asarray(spec.drift(y, z1, uu)), p0)
                      + np.asarray(spec.cost(y, uu)))
    return np.argmin(scores, axis=0)


def test_extract_feedback_matches_drift_cost_argmin_for_control_free_noise(
        advertising_solution):
    affine = models.load_spec_file(SPECS / "affine.json")
    affine_chain = reduce_to_lag_chain(affine, 1)
    axes = (np.linspace(-1.0, 2.5, 17), np.linspace(-1.0, 2.5, 7))
    cases = [advertising_solution,
             (affine_chain, value_iteration(affine_chain, axes, tol=1e-8, max_iter=20000))]
    rng = np.random.default_rng(11)
    for chain, res in cases:
        spec = chain.spec
        y = rng.normal(size=(4, spec.n))
        z = rng.normal(size=(4, spec.kernel_noise.h_dim))
        sigs = [spec.noise(y, z, np.broadcast_to(u, (4, spec.p))) for u in spec.control_set]
        assert all(np.array_equal(s, sigs[0]) for s in sigs)  # the noise ignores u
        noisy = ValueField(res.value.axes, rng.normal(size=res.value.values.shape))
        for field in (res.value, noisy):
            pol = extract_feedback(chain, field)
            np.testing.assert_array_equal(pol.indices.ravel(), _drift_cost_argmin(chain, field))


def test_scaled_cost_scales_value_not_policy():
    base = AffineTestParams(noise_const=((0.3,),), rho=1.0, d=0.5,
                            cost_state_scale=1.0, cost_control_scale=0.1,
                            x0=(0.5,), x1=(0.5,))
    scaled = AffineTestParams(noise_const=((0.3,),), rho=1.0, d=0.5,
                              cost_state_scale=3.0, cost_control_scale=0.3,
                              x0=(0.5,), x1=(0.5,))
    axes = (np.linspace(-2, 3, 21), np.linspace(-2, 3, 7))
    out = {}
    for tag, p in (("base", base), ("scaled", scaled)):
        chain = reduce_to_lag_chain(build_affine_test(p, 4), 1)
        out[tag] = value_iteration(chain, axes, tol=1e-11, max_iter=30000)
    np.testing.assert_allclose(out["scaled"].value.values,
                               3.0 * out["base"].value.values, rtol=1e-6)
    np.testing.assert_array_equal(out["scaled"].policy.indices,
                                  out["base"].policy.indices)


def test_argmax_invariant_at_fixed_field_under_joint_scaling():
    # at a fixed value field, scaling the cost and the control part of the
    # drift by the same positive constant keeps the extracted argmax
    axes = (np.linspace(-2, 3, 21), np.linspace(-2, 3, 7))
    rng = np.random.default_rng(3)
    field = ValueField(axes, rng.normal(size=(21, 7)))
    pols = []
    for s in (1.0, 2.5):
        p = AffineTestParams(drift_control=((0.5 * s,),),
                             cost_state_scale=s, cost_control_scale=0.1 * s,
                             noise_const=((0.3,),), rho=1.0, d=0.5,
                             x0=(0.5,), x1=(0.5,))
        chain = reduce_to_lag_chain(build_affine_test(p, 4), 1)
        pols.append(extract_feedback(chain, field).indices)
    np.testing.assert_array_equal(pols[0], pols[1])


def test_constant_policy_equals_open_loop(advertising_solution):
    chain, _ = advertising_solution
    spec = chain.spec
    x = models.initial_state(spec)
    axes = tuple(np.array([v]) for v in
                 chain.flatten(register_from_state(chain, x)))
    pol = PolicyField(axes, np.full((1,) * chain.state_dim, 4, dtype=np.int64),
                      spec.control_set)
    a = policy_mc_value(chain, pol, x, T=2.0, delta=0.01, n_paths=32, seed=7)
    b = mc_cost(spec, x, OpenLoopControl(spec.control_set[4]), 2.0, 0.01, 32,
                seed=7)
    assert a == b


def test_feedback_requires_divisible_step(advertising_solution):
    chain, res = advertising_solution
    with pytest.raises(ValidationError):
        feedback_from_policy(chain, res.policy, delta=0.3)


def test_policy_value_deterministic_zero_stderr():
    spec = build_advertising(AdvertisingParams(sigma=0.0), 10)
    chain = reduce_to_lag_chain(spec, 2)
    axes = tuple([np.linspace(-1.0, 2.5, 9)] * 3)
    res = value_iteration(chain, axes, tol=1e-9, max_iter=10000)
    x = models.initial_state(spec)
    mean, stderr = policy_mc_value(chain, res.policy, x, T=2.0, delta=0.05,
                                   n_paths=8, seed=3)
    assert stderr == 0.0


def test_closed_loop_beats_or_matches_constants(advertising_solution):
    # the solved policy should not lose to the best constant control by
    # more than tolerance
    chain, res = advertising_solution
    spec = chain.spec
    x = models.initial_state(spec)
    vp, ep = policy_mc_value(chain, res.policy, x, T=4.0, delta=0.05,
                             n_paths=300, seed=11)
    best = min(mc_cost(spec, x, OpenLoopControl([u]), 4.0, 0.05, 300, seed=11)[0]
               for u in (0.0, 0.25, 0.5, 0.75, 1.0))
    assert vp <= best + 2 * ep + 0.02


# ---------------------------------------------------------------------------
# probes


def test_regularity_probe_quadratic_field():
    def estimator(pts):
        return 0.5 * np.sum(pts ** 2, axis=1) + pts[:, 0]

    rep = regularity_probe(None, estimator, [(-1.0, 1.0), (-1.0, 1.0)],
                           samples=7, gradient_spacing=0.05)
    assert rep.alpha_hat == pytest.approx(1.0, abs=0.05)
    assert rep.flags == ()
    assert rep.alpha_band[0] <= 1.0 <= rep.alpha_band[1]


def test_regularity_probe_kink_flagged():
    def estimator(pts):
        return np.abs(pts[:, 0])

    rep = regularity_probe(None, estimator, [(-1.0, 1.0)], samples=9,
                           gradient_spacing=0.02)
    assert rep.lipschitz == pytest.approx(1.0, abs=0.05)
    assert any("gradient-jump" in f for f in rep.flags)


def test_regularity_probe_noise_inconclusive():
    rng = np.random.default_rng(5)

    def estimator(pts):
        return 1e-6 * pts[:, 0] + rng.normal(scale=0.5, size=pts.shape[0])

    rep = regularity_probe(None, estimator, [(-1.0, 1.0)], samples=7, noise=0.5)
    assert any("inconclusive" in f for f in rep.flags)
    assert rep.alpha_hat is None


def test_regularity_probe_reports_only_without_ellipticity(advert_spec):
    spec = build_advertising(AdvertisingParams(sigma=0.0), 20)

    def estimator(pts):
        return np.sum(pts ** 2, axis=1)

    rep = regularity_probe(spec, estimator, [(-1.0, 1.0)], samples=7,
                           gradient_spacing=0.05)
    assert any("ellipticity" in f for f in rep.flags)


def test_b_continuity_trivial_pairs(advert_spec):
    spec = advert_spec
    x = models.initial_state(spec)
    est = paired_cost_estimator(spec, OpenLoopControl([0.5]), T=1.0, delta=0.05,
                                n_paths=16, seed=0)
    table = b_continuity_probe(spec, [(x, x)], est)
    assert table.differences[0] == 0.0 and table.distances[0] == 0.0


def test_b_continuity_oscillatory_pairs(advert_spec):
    # high-frequency tail perturbations of fixed amplitude shrink in the
    # weak norm; the paired value difference must shrink along with them
    spec = advert_spec
    x = models.initial_state(spec)
    est = paired_cost_estimator(spec, OpenLoopControl([0.5]), T=2.0, delta=0.025,
                                n_paths=64, seed=1)
    g = spec.grid
    pairs = []
    for freq in (1, 2, 4, 8):
        bump = 0.5 * np.sin(math.pi * freq * (g.nodes + 1.0))
        pairs.append((x, LiftedState(x.head, Segment(g, x.tail.values
                                                     + bump[:, None]))))
    table = b_continuity_probe(spec, pairs, est)
    # weak distances decrease with frequency, and so do the differences
    assert np.all(np.diff(table.distances) > 0)
    order = np.argsort(table.distances)
    diffs = table.differences[order]
    assert diffs[0] <= diffs[-1]
    assert diffs[0] <= 0.1 * diffs[-1] + 2 * table.stderrs[order][0] + 1e-3


def test_b_continuity_head_pairs_scale_like_lipschitz(advert_spec):
    # pairs differing only in the head: the paired value difference grows
    # at most proportionally with the head gap, with a stable ratio
    spec = advert_spec
    x = models.initial_state(spec)
    est = paired_cost_estimator(spec, OpenLoopControl([0.5]), T=2.0, delta=0.025,
                                n_paths=64, seed=9)
    ratios = []
    for eps in (0.05, 0.1, 0.2, 0.4):
        y = LiftedState(x.head + eps, x.tail)
        d, s = est(x, y)
        ratios.append(abs(d) / eps)
    assert max(ratios) / min(ratios) <= 2.0
    assert max(ratios) < 10.0


def test_envelope_helper():
    from delayopt.hjb import ContinuityTable
    t = ContinuityTable(np.array([0.01, 0.1, 0.5, 1.0]),
                        np.array([0.001, 0.01, 0.05, 0.1]),
                        np.array([0.0005] * 4))
    mono, vanish = envelope_is_monotone(t, buckets=4)
    assert mono and vanish
    bad = ContinuityTable(np.array([0.01, 0.1, 0.5, 1.0]),
                          np.array([0.2, 0.01, 0.05, 0.1]),
                          np.array([0.0001] * 4))
    mono, vanish = envelope_is_monotone(bad, buckets=4)
    assert not mono and not vanish


def test_growth_fit_bounds_field(advertising_solution):
    chain, res = advertising_solution
    c = growth_fit(res.value, chain, chain.spec.cost_growth_exponent)
    pts = res.value.nodes()
    regs = chain.unflatten(pts)
    w = chain.coarse_grid.weights
    window = regs[..., ::-1, :]
    tail_sq = np.einsum("j,kjn,kjn->k", w, window, window)
    norms = np.sqrt(np.einsum("kn,kn->k", regs[:, 0, :], regs[:, 0, :]) + tail_sq)
    lhs = np.abs(res.value.values.ravel())
    assert np.all(lhs <= c * (1 + norms) + 1e-12)
