import argparse
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import batch_of, node_tuple_control, node_tuple_index

from delayopt import cli, hjb, models
from delayopt.core import (DomainError, LiftedBatch, LiftedState, ValidationError,
                           _delay_integrals, kernel_convolve, weighted_kernels)
from delayopt.hjb import (
    PolicyField,
    ValueField,
    _best_score,
    _bicgstab,
    _build_plans,
    _interp_plan,
    _nearest_node_breaks,
    _plan_dot,
    _tensor_nodes,
    b_continuity_probe,
    bellman_bound,
    discount_floor,
    dpp_gap,
    envelope_is_monotone,
    extract_feedback,
    feedback_from_policy,
    hjb_residual,
    lipschitz_discount_threshold,
    max_growth_exponent,
    noise_rule,
    policy_mc_value,
    reduce_to_lag_chain,
    regularity_probe,
    value_iteration,
    growth_fit,
)
from delayopt.models import AdvertisingParams, AffineTestParams, build_advertising, build_affine_test
from delayopt.operators import SMOOTH_MODES, minus_one_norm, random_smooth_state, smooth_states

SPECS = Path(__file__).resolve().parent.parent / "specs"
from delayopt.sdde import OpenLoopControl, _start_window, mc_cost


def start_point(chain, x):
    """The flat start register of x: its history window on the lag grid."""
    return chain.flatten(_start_window(x, chain.coarse_grid))


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
    # without growth every exponent is admissible: the limit as c -> 0+
    assert max_growth_exponent(1.0, 0.0) == (math.inf, "quadratic-bound")
    k, case = max_growth_exponent(1.0, 1e-9)
    assert case == "quadratic-bound" and k > 1e8
    for rho, c in ((0.0, 1.0), (1.0, -1e-9), (math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(ValidationError):
            max_growth_exponent(rho, c)


def test_max_growth_exponent_monotone_in_discount():
    ks = [max_growth_exponent(rho, 0.7)[0] for rho in (0.5, 1.0, 2.0, 5.0, 20.0)]
    assert all(a < b for a, b in zip(ks, ks[1:]))


def test_lipschitz_discount_threshold():
    assert lipschitz_discount_threshold(0.0, 5.0) == 0.0
    assert lipschitz_discount_threshold(1.0, 2.0) == pytest.approx(2.0)
    a = lipschitz_discount_threshold(1.0, 2.0)
    assert lipschitz_discount_threshold(1.5, 2.0) > a
    assert lipschitz_discount_threshold(1.0, 3.0) > a
    for c, gram_norm in ((-1.0, 2.0), (1.0, -2.0)):
        with pytest.raises(ValidationError, match="constants must be nonnegative"):
            lipschitz_discount_threshold(c, gram_norm)


# ---------------------------------------------------------------------------
# Hamiltonian


@pytest.fixture(scope="module")
def advert_spec():
    return build_advertising(AdvertisingParams(), 40)


def hamiltonian_at(spec, x, p0, z00):
    """(value, best control index) of the reduced Hamiltonian at each state
    of the batch x, with head gradients p0 (k, n) and Hessian blocks z00
    (k, n, n); the delay integrals are the simulators' quadrature."""
    z1, z2 = _delay_integrals(weighted_kernels(spec, spec.grid), x.tails)
    return _best_score(spec, x.heads, z1, z2, p0, z00)


def off_domain_states(grid, n, rng, k):
    """k states with smooth tails and heads drawn after them, off the
    generator domain."""
    x = smooth_states(grid, rng.normal(size=(k, n, SMOOTH_MODES)))
    return LiftedBatch(grid, rng.normal(size=(k, n)), x.tails)


def test_hamiltonian_singleton_formula(advert_spec):
    spec = build_advertising(AdvertisingParams(n_controls=1, u_max=1e-9), 40)
    rng = np.random.default_rng(0)
    x = random_smooth_state(spec.grid, 1, rng)
    p0 = rng.normal(size=1)
    z00 = np.array([[0.7]])
    val, best = hamiltonian_at(spec, x, p0[None], z00[None])
    u = spec.control_set[best[0]]
    head, tail = x.heads[0], x.tails[0]
    z1 = kernel_convolve(spec.kernel_drift, tail)
    b = np.asarray(spec.drift(head, z1, u))
    sig = np.asarray(spec.noise(head, kernel_convolve(spec.kernel_noise, tail), u))
    expected = (-head @ p0 - b @ p0 - 0.5 * (sig @ sig.T * z00).item()
                - float(spec.cost(head, u)))
    assert val[0] == pytest.approx(float(expected), rel=1e-12)


def test_hamiltonian_monotone_in_hessian(advert_spec):
    # adding a positive semidefinite block cannot increase the value
    spec = advert_spec
    rng = np.random.default_rng(1)
    x = off_domain_states(spec.grid, 1, rng, 1000)
    p0 = rng.normal(size=(1000, 1))
    z = rng.normal(size=(1000, 1, 1))
    bump = rng.uniform(0, 2, size=(1000, 1, 1))  # psd in one dimension
    v1, _ = hamiltonian_at(spec, x, p0, z)
    v2, _ = hamiltonian_at(spec, x, p0, z + bump)
    assert np.all(v2 <= v1 + 1e-12)


def test_hamiltonian_monotone_in_hessian_2d():
    spec = models.load_spec_file(SPECS / "merton_delay.json")
    rng = np.random.default_rng(2)
    x = off_domain_states(spec.grid, 2, rng, 1000)
    p0 = rng.normal(size=(1000, 2))
    a = rng.normal(size=(1000, 2, 2))
    z = (a + a.transpose(0, 2, 1)) / 2
    c = rng.normal(size=(1000, 2, 2))
    bump = c @ c.transpose(0, 2, 1)
    v1, _ = hamiltonian_at(spec, x, p0, z)
    v2, _ = hamiltonian_at(spec, x, p0, z + bump)
    assert np.all(v2 <= v1 + 1e-10)


def test_hamiltonian_perturbation_bound(advert_spec):
    # effective coefficient constant for the rewritten drift (head damping
    # included) and kernel-weighted delay term
    spec = advert_spec
    kn = float(np.sqrt(np.sum(spec.kernel_drift.values ** 2)
                       * spec.grid.h))
    c_eff = (spec.growth_const * (1.0 + kn) + 1.0) * 2.0
    rng = np.random.default_rng(3)
    x = off_domain_states(spec.grid, 1, rng, 1000)
    nx = np.sqrt(np.maximum(np.sum(x.heads ** 2, axis=1) + np.sum(
        spec.grid.weights[:, None] * x.tails ** 2, axis=(1, 2)), 0))
    p0, q0 = rng.normal(size=(1000, 1)), rng.normal(size=(1000, 1))
    za, zb = rng.normal(size=(1000, 1, 1)), rng.normal(size=(1000, 1, 1))
    v1, _ = hamiltonian_at(spec, x, p0, za)
    v2, _ = hamiltonian_at(spec, x, p0 + q0, za + zb)
    bound = (c_eff * (1 + nx) * np.abs(q0[:, 0])
             + 0.5 * c_eff ** 2 * (1 + nx) ** 2 * np.abs(zb[:, 0, 0]))
    assert np.all(np.abs(v2 - v1) <= bound + 1e-10)


def test_hamiltonian_tie_breaks_to_lowest_index():
    # without control in drift or cost every control ties; argmax must pick
    # the first
    p = AdvertisingParams(c0=0.0, spend_cost=0.0)
    spec = build_advertising(p, 20)
    rng = np.random.default_rng(4)
    x = off_domain_states(spec.grid, 1, rng, 1000)
    _, best = hamiltonian_at(spec, x, np.full((1000, 1), 0.3), np.full((1000, 1, 1), 0.1))
    assert np.all(best == 0)


def test_hamiltonian_bq_block_perturbation_vanishes(advert_spec):
    # adding the head block of B Q_N perturbs the value less and less as
    # modes accumulate, and not at all once the spectrum is exhausted
    from delayopt.operators import assemble_gram_operator, spectral_decomposition
    spec = advert_spec
    op = assemble_gram_operator(spec.grid)
    dec = spectral_decomposition(op)
    rng = np.random.default_rng(5)
    x = random_smooth_state(spec.grid, 1, rng)
    p0 = rng.normal(size=(1, 1))
    z = np.array([[[0.4]]])
    lam = 2.0
    devs = []
    for n_modes in (1, 5, 20, dec.dim):
        bq = op.matrix @ dec.tail_projector(n_modes)
        block = lam * bq[:1, :1]
        v1, _ = hamiltonian_at(spec, x, p0, z)
        v2, _ = hamiltonian_at(spec, x, p0, z + (block + block.T) / 2)
        devs.append(abs(v2[0] - v1[0]))
    assert all(a >= b - 1e-14 for a, b in zip(devs, devs[1:]))
    assert devs[-1] <= 1e-12


# ---------------------------------------------------------------------------
# lag chain


def test_chain_kernel_consistent_with_convolution(advert_spec):
    from delayopt.core import resample_kernel

    spec = advert_spec
    chain = reduce_to_lag_chain(spec, 4)
    coarse_kernel = resample_kernel(spec.kernel_drift, chain.coarse_grid)
    rng = np.random.default_rng(7)
    reg = rng.normal(size=(3, 5, 1))
    z1, _ = _delay_integrals(chain.wk, reg)
    for i in range(3):
        np.testing.assert_allclose(z1[i], kernel_convolve(coarse_kernel, reg[i]),
                                   rtol=1e-12)


def test_chain_single_lag_degenerate_quadrature():
    # with one lag the trapezoid reduces to (d/2)(a(-d) y_lag + a(0) y0) and
    # the kernel vanishes at -d
    spec = build_advertising(AdvertisingParams(kernel_scale=-1.0), 10)
    chain = reduce_to_lag_chain(spec, 1)
    reg = np.array([[[5.0], [2.0]]])  # y(t - d), y(t)
    z1, _ = _delay_integrals(chain.wk, reg)
    assert z1[0, 0] == pytest.approx(0.5 * 1.0 * (-1.0) * 2.0, rel=1e-12)


def test_chain_matches_direct_simulation_stepwise():
    # from a non-constant history, the register after k chain steps is the
    # direct simulator's window after k steps of size delta, bit for bit
    from delayopt import cli
    from delayopt.sdde import simulate_sdde

    spec = build_advertising(AdvertisingParams(sigma=0.3), 10)
    g = spec.grid
    x = LiftedState(g, [0.7], (np.cos(3.0 * g.nodes) - 0.2)[:, None])
    ctrl = OpenLoopControl([0.4])
    zeta = np.random.default_rng(9).standard_normal((1, 7, 1))
    for m_lag in (1, 2, 4):
        chain = reduce_to_lag_chain(spec, m_lag)
        delta = chain.delta
        dw = zeta * math.sqrt(delta)
        reg = _start_window(x, chain.coarse_grid)[None, :, :]
        for k in range(8):
            window = simulate_sdde(spec, x, ctrl, k * delta, delta, dw).window
            np.testing.assert_array_equal(reg, window)
            if k < 7:
                reg = chain.step(reg, np.array([[0.4]]), zeta[:, k])
        # the solver's flat start point is the simulator's start window
        run = cli.Run(argparse.Namespace(mlag=m_lag, grid=""), spec, x, Path())
        start = simulate_sdde(spec, x, ctrl, 0.0, delta, (0, 2)).window[0]
        np.testing.assert_array_equal(chain.flatten(start), cli._lag_grid(run)[2])


def test_chain_deterministic_recursion():
    spec = build_advertising(AdvertisingParams(sigma=0.0), 4)
    chain = reduce_to_lag_chain(spec, 2)
    reg = np.array([[[0.2], [0.5], [1.0]]])
    u = np.array([[0.3]])
    z1, _ = _delay_integrals(chain.wk, reg)
    b = spec.drift(reg[:, -1, :], z1, u)
    nxt = chain.step(reg, u, np.zeros((1, 1)))
    assert nxt[0, -1, 0] == pytest.approx(1.0 + float(b[0, 0]) * chain.delta)
    np.testing.assert_array_equal(nxt[0, :-1, 0], [0.5, 1.0])


def test_start_window_samples_lags(advert_spec):
    chain = reduce_to_lag_chain(advert_spec, 4)
    g = advert_spec.grid
    x = LiftedState(g, [2.0], (g.nodes ** 2)[:, None])
    reg = chain.unflatten(start_point(chain, x))
    assert reg[-1, 0] == 2.0
    for j in range(1, 5):
        assert reg[-1 - j, 0] == pytest.approx((j * chain.delta) ** 2, abs=1e-4)


# ---------------------------------------------------------------------------
# tensor fields and the noise rule


def test_value_field_exact_at_nodes_and_clamps():
    axes = (np.linspace(0, 1, 5), np.array([2.0]))
    vals = np.arange(5.0).reshape(5, 1)
    f = ValueField(axes, vals)
    pts = np.array([[0.25, 2.0], [1.5, 2.0]])
    out = f.interp(pts)
    assert out[0] == pytest.approx(1.0)
    assert out[1] == pytest.approx(4.0)  # clamped to the right edge
    assert _interp_plan(axes, pts)[2] == 1


def test_interp_plan_counts_each_clamped_point_once():
    # a point counts when it leaves an axis with more than one node, once
    # however many it leaves; a single-node axis, a NaN coordinate and a
    # point on the box's edge count nothing
    axes = (np.linspace(0.0, 1.0, 3), np.linspace(0.0, 2.0, 5), np.array([0.5]))
    pts = np.array([[0.5, 1.0, 0.5],       # inside
                    [1.5, 1.0, 0.5],       # above axis 0
                    [-1.0, 3.0, 0.5],      # off axes 0 and 1
                    [0.5, 1.0, 9.0],       # off the single-node axis only
                    [np.nan, 1.0, 0.5],    # NaN
                    [np.nan, -1.0, 0.5],   # NaN, and below axis 1
                    [np.inf, 1.0, 0.5],    # infinite
                    [0.0, 2.0, 0.5]])      # on the edge
    per_point = [_interp_plan(axes, pts[[i]])[2] for i in range(len(pts))]
    assert per_point == [0, 1, 1, 0, 0, 1, 1, 0]
    assert _interp_plan(axes, pts)[2] == 4


def test_policy_field_nearest_node():
    axes = (np.linspace(0, 1, 3),)
    pol = PolicyField(axes, np.array([0, 1, 2]), np.array([[0.0], [0.5], [1.0]]))
    picks = pol.index_at(np.array([[0.2], [0.3], [0.9]]))
    np.testing.assert_array_equal(picks, [0, 1, 2])


@st.composite
def grids_and_points(draw, max_axes=3, extremes=False):
    """Strictly increasing axes of 1-5 nodes and points on, between, around
    them; with extremes, also infinite and NaN coordinates."""
    axes = tuple(np.cumsum(draw(st.lists(st.floats(0.01, 2.0), min_size=k, max_size=k))) - 1.0
                 for k in draw(st.lists(st.integers(1, 5), min_size=1, max_size=max_axes)))

    def coordinate(ax):
        marks = list(ax) + list((ax[:-1] + ax[1:]) / 2)  # nodes and midpoints
        if extremes:
            marks += [-np.inf, np.inf, np.nan]
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


@settings(max_examples=300, deadline=None)
@given(grids_and_points(max_axes=4, extremes=True), st.integers(0, 2 ** 32 - 1))
def test_flat_policy_lookup_matches_the_node_tuple_lookup(case, seed):
    # one flat index over the bracketed axes reads the same index as one node
    # per axis: clamped, infinite and NaN points, exact midpoints, single-node
    # axes (all of them single-node included), 1 to 4 axes
    axes, pts = case
    shape = tuple(len(ax) for ax in axes)
    indices = np.random.default_rng(seed).integers(0, 7, size=shape)
    pol = PolicyField(axes, indices, np.zeros((7, 1)))
    got = pol.index_at(pts)
    assert got.shape == (len(pts),) and got.dtype == indices.dtype
    np.testing.assert_array_equal(got, node_tuple_index(pol, pts))


@pytest.mark.parametrize("indices", [np.array([True, False]), np.array([0.0, 1.0])],
                         ids=["bool", "float"])
def test_policy_field_refuses_non_integer_indices(indices):
    # a bool array would index as a mask, a float one fails at lookup
    with pytest.raises(ValidationError, match="integers"):
        PolicyField((np.array([0.0, 1.0]),), indices, np.zeros((2, 1)))


def test_policy_field_keeps_read_only_copies_of_its_arrays():
    # a write to the caller's arrays leaves the field and its lookup tables
    # as built, and the field's own arrays refuse writes
    ax, ind, controls = np.linspace(0.0, 1.0, 3), np.array([0, 1, 2]), np.zeros((3, 1))
    pol = PolicyField((ax,), ind, controls)
    ind[2] = 0
    assert pol.index_at([[1.0]]).tolist() == [2] and pol.indices.tolist() == [0, 1, 2]
    ax[1] = 5.0
    assert np.all(np.diff(pol.axes[0]) > 0)
    controls[0, 0] = np.nan
    assert np.all(np.isfinite(pol.control_set))
    for own in (pol.indices, pol.axes[0], pol.control_set):
        with pytest.raises(ValueError, match="read-only"):
            own[0] = 1


@pytest.mark.parametrize("controls", [np.zeros(3), np.zeros(()), np.zeros((3, 1, 1))],
                         ids=["vector", "scalar", "3d"])
def test_policy_field_refuses_a_control_set_that_is_not_a_table(controls):
    with pytest.raises(ValidationError, match=r"finite \(points, p\) table"):
        PolicyField((np.linspace(0.0, 1.0, 3),), np.array([0, 1, 2]), controls)


@st.composite
def break_axes(draw):
    """grids_and_points' axes, as drawn (most span zero) or scaled into the
    subnormals or to 1e+-300."""
    axes, _ = draw(grids_and_points(max_axes=4))
    scale = draw(st.sampled_from([1.0, 1e-318, 1e-300, 1e300]))
    return tuple(np.unique(ax * scale) for ax in axes)


@settings(max_examples=200, deadline=None)
@given(break_axes(), st.integers(0, 2 ** 32 - 1))
def test_policy_breaks_are_where_the_nearest_node_rule_flips(axes, seed):
    # on every interval the rule (t - lo) > (hi - t) holds at the break and
    # fails one float below it; lookups at the breaks and their neighbours
    # read what the node tuple lookup reads, with every break kept (one
    # control per node) or only some (a few controls)
    rng = np.random.default_rng(seed)
    marks = []
    for ax in axes:
        lo, hi = ax[:-1], ax[1:]
        t = _nearest_node_breaks(lo, hi)
        below = np.nextafter(t, -np.inf)
        assert np.all((t - lo) > (hi - t)) and not np.any((below - lo) > (hi - below))
        marks.append(np.concatenate([t, below, np.nextafter(t, np.inf), ax]))
    pts = np.column_stack([rng.choice(m, 64) for m in marks])
    shape = tuple(len(ax) for ax in axes)
    for indices in (np.arange(math.prod(shape)).reshape(shape),
                    rng.integers(0, rng.integers(1, 4), size=shape)):
        pol = PolicyField(axes, indices, np.zeros((max(indices.size, 3), 1)))
        np.testing.assert_array_equal(pol.index_at(pts), node_tuple_index(pol, pts))


@pytest.mark.parametrize("fixture", ["merton_nodelay_solution", "merton_delay_solution",
                                     "advertising_solution"])
def test_solved_policies_read_the_nearest_node_and_search_only_their_switches(fixture,
                                                                              request):
    _, res = request.getfixturevalue(fixture)
    pol = res.policy
    rng = np.random.default_rng(5)
    pts = np.column_stack([rng.uniform(ax[0] - 0.1 * np.ptp(ax) - 0.1,
                                       ax[-1] + 0.1 * np.ptp(ax) + 0.1, 10 ** 5)
                           for ax in pol.axes])
    np.testing.assert_array_equal(pol.index_at(pts), node_tuple_index(pol, pts))
    # an axis is searched exactly when some slice of the indices changes along it
    switching = [a for a in range(len(pol.axes)) if np.any(np.diff(pol.indices, axis=a))]
    assert [a for a, _, _ in pol._searches] == switching
    if fixture == "merton_nodelay_solution":
        # one wealth axis: a break per switch of the control, and the NaN break
        [(a, breaks, _)] = pol._searches
        assert a == 1 and np.isnan(breaks[-1])
        assert len(breaks) == np.count_nonzero(np.diff(pol.indices.ravel())) + 1
    if fixture == "merton_delay_solution":  # a multi-node axis it never switches on
        assert any(len(ax) > 1 for a, ax in enumerate(pol.axes) if a not in switching)


def test_constant_policy_searches_no_axis():
    axes = (np.linspace(-1.0, 2.5, 25), np.linspace(-1.0, 2.5, 9), np.array([0.5]))
    pol = PolicyField(axes, np.full((25, 9, 1), 3), np.zeros((4, 1)))
    assert pol._searches == ()
    pts = np.array([[0.0, 1.0, 0.5], [np.nan, -np.inf, np.inf]])
    np.testing.assert_array_equal(pol.index_at(pts), [3, 3])


def _full_corner_plan(axes, pts):
    """The interpolation plan with both corners on every bracketed axis, on
    nodes or not: the oracle for _interp_plan's on-node collapse."""
    n_pts = pts.shape[0]
    strides = np.cumprod([1] + [len(ax) for ax in axes[:0:-1]], dtype=np.int64)[::-1]
    brackets = []
    for a, ax in enumerate(axes):
        if len(ax) > 1:
            xc = np.clip(pts[:, a], ax[0], ax[-1])
            i0 = np.clip(np.searchsorted(ax, xc, side="right") - 1, 0, len(ax) - 2)
            brackets.append((a, i0, (xc - ax[i0]) / (ax[i0 + 1] - ax[i0])))
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


def _assert_plans_interpolate_alike(axes, pts, v):
    idx, wts, _ = _interp_plan(axes, pts)
    full_idx, full_wts = _full_corner_plan(axes, pts)
    np.testing.assert_allclose(_plan_dot(v, idx, wts), np.sum(v[full_idx] * full_wts, axis=1),
                               rtol=0, atol=1e-14 * np.max(np.abs(v)))
    return idx.shape[1]


@settings(max_examples=200, deadline=None)
@given(grids_and_points())
def test_interp_plan_matches_the_full_corner_plan(case):
    axes, pts = case
    v = np.cos(np.arange(math.prod(len(ax) for ax in axes), dtype=float))
    _assert_plans_interpolate_alike(axes, pts, v)


def test_interp_plan_drops_the_upper_corner_only_on_node_axes():
    # axis 1 copies axis 0 (the same linspace arguments, so bitwise equal
    # nodes) and its points are axis 0's nodes or clamp onto an end, like a
    # lag register; axes 0 and 2 are off the nodes, axis 3 has one node
    rng = np.random.default_rng(7)
    head = np.linspace(-1.0, 2.5, 9)
    axes = (head, np.linspace(-1.0, 2.5, 9), np.linspace(0.0, 1.0, 4), np.array([0.5]))
    pts = np.column_stack([rng.uniform(-1.5, 3.0, 200),
                           rng.choice(np.concatenate([head, [-7.0, 9.0]]), 200),
                           rng.uniform(0.0, 1.0, 200), np.full(200, 0.5)])
    v = rng.standard_normal(9 * 9 * 4)
    assert _assert_plans_interpolate_alike(axes, pts, v) == 2 ** 2
    # every bracketed axis on its nodes: one corner, the node's value exactly
    nodes = _tensor_nodes(axes)
    assert _assert_plans_interpolate_alike(axes, nodes, v) == 1
    np.testing.assert_array_equal(ValueField(axes, v.reshape(9, 9, 4, 1)).interp(nodes), v)
    # one point one ulp off a node keeps both corners of that axis
    off = pts.copy()
    off[0, 1] = np.nextafter(head[3], np.inf)
    assert _assert_plans_interpolate_alike(axes, off, v) == 2 ** 3


def test_advertising_plans_at_lag_count_four_are_twenty_wide(advertising_spec):
    # the lag axes 2..4 copy the 5-node axis before them and land on its
    # nodes; y_new and y_lag1 (a copy of the 25-node head axis) do not: 2^2
    # corners times 5 Gauss-Hermite nodes, where every corner would take 160
    chain = reduce_to_lag_chain(advertising_spec, 4)
    axes = (np.linspace(-1.0, 2.5, 25),) + (np.linspace(-1.0, 2.5, 5),) * 4
    one = value_iteration(chain, axes, tol=math.inf, max_iter=1, gh_points=5)
    n_nodes, n_u = 25 * 5 ** 4, advertising_spec.control_set.shape[0]
    assert one.transition_entries == n_u * n_nodes * 20


def test_plan_dot_is_the_row_sum_to_a_few_ulp():
    rng = np.random.default_rng(3)
    v = rng.standard_normal(500)
    idx, wts = rng.integers(0, 500, (300, 40)), rng.uniform(-1.0, 1.0, (300, 40))
    scale = np.sum(np.abs(v[idx] * wts), axis=1)
    gap = np.abs(_plan_dot(v, idx, wts) - np.sum(v[idx] * wts, axis=1))
    assert np.all(gap <= 4 * np.finfo(float).eps * scale)


@pytest.mark.parametrize("axis", [np.array([1.0, 0.5, 0.0]), np.array([0.0, np.nan, 1.0]),
                                  np.array([np.nan])], ids=["decreasing", "nan", "nan-single"])
def test_fields_refuse_unordered_or_nan_axes(axis):
    with pytest.raises(ValidationError):
        ValueField((axis,), np.zeros(len(axis)))
    with pytest.raises(ValidationError):
        PolicyField((axis,), np.zeros(len(axis), dtype=np.int64), np.zeros((1, 1)))


def test_fields_refuse_values_that_do_not_fit_their_axes():
    axes = (np.linspace(0.0, 1.0, 3),)
    with pytest.raises(ValidationError, match=r"value shape \(4,\) != grid \(3,\)"):
        ValueField(axes, np.zeros(4))
    with pytest.raises(ValidationError, match=r"policy shape \(2,\) != grid \(3,\)"):
        PolicyField(axes, np.zeros(2, dtype=np.int64), np.zeros((1, 1)))


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
    res = value_iteration(chain, axes, tol=1e-12, max_iter=10000, gh_points=5)
    delta = chain.delta
    expected = delta / (1 - math.exp(-chain.spec.rho * delta))
    np.testing.assert_allclose(res.value.values, expected, rtol=1e-10)
    # the fixed point approaches 1/rho as the lag step shrinks
    fine = constant_cost_chain(delta_target=0.01)
    res2 = value_iteration(fine, (np.linspace(-1, 1, 3), np.array([0.0])),
                           tol=1e-12, max_iter=100000, gh_points=5)
    assert res2.value.values[0, 0] == pytest.approx(1.0, abs=0.01)


def test_value_iteration_contracts_at_discount_rate(advertising_solution):
    chain, res = advertising_solution
    rate = chain.step_discount
    hist = res.residual_history
    ratios = hist[1:] / np.maximum(hist[:-1], 1e-300)
    assert np.all(ratios[1:] <= rate + 0.05)


def test_value_iteration_merton_quick(merton_nodelay_solution):
    chain, res = merton_nodelay_solution
    v_oracle, _ = chain.spec.params.oracle()
    x = models.initial_state(chain.spec)
    z0 = start_point(chain, x)
    v = -res.value.interp(z0)[0]
    assert v == pytest.approx(v_oracle, rel=0.03)


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
        z0 = start_point(chain, x)
        v_oracle = kappa + p @ z0

        axes = tuple([np.linspace(-2.0, 4.0, 41)]
                     + [np.linspace(-2.0, 4.0, 11)] * m_lag)
        res = value_iteration(chain, axes, tol=1e-10, max_iter=20000, gh_points=5)
        # a handful of extreme corners clamp; their bias dies out long
        # before the evaluation point
        assert res.clamp_rate <= 1e-3
        assert res.value.interp(z0)[0] == pytest.approx(v_oracle, abs=1e-8)
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
    assert rep.ok


def _reference_plans(chain, axes, gh_points=5):
    """Stage costs and interpolation plans of every control, built like
    value_iteration's: one plan block per Gauss-Hermite node, in node order."""
    spec, pts = chain.spec, _tensor_nodes(axes)
    regs, (zeta, zw) = chain.unflatten(pts), noise_rule(spec.q, gh_points)
    stage, plans = [], []
    for u in spec.control_set:
        uu = np.broadcast_to(u, (pts.shape[0], spec.p))
        stage.append(np.asarray(spec.cost(regs[:, -1, :], uu)) * chain.delta)
        blocks = [_interp_plan(axes, chain.flatten(chain.step(
            regs, uu, np.broadcast_to(z, (pts.shape[0], spec.q))))) for z in zeta]
        plans.append((np.concatenate([i for i, _, _ in blocks], axis=1),
                      np.concatenate([w * g for (_, w, _), g in zip(blocks, zw)], axis=1)))
    return stage, plans


def _reference_sweep(chain, stage, plans, v):
    """One plain Bellman sweep: (Tv, greedy control index per node)."""
    totals = np.stack([c + chain.step_discount * np.einsum("ij,ij->i", v[i], w)
                       for c, (i, w) in zip(stage, plans)])
    best = np.argmin(totals, axis=0)
    return totals[best, np.arange(v.size)], best


def _reference_bound(chain, plans, v, v_new):
    """bellman_bound of the sweep v -> v_new on the widest of the plans."""
    return bellman_bound(chain.step_discount, float(np.max(np.abs(v_new - v))),
                         max(w.shape[1] for _, w in plans), float(np.max(np.abs(v_new))))


def _reference_value_iteration(chain, axes, tol):
    """Plain value iteration from zero until |Tv - v| <= tol: (Tv, policy,
    bellman_bound of the last sweep)."""
    stage, plans = _reference_plans(chain, axes)
    v = np.zeros(len(stage[0]))
    while True:
        v_new, best = _reference_sweep(chain, stage, plans, v)
        residual = float(np.max(np.abs(v_new - v)))
        bound, v = _reference_bound(chain, plans, v, v_new), v_new
        if residual <= tol:
            return v, best, bound


def _sweep_policy_iteration(chain, axes, tol):
    """Modified policy iteration with 100 fixed-policy sweeps after each
    improvement sweep, from zero, until an improvement sweep's bellman_bound
    is within tol: (Tv, policy, that bound). value_iteration evaluated the
    greedy policy so before it took a Krylov solve."""
    stage, plans = _reference_plans(chain, axes)
    v, g = np.zeros(len(stage[0])), chain.step_discount
    rows, width = np.arange(v.size), max(w.shape[1] for _, w in plans)
    while True:
        v_new, best = _reference_sweep(chain, stage, plans, v)
        bound, v = _reference_bound(chain, plans, v, v_new), v_new
        if bound <= tol:
            return v, best, bound
        # the greedy rows of the plans, narrower ones padded with weight 0
        idx_pi, wts_pi = np.zeros((v.size, width), dtype=np.int64), np.zeros((v.size, width))
        for iu, (idx, wts) in enumerate(plans):
            idx_pi[best == iu, : idx.shape[1]] = idx[best == iu]
            wts_pi[best == iu, : idx.shape[1]] = wts[best == iu]
        cost = np.asarray(stage)[best, rows]
        for _ in range(100):
            v = cost + g * np.einsum("ij,ij->i", v[idx_pi], wts_pi)


# the tol each of oracle_cases solves at
ORACLE_TOLS = (1e-8, 1e-8, 1e-7)


@pytest.fixture(scope="module")
def oracle_cases(advertising_solution, merton_nodelay_solution):
    """(chain, value_iteration result) on the advertising fixture, specs/affine.json
    and the 281-node merton_nodelay grid."""
    affine_chain = reduce_to_lag_chain(models.load_spec_file(SPECS / "affine.json"), 1)
    affine_axes = (np.linspace(-1.0, 2.5, 17), np.linspace(-1.0, 2.5, 7))
    return [advertising_solution,
            (affine_chain, value_iteration(affine_chain, affine_axes, tol=1e-8, max_iter=20000,
                                           gh_points=5)),
            merton_nodelay_solution]


def test_value_iteration_agrees_with_plain_value_iteration(oracle_cases):
    # the reference stops on the sweep residual; both values lie within their
    # own a-posteriori bound of the fixed point, so within the sum of each other
    for chain, res in oracle_cases:
        v_ref, policy_ref, bound_ref = _reference_value_iteration(
            chain, res.value.axes, tol=1e-8)
        np.testing.assert_array_equal(res.policy.indices.ravel(), policy_ref)
        gap = np.max(np.abs(res.value.values.ravel() - v_ref))
        assert gap <= res.value_error_bound + bound_ref
        width = max(w.shape[1] for _, w in _reference_plans(chain, res.value.axes)[1])
        assert res.value_error_bound == bellman_bound(
            chain.step_discount, res.residual, width, float(np.max(np.abs(res.value.values))))


def test_bellman_bound_of_an_exact_zero_sweep_is_zero():
    # no residual and no rounding to amplify: 0 even where the discount rounds to 1
    assert bellman_bound(0.9, 0.0, 20, 0.0) == 0.0
    assert bellman_bound(1.0, 0.0, 20, 0.0) == 0.0
    assert bellman_bound(1.0, 1e-9, 20, 0.0) == math.inf


def test_clamp_rate_is_the_share_of_out_of_box_next_states(oracle_cases):
    # the next states _reference_plans plans, one per control, Gauss-Hermite
    # node and grid node, counted here: out of the box on any axis with more
    # than one node (merton_nodelay's stock leaves its single-node axis at
    # every step, and does not count)
    for chain, res in oracle_cases:
        spec, axes = chain.spec, res.value.axes
        pts = _tensor_nodes(axes)
        regs, (zeta, _) = chain.unflatten(pts), noise_rule(spec.q, 5)
        out = []
        for u in spec.control_set:
            for z in zeta:
                nxt = chain.flatten(chain.step(regs, np.broadcast_to(u, (len(pts), spec.p)),
                                               np.broadcast_to(z, (len(pts), spec.q))))
                out.append(np.any([(nxt[:, a] < ax[0]) | (nxt[:, a] > ax[-1])
                                   for a, ax in enumerate(axes) if len(ax) > 1], axis=0))
        assert 0 < np.sum(out) < np.size(out)
        assert res.clamp_rate == np.sum(out) / np.size(out)
        assert res.clamp_warning == (res.clamp_rate > 0.20)


def test_value_iteration_one_sweep_is_the_reference_sweep(oracle_cases):
    # tol = inf, max_iter = 1 from v0 is one plain Bellman sweep, bit for bit
    for chain, res in oracle_cases:
        axes, v = res.value.axes, res.value.values.ravel()
        one = value_iteration(chain, axes, tol=math.inf, max_iter=1, gh_points=5, v0=res.value)
        v_ref, policy_ref = _reference_sweep(chain, *_reference_plans(chain, axes), v)
        np.testing.assert_array_equal(one.value.values.ravel(), v_ref)
        np.testing.assert_array_equal(one.policy.indices.ravel(), policy_ref)
        assert one.residual == np.max(np.abs(v_ref - v))
        assert (one.iterations, one.evaluation_sweeps) == (1, 0)


def test_value_iteration_pads_the_greedy_rows_of_narrower_plans():
    # control 0 (u = -1) drives every state below the axes, where it clamps
    # onto node 0 (one corner); control 1 (u = 0) only diffuses, and its
    # zeta = 0 block alone stays on the nodes: per-block plans are 5 and 9
    # wide, and the one plan per control, whose collapse sees all five
    # blocks, 5 and 10; the greedy policy takes rows of both
    p = AffineTestParams(drift_state=((0.0,),), drift_delay=((0.0,),),
                         drift_control=((50.0,),), noise_const=((0.1,),),
                         kernel_scale=0.0, control_lo=-1.0, control_hi=0.0, n_controls=2)
    chain = reduce_to_lag_chain(build_affine_test(p, 4), 1)
    axes = (np.linspace(0.0, 2.0, 5), np.linspace(0.0, 2.0, 5))
    res = value_iteration(chain, axes, tol=1e-10, max_iter=20000, gh_points=5)
    assert [w.shape[1] for _, w in _reference_plans(chain, axes)[1]] == [5, 9]
    assert res.transition_entries == 25 * (5 + 10)
    assert set(res.policy.indices.ravel()) == {0, 1}
    v_ref, policy_ref, bound_ref = _reference_value_iteration(chain, axes, tol=1e-10)
    np.testing.assert_array_equal(res.policy.indices.ravel(), policy_ref)
    # both bounds allow for the rounding of a float fixed point
    gap = np.max(np.abs(res.value.values.ravel() - v_ref))
    assert gap <= res.value_error_bound + bound_ref


def test_value_iteration_nonconvergence_raises():
    chain = constant_cost_chain(rho=1e-9)
    axes = (np.linspace(-1, 1, 3), np.array([0.0]))
    from delayopt.core import NumericalError
    with pytest.raises(NumericalError, match="residual"):
        value_iteration(chain, axes, tol=1e-12, max_iter=5, gh_points=5)


def test_value_iteration_infinite_tol_is_one_sweep():
    # a single reference Bellman sweep; negative and nan tols are refused
    # (see test_cli.py::test_malformed_input_exits_one)
    chain = constant_cost_chain()
    axes = (np.linspace(-1, 1, 3), np.array([0.0]))
    assert value_iteration(chain, axes, tol=math.inf, max_iter=1, gh_points=5).iterations == 1


def test_value_iteration_refuses_the_wrong_axis_count():
    chain = constant_cost_chain()
    with pytest.raises(ValidationError, match="need 2 axes, got 1"):
        value_iteration(chain, (np.linspace(-1, 1, 3),), tol=1e-9, max_iter=10, gh_points=5)


def test_value_error_bound_covers_the_rounding_of_a_float_fixed_point():
    # at rho = 1e-9 the step discount g is 1 - 5e-10: the solve lands
    # hundreds of units from the exact value delta / (1 - g), g as rounded,
    # where a sweep moves v by an ulp or nothing; the bound still covers it
    chain = constant_cost_chain(rho=1e-9)
    axes = (np.linspace(-1, 1, 3), np.array([0.0]))
    res = value_iteration(chain, axes, tol=1e4, max_iter=10, gh_points=5)
    gap = np.max(np.abs(res.value.values - chain.delta / (1.0 - chain.step_discount)))
    assert gap <= res.value_error_bound <= 1e4


def test_build_plans_is_the_reference_plan_build(oracle_cases):
    # stage costs and plans bit for bit, and the clamp and entry counts the
    # result reports
    for chain, res in oracle_cases:
        stage, plans, clamped, entries = _build_plans(chain, res.value.axes, 5)
        stage_ref, plans_ref = _reference_plans(chain, res.value.axes)
        assert stage.tobytes() == np.asarray(stage_ref).tobytes()
        assert len(plans) == len(plans_ref)
        for (idx, wts), (idx_ref, wts_ref) in zip(plans, plans_ref):
            assert idx.shape == idx_ref.shape and idx.tobytes() == idx_ref.tobytes()
            assert wts.shape == wts_ref.shape and wts.tobytes() == wts_ref.tobytes()
        assert entries == res.transition_entries == sum(i.size for i, _ in plans_ref)
        assert clamped / (len(plans) * 5 ** chain.spec.q * stage.shape[1]) == res.clamp_rate


def test_build_plans_is_the_reference_plan_build_at_two_noise_dimensions():
    # the oracle cases all have q = 1; here the stacked increments' sum over
    # q has two nonzero terms: the benchmark's affine problem (n = 2, q = 2)
    # with one off-diagonal noise entry, at m = 8 on a 225-node grid
    p = AffineTestParams(n=2, q=2, drift_const=(0.0, 0.0),
                         drift_state=((-0.5, 0.0), (0.0, -0.5)),
                         drift_delay=((0.3,), (0.3,)), drift_control=((0.5,), (0.5,)),
                         noise_const=((0.4, 0.1), (0.0, 0.4)), x0=(1.0, 1.0), x1=(1.0, 1.0))
    chain = reduce_to_lag_chain(build_affine_test(p, 8), 1)
    axes = (np.linspace(-1.0, 2.5, 5),) * 2 + (np.linspace(-1.0, 2.5, 3),) * 2
    res = value_iteration(chain, axes, tol=1e-6, max_iter=5000, gh_points=5)
    test_build_plans_is_the_reference_plan_build([(chain, res)])


def test_build_plans_interpolates_each_control_once(oracle_cases, monkeypatch):
    # one _interp_plan call per control over all its next states, not one
    # per Gauss-Hermite node
    calls = []

    def spy(axes, pts):
        calls.append(pts.shape[0])
        return _interp_plan(axes, pts)

    monkeypatch.setattr(hjb, "_interp_plan", spy)
    for chain, res in oracle_cases:
        calls.clear()
        _build_plans(chain, res.value.axes, 5)
        n_u, n_nodes = chain.spec.control_set.shape[0], res.value.values.size
        assert calls == [5 ** chain.spec.q * n_nodes] * n_u


def test_merton_delay_solution_stores_twenty_entries_per_node_and_control(
        merton_delay_solution):
    # the bench grid's plans: 2 corners on the wealth axis times 2 on the
    # stock axis times 5 Gauss-Hermite nodes; s_lag1 copies s onto its nodes
    chain, res = merton_delay_solution
    assert chain.spec.control_set.shape[0] == 11 and res.value.values.size == 6561
    assert res.transition_entries == 11 * 6561 * 20 == 1_443_420


# ---------------------------------------------------------------------------
# the uncontrolled affine chain: an exact value that is curved


def _uncontrolled_affine_chain(m_lag):
    """specs/affine.json with the one control u = 0, reduced at m_lag."""
    doc = json.loads((SPECS / "affine.json").read_text())
    doc["params"].update(control_lo=0.0, control_hi=0.0, n_controls=1)
    return reduce_to_lag_chain(models.build_problem(doc), m_lag)


def _affine_chain_oracle(chain):
    """Exact value V(z) = z'Pz + kappa of the uncontrolled affine chain, as
    (P, kappa) on flat states.

    The drift is linear, the noise additive and the cost y^2, so a step is
    z' = M z + s zeta, M read off LagChainSpec.step on the unit registers at
    zeta = 0 and s off the zero register at zeta = 1. The stage cost is
    delta z_0^2, so P = delta e0 e0' + g M'PM, a discrete Lyapunov equation
    solved as its Kronecker system, and kappa = g s'Ps / (1 - g).
    """
    spec, dim, g = chain.spec, chain.state_dim, chain.step_discount
    u = np.zeros((dim, spec.p))
    m = chain.flatten(chain.step(chain.unflatten(np.eye(dim)), u,
                                 np.zeros((dim, spec.q)))).T
    s = chain.flatten(chain.step(chain.unflatten(np.zeros((1, dim))), u[:1],
                                 np.ones((1, spec.q))))[0]
    rhs = np.zeros((dim, dim))
    rhs[0, 0] = chain.delta
    p = np.linalg.solve(np.eye(dim * dim) - g * np.kron(m.T, m.T), rhs.ravel())
    p = p.reshape(dim, dim)
    return p, g * (s @ p @ s) / (1.0 - g)


@pytest.mark.parametrize("m_lag, exact", [(1, 1.227213), (2, 0.880818), (4, 0.735475)])
def test_affine_chain_oracle_solves_the_chain_bellman_equation(m_lag, exact):
    # Gauss-Hermite with 5 points is exact on a quadratic, so the oracle is
    # its own Bellman image at any register, to rounding
    chain = _uncontrolled_affine_chain(m_lag)
    spec = chain.spec
    p, kappa = _affine_chain_oracle(chain)

    def value(z):
        return np.einsum("...i,ij,...j->...", z, p, z) + kappa

    z = np.random.default_rng(4).uniform(-3.0, 3.0, (50, chain.state_dim))
    regs = chain.unflatten(z)
    zeta, zw = noise_rule(spec.q, 5)
    u = np.zeros((len(z), spec.p))
    nxt = chain.flatten(chain.step(regs, u, np.broadcast_to(
        zeta[:, None, :], (len(zeta), len(z), spec.q))))
    bellman = (np.asarray(spec.cost(regs[:, -1, :], u)) * chain.delta
               + chain.step_discount * np.einsum("g,gp->p", zw, value(nxt)))
    np.testing.assert_allclose(bellman, value(z), rtol=1e-12, atol=0)
    # the exact chain values at the all-ones start state
    assert value(np.ones(chain.state_dim)) == pytest.approx(exact, abs=5e-7)


def test_value_iteration_approaches_the_affine_chain_oracle_at_second_order():
    # on the +-3 box, value_iteration at tol 1e-9 overestimates the exact
    # chain value at the all-ones start state, and halving both spacings
    # divides the error by about 4 (multilinear interpolation is second
    # order): measured ratios 4.02, 4.15 (m_lag 1) and 4.38 (m_lag 2, with
    # about 1% of the next states clamped at the box). The band [3.5, 5]
    # holds them and shuts out first order (2) and third order (8).
    for m_lag, levels in ((1, ((21, 6), (41, 11), (81, 21))), (2, ((41, 11), (81, 21)))):
        chain = _uncontrolled_affine_chain(m_lag)
        p, kappa = _affine_chain_oracle(chain)
        z = np.ones(chain.state_dim)
        errors = []
        for head, lag in levels:
            axes = (np.linspace(-3.0, 3.0, head),) + (np.linspace(-3.0, 3.0, lag),) * m_lag
            res = value_iteration(chain, axes, tol=1e-9, max_iter=20000, gh_points=5)
            errors.append(res.value.interp(z[None])[0] - (z @ p @ z + kappa))
        assert all(e > 0 for e in errors)
        ratios = np.asarray(errors[:-1]) / np.asarray(errors[1:])
        assert np.all((3.5 <= ratios) & (ratios <= 5.0)), ratios


# the bench's solve-delay grid on specs/merton_delay.json
BENCH_GRID = "s:log:0.4:2.5:9,z:log:0.01:50:81,s_lag1:log:0.4:2.5:9"


@pytest.fixture(scope="module")
def bench_grid_solution():
    chain = reduce_to_lag_chain(models.load_spec_file(SPECS / "merton_delay.json"), 1)
    z0 = start_point(chain, models.initial_state(chain.spec))
    axes = cli._parse_grid(BENCH_GRID, chain.axis_names(), z0)
    return chain, value_iteration(chain, axes, tol=1e-6, max_iter=5000, gh_points=5)


@pytest.fixture(scope="module")
def readme_advertising_solution():
    """The README's advertising solves: --mlag 2 on y:-1:2.5:25,
    y_lag1:-1:2.5:9, y_lag2:-1:2.5:9 at the default tol."""
    chain = reduce_to_lag_chain(models.load_spec_file(SPECS / "advertising.json"), 2)
    axes = (np.linspace(-1.0, 2.5, 25),) + (np.linspace(-1.0, 2.5, 9),) * 2
    return chain, value_iteration(chain, axes, tol=1e-6, max_iter=5000, gh_points=5)


def test_value_iteration_picks_the_sweep_oracle_policy(oracle_cases, bench_grid_solution,
                                                       readme_advertising_solution):
    # the Krylov evaluation and 100 fixed-policy sweeps per round pick the
    # same control at every node, with values within the sum of both bounds
    cases = [*oracle_cases, bench_grid_solution, readme_advertising_solution]
    for (chain, res), tol in zip(cases, ORACLE_TOLS + (1e-6, 1e-6)):
        v_ref, policy_ref, bound_ref = _sweep_policy_iteration(chain, res.value.axes, tol)
        np.testing.assert_array_equal(res.policy.indices.ravel(), policy_ref)
        assert np.max(np.abs(res.value.values.ravel() - v_ref)) <= res.value_error_bound + bound_ref


def test_bench_grid_solve_stays_within_400_contractions(bench_grid_solution):
    # improvement sweeps (one contraction per control) plus the policy
    # evaluations' contractions; 100 fixed-policy sweeps per round took 1121
    chain, res = bench_grid_solution
    n_u = chain.spec.control_set.shape[0]
    assert res.iterations * n_u + res.evaluation_sweeps <= 400


def test_evaluation_sweeps_count_the_evaluation_contractions(oracle_cases, monkeypatch):
    # every _plan_dot call of a solve is one control's row of an improvement
    # sweep or a contraction of a policy evaluation
    calls = []

    def spy(*args):
        calls.append(1)
        return _plan_dot(*args)

    monkeypatch.setattr(hjb, "_plan_dot", spy)
    for (chain, res), tol in zip(oracle_cases, ORACLE_TOLS):
        calls.clear()
        again = value_iteration(chain, res.value.axes, tol=tol, max_iter=20000, gh_points=5)
        n_u = chain.spec.control_set.shape[0]
        assert 0 < again.evaluation_sweeps == len(calls) - again.iterations * n_u
        assert again.evaluation_sweeps == res.evaluation_sweeps


def test_bicgstab_gives_up_on_a_breakdown_or_at_its_cap():
    # a skew operator is orthogonal to every vector: the shadow residual's
    # product with the first search direction's image is 0
    skew = lambda y: np.array([y[1], -y[0]])
    b = np.array([1.0, 0.0])
    assert _bicgstab(skew, b, np.zeros(2), 1e-12, 100) == (None, 2)
    # a nonsymmetric operator solves in two steps; one application short of
    # that, or with no room beyond the first residual, it gives up
    a = np.array([[2.0, 1.0], [0.0, 3.0]])
    apply = lambda y: np.einsum("ij,j->i", a, y)
    x, used = _bicgstab(apply, b, np.zeros(2), 1e-12, 100)
    np.testing.assert_allclose(x, np.linalg.solve(a, b), rtol=0, atol=1e-12)
    assert _bicgstab(apply, b, np.zeros(2), 1e-12, used - 1) == (None, used - 1)
    # from e_1, which is no eigenvector, the first half step falls short, so
    # the solve takes a third application and a cap of 2 stops it there
    e1 = np.array([0.0, 1.0])
    assert _bicgstab(apply, e1, np.zeros(2), 1e-12, 100)[1] == 3
    assert _bicgstab(apply, e1, np.zeros(2), 1e-12, 2) == (None, 2)
    assert _bicgstab(apply, b, np.zeros(2), 1e-12, 1) == (None, 1)
    # a start within the target costs one residual
    assert _bicgstab(apply, b, x, 1e-12, 100)[1] == 1


def test_value_iteration_with_broken_down_evaluations_agrees_with_the_oracle(
        oracle_cases, monkeypatch):
    # every evaluation breaks down, as the skew system does, so each round
    # keeps its improvement sweep: a plain Bellman step that still reaches
    # the sweep oracle's policy, within both bounds
    skew = lambda y: np.array([y[1], -y[0]])
    monkeypatch.setattr(hjb, "_bicgstab", lambda apply, b, x, target, cap: _bicgstab(
        skew, np.array([1.0, 0.0]), np.zeros(2), target, cap))
    for (chain, res), tol in zip(oracle_cases, ORACLE_TOLS):
        broken = value_iteration(chain, res.value.axes, tol=tol, max_iter=20000, gh_points=5)
        v_ref, policy_ref, bound_ref = _sweep_policy_iteration(chain, res.value.axes, tol)
        assert broken.iterations > res.iterations
        np.testing.assert_array_equal(broken.policy.indices.ravel(), policy_ref)
        assert np.max(np.abs(broken.value.values.ravel() - v_ref)) <= (
            broken.value_error_bound + bound_ref)


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
    res = value_iteration(chain, axes, tol=1e-10, max_iter=20000, gh_points=5)
    x = models.initial_state(spec)
    rep = dpp_gap(chain, res.value, x, tau=2 * chain.delta, n_paths=4000, seed=1)
    # single control: the gap is a pure discretization + Monte Carlo residual
    assert abs(rep.gap) <= 2 * rep.stderr + 0.03 * (1 + abs(rep.value_at_x))


def test_dpp_report_derives_its_pass_rule():
    rep = hjb.DppReport(gap=0.1, stderr=0.02, value_at_x=-2.0)
    assert rep.grid_tol == 0.03 * (1.0 + 2.0)
    assert rep.bound == 2 * 0.02 + 0.03 * (1.0 + 2.0)
    assert rep.ok
    assert hjb.DppReport(gap=rep.bound, stderr=0.02, value_at_x=-2.0).ok
    assert not hjb.DppReport(gap=0.14, stderr=0.02, value_at_x=-2.0).ok


def test_dpp_gap_advertising(advertising_solution):
    chain, res = advertising_solution
    x = models.initial_state(chain.spec)
    rep = dpp_gap(chain, res.value, x, tau=5 * chain.delta, n_paths=4000, seed=2)
    assert rep.ok


def _register_rollout_gap(chain, value, x, tau, n_paths, seed):
    """(gap, stderr) of the register rollout dpp_gap ran before it stepped
    through sdde: the chain's own Euler head update and shift, with the
    discounted stage costs summed step by step. Path i draws its noise from
    the stream keyed on (seed, i)."""
    from delayopt.sdde import _philox

    spec, delta = chain.spec, chain.delta
    k_tau = round(tau / delta)
    z0 = start_point(chain, x)
    zeta = np.stack([_philox(seed, i).standard_normal((k_tau, spec.q))
                     for i in range(n_paths)], axis=1)
    best = (math.inf, 0.0)
    for c in spec.control_set:
        u = np.broadcast_to(c, (n_paths, spec.p))
        regs = np.repeat(_start_window(x, chain.coarse_grid)[None, :, :], n_paths, axis=0)
        cost = np.zeros(n_paths)
        for k in range(k_tau):
            y = regs[:, -1, :]
            cost += math.exp(-spec.rho * k * delta) * np.asarray(spec.cost(y, u)) * delta
            z1, z2 = _delay_integrals(chain.wk, regs)
            y_new = (y + np.asarray(spec.drift(y, z1, u)) * delta
                     + np.einsum("pnq,pq->pn", spec.noise(y, z2, u), zeta[k]) * math.sqrt(delta))
            regs = np.concatenate([regs[:, 1:, :], y_new[:, None, :]], axis=1)
        cost += math.exp(-spec.rho * tau) * value.interp(chain.flatten(regs))
        if np.mean(cost) < best[0]:
            best = (float(np.mean(cost)), float(np.std(cost, ddof=1) / math.sqrt(n_paths)))
    return value.interp(z0)[0] - best[0], best[1]


def test_dpp_gap_matches_register_rollout(merton_delay_spec):
    # delayed Merton on a 3-node register, from a non-constant history, with
    # an arbitrary field: the sdde rollout reproduces the register rollout
    spec = merton_delay_spec
    chain = reduce_to_lag_chain(spec, 2)
    g = spec.grid
    tail = np.stack([1.0 + 0.8 * g.nodes, 1.0 - 1.5 * g.nodes], axis=-1)
    x = LiftedState(g, tail[-1], tail)
    z0 = start_point(chain, x)
    axes = tuple(np.linspace(0.5 * v, 1.5 * v, 4) for v in z0)
    rng = np.random.default_rng(5)
    value = ValueField(axes, rng.normal(size=(4,) * len(axes)))
    rep = dpp_gap(chain, value, x, tau=3 * chain.delta, n_paths=400, seed=4)
    gap, stderr = _register_rollout_gap(chain, value, x, 3 * chain.delta, 400, 4)
    assert rep.gap == pytest.approx(gap, rel=1e-12)
    assert rep.stderr == pytest.approx(stderr, rel=1e-12)


# ---------------------------------------------------------------------------
# reduced-equation residual


def bilinear_merton_field(spec):
    """v = -s z on merton_delay's lag chain at m_lag = 1, on a grid that
    steps every axis; multilinear interpolation reproduces it."""
    chain = reduce_to_lag_chain(spec, 1)
    axes = (np.linspace(0.5, 2.0, 7), np.geomspace(0.2, 5.0, 9),
            np.linspace(0.5, 2.0, 5), np.linspace(0.2, 5.0, 6))
    return chain, ValueField(axes, np.multiply.outer(np.multiply.outer(-axes[0], axes[1]),
                                                     np.ones((5, 6))))


def test_residual_constant_field_zero():
    chain = constant_cost_chain()
    axes = (np.linspace(-1, 1, 9), np.linspace(-1, 1, 9))
    rho = chain.spec.rho
    f = ValueField(axes, np.full((9, 9), 1.0 / rho))
    r = hjb_residual(chain, f, np.array([[0.1, -0.2]]))
    assert r.shape == (1,) and r[0] == pytest.approx(0.0, abs=1e-10)


def test_residual_shift_adds_discount_times_constant():
    chain = constant_cost_chain()
    axes = (np.linspace(-1, 1, 9), np.linspace(-1, 1, 9))
    rho = chain.spec.rho
    f1 = ValueField(axes, np.full((9, 9), 1.0 / rho))
    f2 = ValueField(axes, np.full((9, 9), 1.0 / rho + 0.37))
    z = np.array([[0.1, -0.2]])
    assert hjb_residual(chain, f2, z)[0] - hjb_residual(chain, f1, z)[0] == pytest.approx(
        rho * 0.37, rel=1e-10)


def test_residual_boundary_margin_enforced():
    chain = constant_cost_chain()
    axes = (np.linspace(-1, 1, 9), np.linspace(-1, 1, 9))
    f = ValueField(axes, np.zeros((9, 9)))
    with pytest.raises(DomainError):
        hjb_residual(chain, f, np.array([[-1.0, 0.0]]))


def test_residual_mixed_derivative_of_a_bilinear_field(merton_delay_spec):
    # v = -s z on a 2-head chain: multilinear interpolation reproduces it, so
    # the residual is the one of its exact gradient -(z, s, 0, 0) and head
    # Hessian -[[0, 1], [1, 0]]; the best control is u = 1, where the
    # off-diagonal entry meets the noise's
    spec = merton_delay_spec
    chain, field = bilinear_merton_field(spec)
    pt = np.array([1.1, 1.7, 0.9, 1.3])
    reg = chain.unflatten(pt)
    grad = -np.array([pt[1], pt[0], 0.0, 0.0])
    hess = -np.array([[0.0, 1.0], [1.0, 0.0]])
    z1, z2 = (z[0] for z in _delay_integrals(chain.wk, reg[None]))
    scores = []
    for u in spec.control_set:
        b, sig = spec.drift(reg[-1], z1, u), spec.noise(reg[-1], z2, u)
        scores.append(-b @ grad[:2] - 0.5 * np.trace(sig @ sig.T @ hess)
                      - spec.cost(reg[-1], u))
    transport = np.concatenate([-reg[-1], (reg[-1] - reg[0]) / chain.delta])
    assert int(np.argmax(scores)) == len(scores) - 1
    want = -spec.rho * pt[0] * pt[1] - transport @ grad - reg[-1] @ grad[:2] + max(scores)
    assert hjb_residual(chain, field, pt[None])[0] == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_residual_of_a_batch_is_each_points_own(readme_advertising_solution,
                                                 merton_delay_spec):
    # one stencil per batch: S random points, off every node, give bitwise
    # the residuals of S one-point batches, on the README's advertising grid
    # and on the two-head bilinear field, whose Hessian takes the corners
    chain, res = readme_advertising_solution
    cases = [(chain, res.value), bilinear_merton_field(merton_delay_spec)]
    rng = np.random.default_rng(8)
    for chain, value in cases:
        pts = np.column_stack([rng.uniform(ax[1], ax[-2], 50) for ax in value.axes])
        r = hjb_residual(chain, value, pts)
        assert r.shape == (50,) and np.all(np.isfinite(r))
        np.testing.assert_array_equal(r, [hjb_residual(chain, value, pt[None])[0]
                                          for pt in pts])


def test_residual_median_decreases_under_lag_refinement(advertising_spec):
    spec = advertising_spec
    rng_pts = np.random.default_rng(1)
    medians = []
    for m_lag in (1, 2):
        chain = reduce_to_lag_chain(spec, m_lag)
        axes = tuple([np.linspace(-1.0, 2.5, 33)]
                     + [np.linspace(-1.0, 2.5, 9)] * m_lag)
        res = value_iteration(chain, axes, tol=1e-9, max_iter=10000, gh_points=5)
        rs = []
        rng = np.random.default_rng(2)
        for _ in range(40):
            pt = np.array([rng.uniform(ax[1], ax[-2]) for ax in axes])
            rs.append(abs(hjb_residual(chain, res.value, pt[None])[0]))
        medians.append(float(np.median(rs)))
    assert medians[1] <= 0.8 * medians[0]


# ---------------------------------------------------------------------------
# feedback extraction and closed-loop evaluation


def test_extract_feedback_singleton_constant():
    chain = constant_cost_chain()
    axes = (np.linspace(-1, 1, 5), np.array([0.0]))
    res = value_iteration(chain, axes, tol=1e-10, max_iter=10000, gh_points=5)
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
    res = value_iteration(chain, axes, tol=1e-9, max_iter=20000, gh_points=5)
    pol = extract_feedback(chain, res.value)
    counts = np.bincount(pol.indices.ravel(), minlength=5)
    assert counts[0] + counts[-1] >= 0.9 * pol.indices.size


def test_extract_feedback_uses_diffusion_when_control_dependent(
        merton_nodelay_solution):
    chain, res = merton_nodelay_solution
    pol = extract_feedback(chain, res.value)
    x = models.initial_state(chain.spec)
    z0 = start_point(chain, x)
    assert float(pol.control_at(z0[None, :])[0][0]) == pytest.approx(1.0)


def _drift_cost_argmin(chain, value):
    """Feedback by the argmin of drift . p0 + cost alone, the extraction's
    score when the noise ignores the control."""
    spec = chain.spec
    p0 = np.stack([np.gradient(value.values, ax, axis=a).ravel() if len(ax) > 1
                   else np.zeros(value.values.size)
                   for a, ax in enumerate(value.axes[:spec.n])], axis=-1)
    regs = chain.unflatten(value.nodes())
    y = regs[..., -1, :]
    z1, _ = _delay_integrals(chain.wk, regs)
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
             (affine_chain, value_iteration(affine_chain, axes, tol=1e-8, max_iter=20000,
                                            gh_points=5))]
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
        out[tag] = value_iteration(chain, axes, tol=1e-11, max_iter=30000, gh_points=5)
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
    axes = tuple(np.array([v]) for v in start_point(chain, x))
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
    res = value_iteration(chain, axes, tol=1e-9, max_iter=10000, gh_points=5)
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


def test_closed_loop_looks_the_policy_up_once_per_euler_step(advertising_solution,
                                                           monkeypatch):
    # the bench's per-layer hjb.policy_lookup is the span of
    # PolicyField.index_at, which it wraps by name: the closed loop must
    # reach the policy through it, once per step for all paths
    chain, res = advertising_solution
    calls, lookup = [], PolicyField.index_at

    def spy(self, pts):
        calls.append(len(pts))
        return lookup(self, pts)

    monkeypatch.setattr(PolicyField, "index_at", spy)
    policy_mc_value(chain, res.policy, models.initial_state(chain.spec), T=1.0, delta=0.05,
                    n_paths=6, seed=2)
    assert calls == [6] * 20


def test_feedback_refuses_a_policy_that_does_not_fit_the_chain(merton_nodelay_spec):
    # merton_nodelay's lag chain at m_lag = 1 has 4 axes and one control; a
    # 2-axis policy would read the s and z columns of the register
    chain = reduce_to_lag_chain(merton_nodelay_spec, 1)
    axes = (np.linspace(0.5, 2.0, 3), np.linspace(0.1, 10.0, 5))
    two_axes = PolicyField(axes, np.zeros((3, 5), dtype=int), chain.spec.control_set)
    with pytest.raises(ValidationError, match="policy has 2 axes .* needs 4 axes"):
        feedback_from_policy(chain, two_axes, 0.01)
    axes = axes + (np.array([1.0]), np.array([1.0]))
    wide = PolicyField(axes, np.zeros((3, 5, 1, 1), dtype=int), np.zeros((2, 2)))
    with pytest.raises(ValidationError, match=r"controls of shape \(2,\).*shape \(1,\)"):
        feedback_from_policy(chain, wide, 0.01)


@pytest.mark.parametrize("substeps", [1, 10])
@pytest.mark.parametrize("which", ["solved", "lagged"])
def test_restricted_feedback_reads_the_policy_as_the_node_tuple_oracle(bench_grid_solution,
                                                                       which, substeps):
    # the bench grid's merton_delay policy switches on s and z, so the
    # feedback reads the head; "lagged" shifts its controls where s_lag1 is
    # below its middle node, so a lag axis switches too. Random windows at
    # dt = lag step / substeps, with coordinates inside and outside the
    # grid, infinite and NaN
    chain, res = bench_grid_solution
    policy = res.policy
    if which == "lagged":
        below = np.arange(len(policy.axes[2]))[None, None, :, None] < len(policy.axes[2]) // 2
        n_u = len(policy.control_set)
        policy = PolicyField(policy.axes, np.where(below, (policy.indices + 3) % n_u,
                                                   policy.indices), policy.control_set)
    assert [a for a, _, _ in policy._searches] == ([0, 1] if which == "solved" else [0, 1, 2])
    delta = chain.delta / substeps
    rng = np.random.default_rng(11)
    lo = np.array([ax[0] for ax in policy.axes[: chain.spec.n]])
    hi = np.array([ax[-1] for ax in policy.axes[: chain.spec.n]])
    span = hi - lo + 1.0
    window = rng.uniform(lo - 0.3 * span, hi + 0.3 * span,
                         size=(4000, chain.m_lag * substeps + 1, chain.spec.n))
    special = rng.random(window.shape)
    window[special < 0.03] = np.inf
    window[special > 0.97] = -np.inf
    window[(special > 0.5) & (special < 0.51)] = np.nan
    got = feedback_from_policy(chain, policy, delta)(window)
    np.testing.assert_array_equal(got, node_tuple_control(chain, policy, delta)(window))
    assert len(np.unique(got)) > 2


# ---------------------------------------------------------------------------
# probes


def test_regularity_probe_quadratic_field(advertising_spec):
    def estimator(pts):
        return 0.5 * np.sum(pts ** 2, axis=1) + pts[:, 0]

    rep = regularity_probe(advertising_spec, estimator, [(-1.0, 1.0), (-1.0, 1.0)],
                           samples=7, gradient_spacing=0.05)
    assert rep.alpha_hat == pytest.approx(1.0, abs=0.05)
    assert rep.flags == ()
    assert rep.alpha_band[0] <= 1.0 <= rep.alpha_band[1]


def test_regularity_probe_kink_flagged(advertising_spec):
    def estimator(pts):
        return np.abs(pts[:, 0])

    rep = regularity_probe(advertising_spec, estimator, [(-1.0, 1.0)], samples=9,
                           gradient_spacing=0.02)
    assert rep.lipschitz == pytest.approx(1.0, abs=0.05)
    assert any("gradient-jump" in f for f in rep.flags)


def test_regularity_probe_on_a_constant_field_fits_no_exponent(advertising_spec):
    rep = regularity_probe(advertising_spec, lambda p: np.zeros(len(p)), [(-1.0, 1.0)],
                           samples=7, gradient_spacing=0.05)
    assert rep.lipschitz == 0.0
    assert rep.alpha_hat is None and rep.alpha_band is None
    assert rep.flags == ("gradient-jump: too few resolvable gradient differences",)


def test_regularity_probe_flags_a_step_gradient(advertising_spec):
    # no gradient node sits on the kink, nor does its stencil straddle it,
    # so every nonzero gradient difference is 2 at every separation
    rep = regularity_probe(advertising_spec, lambda p: np.abs(p[:, 0]), [(-1.0, 1.0)],
                           samples=8, gradient_spacing=0.02)
    assert abs(rep.alpha_hat) < 0.15
    assert "gradient-jump: smoothness exponent indistinguishable from zero" in rep.flags


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
    table = b_continuity_probe(spec, OpenLoopControl([0.5]), x, batch_of(x), T=1.0,
                               delta=0.05, n_paths=16, seed=0)
    assert table.differences[0] == 0.0 and table.distances[0] == 0.0


def test_b_continuity_oscillatory_pairs(advert_spec):
    # high-frequency tail perturbations of fixed amplitude shrink in the
    # weak norm; the paired value difference must shrink along with them
    spec = advert_spec
    x = models.initial_state(spec)
    g = spec.grid
    ys = []
    for freq in (1, 2, 4, 8):
        bump = 0.5 * np.sin(math.pi * freq * (g.nodes + 1.0))
        ys.append(LiftedState(g, x.head, x.tail + bump[:, None]))
    table = b_continuity_probe(spec, OpenLoopControl([0.5]), x, batch_of(*ys), T=2.0,
                               delta=0.025, n_paths=64, seed=1)
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
    eps = np.array([0.05, 0.1, 0.2, 0.4])
    table = b_continuity_probe(spec, OpenLoopControl([0.5]), x,
                               batch_of(*[LiftedState(spec.grid, x.head + e, x.tail)
                                           for e in eps]),
                               T=2.0, delta=0.025, n_paths=64, seed=9)
    # a head gap's weak distance is proportional to it, so the rows keep eps's order
    np.testing.assert_allclose(table.distances / eps, table.distances[0] / eps[0])
    ratios = table.differences / eps
    assert max(ratios) / min(ratios) <= 2.0
    assert max(ratios) < 10.0


@pytest.mark.parametrize("spec_file", ["advertising.json", "merton_delay.json"])
def test_b_continuity_distances_are_the_per_pair_weak_norms(spec_file):
    # the probe takes every weak distance in one batch; each is bitwise the
    # weak norm of its pair's difference alone, a batch of one
    spec = models.load_spec_file(SPECS / spec_file)
    x = models.initial_state(spec)
    rng = np.random.default_rng(6)
    ys = []
    for _ in range(12):
        freq = rng.integers(1, 5)
        bump = 10 ** rng.uniform(-3.0, 0.0) * np.sin(math.pi * freq * (spec.grid.nodes + spec.d)
                                                      / spec.d)
        ys.append(LiftedState(spec.grid, x.head + rng.uniform(0.0, 0.1, size=spec.n),
                              x.tail + bump[:, None]))
    table = b_continuity_probe(spec, OpenLoopControl(spec.control_set[0]), x, batch_of(*ys),
                               T=0.1, delta=0.05, n_paths=4, seed=0)
    ref = [minus_one_norm(batch_of(x) - batch_of(y))[0] for y in ys]
    np.testing.assert_array_equal(table.distances, np.sort(ref))


def test_paired_estimate_is_the_fsum_statistic_of_its_differences(advert_spec):
    # (mean, stderr) are the compensated-sum statistic of the per-path
    # differences on common random numbers (np.mean and np.std miss the
    # last bits of both at this seed)
    from delayopt.sdde import batch_increments, simulate_sdde
    spec = advert_spec
    x = models.initial_state(spec)
    y = LiftedState(spec.grid, x.head + 0.1, x.tail - 0.05)
    ctrl = OpenLoopControl([0.5])
    table = b_continuity_probe(spec, ctrl, x, batch_of(y), T=1.0, delta=0.05, n_paths=64,
                               seed=3)
    dw = batch_increments(3, np.arange(64), 0.05, spec.q, 20)
    d = (simulate_sdde(spec, x, ctrl, 1.0, 0.05, dw).costs
         - simulate_sdde(spec, y, ctrl, 1.0, 0.05, dw).costs).tolist()
    mean = math.fsum(d) / 64
    var = math.fsum((v - mean) ** 2 for v in d) / 63
    assert (table.differences[0], table.stderrs[0]) == (abs(mean), math.sqrt(var / 64))


def test_paired_estimate_refuses_a_zero_horizon_and_one_path(advert_spec):
    spec = advert_spec
    x = models.initial_state(spec)
    with pytest.raises(ValidationError, match="positive horizon"):
        b_continuity_probe(spec, OpenLoopControl([0.5]), x, batch_of(x), T=0.0, delta=0.05,
                           n_paths=16, seed=0)
    with pytest.raises(ValidationError, match="at least 2 paths"):
        b_continuity_probe(spec, OpenLoopControl([0.5]), x, batch_of(x), T=1.0, delta=0.05,
                           n_paths=1, seed=0)


def test_envelope_helper():
    from delayopt.hjb import ContinuityTable
    t = ContinuityTable(np.array([0.01, 0.1, 0.5, 1.0]),
                        np.array([0.001, 0.01, 0.05, 0.1]),
                        np.array([0.0005] * 4))
    mono, vanish = envelope_is_monotone(t)
    assert mono and vanish
    bad = ContinuityTable(np.array([0.01, 0.1, 0.5, 1.0]),
                          np.array([0.2, 0.01, 0.05, 0.1]),
                          np.array([0.0001] * 4))
    mono, vanish = envelope_is_monotone(bad)
    assert not mono and not vanish


def test_growth_fit_bounds_field(advertising_solution):
    chain, res = advertising_solution
    c = growth_fit(res.value, chain)
    pts = res.value.nodes()
    regs = chain.unflatten(pts)
    w = chain.coarse_grid.weights
    tail_sq = np.einsum("j,kjn,kjn->k", w, regs, regs)
    norms = np.sqrt(np.einsum("kn,kn->k", regs[:, -1, :], regs[:, -1, :]) + tail_sq)
    lhs = np.abs(res.value.values.ravel())
    assert np.all(lhs <= c * (1 + norms) + 1e-12)
