import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from delayopt import models
from delayopt.core import (NumericalError, SegmentGrid, ValidationError, validate_kernel,
                           weighted_kernels)
from delayopt.models import (
    AdvertisingParams,
    AffineTestParams,
    ClampedAffine,
    MertonParams,
    audit_constants,
    build_advertising,
    build_affine_test,
    build_merton,
    build_problem,
    power_utility,
)
from delayopt.sdde import OpenLoopControl, batch_increments, mc_cost, simulate_sdde


# ---------------------------------------------------------------------------
# coefficient maps and utility


def test_clamped_affine_requires_bounds_with_slope():
    with pytest.raises(ValidationError):
        ClampedAffine(base=0.0, slope=1.0)
    m = ClampedAffine(base=0.1, slope=2.0, lo=0.0, hi=0.5)
    assert m(10.0) == 0.5 and m(-10.0) == 0.0
    assert m.lipschitz == 2.0


@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-0.0, 1.0), (-1.0, 0.0), (-1.0, -0.0),
                                     (0.0, 0.0)])
def test_clamped_affine_clamps_as_np_clip(lo, hi):
    # the clamp is np.clip's, bit for bit: a value tied with a bound keeps its
    # sign of zero, NaN and infinities pass as np.clip passes them
    v = np.array([-0.0, 0.0, np.nan, -np.inf, np.inf, -2.0, 0.5, 2.0])
    m = ClampedAffine(base=0.0, slope=1.0, lo=lo, hi=hi)
    want = np.clip(m.base + m.slope * v, lo, hi)
    for got, ref in ((m(v), want), (m(v[::3]), want[::3]), (m(v[0]), want[0])):
        np.testing.assert_array_equal(got, ref)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(ref))


def test_slope_zero_map_is_its_constant():
    # a slope-0 map keeps only clip(base, lo, hi) and returns it as a float
    for m, value in ((ClampedAffine(0.2, 0, 0, 1), 0.2),
                     (ClampedAffine(0.2, 0.0, 0.07, 0.07), 0.07),
                     (ClampedAffine(-3.0, 0.0, -1.0, 2.0), -1.0), (ClampedAffine(0.5), 0.5)):
        assert m == ClampedAffine(value)
        assert (m.base, m.lo, m.hi, m.abs_max, m.lipschitz) == (value, value, value,
                                                                abs(value), 0.0)
        assert type(m(np.linspace(-5.0, 5.0, 7))) is float and m(3.0) == value
    flat = ClampedAffine.from_dict({"base": 0.07, "slope": 0, "lo": 0, "hi": 1})
    assert flat == ClampedAffine.from_dict({"const": 0.07})


@pytest.mark.parametrize("make", [
    lambda: ClampedAffine(math.nan),
    lambda: ClampedAffine(math.inf),
    lambda: ClampedAffine(0.1, slope=math.nan, lo=0.0, hi=1.0),
    lambda: ClampedAffine(0.1, slope=math.inf, lo=0.0, hi=1.0),
    lambda: ClampedAffine(0.1, lo=math.nan, hi=1.0),
    lambda: ClampedAffine(0.1, lo=0.0, hi=math.nan),
    lambda: ClampedAffine(0.1, lo=math.inf, hi=math.inf),
    lambda: build_problem({"model": "merton", "m": 4, "params": {"mu": 0.07}}),
    lambda: MertonParams(r=math.nan),
    lambda: MertonParams(z_floor=math.nan),
    lambda: build_merton(MertonParams(r=math.nan, z_floor=math.nan), 4),
    lambda: build_merton(MertonParams(rho=math.inf), 4),
    lambda: AdvertisingParams(a0=math.nan),
    lambda: AdvertisingParams(c0=math.nan),
    lambda: AdvertisingParams(kernel_scale=math.nan),
    lambda: AdvertisingParams(sigma=math.nan),
    lambda: AdvertisingParams(u_max=math.nan),
    lambda: build_advertising(AdvertisingParams(rho=math.inf), 10),
    lambda: build_advertising(AdvertisingParams(sigma=math.nan, rho=math.inf), 10),
    lambda: build_advertising(AdvertisingParams(a0=-math.inf), 10),
    lambda: build_affine_test(AffineTestParams(cost_exponent=math.nan), 10),
    lambda: AffineTestParams(cost_clip=math.nan),
    lambda: AffineTestParams(cost_clip=0.0),
    lambda: AffineTestParams(control_lo=1.0, control_hi=0.0),
    lambda: AffineTestParams(control_lo=math.nan),
], ids=["const-nan", "const-inf", "slope-nan", "slope-inf", "lo-nan", "hi-nan", "bounds-inf",
        "bare-number", "merton-r-nan", "merton-z-floor-nan", "merton-build-nan",
        "merton-rho-inf", "advertising-a0-nan", "advertising-c0-nan",
        "advertising-kernel-nan", "advertising-sigma-nan", "advertising-u-max-nan",
        "advertising-rho-inf", "advertising-build-nan-inf", "advertising-a0-inf",
        "affine-exponent-nan", "affine-clip-nan", "affine-clip-zero",
        "affine-controls-reversed", "affine-control-lo-nan"])
def test_parameters_refuse_nan_and_infinity(make):
    # every check is written so that NaN fails it, and a problem refuses an
    # infinite discount or declared constant; the bare-number map form is gone
    with pytest.raises(ValidationError):
        make()


def test_power_utility_floor_concave_and_linear_below():
    g = 0.5
    zf = 0.05
    z = np.linspace(-1.0, 3.0, 200)
    u = power_utility(z, g, zf)
    assert np.all(np.diff(u) > 0)           # increasing
    d2 = np.diff(u, 2)
    assert np.all(d2 <= 1e-12)              # concave
    np.testing.assert_allclose(
        power_utility(np.array([-1.0, 0.0]), g, zf),
        power_utility(zf, g, zf) + zf ** (g - 1) * (np.array([-1.0, 0.0]) - zf))


def test_power_utility_evaluates_each_branch_on_its_side_of_the_floor():
    # the linear branch sees min(z, z_floor), so a huge wealth overflows in
    # neither branch (tier-1 makes a RuntimeWarning an error), and every
    # value is bitwise the one of the expression that extended every point
    g, zf = 0.5, 0.05
    assert power_utility(np.array([1e308]), g, zf)[0] == 1e308 ** g / g
    z = np.array([-1.0, 0.0, 0.01, zf, 0.06, 1.0, 3.0])
    old = np.where(z >= zf, np.maximum(z, zf) ** g / g, zf ** g / g + zf ** (g - 1) * (z - zf))
    np.testing.assert_array_equal(power_utility(z, g, zf), old)


def _power_utility_where(z, g, zf):
    """The np.where form, both branches over every entry: the oracle."""
    z = np.asarray(z, dtype=float)
    return np.where(z >= zf, np.maximum(z, zf) ** g / g,
                    zf ** g / g + zf ** (g - 1.0) * (np.minimum(z, zf) - zf))


@pytest.mark.parametrize("g", [0.5, -2.0])
def test_power_utility_is_the_where_form_bitwise(g):
    # each entry takes one branch; values, shapes and NaN bits are the
    # oracle's, on random, below-floor, 0-d, NaN and 1e308 inputs, with no
    # RuntimeWarning (tier-1 makes one an error)
    zf = 0.05
    rng = np.random.default_rng(0)
    for z in (rng.normal(size=1000), rng.uniform(-3.0, zf, size=50), np.array(0.01),
              np.array(2.0), 0.01, np.array([np.nan, -np.nan, zf, 1e308, np.inf, -np.inf]),
              rng.normal(size=(3, 4))):
        got, want = power_utility(z, g, zf), _power_utility_where(z, g, zf)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# portfolio model


def test_merton_kernels_off_reduces_to_deterministic_bond():
    spec = build_merton(MertonParams(), m=4)
    x = models.initial_state(spec)
    path = simulate_sdde(spec, x, OpenLoopControl([0.0]), 2.0, 0.01, np.zeros((1, 200, 1)),
                         keep=1)
    z = path.states[0, path.times >= 0, 1]
    np.testing.assert_allclose(z, (1 + 0.01 * 0.01) ** np.arange(201), rtol=1e-12)
    # wealth compounds at the bond rate up to Euler discretization
    assert z[-1] == pytest.approx(math.exp(0.01 * 2.0), rel=1e-3)


@pytest.mark.parametrize("fixture", ["merton_nodelay_spec", "merton_delay_spec"])
def test_merton_coefficients_are_the_stacked_columns(fixture, request):
    # drift and noise are filled column by column; the reference stacks the
    # same arithmetic, bit for bit, over a batch and over a single point
    spec = request.getfixturevalue(fixture)
    p, rng = spec.params, np.random.default_rng(0)
    for shape in ((7,), ()):
        y, z, u = (rng.uniform(0.1, 2.0, size=shape + (k,)) for k in (2, 1, 1))
        mu_v, nu_v = p.mu(z[..., 0]), p.nu(z[..., 0])
        s, w, du = y[..., 0], y[..., 1], u[..., 0]
        drift = np.stack([mu_v * s, p.r * w + (mu_v - p.r) * du * w], axis=-1)
        noise = np.stack([nu_v * s, nu_v * du * w], axis=-1)[..., None]
        np.testing.assert_array_equal(spec.drift(y, z, u), drift)
        np.testing.assert_array_equal(spec.noise(y, z, u), noise)
        assert spec.drift(y, z, u).shape == shape + (2,)


def test_merton_stock_is_geometric_under_constant_coefficients():
    spec = build_merton(MertonParams(), m=4)
    x = models.initial_state(spec)
    dw = batch_increments(3, [0], 0.01, 1, 100)
    path = simulate_sdde(spec, x, OpenLoopControl([0.5]), 1.0, 0.01, dw, keep=1)
    s = path.states[0, path.times >= 0, 0]
    # one-step Euler of geometric Brownian motion, reproduced directly
    ref = np.empty(101)
    ref[0] = 1.0
    for k in range(100):
        ref[k + 1] = ref[k] * (1 + 0.07 * 0.01 + 0.3 * dw[0, k, 0])
    np.testing.assert_allclose(s, ref, rtol=1e-12)


def test_merton_spec_passes_audits(merton_delay_spec):
    spec = merton_delay_spec
    reports = audit_constants(spec, radius=5.0, seed=1)
    assert [r.name for r in reports] == ["drift growth", "drift lipschitz", "noise growth",
                                         "noise lipschitz", "cost growth"]
    for rep in reports:
        assert rep.ok, rep
    assert validate_kernel(spec.kernel_drift).ok
    assert validate_kernel(spec.kernel_noise).ok


def test_merton_invalid_params():
    with pytest.raises(ValidationError):
        MertonParams(gamma=1.5)
    with pytest.raises(ValidationError):
        MertonParams(nu=ClampedAffine(0.0))
    with pytest.raises(ValidationError):
        MertonParams(r=-0.1)


# ---------------------------------------------------------------------------
# the no-delay closed form


def closed_form(r, mu, nu, gamma, rho, z0=1.0):
    """(value at z0, u*) of the portfolio problem with constant mu and nu."""
    return MertonParams(r=r, mu=ClampedAffine(mu), nu=ClampedAffine(nu), gamma=gamma,
                        rho=rho, z0=z0).oracle()


def test_oracle_no_excess_return():
    v, u_star = closed_form(r=0.02, mu=0.02, nu=0.3, gamma=0.5, rho=0.1)
    assert u_star == 0.0
    assert v == pytest.approx(2.0 / (0.1 - 0.5 * 0.02), rel=1e-12)


def test_oracle_frozen_acceptance_instance():
    v, u_star = closed_form(r=0.01, mu=0.07, nu=0.3, gamma=0.5, rho=0.1)
    assert u_star == 1.0
    # the value at z0 = 1 is 2/(rho - beta(u*)), at the growth rate beta(1) = 0.02375
    assert 0.1 - 2.0 / v == pytest.approx(0.02375, rel=1e-12)
    assert v == pytest.approx(26.2295, abs=5e-4)
    # the value scales like z0^gamma
    v4, _ = closed_form(r=0.01, mu=0.07, nu=0.3, gamma=0.5, rho=0.1, z0=4.0)
    assert v4 == pytest.approx(2.0 * v, rel=1e-12)


def test_oracle_interior_optimum():
    # small excess return keeps the unconstrained fraction interior
    _, u_star = closed_form(r=0.01, mu=0.03, nu=0.3, gamma=0.5, rho=0.1)
    assert u_star == pytest.approx(0.02 / (0.5 * 0.09), rel=1e-12)


def test_oracle_rejects_small_discount():
    with pytest.raises(ValidationError, match="does not dominate"):
        closed_form(r=0.01, mu=0.07, nu=0.3, gamma=0.5, rho=0.02)


@pytest.mark.parametrize("key", ["mu", "nu"])
def test_oracle_refuses_a_sloped_map(key):
    sloped = {key: ClampedAffine(base=0.1, slope=0.5, lo=0.05, hi=0.4)}
    with pytest.raises(ValidationError, match="constant-coefficient closed form"):
        MertonParams(**sloped).oracle()


def test_oracle_small_exponent_scaling():
    # as the utility exponent shrinks the fraction keeps its pattern and the
    # value blows up like one over the exponent
    v1, u = closed_form(r=0.01, mu=0.07, nu=0.3, gamma=1e-3, rho=0.1)
    assert u == pytest.approx(0.06 / 0.09, rel=1e-2)
    beta = 1e-3 * (0.01 + 0.06 * u) - 0.5 * 1e-3 * (1 - 1e-3) * 0.09 * u ** 2
    assert v1 * 1e-3 == pytest.approx(1.0 / (0.1 - beta), rel=1e-9)


def test_oracle_confirmed_by_mc_policy_search():
    # the closed form must beat every other constant fraction within noise;
    # common seeds across fractions sharpen the comparison
    spec = build_merton(MertonParams(n_controls=6), m=4)
    x = models.initial_state(spec)
    _, u_star = spec.params.oracle()
    vals = {}
    for u in spec.control_set[:, 0]:
        mean, err = mc_cost(spec, x, OpenLoopControl([u]), T=40.0, delta=0.02,
                            n_paths=200, seed=29)
        vals[float(u)] = (-mean, err)
    best_u = max(vals, key=lambda u: vals[u][0])
    assert best_u == pytest.approx(u_star)
    for u, (v, err) in vals.items():
        assert vals[best_u][0] >= v - 2 * (err + vals[best_u][1])


# ---------------------------------------------------------------------------
# advertising model


def test_advertising_control_only_shifts_cost_when_ineffective():
    # with c0 = 0 the dynamics ignore the control, so values differ exactly
    # by the discounted spending gap
    p = AdvertisingParams(c0=0.0, sigma=0.1, spend_cost=0.5)
    spec = build_advertising(p, 20)
    x = models.initial_state(spec)
    T, delta = 2.0, 0.01
    j0 = mc_cost(spec, x, OpenLoopControl([0.0]), T, delta, 32, seed=5)[0]
    j1 = mc_cost(spec, x, OpenLoopControl([1.0]), T, delta, 32, seed=5)[0]
    disc = float(np.sum(np.exp(-spec.rho * delta * np.arange(int(T / delta)))) * delta)
    assert j1 - j0 == pytest.approx(0.5 * disc, rel=1e-10)


def test_advertising_gaussian_closed_form():
    # a0 = 0, kernel off, free spending: the mean path is x0 + c0 u t and the
    # noise enters the linear cost with zero mean, so the exact expectation
    # of the estimator is the discrete discounted sum of the mean path
    p = AdvertisingParams(a0=0.0, c0=1.0, sigma=0.3, kernel_scale=0.0,
                          spend_cost=0.0, x0=1.0, x1=1.0, rho=2.0)
    spec = build_advertising(p, 20)
    x = models.initial_state(spec)
    T, delta, u = 3.0, 0.01, 0.7
    mean, stderr = mc_cost(spec, x, OpenLoopControl([u]), T, delta, 400, seed=11)
    k = np.arange(int(T / delta))
    exact = -float(np.sum(np.exp(-2.0 * delta * k) * (1.0 + u * delta * k)) * delta)
    assert mean == pytest.approx(exact, abs=3 * stderr)


def test_advertising_effectiveness_cannot_hurt():
    # pathwise dominance: more effective spending raises goodwill for the
    # same noise, so the best constant-control cost cannot increase
    best = {}
    for c0 in (1.0, 2.0):
        spec = build_advertising(AdvertisingParams(c0=c0), 50)
        x = models.initial_state(spec)
        vals = [mc_cost(spec, x, OpenLoopControl([u]), 3.0, 0.02, 64, seed=13)
                for u in (0.0, 0.5, 1.0)]
        best[c0] = min(v[0] for v in vals)
        err = max(v[1] for v in vals)
    assert best[2.0] <= best[1.0] + 2 * err


def test_advertising_spec_passes_audits(advertising_spec):
    spec = advertising_spec
    reports = audit_constants(spec, radius=5.0, seed=1)
    assert reports[-1].name == "ellipticity floor"
    for rep in reports:
        assert rep.ok, rep


def test_advertising_invalid_params():
    with pytest.raises(ValidationError):
        AdvertisingParams(a0=0.5)
    with pytest.raises(ValidationError):
        AdvertisingParams(kernel_scale=0.5)
    with pytest.raises(ValidationError):
        AdvertisingParams(sigma=-1.0)


# ---------------------------------------------------------------------------
# affine family


def test_affine_trivial_problem_constant_cost():
    # all coefficients zero and unit control cost: V = discounted constant
    p = AffineTestParams(drift_const=(0.0,), drift_state=((0.0,),),
                         drift_delay=((0.0,),), drift_control=((0.0,),),
                         noise_const=((0.0,),), kernel_scale=0.0,
                         cost_state_scale=0.0, cost_control_scale=1.0,
                         control_lo=1.0, control_hi=1.0, n_controls=1,
                         rho=1.0, x0=(0.0,), x1=(0.0,))
    spec = build_affine_test(p, 5)
    x = models.initial_state(spec)
    mean, _ = mc_cost(spec, x, OpenLoopControl([1.0]), 10.0, 0.01, 4, seed=0)
    assert mean == pytest.approx(1.0, abs=0.02)


def test_affine_ellipticity_audit():
    spec = build_affine_test(AffineTestParams(), 20)
    assert spec.ellipticity_floor == pytest.approx(0.16, rel=1e-12)
    rep = audit_constants(spec, radius=5.0)[-1]
    assert rep.name == "ellipticity floor" and rep.ok, rep


def test_affine_cost_growth_audit():
    spec = build_affine_test(AffineTestParams(cost_exponent=2.0), 20)
    rep = next(r for r in audit_constants(spec, radius=8.0) if r.name == "cost growth")
    assert rep.ok, rep


def test_affine_audits_hold(merton_nodelay_spec):
    spec = build_affine_test(AffineTestParams(), 20)
    for rep in audit_constants(spec, radius=5.0):
        assert rep.ok, rep


@pytest.mark.parametrize("field, factor, failing", [
    ("growth_const", 0.1, {"drift growth", "noise growth"}),
    ("lipschitz_const", 0.1, {"drift lipschitz"}),
    ("ellipticity_floor", 2.0, {"ellipticity floor"}),
])
def test_audit_fails_on_misdeclared_constant(field, factor, failing):
    # a growth or Lipschitz constant below the sampled ratios, or an
    # ellipticity floor above the smallest sampled eigenvalue, must fail
    spec = build_affine_test(AffineTestParams(), 20)
    bad = dataclasses.replace(spec, **{field: factor * getattr(spec, field)})
    assert {r.name for r in audit_constants(bad, radius=5.0) if not r.ok} == failing


# ---------------------------------------------------------------------------
# spec documents


def test_build_problem_dispatch_and_errors():
    doc = {"model": "advertising", "m": 10, "params": {"sigma": 0.1}}
    spec = build_problem(doc)
    assert isinstance(spec.params, AdvertisingParams) and spec.grid.m == 10
    with pytest.raises(ValidationError):
        build_problem({"model": "unknown", "m": 4})
    with pytest.raises(ValidationError):
        build_problem({"m": 4})


AFFINE_N2 = {"n": 2, "q": 2, "drift_const": [0.0, 0.0],
             "drift_state": [[-0.5, 0.0], [0.0, -0.5]], "drift_delay": [[0.3], [0.3]],
             "drift_control": [[0.5], [0.5]], "noise_const": [[0.4, 0.0], [0.0, 0.4]]}


@pytest.mark.parametrize("params", [
    {"n": 2},
    AFFINE_N2,
    {**AFFINE_N2, "x0": [1.0, 1.0]},
    {**AFFINE_N2, "x0": [1.0, 1.0], "x1": [1.0, 1.0], "q": 1},
], ids=["default-matrices", "default-initial-state", "default-history-value",
        "noise-wider-than-q"])
def test_affine_shapes_must_fit_n_and_q(params):
    # the 1 x 1 defaults do not fit n = 2: a problem built from them fails in
    # a matmul at the first simulation step, or broadcasts a 1-component
    # initial state over both components; the document that gives every
    # array at n = 2 builds
    with pytest.raises(ValidationError, match="must have shape"):
        build_problem({"model": "affine_test", "m": 10, "params": params})
    spec = build_problem({"model": "affine_test", "m": 10,
                          "params": {**AFFINE_N2, "x0": [1.0, 2.0], "x1": [3.0, 4.0]}})
    x = models.initial_state(spec)
    assert x.head.tolist() == [1.0, 2.0] and x.tail[0].tolist() == [3.0, 4.0]


def _vector(n):
    return st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)


def _matrix(rows, cols):
    return st.lists(_vector(cols), min_size=rows, max_size=rows)


def _wrong(value):
    """The value in a shape its field does not take."""
    if isinstance(value, list):
        return [value[0]] + value if value else [0.0]
    if isinstance(value, dict):
        return {key: [v, v] for key, v in value.items()}
    return [value, value]


MERTON_MAPS = [{"const": 0.07}, {"base": 0.05, "slope": 0.4, "lo": 0.02, "hi": 0.12}]
KERNELS = [{"preset": "zero"}, {"preset": "affine_ramp", "scale": 0.5}]


def _model_fields(model, n, q):
    """Strategies of a valid value for each documented parameter of a model,
    the affine family's shapes taken at n and q."""
    positive, unit = st.floats(0.1, 2.0), st.floats(0.0, 1.0)
    counts = st.integers(1, 4)
    if model == "merton":
        return {"r": st.floats(0.0, 0.05), "mu": st.sampled_from(MERTON_MAPS),
                "nu": st.sampled_from([{"const": 0.3},
                                       {"base": 0.25, "slope": 0.5, "lo": 0.15, "hi": 0.45}]),
                "gamma": st.floats(0.1, 0.9), "rho": positive, "d": positive,
                "kernel_drift": st.sampled_from(KERNELS),
                "kernel_noise": st.sampled_from(KERNELS), "z0": positive, "s0": positive,
                "s1": positive, "z_floor": st.floats(0.01, 0.1), "n_controls": counts}
    if model == "advertising":
        return {"a0": st.floats(-1.0, 0.0), "c0": unit, "sigma": unit, "rho": positive,
                "d": positive, "kernel_scale": st.floats(-1.0, 0.0), "u_max": positive,
                "spend_cost": positive, "x0": unit, "x1": unit, "n_controls": counts}
    return {"n": st.just(n), "q": st.just(q), "drift_const": _vector(n),
            "drift_state": _matrix(n, n), "drift_delay": _matrix(n, 1),
            "drift_control": _matrix(n, 1), "noise_const": _matrix(n, q), "rho": positive,
            "d": positive, "kernel_scale": unit, "cost_exponent": st.floats(1.0, 2.0),
            "cost_state_scale": unit, "cost_control_scale": unit,
            "cost_clip": st.sampled_from([1.0, 5.0]), "control_lo": st.floats(-1.0, 0.0),
            "control_hi": unit, "n_controls": counts, "x0": _vector(n), "x1": _vector(n)}


# finite floats whose arithmetic overflows or underflows; drawn for float
# fields only, never for the counts (m, n, q, n_controls) that size arrays
EXTREMES = [1e308, -1e308, 1e200, 1e-308]


@st.composite
def problem_documents(draw):
    """A problem document whose every field, m included, is omitted or valid,
    and whose at most two corrupted fields are mistyped, of the wrong shape
    or, for a float field, an extreme finite float."""
    model = draw(st.sampled_from(["merton", "advertising", "affine_test"]))
    fields = {"m": st.integers(2, 6),
              **_model_fields(model, draw(st.integers(1, 3)), draw(st.integers(1, 2)))}
    corrupt = draw(st.sets(st.sampled_from(sorted(fields)), max_size=2))
    doc, params = {"model": model}, {}
    for name, valid in fields.items():
        target = doc if name == "m" else params
        if name in corrupt:
            value = draw(valid)
            kinds = ["mistyped", "shape"] + (["extreme"] if isinstance(value, float) else [])
            kind = draw(st.sampled_from(kinds))
            if kind == "mistyped":
                target[name] = draw(st.sampled_from(["x", None, {"a": 1}, True]))
            elif kind == "shape":
                target[name] = _wrong(value)
            else:
                target[name] = draw(st.sampled_from(EXTREMES))
        elif name == "m" or draw(st.booleans()):
            target[name] = draw(valid)
    doc["params"] = params
    return doc


# an extreme float may overflow numpy arithmetic to inf, which is what the
# checks then see: a constant is refused by the problem's checks, a state by
# the simulation's non-finite abort; the outcome is checked, not the warning
@pytest.mark.filterwarnings("ignore:overflow")
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(problem_documents())
@example({"model": "affine_test", "m": 10, "params": {"n": 2}})
@example({"model": "advertising", "m": 4, "params": {"x0": "x"}})
@example({"model": "merton", "m": 4, "params": {"s0": [1.0, 1.0]}})
@example({"model": "advertising", "m": 4, "params": {"u_max": 1e200}})
@example({"model": "affine_test", "m": 4, "params": {"cost_clip": 1e300}})
def test_problem_documents_build_consistent_problems_or_are_refused(doc):
    # a document is refused by ValidationError, or it builds a problem whose
    # initial state and two-step path have the problem's state dimension
    try:
        spec = build_problem(doc)
    except ValidationError:
        return
    x = models.initial_state(spec)
    assert x.head.shape == (spec.n,) and x.tail.shape == (spec.grid.m + 1, spec.n)
    try:
        path = simulate_sdde(spec, x, OpenLoopControl(spec.control_set[0]), spec.d,
                             spec.d / 2, (0, 1), keep=1)
    except NumericalError:
        return
    assert path.states.shape == (1, 5, spec.n)


def test_spec_files_load(tmp_path):
    for name in ("merton_nodelay", "merton_delay", "advertising", "affine"):
        spec = models.load_spec_file(
            Path(__file__).resolve().parent.parent / "specs" / f"{name}.json")
        dataclasses.replace(spec)  # construction re-runs every check


def test_every_preset_kernel_validates():
    from delayopt.core import SegmentGrid
    g = SegmentGrid(1.0, 20)
    for name in models.KERNEL_PROFILES:
        k = models.build_kernel({"preset": name, "scale": -0.7}, g, 1)
        assert validate_kernel(k).ok, name


def test_kernel_preset_resampling_exact():
    from delayopt.core import SegmentGrid, resample_kernel
    g = SegmentGrid(1.0, 10)
    k = models.build_kernel({"preset": "affine_ramp", "scale": -0.5}, g, 1)
    k2 = resample_kernel(k, SegmentGrid(1.0, 17))
    g2 = SegmentGrid(1.0, 17)
    np.testing.assert_allclose(k2.values[:, 0, 0], -0.5 * (g2.nodes + 1.0),
                               atol=1e-14)


def test_table_kernel_matches_its_preset(advertising_spec, merton_delay_spec):
    # the affine_ramp preset given as a table: at the preset's m its
    # weighted tables are the preset's; on other grids the table is
    # interpolated, which reproduces the linear ramp up to rounding
    for spec in (advertising_spec, merton_delay_spec):
        ramp = spec.kernel_drift.values  # (m+1, h, n)
        ref = dataclasses.replace(spec, kernel_noise=spec.kernel_drift)
        kernel = models.build_kernel({"table": ramp.tolist()}, spec.grid, spec.n)
        assert kernel.preset is None and kernel.values.shape == ramp.shape
        tabled = dataclasses.replace(spec, kernel_drift=kernel, kernel_noise=kernel)
        for got, want in zip(weighted_kernels(tabled, spec.grid),
                             weighted_kernels(ref, spec.grid)):
            np.testing.assert_array_equal(got, want)
        for m in (3, 7 * spec.grid.m // 3):
            grid = SegmentGrid(spec.d, m)
            for got, want in zip(weighted_kernels(tabled, grid), weighted_kernels(ref, grid)):
                assert got.shape == want.shape == (m + 1,) + ramp.shape[1:]
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
