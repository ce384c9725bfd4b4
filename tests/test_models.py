import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from delayopt import models
from delayopt.core import ValidationError, validate_kernel
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
    merton_classical_oracle,
    power_utility,
)
from delayopt.sdde import BrownianDriver, OpenLoopControl, mc_cost, simulate_sdde


# ---------------------------------------------------------------------------
# coefficient maps and utility


def test_clamped_affine_requires_bounds_with_slope():
    with pytest.raises(ValidationError):
        ClampedAffine(base=0.0, slope=1.0)
    m = ClampedAffine(base=0.1, slope=2.0, lo=0.0, hi=0.5)
    assert m(10.0) == 0.5 and m(-10.0) == 0.0
    assert m.lipschitz == 2.0


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


# ---------------------------------------------------------------------------
# portfolio model


def test_merton_kernels_off_reduces_to_deterministic_bond():
    spec = build_merton(MertonParams(), m=4)
    x = models.initial_state(spec)
    path = simulate_sdde(spec, x, OpenLoopControl([0.0]), 2.0, 0.01,
                         BrownianDriver(0, 0, 0.01, 1),
                         increments=np.zeros((200, 1)))
    z = path.step_states[:, 1]
    np.testing.assert_allclose(z, (1 + 0.01 * 0.01) ** np.arange(201), rtol=1e-12)
    # wealth compounds at the bond rate up to Euler discretization
    assert z[-1] == pytest.approx(math.exp(0.01 * 2.0), rel=1e-3)


def test_merton_stock_is_geometric_under_constant_coefficients():
    spec = build_merton(MertonParams(), m=4)
    x = models.initial_state(spec)
    dw = BrownianDriver(3, 0, 0.01, 1).increments(100)
    path = simulate_sdde(spec, x, OpenLoopControl([0.5]), 1.0, 0.01,
                         BrownianDriver(3, 0, 0.01, 1), increments=dw)
    s = path.step_states[:, 0]
    # one-step Euler of geometric Brownian motion, reproduced directly
    ref = np.empty(101)
    ref[0] = 1.0
    for k in range(100):
        ref[k + 1] = ref[k] * (1 + 0.07 * 0.01 + 0.3 * dw[k, 0])
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
        MertonParams(gamma=1.5).validate()
    with pytest.raises(ValidationError):
        MertonParams(nu=ClampedAffine.constant(0.0)).validate()
    with pytest.raises(ValidationError):
        MertonParams(r=-0.1).validate()


# ---------------------------------------------------------------------------
# the no-delay closed form


def test_oracle_no_excess_return():
    o = merton_classical_oracle(r=0.02, mu=0.02, nu=0.3, gamma=0.5, rho=0.1)
    assert o.u_star == 0.0
    assert o.value(1.0) == pytest.approx(2.0 / (0.1 - 0.5 * 0.02), rel=1e-12)


def test_oracle_frozen_acceptance_instance():
    o = merton_classical_oracle(r=0.01, mu=0.07, nu=0.3, gamma=0.5, rho=0.1)
    assert o.u_star == 1.0
    assert o.beta_star == pytest.approx(0.02375, rel=1e-12)
    assert o.value(1.0) == pytest.approx(26.2295, abs=5e-4)


def test_oracle_interior_optimum():
    # small excess return keeps the unconstrained fraction interior
    o = merton_classical_oracle(r=0.01, mu=0.03, nu=0.3, gamma=0.5, rho=0.1)
    assert o.u_star == pytest.approx(0.02 / (0.5 * 0.09), rel=1e-12)


def test_oracle_rejects_small_discount():
    with pytest.raises(ValidationError):
        merton_classical_oracle(r=0.01, mu=0.07, nu=0.3, gamma=0.5, rho=0.02)


def test_oracle_small_exponent_scaling():
    # as the utility exponent shrinks the fraction keeps its pattern and the
    # value blows up like one over the exponent
    o1 = merton_classical_oracle(r=0.01, mu=0.07, nu=0.3, gamma=1e-3, rho=0.1)
    assert o1.u_star == pytest.approx(0.06 / 0.09, rel=1e-2)
    assert o1.value(1.0) * 1e-3 == pytest.approx(1.0 / (0.1 - o1.beta_star),
                                                 rel=1e-9)


def test_oracle_confirmed_by_mc_policy_search():
    # the closed form must beat every other constant fraction within noise;
    # common seeds across fractions sharpen the comparison
    spec = build_merton(MertonParams(n_controls=6), m=4)
    x = models.initial_state(spec)
    o = merton_classical_oracle(0.01, 0.07, 0.3, 0.5, 0.1)
    vals = {}
    for u in spec.control_set[:, 0]:
        mean, err = mc_cost(spec, x, OpenLoopControl([u]), T=40.0, delta=0.02,
                            n_paths=200, seed=29)
        vals[float(u)] = (-mean, err)
    best_u = max(vals, key=lambda u: vals[u][0])
    assert best_u == pytest.approx(o.u_star)
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
        AdvertisingParams(a0=0.5).validate()
    with pytest.raises(ValidationError):
        AdvertisingParams(kernel_scale=0.5).validate()
    with pytest.raises(ValidationError):
        AdvertisingParams(sigma=-1.0).validate()


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


def test_spec_files_load(tmp_path):
    for name in ("merton_nodelay", "merton_delay", "advertising", "affine"):
        spec = models.load_spec_file(
            Path(__file__).resolve().parent.parent / "specs" / f"{name}.json")
        spec.validate()


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
