"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; every
tolerance is fixed here, not tuned elsewhere.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from conftest import batch_of

from delayopt import models
from delayopt.cli import main as cli_main
from delayopt.core import (Kernel, LiftedBatch, LiftedState, SegmentGrid, kernel_convolve,
                           validate_kernel)
from delayopt.hjb import (
    b_continuity_probe,
    discount_floor,
    dpp_gap,
    envelope_is_monotone,
    extract_feedback,
    growth_fit,
    lipschitz_discount_threshold,
    max_growth_exponent,
    policy_mc_value,
    regularity_probe,
    value_iteration,
)
from delayopt.lift import equivalence_report
from delayopt.models import AdvertisingParams, AffineTestParams, build_advertising, build_affine_test
from delayopt.operators import (
    apply_generator,
    apply_generator_inverse,
    apply_shift_semigroup,
    assemble_gram_operator,
    dissipativity_form,
    g_operator_norm,
    generator_inverse_form,
    lifted_norm_sq,
    minus_one_norm,
    random_smooth_state,
    spectral_decomposition,
)
from delayopt.sdde import OpenLoopControl, _start_window, mc_cost

SPECS = Path(__file__).resolve().parent.parent / "specs"


def report(num, name, ok, detail):
    line = f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------


def test_criterion_1_operator_identities():
    g = SegmentGrid(1.0, 200)
    rng = np.random.default_rng(20260810)
    bound = math.sqrt(2.0 * (1.0 + g.d))
    worst_round, worst_dom, worst_semi = 0.0, -np.inf, 0.0
    domain_exact = True
    for _ in range(1000):
        x = random_smooth_state(g, 1, rng)
        inv = apply_generator_inverse(x)
        domain_exact &= bool(np.array_equal(inv.tails[0, -1], inv.heads[0]))
        back = apply_generator(inv)
        nx = math.sqrt(lifted_norm_sq(x)[0])
        worst_round = max(worst_round, math.sqrt(lifted_norm_sq(back - x)[0]) / nx)
        worst_dom = max(worst_dom, float(np.linalg.norm(x.heads[0])) - minus_one_norm(x)[0])
        t = float(rng.uniform(0.0, 2.0))
        grow = math.sqrt(lifted_norm_sq(apply_shift_semigroup(t, x))[0]) / nx
        worst_semi = max(worst_semi, grow)
    ok = (worst_round <= 1e-3 and domain_exact and worst_dom <= 1e-9
          and worst_semi <= bound)
    report(1, "operator identities", ok,
           f"roundtrip {worst_round:.2e} <= 1e-3, inverse in domain exactly: "
           f"{domain_exact}, head excess {worst_dom:.1e} <= 1e-9, "
           f"semigroup growth {worst_semi:.3f} <= {bound:.3f}")


def test_criterion_2_dissipativity_and_weak_form():
    g = SegmentGrid(1.0, 200)
    rng = np.random.default_rng(20260810)
    worst_diss, worst_weak, worst_closed = -np.inf, -np.inf, 0.0
    for _ in range(1000):
        x = random_smooth_state(g, 1, rng)
        nx2 = lifted_norm_sq(x)[0]
        d = dissipativity_form(x)[0]
        worst_diss = max(worst_diss, d / nx2)
        worst_weak = max(worst_weak, generator_inverse_form(x)[0] / nx2)
        closed = -0.5 * float(x.heads[0] @ x.heads[0]) \
            - 0.5 * float(x.tails[0, 0] @ x.tails[0, 0])
        worst_closed = max(worst_closed, abs(d - closed) / (1.0 + nx2))
    ok = worst_diss <= 1e-8 and worst_weak <= 1e-8 and worst_closed <= 0.5 * g.h
    report(2, "dissipativity and weak form", ok,
           f"forms {worst_diss:.1e}, {worst_weak:.1e} <= 1e-8; closed-form "
           f"deviation {worst_closed:.1e} <= {0.5 * g.h:.1e}")


def test_criterion_3_spectrum_and_trace():
    g = SegmentGrid(1.0, 100)
    op = assemble_gram_operator(g)
    dec = spectral_decomposition(op)
    positive = bool(np.all(dec.eigenvalues > 0))
    tail_ok, prev = True, np.inf
    for n_modes in (1, 10, 25, 50, dec.dim):
        q = dec.tail_projector(n_modes)
        norm = g_operator_norm(op.matrix @ q, g)
        expected = dec.eigenvalues[n_modes] if n_modes < dec.dim else 0.0
        tail_ok &= abs(norm - expected) <= 1e-7 * dec.operator_norm
        tail_ok &= norm <= prev + 1e-12
        prev = norm
    tail_ok &= prev <= 1e-12

    spec = build_affine_test(AffineTestParams(), 100)
    sig = np.asarray(spec.noise(np.array([1.0]), np.array([0.5]), np.array([0.5])))
    N = op.matrix.shape[0]
    gram_flat = np.zeros((N, N))
    gram_flat[:1, :1] = sig @ sig.T
    traces = [float(np.trace(gram_flat @ op.matrix @ dec.tail_projector(k)))
              for k in (1, 5, 20, 60, dec.dim)]
    trace_ok = all(a >= b - 1e-12 for a, b in zip(traces, traces[1:])) \
        and traces[-1] <= 1e-12 and traces[0] > 0
    ok = positive and tail_ok and trace_ok
    report(3, "spectrum and noise trace", ok,
           f"min eigenvalue {dec.eigenvalues[-1]:.2e} > 0, tail norms match "
           f"and vanish: {tail_ok}, trace chain {traces[0]:.2e} -> {traces[-1]:.1e}")


def test_criterion_4_lift_equivalence():
    spec = build_advertising(AdvertisingParams(), 100)
    x = models.initial_state(spec)
    rep = equivalence_report(spec, x, OpenLoopControl([0.5]), T=1.0,
                             delta=1e-3, seed=11)
    rel = rep.base.head_mismatch / rep.base.head_scale
    ok = rel <= 0.05 and 1.3 <= rep.head_ratio <= 3.0
    report(4, "lift equivalence", ok,
           f"head mismatch {rel:.3%} <= 5%, halving ratio "
           f"{rep.head_ratio:.2f} in [1.3, 3]")


def test_criterion_5_concentrated_mass():
    g = SegmentGrid(1.0, 200)
    flat = Kernel(g, np.ones((201, 1, 1)))
    rejected = not validate_kernel(flat).ok
    norms, functionals = [], []
    for n_cells in (50, 20, 10, 5):
        width = n_cells * g.h
        vals = np.where(g.nodes <= -1.0 + width + 1e-12, 1.0 / width, 0.0)[:, None]
        norms.append(minus_one_norm(LiftedBatch(g, np.zeros((1, 1)), vals[None]))[0])
        functionals.append(float(kernel_convolve(flat, vals)[0]))
    ok = (rejected and all(a > b for a, b in zip(norms, norms[1:]))
          and norms[-1] <= 0.15
          and all(abs(f - 1.0) <= 0.15 for f in functionals))
    report(5, "concentrated-mass counterexample", ok,
           f"flat kernel rejected: {rejected}, weak norms fall to "
           f"{norms[-1]:.3f} while the functional stays within 15% of 1")


def test_criterion_6_portfolio_oracle(merton_nodelay_solution):
    chain, res = merton_nodelay_solution
    spec = chain.spec
    x = models.initial_state(spec)
    target, u_star = models.MertonParams(
        r=0.01, mu=models.ClampedAffine(0.07), nu=models.ClampedAffine(0.3), gamma=0.5,
        rho=0.1, z0=1.0).oracle()

    # confirm the closed form by Monte Carlo policy search before using it
    search = {}
    for u in spec.control_set[::2, 0]:
        mean, err = mc_cost(spec, x, OpenLoopControl([u]), T=60.0, delta=0.01,
                            n_paths=400, seed=21)
        search[float(u)] = (-mean, err)
    best_u = max(search, key=lambda u: search[u][0])
    v_best, e_best = search[best_u]
    confirmed = (best_u == pytest.approx(u_star)
                 and abs(v_best - target) <= 3 * e_best + 0.03 * target)

    z0 = chain.flatten(_start_window(x, chain.coarse_grid))
    v_solver = -res.value.interp(z0)[0]
    value_ok = abs(v_solver - target) <= 0.03 * target

    policy = extract_feedback(chain, res.value)
    u_extract = float(policy.control_at(z0[None, :])[0][0])
    du = float(spec.control_set[1, 0] - spec.control_set[0, 0])
    policy_ok = abs(u_extract - u_star) <= du + 1e-12

    mc_mean, mc_err = policy_mc_value(chain, res.policy, x, T=60.0, delta=0.01,
                                      n_paths=1000, seed=5)
    closed_ok = abs(-mc_mean - v_solver) <= 0.03 * abs(v_solver) + 2 * mc_err

    ok = confirmed and value_ok and policy_ok and closed_ok
    report(6, "portfolio closed form", ok,
           f"oracle confirmed by search (u*={best_u}), solver "
           f"{v_solver:.3f} vs {target:.3f} within 3%, feedback "
           f"{u_extract} within one control step, closed loop "
           f"{-mc_mean:.3f} within 3% + 2se")


def test_criterion_7_dpp_gap(merton_delay_solution, advertising_solution):
    lines = []
    ok = True
    for name, (chain, res), seed in (("portfolio", merton_delay_solution, 3),
                                     ("advertising", advertising_solution, 4)):
        x = models.initial_state(chain.spec)
        rep = dpp_gap(chain, res.value, x, tau=5 * chain.delta,
                      n_paths=10000, seed=seed)
        grid_tol = 0.03 * (1.0 + abs(rep.value_at_x))
        ok &= rep.gap <= 2 * rep.stderr + grid_tol
        lines.append(f"{name} gap {rep.gap:.4f} <= {2 * rep.stderr + grid_tol:.4f}")
    report(7, "dynamic programming gap", ok, "; ".join(lines))


def test_criterion_8_growth_and_continuity(advertising_solution):
    chain, res = advertising_solution
    spec = chain.spec
    c_base = growth_fit(res.value, chain)
    axes_fine = (np.linspace(-1.0, 2.5, 43), np.linspace(-1.0, 2.5, 13),
                 np.linspace(-1.0, 2.5, 13))
    res_fine = value_iteration(chain, axes_fine, tol=1e-8, max_iter=10000, gh_points=5)
    c_fine = growth_fit(res_fine.value, chain)
    growth_ok = 0.7 <= c_base / c_fine <= 1.4

    x = models.initial_state(spec)
    rng = np.random.default_rng(2)
    ys = []
    for _ in range(18):
        scale = 10 ** rng.uniform(-3.0, 0.0)
        freq = int(rng.integers(1, 5))
        bump = scale * np.sin(math.pi * freq * (spec.grid.nodes + 1.0))
        ys.append(LiftedState(spec.grid, x.head, x.tail + bump[:, None]))
    table = b_continuity_probe(spec, OpenLoopControl([0.5]), x, batch_of(*ys), T=4.0,
                               delta=0.01, n_paths=200, seed=13)
    monotone, vanishing = envelope_is_monotone(table)
    ok = growth_ok and monotone and vanishing
    report(8, "value growth and weak continuity", ok,
           f"growth constant {c_base:.3f} vs refined {c_fine:.3f} "
           f"(ratio {c_base / c_fine:.2f} in [0.7, 1.4]); envelope monotone: "
           f"{monotone}, vanishing at 0: {vanishing}")


def test_criterion_9_partial_regularity(merton_delay_solution, advertising_spec):
    chain, res = merton_delay_solution
    spec = chain.spec
    x = models.initial_state(spec)
    z0 = chain.flatten(_start_window(x, chain.coarse_grid))

    def estimator(pts):
        full = np.tile(z0, (pts.shape[0], 1))
        full[:, :2] = pts
        return res.value.interp(full)

    spacing = 2.0 * max(float(np.min(np.diff(ax)))
                        for ax in res.value.axes[:2] if len(ax) > 1)
    rep = regularity_probe(spec, estimator, [(0.7, 1.4), (0.5, 2.0)],
                           samples=7, gradient_spacing=spacing)
    field_ok = (np.isfinite(rep.lipschitz) and rep.alpha_hat is not None
                and rep.alpha_hat >= 0.3 and rep.alpha_band is not None)

    smooth = regularity_probe(advertising_spec, lambda p: 0.5 * np.sum(p ** 2, axis=1),
                              [(-1.0, 1.0), (-1.0, 1.0)], samples=7,
                              gradient_spacing=0.05)
    smooth_ok = abs(smooth.alpha_hat - 1.0) <= 0.05 and not smooth.flags
    kink = regularity_probe(advertising_spec, lambda p: np.abs(p[:, 0]), [(-1.0, 1.0)],
                            samples=9, gradient_spacing=0.02)
    kink_ok = (abs(kink.lipschitz - 1.0) <= 0.05
               and any("gradient-jump" in f for f in kink.flags))
    ok = field_ok and smooth_ok and kink_ok
    report(9, "partial regularity probe", ok,
           f"portfolio lipschitz {rep.lipschitz:.2f} finite, alpha "
           f"{rep.alpha_hat:.2f} >= 0.3 with band {rep.alpha_band}, synthetic "
           f"smooth alpha {smooth.alpha_hat:.3f}, kink flagged: {kink_ok}")


def test_criterion_10_arithmetic_gates():
    gates = (
        discount_floor(3.0, 0.0) == 0.0,
        discount_floor(1.0, 2.0) == pytest.approx(3.0),
        discount_floor(2.0, 1.0) == pytest.approx(4.0),
        max_growth_exponent(1.0, 1.0)[0] == pytest.approx(2.0 / 3.0),
        max_growth_exponent(1.0, 1.0)[1] == "linear-bound",
        max_growth_exponent(10.0, 1.0)[0] == pytest.approx(4.0),
        max_growth_exponent(10.0, 1.0)[1] == "quadratic-bound",
        lipschitz_discount_threshold(0.0, 7.0) == 0.0,
        lipschitz_discount_threshold(1.0, 2.0) == pytest.approx(2.0),
        lipschitz_discount_threshold(1.2, 2.0)
        > lipschitz_discount_threshold(1.0, 2.0),
        lipschitz_discount_threshold(1.0, 2.5)
        > lipschitz_discount_threshold(1.0, 2.0),
    )
    ok = all(bool(v) for v in gates)
    report(10, "arithmetic gates", ok, f"{len(gates)} checks")


def test_criterion_11_reproducibility(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        code = cli_main(["dpp", "--spec", str(SPECS / "advertising.json"), "--mlag", "2",
                         "--grid", "y:-1:2.5:17,y_lag1:-1:2.5:7,y_lag2:-1:2.5:7",
                         "--tau-steps", "2", "--paths", "1000",
                         "--out", str(out)])
        assert code == 0
        outs.append(out)
    identical = all(
        (outs[0] / n).read_bytes() == (outs[1] / n).read_bytes()
        for n in ("dpp.csv",))
    for tag in ("c", "d"):
        out = tmp_path / tag
        assert cli_main(["operators", "--spec", str(SPECS / "affine.json"),
                         "--out", str(out), "--samples", "128"]) == 0
        outs.append(out)
    identical &= all(
        (outs[2] / n).read_bytes() == (outs[3] / n).read_bytes()
        for n in ("spectrum.csv", "forms_report.csv", "norm_audit.csv"))
    report(11, "byte reproducibility", identical,
           "identical CSV bytes across re-runs of dpp and operators")
