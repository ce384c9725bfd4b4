"""Command line entry point wiring problem files to the library modules.

Every subcommand reads a JSON problem file, writes CSV artifacts plus a run
manifest into --out, and exits 0 on success, 1 on validation failure, and 2
on numerical failure, with a machine-readable error record on stderr.

A subcommand is one handler plus one entry in COMMANDS. A handler takes the
Run context of the invocation (parsed args, problem, initial state, output
directory), writes its artifacts through the context (Run.csv, Run.svg) and
may add manifest fields to Run.extra; it returns (stdout lines, exit code).
main builds the context, calls the handler, writes run_manifest.json, prints
the lines, and maps errors to exit codes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import (DomainError, GridMismatchError, Kernel, LiftedState, NumericalError,
                   ProblemSpec, Segment, ValidationError, kernel_convolve, validate_kernel)
from . import hjb, lift, models, operators, output, sdde


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def _err(kind: str, exc: Exception) -> None:
    sys.stderr.write(json.dumps({"error": kind, "message": str(exc)}) + "\n")


@dataclass(eq=False)
class Run:
    """One invocation: its inputs and the artifacts written so far."""

    args: argparse.Namespace
    spec: ProblemSpec
    x: LiftedState
    out: Path
    artifacts: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def csv(self, name: str, header: list[str], rows) -> None:
        self.artifacts.append(output.write_csv(self.out / name, header, rows))

    def svg(self, name: str, series: dict, **kw) -> None:
        """Write a plot when --svg is given."""
        if self.args.svg:
            self.artifacts.append(output.write_svg_lines(self.out / name, series, **kw))


def _control(spec: ProblemSpec, text: str | None = None, dt: float | None = None):
    """Control from --control: the middle control point when absent,
    'const:v[,v...]', or 'policy:FILE' as feedback at simulation step dt.
    Without dt a policy is refused: its feedback reads step-grid windows."""
    if text is None:
        return sdde.OpenLoopControl(spec.control_set[spec.control_set.shape[0] // 2])
    if text.startswith("const:"):
        try:
            vals = [float(v) for v in text[len("const:"):].split(",")]
        except ValueError:
            raise ValidationError(f"constant control must be numbers, got {text!r}") from None
        if len(vals) != spec.p:
            raise ValidationError(
                f"constant control has {len(vals)} components, the problem has p={spec.p}")
        return sdde.OpenLoopControl(np.asarray(vals))
    if text.startswith("policy:"):
        if dt is None:
            raise ValidationError(
                "this subcommand takes const: controls only; a policy feedback reads "
                "step-grid windows, not the segment-grid windows of the lifted simulation")
        doc = json.loads(Path(text[len("policy:"):]).read_text(encoding="utf-8"))
        chain = hjb.reduce_to_lag_chain(spec, int(doc["m_lag"]))
        axes = tuple(np.asarray(a, dtype=float) for a in doc["axes"])
        shape = [len(a) for a in axes]
        indices = np.asarray(doc["indices"], dtype=np.int64)
        control_set = np.asarray(doc["control_set"], dtype=float)
        if len(axes) != chain.state_dim or control_set.shape[1:] != (spec.p,):
            raise ValidationError(
                f"policy has {len(axes)} axes and controls of shape {control_set.shape[1:]}; "
                f"the problem needs {chain.state_dim} axes and controls of shape ({spec.p},)")
        if indices.size != math.prod(shape):
            raise ValidationError(
                f"policy has {indices.size} indices for a grid of {math.prod(shape)} nodes")
        policy = hjb.PolicyField(axes, indices.reshape(shape), control_set)
        return hjb.feedback_from_policy(chain, policy, dt)
    raise ValidationError(f"control must be 'const:v[,v...]' or 'policy:FILE', got {text!r}")


def _count(run: Run, name: str) -> int:
    """The value of the count flag with destination name, refused below 1."""
    value = getattr(run.args, name)
    if value < 1:
        raise ValidationError(f"--{name.replace('_', '-')} must be at least 1, got {value}")
    return value


def _parse_grid(text: str, names: list[str], z0: np.ndarray):
    """Axes from 'name:lo:hi:count,...'; unnamed axes collapse at the start state."""
    axes: list[np.ndarray] = [np.array([z0[i]]) for i in range(len(names))]
    if text:
        for token in text.split(","):
            parts = token.split(":")
            spacing = "lin"
            if len(parts) == 5 and parts[1] in ("lin", "log"):
                spacing = parts.pop(1)
            try:
                name, lo, hi, count = parts
                lo, hi, count = float(lo), float(hi), int(count)
                pick = (np.geomspace(lo, hi, count) if spacing == "log"
                        else np.linspace(lo, hi, count))
            except ValueError:
                raise ValidationError(
                    f"bad grid token {token!r}, want name[:log]:lo:hi:count") from None
            if count < 1:
                raise ValidationError(f"grid axis {name!r} needs at least 1 node, got {count}")
            if name not in names:
                raise ValidationError(f"unknown axis {name!r}; axes are {names}")
            axes[names.index(name)] = pick
    return tuple(axes)


def _parse_box(text: str, names: list[str]) -> list[tuple[float, float]]:
    box = []
    for token in text.split(","):
        try:
            name, lo, hi = token.split(":")
            lo, hi = float(lo), float(hi)
        except ValueError:
            raise ValidationError(f"bad box token {token!r}, want name:lo:hi") from None
        if name not in names:
            raise ValidationError(f"box axis {name!r} must be a head axis {names}")
        box.append((lo, hi))
    return box


def _solve(run: Run):
    """Lag chain, solver result and flat start register of a solve; the
    solver's convergence goes into the manifest."""
    a = run.args
    chain = hjb.reduce_to_lag_chain(run.spec, a.mlag)
    z0 = chain.flatten(hjb.register_from_state(chain, run.x))
    axes = _parse_grid(a.grid, chain.axis_names(), z0)
    result = hjb.value_iteration(chain, axes, tol=a.tol, max_iter=a.max_iter, gh_points=a.gh)
    run.extra.update(iterations=result.iterations, residual=result.residual,
                     value_error_bound=result.value_error_bound,
                     evaluation_sweeps=result.evaluation_sweeps, clamp_rate=result.clamp_rate)
    return chain, result, z0


def _write_value_policy(run: Run, chain, result) -> None:
    idx = result.policy.indices.ravel()
    rows = [[float(v) for v in pt] + [float(value), int(i)] + [float(c) for c in u]
            for pt, value, i, u in zip(result.value.nodes(), result.value.values.ravel(),
                                       idx, result.policy.control_set[idx])]
    run.csv("value_policy.csv", chain.axis_names() + ["value", "control_index"]
            + [f"u{i}" for i in range(chain.spec.control_set.shape[1])], rows)


def _write_dpp(run: Run, chain, result, tau: float):
    report = hjb.dpp_gap(chain, result.value, run.x, tau, run.args.paths, run.args.seed)
    grid_tol = 0.03 * (1.0 + abs(report.value_at_x))
    ok = report.ok(grid_tol)
    run.csv("dpp.csv", ["tau", "gap", "stderr", "value_at_x", "grid_tol", "pass"],
            [[report.tau, report.gap, report.stderr, report.value_at_x, grid_tol, int(ok)]])
    return report, grid_tol, ok


def cmd_simulate(run: Run):
    a, spec, x = run.args, run.spec, run.x
    ctrl = _control(spec, a.control, a.dt)
    mean, stderr = sdde.mc_cost(spec, x, ctrl, a.T, a.dt, a.paths, a.seed)
    try:
        t_trunc = hjb.truncation_horizon(spec, float(np.linalg.norm(x.head)), tol=0.01)
    except ValidationError:
        t_trunc = float("nan")
    run.csv("summary.csv", ["mean", "stderr", "T_trunc"], [[mean, stderr, t_trunc]])
    # the emitted paths are paths 0.. of the estimate: same streams, one batch
    dw = sdde.batch_increments(a.seed, range(min(a.paths, a.emit_paths)), a.dt,
                               spec.q, sdde._steps_of(a.T, a.dt, "T"))
    times, states, controls, _ = sdde._simulate_batch(spec, x, ctrl, a.T, a.dt, dw)
    steps = slice(-controls.shape[1] - 1, -1)  # step times 0 .. T - dt
    rows = [[pidx, float(t)] + y.tolist() + u.tolist()
            for pidx in range(len(dw))
            for t, y, u in zip(times[steps], states[pidx, steps], controls[pidx])]
    run.csv("paths.csv", ["path", "t"] + [f"y{i}" for i in range(spec.n)]
            + [f"u{i}" for i in range(spec.control_set.shape[1])], rows)
    if a.svg and rows:  # skips collecting path 0 when no plot is drawn
        arr = np.asarray([[r[1], r[2]] for r in rows if r[0] == 0])
        run.svg("paths.svg", {"y0(path 0)": (arr[:, 0], arr[:, 1])}, title="simulated state")
    return [f"simulate: mean={mean:.6g} stderr={stderr:.3g} paths={a.paths}"], 0


def cmd_operators(run: Run):
    spec, grid, n = run.spec, run.spec.grid, run.spec.n
    op = operators.assemble_gram_operator(grid, n)
    decomp = operators.spectral_decomposition(op)
    run.csv("spectrum.csv", ["index", "eigenvalue"],
            [[i, float(v)] for i, v in enumerate(decomp.eigenvalues)])
    rng = np.random.default_rng(run.args.seed)
    diss, weak, norm_rows = [], [], []
    for _ in range(_count(run, "samples")):
        x = operators.random_smooth_state(grid, n, rng, domain=True)
        nx = operators.lifted_norm_sq(x) ** 0.5
        diss.append(operators.dissipativity_form(x) / max(nx * nx, 1e-300))
        weak.append(operators.generator_inverse_form(x) / max(nx * nx, 1e-300))
        back = operators.apply_generator(operators.apply_generator_inverse(x))
        roundtrip = operators.lifted_norm_sq(back - x) ** 0.5 / max(nx, 1e-300)
        t = float(rng.uniform(0, 2 * grid.d))
        gn = operators.lifted_norm_sq(operators.apply_shift_semigroup(t, x)) ** 0.5
        norm_rows.append([float(np.linalg.norm(x.head)), operators.minus_one_norm(x),
                          roundtrip, gn / max(nx, 1e-300), math.sqrt(2.0 * (1.0 + grid.d))])
    forms_ok = max(diss) <= 1e-8 and max(weak) <= 1e-8
    run.csv("forms_report.csv", ["form", "min", "max", "mean", "all_nonpositive"],
            [[form, min(v), max(v), sum(v) / len(v), int(max(v) <= 1e-8)]
             for form, v in (("dissipativity", diss), ("inverse_pairing", weak))])
    run.csv("norm_audit.csv", ["head_norm", "weak_norm", "roundtrip_rel",
                               "semigroup_growth", "semigroup_bound"], norm_rows)
    # tail projector norms against the next eigenvalue; every eigenvalue has
    # multiplicity n, so mode counts round up to whole eigenspaces
    tail_rows = []
    marks = sorted({n * math.ceil(k / n) for k in (1, decomp.dim // 4, decomp.dim // 2,
                                                  decomp.dim)} - {0})
    for n_modes in marks:
        q = decomp.projection_matrix(n_modes, "Q")
        nxt = float(decomp.eigenvalues[n_modes]) if n_modes < decomp.dim else 0.0
        tail_rows.append([n_modes, operators.g_operator_norm(op.matrix @ q, grid, n), nxt])
    run.csv("tail_norms.csv", ["n_modes", "tail_norm", "next_eigenvalue"], tail_rows)
    # noise trace against the mode count, at the recorded initial state
    z2 = np.asarray(spec.delay_integrals(run.x.tail)[1])
    sig = np.asarray(spec.noise(run.x.head, z2, spec.control_set[0]))
    gram_flat = np.zeros_like(op.matrix)
    gram_flat[:n, :n] = sig @ sig.T
    run.csv("trace_report.csv", ["n_modes", "noise_trace"],
            [[n_modes, float(np.trace(gram_flat @ op.matrix
                                      @ decomp.projection_matrix(n_modes, "Q")))]
             for n_modes in marks])
    # concentrated-mass counterexample: unit-mass tails of shrinking support
    # keep the flat-kernel functional alive while the weak norm collapses
    flat_kernel = Kernel(grid, np.ones((grid.m + 1, 1, n)))
    flat_rejected = not validate_kernel(flat_kernel).ok
    ce_rows = []
    # the indicator needs a few cells of support or its quadrature mass
    # overshoots by 1/(2 cells)
    for cells in (max(grid.m // 4, 5), max(grid.m // 10, 4), max(grid.m // 40, 3)):
        width = cells * grid.h
        vals = np.where(grid.nodes <= -grid.d + width + 1e-12,
                        1.0 / width, 0.0)[:, None] * np.ones((1, n))
        state = LiftedState(np.zeros(n), Segment(grid, vals))
        ce_rows.append([cells, operators.minus_one_norm(state),
                        float(kernel_convolve(flat_kernel, state.tail)[0])])
    run.csv("counterexample.csv", ["support_cells", "weak_norm", "flat_kernel_functional"],
            ce_rows)
    # discount and growth arithmetic from the declared constants
    k_max, case = hjb.max_growth_exponent(spec.rho, spec.growth_const)
    run.csv("gates.csv", ["name", "value"], [
        ["discount_floor", hjb.discount_floor(spec.growth_const, spec.cost_growth_exponent)],
        ["max_growth_exponent", k_max],
        ["growth_case_quadratic", int(case == "quadratic-bound")],
        ["lipschitz_threshold",
         hjb.lipschitz_discount_threshold(spec.growth_const, decomp.operator_norm)],
        ["floor_check_m0", hjb.discount_floor(3.0, 0.0)],
        ["floor_check_c1_m2", hjb.discount_floor(1.0, 2.0)],
        ["floor_check_c2_m1", hjb.discount_floor(2.0, 1.0)],
        ["exponent_check_r1_c1", hjb.max_growth_exponent(1.0, 1.0)[0]],
        ["exponent_check_r10_c1", hjb.max_growth_exponent(10.0, 1.0)[0]],
    ])
    run.svg("spectrum.svg", {"eigenvalue": (np.arange(decomp.dim), np.log10(decomp.eigenvalues))},
            title="gram spectrum (log10)")
    dominated = all(r[0] <= r[1] + 1e-9 for r in norm_rows)
    worst_round = max(r[2] for r in norm_rows)
    return [f"operators: modes={decomp.dim} lambda_max={decomp.operator_norm:.6g} "
            f"forms_ok={int(forms_ok)} head_dominated={int(dominated)} "
            f"roundtrip={worst_round:.2e} flat_kernel_rejected={int(flat_rejected)}"], 0


def cmd_lift_check(run: Run):
    a = run.args
    report = lift.equivalence_report(run.spec, run.x, _control(run.spec, a.control),
                                     a.T, a.dt, a.seed)
    run.csv("lift_report.csv", ["delta", "m", "head_mismatch", "tail_mismatch", "head_ratio"],
            [[lvl.delta, lvl.m, lvl.head_mismatch, lvl.tail_mismatch, ratio]
             for lvl, ratio in ((report.base, report.head_ratio),
                                (report.refined, float("nan")))])
    rel = report.base.head_mismatch / report.base.head_scale
    return [f"lift-check: head_mismatch={report.base.head_mismatch:.6g} "
            f"(relative {rel:.3%}) ratio={report.head_ratio:.3g}"], 0


def cmd_value(run: Run):
    a = run.args
    ctrl = _control(run.spec, a.control, a.dt)
    mean, stderr = sdde.mc_cost(run.spec, run.x, ctrl, a.T, a.dt, a.paths, a.seed)
    run.csv("value.csv", ["mean", "stderr"], [[mean, stderr]])
    return [f"value: mean={mean:.6g} stderr={stderr:.3g}"], 0


def cmd_solve(run: Run):
    chain, result, z0 = _solve(run)
    growth = hjb.growth_fit(result.value, chain, run.spec.cost_growth_exponent)
    _write_value_policy(run, chain, result)
    policy, path = result.policy, run.out / "policy.json"
    path.write_text(json.dumps({"axes": [ax.tolist() for ax in policy.axes],
                                "indices": policy.indices.ravel().tolist(),
                                "control_set": policy.control_set.tolist(),
                                "m_lag": run.args.mlag}, sort_keys=True) + "\n",
                    encoding="utf-8")
    run.artifacts.append(str(path))
    run.csv("convergence.csv", ["sweep", "residual", "bound"],
            [[i, r, hjb.bellman_bound(chain.step_discount, r)]
             for i, r in enumerate(result.residual_history.tolist(), start=1)])
    run.extra.update(growth_fit=growth)
    warn = " clamp_warning" if result.clamp_warning else ""
    return [f"solve: V(x0)={result.value.interp_one(z0):.6g} iters={result.iterations} "
            f"residual={result.residual:.3g} bound={result.value_error_bound:.3g} "
            f"clamp_rate={result.clamp_rate:.2%} growth_fit={growth:.4g}{warn}"], 0


def cmd_residual(run: Run):
    samples = _count(run, "samples")
    chain, result, _ = _solve(run)
    rng = np.random.default_rng(run.args.seed)
    rows, residuals = [], []
    for _ in range(samples):
        pt = np.array([ax[0] if len(ax) == 1 else rng.uniform(ax[1], ax[-2])
                       for ax in result.value.axes])
        r = hjb.hjb_residual(chain, result.value, pt)
        residuals.append(abs(r))
        rows.append([float(v) for v in pt] + [r])
    run.csv("residual.csv", chain.axis_names() + ["residual"], rows)
    return [f"residual: median|r|={float(np.median(residuals)):.6g} "
            f"over {run.args.samples} points"], 0


def cmd_dpp(run: Run):
    tau_steps = _count(run, "tau_steps")
    chain, result, _ = _solve(run)
    report, grid_tol, ok = _write_dpp(run, chain, result, tau_steps * chain.delta)
    return [f"dpp: gap={report.gap:.6g} stderr={report.stderr:.3g} "
            f"tol={2 * report.stderr + grid_tol:.3g} pass={ok}"], 0 if ok else 2


def cmd_probe_regularity(run: Run):
    spec = run.spec
    box = _parse_box(run.args.box, list(spec.head_names))
    chain, result, z0 = _solve(run)

    def estimator(pts):
        full = np.tile(z0, (pts.shape[0], 1))
        full[:, : spec.n] = pts
        return result.value.interp(full)

    spacing = 2.0 * max(float(np.min(np.diff(ax))) for ax in result.value.axes[: spec.n]
                        if len(ax) > 1)
    report = hjb.regularity_probe(spec, estimator, box, samples=run.args.samples,
                                  gradient_spacing=spacing)
    band = report.alpha_band or (float("nan"), float("nan"))
    run.csv("regularity.csv", ["lipschitz", "alpha_hat", "alpha_lo", "alpha_hi", "flags"],
            [[report.lipschitz,
              report.alpha_hat if report.alpha_hat is not None else float("nan"),
              band[0], band[1], ";".join(report.flags) or "none"]])
    return [f"probe-regularity: lipschitz={report.lipschitz:.6g} "
            f"alpha={report.alpha_hat} flags={list(report.flags)}"], 0


def cmd_probe_bcontinuity(run: Run):
    a, spec, x = run.args, run.spec, run.x
    estimator = hjb.paired_cost_estimator(spec, _control(spec), a.T, a.dt, a.paths, a.seed)
    pairs = []
    rng = np.random.default_rng(a.seed)
    nodes = spec.grid.nodes
    for _ in range(a.pairs):
        scale = 10 ** rng.uniform(-3.0, 0.0)
        freq = rng.integers(1, 5)
        bump = scale * np.sin(math.pi * freq * (nodes + spec.d) / spec.d)
        pert = Segment(spec.grid, x.tail.values + bump[:, None])
        pairs.append((x, LiftedState(x.head, pert)))
    table = hjb.b_continuity_probe(spec, pairs, estimator)
    monotone, vanishing = hjb.envelope_is_monotone(table, abs_tol=1e-6)
    run.csv("bcontinuity.csv", ["weak_distance", "difference", "stderr"],
            [[float(d), float(v), float(s)] for d, v, s in
             zip(table.distances, table.differences, table.stderrs)])
    run.svg("bcontinuity.svg", {"diff": (table.distances, table.differences)},
            title="value difference vs weak distance", scatter=True)
    return [f"probe-bcontinuity: monotone={monotone} vanishing={vanishing} "
            f"pairs={a.pairs}"], 0


def cmd_merton_check(run: Run):
    a, spec = run.args, run.spec
    p = spec.params
    if not isinstance(p, models.MertonParams):
        raise ValidationError("merton-check needs a portfolio problem file")
    if not all(c.slope == 0.0 and c.lo == c.hi for c in (p.mu, p.nu)):
        raise ValidationError("merton-check compares against the constant-coefficient closed "
                              "form; use const mu and nu presets with zero kernels")
    oracle = models.merton_classical_oracle(p.r, p.mu.base, p.nu.base, p.gamma, spec.rho)
    chain, result, z0 = _solve(run)
    v_solver = -result.value.interp_one(z0)  # cost sign flip back to utility
    v_oracle = oracle.value(p.z0)
    policy = hjb.extract_feedback(chain, result.value)
    u_extract = float(policy.control_at(z0[None, :])[0][0])
    du = float(spec.control_set[1, 0] - spec.control_set[0, 0])
    mc_mean, mc_err = hjb.policy_mc_value(chain, result.policy, run.x, a.T,
                                          a.dt, a.paths, a.seed)
    rows = [[check, observed, target, tol, int(abs(observed - target) <= tol)]
            for check, observed, target, tol in (
                ("value_iteration_vs_oracle", v_solver, v_oracle, 0.03 * abs(v_oracle)),
                ("feedback_vs_oracle", u_extract, oracle.u_star, du + 1e-12),
                ("closed_loop_vs_solver", -mc_mean, v_solver,
                 0.03 * abs(v_solver) + 2 * mc_err))]
    run.csv("merton_check.csv", ["check", "observed", "target", "tol", "pass"], rows)
    return [f"merton-check: {r[0]}: observed={r[1]:.6g} target={r[2]:.6g} "
            f"tol={r[3]:.3g} {'PASS' if r[-1] else 'FAIL'}"
            for r in rows], 0 if all(r[-1] for r in rows) else 2


def cmd_advertising_demo(run: Run):
    a, spec = run.args, run.spec
    driver = sdde.BrownianDriver(a.seed, 0, a.dt, spec.q)
    path = sdde.simulate_sdde(spec, run.x, _control(spec), a.T, a.dt, driver)
    rows = [[float(t)] + [float(v) for v in y] for t, y in zip(path.times, path.states)]
    run.csv("path.csv", ["t"] + [f"y{i}" for i in range(spec.n)], rows)
    chain, result, z0 = _solve(run)
    _write_value_policy(run, chain, result)
    report, _, _ = _write_dpp(run, chain, result, 2 * chain.delta)
    arr = np.asarray(rows)
    run.svg("path.svg", {"goodwill": (arr[:, 0], arr[:, 1])}, title="goodwill path")
    return [f"advertising-demo: V(x0)={result.value.interp_one(z0):.6g} "
            f"dpp_gap={report.gap:.4g}"], 0


def _flag(*names, **kw):
    return names, kw


def _horizon(T=None, dt=None, paths=None):
    """--T and --dt, required unless given a default, and --paths when given one."""
    flags = [_flag(name, type=float,
                   **({"required": True} if value is None else {"default": value}))
             for name, value in (("--T", T), ("--dt", dt))]
    if paths is not None:
        flags.append(_flag("--paths", type=int, default=paths))
    return flags


CONTROL = _flag("--control", default=None)
SOLVE = [
    _flag("--mlag", type=int, default=1),
    _flag("--grid", default=""),
    _flag("--tol", type=float, default=1e-6),
    _flag("--max-iter", type=int, default=20000, dest="max_iter"),
    _flag("--gh", type=int, default=5),
]

COMMANDS = {
    "simulate": (cmd_simulate, [*_horizon(paths=100), CONTROL,
                                _flag("--emit-paths", type=int, default=20, dest="emit_paths")]),
    "operators": (cmd_operators, [_flag("--samples", type=int, default=1000)]),
    "lift-check": (cmd_lift_check, [*_horizon(1.0, 1e-3), CONTROL]),
    "value": (cmd_value, [*_horizon(paths=200), CONTROL]),
    "solve": (cmd_solve, SOLVE),
    "residual": (cmd_residual, [*SOLVE, _flag("--samples", type=int, default=50)]),
    "dpp": (cmd_dpp, [*SOLVE, _flag("--tau-steps", type=int, default=5, dest="tau_steps"),
                      _flag("--paths", type=int, default=10000)]),
    "probe-regularity": (cmd_probe_regularity, [
        *SOLVE, _flag("--box", required=True, help="head box, e.g. s:0.6:1.4,z:0.5:2"),
        _flag("--samples", type=int, default=7)]),
    "merton-check": (cmd_merton_check, [*SOLVE, *_horizon(60.0, 0.01, 1000)]),
    "advertising-demo": (cmd_advertising_demo, [*SOLVE, *_horizon(5.0, 0.01, 2000)]),
    "probe-bcontinuity": (cmd_probe_bcontinuity, [*_horizon(5.0, 0.01, 200),
                                                  _flag("--pairs", type=int, default=24)]),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="delayopt",
                     description="stochastic control with delays: simulate, lift, solve, probe")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, flags) in COMMANDS.items():
        s = sub.add_parser(name)
        s.add_argument("--spec", required=True, help="problem JSON file")
        s.add_argument("--out", default="out", help="artifact directory")
        s.add_argument("--seed", type=int, default=0)
        s.add_argument("--svg", action="store_true", help="also render SVG plots")
        for names, kw in flags:
            s.add_argument(*names, **kw)
        s.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        spec = models.load_spec_file(args.spec)
        run = Run(args, spec, models.initial_state(spec), Path(args.out))
        run.out.mkdir(parents=True, exist_ok=True)
        lines, code = args.func(run)
        resolved = {k: v for k, v in sorted(vars(args).items())
                    if k not in ("command", "func") and v is not None}
        output.write_manifest(run.out, args.spec, {**resolved, **run.extra},
                              run.artifacts, started)
    except (ValidationError, GridMismatchError, DomainError, FileNotFoundError,
            json.JSONDecodeError, KeyError) as exc:
        _err("validation", exc)
        return 1
    except NumericalError as exc:
        _err("numerical", exc)
        return 2
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
