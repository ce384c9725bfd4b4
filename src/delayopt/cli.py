"""Command line entry point wiring problem files to the library modules.

Every subcommand reads a JSON problem file, writes CSV artifacts plus a run
manifest into --out, and exits 0 on success, 1 on validation failure, and 2
on numerical failure, with a machine-readable error record on stderr.

A subcommand is one handler plus one entry in COMMANDS. A handler takes the
Run context of the invocation (parsed args, problem, initial state, output
directory), writes its artifacts through the context (Run.csv, Run.svg) and
may add manifest fields to Run.extra; it returns its stdout lines, or raises
CheckFailed with them when a check it ran fails. main builds the context,
calls the handler, writes run_manifest.json (with the error record when the
handler fails, numerically or on its input), prints the lines, and maps
errors to exit codes.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import (Kernel, LiftedBatch, LiftedState, NumericalError, ProblemSpec,
                   ValidationError, kernel_convolve, validate_kernel)
from . import hjb, lift, models, operators, output, sdde


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


class CheckFailed(NumericalError):
    """A check the handler ran failed: exit 2, its stdout lines still printed."""

    def __init__(self, lines: list[str], failed: list[str]):
        super().__init__(f"failed checks: {', '.join(failed)}")
        self.lines = lines


def _err(kind: str, exc: Exception) -> dict:
    """Write the error record to stderr and return it."""
    record = {"error": kind, "message": str(exc)}
    sys.stderr.write(json.dumps(record) + "\n")
    return record


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

    def svg(self, name: str, label: str, x, y, **kw) -> None:
        """Write a plot of y(x) when --svg is given."""
        if self.args.svg:
            self.artifacts.append(output.write_svg_lines(self.out / name, label, x, y, **kw))


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
        path = text[len("policy:"):]
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
            m_lag, indices = doc["m_lag"], np.asarray(doc["indices"])
            axes = tuple(np.asarray(a, dtype=float) for a in doc["axes"])
            shape = [len(a) for a in axes]
            control_set = np.asarray(doc["control_set"], dtype=float)
        except KeyError as exc:
            raise ValidationError(f"policy file {path} has no field {exc}") from None
        except (TypeError, ValueError, OverflowError) as exc:  # JSON syntax errors too
            raise ValidationError(f"malformed policy file {path}: {exc!r}") from exc
        if isinstance(m_lag, bool) or not isinstance(m_lag, int):
            raise ValidationError("policy m_lag must be a JSON integer")
        if indices.size != math.prod(shape):
            raise ValidationError(
                f"policy has {indices.size} indices for a grid of {math.prod(shape)} nodes")
        policy = hjb.PolicyField(axes, indices.reshape(shape), control_set)
        return hjb.feedback_from_policy(hjb.reduce_to_lag_chain(spec, m_lag), policy, dt)
    raise ValidationError(f"control must be 'const:v[,v...]' or 'policy:FILE', got {text!r}")


def _count(run: Run, name: str) -> int:
    """The value of the count flag with destination name, refused below 1."""
    value = getattr(run.args, name)
    if value < 1:
        raise ValidationError(f"--{name.replace('_', '-')} must be at least 1, got {value}")
    return value


def _parse_grid(text: str, names: list[str], z0: np.ndarray):
    """Axes from 'name:lo:hi:count,...'; unnamed axes collapse at the start state."""
    given: dict[str, np.ndarray] = {}
    if text:
        for token in text.split(","):
            parts = token.split(":")
            log = len(parts) == 5 and parts[1] == "log"
            if log:
                del parts[1]
            try:
                name, lo, hi, count = parts
                lo, hi, count = float(lo), float(hi), int(count)
            except ValueError:
                raise ValidationError(
                    f"bad grid token {token!r}, want name[:log]:lo:hi:count") from None
            if not math.isfinite(hi - lo):  # also refuses a width that overflows
                raise ValidationError(f"grid axis {name!r} needs finite bounds, got {lo}:{hi}")
            if log and not (lo > 0 and hi > 0):
                raise ValidationError(
                    f"log grid axis {name!r} needs positive bounds, got {lo}:{hi}")
            if count < 1:
                raise ValidationError(f"grid axis {name!r} needs at least 1 node, got {count}")
            if name not in names:
                raise ValidationError(f"unknown axis {name!r}; axes are {names}")
            if name in given:
                raise ValidationError(f"grid axis {name!r} is given twice")
            given[name] = np.geomspace(lo, hi, count) if log else np.linspace(lo, hi, count)
    return tuple(given.get(name, np.array([z0[i]])) for i, name in enumerate(names))


def _parse_box(text: str, names: list[str]) -> dict[int, tuple[float, float]]:
    """Box from 'name:lo:hi,...' as {head column: (lo, hi)}, in column order."""
    box = {}
    for token in text.split(","):
        try:
            name, lo, hi = token.split(":")
            lo, hi = float(lo), float(hi)
        except ValueError:
            raise ValidationError(f"bad box token {token!r}, want name:lo:hi") from None
        if not (math.isfinite(hi - lo) and lo < hi):
            raise ValidationError(f"box axis {name!r} needs finite lo < hi, got {lo}:{hi}")
        if name not in names:
            raise ValidationError(f"box axis {name!r} must be a head axis {names}")
        if names.index(name) in box:
            raise ValidationError(f"box axis {name!r} is given twice")
        box[names.index(name)] = (lo, hi)
    return dict(sorted(box.items()))


def _lag_grid(run: Run):
    """Lag chain, grid axes (--mlag, --grid) and flat start register of a solve."""
    chain = hjb.reduce_to_lag_chain(run.spec, run.args.mlag)
    z0 = chain.flatten(sdde._start_window(run.x, chain.coarse_grid))
    return chain, _parse_grid(run.args.grid, chain.axis_names(), z0), z0


def _solve(run: Run, chain, axes):
    """Solver result on the grid; its convergence goes into the manifest."""
    a = run.args
    result = hjb.value_iteration(chain, axes, tol=a.tol, max_iter=a.max_iter, gh_points=a.gh)
    run.extra.update(iterations=result.iterations, residual=result.residual,
                     value_error_bound=result.value_error_bound,
                     evaluation_sweeps=result.evaluation_sweeps, clamp_rate=result.clamp_rate,
                     transition_entries=result.transition_entries)
    return result


def _write_value_policy(run: Run, chain, result) -> None:
    # rows zipped from column lists: tolist gives the Python floats and ints
    idx = result.policy.indices.ravel()
    rows = list(zip(*result.value.nodes().T.tolist(), result.value.values.ravel().tolist(),
                    idx.tolist(), *result.policy.control_set[idx].T.tolist()))
    run.csv("value_policy.csv", chain.axis_names() + ["value", "control_index"]
            + [f"u{i}" for i in range(chain.spec.control_set.shape[1])], rows)


def _write_dpp(run: Run, chain, result, tau: float):
    report = hjb.dpp_gap(chain, result.value, run.x, tau, run.args.paths, run.args.seed)
    run.csv("dpp.csv", ["tau", "gap", "stderr", "value_at_x", "grid_tol", "pass"],
            [[tau, report.gap, report.stderr, report.value_at_x, report.grid_tol,
              int(report.ok)]])
    return report


def _record_tail_bound(run: Run) -> None:
    """Manifest: the discounted cost beyond --T, bounded with its moment
    prefactor taken as 1 (hjb.truncation_tail_bound); null when the discount
    does not clear its admissibility floor."""
    try:
        bound = hjb.truncation_tail_bound(run.spec, math.hypot(*run.x.head), run.args.T)
    except ValidationError:
        bound = None
    run.extra["truncation_tail_bound"] = bound


@dataclass(frozen=True, eq=False)
class _PathRows:
    """The rows of paths.csv, one per (path, step), made one path at a time
    as they are iterated; sized without being made."""

    t_cells: list[str]     # the formatted step times, shared by every path
    states: np.ndarray     # (paths, steps, n) the state at each step time
    controls: np.ndarray   # (paths, steps, p)

    # the bench trace counts write_csv's rows by len() (bench/spans.py, _observe_csv)
    def __len__(self) -> int:
        return len(self.states) * len(self.t_cells)

    def __iter__(self):
        # a path's rows are zipped from its column lists, every row sharing
        # the path's formatted index
        for pidx in range(len(self.states)):
            columns = [*self.states[pidx].T.tolist(), *self.controls[pidx].T.tolist()]
            yield from zip(itertools.repeat(str(pidx)), self.t_cells, *columns)


def cmd_simulate(run: Run):
    a, spec, x = run.args, run.spec, run.x
    if a.emit_paths < 0:
        raise ValidationError(f"--emit-paths must be nonnegative, got {a.emit_paths}")
    ctrl = _control(spec, a.control, a.dt)
    # the emitted paths are paths 0.. of the estimate, kept from its own pass
    batch = sdde.simulate_sdde(spec, x, ctrl, a.T, a.dt, (a.seed, a.paths),
                               keep=min(a.paths, a.emit_paths))
    mean, stderr = sdde._mean_stderr(batch.costs)
    try:
        t_trunc = hjb.truncation_horizon(spec, math.hypot(*x.head), tol=0.01)
    except ValidationError:
        t_trunc = float("nan")
    _record_tail_bound(run)
    run.csv("summary.csv", ["mean", "stderr", "T_trunc"], [[mean, stderr, t_trunc]])
    states, controls = batch.states, batch.controls
    steps = slice(-controls.shape[1] - 1, -1)  # the step times 0 .. T - dt
    times = batch.times[steps]
    rows = _PathRows([str(t) for t in times.tolist()], states[:, steps], controls)
    run.csv("paths.csv", ["path", "t"] + [f"y{i}" for i in range(spec.n)]
            + [f"u{i}" for i in range(spec.control_set.shape[1])], rows)
    if rows:
        run.svg("paths.svg", "y0(path 0)", times, states[0, steps, 0], title="simulated state")
    return [f"simulate: mean={mean:.6g} stderr={stderr:.3g} paths={a.paths}"]


def cmd_operators(run: Run):
    spec, grid, n = run.spec, run.spec.grid, run.spec.n
    # the flat operator is the scalar one times I_n: each eigenvalue n times
    op = operators.assemble_gram_operator(grid)
    decomp = operators.spectral_decomposition(op)
    spectrum = np.repeat(decomp.eigenvalues, n)
    run.csv("spectrum.csv", ["index", "eigenvalue"],
            [[i, float(v)] for i, v in enumerate(spectrum)])
    rng = np.random.default_rng(run.args.seed)
    # each sample draws its smooth state's coefficients, then its semigroup
    # time, in the order of the per-state loop, so a seed keeps its samples
    samples = _count(run, "samples")
    coeffs = np.empty((samples, n, operators.SMOOTH_MODES))
    times = np.empty(samples)
    for i in range(samples):
        coeffs[i] = rng.normal(size=(n, operators.SMOOTH_MODES))
        times[i] = rng.uniform(0, 2 * grid.d)
    audit = operators.sample_audit(grid, coeffs, times)
    diss, weak = audit[:, 0].tolist(), audit[:, 1].tolist()
    norm_rows = [row + [math.sqrt(2.0 * (1.0 + grid.d))] for row in audit[:, 2:].tolist()]
    forms_ok = max(diss) <= 1e-8 and max(weak) <= 1e-8
    run.csv("forms_report.csv", ["form", "min", "max", "mean", "all_nonpositive"],
            [[form, min(v), max(v), sum(v) / len(v), int(max(v) <= 1e-8)]
             for form, v in (("dissipativity", diss), ("inverse_pairing", weak))])
    run.csv("norm_audit.csv", ["head_norm", "weak_norm", "roundtrip_rel",
                               "semigroup_growth", "semigroup_bound"], norm_rows)
    # after k whole eigenspaces (n k flat modes): tail projector norm against
    # the next eigenvalue, and the noise trace at the recorded initial state,
    # trace((e0 e0^T x sig sig^T)(B Q x I_n)) = (B Q)[0, 0] trace(sig sig^T)
    z2 = np.asarray(kernel_convolve(spec.kernel_noise, run.x.tail))
    sig = np.asarray(spec.noise(run.x.head, z2, spec.control_set[0]))
    tail_rows, trace_rows = [], []
    for k in sorted({1, decomp.dim // 4, decomp.dim // 2, decomp.dim} - {0}):
        bq = op.matrix @ decomp.tail_projector(k)
        nxt = float(decomp.eigenvalues[k]) if k < decomp.dim else 0.0
        tail_rows.append([n * k, operators.g_operator_norm(bq, grid), nxt])
        trace_rows.append([n * k, float(np.sum(sig * sig) * bq[0, 0])])
    run.csv("tail_norms.csv", ["n_modes", "tail_norm", "next_eigenvalue"], tail_rows)
    run.csv("trace_report.csv", ["n_modes", "noise_trace"], trace_rows)
    # concentrated-mass counterexample: unit-mass tails of shrinking support
    # keep the flat-kernel functional alive while the weak norm collapses
    flat_kernel = Kernel(grid, np.ones((grid.m + 1, 1, n)))
    flat_rejected = not validate_kernel(flat_kernel).ok
    # the indicator needs a few cells of support or its quadrature mass
    # overshoots by 1/(2 cells)
    support = (max(grid.m // 4, 5), max(grid.m // 10, 4), max(grid.m // 40, 3))
    tails = np.stack([np.where(grid.nodes <= -grid.d + cells * grid.h + 1e-12,
                               1.0 / (cells * grid.h), 0.0)[:, None] * np.ones((1, n))
                      for cells in support])
    weak = operators.minus_one_norm(LiftedBatch(grid, np.zeros((len(support), n)), tails))
    ce_rows = [[cells, w, float(kernel_convolve(flat_kernel, t)[0])]
               for cells, w, t in zip(support, weak, tails)]
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
    run.svg("spectrum.svg", "eigenvalue", np.arange(spectrum.size), np.log10(spectrum),
            title="gram spectrum (log10)")
    dominated = all(r[0] <= r[1] + 1e-9 for r in norm_rows)
    worst_round = max(r[2] for r in norm_rows)
    return [f"operators: modes={spectrum.size} lambda_max={decomp.operator_norm:.6g} "
            f"forms_ok={int(forms_ok)} head_dominated={int(dominated)} "
            f"roundtrip={worst_round:.2e} flat_kernel_rejected={int(flat_rejected)}"]


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
            f"(relative {rel:.3%}) ratio={report.head_ratio:.3g}"]


def cmd_value(run: Run):
    a = run.args
    ctrl = _control(run.spec, a.control, a.dt)
    mean, stderr = sdde.mc_cost(run.spec, run.x, ctrl, a.T, a.dt, a.paths, a.seed)
    _record_tail_bound(run)
    run.csv("value.csv", ["mean", "stderr"], [[mean, stderr]])
    return [f"value: mean={mean:.6g} stderr={stderr:.3g}"]


def cmd_solve(run: Run):
    chain, axes, z0 = _lag_grid(run)
    result = _solve(run, chain, axes)
    growth = hjb.growth_fit(result.value, chain)
    _write_value_policy(run, chain, result)
    policy, path = result.policy, run.out / "policy.json"
    path.write_text(json.dumps({"axes": [ax.tolist() for ax in policy.axes],
                                "indices": policy.indices.ravel().tolist(),
                                "control_set": policy.control_set.tolist(),
                                "m_lag": run.args.mlag}, sort_keys=True) + "\n",
                    encoding="utf-8")
    run.artifacts.append(str(path))
    run.csv("convergence.csv", ["sweep", "residual", "bound"],
            [[i, r, b] for i, (r, b) in enumerate(zip(result.residual_history.tolist(),
                                                       result.bound_history.tolist()), start=1)])
    run.extra.update(growth_fit=growth)
    warn = " clamp_warning" if result.clamp_warning else ""
    return [f"solve: V(x0)={result.value.interp(z0)[0]:.6g} iters={result.iterations} "
            f"residual={result.residual:.3g} bound={result.value_error_bound:.3g} "
            f"clamp_rate={result.clamp_rate:.2%} growth_fit={growth:.4g}{warn}"]


def cmd_residual(run: Run):
    samples = _count(run, "samples")
    chain, axes, _ = _lag_grid(run)
    two = [name for name, ax in zip(chain.axis_names(), axes) if len(ax) == 2]
    if two:  # no point keeps a one-node margin on them
        raise ValidationError(f"residual needs 1 or at least 3 nodes per axis; {two} have 2")
    result = _solve(run, chain, axes)
    # one draw per multi-node axis, point by point; one-node axes stay put
    inner = [a for a, ax in enumerate(axes) if len(ax) > 1]
    pts = np.tile([ax[0] for ax in axes], (samples, 1))
    rng = np.random.default_rng(run.args.seed)
    pts[:, inner] = rng.uniform([axes[a][1] for a in inner], [axes[a][-2] for a in inner],
                                size=(samples, len(inner)))
    r = hjb.hjb_residual(chain, result.value, pts)
    run.csv("residual.csv", chain.axis_names() + ["residual"],
            np.column_stack([pts, r]).tolist())
    return [f"residual: median|r|={float(np.median(np.abs(r))):.6g} "
            f"over {run.args.samples} points"]


def cmd_dpp(run: Run):
    tau_steps = _count(run, "tau_steps")
    chain, axes, _ = _lag_grid(run)
    result = _solve(run, chain, axes)
    report = _write_dpp(run, chain, result, tau_steps * chain.delta)
    lines = [f"dpp: gap={report.gap:.6g} stderr={report.stderr:.3g} "
             f"tol={report.bound:.3g} pass={report.ok}"]
    if not report.ok:
        raise CheckFailed(lines, ["dpp_gap"])
    return lines


def cmd_probe_regularity(run: Run):
    spec = run.spec
    box = _parse_box(run.args.box, list(spec.head_names))
    chain, axes, z0 = _lag_grid(run)
    single = [spec.head_names[i] for i in box if len(axes[i]) == 1]
    if single:  # a box axis needs grid nodes to probe between
        raise ValidationError(f"box axes {single} have one grid node; give them --grid nodes")
    result = _solve(run, chain, axes)

    def estimator(pts):
        # the boxed head columns move; every other coordinate stays at z0
        full = np.tile(z0, (pts.shape[0], 1))
        full[:, list(box)] = pts
        return result.value.interp(full)

    # the gradient stencil spans the boxed axes only
    spacing = 2.0 * max(float(np.min(np.diff(result.value.axes[i]))) for i in box)
    report = hjb.regularity_probe(spec, estimator, list(box.values()),
                                  samples=run.args.samples, gradient_spacing=spacing)
    band = report.alpha_band or (float("nan"), float("nan"))
    run.csv("regularity.csv", ["lipschitz", "alpha_hat", "alpha_lo", "alpha_hi", "flags"],
            [[report.lipschitz,
              report.alpha_hat if report.alpha_hat is not None else float("nan"),
              band[0], band[1], ";".join(report.flags) or "none"]])
    return [f"probe-regularity: lipschitz={report.lipschitz:.6g} "
            f"alpha={report.alpha_hat} flags={list(report.flags)}"]


def cmd_probe_bcontinuity(run: Run):
    a, spec, x = run.args, run.spec, run.x
    rng = np.random.default_rng(a.seed)
    nodes = spec.grid.nodes
    bumps = np.empty((a.pairs, spec.grid.m + 1))
    for bump in bumps:
        scale = 10 ** rng.uniform(-3.0, 0.0)
        freq = rng.integers(1, 5)
        bump[:] = scale * np.sin(math.pi * freq * (nodes + spec.d) / spec.d)
    # C-ordered, so each sample's weak norm is bitwise its one-sample batch's
    ys = LiftedBatch(spec.grid, np.tile(x.head, (a.pairs, 1)), x.tail + bumps[:, :, None])
    table = hjb.b_continuity_probe(spec, _control(spec), x, ys, a.T, a.dt, a.paths, a.seed)
    monotone, vanishing = hjb.envelope_is_monotone(table)
    run.csv("bcontinuity.csv", ["weak_distance", "difference", "stderr"],
            [[float(d), float(v), float(s)] for d, v, s in
             zip(table.distances, table.differences, table.stderrs)])
    run.svg("bcontinuity.svg", "diff", table.distances, table.differences,
            title="value difference vs weak distance", scatter=True)
    return [f"probe-bcontinuity: monotone={monotone} vanishing={vanishing} "
            f"pairs={a.pairs}"]


def cmd_merton_check(run: Run):
    a, spec = run.args, run.spec
    if not isinstance(spec.params, models.MertonParams):
        raise ValidationError("merton-check needs a portfolio problem file")
    v_oracle, u_oracle = spec.params.oracle()
    if spec.control_set.shape[0] < 2:  # the feedback check's tolerance is the control spacing
        raise ValidationError("merton-check needs at least 2 controls")
    chain, axes, z0 = _lag_grid(run)
    result = _solve(run, chain, axes)
    v_solver = -result.value.interp(z0)[0]  # cost sign flip back to utility
    policy = hjb.extract_feedback(chain, result.value)
    u_extract = float(policy.control_at(z0[None, :])[0][0])
    du = float(spec.control_set[1, 0] - spec.control_set[0, 0])
    mc_mean, mc_err = hjb.policy_mc_value(chain, result.policy, run.x, a.T,
                                          a.dt, a.paths, a.seed)
    _record_tail_bound(run)
    rows = [[check, observed, target, tol, int(abs(observed - target) <= tol)]
            for check, observed, target, tol in (
                ("value_iteration_vs_oracle", v_solver, v_oracle, 0.03 * abs(v_oracle)),
                ("feedback_vs_oracle", u_extract, u_oracle, du + 1e-12),
                ("closed_loop_vs_solver", -mc_mean, v_solver,
                 0.03 * abs(v_solver) + 2 * mc_err))]
    run.csv("merton_check.csv", ["check", "observed", "target", "tol", "pass"], rows)
    lines = [f"merton-check: {r[0]}: observed={r[1]:.6g} target={r[2]:.6g} "
             f"tol={r[3]:.3g} {'PASS' if r[-1] else 'FAIL'}" for r in rows]
    failed = [r[0] for r in rows if not r[-1]]
    if failed:
        raise CheckFailed(lines, failed)
    return lines


def cmd_advertising_demo(run: Run):
    a, spec = run.args, run.spec
    path = sdde.simulate_sdde(spec, run.x, _control(spec), a.T, a.dt, (a.seed, 1), keep=1)
    rows = [[float(t)] + [float(v) for v in y] for t, y in zip(path.times, path.states[0])]
    run.csv("path.csv", ["t"] + [f"y{i}" for i in range(spec.n)], rows)
    chain, axes, z0 = _lag_grid(run)
    result = _solve(run, chain, axes)
    _write_value_policy(run, chain, result)
    report = _write_dpp(run, chain, result, 2 * chain.delta)
    arr = np.asarray(rows)
    run.svg("path.svg", "goodwill", arr[:, 0], arr[:, 1], title="goodwill path")
    lines = [f"advertising-demo: V(x0)={result.value.interp(z0)[0]:.6g} "
             f"dpp_gap={report.gap:.4g}{'' if report.ok else ' FAIL'}"]
    if not report.ok:
        raise CheckFailed(lines, ["dpp_gap"])
    return lines


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
SVG = _flag("--svg", action="store_true", help="also render SVG plots")
SOLVE = [
    _flag("--mlag", type=int, default=1),
    _flag("--grid", default=""),
    _flag("--tol", type=float, default=1e-6),
    _flag("--max-iter", type=int, default=20000, dest="max_iter"),
    _flag("--gh", type=int, default=5),
]

COMMANDS = {
    "simulate": (cmd_simulate, [*_horizon(paths=100), CONTROL, SVG,
                                _flag("--emit-paths", type=int, default=20, dest="emit_paths")]),
    "operators": (cmd_operators, [_flag("--samples", type=int, default=1000), SVG]),
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
    "advertising-demo": (cmd_advertising_demo, [*SOLVE, *_horizon(5.0, 0.01, 2000), SVG]),
    "probe-bcontinuity": (cmd_probe_bcontinuity, [*_horizon(5.0, 0.01, 200), SVG,
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
        for names, kw in flags:
            s.add_argument(*names, **kw)
        s.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    resolved = {k: v for k, v in sorted(vars(args).items())
                if k not in ("command", "func") and v is not None}
    try:
        spec = models.load_spec_file(args.spec)
        run = Run(args, spec, models.initial_state(spec), Path(args.out))
        run.out.mkdir(parents=True, exist_ok=True)
        error, code, lines = None, 0, []
        # the manifest keeps the arguments and what the run wrote before it failed
        try:
            # a seed keys numpy's generators and a 64-bit Philox key
            if not 0 <= args.seed < 2 ** 64:
                raise ValidationError(f"--seed must be in [0, 2^64), got {args.seed}")
            lines = args.func(run)
        except NumericalError as exc:
            error, code = _err("numerical", exc), 2
            lines = exc.lines if isinstance(exc, CheckFailed) else []
        except (ValidationError, MemoryError) as exc:
            error, code = _err("validation", exc), 1
        output.write_manifest(run.out, args.spec, {**resolved, **run.extra},
                              run.artifacts, error)
    except (ValidationError, OSError, MemoryError) as exc:
        # a MemoryError is an array sized by the input (m, a grid, a path
        # count) beyond memory, refused like any other out-of-range input
        _err("validation", exc)
        return 1
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
