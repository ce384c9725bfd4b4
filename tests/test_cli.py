import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import delayopt
from delayopt.cli import main


SPECS = Path(__file__).resolve().parent.parent / "specs"
SPEC = str(SPECS / "advertising.json")


def run(argv):
    return main(argv)


def test_unknown_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["operators", "--spec", SPEC, "--nope"])
    assert exc.value.code == 1
    assert "usage" in capsys.readouterr().err


def test_missing_spec_file_exits_one(capsys):
    assert run(["operators", "--spec", "/no/such/file.json", "--out", "/tmp/x"]) == 1
    err = capsys.readouterr().err
    assert json.loads(err.splitlines()[-1])["error"] == "validation"


def test_invalid_model_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"model": "nope", "m": 4, "params": {}}')
    assert run(["operators", "--spec", str(bad), "--out", str(tmp_path / "o")]) == 1


def test_operators_artifacts(tmp_path, capsys):
    out = tmp_path / "ops"
    assert run(["operators", "--spec", str(SPECS / "affine.json"), "--out", str(out),
                "--samples", "100", "--svg"]) == 0
    for name in ("spectrum.csv", "forms_report.csv", "norm_audit.csv",
                 "tail_norms.csv", "trace_report.csv", "counterexample.csv",
                 "gates.csv", "run_manifest.json", "spectrum.svg"):
        assert (out / name).exists()
    spectrum = (out / "spectrum.csv").read_text().splitlines()
    assert spectrum[0] == "index,eigenvalue"
    assert len(spectrum) > 10
    # the counterexample rows keep the functional near one as the norm falls
    ce = [r.split(",") for r in (out / "counterexample.csv").read_text().splitlines()[1:]]
    norms = [float(r[1]) for r in ce]
    assert norms == sorted(norms, reverse=True)
    assert all(abs(float(r[2]) - 1.0) < 0.2 for r in ce)


def test_reproducible_csv_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["operators", "--spec", str(SPECS / "affine.json"), "--out",
                    str(out), "--samples", "64"]) == 0
    for name in ("spectrum.csv", "forms_report.csv", "norm_audit.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_simulate_and_value(tmp_path):
    out = tmp_path / "sim"
    assert run(["simulate", "--spec", SPEC, "--T", "1", "--dt", "0.01",
                "--paths", "16", "--out", str(out), "--control", "const:0.5"]) == 0
    rows = (out / "summary.csv").read_text().splitlines()
    assert rows[0] == "mean,stderr,T_trunc"
    assert (out / "paths.csv").exists()
    out2 = tmp_path / "val"
    assert run(["value", "--spec", SPEC, "--T", "1", "--dt", "0.01",
                "--paths", "16", "--out", str(out2)]) == 0


def test_simulate_paths_are_single_path_simulations(tmp_path, policy_file):
    # paths.csv is emitted from one batch; each path must equal its own
    # single-path simulation on the same stream
    from delayopt import models, sdde
    from delayopt.cli import _control

    out = tmp_path / "sim"
    assert run(["simulate", "--spec", SPEC, "--T", "0.5", "--dt", "0.05", "--paths", "6",
                "--emit-paths", "3", "--seed", "4", "--control", f"policy:{policy_file}",
                "--out", str(out)]) == 0
    rows = np.loadtxt(out / "paths.csv", delimiter=",", skiprows=1)
    spec = models.load_spec_file(SPEC)
    ctrl = _control(spec, f"policy:{policy_file}", 0.05)
    for i in range(3):
        path = sdde.simulate_sdde(spec, models.initial_state(spec), ctrl, 0.5, 0.05,
                                  sdde.BrownianDriver(4, i, 0.05, spec.q))
        mine = rows[rows[:, 0] == i]
        np.testing.assert_array_equal(mine[:, 1], path.step_times[:-1])
        np.testing.assert_array_equal(mine[:, 2:2 + spec.n], path.step_states[:-1])
        np.testing.assert_array_equal(mine[:, 2 + spec.n:], path.controls)
    assert len(rows) == 3 * 10


def test_solve_policy_roundtrip(tmp_path):
    out = tmp_path / "solve"
    assert run(["solve", "--spec", SPEC, "--mlag", "2", "--grid",
                "y:-1:2.5:17,y_lag1:-1:2.5:7,y_lag2:-1:2.5:7",
                "--tol", "1e-7", "--out", str(out)]) == 0
    assert (out / "value_policy.csv").exists()
    policy_file = out / "policy.json"
    assert policy_file.exists()
    out2 = tmp_path / "closed"
    assert run(["simulate", "--spec", SPEC, "--T", "1", "--dt", "0.05",
                "--paths", "8", "--out", str(out2),
                "--control", f"policy:{policy_file}"]) == 0


def test_solve_portfolio_head_grid(tmp_path):
    # the documented head-grid form: both head axes named, lags collapsed
    out = tmp_path / "mer"
    assert run(["solve", "--spec", str(SPECS / "merton_delay.json"), "--mlag", "1",
                "--grid", "s:0.5:2:9,z:0.5:2:9", "--tol", "1e-5",
                "--out", str(out)]) == 0
    header = (out / "value_policy.csv").read_text().splitlines()[0]
    assert header.startswith("s,z,s_lag1,z_lag1,value,control_index")


@pytest.fixture(scope="module")
def policy_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("policy")
    assert run(["solve", "--spec", SPEC, "--mlag", "1", "--grid",
                "y:-1:2.5:9,y_lag1:-1:2.5:5", "--out", str(out)]) == 0
    return out / "policy.json"


@pytest.fixture(scope="module")
def bad_policies(policy_file):
    """The advertising policy with one index dropped, with two-component controls,
    with decreasing axes, and with a NaN node on every axis."""
    doc = json.loads(policy_file.read_text())
    variants = {
        "short": {"indices": doc["indices"][:-1]},
        "wide": {"control_set": [[c[0], c[0]] for c in doc["control_set"]]},
        "reversed": {"axes": [ax[::-1] for ax in doc["axes"]]},
        "nan_axis": {"axes": [[float("nan")] + ax[1:] for ax in doc["axes"]]},
    }
    paths = {}
    for name, change in variants.items():
        paths[name] = policy_file.with_name(f"{name}.json")
        paths[name].write_text(json.dumps({**doc, **change}))
    return paths


SMALL = ["--grid", "y:-1:2.5:9,y_lag1:-1:2.5:5"]


@pytest.mark.parametrize("argv", [
    ["solve", "--spec", SPEC, "--grid", "y:a:1:5"],
    ["probe-regularity", "--spec", str(SPECS / "merton_nodelay.json"),
     "--grid", "z:log:0.005:100:281", "--box", "z:0.5"],
    ["simulate", "--spec", SPEC, "--T", "1", "--dt", "0.01", "--control", "const:abc"],
    ["simulate", "--spec", SPEC, "--T", "1", "--dt", "0.01", "--control", "const:0.1,0.2"],
    ["lift-check", "--spec", SPEC, "--T", "0.5", "--dt", "0.01", "--control", "policy:{}"],
    ["simulate", "--spec", SPEC, "--T", "1", "--dt", "0"],
    ["value", "--spec", SPEC, "--T", "1", "--dt", "0"],
    ["lift-check", "--spec", SPEC, "--T", "1", "--dt", "0"],
    ["lift-check", "--spec", SPEC, "--T", "0", "--dt", "0.01"],
    ["simulate", "--spec", SPEC, "--T", "1", "--dt", "nan"],
    ["simulate", "--spec", SPEC, "--T", "inf", "--dt", "0.01"],
    ["simulate", "--spec", SPEC, "--T", "nan", "--dt", "0.01"],
    ["value", "--spec", SPEC, "--T", "-1", "--dt", "0.01"],
    ["simulate", "--spec", SPEC, "--T", "1", "--dt", "0", "--control", "policy:{}"],
    ["simulate", "--spec", str(SPECS / "merton_nodelay.json"), "--T", "1", "--dt", "0.01",
     "--control", "policy:{}"],
    ["simulate", "--spec", SPEC, "--T", "1", "--dt", "0.01", "--control", "policy:{short}"],
    ["simulate", "--spec", SPEC, "--T", "1", "--dt", "0.01", "--control", "policy:{wide}"],
    ["solve", "--spec", SPEC, "--grid", "y:-1:2:0"],
    ["simulate", "--spec", SPEC, "--T", "1", "--dt", "0.01", "--control", "policy:{reversed}"],
    ["simulate", "--spec", SPEC, "--T", "1", "--dt", "0.01", "--control", "policy:{nan_axis}"],
    ["operators", "--spec", str(SPECS / "affine.json"), "--samples", "0"],
    ["solve", "--spec", SPEC, "--grid", "y:nan:2.5:9,y_lag1:-1:2.5:5", "--max-iter", "50"],
    ["solve", "--spec", SPEC, *SMALL, "--gh", "0"],
    ["solve", "--spec", SPEC, *SMALL, "--max-iter", "0"],
    ["solve", "--spec", SPEC, *SMALL, "--tol", "-1", "--max-iter", "50"],
    ["solve", "--spec", SPEC, *SMALL, "--tol", "nan", "--max-iter", "50"],
    ["probe-regularity", "--spec", str(SPECS / "merton_nodelay.json"),
     "--grid", "z:log:0.005:100:41", "--tol", "1e-5", "--box", "z:0.5:2", "--samples", "1"],
    ["residual", "--spec", SPEC, *SMALL, "--samples", "0"],
    ["probe-bcontinuity", "--spec", SPEC, "--pairs", "0"],
    ["probe-bcontinuity", "--spec", SPEC, "--pairs", "1"],
    ["probe-bcontinuity", "--spec", SPEC, "--paths", "1", "--pairs", "3"],
    ["dpp", "--spec", SPEC, *SMALL, "--paths", "1"],
    ["dpp", "--spec", SPEC, *SMALL, "--paths", "0"],
    ["dpp", "--spec", SPEC, *SMALL, "--tau-steps", "0"],
    ["merton-check", "--spec", SPEC],
    ["merton-check", "--spec", str(SPECS / "merton_delay.json")],
], ids=["grid-number", "box-token", "const-number", "const-length", "lift-policy",
        "simulate-dt-zero", "value-dt-zero", "lift-dt-zero", "lift-T-zero", "dt-nan",
        "T-inf", "T-nan", "T-negative", "policy-dt-zero", "policy-other-problem",
        "policy-short-indices", "policy-control-width", "grid-zero-nodes",
        "policy-reversed-axes", "policy-nan-axis", "operators-samples-zero", "grid-nan", "gh-zero",
        "max-iter-zero", "tol-negative", "tol-nan", "regularity-samples-one",
        "residual-samples-zero", "bcontinuity-pairs-zero", "bcontinuity-pairs-one", "bcontinuity-paths-one",
        "dpp-paths-one", "dpp-paths-zero", "dpp-tau-zero", "merton-check-advertising",
        "merton-check-sloped-coefficients"])
def test_malformed_input_exits_one(argv, policy_file, bad_policies, tmp_path, capsys):
    argv = ([a.format(policy_file, **bad_policies) for a in argv]
            + ["--out", str(tmp_path / "o")])
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert json.loads(err.splitlines()[-1])["error"] == "validation"


def test_count_flag_refusal_names_the_flag_as_typed(tmp_path, capsys):
    assert run(["dpp", "--spec", SPEC, *SMALL, "--tau-steps", "0",
                "--out", str(tmp_path / "o")]) == 1
    message = json.loads(capsys.readouterr().err.splitlines()[-1])["message"]
    assert message.startswith("--tau-steps must be at least 1")


def test_solve_reports_value_error_bound(tmp_path, capsys):
    # stdout, manifest and convergence.csv carry the a-posteriori bound of
    # every improvement sweep; the last one is within --tol
    from delayopt import hjb, models

    spec = str(SPECS / "merton_nodelay.json")
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert run(["solve", "--spec", spec, "--grid", "z:log:0.005:100:281", "--tol", "1e-7",
                    "--out", str(out)]) == 0
    line = capsys.readouterr().out.splitlines()[-1]
    resolved = json.loads((outs[0] / "run_manifest.json").read_text())["resolved"]
    assert f"bound={resolved['value_error_bound']:.3g} " in line
    assert resolved["evaluation_sweeps"] == (resolved["iterations"] - 1) * hjb.EVAL_SWEEPS
    text = (outs[0] / "convergence.csv").read_text()
    assert text == (outs[1] / "convergence.csv").read_text()
    rows = np.loadtxt(outs[0] / "convergence.csv", delimiter=",", skiprows=1, ndmin=2)
    assert text.splitlines()[0] == "sweep,residual,bound"
    np.testing.assert_array_equal(rows[:, 0], np.arange(1, resolved["iterations"] + 1))
    gamma = hjb.reduce_to_lag_chain(models.load_spec_file(spec), 1).step_discount
    np.testing.assert_allclose(rows[:, 2], gamma / (1 - gamma) * rows[:, 1], rtol=1e-12)
    assert rows[-1, 1:].tolist() == [resolved["residual"], resolved["value_error_bound"]]
    assert 0 < resolved["value_error_bound"] <= 1e-7 < rows[-2, 2]


def test_import_and_solve_load_no_scipy(tmp_path):
    # scipy is not a dependency; importing it would add to the start-up time
    # and the peak memory of every run
    code = ("import sys\n"
            "from delayopt.cli import main\n"
            f"assert main(['solve', '--spec', {SPEC!r}, *{SMALL!r}, "
            f"'--out', {str(tmp_path / 's')!r}]) == 0\n"
            "print('scipy' in sys.modules)\n")
    src = str(Path(delayopt.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


def test_no_function_imports():
    # every module dependency is stated at the top of its module, so the
    # import graph has no cycle hidden inside a function body
    found = []
    for path in sorted(Path(delayopt.__file__).resolve().parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{node.lineno} in {fn.name}" for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not found, found


def test_solve_grid_validation(tmp_path):
    assert run(["solve", "--spec", SPEC, "--mlag", "1", "--grid", "bogus:0:1:5",
                "--out", str(tmp_path / "x")]) == 1
    assert run(["solve", "--spec", SPEC, "--mlag", "1", "--grid", "y:0:1",
                "--out", str(tmp_path / "y")]) == 1


def test_lift_check(tmp_path):
    out = tmp_path / "lift"
    assert run(["lift-check", "--spec", SPEC, "--T", "0.5", "--dt", "0.002",
                "--out", str(out)]) == 0
    rows = (out / "lift_report.csv").read_text().splitlines()
    assert rows[0].startswith("delta,m,head_mismatch")
    assert len(rows) == 3


def test_dpp_subcommand(tmp_path):
    out = tmp_path / "dpp"
    assert run(["dpp", "--spec", SPEC, "--mlag", "2", "--grid",
                "y:-1:2.5:17,y_lag1:-1:2.5:7,y_lag2:-1:2.5:7",
                "--tau-steps", "2", "--paths", "2000", "--out", str(out)]) == 0
    row = (out / "dpp.csv").read_text().splitlines()[1].split(",")
    assert row[-1] == "1"


def test_residual_subcommand(tmp_path):
    out = tmp_path / "res"
    assert run(["residual", "--spec", SPEC, "--mlag", "1", "--grid",
                "y:-1:2.5:17,y_lag1:-1:2.5:7", "--samples", "10",
                "--out", str(out)]) == 0
    assert (out / "residual.csv").exists()


def test_probe_regularity_subcommand(tmp_path):
    out = tmp_path / "reg"
    assert run(["probe-regularity", "--spec", str(SPECS / "merton_nodelay.json"),
                "--mlag", "1", "--grid", "z:log:0.005:100:281", "--tol", "1e-7",
                "--box", "z:0.5:2.0", "--out", str(out)]) == 0
    header = (out / "regularity.csv").read_text().splitlines()[0]
    assert header == "lipschitz,alpha_hat,alpha_lo,alpha_hi,flags"


def test_probe_bcontinuity_subcommand(tmp_path):
    out = tmp_path / "bc"
    assert run(["probe-bcontinuity", "--spec", SPEC, "--T", "2", "--dt", "0.02",
                "--paths", "48", "--pairs", "10", "--out", str(out)]) == 0
    rows = (out / "bcontinuity.csv").read_text().splitlines()
    assert rows[0] == "weak_distance,difference,stderr"
    assert len(rows) == 11


def test_dpp_manifest_records_solver_convergence(tmp_path, capsys):
    # a subcommand that tests a solved value records how far that value is
    # from the discrete fixed point
    out = tmp_path / "dpp"
    assert run(["dpp", "--spec", SPEC, *SMALL, "--paths", "200", "--out", str(out)]) == 0
    resolved = json.loads((out / "run_manifest.json").read_text())["resolved"]
    assert resolved["iterations"] >= 1 and resolved["evaluation_sweeps"] >= 0
    assert 0 <= resolved["value_error_bound"] <= resolved["tol"]
    assert resolved["residual"] >= 0 and 0 <= resolved["clamp_rate"] <= 1
    assert "growth_fit" not in resolved


def test_operators_mode_counts_do_not_depend_on_the_eigenbasis(tmp_path, monkeypatch):
    # at n = 2 every Gram eigenvalue is double; a basis rotated inside each
    # eigenspace must leave the tail norms and noise traces unchanged
    import dataclasses

    from delayopt import operators

    spec = tmp_path / "affine_n2.json"
    spec.write_text(json.dumps({"model": "affine_test", "m": 20, "params": {
        "n": 2, "q": 2, "drift_const": [0.0, 0.0],
        "drift_state": [[-0.5, 0.0], [0.0, -0.5]], "drift_delay": [[0.3], [0.3]],
        "drift_control": [[0.5], [0.5]], "noise_const": [[0.4, 0.1], [0.0, 0.2]],
        "x0": [1.0, 1.0], "x1": [1.0, 1.0]}}))
    decompose = operators.spectral_decomposition

    def rotated(op):
        dec = decompose(op)
        angle = np.random.default_rng(0).uniform(0.0, 2 * np.pi, dec.dim // 2)
        c, s = np.cos(angle), np.sin(angle)
        a, b = dec.vectors[:, 0::2], dec.vectors[:, 1::2]
        vectors = np.empty_like(dec.vectors)
        vectors[:, 0::2], vectors[:, 1::2] = c * a + s * b, c * b - s * a
        return dataclasses.replace(dec, vectors=vectors)

    tables = []
    for name, decomposition in (("a", decompose), ("b", rotated)):
        monkeypatch.setattr(operators, "spectral_decomposition", decomposition)
        out = tmp_path / name
        assert run(["operators", "--spec", str(spec), "--samples", "4", "--out", str(out)]) == 0
        tables.append([np.loadtxt(out / f, delimiter=",", skiprows=1)
                       for f in ("tail_norms.csv", "trace_report.csv")])
    (norms, traces), (norms_rot, traces_rot) = tables
    assert traces[:, 0].tolist() == [2, 10, 22, 42] == traces_rot[:, 0].tolist()
    np.testing.assert_allclose(norms_rot, norms, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(traces_rot, traces, rtol=1e-9, atol=1e-12)


def test_manifest_records_spec_digest(tmp_path):
    out = tmp_path / "m"
    assert run(["operators", "--spec", str(SPECS / "affine.json"), "--out", str(out),
                "--samples", "32"]) == 0
    doc = json.loads((out / "run_manifest.json").read_text())
    assert doc["spec_digest"] and doc["version"] == delayopt.__version__
    assert any(a.endswith("spectrum.csv") for a in doc["artifacts"])
