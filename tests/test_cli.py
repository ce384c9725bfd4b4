import ast
import hashlib
import importlib
import inspect
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import delayopt
from delayopt.cli import COMMANDS, build_parser, main


SPECS = Path(__file__).resolve().parent.parent / "specs"
SPEC = str(SPECS / "advertising.json")


def run(argv):
    return main(argv)


def test_readme_commands_parse():
    # every line of README's command block parses (none is run), and the
    # block shows every subcommand, so a renamed flag cannot leave it stale
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("delayopt ")]
    parser = build_parser()
    commands = [parser.parse_args(shlex.split(line)[1:]).command for line in lines]
    assert sorted(commands) == sorted(COMMANDS)


def test_readme_library_names_resolve():
    # every backticked module.name[.attr] of the package (with or without
    # delayopt.) and every `from delayopt.<module> import <name>` in README
    # names something that exists, so a deleted or renamed name cannot stay
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    modules = "|".join(p.stem for p in Path(delayopt.__file__).parent.glob("*.py")
                       if p.stem != "__init__")
    named = re.findall(rf"`(?:delayopt\.)?((?:{modules})(?:\.\w+)+)`", readme)
    named += [f"{mod}.{name}"
              for mod, name in re.findall(r"from delayopt\.(\w+) import (\w+)", readme)]
    assert len(named) >= 20
    for dotted in named:
        mod, *attrs = dotted.split(".")
        obj = importlib.import_module(f"delayopt.{mod}")
        for attr in attrs:
            assert hasattr(obj, attr), f"README names {dotted}, which does not resolve"
            obj = getattr(obj, attr)


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


@pytest.mark.parametrize("spec_file", ["affine.json", "merton_delay.json"])
def test_counterexample_weak_norms_are_the_per_cell_norms(spec_file, tmp_path):
    # operators takes the rows' weak norms in one batch; each is bitwise the
    # weak norm of its indicator tail alone, a batch of one
    from delayopt import models, operators
    from delayopt.core import LiftedBatch
    out = tmp_path / "ops"
    assert run(["operators", "--spec", str(SPECS / spec_file), "--samples", "2",
                "--out", str(out)]) == 0
    rows = np.loadtxt(out / "counterexample.csv", delimiter=",", skiprows=1, ndmin=2)
    spec = models.load_spec_file(SPECS / spec_file)
    g, n = spec.grid, spec.n
    assert rows.shape[0] == 3
    for cells, weak in rows[:, :2]:
        width = int(cells) * g.h
        vals = np.where(g.nodes <= -g.d + width + 1e-12, 1.0 / width, 0.0)[:, None] \
            * np.ones((1, n))
        assert weak == operators.minus_one_norm(LiftedBatch(g, np.zeros((1, n)), vals[None]))[0]


def test_operators_on_a_problem_without_growth(tmp_path):
    # every coefficient of the affine problem is zero, so its growth
    # constant is 0: every growth exponent is admissible, the limit as c -> 0+
    doc = json.loads((SPECS / "affine.json").read_text())
    doc["params"].update(drift_state=[[0.0]], drift_delay=[[0.0]], drift_control=[[0.0]],
                         noise_const=[[0.0]])
    spec, out = tmp_path / "still.json", tmp_path / "ops"
    spec.write_text(json.dumps(doc))
    assert run(["operators", "--spec", str(spec), "--out", str(out), "--samples", "16"]) == 0
    gates = (out / "gates.csv").read_text().splitlines()
    assert "max_growth_exponent,inf" in gates and "growth_case_quadratic,1" in gates


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
                "--paths", "16", "--out", str(out), "--control", "const:0.5", "--svg"]) == 0
    rows = (out / "summary.csv").read_text().splitlines()
    assert rows[0] == "mean,stderr,T_trunc"
    assert (out / "paths.csv").exists()
    assert (out / "paths.svg").read_text().count("<polyline ") == 1
    out2 = tmp_path / "val"
    assert run(["value", "--spec", SPEC, "--T", "1", "--dt", "0.01",
                "--paths", "16", "--out", str(out2)]) == 0
    # the portfolio's discount does not clear its floor, so no horizon
    # truncates its cost to a tolerance
    out3 = tmp_path / "merton"
    assert run(["simulate", "--spec", str(SPECS / "merton_nodelay.json"), "--T", "1",
                "--dt", "0.01", "--paths", "4", "--out", str(out3)]) == 0
    assert (out3 / "summary.csv").read_text().splitlines()[1].endswith(",nan")


def test_zero_horizon_value_and_simulate_exit_zero(tmp_path, capsys):
    # T = 0 takes no step: zero cost, a header-only paths.csv, exit 0
    assert run(["value", "--spec", SPEC, "--T", "0", "--dt", "0.01", "--paths", "4",
                "--out", str(tmp_path / "val")]) == 0
    assert "value: mean=0 stderr=0" in capsys.readouterr().out
    out = tmp_path / "sim"
    assert run(["simulate", "--spec", SPEC, "--T", "0", "--dt", "0.01", "--paths", "4",
                "--emit-paths", "2", "--out", str(out)]) == 0
    assert "simulate: mean=0 stderr=0 paths=4" in capsys.readouterr().out
    assert (out / "paths.csv").read_text() == "path,t,y0,u0\n"


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
        dw = sdde.batch_increments(4, [i], 0.05, spec.q, 10)
        path = sdde.simulate_sdde(spec, models.initial_state(spec), ctrl, 0.5, 0.05, dw, keep=1)
        mine = rows[rows[:, 0] == i]
        steps = slice(-11, -1)  # the step times 0 .. T - dt
        np.testing.assert_array_equal(mine[:, 1], path.times[steps])
        np.testing.assert_array_equal(mine[:, 2:2 + spec.n], path.states[0, steps])
        np.testing.assert_array_equal(mine[:, 2 + spec.n:], path.controls[0])
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
    with decreasing axes, with a NaN node on every axis, with a text or
    fractional m_lag, with text, overflowing or fractional indices, with an
    index past its control set, with NaN controls, wrapped in a list, without
    axes, and cut short of its closing brace."""
    doc = json.loads(policy_file.read_text())
    variants = {
        "short": {"indices": doc["indices"][:-1]},
        "wide": {"control_set": [[c[0], c[0]] for c in doc["control_set"]]},
        "reversed": {"axes": [ax[::-1] for ax in doc["axes"]]},
        "nan_axis": {"axes": [[float("nan")] + ax[1:] for ax in doc["axes"]]},
        "m_lag_text": {"m_lag": "abc"},
        "m_lag_fraction": {"m_lag": 1.7},
        "indices_text": {"indices": [str(i) for i in doc["indices"]]},
        "indices_overflow": {"indices": [1e30] * len(doc["indices"])},
        "indices_fraction": {"indices": [0.7] * len(doc["indices"])},
        "index_outside": {"indices": [len(doc["control_set"])] * len(doc["indices"])},
        "nan_controls": {"control_set": [[float("nan")] for _ in doc["control_set"]]},
    }
    paths = {}
    for name, change in variants.items():
        paths[name] = policy_file.with_name(f"{name}.json")
        paths[name].write_text(json.dumps({**doc, **change}))
    paths["policy_list"] = policy_file.with_name("policy_list.json")
    paths["policy_list"].write_text(json.dumps([doc]))
    paths["no_axes"] = policy_file.with_name("no_axes.json")
    paths["no_axes"].write_text(json.dumps({k: v for k, v in doc.items() if k != "axes"}))
    paths["policy_syntax"] = policy_file.with_name("policy_syntax.json")
    paths["policy_syntax"].write_text(json.dumps(doc)[:-1])
    return paths


@pytest.fixture(scope="module")
def bad_specs(tmp_path_factory):
    """merton_nodelay.json with an unknown parameter, a text, fractional,
    boolean or quoted resolution, a text utility exponent, an infinite delay
    horizon, a NaN utility floor and one that overflows (1e999), a single
    control, an unknown kernel preset, a kernel embed of the wrong shape,
    a kernel table of shape (m+1, n), wrapped in a list, cut short of its
    closing brace, and not UTF-8 text; affine.json with a control interval
    whose arithmetic overflows; and advertising.json with a resolution of
    10**15, whose grid (7.11 PiB) is far beyond a 47-bit user address space
    (128 TiB), so its allocation fails at once."""
    doc = json.loads((SPECS / "merton_nodelay.json").read_text())
    variants = {
        "unknown_param": {**doc, "params": {**doc["params"], "alpha": 1.0}},
        "m_text": {**doc, "m": "abc"},
        "m_fraction": {**doc, "m": 20.7},
        "m_bool": {**doc, "m": True},
        "m_quoted": {**doc, "m": "20"},
        "gamma_text": {**doc, "params": {**doc["params"], "gamma": "x"}},
        "top_list": [doc],
        "d_infinite": {**doc, "params": {**doc["params"], "d": float("inf")}},
        "z_floor_nan": {**doc, "params": {**doc["params"], "z_floor": float("nan")}},
        "z_floor_overflow": {**doc, "params": {**doc["params"], "z_floor": float("inf")}},
        "one_control": {**doc, "params": {**doc["params"], "n_controls": 1}},
        "kernel_unknown": {**doc, "params": {**doc["params"],
                                             "kernel_drift": {"preset": "nope"}}},
        "embed_shape": {**doc, "params": {**doc["params"],
                                          "kernel_drift": {"preset": "zero",
                                                           "embed": [[1.0]]}}},
        "kernel_table_2d": {**doc, "params": {**doc["params"],
                                              "kernel_drift": {"table": [[0.0, 0.0]] * 5}}},
    }
    affine = json.loads((SPECS / "affine.json").read_text())
    variants["control_overflow"] = {**affine, "params": {
        **affine["params"], "control_lo": -1e308, "control_hi": 1e308}}
    variants["m_huge"] = {**json.loads((SPECS / "advertising.json").read_text()), "m": 10**15}
    root = tmp_path_factory.mktemp("bad_specs")
    paths = {}
    for name, variant in variants.items():
        paths[name] = root / f"{name}.json"
        text = json.dumps(variant)  # writes inf as Infinity, spelled here as a number
        paths[name].write_text(text.replace("Infinity", "1e999") if "overflow" in name else text)
    paths["spec_syntax"] = root / "spec_syntax.json"
    paths["spec_syntax"].write_text(json.dumps(doc)[:-1])
    paths["spec_not_utf8"] = root / "spec_not_utf8.json"
    paths["spec_not_utf8"].write_bytes(b"\xff" + json.dumps(doc).encode())
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
    ["solve", "--spec", str(SPECS / "merton_nodelay.json"),
     "--grid", "z:log:0.005:100:41,z:1:2:3"],
    ["probe-regularity", "--spec", str(SPECS / "merton_nodelay.json"),
     "--grid", "z:log:0.005:100:41", "--box", "z:0.5:2,z:0.6:1"],
    ["operators", "--spec", "{unknown_param}"],
    ["operators", "--spec", "{m_text}"],
    ["operators", "--spec", "{gamma_text}"],
    ["operators", "--spec", "{top_list}"],
    ["operators", "--spec", "{m_fraction}"],
    ["operators", "--spec", "{m_bool}"],
    ["operators", "--spec", "{m_quoted}"],
    ["operators", "--spec", "{d_infinite}"],
    ["probe-regularity", "--spec", str(SPECS / "merton_nodelay.json"),
     "--grid", "z:log:0.005:100:41", "--box", "z:1:1"],
    ["probe-regularity", "--spec", str(SPECS / "merton_nodelay.json"),
     "--grid", "z:log:0.005:100:41", "--box", "z:2:0.5"],
    ["probe-regularity", "--spec", str(SPECS / "merton_nodelay.json"),
     "--grid", "z:log:0.005:100:41", "--box", "z:0.5:inf"],
    ["solve", "--spec", str(SPECS / "merton_nodelay.json"), "--grid", "z:log:-1:2:5"],
    ["solve", "--spec", str(SPECS / "merton_nodelay.json"), "--grid", "z:log:0:2:5"],
    ["solve", "--spec", SPEC, "--grid", "y:0:inf:5"],
    ["solve", "--spec", SPEC, "--grid", "y:-1e308:1e308:5"],
    ["probe-bcontinuity", "--spec", SPEC, "--T", "0"],
    ["simulate", "--spec", SPEC, "--T", "1", "--dt", "0.01", "--paths", "10",
     "--emit-paths", "-1"],
    ["simulate", "--spec", SPEC, "--T", "1", "--dt", "0.01", "--paths", "0"],
    ["simulate", "--spec", SPEC, "--T", "1", "--dt", "0.01", "--paths", "-3"],
    ["value", "--spec", SPEC, "--T", "1", "--dt", "0.01", "--paths", "1"],
    ["simulate", "--spec", "{z_floor_nan}", "--T", "1", "--dt", "0.01", "--paths", "10"],
    ["simulate", "--spec", "{z_floor_overflow}", "--T", "1", "--dt", "0.01", "--paths", "10"],
    ["residual", "--spec", SPEC, "--grid", "y:-1:2.5:2,y_lag1:-1:2.5:3"],
    *[["simulate", "--spec", SPEC, "--T", "0.1", "--dt", "0.01", "--paths", "4",
       "--control", f"policy:{{{name}}}"]
      for name in ("m_lag_text", "policy_list", "indices_text", "indices_overflow",
                   "m_lag_fraction", "indices_fraction", "nan_controls")],
    ["simulate", "--spec", str(SPECS), "--T", "1", "--dt", "0.01"],
    ["simulate", "--spec", SPEC, "--T", "1", "--dt", "0.01", "--out", SPEC],
    ["probe-regularity", "--spec", str(SPECS / "merton_nodelay.json"), "--box", "z:0.5:2"],
    ["solve", "--spec", SPEC, "--grid", "y:lin:-1:2.5:9"],
    ["merton-check", "--spec", "{one_control}", "--grid", "z:log:0.005:100:41"],
    ["simulate", "--spec", SPEC, "--T", "1", "--dt", "0.01", "--control", "bang:1"],
    ["probe-regularity", "--spec", str(SPECS / "merton_nodelay.json"),
     "--grid", "z:log:0.005:100:41", "--box", "z_lag1:0.5:2"],
    ["simulate", "--spec", SPEC, "--T", "0.1", "--dt", "0.01", "--control", "policy:{no_axes}"],
    ["simulate", "--spec", SPEC, "--T", "0.1", "--dt", "0.01",
     "--control", "policy:{policy_syntax}"],
    ["operators", "--spec", "{spec_syntax}"],
    ["operators", "--spec", "{spec_not_utf8}"],
    ["operators", "--spec", "{control_overflow}"],
    ["operators", "--spec", "{kernel_unknown}"],
    ["operators", "--spec", "{embed_shape}"],
    ["solve", "--spec", SPEC, "--mlag", "0", "--grid", "y:-1:2.5:9"],
    ["simulate", "--spec", SPEC, "--T", "0.1", "--dt", "0.01",
     "--control", "policy:{index_outside}"],
    ["operators", "--spec", "{kernel_table_2d}"],
    ["operators", "--spec", "{m_huge}"],
    ["probe-regularity", "--spec", str(SPECS / "merton_nodelay.json"), "--mlag", "1",
     "--grid", "z:log:0.005:100:41", "--box", "z:0.5:0.501"],
    ["operators", "--spec", str(SPECS / "affine.json"), "--samples", "5", "--seed", "-1"],
    ["simulate", "--spec", SPEC, "--T", "0.1", "--dt", "0.01", "--paths", "5",
     "--seed", "18446744073709551616"],
], ids=["grid-number", "box-token", "const-number", "const-length", "lift-policy",
        "simulate-dt-zero", "value-dt-zero", "lift-dt-zero", "lift-T-zero", "dt-nan",
        "T-inf", "T-nan", "T-negative", "policy-dt-zero", "policy-other-problem",
        "policy-short-indices", "policy-control-width", "grid-zero-nodes",
        "policy-reversed-axes", "policy-nan-axis", "operators-samples-zero", "grid-nan", "gh-zero",
        "max-iter-zero", "tol-negative", "tol-nan", "regularity-samples-one",
        "residual-samples-zero", "bcontinuity-pairs-zero", "bcontinuity-pairs-one", "bcontinuity-paths-one",
        "dpp-paths-one", "dpp-paths-zero", "dpp-tau-zero", "merton-check-advertising",
        "merton-check-sloped-coefficients", "grid-repeated-axis", "box-repeated-axis",
        "spec-unknown-param", "spec-m-text", "spec-gamma-text", "spec-top-level-list",
        "spec-m-fraction", "spec-m-bool", "spec-m-quoted", "spec-d-infinite",
        "box-empty-range", "box-reversed-range", "box-infinite", "grid-log-negative", "grid-log-zero",
        "grid-infinite", "grid-width-overflow", "bcontinuity-T-zero", "simulate-emit-negative",
        "simulate-paths-zero", "simulate-paths-negative", "value-paths-one", "spec-nan-number",
        "spec-overflowing-number", "residual-two-node-axis", "policy-m-lag-text",
        "policy-top-level-list", "policy-indices-text", "policy-indices-overflow",
        "policy-m-lag-fraction", "policy-indices-fraction", "policy-nan-controls",
        "spec-directory", "out-existing-file", "regularity-one-node-box-axis", "grid-lin-tag",
        "merton-check-one-control", "control-unknown-form", "box-lag-axis",
        "policy-no-axes", "policy-json-syntax", "spec-json-syntax", "spec-not-utf8",
        "spec-control-overflow", "spec-kernel-unknown", "spec-embed-shape", "mlag-zero",
        "policy-index-outside", "spec-kernel-table-2d", "spec-m-beyond-memory",
        "box-narrower-than-stencil", "seed-negative", "seed-beyond-64-bits"])
def test_malformed_input_exits_one(argv, policy_file, bad_policies, bad_specs, tmp_path,
                                   capsys, request):
    # the default --out goes first, so a row's own --out is the one parsed
    argv = [argv[0], "--out", str(tmp_path / "o"),
            *(a.format(policy_file, **bad_policies, **bad_specs) for a in argv[1:])]
    assert run(argv) == 1
    record = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert record["error"] == "validation"
    # a refused file is named, and so is the field it lacks; a row aimed at
    # one check gets that check's message
    for word in NAMED_IN_REFUSAL.get(request.node.callspec.id, ()):
        assert word.format(**bad_policies, **bad_specs) in record["message"]


NAMED_IN_REFUSAL = {"policy-no-axes": ("{no_axes}", "'axes'"),
                    "policy-json-syntax": ("{policy_syntax}",),
                    "spec-json-syntax": ("{spec_syntax}",),
                    "spec-not-utf8": ("{spec_not_utf8}",),
                    "spec-control-overflow": ("OverflowError",),
                    "spec-kernel-unknown": ("unknown kernel preset 'nope'",),
                    "spec-embed-shape": ("kernel embed must be (h, 2)",),
                    "mlag-zero": ("lag count must be >= 1",),
                    "policy-index-outside": ("policy indices outside the control set",),
                    "spec-kernel-table-2d": ("kernel table must have shape (m+1, h, n)",),
                    "box-narrower-than-stencil": ("no wider than two gradient spacings",),
                    "seed-negative": ("--seed must be in [0, 2^64)",),
                    "seed-beyond-64-bits": ("--seed must be in [0, 2^64)",),
                    "merton-check-advertising": ("merton-check needs a portfolio problem file",),
                    "merton-check-sloped-coefficients": (
                        "merton-check compares against the constant-coefficient closed form; "
                        "use const mu and nu presets with zero kernels",),
                    "merton-check-one-control": ("merton-check needs at least 2 controls",)}


@pytest.mark.parametrize("argv", [
    ["solve", "--spec", SPEC, "--svg"],
    ["value", "--spec", SPEC, "--T", "1", "--dt", "0.01", "--svg"],
], ids=["solve", "value"])
def test_svg_on_a_subcommand_that_draws_nothing_exits_one(argv, capsys):
    # --svg is a flag of simulate, operators, probe-bcontinuity and
    # advertising-demo only
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 1
    assert "--svg" in capsys.readouterr().err


def test_numerical_failure_keeps_its_manifest(tmp_path, capsys):
    # a run that exits 2 still writes run_manifest.json: its arguments, what
    # it wrote before the failure, and the error record it printed
    out = tmp_path / "o"
    assert run(["solve", "--spec", SPEC, *SMALL, "--tol", "1e-12", "--max-iter", "2",
                "--out", str(out)]) == 2
    record = json.loads(capsys.readouterr().err.splitlines()[-1])
    doc = json.loads((out / "run_manifest.json").read_text())
    assert doc["error"] == record and record["error"] == "numerical"
    assert doc["artifacts"] == [] and sorted(p.name for p in out.iterdir()) == [
        "run_manifest.json"]
    assert doc["resolved"]["max_iter"] == 2 and doc["resolved"]["tol"] == 1e-12
    # a run that succeeds records no error key
    assert run(["solve", "--spec", SPEC, *SMALL, "--out", str(out)]) == 0
    assert "error" not in json.loads((out / "run_manifest.json").read_text())


@pytest.mark.parametrize("samples", ["0", "1000000000000000"],
                         ids=["samples-zero", "samples-beyond-memory"])
def test_refused_input_inside_a_handler_keeps_its_manifest(samples, tmp_path, capsys):
    # operators refuses its sample count after writing spectrum.csv: zero by
    # its count check, 10**15 by the MemoryError of its 42.6 PiB coefficient
    # array, which fails at once; both exit 1 and keep the manifest, with
    # the validation record it printed
    out = tmp_path / "o"
    assert run(["operators", "--spec", str(SPECS / "affine.json"), "--samples", samples,
                "--out", str(out)]) == 1
    captured = capsys.readouterr()
    record = json.loads(captured.err.splitlines()[-1])
    doc = json.loads((out / "run_manifest.json").read_text())
    assert doc["error"] == record and record["error"] == "validation"
    assert doc["artifacts"] == [str(out / "spectrum.csv")]
    assert captured.out == ""


def test_simulate_takes_a_huge_initial_norm_without_overflow(tmp_path, capsys):
    # |x0| of the portfolio head (s, z) with z0 = 1e308 is finite, though its
    # square is not; tier-1 turns an overflow warning into an error
    doc = json.loads((SPECS / "merton_nodelay.json").read_text())
    doc["params"]["z0"] = 1e308
    spec = tmp_path / "huge.json"
    spec.write_text(json.dumps(doc))
    assert run(["simulate", "--spec", str(spec), "--T", "0.1", "--dt", "0.01", "--paths", "10",
                "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("spec, argv, failed", [
    ("merton_nodelay.json",
     ["merton-check", "--grid", "z:log:0.5:2:3", "--T", "1", "--paths", "50"],
     ["value_iteration_vs_oracle", "closed_loop_vs_solver"]),
    ("merton_nodelay.json",
     ["dpp", "--grid", "z:log:0.005:100:5", "--tau-steps", "20", "--paths", "200"],
     ["dpp_gap"]),
    ("advertising.json",
     ["advertising-demo", "--grid", "y:-1:0.5:3", "--T", "1", "--paths", "200"],
     ["dpp_gap"]),
], ids=["merton-check", "dpp", "advertising-demo"])
def test_a_failed_check_exits_two_with_its_record(spec, argv, failed, tmp_path, capsys):
    # on grids this coarse the checks fail: stdout keeps the check lines,
    # and the numerical record naming the failed checks is on stderr and in
    # the manifest
    out = tmp_path / "o"
    assert run([argv[0], "--spec", str(SPECS / spec), *argv[1:], "--out", str(out)]) == 2
    captured = capsys.readouterr()
    record = json.loads(captured.err.splitlines()[-1])
    assert record == {"error": "numerical", "message": f"failed checks: {', '.join(failed)}"}
    assert json.loads((out / "run_manifest.json").read_text())["error"] == record
    lines = captured.out.splitlines()
    assert len(lines) == (3 if argv[0] == "merton-check" else 1)
    assert all(line.startswith(f"{argv[0]}: ") for line in lines)
    assert sum(line.endswith(("FAIL", "pass=False")) for line in lines) == len(failed)


def test_non_convergence_exits_two_with_a_numerical_record(tmp_path, capsys):
    # a solve that cannot bound its value error by --tol within --max-iter
    # improvement sweeps is a numerical failure, not a validation one
    assert run(["solve", "--spec", SPEC, *SMALL, "--tol", "1e-12", "--max-iter", "2",
                "--out", str(tmp_path / "o")]) == 2
    assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == "numerical"


def test_count_flag_refusal_names_the_flag_as_typed(tmp_path, capsys):
    assert run(["dpp", "--spec", SPEC, *SMALL, "--tau-steps", "0",
                "--out", str(tmp_path / "o")]) == 1
    message = json.loads(capsys.readouterr().err.splitlines()[-1])["message"]
    assert message.startswith("--tau-steps must be at least 1")


def test_solve_reports_value_error_bound(tmp_path, capsys, monkeypatch):
    # stdout, manifest and convergence.csv carry the a-posteriori bound of
    # every improvement sweep; the last one is within --tol
    from delayopt import hjb, models

    # contractions over all 281 grid nodes, in both solves; the start-state
    # lookup contracts one row
    contractions = []

    def spy(v, idx, wts):
        contractions.append(len(idx) == 281)
        return plan_dot(v, idx, wts)

    plan_dot = hjb._plan_dot
    monkeypatch.setattr(hjb, "_plan_dot", spy)
    spec = str(SPECS / "merton_nodelay.json")
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert run(["solve", "--spec", spec, "--grid", "z:log:0.005:100:281", "--tol", "1e-7",
                    "--out", str(out)]) == 0
    line = capsys.readouterr().out.splitlines()[-1]
    resolved = json.loads((outs[0] / "run_manifest.json").read_text())["resolved"]
    assert f"bound={resolved['value_error_bound']:.3g} " in line
    chain = hjb.reduce_to_lag_chain(models.load_spec_file(spec), 1)
    n_u = chain.spec.control_set.shape[0]
    assert 2 * (resolved["iterations"] * n_u + resolved["evaluation_sweeps"]) == sum(contractions)
    text = (outs[0] / "convergence.csv").read_text()
    assert text == (outs[1] / "convergence.csv").read_text()
    rows = np.loadtxt(outs[0] / "convergence.csv", delimiter=",", skiprows=1, ndmin=2)
    assert text.splitlines()[0] == "sweep,residual,bound"
    np.testing.assert_array_equal(rows[:, 0], np.arange(1, resolved["iterations"] + 1))
    # each bound is g / (1 - g) times its residual plus the rounding
    # allowance; the last one's is that of the written value table
    gamma = chain.step_discount
    assert np.all(rows[:, 2] >= gamma / (1 - gamma) * rows[:, 1])
    table = np.loadtxt(outs[0] / "value_policy.csv", delimiter=",", skiprows=1, ndmin=2)
    axes = tuple(np.unique(table[:, a]) for a in range(chain.state_dim))
    width = max(idx.shape[1] for idx, _ in hjb._build_plans(chain, axes, 5)[1])
    value = table[:, chain.state_dim]
    assert rows[-1, 2] == hjb.bellman_bound(gamma, rows[-1, 1], width, np.max(np.abs(value)))
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


# public definitions that nothing in src/ names, each kept for one reader
UNREFERENCED_IN_SRC = {
    "models.audit_constants": "the reference check of the constructors' declared constants "
                              "(ROADMAP item 10)",
    "operators.lifted_norm_sq": "bench/spans.py wraps it by name (ROADMAP item 7)",
    "operators.random_smooth_state": "bench/spans.py wraps it by name (ROADMAP item 7)",
    "sdde.BrownianDriver": "bench/spans.py wraps its increments method by name "
                           "(ROADMAP item 7)",
}


def test_every_public_definition_is_named_in_src():
    # a public top-level function or class is used where it is bound: by its
    # bare name in its own module or in a module that imports it with
    # `from .<module> import <name>`, or as `<module>.<name>`; a public method
    # is used where its name appears in src/ (as a name or an attribute). A
    # definition with no use outside its own body is code that only tests
    # reach; the allowlist names each exception, and an entry that is used
    # or gone is stale
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(delayopt.__file__).resolve().parent.glob("*.py"))}

    def names(tree):
        return Counter(node.id if isinstance(node, ast.Name) else node.attr
                       for node in ast.walk(tree)
                       if isinstance(node, (ast.Name, ast.Attribute)))

    def bare(tree):
        return Counter(node.id for node in ast.walk(tree) if isinstance(node, ast.Name))

    bare_in = {module: bare(tree) for module, tree in trees.items()}
    imported_in = {module: {(node.module, a.name) for node in ast.walk(tree)
                            if isinstance(node, ast.ImportFrom) and node.level == 1
                            for a in node.names}
                   for module, tree in trees.items()}
    qualified = Counter((node.value.id, node.attr) for tree in trees.values()
                        for node in ast.walk(tree)
                        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name))

    def bound_uses(module, name):
        return qualified[module, name] + sum(
            bare_in[other][name] for other in trees
            if other == module or (module, name) in imported_in[other])

    everywhere = sum((names(tree) for tree in trees.values()), Counter())
    kinds = (ast.FunctionDef, ast.ClassDef)
    unreferenced = []
    for module, tree in trees.items():
        for top in tree.body:
            if not isinstance(top, kinds) or top.name.startswith("_"):
                continue
            if bound_uses(module, top.name) == bare(top)[top.name]:
                unreferenced.append(f"{module}.{top.name}")
            if isinstance(top, ast.ClassDef):
                unreferenced += [f"{module}.{top.name}.{d.name}" for d in top.body
                                 if isinstance(d, ast.FunctionDef) and not d.name.startswith("_")
                                 and everywhere[d.name] == names(d)[d.name]]
    assert not set(unreferenced) - set(UNREFERENCED_IN_SRC), unreferenced
    assert not set(UNREFERENCED_IN_SRC) - set(unreferenced), "stale allowlist entries"


# dataclass fields that nothing in src/ reads as an attribute, each kept for
# one reader
UNREAD_IN_SRC = {
    "models.AuditReport.name": "its class serves the allowlisted models.audit_constants",
    "operators.SpectralDecomposition.ghost_vectors": "tests check the docstring's ghost mode "
                                                     "on it without recomputing the spectrum",
}


def test_every_dataclass_field_is_read_in_src():
    # an annotated field of a src/ dataclass is read somewhere in src/ as an
    # attribute (by name, in load context); a field nothing reads is data
    # that only tests reach; the allowlist names each exception, and an
    # entry that is read or gone is stale
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(delayopt.__file__).resolve().parent.glob("*.py"))}
    reads = Counter(node.attr for tree in trees.values() for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))

    def is_dataclass(cls):
        return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
                   for d in cls.decorator_list)

    unread = [f"{module}.{cls.name}.{field.target.id}"
              for module, tree in trees.items() for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef) and is_dataclass(cls)
              for field in cls.body
              if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
              and not reads[field.target.id]]
    assert not set(unread) - set(UNREAD_IN_SRC), unread
    assert not set(UNREAD_IN_SRC) - set(unread), "stale allowlist entries"


def bench_module(name, monkeypatch):
    """bench/<name>.py executed from source, so it writes no bytecode."""
    path = Path(__file__).resolve().parent.parent / "bench" / f"{name}.py"
    module = types.ModuleType(name)
    module.__file__ = str(path)
    monkeypatch.setitem(sys.modules, name, module)  # dataclasses look it up
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def test_package_version_is_the_pyproject_version():
    # the manifest's version is delayopt.__version__; the built package's is
    # pyproject's: one value
    tomllib = pytest.importorskip("tomllib")
    with open(SPECS.parent / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == delayopt.__version__


def test_setup_loads_only_the_modules_it_uses(monkeypatch):
    # the bench's set-up code (import delayopt.models, load the specs) needs
    # core and models only; the package re-exports nothing, so importing one
    # module runs no other
    setup = bench_module("run", monkeypatch).SETUP_CODE
    probe = ("\nimport json, types\n"
             "pkg = sys.modules['delayopt']\n"
             "print(json.dumps([sorted(sys.modules), pkg.__version__, sorted(\n"
             "    k for k, v in vars(pkg).items()\n"
             "    if not k.startswith('_') and not isinstance(v, types.ModuleType))]))\n")
    src = str(Path(delayopt.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", setup + probe, src,
                           *map(str, sorted(SPECS.glob("*.json")))],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded, version, public = json.loads(done.stdout.splitlines()[-1])
    assert version == delayopt.__version__ and public == []
    assert {"delayopt.core", "delayopt.models"} <= set(loaded)
    unused = {f"delayopt.{m}" for m in ("hjb", "lift", "operators", "sdde", "cli")}
    assert not unused & set(loaded), sorted(unused & set(loaded))


def test_bench_invocations_parse(monkeypatch):
    # every command line the benchmark's parts run parses (none is run), so
    # a flag the bench passes cannot go missing unseen by tier-1
    workloads = bench_module("workloads", monkeypatch)
    parser = build_parser()
    argvs = [argv for part in workloads.PARTS.values()
             for argv in part.argv("spec.json", Path("out"), 0)]
    assert len(argvs) == 5
    for argv in argvs:
        assert argv[0] in COMMANDS
        assert parser.parse_args(argv).command == argv[0]


def test_bench_traced_names_resolve(monkeypatch):
    # the benchmark's tracer wraps functions and methods by name; each must
    # exist where the tracer looks, or only a traced benchmark run would fail
    spans = bench_module("spans", monkeypatch)
    callbacks = {f"models.{cb}" for cb in spans.CALLBACKS}
    names = (set(spans.KEYS) - callbacks) | {".".join(m) for m in spans.METHODS}
    missing = []
    for name in sorted(names):
        module, *attrs = name.split(".")
        mod = importlib.import_module(f"delayopt.{module}")
        if len(attrs) == 2:  # a method, wrapped on its class
            ok = callable(getattr(getattr(mod, attrs[0], None), attrs[1], None))
        else:  # a function, wrapped where its own module defines it
            obj = getattr(mod, attrs[0], None)
            ok = inspect.isfunction(obj) and obj.__module__ == mod.__name__
        if not ok:
            missing.append(name)
    assert not missing, missing


def test_bench_solve_observer_reads_the_solver_result(monkeypatch):
    # a traced run counts sweeps and the clamp rate from the result of
    # value_iteration; a field it reads that went missing would only break
    # a traced benchmark run
    spans = bench_module("spans", monkeypatch)
    chain = delayopt.hjb.reduce_to_lag_chain(delayopt.models.load_spec_file(SPEC), 1)
    axes = (np.linspace(0.0, 1.5, 9), np.linspace(0.0, 1.5, 5))  # about 17% clamp
    result = delayopt.hjb.value_iteration(chain, axes, tol=1e-6, max_iter=5000, gh_points=5)
    counters = Counter()
    for _ in range(2):
        spans._observe_solve(counters, (chain, axes), {}, result)
    assert result.iterations == len(result.residual_history) > 1
    assert counters["hjb.sweeps"] == 2 * result.iterations
    assert counters["hjb.clamp_rate"] == result.clamp_rate > 0


def test_bench_simulate_digests_match_the_pins(tmp_path, monkeypatch):
    # the benchmark's bit-reproducibility gate, run here too: the bench's own
    # simulate call at seed 0 reproduces the pinned paths.csv and summary.csv
    workloads = bench_module("workloads", monkeypatch)
    pinned = workloads.load_pinned()["trajectories"]["0"]
    assert workloads.simulate_digests(0, tmp_path) == {
        name: pinned[name] for name in ("paths.csv", "summary.csv")}


def test_pinned_digests_hold_under_a_second_blas_kernel():
    # the pinned-digest commands (LAG_CHAIN_DIGESTS, PORTFOLIO_ARGV among
    # them, and the bench's simulate pins) re-run in a child process that
    # forces OpenBLAS's Haswell kernel, in its own environment only: a pin
    # that holds only on the kernel a host picks for itself fails here
    root = Path(__file__).resolve().parent.parent
    src = str(Path(delayopt.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    tests = ("test_lag_chain_outputs_match_the_pinned_digests",
             "test_bench_simulate_digests_match_the_pins")
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           str(Path(__file__).resolve()), "-k", " or ".join(tests)],
                          cwd=root, env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-4000:]
    assert f"{len(LAG_CHAIN_DIGESTS) + 1} passed" in done.stdout


# the benchmark parts' command lines, shrunk by appending flags (the last
# one given wins): a smaller solve grid, fewer samples, paths and steps
SHRINK = {
    "solve": ["--grid", "s:log:0.4:2.5:5,z:log:0.01:50:21,s_lag1:log:0.4:2.5:5"],
    "operators": ["--samples", "5"],
    "merton-check": ["--dt", "0.05", "--paths", "20"],
    "simulate": ["--T", "0.5", "--paths", "10", "--emit-paths", "2"],
    "lift-check": ["--T", "0.1"],
}


@pytest.mark.parametrize("workload", ["solver", "simulation"])
def test_bench_tracer_records_every_expected_span(workload, tmp_path, monkeypatch):
    # a traced benchmark run fails when a span key that any part of the
    # workload expects records no call anywhere in the workload; the same
    # check on the workload's own calls at small sizes, with the bench's tracer
    spans = bench_module("spans", monkeypatch)
    parts = bench_module("workloads", monkeypatch).WORKLOADS[workload]
    root = Path(__file__).resolve().parent.parent
    tracer = spans.Tracer()
    tracer.install(delayopt)
    try:
        codes = [delayopt.cli.main([*argv, *SHRINK[argv[0]]]) for part in parts
                 for argv in part.argv(str(part.spec_path(root, tmp_path)),
                                       tmp_path / part.name, 0)]
    finally:
        tracer.uninstall()
    assert codes == [0] * len(codes)
    calls = tracer.summarize()[1]
    assert not [key for part in parts for key in part.expected if calls[key] == 0]


def test_operators_sample_pass_stays_within_its_memory_bound(tmp_path, monkeypatch):
    # the bench's operators problem (n = 2, m = 400, 1000 samples) traced by
    # tracemalloc: about 8 MB, set by the dense spectral matrices, with
    # samples in blocks of operators.BLOCK; one batch of all 1000 samples
    # peaks at about 35 MB
    spec = tmp_path / "affine_n2_m400.json"
    spec.write_text(json.dumps(bench_module("workloads", monkeypatch).affine_spec_doc()))
    tracemalloc.start()
    try:
        code = main(["operators", "--spec", str(spec), "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 12e6, f"operators peaked at {peak / 1e6:.1f} MB"


def test_paths_csv_stays_within_its_memory_bound(tmp_path):
    # simulate writing paths.csv for 200 paths x 500 steps (100k rows),
    # traced by tracemalloc: about 3.9 MB, the rows made one path at a time
    # and written a block at a time. Joining every line first peaked at 35 MB
    tracemalloc.start()
    try:
        code = main(["simulate", "--spec", SPEC, "--T", "5", "--dt", "0.01", "--paths", "200",
                     "--emit-paths", "200", "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert len((tmp_path / "paths.csv").read_text().splitlines()) == 1 + 200 * 500
    assert peak < 8e6, f"simulate peaked at {peak / 1e6:.1f} MB"


def test_paths_csv_is_emitted_one_path_at_a_time(tmp_path, monkeypatch):
    # the bench's simulate call (2000 paths, 200 of them emitted, 500 steps)
    # traced by tracemalloc: about 13.8 MB up to the end of the pass (29.9 MB
    # with a block's controls, cost slab and increment copy held), and the
    # 100k paths.csv rows written afterwards add about 0.13 MB, one path's
    # rows at a time. Making every row before the write added 12.8 MB
    from delayopt import sdde

    simulate, traced = sdde.simulate_sdde, {}

    def spy(*args, **kwargs):
        batch = simulate(*args, **kwargs)
        traced["current"], traced["pass"] = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        return batch

    monkeypatch.setattr(sdde, "simulate_sdde", spy)
    tracemalloc.start()
    try:
        code = main(["simulate", "--spec", SPEC, "--T", "5", "--dt", "0.01", "--paths", "2000",
                     "--emit-paths", "200", "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert len((tmp_path / "paths.csv").read_text().splitlines()) == 1 + 200 * 500
    assert traced["pass"] < 16e6, f"the pass peaked at {traced['pass'] / 1e6:.1f} MB"
    emitted = peak - traced["current"]
    assert emitted < 1e6, f"the emission added {emitted / 1e6:.1f} MB"


def test_csv_cells_of_numpy_scalars_match_python_types(tmp_path):
    # a numpy scalar cell is written as its value, not as its numpy 2 repr
    # ("np.float64(0.1)"): the bytes equal those of the row in Python types
    from delayopt import output

    numpy_row = [np.float64(0.1), np.int64(3), np.float64(1e16), np.float64(-0.0),
                 np.float64("nan"), np.str_("x"), np.bool_(True)]
    python_row = [0.1, 3, 1e16, -0.0, float("nan"), "x", True]
    header = [f"c{i}" for i in range(len(python_row))]
    got = output.write_csv(tmp_path / "numpy.csv", header, [numpy_row])
    want = output.write_csv(tmp_path / "python.csv", header, [python_row])
    assert Path(got).read_bytes() == Path(want).read_bytes()
    assert Path(want).read_text().splitlines()[1] == "0.1,3,1e+16,-0.0,nan,x,True"


def test_csv_writer_writes_the_row_formatters_bytes(tmp_path):
    # the block writer formats by column; its bytes are those of the row
    # formatter it replaced, at row counts around the block size, and a row
    # of another length than the header's raises instead of being truncated
    from delayopt import output

    def row_formatter(path, header, rows):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            fh.writelines(",".join(map(str, row)) + "\n" for row in rows)

    cells = [np.float64(0.1), np.int64(-3), 7, True, False, np.float64("nan"), float("inf"),
             -np.inf, -0.0, np.float64(-0.0), 1e16, 1e-5, np.float64(1e-5), "x", "ab"]
    header = [f"c{i}" for i in range(len(cells))]
    block = output.CSV_BLOCK
    for count in (0, 1, block - 1, block, block + 1, 2 * block + 3):
        rows = [cells[i % 5:] + cells[:i % 5] for i in range(count)]
        got = Path(output.write_csv(tmp_path / "got.csv", header, rows)).read_bytes()
        row_formatter(tmp_path / "want.csv", header, rows)
        assert got == (tmp_path / "want.csv").read_bytes()
    for ragged in ([cells, cells[:-1]], [cells] * block + [cells[:-1]], [cells + ["y"]]):
        with pytest.raises(ValueError):
            output.write_csv(tmp_path / "ragged.csv", header, ragged)


def test_monte_carlo_manifests_record_the_tail_bound(tmp_path):
    # simulate, value and merton-check record the discounted tail beyond --T
    # next to the standard error; null where the discount does not clear its
    # admissibility floor (the portfolio problems)
    from delayopt import hjb, models

    spec = models.load_spec_file(SPEC)
    bound = hjb.truncation_tail_bound(
        spec, float(np.linalg.norm(models.initial_state(spec).head)), 2.0)
    merton = ["merton-check", "--spec", str(SPECS / "merton_nodelay.json"),
              "--grid", "z:log:0.005:100:41", "--tol", "1e-5", "--dt", "0.05", "--paths", "20"]
    simulate = ["simulate", "--spec", SPEC, "--paths", "4", "--emit-paths", "1"]
    value = ["value", "--spec", SPEC, "--paths", "4"]
    for argv, want in ((simulate, bound), (value, bound), (merton, None)):
        out = tmp_path / argv[0]
        assert run([*argv, "--T", "2", "--dt", "0.05", "--out", str(out)]) in (0, 2)
        resolved = json.loads((out / "run_manifest.json").read_text())["resolved"]
        assert resolved["truncation_tail_bound"] == want
    assert bound > 0


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


def test_lift_check_ratio_is_nan_when_both_levels_agree(tmp_path, capsys):
    # one step of exactly the segment spacing d/m = 0.01: the refined level's
    # two half steps are its own spacing, so both simulators agree exactly
    # at both levels and the halving ratio is 0/0
    out = tmp_path / "lift"
    assert run(["lift-check", "--spec", SPEC, "--T", "0.01", "--dt", "0.01",
                "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip().endswith(" ratio=nan")
    rows = (out / "lift_report.csv").read_text().splitlines()
    assert [row.split(",")[2:] for row in rows[1:]] == [["0.0", "0.0", "nan"]] * 2


def test_lift_check_ratio_is_zero_when_only_the_base_level_agrees(tmp_path, capsys):
    # one step shorter than d/m = 0.01: the base level's one step is exact,
    # but the refined level takes two half steps, each shorter than its
    # spacing d/2m, and misses in the head and the tail, so the ratio is 0
    out = tmp_path / "lift"
    assert run(["lift-check", "--spec", SPEC, "--T", "0.001", "--dt", "0.001",
                "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip().endswith(" ratio=0")
    base, refined = [row.split(",")[2:] for row in
                     (out / "lift_report.csv").read_text().splitlines()[1:]]
    assert base == ["0.0", "0.0", "0.0"]
    head, tail = float(refined[0]), float(refined[1])
    assert 0 < head < 1e-9 and 0 < tail < 1e-5 and refined[2] == "nan"


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
    # axes left off --grid keep one node: the points sit at the start state
    # there, and no derivative is taken along them
    out = tmp_path / "one-node"
    assert run(["residual", "--spec", str(SPECS / "merton_delay.json"), "--mlag", "1",
                "--grid", "s:0.5:2:9", "--samples", "3", "--out", str(out)]) == 0
    rows = np.loadtxt(out / "residual.csv", delimiter=",", skiprows=1)
    assert rows.shape == (3, 5) and np.all(np.isfinite(rows))
    assert np.all(rows[:, 1:4] == rows[0, 1:4])


def test_probe_regularity_subcommand(tmp_path):
    out = tmp_path / "reg"
    assert run(["probe-regularity", "--spec", str(SPECS / "merton_nodelay.json"),
                "--mlag", "1", "--grid", "z:log:0.005:100:281", "--tol", "1e-7",
                "--box", "z:0.5:2.0", "--out", str(out)]) == 0
    header = (out / "regularity.csv").read_text().splitlines()[0]
    assert header == "lipschitz,alpha_hat,alpha_lo,alpha_hi,flags"


def test_probe_regularity_box_names_its_axes(tmp_path):
    # each range goes into the head column it names, so the token order of
    # --box does not matter; 15 nodes on s keep its box range wider than two
    # gradient spacings (0.6 < 0.8)
    tables = []
    for box in ("s:0.6:1.4,z:0.5:2", "z:0.5:2,s:0.6:1.4"):
        out = tmp_path / box.replace(":", "_").replace(",", "-")
        assert run(["probe-regularity", "--spec", str(SPECS / "merton_delay.json"),
                    "--grid", "s:0.4:2.5:15,z:log:0.05:20:21", "--tol", "1e-5",
                    "--box", box, "--out", str(out)]) == 0
        tables.append((out / "regularity.csv").read_bytes())
    assert tables[0] == tables[1]


def test_probe_regularity_spacing_reads_the_boxed_axes_only(tmp_path, monkeypatch):
    # a coarse grid on s, outside the box, does not widen the stencil on the
    # boxed z: the spacing is twice z's smallest step, and the probe runs
    from delayopt import hjb

    spacings = []
    probe = hjb.regularity_probe

    def recording(*args, gradient_spacing, **kw):
        spacings.append(gradient_spacing)
        return probe(*args, gradient_spacing=gradient_spacing, **kw)

    monkeypatch.setattr(hjb, "regularity_probe", recording)
    out = tmp_path / "reg"
    assert run(["probe-regularity", "--spec", str(SPECS / "merton_delay.json"),
                "--grid", "s:0.4:2.5:5,z:log:0.05:20:21", "--tol", "1e-5",
                "--box", "z:0.5:2", "--out", str(out)]) == 0
    assert spacings == [2.0 * float(np.min(np.diff(np.geomspace(0.05, 20, 21))))]
    alpha = np.loadtxt(out / "regularity.csv", delimiter=",", skiprows=1, usecols=1)
    assert np.isfinite(alpha)


def test_merton_check_reads_the_constant_through_the_map(tmp_path, capsys):
    # a slope-0 map evaluates to clip(base, lo, hi): base 0.2 clamped to
    # [0.07, 0.07] is the constant 0.07
    doc = json.loads((SPECS / "merton_nodelay.json").read_text())
    tables = []
    for name, mu in (("const", {"const": 0.07}),
                     ("clamped", {"base": 0.2, "slope": 0, "lo": 0.07, "hi": 0.07})):
        spec = tmp_path / f"{name}.json"
        spec.write_text(json.dumps({**doc, "params": {**doc["params"], "mu": mu}}))
        code = run(["merton-check", "--spec", str(spec), "--grid", "z:log:0.005:100:41",
                    "--tol", "1e-5", "--T", "5", "--dt", "0.05", "--paths", "50",
                    "--out", str(tmp_path / name)])
        tables.append((code, (tmp_path / name / "merton_check.csv").read_bytes()))
    assert tables[0] == tables[1]


def test_merton_check_accepts_every_constant_map(tmp_path, capsys):
    # a slope-0 map with lo < hi is the constant clip(base, lo, hi): it runs
    # and writes the bytes of the const form
    doc = json.loads((SPECS / "merton_nodelay.json").read_text())
    tables = []
    for name, mu in (("const", {"const": 0.07}),
                     ("flat", {"base": 0.07, "slope": 0, "lo": 0, "hi": 1})):
        spec = tmp_path / f"{name}.json"
        spec.write_text(json.dumps({**doc, "params": {**doc["params"], "mu": mu}}))
        assert run(["merton-check", "--spec", str(spec), "--grid", "z:log:0.005:100:281",
                    "--T", "60", "--dt", "0.05", "--paths", "200",
                    "--out", str(tmp_path / name)]) == 0
        tables.append((tmp_path / name / "merton_check.csv").read_bytes())
    assert tables[0] == tables[1]


def test_advertising_demo_subcommand(tmp_path, capsys):
    # the README's advertising-demo: a path, a solve and a dpp check, the
    # same bytes on a second run
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert run(["advertising-demo", "--spec", SPEC, *SMALL, "--T", "1", "--paths", "200",
                    "--svg", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[0] == lines[1]
    assert lines[0].startswith("advertising-demo: V(x0)=") and " dpp_gap=" in lines[0]
    names = ("path.csv", "value_policy.csv", "dpp.csv")
    assert sorted(p.name for p in outs[0].iterdir()) == sorted(
        [*names, "path.svg", "run_manifest.json"])
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    header = (outs[0] / "value_policy.csv").read_text().splitlines()[0]
    assert header == "y,y_lag1,value,control_index,u0"
    assert (outs[0] / "path.csv").read_text().splitlines()[0] == "t,y0"


def test_probe_bcontinuity_subcommand(tmp_path):
    out = tmp_path / "bc"
    assert run(["probe-bcontinuity", "--spec", SPEC, "--T", "2", "--dt", "0.02",
                "--paths", "48", "--pairs", "10", "--svg", "--out", str(out)]) == 0
    rows = (out / "bcontinuity.csv").read_text().splitlines()
    assert rows[0] == "weak_distance,difference,stderr"
    assert len(rows) == 11
    assert (out / "bcontinuity.svg").read_text().count("<circle ") == 10


def test_probe_bcontinuity_simulates_the_base_state_once(tmp_path, monkeypatch):
    # common random numbers: the base state's costs serve every pair, so
    # --pairs 5 takes 6 simulation passes, not 10
    from delayopt import hjb

    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return simulate(*args, **kwargs)

    simulate = hjb.simulate_sdde
    monkeypatch.setattr(hjb, "simulate_sdde", counting)
    assert run(["probe-bcontinuity", "--spec", SPEC, "--T", "0.5", "--dt", "0.05",
                "--paths", "8", "--pairs", "5", "--out", str(tmp_path)]) == 0
    assert len(calls) == 6 and len({id(x) for x in calls}) == 6


def test_one_step_simulate_plot_pins_its_bytes(tmp_path):
    # one step plots one point, so both plot ranges are one-point ranges,
    # widened to unit width
    assert run(["simulate", "--spec", SPEC, "--T", "0.01", "--dt", "0.01", "--svg",
                "--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / "paths.svg").read_bytes()).hexdigest() == (
        "9c11617b3c1e0cba5e8cb32da59395e9a739ee77134b30af5e5ae6409e71add3")


def test_dpp_manifest_records_solver_convergence(tmp_path, capsys):
    # a subcommand that tests a solved value records how far that value is
    # from the discrete fixed point
    out = tmp_path / "dpp"
    assert run(["dpp", "--spec", SPEC, *SMALL, "--paths", "200", "--out", str(out)]) == 0
    resolved = json.loads((out / "run_manifest.json").read_text())["resolved"]
    assert resolved["iterations"] >= 1 and resolved["evaluation_sweeps"] >= 0
    assert 0 <= resolved["value_error_bound"] <= resolved["tol"]
    assert resolved["residual"] >= 0 and 0 <= resolved["clamp_rate"] <= 1
    # 11 controls x 9 x 5 nodes x 5 Gauss-Hermite nodes x 2^2 corners: y_lag1
    # copies y onto other nodes, so both axes keep both corners
    assert resolved["transition_entries"] == 11 * 9 * 5 * 5 * 4
    assert "growth_fit" not in resolved


def test_operators_n2_matches_dense_kronecker_oracle(tmp_path):
    # the CLI decomposes the scalar Gram operator B once; the oracle is the
    # dense flat B x I_2 with its own weighted eigh, in a basis rotated at
    # random inside each double eigenspace
    from delayopt import models, operators
    from delayopt.core import kernel_convolve

    spec_file = tmp_path / "affine_n2.json"
    spec_file.write_text(json.dumps({"model": "affine_test", "m": 20, "params": {
        "n": 2, "q": 2, "drift_const": [0.0, 0.0],
        "drift_state": [[-0.5, 0.0], [0.0, -0.5]], "drift_delay": [[0.3], [0.3]],
        "drift_control": [[0.5], [0.5]], "noise_const": [[0.4, 0.1], [0.0, 0.2]],
        "x0": [1.0, 1.0], "x1": [1.0, 1.0]}}))
    out = tmp_path / "ops"
    assert run(["operators", "--spec", str(spec_file), "--samples", "4",
                "--out", str(out)]) == 0
    norms, traces = (np.loadtxt(out / f, delimiter=",", skiprows=1)
                     for f in ("tail_norms.csv", "trace_report.csv"))

    spec = models.load_spec_file(spec_file)
    g = spec.grid
    B = np.kron(operators.assemble_gram_operator(g).matrix, np.eye(2))
    s = np.sqrt(np.repeat(operators.weight_vector(g), 2))
    lam, V = np.linalg.eigh((s[:, None] * B) / s[None, :])
    lam, V = lam[::-1], V[:, ::-1] / s[:, None]
    angle = np.random.default_rng(0).uniform(0.0, 2 * np.pi, lam.size // 2)
    c, sn = np.cos(angle), np.sin(angle)
    a, b = V[:, 0::2].copy(), V[:, 1::2].copy()
    V[:, 0::2], V[:, 1::2] = c * a + sn * b, c * b - sn * a
    x = models.initial_state(spec)
    sig = np.asarray(spec.noise(x.head, np.asarray(kernel_convolve(spec.kernel_noise, x.tail)),
                                spec.control_set[0]))
    gram_flat = np.zeros_like(B)
    gram_flat[:2, :2] = sig @ sig.T
    dim = lam.size - 2  # two ghost modes
    oracle_norms, oracle_traces = [], []
    for n_modes in (2, 10, 20, 42):
        F = V[:, :n_modes]
        bq = B @ (np.eye(B.shape[0]) - F @ (s[:, None] ** 2 * F).T)
        nxt = lam[n_modes] if n_modes < dim else 0.0
        oracle_norms.append([n_modes, np.linalg.norm((s[:, None] * bq) / s[None, :], 2), nxt])
        oracle_traces.append([n_modes, np.trace(gram_flat @ bq)])
    assert norms[:, 0].tolist() == [2, 10, 20, 42] == traces[:, 0].tolist()
    np.testing.assert_allclose(norms, oracle_norms, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(traces, oracle_traces, rtol=1e-9, atol=1e-12)


def test_manifest_records_spec_digest(tmp_path):
    out = tmp_path / "m"
    assert run(["operators", "--spec", str(SPECS / "affine.json"), "--out", str(out),
                "--samples", "32"]) == 0
    doc = json.loads((out / "run_manifest.json").read_text())
    assert doc["spec_digest"] and doc["version"] == delayopt.__version__
    assert any(a.endswith("spectrum.csv") for a in doc["artifacts"])


def test_manifest_is_byte_reproducible(tmp_path):
    # a manifest holds no wall time: the same run twice writes the same bytes
    out = tmp_path / "solve"
    argv = ["solve", "--spec", str(SPECS / "merton_nodelay.json"), "--mlag", "1",
            "--grid", "z:log:0.005:100:41", "--tol", "1e-6", "--out", str(out)]
    manifests = []
    for _ in range(2):
        assert run(argv) == 0
        manifests.append((out / "run_manifest.json").read_bytes())
    assert manifests[0] == manifests[1]
    assert sorted(json.loads(manifests[0])) == ["artifacts", "resolved", "spec_digest",
                                                "spec_file", "version"]


# the README advertising lag grid at --mlag 2 and the artifacts of the
# subcommands that solve on it, then the artifacts of the runs that read a
# lifted state's tail, with their sha256 digests
LAG_GRID = ["--mlag", "2", "--grid", "y:-1:2.5:25,y_lag1:-1:2.5:9,y_lag2:-1:2.5:9"]
LAG_CHAIN_DIGESTS = {
    "solve": {
        "value_policy.csv": "ddc555811f96b3961058029ebc75a7b7fbf8335a5bd2721ba25fd7624529f9a5",
        "policy.json": "1fd4a8aff02d78bed5f0f0bb35bd41b38db6ee3603415e8e9f8a98a2f4f814fc",
        "convergence.csv": "46d83ed959924e2263193aa6b8f5e0a658713b1cc1a3bfc89b89ec123cc5646d",
    },
    "residual": {
        "residual.csv": "26b85f13880a2c2a52cf1a96ffab0d74437ebca865feaea1cbb13c04998c0ad1",
    },
    "dpp": {"dpp.csv": "29d6e995463d6c941ff5c7981c8f12af3408345eba928ed04a3cf1c42ed9502b"},
    "simulate": {
        "paths.csv": "2c1390d8790a1cbcdda219a0b887a7bf1c03acba1afc0acd9c3b3315b7a8dd14",
        "summary.csv": "de3ee6fd5e53f498c069f6c64310c62f3b7089ff3dd4e102a90676cd4cb730a9",
    },
    "operators": {
        "counterexample.csv": "8c7bb907e3ed1179ea2dbc2227298c53571170fc8c9159b809192097ea1b1923",
    },
    "lift-check": {
        "lift_report.csv": "b4d3bdcb8e2d1b08496adb4ed8468a7227af0f584600a0f4c9c7b340dae0a129",
    },
    "probe-bcontinuity": {
        "bcontinuity.csv": "6a7843adf1b45abcfa270650b42cbe956b2ef7f76798a3d533ab03315e0ffc1d",
    },
    "probe-bcontinuity-fine": {
        "bcontinuity.csv": "4f34535c1458c14f68e4e547835563c92078ff203e053fcb86b09e9acee942ff",
    },
    "value": {"value.csv": "d57e6d17b19f1944ad9e33860be6ca4986e0d5b49bc78dda07ddf0c898962af9"},
    "merton-check": {
        "merton_check.csv": "661a34183de7c0e8f2c2a369dc697af8f342ee7fb8c26a87ce6cb03121480640",
    },
    "probe-regularity": {
        "regularity.csv": "b2e57fd18ef2e72896bd6296032075a66636cca3c19a02096d78bdc08d602148",
    },
}
# the runs off the lag grid; probe-bcontinuity-fine is the one that resamples
# a non-constant tail (the perturbed states) onto a finer step grid
LIFTED_STATE_ARGV = {
    "operators": ["operators", "--spec", str(SPECS / "affine.json")],
    "lift-check": ["lift-check", "--spec", SPEC, "--T", "1", "--dt", "0.001"],
    "probe-bcontinuity": ["probe-bcontinuity", "--spec", SPEC, "--pairs", "24",
                          "--paths", "200"],
    "probe-bcontinuity-fine": ["probe-bcontinuity", "--spec", SPEC, "--pairs", "6",
                               "--paths", "50", "--T", "1", "--dt", "0.005"],
    "value": ["value", "--spec", SPEC, "--T", "2", "--dt", "0.01", "--paths", "200",
              "--control", "const:0.5"],
}
# the portfolio runs: the README's probe-regularity, and its merton-check on
# a shorter closed loop (200 paths x 1200 steps of the solved policy, every
# check passing)
PORTFOLIO_ARGV = {
    "probe-regularity": ["probe-regularity", "--spec", str(SPECS / "merton_nodelay.json"),
                         "--mlag", "1", "--grid", "z:log:0.005:100:281", "--box", "z:0.5:2"],
    "merton-check": ["merton-check", "--spec", str(SPECS / "merton_nodelay.json"),
                     "--mlag", "1", "--grid", "z:log:0.005:100:281", "--T", "60", "--dt", "0.05",
                     "--paths", "200"],
}


@pytest.mark.parametrize("command", sorted(LAG_CHAIN_DIGESTS))
def test_lag_chain_outputs_match_the_pinned_digests(command, tmp_path, capsys):
    # the solver's bytes: the grid, the value and policy tables, the sweep
    # residuals, the residual points, the gap's rollout and the closed loop
    # of the solved policy, at the README's lag grid; the portfolio's
    # regularity probe and closed loop, which searches its policy on the
    # wealth axis; and the bytes of the counterexample, the lift report, the
    # B-continuity pairs and an open-loop value, which read a lifted state's
    # tail
    out = tmp_path / command
    if command in LIFTED_STATE_ARGV:
        argv = LIFTED_STATE_ARGV[command]
    elif command in PORTFOLIO_ARGV:
        argv = PORTFOLIO_ARGV[command]
    elif command == "simulate":
        assert run(["solve", "--spec", SPEC, *LAG_GRID, "--out", str(tmp_path / "solve")]) == 0
        argv = ["simulate", "--spec", SPEC, "--T", "2", "--dt", "0.01", "--paths", "200",
                "--control", f"policy:{tmp_path / 'solve' / 'policy.json'}"]
    else:
        argv = [command, "--spec", SPEC, *LAG_GRID]
        if command == "dpp":
            argv += ["--paths", "2000"]
    assert run(argv + ["--out", str(out)]) == 0
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in LAG_CHAIN_DIGESTS[command]} == LAG_CHAIN_DIGESTS[command]
