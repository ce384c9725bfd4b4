"""Benchmark of the delayopt command line: one workload, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from src/ next to this
directory, never from an installed copy. --trace 0 times the workload's
calls for S seconds, with a few set-up timings after each call, and reports
the end-to-end metrics; --trace 1 alternates untraced and traced calls and
reports the per-layer metrics. Every call's artifacts are checked. The metric names and units are
those of BENCHMARK.json; the last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics. Artifacts go to
.bench_out/ and are removed at exit; a traced run leaves the spans of its
first traced call in .bench_out/spans-<workload>.csv.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
BLAS_THREADS = "2"
# fresh interpreters timed after each call, for setup_s, so that the samples
# spread over the whole run
SETUP_PER_CALL = 4
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import delayopt.models as m; [m.load_spec_file(p) for p in sys.argv[2:]]")
# per-layer metrics derived from the workload's arguments, not measured
COMPUTED = ("hjb.transition_nnz", "hjb.sweep_mb_computed", "sdde.path_buffer_mb_computed")
# bytes stored per transition non-zero: an int64 index, a float64 weight and
# the float64 value gathered through it
SWEEP_BYTES_PER_NNZ = 8 + 8 + 8


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def environment() -> dict:
    import numpy as np

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = {}
    for level in ("2", "3"):
        size = Path(f"/sys/devices/system/cpu/cpu0/cache/index{level}/size")
        caches[f"L{level}"] = size.read_text().strip() if size.exists() else None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy_version, "blas": f"{blas['name']} {blas.get('version')}",
            "nproc": os.cpu_count(), **caches,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def measure_setup(spec_paths: list[Path]) -> float:
    """Wall time of a fresh interpreter that imports delayopt and loads the specs."""
    t0 = time.perf_counter()
    # no timeout: with one, subprocess polls the child in steps of up to 50 ms
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), *map(str, spec_paths)],
                   check=True)
    return time.perf_counter() - t0


@dataclass
class Call:
    """One execution of a workload's parts; each part writes to its own directory."""

    index: int
    traced: bool
    out: Path
    wall: float = 0.0
    part_wall: dict = field(default_factory=dict)
    ok: bool = False
    digests: dict = field(default_factory=dict)
    layer: dict = field(default_factory=dict)


def run_call(cli, parts, spec_paths: dict, call: Call, seed: int) -> str:
    """Run the parts' CLI invocations in-process; returns their stdout."""
    buf = io.StringIO()
    codes = []
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            for part in parts:
                t_part = time.perf_counter()
                for argv in part.argv(str(spec_paths[part.name]), call.out / part.name, seed):
                    codes.append(cli.main(argv))
                call.part_wall[part.name] = time.perf_counter() - t_part
    except Exception:  # a crash counts as a failed call, the run goes on
        traceback.print_exc()
        codes.append(None)
    call.wall = time.perf_counter() - t0
    call.ok = all(c == 0 for c in codes)
    return buf.getvalue()


def layer_metrics(tracer, parts, computed: dict) -> tuple[dict, list[str]]:
    """Per-layer values of one traced call, and the expected keys that saw no call."""
    self_s, calls, inclusive = tracer.summarize()
    ctr = tracer.counters
    sweeps = ctr["hjb.sweeps"]
    steps = ctr["sdde.path_steps"]
    nnz = computed["hjb.transition_nnz"]
    values = {
        "hjb.solve_s": self_s["hjb.solve"],
        "hjb.sweeps": sweeps,
        "hjb.sweep_ms": 1e3 * self_s["hjb.solve"] / sweeps if sweeps else 0.0,
        "hjb.transition_nnz": nnz,
        "hjb.sweep_mb_computed": nnz * SWEEP_BYTES_PER_NNZ / 1e6,
        "hjb.clamp_rate": float(ctr["hjb.clamp_rate"]),
        "hjb.policy_lookups": ctr["hjb.policy_lookups"],
        "hjb.policy_lookup_s": self_s["hjb.policy_lookup"],
        "hjb.feedback_s": self_s["hjb.feedback"],
        "sdde.mc_s": self_s["sdde.mc"],
        "sdde.path_steps": steps,
        "sdde.ns_per_path_step": 1e9 * inclusive["sdde.mc_cost"] / steps if steps else 0.0,
        "sdde.simulate_calls": calls["sdde.simulate"],
        "sdde.simulate_s": self_s["sdde.simulate"],
        "sdde.increments_s": self_s["sdde.increments"],
        "sdde.path_buffer_mb_computed": computed["sdde.path_buffer_mb_computed"],
        "models.coeff_calls": calls["models.coeff"],
        "models.coeff_s": self_s["models.coeff"],
        "models.load_s": self_s["models.load"],
        "operators.gram_dim": ctr["operators.gram_dim"],
        "operators.assemble_s": self_s["operators.assemble"],
        "operators.spectral_s": self_s["operators.spectral"],
        "operators.g_norm_s": self_s["operators.g_norm"],
        "operators.forms_s": self_s["operators.forms"],
        "core.lifted_inner_calls": calls["core.lifted_inner"],
        "core.lifted_inner_s": self_s["core.lifted_inner"],
        "lift.report_s": self_s["lift.report"],
        "lift.mild_s": self_s["lift.mild"],
        "output.csv_rows": ctr["output.csv_rows"],
        "output.csv_bytes": ctr["output.csv_bytes"],
        "output.write_s": self_s["output.write"],
        "cli.self_s": self_s["cli"],
        "trace.spans": len(tracer.spans),
    }
    values["_dominant_s"] = {
        part.name: sum(self_s[k] for k in self_s if k.startswith(part.dominant))
        for part in parts}
    missing = sorted({k for part in parts for k in part.expected if calls[k] == 0})
    return values, missing


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    if not (SRC / "delayopt" / "__init__.py").is_file() or not (ROOT / "specs").is_dir():
        sys.stderr.write(f"bench: no delayopt sources under {ROOT}; run from a checkout\n")
        return 2
    sys.path.insert(0, str(SRC))

    import delayopt
    import delayopt.cli as cli
    from delayopt import models
    import workloads
    from spans import Tracer

    if Path(delayopt.__file__).resolve().parent != (SRC / "delayopt").resolve():
        sys.stderr.write(f"bench: imported delayopt from {delayopt.__file__}\n")
        return 2
    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"bench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}\n")
        return 2
    parts = workloads.WORKLOADS[args.workload]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = declared["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}

    OUT_ROOT.mkdir(exist_ok=True)
    workdir = OUT_ROOT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        print(f"bench: workload {args.workload} ({' + '.join(p.name for p in parts)}) "
              f"seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
        print("bench: environment " + json.dumps(environment(), sort_keys=True))
        spec_paths = {p.name: p.spec_path(ROOT, workdir) for p in parts}
        specs = {k: models.load_spec_file(v) for k, v in spec_paths.items()}
        # counters derived from the arguments: the transition plans of the
        # parts' solves add up; only one part's Monte Carlo batch is alive at once
        computed = [p.computed(specs[p.name]) for p in parts]
        computed = {
            "hjb.transition_nnz": sum(c["hjb.transition_nnz"] for c in computed),
            "sdde.path_buffer_mb_computed": max(c["sdde.path_buffer_mb_computed"]
                                                for c in computed)}

        tracer = Tracer()
        calls: list[Call] = []
        setup: list[float] = []
        start = time.perf_counter()
        deadline = start + args.seconds
        first_stdout = ""
        while True:
            iteration_start = time.perf_counter()
            traced = bool(args.trace) and len(calls) % 2 == 1
            call = Call(len(calls), traced, workdir / f"call{len(calls)}")
            if traced:
                tracer.reset()
                tracer.install(delayopt)
            try:
                stdout = run_call(cli, parts, spec_paths, call, args.seed)
            finally:
                tracer.uninstall()
            first_stdout = first_stdout or stdout
            calls.append(call)
            if call.index == 0:
                # later calls only add heap fragmentation, and how many fit in
                # the run depends on the host's speed
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if traced:
                call.layer, missing = layer_metrics(tracer, parts, computed)
                if missing:
                    sys.stderr.write(f"bench: traced call recorded no span for {missing}\n")
                    call.ok = False
                if call.index == 1:
                    tracer.write(OUT_ROOT / f"spans-{args.workload}.csv")
            for part in parts:
                for artifact in part.digested:
                    path = call.out / part.name / artifact
                    call.digests[f"{part.name}/{artifact}"] = (
                        workloads.digest(path) if path.exists() else "")
            if call.index > 0:
                shutil.rmtree(call.out, ignore_errors=True)
            if not args.trace:
                setup += [measure_setup(list(spec_paths.values()))
                          for _ in range(SETUP_PER_CALL)]
            # stop when the next call and its set-up timings (or pair, when
            # tracing) would overrun
            span = (sum(c.wall for c in calls[-2:]) if args.trace
                    else time.perf_counter() - iteration_start)
            if time.perf_counter() + span > deadline and (not args.trace or traced):
                break

        ref = calls[0]
        accuracy, note = float("nan"), "reference call failed"
        if ref.ok:
            try:
                # the geometric mean of the parts' relative errors, so that the
                # same relative change in either part moves it alike
                checked = [p.check(specs[p.name], ref.out / p.name, args.seed) for p in parts]
                accuracy = math.prod(err for err, _ in checked) ** (1 / len(checked))
                note = " | ".join(f"{p.name}: {n}" for p, (_, n) in zip(parts, checked))
            except workloads.CheckError as exc:
                ref.ok, note = False, f"check failed: {exc}"
        for call in calls:
            call.ok = call.ok and ref.ok and call.digests == ref.digests
        ok = [c for c in calls if c.ok]
        failed = len(calls) - len(ok)
        print("bench: cli output: " + " | ".join(first_stdout.strip().splitlines()))
        print(f"bench: check: {note}")
        if failed:
            print(f"bench: {failed} of {len(calls)} calls failed or did not "
                  "reproduce the reference call's artifacts")

        def timed(traced: bool) -> list[Call]:
            # a failed call contributes no timing, unless every such call failed
            return ([c for c in ok if c.traced == traced]
                    or [c for c in calls if c.traced == traced])

        walls = [c.wall for c in timed(False)]
        if args.trace:
            traced_calls = timed(True)
            # median_low keeps counts exact when the number of traced calls is even
            values = {k: statistics.median_low(c.layer[k] for c in traced_calls)
                      for k in units if k != "trace.overhead_s"} if traced_calls else {}
            traced_walls = [c.wall for c in traced_calls]
            if walls and traced_walls:
                values["trace.overhead_s"] = (statistics.median(traced_walls)
                                              - statistics.median(walls))
                for part in parts:
                    # a call that crashed may not have reached this part
                    shares = [c.layer["_dominant_s"][part.name] / c.part_wall[part.name]
                              for c in traced_calls if part.name in c.part_wall]
                    share = statistics.median(shares) if shares else float("nan")
                    print(f"bench: dominant layers of {part.name} "
                          f"{' + '.join(part.dominant)}: {share:.1%} of its traced wall")
            samples = len(traced_calls)
        else:
            values = {
                "wall_s": statistics.median(walls) if walls else float("nan"),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": peak_rss_mb,
                "ok_frac": len(ok) / len(calls),
                "accuracy_err": accuracy,
            }
            samples = len(walls)
        if set(values) != set(units):
            sys.stderr.write(f"bench: metrics {sorted(set(units) ^ set(values))} "
                             "missing or undeclared\n")
            return 1
        for name, value in values.items():
            n = (len(setup) if name == "setup_s" else len(calls)
                 if name == "ok_frac" else samples)
            extra = ""
            if name == "wall_s":
                extra = " (" + ", ".join(f"{w:.4f}" for w in walls) + ")"
            elif name == "setup_s":
                extra = " (" + ", ".join(f"{w:.4f}" for w in setup) + ")"
            label = " (computed from the workload's arguments)" if name in COMPUTED else ""
            shown = f"{value:.6g}" if isinstance(value, float) else str(value)
            print(f"bench: {name} = {shown} {units[name]}, "
                  f"median of {n} samples{extra}{label}")
        correct = failed == 0
        print(json.dumps({"correct": correct, "attempted": len(calls), "failed": failed,
                          "metrics": {k: {"value": values[k], "unit": units[k]}
                                      for k in units}}))
        return 0 if correct else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
