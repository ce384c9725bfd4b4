"""Regenerate bench/pinned.json, the reference outputs the part checks compare to.

    python3 bench/pin.py

Pins, from the code in src/: the sha256 of the trajectories part's
paths.csv and summary.csv for each seed of workloads.PINNED_SEEDS
(open-loop simulation is bit-reproducible by contract), and the operators
part's spectrum, which does not depend on the seed. Run it only on the
commit that defines the baseline; a later change must match these pins, not
rewrite them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = "2"
    sys.path.insert(0, str(ROOT / "src"))
    import delayopt.cli as cli
    import workloads

    work = ROOT / ".bench_out" / f"pin-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        pinned = {"trajectories": {}, "operators": {}}
        for seed in workloads.PINNED_SEEDS:
            out = work / f"traj{seed}"
            pinned["trajectories"][str(seed)] = workloads.simulate_digests(seed, out)
            shutil.rmtree(out)
        ops = workloads.PARTS["operators"]
        out = work / "ops"
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(ops.argv(str(ops.spec_path(ROOT, work)), out, 0)[0]) != 0:
                raise SystemExit("operators failed")
        pinned["operators"]["eigenvalues"] = [
            float(r["eigenvalue"]) for r in workloads.read_rows(out / "spectrum.csv")]
        workloads.PINNED_FILE.write_text(json.dumps(pinned, indent=1) + "\n",
                                         encoding="utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
