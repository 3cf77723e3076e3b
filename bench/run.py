"""Benchmark entry point: one workload, one seed, one JSON line.

    python3 bench/run.py --workload {cli,dense,small} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Every workload runs in a fresh worker
process with BLAS and OpenMP pinned to one thread; ginv is imported from
``src`` of the checkout.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics; set-up is repeated SETUP_REPEATS times (in separate
workers) and its median is reported as ``setup_s``.  With ``--trace 1`` it
carries the per-layer metrics of a traced run.  At most two processes compute at
once: this one waits while a worker (and, for cli, its one child) runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_REPEATS = 3
WORKER_TIMEOUT_S = 170


def launch(args, setup_only: bool, env: dict) -> dict:
    cmd = [
        sys.executable,
        str(WORKER),
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--trace={args.trace}",
        f"--launch-time={time.time()!r}",
    ] + (["--setup-only"] if setup_only else [])
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"worker for {args.workload} exceeded {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise SystemExit(f"worker for {args.workload} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("cli", "dense", "small"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = ROOT / "src"
    if not (src / "ginv" / "__init__.py").is_file():
        print(f"error: no ginv sources under {src}; run from the root of a ginv checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))

    setups = [] if args.trace else [launch(args, True, env)["setup_s"] for _ in range(SETUP_REPEATS - 1)]
    result = launch(args, False, env)
    metrics = result["metrics"]
    if not args.trace:
        setups.append(result["setup_s"])
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(f"# blas: {result['blas']}")
    print(f"# setup_s samples: {', '.join(f'{s:.4f}' for s in setups) or 'not measured in a traced run'}")
    print(
        json.dumps(
            {"correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
