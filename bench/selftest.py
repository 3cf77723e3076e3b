"""Show that the benchmark's checks catch wrong answers.

    python3 bench/selftest.py

Takes real outputs of the program, substitutes a wrong answer, and runs the
same check functions the benchmark runs after its timed phase:

* the Drazin inverse in place of the WG inverse, on matrices with S N != 0
  (there the two differ), in the library workloads and in CLI output;
* the transpose of the core-EP inverse, in the library and in CLI JSON.

Every targeted check must fail, and the unmodified outputs must pass every
check.  Exits 0 when that holds, 1 otherwise.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import dataclasses  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from cli_workload import Cli  # noqa: E402
from gen import parse_matrix  # noqa: E402
from library_workloads import Small  # noqa: E402
from worker import check_round_forked  # noqa: E402


def _swap(outs: dict, key: str, name: str, value: np.ndarray) -> dict:
    """Copy of a small-workload output with one result's value replaced."""
    res = dict(outs[key])
    res[name] = dataclasses.replace(res[name], value=value)
    return {**outs, key: res}


def _expect(label: str, failures: list[str], targets: list[str]) -> bool:
    missed = [t for t in targets if not any(t in f for f in failures)]
    ok = bool(failures) and not missed if targets else not failures
    state = "ok  " if ok else "FAIL"
    print(f"{state} {label}: {len(failures)} check(s) failed" + (f"; not caught: {missed}" if missed else ""))
    for line in failures:
        print(f"       {line}")
    return ok


def library_cases() -> bool:
    """Through check_round_forked, the path a benchmark run takes."""
    small = Small(seed=11, workdir=None)
    ok = True
    # positions of SPECS with index >= 2 and a nonzero S, so S N != 0
    for op in (small.round(0)[j] for j in (3, 7, 9)):
        outs = {op.name: op.call()}
        res = outs[op.name]

        def failures(outs):
            raised, failed = check_round_forked([op], outs)
            return raised + failed

        ok &= _expect(f"{op.name} as computed", failures(outs), [])
        drazin, core_ep = res["drazin_inverse"].value, res["core_ep_inverse"].value
        wrong_wg = _swap(outs, op.name, "wg_inverse", drazin)
        targets = ["wg inverse"] + [f"WG routes {r} vs block-form" for r in res if r.startswith("wg_route_")]
        ok &= _expect(f"{op.name} Drazin in place of WG", failures(wrong_wg), targets)
        wrong_ce = _swap(outs, op.name, "core_ep_inverse", core_ep.T)
        ok &= _expect(f"{op.name} transposed core-EP", failures(wrong_ce), ["core-ep inverse"])
    return ok


def cli_cases() -> bool:
    workdir = ROOT / ".bench_out" / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        ops = {op.name: op for op in Cli(seed=11, workdir=workdir).ops}
        targets = ("inverse wg demo4x4.mat", "inverse wg big.mat", "inverse wg big.mat --json", "inverse core-ep big.mat --json")
        run = {name: ops[name].inproc() for name in targets + ("inverse drazin demo4x4.mat", "inverse drazin big.mat")}

        def check(name, output):
            return ops[name].check({name: output})

        ok = True
        for name in targets:
            ok &= _expect(f"cli '{name}' as computed", check(name, run[name]), [])
        ok &= _expect(
            "cli 'inverse wg demo4x4.mat' printing the Drazin inverse",
            check("inverse wg demo4x4.mat", run["inverse drazin demo4x4.mat"]),
            ["wg of demo4x4.mat"],
        )
        ok &= _expect(
            "cli 'inverse wg big.mat' printing the Drazin inverse",
            check("inverse wg big.mat", run["inverse drazin big.mat"]),
            ["wg of big"],
        )
        code, out, err = run["inverse wg big.mat --json"]
        rep = json.loads(out)
        rep["value"] = [[[z.real, z.imag] for z in row] for row in parse_matrix(run["inverse drazin big.mat"][1])]
        ok &= _expect(
            "cli 'inverse wg big.mat --json' reporting the Drazin inverse",
            check("inverse wg big.mat --json", (code, json.dumps(rep), err)),
            ["wg of big"],
        )
        code, out, err = run["inverse core-ep big.mat --json"]
        rep = json.loads(out)
        rep["value"] = [list(col) for col in zip(*rep["value"])]
        ok &= _expect(
            "cli 'inverse core-ep big.mat --json' reporting the transpose",
            check("inverse core-ep big.mat --json", (code, json.dumps(rep), err)),
            ["core-ep of big"],
        )
        return ok
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    ok = library_cases()
    ok &= cli_cases()
    print("selftest:", "every targeted check failed, every real output passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
