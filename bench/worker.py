"""One benchmark run of one workload, in a fresh process started by run.py.

BLAS and OpenMP are pinned to one thread before numpy loads; the cli
workload's children inherit the setting.  The worker sets up (imports ginv,
generates inputs, writes input files, warms up), runs whole rounds of ops
while they fit in --seconds, and checks every output of a round once the
round is over.  The checks run outside the op clock and count toward no
metric.  The last stdout line is a JSON object for run.py.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"


# (thread-count, config) getters of the OpenBLAS builds numpy and scipy ship, and of a plain one
_BLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_config64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_get_config"),
    ("openblas_get_num_threads", "openblas_get_config"),
)


def blas_info() -> str:
    """Vendor, version and thread count of every OpenBLAS this process loaded."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    found = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for threads_sym, config_sym in _BLAS_SYMBOLS:
            if hasattr(lib, threads_sym) and hasattr(lib, config_sym):
                get_config = getattr(lib, config_sym)
                get_config.restype = ctypes.c_char_p
                version = " ".join(get_config().decode().split()[:2])
                found.append(f"{version} threads={getattr(lib, threads_sym)()} ({Path(path).name})")
                break
    return "; ".join(found) or "no OpenBLAS loaded"


def usage(children: bool):
    """Resource usage of this process, or of its waited-for children."""
    return resource.getrusage(resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF)


def cpu_seconds(children: bool) -> float:
    ru = usage(children)
    return ru.ru_utime + ru.ru_stime


@dataclass
class Tally:
    """What a run did: op wall times, op CPU time, and the check outcome."""

    times: list[float] = field(default_factory=list)
    cpu: float = 0.0
    peak_rss_mb: float = 0.0  # read after each round's ops
    rounds: int = 0
    raised: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)


def run_rounds(workload, seconds: float, runner) -> Tally:
    """Whole rounds while the next one is expected to fit in ``seconds``.

    An op that raises is a failed op.  Each round's outputs are checked once
    the round is over, outside the op clock, and then dropped, so the checks
    count toward no metric and stored outputs do not grow peak_rss_mb with
    the number of ops.
    """
    tally = Tally()
    while not tally.rounds or sum(tally.times) * (1 + 1 / tally.rounds) <= seconds:
        ops = workload.round(tally.rounds)
        outs = {}
        for op in ops:
            c0, t0 = cpu_seconds(workload.children), time.perf_counter()
            try:
                outs[op.name] = runner(op)
            except Exception as exc:  # a failed op is counted, not fatal
                outs[op.name] = exc
            tally.times.append(time.perf_counter() - t0)
            tally.cpu += cpu_seconds(workload.children) - c0
        tally.rounds += 1
        tally.peak_rss_mb = usage(workload.children).ru_maxrss / 1024.0
        # in-process workloads report this process's peak RSS, which the checks'
        # own arrays would raise, so their checks run in a forked copy
        raised, failures = (check_round if workload.children else check_round_forked)(ops, outs)
        tally.raised += raised
        tally.failures += failures
    return tally


def check_round(ops, outs: dict) -> tuple[list[str], list[str]]:
    """Ops that raised, and failed checks on the others."""
    raised: list[str] = []
    failures: list[str] = []
    for op in ops:
        if isinstance(outs[op.name], Exception):
            raised.append(f"{op.name}: raised {outs[op.name]!r}")
            continue
        try:
            failures += [f"{op.name}: {msg}" for msg in op.check(outs)]
        except Exception as exc:  # an output the check cannot read is wrong
            failures.append(f"{op.name}: check raised {exc!r}")
    return raised, failures


def check_round_forked(ops, outs: dict) -> tuple[list[str], list[str]]:
    """check_round in a forked child; this process waits, so one computes at a time."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:  # the child never returns: whatever happens, it ends in os._exit
            os.close(read_fd)
            try:
                payload = check_round(ops, outs)
            except BaseException as exc:
                payload = ([], [f"checker failed: {exc!r}"])
            with os.fdopen(write_fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, encoding="utf-8") as fh:
        text = fh.read()
    _, status = os.waitpid(pid, 0)
    if status or not text:
        return [], [f"checker process ended with status {status}"]
    raised, failures = json.loads(text)
    return raised, failures


def harrell_davis_median(samples: list[float]) -> float:
    """The Harrell-Davis estimate of the median: a Beta-weighted mean of all order statistics.

    It estimates the same median as the middle sample, but a few ops near the
    middle of a round that the host happened to slow down move it less, which
    matters for dense, whose round is about 100 unlike ops.
    """
    import numpy as np
    from scipy.special import betainc

    x = np.sort(samples)
    half = (len(x) + 1) / 2
    weights = np.diff(betainc(half, half, np.linspace(0.0, 1.0, len(x) + 1)))
    return float(weights @ x)


def end_to_end(tally: Tally) -> dict:
    ops = len(tally.times)
    # A shared host can switch between a fast and a slow state (up to 2x) about
    # once a second.  The median over a whole run jumps from one state to the
    # other once about half of its time falls in each; the mean of the rounds'
    # medians moves in proportion to the share of time in each.  Rounds have
    # equal size.
    per_round = ops // tally.rounds
    round_medians = [harrell_davis_median(tally.times[i : i + per_round]) for i in range(0, ops, per_round)]
    return {
        "ops_per_s": (ops / sum(tally.times), "1/s"),
        "latency_p50_ms": (1e3 * statistics.fmean(round_medians), "ms"),
        "cpu_ms_per_op": (1e3 * tally.cpu / ops, "ms"),
        "peak_rss_mb": (tally.peak_rss_mb, "MB"),
    }


def traced(workload, seconds: float, seed: int) -> tuple[Tally, dict]:
    """Each op twice in this process, untraced and traced, in alternating order.

    Alternating cancels the speed-up a repeated call gets from warm caches
    and allocator, so the difference of the two means is the tracing overhead.
    The traced output is the one checked.
    """
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    plain: list[float] = []
    count = 0

    def both(op):
        nonlocal count
        call = op.inproc or op.call
        order = (False, True) if count % 2 == 0 else (True, False)
        for with_spans in order:
            if with_spans:
                tracer.install()
                try:
                    out = tracer.run_op(count, call)
                finally:
                    tracer.uninstall()
            else:
                t0 = time.perf_counter()
                call()
                plain.append(time.perf_counter() - t0)
        count += 1
        return out

    tally = run_rounds(workload, seconds, both)
    summary = tracer.summary()
    if not any(name.startswith(("decomp.", "geninv.", "orders.", "cli.")) for name in summary):
        raise RuntimeError("the traced run recorded no call into ginv: its wrappers were not installed")
    metrics = layer_metrics(summary, count)
    op_spans = [1e3 * (end - start) for name, start, end, _, _ in tracer.spans if name == "op"]
    metrics["trace.overhead_ms_per_op"] = (statistics.fmean(op_spans) - 1e3 * statistics.fmean(plain), "ms")
    metrics.update(cli_start_metrics())
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl")
    return tally, metrics


def cli_start_metrics(repeats: int = 3) -> dict:
    """Interpreter start, and the import of ginv.cli on top of it, in children."""

    def median_ms(code: str) -> float:
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], check=True)
            samples.append(1e3 * (time.perf_counter() - t0))
        return statistics.median(samples)

    start = median_ms("pass")
    return {
        "cli.interpreter_start_ms": (start, "ms"),
        "cli.import_ms": (median_ms("import ginv.cli") - start, "ms"),
    }


def workload_class(name: str):
    """The cli workload does not import ginv; the library workloads do."""
    if name == "cli":
        from cli_workload import Cli

        return Cli
    from library_workloads import Dense, Small

    return {"dense": Dense, "small": Small}[name]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=("cli", "dense", "small"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launch-time", type=float, required=True, help="time.time() when run.py started us")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = workload_class(args.workload)(args.seed, workdir)
        workload.warm_up()
        result = {"setup_s": time.time() - args.launch_time, "blas": blas_info()}
        if args.setup_only:
            print(json.dumps(result))
            return 0
        if args.trace:
            tally, metrics = traced(workload, args.seconds, args.seed)
        else:
            tally = run_rounds(workload, args.seconds, lambda op: op.call())
            metrics = end_to_end(tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in (tally.raised + tally.failures)[:20]:
        print(f"failed: {line}", file=sys.stderr)
    result.update(
        correct=not tally.failures,
        attempted=len(tally.times),
        failed=len(tally.raised),
        metrics={name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
