"""chirplab benchmark: one workload per process, closed loop, one thread.

    python3 perfbench/run.py --workload frame-sync --seed 1 --seconds 38 --trace 0

chirplab is imported from the checkout's own ``src``. The run sets up the
inputs of the workload from --seed and runs them in rounds, at least two and
until another round would end after --seconds. It prints every metric by name
with its unit and sample count, then, as the last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones of BENCHMARK.json; with --trace 1 the run does one round
untraced and one traced and reports the per-layer ones, with the tracing
overhead. The exit code is 0 when every check passed, 1 when one failed, and 2
when the checkout holds no chirplab source. ``--workload all`` runs every
workload, each in its own process.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
WORKLOAD_NAMES = ("frame-sync", "ber-grid", "calibrate")
MIN_ROUNDS = 2
SETUPS_PER_ROUND = 3  # setup_s is the median of all of a run's set-ups
# One process and one thread: numerical libraries must not start worker threads.
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def import_chirplab():
    """Import chirplab from ROOT/src, and the workload code; exit 2 if the checkout has no chirplab."""
    source = ROOT / "src" / "chirplab"
    if not (source / "__init__.py").is_file():
        print(f"perfbench: no chirplab source at {source}", file=sys.stderr)
        raise SystemExit(2)
    for variable in THREAD_VARIABLES:
        os.environ.setdefault(variable, "1")
    sys.path[:0] = [path for path in (str(ROOT / "src"), str(HERE)) if path not in sys.path]
    import chirplab
    import workloads  # noqa: F401  (imports numpy and the chirplab modules)
    if Path(chirplab.__file__).resolve().parent != source.resolve():
        print(f"perfbench: imported chirplab from {chirplab.__file__}, not {source}", file=sys.stderr)
        raise SystemExit(2)


def make_workloads() -> dict:
    import workloads
    reference = json.loads((HERE / "reference.json").read_text())
    return {
        "frame-sync": workloads.FrameSync(workloads.FRAME_SYNC),
        "ber-grid": workloads.BerGrid(workloads.BER_GRID, reference),
        "calibrate": workloads.Calibrate(workloads.CALIBRATE, reference),
    }


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import chirplab
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__, "chirplab": chirplab.__version__,
            "cores": os.cpu_count(), "machine": platform.machine(), "commit": git_commit()}


def quantile(values: list, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


class Stats:
    """Operation times of the untraced rounds, grouped by operation kind in first-seen order."""

    def __init__(self, rounds: list):
        self.rounds = rounds
        self.ops = defaultdict(list)
        for result in rounds:
            for op in result.ops:
                self.ops[op.kind].append(op)

    def kinds(self) -> list:
        return list(self.ops)

    def quantile_line(self, name: str, kind: str, q: float) -> str:
        values = [op.seconds for op in self.ops[kind]]
        return f"{name} {quantile(values, q):.6g} s (n={len(values)})"

    def rate_line(self, name: str, kind: str, unit: str) -> str:
        ops = self.ops[kind]
        rate = sum(op.work for op in ops) / sum(op.seconds for op in ops)
        return f"{name} {rate:.6g} {unit} (n={len(ops)})"

    def round_line(self, name: str, kind: str) -> str:
        """Median over rounds of the summed time of one kind of operation."""
        sums = [sum(op.seconds for op in result.ops if op.kind == kind) for result in self.rounds]
        return f"{name} {statistics.median(sums):.6g} s (n={len(sums)})"


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import numpy, chirplab and the workloads."""
    probe = ("import sys, time; start = time.perf_counter(); sys.path[:0] = sys.argv[1:]; "
             "import workloads; print(time.perf_counter() - start)")
    done = subprocess.run([sys.executable, "-c", probe, str(ROOT / "src"), str(HERE)],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout)


def round_rel(result) -> float:
    """A round's time in calibration kernels: the sum of its operations' ratios."""
    return sum(op.rel for op in result.ops)


def run_rounds(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Set up and run rounds of the workload; every round has the same inputs."""
    import tracer as tracing
    import workloads

    setup_s, rounds = [], []
    traced = layers = None
    start = time.perf_counter()
    while True:
        for _ in range(SETUPS_PER_ROUND):
            began = time.perf_counter()
            inputs = workload.prepare(seed, workdir)
            setup_s.append(time.perf_counter() - began + import_seconds())
        rounds.append(workload.run(inputs, workloads.Timer(workload.kernel, tracing.NullTracer())))
        if trace:
            with tracing.Tracer() as tracer:
                traced = workload.run(inputs, workloads.Timer(workload.kernel, tracer))
            tracer.write(OUT / f"trace-{workload.name}-seed{seed}.json")
            layers = tracing.per_layer_metrics(tracer, round_rel(traced) / round_rel(rounds[0]) - 1.0)
            break
        elapsed = time.perf_counter() - start
        if len(rounds) >= MIN_ROUNDS and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
    return {"setup_s": setup_s, "rounds": rounds, "traced": traced, "layers": layers}


def measure(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, int]:
    """Run one workload and print its report; returns (result JSON, exit code)."""
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        run = run_rounds(workload, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # timings come from untraced rounds only; every round is checked
    stats = Stats(run["rounds"])
    checked = run["rounds"] + ([run["traced"]] if trace else [])
    ops = [op for result in checked for op in result.ops]
    notes = [note for result in checked for note in result.notes]
    main = [op.rel for op in stats.ops[workload.main_kind]]
    kernel = [op.kernel_s for op in stats.ops[workload.main_kind]]
    attempted = len(ops)
    failed = sum(op.outcome == "fail" for op in ops)
    missed = sum(op.outcome == "miss" for op in ops)
    end_to_end = {
        "setup_s": (statistics.median(run["setup_s"]), "s", len(run["setup_s"])),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        "op_rel.p50": (quantile(main, 0.5), "kernels", len(main)),
        "op_rel.p90": (quantile(main, 0.9), "kernels", len(main)),
        "round_rel": (statistics.median(round_rel(r) for r in run["rounds"]), "kernels", len(run["rounds"])),
    }

    print(f"perfbench {workload.name} seed={seed} seconds={seconds} trace={int(trace)} "
          f"rounds={len(run['rounds'])}")
    print("env " + json.dumps(environment()))
    for name, (value, unit, count) in end_to_end.items():
        print(f"{name} {value:.6g} {unit} (n={count})")
    print(f"kernel_s {statistics.median(kernel):.6g} s (n={len(kernel)})")
    for line in workload.report(stats):
        print(line)
    print(f"fail_ratio {(failed + missed) / attempted:.6g} (n={attempted}: {failed} failed checks, "
          f"{missed} frames missed below the assured SNR)")
    if trace:
        for name, (value, unit, count) in run["layers"].items():
            print(f"{name} {value:.6g} {unit}" + ("" if count is None else f" (n={count})"))
    for note in notes[:20]:
        print(f"FAILED CHECK: {note}")

    metrics = run["layers"] if trace else end_to_end
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return result, 0 if failed == 0 else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, workloads=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        code = 0
        for name in WORKLOAD_NAMES:
            command = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace)]
            code = max(code, subprocess.run(command, check=False).returncode)
        return code
    import_chirplab()
    workload = (workloads or make_workloads())[args.workload]
    _, code = measure(workload, args.seed, args.seconds, bool(args.trace))
    return code


if __name__ == "__main__":
    sys.exit(main())
