"""End-to-end benchmark of toricpoints.

    python3 bench/run.py --workload report-wide --seed 1 --seconds 25 --trace 0

Runs one workload in this process as a closed loop (one caller, no
threads): every operation starts when the previous one has returned.  The
program is imported from ./src of the checkout this file lives in.  A run is
`--seconds` whole passes; a pass is sized to take about one second on a
2-core machine at the commit that introduced the benchmark, so the work of a
run is fixed and a faster program finishes sooner.  Every result is checked
against the benchmark's own computation (oracles.py).

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the per-layer
metrics of a traced run with --trace 1.
"""

from time import perf_counter

START = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MODULES = ("fan", "divisor", "geometry", "cohomology", "lowdeg", "plane", "cli")
SETUP_ROUNDS = 7


class Program:
    """The toricpoints modules, imported afresh from ./src."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "toricpoints" or m.startswith("toricpoints.")]:
            del sys.modules[name]
        package = importlib.import_module("toricpoints")
        if Path(package.__file__).resolve().parent != SRC / "toricpoints":
            raise ImportError(f"toricpoints was imported from {package.__file__}, not from {SRC}")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"toricpoints.{name}"))


# The host's speed drifts by up to +-20% over seconds (other tenants share
# its cores), far more than the bounds allow.  So every wall-clock time is
# scaled by how fast a fixed reference kernel runs at the same moment, to the
# time it would take on a machine where the kernel takes REFERENCE_S.  Each
# workload has the kernel that follows its speed best: the report workloads
# do small-integer and Fraction arithmetic, cli-mix does text and JSON.
REFERENCE_S = 0.0004


def arithmetic_kernel() -> int:
    """Fixed work like the reports': small-integer and Fraction arithmetic,
    tuples and dict lookups."""
    table = {}
    acc = Fraction(0)
    for i in range(1, 670):
        p = (i % 7 - 3, i % 5 - 2)
        key = p[0] * p[1] + i % 11
        table[key] = table.get(key, 0) + p[0]
        if i % 16 == 0:
            acc += Fraction(p[0], 3 + i % 4)
    return len(table) + acc.numerator


def text_kernel() -> int:
    """Fixed work like the command line's: JSON, regular expressions,
    string buffers and dicts."""
    out = io.StringIO()
    table = {}
    acc = Fraction(0)
    for i in range(40):
        text = json.dumps({"a": [i, i + 1, -i], "b": str(i)})
        key = re.match(r'^\{"a": \[(\d+)', text).group(1)
        table[key] = json.loads(text)["a"]
        out.write(text)
        if i % 6 == 0:
            acc += Fraction(i, 7)
    return len(out.getvalue()) + len(table) + acc.numerator


KERNELS = {"report-wide": arithmetic_kernel, "report-deep": arithmetic_kernel, "cli-mix": text_kernel}


def kernel_time(kernel) -> float:
    """Time of one run of the kernel, with the cyclic garbage collector held
    off so that it measures the machine, not the program's garbage."""
    gc.disable()
    try:
        t = perf_counter()
        kernel()
        return perf_counter() - t
    finally:
        gc.enable()


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile: the value at rank ceil(q n), computed in
    integers so that 0.9 * 480 does not round up to rank 433."""
    k = max(0, -(-round(q * 1000) * len(sorted_values) // 1000) - 1)
    return sorted_values[k]


def run_ops(prog, ops, kernel):
    """Time each operation, then check it.  Returns (wall-clock latencies in
    s, the same in reference time, failed count, mismatch messages).

    The reference kernel runs between every two operations; each operation
    is scaled by the mean of the kernel times just before and just after it.
    """
    latencies, scaled, failed, wrong, noted = [], [], 0, [], set()
    before = kernel_time(kernel)
    for op in ops:
        t = perf_counter()
        try:
            result = op.call(prog)
        except Exception:
            result = None
            _note(noted, op.name + " raised", f"{op.name} raised:\n{traceback.format_exc(limit=3)}")
        latencies.append(perf_counter() - t)
        after = kernel_time(kernel)
        scaled.append(latencies[-1] * 2 * REFERENCE_S / (before + after))
        before = after
        if result is None:
            failed += 1
            continue
        try:
            problems = op.check(result)
        except workloads.OpFailed as exc:
            failed += 1
            _note(noted, op.name + " failed", f"{op.name} failed: {exc}")
            continue
        except Exception:
            problems = [f"check could not read the output:\n{traceback.format_exc(limit=3)}"]
        if problems:
            wrong.append(f"{op.name}: " + "; ".join(problems))
    return latencies, scaled, failed, wrong


def _note(noted: set, key: str, message: str) -> None:
    """Print the first failure of each kind of operation to stderr."""
    if key not in noted:
        noted.add(key)
        print(message, file=sys.stderr)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True, choices=range(1, 61), metavar="1..60")
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "toricpoints" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'toricpoints'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    build = workloads.WORKLOADS[args.workload]
    kernel = KERNELS[args.workload]
    tmp_parent = ROOT / ".bench_tmp"
    tmp_parent.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=tmp_parent)
    try:
        # Set up several times and report the median.  Each round imports
        # toricpoints afresh and generates all of the run's inputs; the first
        # round is timed from process start.
        setup, tracer, started = [], None, START
        for round_ in range(SETUP_ROUNDS):
            prog = Program()
            if args.trace and round_ == SETUP_ROUNDS - 1:
                tracer = spans.Tracer()
                tracer.install()
            files = workloads.Files(tmpdir)
            ops = build(prog, args.seed, args.seconds, files)
            elapsed = perf_counter() - started
            # scaled by the median of five kernel runs right after the set-up
            setup.append(elapsed * REFERENCE_S / statistics.median(kernel_time(kernel) for _ in range(5)))
            gc.collect()  # free this set-up's garbage, so peak RSS does not depend on when gc runs
            started = perf_counter()
        files.flush()
        # The run's inputs stay alive throughout; keep them out of the
        # collector's scans so that its cost does not grow with the run.
        gc.freeze()

        latencies, scaled, failed, wrong = run_ops(prog, ops, kernel)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            tmp_parent.rmdir()
        except OSError:  # another run still has a directory there
            pass

    for message in wrong[:10]:
        print(f"WRONG {message}", file=sys.stderr)
    completed = len(ops) - failed
    print(
        f"{args.workload} seed {args.seed}: {len(ops)} operations, {failed} failed; "
        f"wall clock {completed / sum(latencies):.2f} ops/s, reference time "
        f"{completed / sum(scaled):.2f} ops/s",
        file=sys.stderr,
    )
    if tracer is None:
        ordered = sorted(scaled)
        metrics = {
            "throughput_ops_s": {"value": completed / sum(scaled), "unit": "1/s"},
            "latency_p50_ms": {"value": percentile(ordered, 0.5) * 1e3, "unit": "ms"},
            "latency_p90_ms": {"value": percentile(ordered, 0.9) * 1e3, "unit": "ms"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
    else:
        metrics = spans.layer_metrics(
            tracer, prog.geometry.feasible_vertices, sum(scaled) / sum(latencies)
        )
        OUT.mkdir(exist_ok=True)
        stem = OUT / f"trace-{args.workload}-seed{args.seed}"
        spans.write_spans(tracer.spans, stem.with_suffix(".tsv.gz"))
        with open(stem.with_suffix(".json"), "w") as fh:
            json.dump({
                "workload": args.workload,
                "seed": args.seed,
                "operations": len(ops),
                "traced_throughput_ops_s": completed / sum(scaled),
                "layers": spans.summarize(tracer.spans, extras=False),
                "metrics": metrics,
            }, fh, indent=1)
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
