"""Run one cognilog benchmark workload and print its metrics.

    python3 perfbench/run.py --workload match --seed 1 --seconds 10 --trace 0

One caller in one thread drives the public API from a closed loop: the next
operation starts only after the last one has returned.  The library is
imported from ``src/`` of the checkout this file sits in.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it reports per-layer calls and self time per operation, taken
from spans around the public functions (see ``spans.py``), and writes the
spans to ``.bench_build/perfbench/``.  The last line of standard output is
the result as one JSON object; details (environment, sample count, the
percentile behind ``tail_ms``) go to standard error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter_ns

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "fixtures"
OUT = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("match", "infer", "story", "ingest")
SETUP_REPEATS = 3
WARMUP_OPS = 4
# Times are reported at a reference machine speed.  On the shared host this
# benchmark was written on, identical work ran up to twice as slow from one
# minute to the next, while the ratio of a cognilog operation to a fixed
# pure-Python task stayed within a few percent.  So a calibration task is
# timed between operations, and every time is scaled by REFERENCE_TASK_S
# over the task's measured time around it.
REFERENCE_TASK_S = 0.004
# Operations per traced pass.  Traced passes repeat the same operations, so
# calls per operation must come out identical in every pass.
TRACE_OPS = {"match": 16, "infer": 12, "story": 16, "ingest": 8}


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "loadavg": os.getloadavg(),
    }


def calibration_task() -> int:
    """Fixed pure-Python work, independent of cognilog, with the mix the
    library spends its time on: tuples and dicts, set algebra, big-int bit
    operations and sorting."""
    rows: dict[tuple[str, int], list[int]] = {}
    bits = 0
    for i in range(2000):
        rows.setdefault((f"a{i % 50}", i % 7), []).append(i)
        bits |= 1 << (i % 200)
        bits ^= bits >> 3
    odd = {k for k in rows if k[1] % 2}
    ranked = sorted(rows.items(), key=lambda kv: (len(kv[1]), kv[0]))
    return len(odd) + len(ranked) + bits.bit_count()


def calibrate() -> float:
    """Seconds the calibration task takes now (best of three)."""
    best = math.inf
    for _ in range(3):
        t0 = perf_counter_ns()
        calibration_task()
        best = min(best, (perf_counter_ns() - t0) / 1e9)
    return best


def scale(before: float, after: float) -> float:
    """Factor from measured seconds to seconds at the reference speed, for
    work done between two calibrations."""
    return REFERENCE_TASK_S / ((before + after) / 2)


def setup(workloads, name: str, seed: int):
    """Build the workload from its seed and warm it up with operations that
    are the same for every seed; returns its operation maker and the seconds
    taken, at the reference speed."""
    before = calibrate()
    t0 = perf_counter_ns()
    make = workloads.build(name, seed)
    for i in range(1, WARMUP_OPS + 1):
        make(-i)[0]()
    seconds = (perf_counter_ns() - t0) / 1e9
    return make, seconds * scale(before, calibrate())


class Tally:
    """Outcomes and latencies of the operations run so far."""

    def __init__(self, error_type):
        self.error_type = error_type
        self.latencies: list[float] = []
        self.failures: set[int] = set()  # indices into latencies
        self.attempted = self.failed = self.checked = self.correct = 0

    def run(self, fn):
        """Time one operation; returns (seconds, result), result None on
        failure."""
        self.attempted += 1
        t0 = perf_counter_ns()
        try:
            result = fn()
        except self.error_type as exc:  # typed errors are completed operations
            result = exc
        except Exception as exc:  # anything else is a failure, reported below
            dt = (perf_counter_ns() - t0) / 1e9
            self.failed += 1
            self.failures.add(len(self.latencies))
            self.latencies.append(dt)
            print(f"operation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return dt, None
        dt = (perf_counter_ns() - t0) / 1e9
        self.latencies.append(dt)
        return dt, result

    def check(self, check, result) -> None:
        if result is not None:
            # every workload expects results, so a typed error is a wrong output
            self.record(not isinstance(result, self.error_type) and check(result))

    def record(self, ok: bool) -> None:
        self.checked += 1
        if ok:
            self.correct += 1
        else:
            print("output differs from its reference", file=sys.stderr)


def end_to_end(workloads, name, seed, seconds, error_type):
    """Closed loop over the seeded stream until ``seconds`` of operation
    time have been measured."""
    setups = [setup(workloads, name, seed) for _ in range(SETUP_REPEATS)]
    make = setups[-1][0]
    tally = Tally(error_type)
    busy, i = 0.0, 0
    lat: list[float] = []  # at the reference speed
    before = calibrate()
    while busy < seconds:
        run, check = make(i)
        dt, result = tally.run(run)
        after = calibrate()
        lat.append(dt * scale(before, after))
        before = after
        busy += dt
        tally.check(check, result)
        i += 1
    for ok in workloads.golden(name, FIXTURES):
        tally.record(ok)
    n = len(lat)
    # highest percentile with at least ten samples beyond it (the maximum
    # when there are too few samples for one); a failure misses any limit
    tail_index = n - 11 if n > 10 else n - 1
    tail = sorted(math.inf if k in tally.failures else t for k, t in enumerate(lat))[tail_index]
    metrics = {
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        "ops_per_s": ((tally.attempted - tally.failed) / sum(lat), "1/s"),
        "p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "tail_ms": (tail * 1e3, "ms"),
        "correct_ratio": (tally.correct / max(tally.checked, 1), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    details = {"samples": n, "tail_percentile": 100 * (tail_index + 1) / n}
    return tally, metrics, details


def per_layer(workloads, name, seed, seconds, error_type):
    """Alternate untraced and traced passes over the same operations until
    ``seconds`` have passed and at least two traced passes are done."""
    make, _ = setup(workloads, name, seed)
    ops = [make(i) for i in range(TRACE_OPS[name])]
    tally = Tally(error_type)
    tracer = spans.Tracer()
    elapsed = plain_s = traced_s = 0.0  # the last two at the reference speed
    own = [0.0] * len(spans.NAMES)
    per_pass = []
    while elapsed < seconds or len(per_pass) < 2:
        before = calibrate()
        plain = 0.0
        for run, check in ops:
            dt, result = tally.run(run)
            plain += dt
            tally.check(check, result)
        first, traced, results = len(tracer.name), 0.0, []
        tracer.install()
        try:
            for i, (run, _) in enumerate(ops):
                tracer.current_op = i
                dt, result = tally.run(run)
                traced += dt
                results.append(result)
        finally:
            tracer.uninstall()
        factor = scale(before, calibrate())
        for (_, check), result in zip(ops, results):
            tally.check(check, result)
        elapsed += plain + traced
        plain_s += plain * factor
        traced_s += traced * factor
        own = [t + ns / 1e9 * factor for t, ns in zip(own, tracer.self_ns(first))]
        per_pass.append(tracer.counts(first))
    for ok in workloads.golden(name, FIXTURES):
        tally.record(ok)
    repeat = all(c == per_pass[0] for c in per_pass)
    if not repeat:
        print("per-layer call counts differ between passes", file=sys.stderr)
    n_ops = len(per_pass) * len(ops)
    calls = tracer.counts()
    metrics = {}
    for k, qualified in enumerate(spans.NAMES):
        metrics[f"{qualified}.calls"] = (calls[k] / n_ops, "count")
        metrics[f"{qualified}.self_s"] = (own[k] / n_ops, "s")
    scored = calls[spans.NAMES.index("search.score_functor")]
    evaluated = calls[spans.NAMES.index("boolmat.evaluate_conversion")]
    metrics["search.admissible_ratio"] = (scored / evaluated if evaluated else 0.0, "ratio")
    metrics["trace.overhead_s"] = ((traced_s - plain_s) / n_ops, "s")
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"spans-{name}-seed{seed}.tsv"
    tracer.write(path)
    details = {
        "counts_repeat": repeat,
        "traced_passes": len(per_pass),
        "ops_per_pass": len(ops),
        "calls_per_pass": dict(zip(spans.NAMES, per_pass[0])),
        "spans": str(path.relative_to(ROOT)),
    }
    return tally, metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "cognilog" / "__init__.py").is_file():
        print(f"no cognilog sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cognilog
    import workloads

    if Path(cognilog.__file__).resolve().parent != SRC / "cognilog":
        print(f"cognilog imported from {cognilog.__file__}, not {SRC}", file=sys.stderr)
        return 2
    measure = per_layer if args.trace else end_to_end
    tally, metrics, details = measure(
        workloads, args.workload, args.seed, args.seconds, cognilog.CognilogError
    )
    details.update(workload=args.workload, seed=args.seed, env=environment())
    print(json.dumps(details), file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": tally.checked > 0
                and tally.correct == tally.checked
                and details.get("counts_repeat", True),
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
