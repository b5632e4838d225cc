"""safecomp benchmark.

One workload, as the contract in BENCHMARK.json asks:

    python3 bench/run.py --workload verify-capacity --seed 1 --seconds 20 --trace 0

prints each metric with its unit and, as the last line, one JSON object
with correct / attempted / failed / metrics. --trace 0 gives the end-to-end
metrics; --trace 1 replays the same rounds with spans recorded and gives the
per-layer metrics and the tracing overhead. --workload all runs every
workload in its own process and prints one table; --repeat N does that N
times with consecutive seeds and saves the runs for bench/compare.py.
See bench/README.md.
"""

from __future__ import annotations

import os

# BLAS is pinned to one thread before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 7
IMPORT_REPEATS = 5


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import safecomp from this checkout's src/, never from elsewhere."""
    if not (SRC / "safecomp" / "__init__.py").is_file():
        fail(f"no program to measure: {SRC / 'safecomp'} is missing")
    sys.path.insert(0, str(SRC))
    import numpy
    import safecomp
    if Path(safecomp.__file__).resolve().parent != (SRC / "safecomp").resolve():
        fail(f"imported safecomp from {safecomp.__file__}, not from {SRC}")
    return numpy, safecomp


def git_sha() -> str:
    """HEAD of the checkout, or 'unknown' outside a git repository; git does
    not look above the checkout for one."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def metadata(numpy) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
    }


def import_seconds(repeats: int, clock) -> list[float]:
    """Scaled wall time of starting a fresh interpreter that imports the
    program and the benchmark, measured in child processes so it can be
    repeated."""
    code = (f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]; "
            "import numpy, safecomp, workloads, checks, layers, tracer")
    return [clock.timed(subprocess.run, [sys.executable, "-c", code], check=True, cwd=ROOT)[1]
            for _ in range(repeats)]


# ---------------------------------------------------------------------------
# One workload in this process


@dataclass
class Measured:
    walls: list = field(default_factory=list)  # wall seconds of each round
    ops: int = 0  # ops that count for ops_per_s, over all rounds
    busy_s: float = 0.0  # the time those ops took
    latency: dict = field(default_factory=lambda: defaultdict(list))  # op key -> seconds per round


def run_rounds(wl, rounds, seconds, tally, digest, tracer=None, targets=None) -> Measured:
    """Run whole rounds: `rounds` of them, or with rounds None until the
    rounds took `seconds` of wall time. Each round's outputs are checked
    after it, outside the timed region."""
    m = Measured()
    r = 0
    while (rounds is None and sum(m.walls) < seconds) or (rounds is not None and r < rounds):
        if tracer is not None:
            tracer.current_op = -1
            tracer.install(targets)
        t0 = time.perf_counter()
        try:
            res = wl.run_round(r)
        finally:
            m.walls.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.uninstall()
        m.ops += res.ops
        m.busy_s += res.busy_s
        for key, dt in res.latency.items():
            m.latency[key].append(dt)
        wl.check_round(r, res, tally, digest)
        digest.open = False
        r += 1
    return m


def run_one(args) -> int:
    numpy, _ = import_program()
    import checks
    import layers
    from clock import Clock
    from tracer import Tracer
    from workloads import WORKLOADS

    cls = WORKLOADS.get(args.workload)
    if cls is None:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or 'all'")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = ROOT / ".bench_work" / f"{cls.name}-{os.getpid()}"
    try:
        setup_times = []
        setup_clock = Clock()
        wl = None
        for _ in range(SETUP_REPEATS if args.size == "full" else 1):
            wl = None  # drop the previous fixtures first, so every set-up starts alike
            gc.collect()
            shutil.rmtree(workdir, ignore_errors=True)
            wl, dt = setup_clock.timed(cls, args.seed, args.size, workdir)
            setup_times.append(dt)
        # the fixtures live for the whole run: keep the collector from rescanning them
        gc.collect()
        gc.freeze()
        tally = checks.Tally()
        digest = checks.Digest()
        extra = {"workload": cls.name, "seed": args.seed, "size": args.size,
                 "setup_repeats_s": setup_times, "clock": "wall time scaled to the reference speed"}
        if not args.trace:
            m = run_rounds(wl, None, args.seconds, tally, digest)
            import_times = import_seconds(IMPORT_REPEATS if args.size == "full" else 1, setup_clock)
            extra["import_repeats_s"] = import_times
            metrics = end_to_end(numpy, wl, statistics.median(import_times), setup_times, m, extra)
        else:
            plain = run_rounds(wl, None, args.seconds / 2, tally, digest)
            tracer = Tracer()
            if wl.op_root:
                tracer.op_roots.add(wl.op_root)
            ops = iter(range(10**12))
            wl.begin_op = lambda: setattr(tracer, "current_op", -2 - next(ops))
            traced = run_rounds(wl, len(plain.walls), None, tally, digest,
                                tracer=tracer, targets=layers.wrap_targets())
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            metrics = layers.per_layer_metrics(tracer, units)
            metrics["trace_overhead"] = (sum(traced.walls) / sum(plain.walls) - 1.0,
                                         units["trace_overhead"])
            spans_path = ROOT / ".bench_work" / f"spans-{cls.name}.csv"
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            extra["spans_file"] = str(spans_path.relative_to(ROOT))
            extra["spans_written"] = tracer.write_csv(spans_path)
            extra["spans_dropped"] = tracer.dropped
            extra["span_breakdown_s"] = {n: {"calls": c, "total": t, "self": s}
                                         for n, (c, t, s, _) in sorted(tracer.totals().items())}
        wl.probe(tally)
        extra.update(attempted=tally.attempted, failed=tally.failed,
                     failed_share=tally.failed / max(tally.attempted, 1),
                     failure_causes=tally.causes, probed=tally.probed, known_defects=tally.known,
                     digest=digest.summary())
        if wl.has_decided:
            extra["decided_share"] = tally.decided / max(tally.tasks, 1)
            extra["verification_tasks"] = tally.tasks
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("# meta " + json.dumps(metadata(numpy), sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    if "decided_share" in extra:
        print(f"decided_share = {extra['decided_share']:.6g} share "
              f"({tally.decided} of {tally.tasks} verification tasks)")
    print(f"failed_share = {extra['failed_share']:.6g} share ({tally.failed} of {tally.attempted} ops)")
    for cause, n in sorted(tally.causes.items()):
        known = checks.KNOWN_DEFECTS.get(cause)
        print(f"  failure {cause}: {n} ({'known defect: ' + known if known else 'WRONG ANSWER'})")
    if tally.probed:
        print(f"defect probe (untimed): {tally.probed} inputs")
    for cause, n in sorted(tally.known.items()):
        known = checks.KNOWN_DEFECTS.get(cause)
        print(f"  shown {cause}: {n} ({'known defect: ' + known if known else 'WRONG ANSWER'})")
    print("# extra " + json.dumps(extra, sort_keys=True, default=str))
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def trimmed_mean(xs) -> float:
    """Mean without the lowest and highest tenth (at least one each from
    five samples on), so one stall of the machine does not set the value."""
    xs = sorted(xs)
    k = max(1, round(len(xs) / 10)) if len(xs) >= 5 else 0
    return statistics.fmean(xs[k:len(xs) - k])


def end_to_end(numpy, wl, import_s, setup_times, m: Measured, extra) -> dict:
    """Throughput is all ops over their timed work, and an op's latency is
    the trimmed mean of its repeats, one per round; every time is scaled to
    the reference speed (clock.py). Means over the whole run,
    not medians or minima: on a shared machine whose speed switches between
    states every few seconds, a mean follows the run's average speed, while
    a median or minimum jumps with the state that happens to be in the
    majority, and spreads more from run to run."""
    if not m.busy_s or not m.latency:
        fail("no op completed; nothing to report")
    per_op = numpy.asarray([trimmed_mean(v) for v in m.latency.values()]) * 1000.0
    p50 = float(numpy.percentile(per_op, 50))
    tail = float(numpy.percentile(per_op, wl.tail_pct))
    beyond = int(numpy.sum(per_op > tail))
    extra.update(rounds=len(m.walls), round_wall_s=m.walls, latency_ops=len(per_op),
                 latency_samples=sum(len(v) for v in m.latency.values()),
                 tail_percentile=wl.tail_pct, tail_ops_beyond=beyond,
                 raw_timed_s=wl.clock.raw_s,
                 ref_loop_median_s=statistics.median(wl.clock.refs))
    print(f"# {len(m.walls)} rounds; op latency over {len(per_op)} ops, each the trimmed mean of its "
          f"repeats; op_tail_ms is p{wl.tail_pct:g} with {beyond} ops beyond it")
    return {
        "setup_s": (import_s + statistics.median(setup_times), "s"),
        "ops_per_s": (m.ops / m.busy_s, "1/s"),
        "op_p50_ms": (p50, "ms"),
        "op_tail_ms": (tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


# ---------------------------------------------------------------------------
# Several workloads, each in its own process


def child(workload: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--size", size]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"workload": workload, "seed": seed, "error": proc.stderr.strip()[-2000:]}
    extra = next((json.loads(l[len("# extra "):]) for l in lines if l.startswith("# extra ")), {})
    return {"workload": workload, "seed": seed, "result": json.loads(lines[-1]), "extra": extra}


def workload_names(arg: str) -> list[str]:
    from workloads import WORKLOADS
    return list(WORKLOADS) if arg == "all" else [arg]


def print_table(run: dict) -> None:
    if "error" in run:
        print(f"{run['workload']}: ERROR {run['error']}")
        return
    res, extra = run["result"], run["extra"]
    print(f"{run['workload']} (seed {run['seed']}): correct={res['correct']} "
          f"attempted={res['attempted']} failed={res['failed']}")
    for name, m in res["metrics"].items():
        note = ""
        if name == "op_tail_ms":
            note = (f"  (p{extra['tail_percentile']:g} of {extra['latency_ops']} ops, "
                    f"{extra['tail_ops_beyond']} beyond, {extra['rounds']} rounds)")
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}{note}")
    if "decided_share" in extra:
        print(f"  {'decided_share':<44} {extra['decided_share']:>14.6g} share")
    print(f"  {'failed_share':<44} {extra['failed_share']:>14.6g} share")
    for cause, n in sorted(extra.get("failure_causes", {}).items()):
        print(f"    failure {cause}: {n}")
    for cause, n in sorted(extra.get("known_defects", {}).items()):
        print(f"    defect probe: {cause} in {n} of {extra['probed']} inputs")
    if extra.get("digest"):
        d = extra["digest"]
        print(f"  digest verdicts={d['verdicts']} reports={d['reports']} "
              f"(first round, {d['entries']} entries)")


def run_many(args) -> int:
    import_program()
    names = workload_names(args.workload)
    repeat = args.repeat or 1
    runs: dict[str, list] = {n: [] for n in names}
    for r in range(repeat):
        for name in names:
            run = child(name, args.seed + r, args.seconds, args.trace, args.size)
            runs[name].append(run)
            if repeat == 1:
                print_table(run)
            else:
                status = "error" if "error" in run else "ok"
                print(f"# {name} seed {args.seed + r}: {status}", flush=True)
    if repeat > 1:
        from compare import summarize
        for name in names:
            print(summarize(name, runs[name]))
    if args.out:
        Path(args.out).write_text(json.dumps({"seconds": args.seconds, "trace": args.trace,
                                              "size": args.size, "runs": runs}, indent=1))
    ok = all("error" not in r and r["result"]["correct"] for rs in runs.values() for r in rs)
    return 0 if ok else 1


def self_test() -> int:
    import_program()
    import checks
    results = checks.self_test()
    for what, caught in results:
        print(f"{'caught' if caught else 'MISSED'}: {what}")
    return 0 if all(c for _, c in results) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for smoke tests")
    parser.add_argument("--repeat", type=int, default=0,
                        help="run each workload this many times, seeds seed..seed+N-1")
    parser.add_argument("--out", default=None, help="save the runs as JSON (with --repeat or all)")
    parser.add_argument("--self-test", action="store_true",
                        help="feed each output check a planted wrong answer")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.self_test:
        return self_test()
    if args.workload == "all" or args.repeat:
        return run_many(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
