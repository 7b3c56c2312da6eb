"""bgft benchmark: one command, four closed-loop workloads.

    python3 bench/run.py --workload analyze --seed 1 --seconds 20 --trace 0

Runs from the root of a bgft checkout and imports bgft from its ``src/``.  One
client issues one op at a time (closed loop); BLAS keeps its default thread
count.  The set-up is run several times, once before the ops and then between
them, and its median reported as ``setup_s``.  One warm-up op, then ops until
``--seconds`` have passed and the current cycle of the workload's inputs is
complete.  Every op's output is checked.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates traced
and untraced ops, prints the per-layer metrics from the traced ones and the
tracing overhead, and writes the spans to ``.bench_out/``.  The last line of
standard output is always one JSON object: correct, attempted, failed,
metrics.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# The set-up runs SETUP_MIN times, or more (up to SETUP_MAX) when that many
# fill SETUP_SECONDS, so that a cheap set-up has a steady median.  The first
# run comes before the ops and the others are spread between them, so that
# they see the same changes of the machine's speed as the ops do.
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 25, 2.0
# The default workload seed.  README.md names the held-out seed (7919) that
# every later gain claim must also pass on.
DEFAULT_SEED = 1
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile


def tail_latency(latencies: list) -> tuple:
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND samples beyond it.  With too few samples for that to lie
    above the median, the maximum."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND + 1:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def blas_info() -> dict:
    """OpenBLAS version from numpy's build config, thread count from the
    library itself when its symbols can be found."""
    import ctypes

    import numpy as np

    info = {"blas": "unknown", "blas_threads": None}
    try:
        info["blas"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        pass
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def git_commit() -> str:
    """HEAD commit read from .git without leaving the checkout; "unknown"
    outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, attempted: int, failed: int) -> dict:
    import numpy as np
    import scipy

    return dict(python=platform.python_version(), numpy=np.__version__,
                scipy=scipy.__version__, nproc=len(os.sched_getaffinity(0)),
                commit=git_commit(), workload=args.workload, seed=args.seed,
                seconds=args.seconds, trace=args.trace, attempted=attempted,
                failed=failed, **blas_info())


def set_up(make, seed: int, workdir: Path, setups: list):
    """Runs the workload's set-up in a fresh `workdir` and appends its time to
    `setups`.  Returns the workload."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    t0 = time.perf_counter()
    wl = make(seed, workdir)
    setups.append(time.perf_counter() - t0)
    return wl


def run_ops(wl, seconds: float, tracer, set_up_again, set_ups: int) -> dict:
    """Closed loop: ops back to back until `seconds` have passed, then on to
    the end of the current cycle of the workload's inputs, so that every run
    measures the same mix of inputs.  When tracing, op i is traced when
    i % cycle + i // cycle is odd: every input alternates between traced and
    untraced passes, and the run ends on a pair of cycles.  Between ops,
    `set_up_again()` runs `set_ups` times, evenly over `seconds`; the time it
    takes does not count towards them.

    Returns the successful ops as (i, latency, traced), and the counts."""
    period = wl.cycle * (2 if tracer else 1)
    res = dict(ops=[], attempted=0, failed=0, problems=[])
    start = time.perf_counter()
    done = 0
    i = 0
    while i == 0 or i % period or time.perf_counter() - start < seconds:
        inp = wl.prepare(i)
        traced = tracer is not None and (i % wl.cycle + i // wl.cycle) % 2 == 1
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.traced_op(i):
                    out = wl.execute(inp, tracer)
            else:
                out = wl.execute(inp)
            latency = time.perf_counter() - t0
            problems = wl.check(inp, out)
            if traced and hasattr(wl, "trace_in_process"):
                with tracer.installed(i):
                    problems += wl.trace_in_process(inp, out, tracer)
        except Exception:  # an op that raises is a failed op, not a crash
            problems = [traceback.format_exc(limit=3)]
        res["attempted"] += 1
        if problems:
            res["failed"] += 1
            if len(res["problems"]) < 5:
                res["problems"].append(f"op {i}: {problems}")
        else:
            res["ops"].append((i, latency, traced))
        i += 1
        due = seconds * (done + 1) / (set_ups + 1)
        if done < set_ups and time.perf_counter() - start >= due:
            t0 = time.perf_counter()
            set_up_again()
            start += time.perf_counter() - t0
            done += 1
    return res


def throughput(ops: list) -> float:
    """Successful ops per second of op time, over the whole run.  A run holds
    whole cycles of inputs, so every run measures the same mix, and the
    machine's second-to-second changes of speed average out over it."""
    busy = sum(latency for _, latency, _ in ops)
    return len(ops) / busy if busy else 0.0


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bgft" / "__init__.py").is_file():
        print(f"error: no bgft source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bgft
    from bgft import graphs, linalg, markov, sampling, transform

    if not Path(bgft.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported bgft from {bgft.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    make = workloads.WORKLOADS[args.workload]

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    spare = OUT / f"setup-{args.workload}-{os.getpid()}"  # for the timed re-runs
    try:
        setups = []
        wl = set_up(make, args.seed, workdir, setups)
        wanted = min(SETUP_MAX, max(SETUP_MIN, int(SETUP_SECONDS / setups[0])))
        problems = wl.prepare_checks()
        if problems:
            print(f"error: the set-up's results are wrong: {problems}", file=sys.stderr)
            return 1
        warm = wl.prepare(0)
        wl.check(warm, wl.execute(warm))  # warm-up op, not counted

        tracer = None
        if args.trace:
            tracer = tracing.Tracer(dict(graphs=graphs, linalg=linalg, markov=markov,
                                         transform=transform, sampling=sampling))
        def set_up_again():
            set_up(make, args.seed, spare, setups)

        res = run_ops(wl, args.seconds, tracer, set_up_again, wanted - 1)
        while len(setups) < wanted:  # a run too short to spread them all
            set_up_again()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        shutil.rmtree(spare, ignore_errors=True)

    attempted, failed, ops = res["attempted"], res["failed"], res["ops"]
    for p in res["problems"]:
        print(f"FAILED {p}")
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} setups={len(setups)}")
    print(f"failed_ops_ratio {failed / attempted:.6g} ({failed}/{attempted})")
    print("provenance " + json.dumps(provenance(args, attempted, failed)))
    gmean = wl.sigma_min_b_gmean() if args.workload == "sampling-design" else None
    if gmean is not None:
        print(f"sigma_min_b_gmean {gmean!r} (first cycle, {wl.cycle} sets)")

    if not args.trace:
        lat = [latency for _, latency, _ in ops] or [0.0]  # none succeeded: correct is false
        tail, pct = tail_latency(lat)
        # Printed for people, not bounded: see "End-to-end metrics" in README.md.
        print(f"latency_p50_s {statistics.median(lat)!r} s")
        print(f"latency_tail_s {tail!r} s (p{pct:.4g} over {len(lat)} ops)")
        metrics = dict(
            setup_s=(statistics.median(setups), "s"),
            throughput_ops_s=(throughput(ops), "1/s"),
            peak_rss_mb=(peak_rss_mb(children=args.workload == "cli"), "MB"),
        )
    else:
        traced = [op for op in ops if op[2]]
        layer = tracer.per_layer(len(traced))
        t_tput = throughput(traced)
        u_tput = throughput([op for op in ops if not op[2]])
        layer["trace.traced_throughput_ops_s"] = t_tput
        layer["trace.untraced_throughput_ops_s"] = u_tput
        layer["trace.overhead_ratio"] = u_tput / t_tput - 1.0 if t_tput else 0.0
        layer["sampling.greedy.sigma_min_b_gmean"] = gmean or 0.0
        units = {"calls_per_op": "count", "ratio": "ratio", "ops_s": "1/s", "gmean": "1"}
        metrics = {name: (value, next((u for suffix, u in units.items()
                                        if name.endswith(suffix)), "s"))
                   for name, value in sorted(layer.items())}
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans)
        print(f"spans written to {spans.relative_to(ROOT)}")

    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps(dict(
        correct=failed == 0 and len(ops) > 0,
        attempted=attempted, failed=failed,
        metrics={name: dict(value=value, unit=unit) for name, (value, unit) in metrics.items()},
    )))
    return 0


if __name__ == "__main__":
    sys.exit(main())
