"""plasticwalk benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload kspace_time --seed 1 --seconds 20 --trace 0

One process, one closed-loop client: each operation calls
``plasticwalk.cli.main(argv)`` in-process and the next starts when it
returns.  The workload's fixed pass (see ``workloads.py``) repeats
ceil(``--seconds`` / typical pass time) times, and at least three times.
Every output is checked by an oracle outside the timed region.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one pass
in which every operation runs twice, once with every layer's public
functions wrapped in spans and once without, and prints the per-layer
metrics and the tracing overhead (traced over plain operation time).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Snapshot files are written to and read from ``perfbench/_work`` inside
the checkout; their timings include the page cache (nothing here drops
caches).  Claims of a gain should be confirmed on the held-out seed
``HELD_OUT_SEED``, which no tuning used.
"""

import os

# BLAS threads are pinned before numpy loads, in this process and in the set-up probes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
HELD_OUT_SEED = 9001
SETUP_REPEATS = 4  # interpreters timed before the first pass, and 2 after each pass
MIN_PASSES = 3  # operation times are best-of-passes
PROBE_WINDOW = 4  # probes on each side of an operation that set its speed
REFERENCE_PROBE_S = 2.0e-4  # the probe time that defines the reference speed


def setup_seconds(repeats: int) -> list[float]:
    """Wall times of fresh interpreters importing the CLI (numpy included).

    ``setup_s`` is their median over the whole run: the host's speed drifts
    within a run, so the interpreters are spread over it.  The output is
    captured so that the wait for the child ends on its pipes closing;
    without pipes a wait with a timeout polls, in steps of up to 50 ms.
    """
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for _ in range(repeats):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import plasticwalk.cli"], env=env, cwd=ROOT,
                       check=True, timeout=60, capture_output=True)
        times.append(perf_counter() - start)
    return times


def probe() -> float:
    """Seconds taken by a fixed bit of interpreter and small-array numpy work.

    The work runs once untimed first: timed cold, it ran about 9% slower
    after an operation that had swept 16 MiB through the caches, which would
    hide part of a regression that leaves such pressure behind.
    """
    import numpy as np

    for _warm_up in (True, False):
        start = perf_counter()
        acc = 0
        for i in range(1500):
            acc += i % 7
        m = np.full((64, 2, 2), 0.5 + 0.5j)
        for _ in range(3):
            m = m @ m
    return perf_counter() - start


def max_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class PeakWatch:
    """Tells whether the process's peak RSS was set inside a program call.

    The peak never resets, so a rise between calls (an oracle, the probe,
    the runner) would hide the program's own peak under the benchmark's.
    """

    def __init__(self):
        self.baseline = self.seen = self.program = max_rss_mib()
        self.outside_mib = 0.0  # total rise of the peak between program calls

    def enter(self) -> None:
        now = max_rss_mib()
        self.outside_mib += now - self.seen
        self.seen = now

    def leave(self) -> None:
        now = max_rss_mib()
        if now > self.seen:
            self.program = now
        self.seen = now

    def summary(self) -> str:
        self.enter()
        where = "inside a program call" if self.program == self.seen else "OUTSIDE program calls"
        return (f"# peak_rss: {self.seen:.1f} MiB, set {where}; {self.baseline:.1f} MiB before the "
                f"first operation; rises between calls {self.outside_mib:.1f} MiB")


def _timed(op, watch: PeakWatch):
    from workloads import judge

    watch.enter()
    start = perf_counter()
    out = op.call()
    seconds = perf_counter() - start
    watch.leave()
    return (op, seconds, judge(op, out)), out.out_bytes


def run_pass(ops, watch: PeakWatch, tracer=None) -> tuple[list, list, list]:
    """Run every operation once: (plain records, traced records, speeds).

    A record is (op, seconds, failure reason or None).  ``speeds`` holds,
    for each plain record, the host's speed around it: the reference probe
    time over the median of the ``PROBE_WINDOW`` probe times before it and
    the ``PROBE_WINDOW`` after it (a probe runs before each operation and
    after the last).
    With a tracer each operation also runs traced, right before or after
    its plain run (alternating), so both see the same machine state.
    """
    plain, traced, probes = [], [], []

    def run_plain(op):
        probes.append(probe())
        plain.append(_timed(op, watch)[0])

    for i, op in enumerate(ops):
        if tracer is None or i % 2:
            run_plain(op)
        if tracer is not None:
            tracer.op_id = i
            tracer.install()
            try:
                record, out_bytes = _timed(op, watch)
            finally:
                tracer.uninstall()
            traced.append(record)
            tracer.counts["cli.output_bytes"] += out_bytes
            if i % 2 == 0:
                run_plain(op)
        for path in op.cleanup:
            if os.path.exists(path):
                os.remove(path)
    probes.append(probe())
    speeds = [REFERENCE_PROBE_S / statistics.median(
        probes[max(0, i + 1 - PROBE_WINDOW):i + 1 + PROBE_WINDOW]) for i in range(len(plain))]
    return plain, traced, speeds


def l2_size() -> str:
    try:
        return Path("/sys/devices/system/cpu/cpu0/cache/index2/size").read_text().strip()
    except OSError:
        return "unknown"


def report(records, workload: str, seed: int) -> tuple[int, bool]:
    """Print the per-command table and failures; returns (failed, correct)."""
    import numpy as np
    from workloads import failure_kind

    print(f"# workload={workload} seed={seed} held_out_seed={HELD_OUT_SEED} "
          f"python={platform.python_version()} numpy={np.__version__} "
          f"nproc={os.cpu_count()} l2={l2_size()} io=page-cache")
    by_cmd = defaultdict(list)
    for op, seconds, _ in records:
        by_cmd[op.command].append(seconds * 1e3)
    for cmd, ms in sorted(by_cmd.items()):
        fails = sum(1 for op, _, r in records if op.command == cmd and r)
        print(f"#   {cmd:<14} n={len(ms):<5} p50={statistics.median(ms):9.3f} ms "
              f"max={max(ms):9.3f} ms failed={fails}")
    failures = [(op, r) for op, _, r in records if r]
    kinds = Counter((op.command, failure_kind(r), op.known_defect(r)) for op, r in failures)
    for (cmd, kind, known), n in sorted(kinds.items()):
        print(f"#   failed {n:4d} x {cmd} {kind} [{'known defect' if known else 'UNEXPECTED'}]")
    for label, reason, known in sorted({(op.label, r, op.known_defect(r)) for op, r in failures}):
        print(f"#     {label}: {reason}{'' if known else '  [UNEXPECTED]'}")
    correct = all(op.known_defect(r) for op, r in failures)
    return len(failures), correct


def _geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def p90(values) -> float:
    """Harrell-Davis estimate of the 90th percentile.

    A weighted mean of all the order statistics, weighted by the
    Beta(0.9 (n+1), 0.1 (n+1)) distribution, so mostly of the dozen values
    around rank 0.9 n.  The plain percentile reads one or two operations of
    the fixed mix, and so carries their whole timing noise.
    """
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = 0.9 * (n + 1), 0.1 * (n + 1)
    t = np.linspace(0.0, 1.0, 100_001)
    with np.errstate(divide="ignore"):
        log_pdf = (a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t)
    pdf = np.exp(log_pdf - log_pdf[1:-1].max())  # 0 at both ends, as a, b > 1
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2.0)))
    weights = np.diff(np.interp(np.arange(n + 1) / n, t, cdf / cdf[-1]))
    return float(weights @ x)


def end_to_end(passes: list[tuple[list, list]], setup_s: float) -> dict:
    """End-to-end metrics of repeated passes over the same operations.

    Each pass is (records, speeds) as :func:`run_pass` returns them.

    The host's speed drifts with the load of other tenants by far more
    than the bounds, over seconds to minutes, and an operation slows with
    it.  So each operation time is scaled by the speed the probe measured
    around it, giving the time at the reference speed, and then the best
    over the passes is kept.  ``op_p90_ms`` is :func:`p90` of these best
    times.  ``cmd_geomean_ms`` weighs every command
    equally: the geometric mean over commands of each command's
    geometric-mean time; unlike a median it does not jump between the
    discrete cost levels of a fixed mix.  ``ok_ratio`` counts every attempt.
    """
    first = passes[0][0]
    best = [min(records[i][1] * speeds[i] for records, speeds in passes) * 1e3
            for i in range(len(first))]
    by_cmd = defaultdict(list)
    for (op, _, _), ms in zip(first, best):
        by_cmd[op.command].append(ms)
    records = [r for p, _ in passes for r in p]
    failed = sum(1 for *_, reason in records if reason)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(best) / (sum(best) / 1e3), "1/s"),
        "op_p90_ms": (p90(best), "ms"),
        "cmd_geomean_ms": (_geomean(_geomean(v) for v in by_cmd.values()), "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "ok_ratio": ((len(records) - failed) / len(records), "ratio"),
    }


def unscaled_line(passes, setup_s: float) -> str:
    """The wall-time figures the scaled metrics are derived from, for comparison.

    ``closed_loop_ops_per_s`` is operations over the summed operation wall
    times of a pass (median over passes); the others are the end-to-end
    metrics computed without the probe's speed scaling.
    """
    raw = end_to_end([(records, [1.0] * len(records)) for records, _ in passes], setup_s)
    loop = statistics.median(len(records) / sum(s for _, s, _ in records) for records, _ in passes)
    speed = statistics.median(s for _, speeds in passes for s in speeds)
    return (f"# unscaled: closed_loop_ops_per_s={loop:.4f} ops_per_s={raw['ops_per_s'][0]:.4f} "
            f"op_p90_ms={raw['op_p90_ms'][0]:.4f} cmd_geomean_ms={raw['cmd_geomean_ms'][0]:.4f} "
            f"median_speed={speed:.4f}")


def coverage_check(workload: str, shares: dict) -> bool:
    """Each workload must load the layer it was built for; prints the shares."""
    if workload == "kspace_time":
        ok = shares["plastic"] + shares["lattice"] < 1.0
        rule = "plastic + lattice < 1%"
    elif workload == "lattice_snapshots":
        ok = shares["lattice"] > 50.0
        rule = "lattice > 50%"
    else:
        ok = shares["plastic"] > 50.0
        rule = "plastic > 50%"
    pct = " ".join(f"{k}={v:.2f}%" for k, v in shares.items())
    print(f"# coverage ({rule}): {'PASS' if ok else 'FAIL'}  {pct}")
    return ok


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from tracer import Tracer, layer_shares
    from workloads import BUILDERS, PASS_SECONDS

    setup = setup_seconds(SETUP_REPEATS)
    workdir = ROOT / "perfbench" / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        ops = BUILDERS[args.workload](args.seed, str(workdir))
        watch = PeakWatch()
        if args.trace:
            tracer = Tracer()
            plain, traced, _ = run_pass(ops, watch, tracer)
            records = traced + plain
            traced_s = sum(s for _, s, _ in traced)
            metrics = tracer.metrics(traced_s, traced_s / sum(s for _, s, _ in plain))
            failed, correct = report(records, args.workload, args.seed)
            covered = coverage_check(args.workload, layer_shares(tracer.self_times(), traced_s))
            correct = correct and covered
        else:
            n_passes = max(MIN_PASSES, math.ceil(args.seconds / PASS_SECONDS[args.workload]))
            passes = []
            for _ in range(n_passes):
                passes.append(run_pass(ops, watch)[::2])
                setup += setup_seconds(2)
            setup_s = statistics.median(setup)
            records = [r for p, _ in passes for r in p]
            metrics = end_to_end(passes, setup_s)
            print(unscaled_line(passes, setup_s))
            print(watch.summary())
            failed, correct = report(records, args.workload, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()
    print(json.dumps({
        "correct": correct, "attempted": len(records), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    if not (SRC / "plasticwalk" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no plasticwalk sources under {SRC}; "
                         "run from the root of a source checkout\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.exit(main())
