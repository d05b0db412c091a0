"""End-to-end benchmark of the ``altforms`` commands.

    python3 perfbench/run.py --workload golden --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20

One process runs one workload as a closed loop with one caller: each
operation is an in-process ``altforms.cli.main(argv)`` call on generated
input files, followed by a check of its JSON output (see workloads.py).
Whole rounds of the same commands run until ``--seconds`` have passed.
Times are reported on a reference host: a fixed unit of work, timed on a
timer all through the run, measures how fast the host ran meanwhile (see
HostSpeed).

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of spans.py.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  ``--workload all``
runs every workload untraced and traced, each in a child process, and prints
a table.  See README.md for the workloads, metrics and reference figures.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import os  # noqa: E402

# One thread everywhere: BLAS pools would otherwise compete with the two
# cores the measurements share, and ALTFORMS_THREADS would change the search.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("ALTFORMS_THREADS", None)

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUP_SAMPLES = 3
# Period of the reference unit, and its time on the reference host (see HostSpeed).
REF_INTERVAL_S = 0.02
REF_UNIT_MS = 0.75
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("peak_rss_mb", "MB"))


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "altforms", "cli.py")):
        raise SystemExit(f"perfbench: no altforms sources under {SRC}")
    sys.path.insert(0, SRC)
    from altforms import cli
    from sympy import factorint  # noqa: F401  (lazy import inside scalars)
    import numpy  # noqa: F401
    return cli


class HostSpeed:
    """Fixed reference work, run on a timer all through a run, that scales
    measured times to a reference host.

    The host's speed drifts by up to a factor of two, in spells of ms to
    minutes (see README.md), and a run cannot average that out.  Every
    REF_INTERVAL_S of wall time a SIGALRM handler, in the one thread that
    runs the program, times one unit of work that never changes with the
    program (exact Fraction products and dict updates, pure Python like the
    program's hot paths).  The units that ran inside an interval measure
    the host's speed during it: ``scaled`` takes their time out of the
    interval and divides the rest by their mean time over REF_UNIT_MS."""

    def __init__(self):
        self.A = [[Fraction((7 * i + 3 * j) % 11 - 5, 1 + (i + j) % 4) for j in range(5)]
                  for i in range(5)]
        self.starts = []
        self.durations = []

    def _unit(self, signum, frame):
        A = self.A
        gc_was_on = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        X = [[sum(A[i][t] * A[t][j] for t in range(5)) for j in range(5)] for i in range(5)]
        d = {}
        for i in range(150):
            d[i % 13] = d.get(i % 13, 0.5) * 1.0001 + i
        dt = time.perf_counter() - t0
        if gc_was_on:
            gc.enable()
        self.starts.append(t0)
        self.durations.append(dt)
        return X, d

    def start(self):
        signal.signal(signal.SIGALRM, self._unit)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, t0, t1):
        """Seconds the interval [t0, t1] of program work would take on the
        reference host.  An interval too short to hold a unit is scaled by
        the units just before and after it."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        inside = self.durations[lo:hi]
        near = inside or self.durations[max(lo - 1, 0):lo + 1]
        if not near:
            return t1 - t0
        return (t1 - t0 - sum(inside)) * REF_UNIT_MS / (1000 * statistics.mean(near))

    def slowdown(self, since=0.0):
        """Mean time of the units from `since` on, over REF_UNIT_MS."""
        d = self.durations[bisect.bisect_left(self.starts, since):]
        return 1000 * statistics.mean(d) / REF_UNIT_MS if d else 1.0


HOST = HostSpeed()


class Runner:
    """Runs ops in-process and checks each distinct output once."""

    def __init__(self, cli):
        self.cli = cli
        self.checked = {}
        self.wall = []  # measured latency of every call, in seconds

    def call(self, op):
        """(start, end, exit code, stdout, error text) of one command."""
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(list(op.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # an uncaught exception is a failed operation
                code = None
                err.write(f"{type(exc).__name__}: {exc}")
        t1 = time.perf_counter()
        self.wall.append(t1 - t0)
        return t0, t1, code, out.getvalue(), err.getvalue()

    def verdict(self, op, code, stdout, stderr):
        """None if the operation succeeded and its output checks, else the reason."""
        if code != 0:
            return f"exit code {code}: {stderr.strip()[-300:]}"
        key = (tuple(op.argv), stdout)
        if key not in self.checked:
            try:
                op.check(json.loads(stdout))
                self.checked[key] = None
            except (workloads.CheckError, ValueError, KeyError, TypeError, IndexError,
                    AttributeError, ArithmeticError) as exc:
                # a malformed output fails the operation, not the benchmark
                self.checked[key] = f"{type(exc).__name__}: {exc}"
        return self.checked[key]


def set_up(workload, seed, workdir):
    """Import, input generation, file writing and warm-up; returns (cli, ops, runner)."""
    cli = _import_program()
    os.makedirs(workdir, exist_ok=True)
    ops = workloads.build(workload, seed, workdir)
    runner = Runner(cli)
    # warm-up: the first op of each command, so first-call costs stay out of the timed phase
    seen = set()
    for op in ops:
        if op.command not in seen:
            seen.add(op.command)
            runner.call(op)
    return cli, ops, runner


def _setup_child(workload, seed):
    """Set-up time of a fresh process (interpreter start excluded), in
    reference-host seconds."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
           "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: setup child failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def timed_phase(runner, ops, seconds, on_op=None):
    """Whole rounds until `seconds` have passed.

    Returns (rounds, attempted, failures): rounds[r][i] is the latency of op i
    in round r in reference-host seconds, or None if it failed."""
    rounds, failures = [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        lat = []
        for op in ops:
            if on_op:
                on_op(op)
            t0, t1, code, stdout, stderr = runner.call(op)
            why = runner.verdict(op, code, stdout, stderr)
            lat.append((t0, t1) if why is None else None)
            if why is not None:
                failures.append(f"{' '.join(op.argv[:2])}: {why}")
        rounds.append(lat)
    # scaled once the units after the last operation have run
    time.sleep(2 * REF_INTERVAL_S)
    rounds = [[HOST.scaled(*iv) if iv else None for iv in lat] for lat in rounds]
    return rounds, len(rounds) * len(ops), failures


def median_round_rate(rounds):
    """Commands of a round over the time of a median round (each command's
    median latency over the rounds, summed): a burst of contention from
    outside the process moves it little."""
    per_op = [[lat[i] for lat in rounds if lat[i] is not None] for i in range(len(rounds[0]))]
    per_op = [statistics.median(ts) for ts in per_op if ts]
    return len(per_op) / sum(per_op) if per_op else 0.0


def end_to_end(rounds, setup):
    ok = [t for lat in rounds for t in lat if t is not None]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"setup_s": statistics.median(setup),
            "ops_per_s": median_round_rate(rounds),
            "op_p50_ms": 1000 * statistics.median(ok) if ok else 0.0,
            "peak_rss_mb": rss_kb / 1024.0}


def run_workload(args):
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    try:
        cli, ops, runner = set_up(args.workload, args.seed, workdir)
        setup = [HOST.scaled(_T_START, time.perf_counter())]
        if args.setup_only:
            print(setup[0])
            return 0
        if not args.trace:
            HOST.stop()
            setup += [_setup_child(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
            HOST.start()
        timed_start = time.perf_counter()
        if args.trace:
            import spans
            tracer = spans.Tracer()
            tracer.install()
            rounds, attempted, failures = timed_phase(runner, ops, args.seconds,
                                                      on_op=tracer.begin_op)
            # one more round of the searches alone, with two threads
            tracer.phase = "threads2"
            replay = [workloads.Op(op.argv + ["--threads", "2"], op.check)
                      for op in ops if op.command == "approximate"]
            if replay:
                _, replayed, replay_failures = timed_phase(runner, replay, 0,
                                                           on_op=tracer.begin_op)
                attempted += replayed
                failures += replay_failures
            units = dict(spans.per_layer_metrics())
            # span times are wall times: scale them by the mean slowdown of the phase
            k = HOST.slowdown(since=timed_start)
            values = {name: v / k if units[name] == "ms" else v
                      for name, v in tracer.metrics(len(ops), median_round_rate(rounds)).items()}
            tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"))
        else:
            rounds, attempted, failures = timed_phase(runner, ops, args.seconds)
            values = end_to_end(rounds, setup)
            units = dict(END_TO_END)
        metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for why in failures[:10]:
        print(f"failed: {why}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:14.6g} {m['unit']}")
    print(f"{'host slowdown':28s} {HOST.slowdown(since=timed_start):14.6g}"
          " (reference unit time over its reference value)")
    print(f"{'attempted':28s} {attempted:14d}\n{'failed':28s} {len(failures):14d}")
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(dict(result, commands=[op.argv for op in ops], rounds=rounds,
                       setup_samples=setup, wall=runner.wall,
                       host_units=[HOST.starts, HOST.durations]), fh)
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload untraced and traced, each run in its own child process."""
    results = {}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{workload} (trace {trace}) exited with {proc.returncode}")
                return 1
            results[workload, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{'workload':14s} " + " ".join(f"{n + ' (' + u + ')':>18s}" for n, u in END_TO_END)
          + f" {'trace.ops_per_s':>16s} {'overhead':>9s} {'attempted':>10s} {'failed':>7s}")
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        plain, traced = results[workload, 0], results[workload, 1]
        m = plain["metrics"]
        traced_ops = traced["metrics"]["trace.ops_per_s"]["value"]
        overhead = m["ops_per_s"]["value"] / traced_ops - 1 if traced_ops else float("nan")
        print(f"{workload:14s} " + " ".join(f"{m[n]['value']:18.4g}" for n, _ in END_TO_END)
              + f" {traced_ops:16.4g} {overhead:9.1%} {plain['attempted']:10d}"
              f" {plain['failed']:7d}")
        for r in (plain, traced):
            combined["correct"] &= r["correct"]
            combined["attempted"] += r["attempted"]
            combined["failed"] += r["failed"]
        for name, v in list(m.items()) + list(traced["metrics"].items()):
            combined["metrics"][f"{workload}.{name}"] = v
    print(json.dumps(combined))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true", dest="setup_only",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    HOST.start()
    try:
        return run_workload(args)
    finally:
        HOST.stop()


if __name__ == "__main__":
    sys.exit(main())
