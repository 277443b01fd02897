#!/usr/bin/env python3
"""defkit benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The workload's inputs are generated from
the seed (set up several times; `setup_s` is the median), then the defkit CLI
is invoked again and again, each time in a fresh process, as long as the next
invocation is likely to end within S seconds. Every invocation's outputs are
checked. With `--trace 0` the last line of standard output is a JSON object
with the end-to-end metrics (medians over the invocations; times are scaled
to a reference CPU speed, see `calibrate` and `Command.scaled`); with
`--trace 1` untraced invocations alternate with traced ones (see tracer.py)
and the object holds the per-layer metrics instead. Work files go to `.perfbench_work/` in the
checkout; the last traced invocation's spans and summaries stay in
`.perfbench_work/trace-<workload>/`, one file each per CLI command.

Outputs of the default seed must match the digest stored in digests.json;
`--record-digest` stores it when none is stored. Outputs of other seeds
must match the run's first invocation.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACER = HERE / "tracer.py"
DIGESTS = HERE / "digests.json"

DEFAULT_SEED = 0
# Set up at least SETUP_RUNS times, and more (up to SETUP_MAX_RUNS) until
# SETUP_MIN_S seconds of set-up were timed, so cheap set-ups get a steady median.
SETUP_RUNS = 3
SETUP_MAX_RUNS = 25
SETUP_MIN_S = 1.0
CLI_TIMEOUT_S = 120
# Runs the CLI as its console script would, so manifests record "defkit ...".
BOOT = "import sys; sys.argv[0] = 'defkit'; from defkit.cli import main; raise SystemExit(main())"

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_share": "ratio"}

# Scaled times are seconds on a CPU where `calibrate()` takes REF_CAL_S, about
# its time on a 2.1 GHz Xeon vCPU with CPython 3.11 in the vCPU's fast phases.
REF_CAL_S = 0.020
# CPUs the CLI processes start on, in turn. Left alone, every child starts
# on the CPU the runner sleeps on and stays there, so a slow stretch of that
# one CPU would slow every command of a run.
START_CPUS = itertools.cycle(sorted(os.sched_getaffinity(0)))


def calibrate() -> float:
    """Mean seconds of two runs of a fixed pure-Python kernel (a 300 x 300 LCS table).

    On a shared host the same CPU-bound code runs up to 1.8x slower for
    stretches of seconds to minutes, on one CPU or both. The runner times the
    kernel before and after every command, on the CPU the command starts on,
    and the run's mean timing says how fast the CPUs were during the run. The
    mean, not the median: the CPUs flip between a fast and a slow speed, and
    a command's time follows the share of time spent at each.
    """
    a = [i % 97 for i in range(300)]
    b = [i % 89 for i in range(300)]
    start = time.perf_counter()
    for _ in range(2):
        prev = [0] * (len(b) + 1)
        for x in a:
            cur = [0]
            for j, y in enumerate(b):
                cur.append(prev[j] + 1 if x == y else max(prev[j + 1], cur[j]))
            prev = cur
    return (time.perf_counter() - start) / 2


@contextlib.contextmanager
def on_cpu(cpu: int):
    """Pin the calling thread to one CPU for the block."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


@dataclass
class Command:
    """One defkit command's run."""

    wall: float
    cpu: float  # user + system seconds of the process and its threads
    cals: tuple[float, float]  # calibrate() on its start CPU, before and after
    rss_mb: float
    code: int

    def scaled(self, cal: float) -> float:
        """Wall time with its CPU-busy part scaled from kernel time `cal` to REF_CAL_S.

        Waiting (on the stand-in, the disk or the interpreter lock) is kept
        as measured.
        """
        busy = min(self.cpu, self.wall)
        return self.wall - busy + busy * REF_CAL_S / cal


def run_cli(cwd: Path, argv: list[str], log: Path, trace_to: tuple[Path, Path] | None = None) -> Command:
    """One defkit command in a fresh process, started on the next CPU of START_CPUS.

    The calling thread is pinned while it forks, so the child execs on that
    CPU; then the child gets every CPU back and the scheduler may move it or
    run its threads elsewhere, as for any process.
    """
    if trace_to is None:
        cmd = [sys.executable, "-c", BOOT, *argv]
    else:
        cmd = [sys.executable, str(TRACER), str(trace_to[0]), str(trace_to[1]), "--", *argv]
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    cpu = next(START_CPUS)
    with log.open("ab") as fh:
        with on_cpu(cpu):
            before = calibrate()
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=fh, stderr=fh)
        try:
            os.sched_setaffinity(proc.pid, os.sched_getaffinity(0))
        except OSError:
            pass  # it has already exited
        timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with on_cpu(cpu):
        after = calibrate()
    return Command(wall, usage.ru_utime + usage.ru_stime, (before, after), usage.ru_maxrss / 1024, proc.returncode)


@dataclass
class Invocation:
    """One timed invocation: every command of the workload, in order."""

    commands: list[Command]
    summaries: list[dict]

    def scaled(self, cal: float) -> float:
        return sum(c.scaled(cal) for c in self.commands)

    @property
    def rss_mb(self) -> float:
        return max(c.rss_mb for c in self.commands)

    @property
    def codes(self) -> list[int]:
        return [c.code for c in self.commands]


def invoke(cwd: Path, commands: list[list[str]], log: Path, trace_dir: Path | None = None) -> Invocation:
    done, summaries = [], []
    for i, argv in enumerate(commands):
        trace_to = None
        if trace_dir is not None:
            trace_to = (trace_dir / f"spans{i}.jsonl", trace_dir / f"summary{i}.json")
        done.append(run_cli(cwd, argv, log, trace_to))
        if trace_to is not None and trace_to[1].exists():
            summaries.append(json.loads(trace_to[1].read_text()))
    return Invocation(done, summaries)


def checked(workload, cwd: Path, inv: Invocation) -> list[tuple[str, str | None]]:
    """The workload's output checks plus one unit per command's exit code."""
    try:
        units = workload.check(cwd)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        units = [("outputs", f"unreadable: {exc!r}")]
    for argv, code in zip(workload.commands(), inv.codes):
        units.append((f"exit:{argv[0]}", None if code == 0 else f"exited with {code}"))
    return units


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digest", action="store_true")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through the `finally` blocks that stop the CLI
    # process and the stand-in.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "defkit" / "cli.py").is_file():
        print(f"error: no defkit sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import defkit

    if Path(defkit.__file__).resolve().parent != SRC / "defkit":
        print(f"error: imported defkit from {defkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import layers
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 64
    workload = WORKLOADS[args.workload](args.seed)
    base = WORK / f"{args.workload}-seed{args.seed}"
    if base.exists():
        shutil.rmtree(base)
    base.mkdir(parents=True)
    log = base / "cli.log"

    # calibrate() timings of the set-ups and of the timed phase
    setup_cals: list[float] = []
    cals: list[float] = []

    def run_commands(cwd: Path, commands: list[list[str]]) -> int:
        result = invoke(cwd, commands, log)
        setup_cals.extend(c for command in result.commands for c in command.cals)
        return max(result.codes, key=abs)

    problems: list[str] = []
    attempted = failed = 0
    untraced: list[Invocation] = []
    traced: list[Invocation] = []
    per_layer: list[dict[str, float]] = []
    trace_dir = WORK / f"trace-{args.workload}"
    try:
        setup_s: list[float] = []
        cwd = base / "setup"
        while len(setup_s) < SETUP_RUNS or (
            sum(setup_s) < SETUP_MIN_S and len(setup_s) < SETUP_MAX_RUNS
        ):
            workload.close()
            if cwd.exists():
                shutil.rmtree(cwd)
            cwd.mkdir()
            with on_cpu(next(START_CPUS)):
                setup_cals.append(calibrate())
            start = time.perf_counter()
            workload.setup(cwd, run_commands)
            setup_s.append(time.perf_counter() - start)

        digests = load_digests()
        reference = digests.get(args.workload) if args.seed == DEFAULT_SEED else None
        deadline = time.perf_counter() + args.seconds
        while True:
            tracing = args.trace == 1 and len(untraced) > len(traced)
            if tracing:
                shutil.rmtree(trace_dir, ignore_errors=True)
                trace_dir.mkdir()
            started = time.perf_counter()
            workload.prepare(cwd)
            inv = invoke(cwd, workload.commands(), log, trace_dir if tracing else None)
            units = checked(workload, cwd, inv)
            digest = workload.digest(cwd)
            if reference is None:
                reference = digest  # every later invocation must reproduce the first
                if args.record_digest and args.seed == DEFAULT_SEED and not any(p for _, p in units):
                    digests[args.workload] = digest
                    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
            units.append(("digest", None if digest == reference else "outputs differ from the reference digest"))
            attempted += len(units)
            for unit, problem in units:
                if problem is not None:
                    failed += 1
                    problems.append(f"{unit}: {problem}")
            cals.extend(c for command in inv.commands for c in command.cals)
            if not tracing:
                untraced.append(inv)
            else:
                traced.append(inv)
                stand_in = workload.standin.counters() if workload.standin else None
                per_layer.append(
                    layers.layer_metrics(
                        layers.merge(inv.summaries), stand_in, workload.backend_requests(cwd) or 0
                    )
                )
            # Start no invocation that would likely end after the deadline.
            now = time.perf_counter()
            if now + (now - started) >= deadline and (args.trace == 0 or traced):
                break
    finally:
        workload.close()
        shutil.rmtree(base, ignore_errors=True)

    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    cal = statistics.fmean(cals)
    if args.trace:
        metrics = {
            name: statistics.median(m[name] for m in per_layer)
            for name in per_layer[0]
        }
        metrics["trace.overhead_s"] = (
            statistics.median(i.scaled(cal) for i in traced)
            - statistics.median(i.scaled(cal) for i in untraced)
        )
        unit_of = layers.UNITS
    else:
        metrics = {
            "wall_s": statistics.median(i.scaled(cal) for i in untraced),
            # Set-up is CPU-bound throughout, so all of it is scaled.
            "setup_s": statistics.median(setup_s) * REF_CAL_S / statistics.fmean(setup_cals),
            "peak_rss_mb": statistics.median(i.rss_mb for i in untraced),
            "ok_share": (attempted - failed) / attempted,
        }
        unit_of = END_TO_END_UNITS
    print(f"{args.workload} seed={args.seed}: {len(untraced)} untraced, {len(traced)} traced invocations")
    print(f"  calibration ms: set-up mean {statistics.fmean(setup_cals) * 1000:.2f}, "
          f"timed mean {cal * 1000:.2f} of", [round(c * 1000, 1) for c in cals])
    print("  raw set-up s:", [round(x, 3) for x in setup_s])
    print("  raw (wall, cpu) s per command:",
          [[(round(c.wall, 3), round(c.cpu, 3)) for c in i.commands] for i in untraced])
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit_of[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
