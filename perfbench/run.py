#!/usr/bin/env python3
"""pnrchan benchmark: the CLI end to end, or its layers from one traced run.

Run from the repository root:

    python3 perfbench/run.py --workload paper --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics: fresh interpreters importing
``pnrchan.cli``, then the workload's commands as ``pnrchan`` subprocesses,
round after round (closed loop, one client, one worker).  Every timed
subprocess is bracketed by a fixed reference kernel, and its time is scaled
to a fixed host speed (see ``REFERENCE_S``).  ``--trace 1`` measures the
per-layer metrics instead: the same command list runs through
``pnrchan.cli.main`` in this interpreter after an untimed warm-up pass,
untraced and traced passes alternate, and ``python -X importtime`` gives the
import breakdown.  Every command's outputs are checked after every run.  The
report goes to stdout; its last line is one JSON object with the
metrics named in BENCHMARK.json.  A full record, with every sample and (for
traced runs) every span, is written under ``.perfbench/``.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy
import scipy

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
# What the installed ``pnrchan`` console script runs, plus an exit hook that
# writes the process's peak RSS (VmHWM) to the file named by the first
# argument.  A child's ru_maxrss is no use: Linux carries the parent's peak RSS
# into it across fork and exec, and the benchmark's own peak can be the larger.
ENTRY = ("import atexit, sys\n"
         "def record_peak(path=sys.argv.pop(1)):\n"
         "    with open('/proc/self/status') as status, open(path, 'w') as out:\n"
         "        out.write(next(line for line in status if line.startswith('VmHWM:')))\n"
         "atexit.register(record_peak)\n"
         "from pnrchan.cli import main\n"
         "sys.exit(main())\n")
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
IN_PROCESS_TURN_S = 0.5
RUN_LIMIT_S = 170.0


# The speed of a shared host drifts by up to about 1.5x over tens of seconds,
# for any fixed code alike.  Each timed subprocess is therefore bracketed by
# runs of a fixed reference kernel, and its time t is reported as
# t * REFERENCE_S / r, with r the mean of the two bracketing kernel times: the
# time the command would take on a host where the kernel takes REFERENCE_S.
# The kernel is the benchmark's own code, so a change to the program moves t
# but not r.  REFERENCE_S is about the kernel's time on a 2-vCPU Xeon VM.
REFERENCE_S = 0.25
REFERENCE_DATA = numpy.random.default_rng(0).random(1 << 18)


def reference_seconds():
    """Wall time of a fixed mix of interpreter work, numpy work and fresh memory."""
    start = time.perf_counter()
    tally = {}
    for i in range(800_000):
        key = i % 1009
        tally[key] = tally.get(key, 0) + i
    for _ in range(40):
        numpy.sort(REFERENCE_DATA)
        numpy.exp(REFERENCE_DATA).sum()
    for _ in range(6):
        numpy.ones(1 << 22).sum()
    return time.perf_counter() - start


def child_env():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PNRCHAN_WORKERS", None)
    return env


def run_child(argv, stderr_path, deadline):
    """Run one subprocess; return (seconds, exit code)."""
    with open(stderr_path, "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=stderr)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        timer.start()
        try:
            code = proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
    return elapsed, code


def run_in_process(argv):
    """Call ``pnrchan.cli.main(argv)``; return (seconds, exit code or error text)."""
    main = sys.modules["pnrchan.cli"].main
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(argv)
    except Exception as exc:  # a crash is a failed command, not a benchmark error
        code = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, code


class Bench:
    """One benchmark run: the workload, its checks and every sample taken."""

    def __init__(self, workload, seconds, rundir):
        self.workload = workload
        self.seconds = seconds
        self.rundir = rundir
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first_outputs = {}  # command name -> (digest, problems found in it)
        self.rss_mb = []
        self.references = []

    def bracketed(self, argv, stderr_path):
        """Run one subprocess between two reference-kernel runs.

        Returns (seconds, seconds scaled to the reference speed, exit code).
        The kernel run after one subprocess is also the one before the next.
        """
        if not self.references:
            self.references.append(reference_seconds())
        elapsed, code = run_child(argv, stderr_path, self.deadline)
        self.references.append(reference_seconds())
        scale = REFERENCE_S / statistics.fmean(self.references[-2:])
        return elapsed, elapsed * scale, code

    def verify(self, command, code, how):
        """Check one command run; a non-zero exit or a failed check is a failure."""
        self.attempted += 1
        problems = [f"exit {code}"] if code != 0 else self._output_problems(command)
        if problems:
            self.failed += 1
            self.problems += [f"{command.name} ({how}): {p}" for p in problems]

    def _output_problems(self, command):
        try:
            digest = hashlib.sha256(b"".join(Path(p).read_bytes() for p in command.outputs))
            if command.name not in self.first_outputs:
                self.first_outputs[command.name] = (digest.digest(), self.workload.check(command))
        except Exception as exc:  # missing or malformed output is a failed run
            return [f"unreadable output: {type(exc).__name__}: {exc}"]
        first_digest, problems = self.first_outputs[command.name]
        if digest.digest() != first_digest:
            return ["output bytes differ from the first run of this command"]
        return problems

    def subprocess_run(self, command):
        """Run one command as a subprocess: (seconds, scaled seconds)."""
        stderr_path = self.rundir / f"{command.name}.stderr"
        peak_path = self.rundir / f"{command.name}.peak"
        elapsed, scaled, code = self.bracketed(
            [sys.executable, "-c", ENTRY, str(peak_path), *command.argv], stderr_path)
        if code == 0:
            self.rss_mb.append(int(peak_path.read_text().split()[1]) / 1024.0)  # kB
        else:
            code = f"{code}: {stderr_path.read_text()[-400:]}"
        self.verify(command, code, "subprocess")
        return elapsed, scaled

    def library_pass(self, tracer=None, how="library"):
        times = {}
        for command in self.workload.commands:
            if tracer is not None:
                tracer.command = command.name
            times[command.name], code = run_in_process(command.argv)
            self.verify(command, code, how)
        gc.collect()
        return times

    def setup_samples(self):
        """Fresh interpreters importing ``pnrchan.cli``: [(seconds, scaled), ...]."""
        samples = []
        for _ in range(SETUP_REPEATS):
            elapsed, scaled, code = self.bracketed([sys.executable, "-c", "import pnrchan.cli"],
                                                   self.rundir / "setup.stderr")
            if code != 0:
                raise SystemExit(f"perfbench: importing pnrchan.cli failed: "
                                 f"{(self.rundir / 'setup.stderr').read_text()[-400:]}")
            samples.append((elapsed, scaled))
        return samples

    def alternate(self, passes):
        """Take turns between the passes until the run time is spent.

        Each pass gets at least one turn.  After that, the next turn goes to
        the pass with the fewest turns so far among those whose last turn
        still fits in the time left.  A turn returns a list of samples.
        """
        results = {name: [] for name in passes}
        turns = {name: 0 for name in passes}
        last = {}
        start = time.perf_counter()
        while True:
            left = self.seconds - (time.perf_counter() - start)
            due = ([name for name in passes if name not in last]
                   or [name for name in passes if last[name] <= left])
            if not due:
                return results
            name = min(due, key=turns.get)
            began = time.perf_counter()
            results[name] += passes[name]()
            last[name] = time.perf_counter() - began
            turns[name] += 1


def repeated(one_pass):
    """A turn of in-process passes: repeat until IN_PROCESS_TURN_S has passed."""
    def turn():
        samples = []
        start = time.perf_counter()
        while not samples or time.perf_counter() - start < IN_PROCESS_TURN_S:
            samples.append(one_pass())
        return samples
    return turn


def tail_percentile(samples):
    """The highest tail percentile with at least ten samples above it."""
    ordered = sorted(samples)
    for p in (99.9, 99, 95, 90, 80, 75):
        rank = math.ceil(p / 100.0 * len(ordered))
        if len(ordered) - rank >= 10:
            return f"p{p:g}", ordered[rank - 1]
    return None


def describe(samples, unit):
    """Median, tail percentile and sample count, as printed in the report."""
    tail = tail_percentile(samples)
    tail_text = f"{tail[0]} {tail[1]:.4f} {unit}" if tail else "no percentile with 10 samples above"
    return f"median of n={len(samples)}; {tail_text}"


def import_breakdown():
    """Import times from ``python -X importtime -c 'import pnrchan.cli'``, in seconds."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import pnrchan.cli"],
                          cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=60, check=True)
    cumulative = {}
    pnrchan_self = 0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        name = name.strip()
        cumulative.setdefault(name, int(cumulative_us))
        if name == "pnrchan" or name.startswith("pnrchan."):
            pnrchan_self += int(self_us)
    return {
        "import.total_s": cumulative["pnrchan.cli"] / 1e6,
        "import.numpy_s": cumulative.get("numpy", 0) / 1e6,
        "import.scipy.special_s": cumulative.get("scipy.special", 0) / 1e6,
        "import.scipy.stats_s": cumulative.get("scipy.stats", 0) / 1e6,
        "import.scipy.integrate_s": cumulative.get("scipy.integrate", 0) / 1e6,
        "import.pnrchan_self_s": pnrchan_self / 1e6,
    }


def _sha256_tree(directory):
    digest = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*")
                       if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(directory)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def _cpu_model():
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    return platform.processor() or None


def environment(seed):
    return {
        "nproc": os.cpu_count(), "cpu": _cpu_model(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "commit": _commit(),
        "src_sha256": _sha256_tree(SRC / "pnrchan"), "seed": seed,
    }


def measure_end_to_end(bench):
    """Set-up samples, then the commands in turn as subprocesses for the run time.

    Every command runs at least once.  The loop stops at the first command
    whose previous run (with its reference kernel) no longer fits in the time
    left.
    """
    setup = bench.setup_samples()
    commands = bench.workload.commands
    runs = {c.name: [] for c in commands}
    last = {}
    start = time.perf_counter()
    for command in itertools.cycle(commands):
        left = bench.seconds - (time.perf_counter() - start)
        if command.name in last and last[command.name] > left:
            break
        began = time.perf_counter()
        runs[command.name].append(bench.subprocess_run(command))
        last[command.name] = time.perf_counter() - began
    raw = {name: [t for t, _ in values] for name, values in runs.items()}
    scaled = {name: [t for _, t in values] for name, values in runs.items()}
    command_medians = {name: statistics.median(values) for name, values in scaled.items()}
    metrics = {"setup_s": statistics.median(s for _, s in setup),
               "wall_s": sum(command_medians.values())}
    labels = {"wall_s": "wall_s"}
    for stage, stage_name in enumerate(bench.workload.stage_names, start=1):
        name = f"stage{stage}_wall_s"
        metrics[name] = sum(command_medians[c.name] for c in commands if c.stage == stage)
        labels[name] = f"{stage_name} ({name})"
    metrics["peak_rss_mb"] = max(bench.rss_mb, default=0.0)
    lines = [f"reference kernel {statistics.median(bench.references):.4f} s "
             f"({describe(bench.references, 's')}); times below are scaled to {REFERENCE_S} s",
             f"{'setup_s':<36} {metrics['setup_s']:10.4f} s   "
             f"{describe([s for _, s in setup], 's')}; "
             f"unscaled {statistics.median(t for t, _ in setup):.4f} s"]
    lines += [f"{label:<36} {metrics[name]:10.4f} s   sum of the per-command medians below"
              for name, label in labels.items()]
    lines.append(f"{'peak_rss_mb':<36} {metrics['peak_rss_mb']:10.1f} MB  "
                 f"max over {len(bench.rss_mb)} subprocesses")
    for command in commands:
        lines.append(f"  command {command.name:<10} {command_medians[command.name]:.4f} s "
                     f"({describe(scaled[command.name], 's')}), "
                     f"unscaled {statistics.median(raw[command.name]):.4f} s")
    samples = {"setup_s": setup, "subprocess": {name: list(zip(raw[name], scaled[name]))
                                                for name in raw},
               "reference_s": bench.references}
    return metrics, lines, samples


def measure_layers(bench):
    """Alternate untraced and traced in-process passes; derive per-layer metrics."""
    bench.library_pass(how="warm-up")
    tracers = []

    def traced_pass():
        tracer = spans.Tracer()
        tracers.append(tracer)
        with spans.installed(tracer):
            return bench.library_pass(tracer, how="traced")

    results = bench.alternate({"untraced": repeated(bench.library_pass),
                               "traced": repeated(traced_pass)})
    per_pass = [spans.pass_metrics(t.spans) for t in tracers]
    metrics = {}
    for name in per_pass[0]:
        values = [p[name] for p in per_pass]
        metrics[name] = values[0] if len(set(values)) == 1 else statistics.median(values)
    durations = [(s.end - s.start) * 1e3 for t in tracers for s in t.spans
                 if s.name == "security.security_report_for"]
    tail = tail_percentile(durations)
    metrics["security.security_report_for.p50_ms"] = statistics.median(durations) if durations else 0.0
    metrics["security.security_report_for.phi_ms"] = tail[1] if tail else max(durations, default=0.0)
    imports = [import_breakdown() for _ in range(IMPORTTIME_REPEATS)]
    metrics.update({name: statistics.median(i[name] for i in imports) for name in imports[0]})
    untraced = [sum(p.values()) for p in results["untraced"]]
    traced = [sum(p.values()) for p in results["traced"]]
    metrics["cli.main.lib_s"] = statistics.median(untraced)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0

    unattributed = [spans.command_unattributed(t.spans) for t in tracers]
    lines = [f"untraced in-process pass {statistics.median(untraced):.4f} s "
             f"({describe(untraced, 's')}), traced {statistics.median(traced):.4f} s "
             f"({describe(traced, 's')})",
             f"security_report_for per call: {describe(durations, 'ms') if durations else 'no calls'}"]
    for command in bench.workload.commands:
        plain = statistics.median(p[command.name] for p in results["untraced"])
        with_spans = statistics.median(p[command.name] for p in results["traced"])
        lines.append(f"  command {command.name:<10} trace.overhead_frac {with_spans / plain - 1.0:+.4f}"
                     f"  trace.unattributed_frac "
                     f"{statistics.median(u[command.name] for u in unattributed):.4f}")
    span_log = [dict(s.as_dict(), traced_pass=i) for i, t in enumerate(tracers) for s in t.spans]
    return metrics, lines, {"spans": span_log}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pnrchan" / "cli.py").is_file():
        sys.exit(f"perfbench: no pnrchan sources under {SRC}; run from a full checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    sys.path.insert(0, str(SRC))
    os.environ.pop("PNRCHAN_WORKERS", None)
    import pnrchan.cli  # noqa: F401  (the in-process passes call pnrchan.cli.main)

    if Path(sys.modules["pnrchan"].__file__).resolve().parent != SRC / "pnrchan":
        sys.exit(f"perfbench: imported pnrchan from {sys.modules['pnrchan'].__file__}, not {SRC}")

    WORK.mkdir(exist_ok=True)
    rundir = WORK / f"run-{os.getpid()}"
    rundir.mkdir()
    try:
        env = environment(args.seed)
        env["loadavg_before"] = os.getloadavg()
        workload = workloads.WORKLOADS[args.workload](args.seed, rundir)
        workload.prepare()
        bench = Bench(workload, args.seconds, rundir)
        if args.trace:
            metrics, lines, extra = measure_layers(bench)
        else:
            metrics, lines, extra = measure_end_to_end(bench)
        env["loadavg_after"] = os.getloadavg()
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        sys.exit(f"perfbench: no value for declared metrics {missing}")
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    record = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(
        {"environment": env, "inputs": workload.inputs, "result": result,
         "problems": bench.problems, **extra}, default=list) + "\n")

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    print(f"environment {json.dumps(env)}")
    print(f"inputs {json.dumps(workload.inputs)}")
    print(*lines, sep="\n")
    if args.trace:
        for m in declared:
            print(f"{m['name']:<48} {metrics[m['name']]:14.6g} {m['unit']}")
    print(f"{'fail_frac':<36} {bench.failed / bench.attempted:10.4f} ratio "
          f"({bench.failed} of {bench.attempted} command runs failed)")
    for problem in bench.problems[:20]:
        print(f"FAILED {problem}")
    print(f"record {record.relative_to(ROOT)}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
