"""End-to-end and per-layer benchmark of the iterwreath CLI.

    python3 benchmarks/run.py --workload battery --seed 1 --seconds 55 --trace 0

Run from the root of a source tree.  Every workload command runs as a fresh
`python -m iterwreath.cli ... --format json` process against `src/`
(through PYTHONPATH, no install step), in closed loops of passes until
`--seconds` are used up.  Each stdout is compared byte for byte with the
reference captured in `benchmarks/reference/`.

`--trace 0` reports the end-to-end metrics.  It runs one closed loop (a
lane) per CPU the process may use, at most two, each pinned to its own CPU
and running one child at a time.  On a shared host each CPU's speed drifts
on its own, by up to 2x over seconds to minutes, so two lanes measure twice
the work in the same time and average the two CPUs' drift.  The drift that
is left is taken out by a fixed stdlib-only speed probe, timed on the lane's
CPU just before and just after each pass: every time of the pass (wall, CPU,
set-up) is scaled by PROBE_REF_MS over the mean of the two probes, so the
end-to-end times read as seconds on a host where the probe takes
PROBE_REF_MS.  The unscaled medians and every probe are printed as context.

`--trace 1` runs the element microbenchmarks, then alternates untraced
passes with passes in which every command runs under `benchmarks/tracing.py`,
one child at a time, and reports the per-layer metrics (unscaled).

The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the lines before it are comments that give every
metric with its unit and sample count, and the run record.

    python3 benchmarks/run.py --write-reference

recaptures the reference outputs from the current `src/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

from tracing import aggregate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference"
TRACER = HERE / "tracing.py"
MICROBENCH = HERE / "microbench.py"
WORK = ROOT / ".bench_build" / "iterwreath-trace"

WORKLOADS = {
    "battery": [["verify-all", "--allow-large", "--seed", "{seed}"]],
    # every endo-module command: the tensor and end bases reach treegroup
    # through the word-split path, the opposite check and power table are
    # exact-rational algebra products over elements that already exist
    "endo": [["end-basis", "3", "2", "2"], ["end-basis", "3", "1", "1"],
             ["end-basis", "2", "2", "2"], ["end-basis", "3", "3", "3"],
             ["tensor-basis", "3", "2", "2"], ["opposite-check", "1", "2"],
             ["opposite-check", "2", "1"], ["power-table", "3", "3"]],
}
REFERENCE_SEED = 2024
MAX_LANES = 2
PROBE_REF_MS = 100.0  # host speed that end-to-end times are scaled to
SETUP_PER_PASS = 2  # set-up probes before each pass, spread over the run
COLD_REPEATS = 3
DEADLINE_S = 165.0  # a run ends before the harness's 180 s limit
SETUP_CODE = "import iterwreath.cli as c; c.build_parser()"


class Invocation:
    """One finished child process: its outputs and resource use."""

    def __init__(self, argv, deadline):
        self.argv = argv
        env = dict(os.environ, PYTHONPATH=str(SRC))
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        err = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        lock = threading.Lock()
        state = {"exited": False, "killed": False}

        def kill():
            with lock:
                if not state["exited"]:
                    os.kill(proc.pid, signal.SIGKILL)
                    state["killed"] = True

        timer = threading.Timer(max(0.0, deadline - time.monotonic()), kill)
        timer.start()
        try:
            self.stdout = proc.stdout.read()
            # wait without reaping, so the timer cannot signal a reused pid
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            self.wall = time.perf_counter() - start
            with lock:
                state["exited"] = True
        finally:
            timer.cancel()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            reader.join()
            proc.stdout.close()
            proc.stderr.close()
        self.code = proc.returncode
        self.timed_out = state["killed"]
        self.stderr = err[0] if err else b""
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB

    def failure(self, expected=None):
        """Why this invocation failed, or None."""
        if self.timed_out:
            return "timeout"
        if self.code != 0:
            tail = self.stderr.decode(errors="replace").strip().splitlines()[-1:]
            return f"exit code {self.code} {tail}"
        if expected is None:
            return None
        try:
            verdict = json.loads(self.stdout)["verdict"]
        except (ValueError, KeyError, TypeError):
            return "stdout is not a JSON report"
        if verdict not in ("PASS", "INFO"):
            return f"verdict {verdict}"
        if self.stdout != expected:
            return "stdout differs from the reference"
        return None


def reference_name(template):
    parts = [a.lstrip("-") for a in template if a not in ("--seed", "{seed}")]
    return "_".join(parts) + ".json"


def render_seeded(doc, seed):
    """The report bytes with both seed fields set, formatted as the CLI does."""
    doc["parameters"]["seed"] = doc["payload"]["seed"] = seed
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


def expected_stdout(template, seed):
    data = (REFERENCE / reference_name(template)).read_bytes()
    if "{seed}" not in template:
        return data
    return render_seeded(json.loads(data), seed)


def cli_argv(template, seed):
    args = [str(seed) if a == "{seed}" else a for a in template]
    return [*args, "--format", "json"]


def speed_probe_ms():
    """Fixed stdlib-only work, timed beside each pass to show host drift."""
    start = time.perf_counter()
    perm = tuple(range(1, 257))
    shift = perm[1:] + perm[:1]
    pool = {}
    for _ in range(3000):
        perm = tuple(shift[x - 1] for x in perm)
        pool[perm] = pool.get(perm, 0) + 1
    sum(Fraction(1, k) for k in range(1, 4000))
    return (time.perf_counter() - start) * 1000.0


def git_sha():
    """HEAD of the enclosing git checkout, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tail(samples):
    """Highest order statistic with min(10, n // 4) samples above it."""
    ordered = sorted(samples)
    beyond = min(10, len(ordered) // 4)
    return ordered[len(ordered) - 1 - beyond]


class Run:
    """Counts invocations and failures across one benchmark run."""

    def __init__(self, workload, seed, seconds):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.commands = WORKLOADS[workload]
        self.expected = [expected_stdout(t, seed) for t in self.commands]
        self.start = time.monotonic()
        self.deadline = self.start + DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.probes = []
        self.lanes = 1
        self.lock = threading.Lock()
        self.probe_lock = threading.Lock()

    def say(self, line):
        with self.lock:
            print(line, flush=True)

    def invoke(self, argv, expected=None):
        inv = Invocation(argv, self.deadline)
        reason = inv.failure(expected)
        inv.ok = reason is None
        with self.lock:
            self.attempted += 1
            self.failed += reason is not None
        if reason:
            self.say(f"# FAILED {' '.join(argv[1:])}: {reason}")
        return inv

    def probe(self):
        with self.probe_lock:  # one probe at a time: lanes share the GIL
            probe = speed_probe_ms()
            self.probes.append(probe)
        return probe

    def cli_pass(self, traced_out=None):
        """Every command of the workload once, with a speed probe on each
        side: (invocations, mean probe ms)."""
        before = self.probe()
        out = []
        for i, template in enumerate(self.commands):
            args = cli_argv(template, self.seed)
            if traced_out is None:
                argv = [sys.executable, "-m", "iterwreath.cli", *args]
            else:
                traced_out(i).unlink(missing_ok=True)
                argv = [sys.executable, str(TRACER), "--out", str(traced_out(i)),
                        "--cmd-id", str(i), "--", *args]
            out.append(self.invoke(argv, self.expected[i]))
        return out, (before + self.probe()) / 2

    def loop(self, one_pass):
        """Run passes until the next one would end after --seconds."""
        lengths = []
        while not lengths or (
                time.monotonic() - self.start + statistics.median(lengths)
                <= self.seconds
                and time.monotonic() + max(lengths) < self.deadline):
            began = time.monotonic()
            one_pass()
            lengths.append(time.monotonic() - began)
        return len(lengths)

    def record(self, trace):
        return {
            "git_sha": git_sha(),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "lanes": self.lanes,
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": trace,
            "probe_ms_median": statistics.median(self.probes),
            "probe_ms": [round(p, 3) for p in self.probes],
        }


def end_to_end(run):
    """One lane per usable CPU: warm-up, then set-up probes and timed passes."""
    cpus_allowed = sorted(os.sched_getaffinity(0))[:MAX_LANES]
    run.lanes = len(cpus_allowed)
    setup, walls, cpus, rss, raw, errors = [], [], [], [], [], []

    def lane(cpu):
        try:
            os.sched_setaffinity(0, {cpu})  # this thread; children inherit it
            run.invoke([sys.executable, "-c", SETUP_CODE])
            run.loop(one_pass)
        except BaseException as exc:  # re-raised once every lane has ended
            errors.append(exc)

    def one_pass():
        times = [run.invoke([sys.executable, "-c", SETUP_CODE]).wall
                 for _ in range(SETUP_PER_PASS)]
        invs, probe = run.cli_pass()
        wall = sum(inv.wall for inv in invs)
        cpu_s = sum(inv.cpu for inv in invs)
        peak = max(inv.rss_mb for inv in invs)
        scale = PROBE_REF_MS / probe
        with run.lock:
            raw.append((wall, cpu_s))
            setup.extend(t * scale for t in times)
            walls.append(wall * scale)
            cpus.append(cpu_s * scale)
            rss.append(peak)
        run.say(f"# cpu {sorted(os.sched_getaffinity(0))} pass: wall {wall:.3f} s, "
                f"cpu {cpu_s:.3f} s, peak rss {peak:.1f} MB, probe {probe:.1f} ms")

    threads = [threading.Thread(target=lane, args=(cpu,)) for cpu in cpus_allowed]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    passes = len(walls)
    run.say(f"# unscaled medians: wall {statistics.median(w for w, _ in raw)} s, "
            f"cpu {statistics.median(c for _, c in raw)} s (n={passes})")
    return {
        "wall_s": (statistics.median(walls), passes),
        "wall_s_tail": (tail(walls), passes),
        "cpu_s": (statistics.median(cpus), passes),
        "peak_rss_mb": (statistics.median(rss), passes),
        "setup_s": (statistics.median(setup), len(setup)),
    }


def per_layer(run):
    """Microbenchmarks, then untraced and traced passes in turn."""
    # a failed microbenchmark is counted in run.failed and reads 0
    micro = dict.fromkeys(["treegroup.mul_us", "treegroup.inverse_us",
                           "treegroup.from_word_us"], 0.0)
    inv = run.invoke([sys.executable, str(MICROBENCH), "--seed", str(run.seed)])
    if inv.ok:
        micro.update(json.loads(inv.stdout))
    cold = []
    for _ in range(COLD_REPEATS):
        inv = run.invoke([sys.executable, str(MICROBENCH), "--cold"])
        if inv.ok:
            cold.append(json.loads(inv.stdout)["treegroup.full_group4_cold_s"])
    micro["treegroup.full_group4_cold_s"] = statistics.median(cold) if cold else 0.0

    WORK.mkdir(parents=True, exist_ok=True)
    untraced, traced, layers = [], [], []

    def span_file(i):
        return WORK / f"{run.workload}-{i}.json"

    def one_pair():
        untraced.append(sum(inv.wall for inv in run.cli_pass()[0]))
        invs = run.cli_pass(span_file)[0]
        traced.append(sum(inv.wall for inv in invs))
        traces = [json.loads(span_file(i).read_text())
                  for i, inv in enumerate(invs) if inv.ok]
        for trace in traces:
            if trace["missing"]:
                print(f"# not traced, missing from the program: {trace['missing']}")
        layers.append(aggregate(traces))
        print(f"# pair {len(traced)}: untraced {untraced[-1]:.3f} s, "
              f"traced {traced[-1]:.3f} s", flush=True)

    pairs = run.loop(one_pair)
    out = {}
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        if isinstance(values[0], int):
            if len(set(values)) != 1:  # counts must repeat exactly
                run.failed += 1
                print(f"# FAILED {name} differs between passes: {values}")
            out[name] = (values[0], pairs)
        else:
            out[name] = (statistics.median(values), pairs)
    for name, value in micro.items():
        out[name] = (value, COLD_REPEATS if name.endswith("cold_s") else 1)
    out["trace.overhead_s"] = (statistics.median(traced)
                               - statistics.median(untraced), pairs)
    out["fail_frac"] = (run.failed / run.attempted, run.attempted)
    return out


def write_reference():
    REFERENCE.mkdir(exist_ok=True)
    deadline = time.monotonic() + 600
    for commands in WORKLOADS.values():
        for template in commands:
            argv = [sys.executable, "-m", "iterwreath.cli",
                    *cli_argv(template, REFERENCE_SEED)]
            inv = Invocation(argv, deadline)
            reason = inv.failure()
            if reason is None and "{seed}" in template:
                if render_seeded(json.loads(inv.stdout), REFERENCE_SEED) != inv.stdout:
                    reason = "seeded report does not re-render byte for byte"
            if reason:
                raise SystemExit(f"{' '.join(argv[3:])}: {reason}")
            (REFERENCE / reference_name(template)).write_bytes(inv.stdout)
            print(f"wrote {reference_name(template)} ({len(inv.stdout)} bytes)")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="recapture the reference outputs and exit")
    args = parser.parse_args(argv)

    if not (SRC / "iterwreath" / "cli.py").is_file():
        print(f"error: no iterwreath sources under {SRC}", file=sys.stderr)
        return 2
    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        run = Run(args.workload, args.seed, args.seconds)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    measured = per_layer(run) if args.trace else end_to_end(run)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if sorted(measured) != sorted(m["name"] for m in declared):
        print("error: metrics differ from BENCHMARK.json", file=sys.stderr)
        return 3
    print("# record " + json.dumps(run.record(args.trace), sort_keys=True))
    metrics = {}
    for m in declared:
        value, samples = measured[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"# {m['name']} = {value} {m['unit']} (n={samples})")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
