"""Benchmark harness for slamobs.

    python3 perfbench/run.py --workload {cli,sweep,flight,verify} --seed N \\
        --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` one run measures a workload end to end for S seconds of
operations (whole cycles of the workload's input mix) and reports set-up
time, the median and 95th-percentile latency of one operation and items per
second, both at reference speed (see REF_KERNEL_S), and peak resident
memory.  With ``--trace 1`` it runs one cycle untraced and one cycle with
span and count wrappers installed on the package's module-level names, and
reports the per-layer metrics.  Every
output is checked; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--workload all`` runs
the four workloads untraced, one subprocess each, and prints one row per
workload with the end-to-end metrics under their per-workload names.

BLAS is pinned to one thread for this process and every child, so that the
figures measure the program rather than the thread scheduler.
"""

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"

SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "p50_ref_ms": "ms",
    "p95_ref_ms": "ms",
    "items_per_ref_s": "1/s",
    "peak_rss_mb": "MB",
}

# On a shared 2-vCPU host the speed of a vCPU drifts by tens of percent
# within seconds to minutes, CPU time drifts with wall time and the two vCPUs
# drift independently, so a run cannot tell a slower program from a slower
# host on its own.  Every run therefore times a fixed reference kernel while
# it measures (see SpeedProbe), and the "_ref" metrics are wall times scaled
# to the speed at which that kernel takes REF_KERNEL_S.  The kernel is
# benchmark code, so no change to the package moves it; the plain wall times
# are printed beside the scaled ones.
REF_KERNEL_S = 0.0030  # typical on a quiet 2-vCPU x86-64 VM, NumPy 2.4 with OpenBLAS 0.3.31, 1 thread
REF_KERNEL_SPAN_S = 1.0
CAL_EVERY_S = 0.1

# The end-to-end metrics of each workload's row, under the names the
# workload's users know them by: generic name -> (row name, scale, unit).
ROW_NAMES = {
    "cli": {"p50_ref_ms": ("cli_p50_s", 1e-3, "s")},
    "sweep": {
        "items_per_ref_s": ("sweep_scenarios_per_s", 1.0, "1/s"),
        "p50_ref_ms": ("sweep_p50_ms", 1.0, "ms"),
        "p95_ref_ms": ("sweep_p95_ms", 1.0, "ms"),
    },
    "flight": {"items_per_ref_s": ("flight_frames_per_s", 1.0, "1/s")},
    "verify": {"items_per_ref_s": ("verify_frames_per_s", 1.0, "1/s")},
}
TABLE_COLUMNS = (
    ("setup_s", "s"),
    ("cli_p50_s", "s"),
    ("sweep_scenarios_per_s", "1/s"),
    ("sweep_p50_ms", "ms"),
    ("sweep_p95_ms", "ms"),
    ("flight_frames_per_s", "1/s"),
    ("verify_frames_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("failed_ops_ratio", "1"),
)

# Metrics measured outside the tracer; zero where the workload does not run
# the code they describe.
EXTRA_LAYER_METRICS = (
    "import.slamobs_s",
    "import.scipy_s",
    "import.yaml_s",
    "simulation.diagnostics_s",
    "simulation.bare_numpy_s",
    "simulation.flops_computed",
    "trace.overhead_s",
)


def layer_unit(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("flops_computed"):
        return "flop"
    return "count"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="slamobs benchmark harness")
    p.add_argument("--workload", required=True, choices=("cli", "sweep", "flight", "verify", "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def percentile(values, q):
    """Linear-interpolated percentile q (0..100) of a non-empty sequence."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def machine_note(seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
    }


def run_child(cmd):
    from workloads import child_env

    return subprocess.run(
        cmd, env=child_env(ROOT), cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )


def setup_time(workload, seed, probe):
    """Median time, at reference speed, of fresh interpreters that import
    slamobs and make and prepare one cycle of the workload's inputs.  The
    children inherit this process's environment, so they cache bytecode
    exactly when a user's interpreter would."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        probe.around_child()
        start = time.perf_counter()
        proc = run_child(cmd)
        end = time.perf_counter()
        probe.around_child()
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        times.append(probe.scaled(start, end)[1])
    return statistics.median(times)


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)\s*$")


def import_times():
    """Cumulative import time of slamobs, scipy and yaml from ``-X importtime``
    (median of a few runs), summed over the outermost entries of each."""
    samples = {"import.slamobs_s": [], "import.scipy_s": [], "import.yaml_s": []}
    for _ in range(IMPORTTIME_REPEATS):
        proc = run_child([sys.executable, "-X", "importtime", "-c", "import slamobs"])
        if proc.returncode != 0:
            raise RuntimeError(f"import failed: {proc.stderr.strip()[-500:]}")
        entries = []
        for line in proc.stderr.splitlines():
            m = _IMPORT_LINE.match(line)
            if m:
                entries.append((len(m.group(3)) // 2, m.group(4), int(m.group(2)) * 1e-6))
        totals = dict.fromkeys(samples, 0.0)
        ancestors = []
        # entries are printed after their children; walking backwards visits
        # each entry before the modules it imported
        for level, name, cumulative in reversed(entries):
            del ancestors[level:]
            top = name.split(".")[0]
            metric = f"import.{top}_s"
            if metric in totals and not any(a.split(".")[0] == top for a in ancestors):
                totals[metric] += cumulative
            ancestors.append(name)
        for metric, value in totals.items():
            samples[metric].append(value)
    return {m: statistics.median(v) for m, v in samples.items()}


def peak_rss_mb(workload):
    """Peak resident memory of the process that ran the workload's operations."""
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]
        return not problems


def checked(wl, inp, out):
    try:
        return wl.check(inp, out)
    except Exception as exc:  # a check that cannot read the output fails the operation
        return [f"check raised {type(exc).__name__}: {exc}"]


class SpeedProbe:
    """Times the reference kernel: the first second of case2_flight in the
    plain NumPy recursion of bare.py, about 3 ms of small-matrix NumPy and
    Python, like the package's own hot loops.

    ``samples`` holds (start, seconds) pairs.  While ``periodic`` is on, a
    timer signal takes a sample every CAL_EVERY_S, in this thread and on
    this CPU, also in the middle of an operation.
    """

    def __init__(self):
        import bare
        import gen

        self._problem = bare.load(gen.verify_yaml(ROOT))
        self._run = bare.covariance_run
        self.samples = []

    def sample(self, *_signal_args):
        start = time.perf_counter()
        self._run(self._problem, duration=REF_KERNEL_SPAN_S)
        self.samples.append((start, time.perf_counter() - start))

    def around_child(self):
        """Samples taken just before or just after a child process, which
        shares this CPU and so cannot be sampled while it runs."""
        for _ in range(3):
            self.sample()

    @contextlib.contextmanager
    def periodic(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def scaled(self, start, end):
        """(time of the operation that ran from start to end without the
        samples taken inside it, the same at reference speed)."""
        inside = sum(d for t, d in self.samples if start <= t < end)
        near = [d for t, d in self.samples if start - CAL_EVERY_S <= t <= end + CAL_EVERY_S]
        speed = statistics.mean(near) if near else statistics.median(d for _, d in self.samples)
        busy = end - start - inside
        return busy, busy * REF_KERNEL_S / speed


def measure(wl, seconds, tally, probe):
    """Whole cycles of operations, at least one, until one more cycle would
    take the summed operation time further from ``seconds`` than stopping.

    Returns the operations' wall times, the same times at reference speed and
    the items of the correct operations.  An in-process operation is sampled
    by the periodic probe while it runs; a child process shares the CPU with
    the probe, so the probe runs three times just before and just after it
    instead.  Each operation's time is scaled by REF_KERNEL_S over the mean
    kernel time of the samples taken within CAL_EVERY_S of it.
    """
    spans, items, k = [], 0, 0
    between_ops = not wl.in_process
    with contextlib.ExitStack() as stack:
        if wl.in_process:
            stack.enter_context(probe.periodic())
        while True:
            for _ in range(wl.cycle):
                try:
                    inp = wl.prepare(wl.make_input(k))
                    if between_ops:
                        probe.around_child()
                    start = time.perf_counter()
                    out = wl.run(inp)
                    spans.append((start, time.perf_counter()))
                    if between_ops:
                        probe.around_child()
                except Exception as exc:
                    tally.record(f"op {k}", [f"{type(exc).__name__}: {exc}"])
                    k += 1
                    continue
                if tally.record(f"op {k}", checked(wl, inp, out)):
                    items += wl.items(inp, out)
                k += 1
            busy = sum(end - start for start, end in spans)
            if not spans or busy + 0.5 * busy / (k // wl.cycle) >= seconds:
                break
    wall, ref = zip(*(probe.scaled(start, end) for start, end in spans)) if spans else ((), ())
    return list(wall), list(ref), items


def end_to_end(wl, args, tally):
    probe = SpeedProbe()
    wall, ref, items = measure(wl, args.seconds, tally, probe)
    rss = peak_rss_mb(wl.name)
    if not wall:
        return {}, {}
    metrics = {
        "setup_s": setup_time(wl.name, args.seed, probe),
        "p50_ref_ms": percentile(ref, 50) * 1e3,
        "p95_ref_ms": percentile(ref, 95) * 1e3,
        "items_per_ref_s": items / sum(ref),
        "peak_rss_mb": rss,
    }
    observed = {
        "operations": len(wall),
        "measured_wall_s": sum(wall),
        "p50_ms": percentile(wall, 50) * 1e3,
        "p95_ms": percentile(wall, 95) * 1e3,
        "items_per_s": items / sum(wall),
        "kernel_ms": statistics.median(d for _, d in probe.samples) * 1e3,
        "kernel_samples": len(probe.samples),
    }
    return metrics, observed


def one_cycle(wl, raws, tally, label, tracer=None):
    """Prepare and run one input cycle; returns the prepared inputs and the
    summed time of preparing and running them.  With a tracer, its wrappers
    are installed for exactly that time, and each output is checked after."""
    inputs, seconds = [], 0.0
    for k, raw in enumerate(raws):
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            inp = wl.prepare(raw)
            out = wl.run_traced(inp)
        except Exception as exc:
            tally.record(f"{label} op {k}", [f"{type(exc).__name__}: {exc}"])
            continue
        finally:
            seconds += time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        tally.record(f"{label} op {k}", checked(wl, inp, out))
        inputs.append(inp)
    return inputs, seconds


def traced(wl, args, tally):
    from tracer import Tracer

    metrics = dict.fromkeys(EXTRA_LAYER_METRICS, 0.0)
    metrics.update(import_times())
    raws = [wl.make_input(k) for k in range(wl.cycle)]
    inputs, untraced_s = one_cycle(wl, raws, tally, "untraced")
    tracer = Tracer()
    _, traced_s = one_cycle(wl, raws, tally, "traced", tracer)
    metrics.update(tracer.metrics())
    metrics.update(wl.layer_extras(inputs))
    metrics["trace.overhead_s"] = traced_s - untraced_s
    BUILD.mkdir(parents=True, exist_ok=True)
    spans_path = BUILD / f"spans-{wl.name}.json"
    tracer.write(spans_path)
    return metrics, tracer, spans_path


def pin_to_one_cpu():
    """Run this process and its children on one CPU, so that the speed probe
    measures the CPU the operations ran on (the CPUs of a shared host drift
    independently).  Returns that CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_one(args):
    import workloads

    BUILD.mkdir(parents=True, exist_ok=True)
    work_dir = BUILD / f"work-{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](ROOT, args.seed, work_dir)
        wl.setup()
        if args.setup_only:
            for k in range(wl.cycle):
                wl.prepare(wl.make_input(k))
            return 0
        note = machine_note(args.seed)
        note["pinned_cpu"] = pin_to_one_cpu()
        print("machine: " + json.dumps(note), flush=True)
        tally = Tally()
        if args.trace:
            metrics, tracer, spans_path = traced(wl, args, tally)
            units = {m: layer_unit(m) for m in metrics}
            print(f"workload {wl.name}: traced one cycle of {wl.cycle} x {wl.op}; spans in {spans_path}")
            for root, calls in tracer.calls_by_root().items():
                print(f"  calls under {root}: " + ", ".join(f"{n} {c}" for n, c in sorted(calls.items())))
            for root, (distinct, calls) in tracer.transitions_by_root().items():
                print(f"  state_transition under {root}: {distinct} distinct inputs in {calls} calls")
        else:
            metrics, observed = end_to_end(wl, args, tally)
            units = END_TO_END
            print(
                f"workload {wl.name}: one operation is {wl.op}; items are {wl.item}s; "
                f"setup is the median of {SETUP_REPEATS} fresh interpreters"
            )
            print("  observed (wall clock): " + json.dumps(observed))
            for generic, (name, scale, unit) in ROW_NAMES.get(wl.name, {}).items():
                if generic in metrics:
                    print(f"  {name} = {metrics[generic] * scale:.6g} {unit} (at reference speed)")
        for problem in tally.problems[:20]:
            print(f"  FAILED {problem}")
        for name, value in metrics.items():
            print(f"  {name} = {value!r} {units.get(name, '')}")
        print(f"  failed_ops_ratio = {tally.failed}/{tally.attempted}")
        result = {
            "correct": tally.failed == 0 and tally.attempted > 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {
                name: {"value": value, "unit": units.get(name, "count")} for name, value in metrics.items()
            },
        }
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def run_all(args):
    """Each workload untraced in its own process; one row per workload."""
    rows = {}
    ok = True
    for name in ("cli", "sweep", "flight", "verify"):
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", "0",
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: harness failed: {proc.stderr.strip()[-500:]}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        values = {m: v["value"] for m, v in result["metrics"].items()}
        row = {"setup_s": values["setup_s"], "peak_rss_mb": values["peak_rss_mb"]}
        for generic, (alias, scale, _) in ROW_NAMES[name].items():
            row[alias] = values[generic] * scale
        row["failed_ops_ratio"] = result["failed"] / result["attempted"]
        row["samples"] = result["attempted"]
        rows[name] = row
    header = ["workload"] + [f"{n} [{u}]" for n, u in TABLE_COLUMNS] + ["ops"]
    widths = [max(10, len(h)) for h in header]
    print("  ".join(h.rjust(w) for h, w in zip(header, widths)))
    for name, row in rows.items():
        cells = [name] + [
            "-" if n not in row else f"{row[n]:.4g}" for n, _ in TABLE_COLUMNS
        ] + [str(row["samples"])]
        print("  ".join(c.rjust(w) for c, w in zip(cells, widths)))
    return 0 if ok else 1


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "slamobs" / "__init__.py").is_file():
        print(f"error: package sources not found at {SRC / 'slamobs'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import slamobs

    if not Path(slamobs.__file__).resolve().is_relative_to(SRC):
        print(f"error: slamobs imported from {slamobs.__file__}, not {SRC}", file=sys.stderr)
        return 2
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
