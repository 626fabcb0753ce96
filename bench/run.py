"""lgmet benchmark: one workload in one fresh single-threaded process.

    python3 bench/run.py --workload paper_cli --seed 1 --seconds 35 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory.  Workloads: paper_cli, large_j_theta, threshold_search (see
bench/workloads.py for what each stresses and why).

--trace 0 measures the end-to-end metrics with tracing off:
  wall_s       median time of one pass over the workload's ops
  setup_s      median, over fresh processes, of process start until lgmet is
               imported and the inputs are made
               Both times are scaled to a reference host speed measured by
               calibrate(); the unscaled medians are printed as wall_raw_s
               and setup_raw_s.
  peak_rss_mb  peak resident memory of this process over its first passes
  ops_ok_frac  share of attempted ops that succeeded (never 0, unlike the
               failed share; the counts are in "attempted" and "failed")
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of the traced ones, the tracing overhead and the dominant layer.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

import os

# Fixed BLAS thread count, set before numpy loads; recorded in the provenance.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 9
MIN_PASSES = 4
TIME_LIMIT_S = 120.0   # stop starting passes after this (once two ran), whatever --seconds says
# Calibration time at the reference host speed.  A constant, so that scaled
# times from different commits compare directly.
CAL_REF_S = 0.005


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper_cli", "large_j_theta", "threshold_search"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    """Import lgmet from this checkout's src/, never from an installed copy."""
    if not (SRC / "lgmet" / "__init__.py").is_file():
        sys.exit("bench: no lgmet sources at %s" % (SRC / "lgmet"))
    sys.path.insert(0, str(SRC))
    import lgmet
    if pathlib.Path(lgmet.__file__).resolve().parent != (SRC / "lgmet").resolve():
        sys.exit("bench: imported lgmet from %s, not from %s" % (lgmet.__file__, SRC))
    import workloads
    return workloads


def measure_setup(args) -> tuple[list[float], float]:
    """Start fresh processes that only import lgmet and make the inputs.

    Returns the set-up times and the median calibration sample taken around them.
    """
    cmd = [sys.executable, str(pathlib.Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times, cal = [], [calibrate()]
    for _ in range(SETUP_PROBES):
        start = time.time()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout.split()[-1]) - start)
        cal.append(calibrate())
    return times, statistics.median(cal)


def provenance(args) -> dict:
    import lgmet
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cpu": cpu, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__, "blas": blas,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "lgmet": lgmet.__version__, "git_revision": git_revision(),
    }


def git_revision():
    """HEAD of the checkout, read from .git without running git; None outside a repo."""
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
    return None


def kernel_lookups():
    """(lookups, builds) of the correlation kernel cache, where the program has one."""
    from lgmet import correlations
    info = getattr(getattr(correlations, "_kernel", None), "cache_info", None)
    if info is None:
        return None
    info = info()
    return info.hits + info.misses, info.misses


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter, small-array and BLAS work, none of it lgmet.

    On a shared host the speed one process sees can drift by 10-25% over tens
    of seconds (measured on a 2-vCPU Xeon VM), and lgmet's times follow it
    closely; timing this beside every op tracks the drift.
    """
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(50000):
        total += i * i % 7
    v = np.linspace(0.0, 1.0, 8)
    for _ in range(500):
        v = np.cos(v * 1.0001) + 0.5
    m = np.eye(64) * 0.5 + 0.01
    for _ in range(40):
        m = m @ m
        m /= np.abs(m).max()
    return time.perf_counter() - start


def run_pass(workload, failures: dict, cal: list) -> tuple[float, int, int]:
    """Run every op once, each after a calibration sample; return (timed s, attempted, failed)."""
    wall = 0.0
    failed = 0
    ops = workload.ops()
    for op in ops:
        for path in op.outputs:
            path.unlink(missing_ok=True)
        cal.append(calibrate())
        start = time.perf_counter()
        try:
            output = op.run()
        except Exception as exc:  # an op that raises is a failed op, not a benchmark error
            wall += time.perf_counter() - start
            problems = ["%s: %s" % (type(exc).__name__, exc)]
        else:
            wall += time.perf_counter() - start
            try:
                problems = op.check(output)
            except Exception as exc:  # output the checks cannot read
                problems = ["unreadable output: %s: %s" % (type(exc).__name__, exc)]
        if problems:
            failed += 1
            failures.setdefault(op.name, [0, problems])[0] += 1
    return wall, len(ops), failed


def trace_self_check(workload, tracer, snap, lookups_before) -> list[str]:
    """Span counts against counts known without the tracer."""
    problems = ["unpatched binding %s" % b for b in tracer.unpatched_bindings()]
    exact, when_called = workload.expected_counts()
    for name, expected in exact.items():
        if snap[name] != expected:
            problems.append("%s = %d, expected %d" % (name, snap[name], expected))
    for name, expected in when_called.items():
        if snap[name] and snap[name] != expected:
            problems.append("%s = %d, expected %d" % (name, snap[name], expected))
    after = kernel_lookups()
    if lookups_before is not None and after is not None:
        evals = snap["correlations.correlation.calls"] + snap["correlations.correlation_derivatives.calls"]
        lookups, builds = after[0] - lookups_before[0], after[1] - lookups_before[1]
        if evals != lookups:
            problems.append("correlation evaluations %d, kernel cache lookups %d" % (evals, lookups))
        if snap["correlations.kernel_builds"] != builds:
            problems.append("kernel builds %d, kernel cache misses %d"
                            % (snap["correlations.kernel_builds"], builds))
    return problems


def summarize(values: list[float]) -> str:
    return "median of %d; min %.4g, max %.4g" % (len(values), min(values), max(values))


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_program()
    cls = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        cls(args.seed, ROOT / ".bench_work" / "probe")
        print(repr(time.time()))
        return 0

    setup = None if args.trace else measure_setup(args)
    workdir = ROOT / ".bench_work" / ("%s-%d" % (args.workload, os.getpid()))
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = cls(args.seed, workdir)
        workload.prepare()
        return measure(args, workload, workloads.KNOWN_DEFECTS, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def measure(args, workload, known, setup) -> int:
    from tracer import Tracer, metric_specs

    tracer = Tracer() if args.trace else None
    walls = {False: [], True: []}
    scaled = {False: [], True: []}   # the same pass times at reference host speed
    snapshots, self_check, bindings = [], [], []
    failures: dict = {}
    attempted = failed = 0
    cal: list[float] = []
    peak_rss_mb = None
    start = time.perf_counter()
    i = 0
    while True:
        traced = bool(args.trace) and i % 2 == 1
        if traced:
            tracer.reset()
            bindings = tracer.install()
            lookups = kernel_lookups()
        try:
            pass_cal = []
            wall, n, bad = run_pass(workload, failures, pass_cal)
            if traced:
                snap = tracer.snapshot()
                snapshots.append(snap)
                self_check += trace_self_check(workload, tracer, snap, lookups)
        finally:
            if traced:
                tracer.uninstall()
        walls[traced].append(wall)
        scaled[traced].append(wall * CAL_REF_S / statistics.median(pass_cal))
        cal += pass_cal
        attempted += n
        failed += bad
        i += 1
        elapsed = time.perf_counter() - start
        if i == MIN_PASSES or peak_rss_mb is None and elapsed >= TIME_LIMIT_S:
            # The program's caches outlive a pass, so peak memory grows with
            # the pass count; a fixed pass count keeps the figure comparable.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if (elapsed >= args.seconds and i >= MIN_PASSES) or (elapsed >= TIME_LIMIT_S and i >= 2):
            break

    unexpected = sorted(name for name in failures if name not in known)
    correct = not unexpected and not self_check

    print("lgmet benchmark: workload=%s seed=%d trace=%d passes=%d"
          % (args.workload, args.seed, args.trace, i))
    print("provenance " + json.dumps(provenance(args), sort_keys=True))
    for name, (count, problems) in sorted(failures.items()):
        tag = "known defect: " + known[name] if name in known else "FAILED"
        print("op %s failed %d/%d passes (%s): %s" % (name, count, i, tag, "; ".join(problems)))
    print("ops_failed_frac %.6f (%d failed / %d attempted)"
          % (failed / attempted, failed, attempted))

    host_speed = CAL_REF_S / statistics.median(cal)
    print("host speed %.4f of reference (calibration median %.5f s over %d samples; %s)"
          % (host_speed, statistics.median(cal), len(cal), summarize(cal)))
    if not args.trace:
        raw = statistics.median(walls[False])
        print("wall_raw_s %.6f s (%s passes, not scaled)" % (raw, summarize(walls[False])))
        setup_raw = statistics.median(setup[0])
        print("setup_raw_s %.6f s (%s fresh processes, not scaled)" % (setup_raw, summarize(setup[0])))
        metrics = {
            "wall_s": (statistics.median(scaled[False]), "s", "median pass time at reference host speed"),
            "setup_s": (setup_raw * CAL_REF_S / setup[1], "s",
                        "median of %d fresh processes at reference host speed" % SETUP_PROBES),
            "peak_rss_mb": (peak_rss_mb, "MB", "over the first %d passes" % MIN_PASSES),
            "ops_ok_frac": (1.0 - failed / attempted, "frac", ""),
        }
    else:
        metrics = {}
        for spec in metric_specs():
            values = [snap[spec["name"]] for snap in snapshots]
            metrics[spec["name"]] = (statistics.median(values), spec["unit"], "")
        untraced, traced_w = statistics.median(scaled[False]), statistics.median(scaled[True])
        layers = {name[:-len(".self_s")]: value for name, (value, _, _) in metrics.items()
                  if name.endswith(".self_s")}
        dominant = max(layers, key=layers.get)
        print("patched bindings: " + ", ".join(bindings))
        if tracer.missing:
            print("functions not found (layer reads 0): " + ", ".join(tracer.missing))
        print("trace self-check: " + ("ok" if not self_check else "; ".join(sorted(set(self_check)))))
        print("tracing overhead: %.4f s per pass (traced %.4f s, untraced %.4f s, %+.1f%%; "
              "at reference host speed)"
              % (traced_w - untraced, traced_w, untraced, 100 * (traced_w / untraced - 1)))
        traced_raw = statistics.median(walls[True])
        print("dominant layer: %s (self %.4f s of %.4f s traced pass, %.0f%%)"
              % (dominant, layers[dominant], traced_raw, 100 * layers[dominant] / traced_raw))
        print("call edges (last traced pass): " + json.dumps(tracer.edge_summary()[:12]))

    for name, (value, unit, note) in metrics.items():
        print("%-44s %14.6g %-11s %s" % (name, value, unit, note))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit, _) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
