"""singell benchmark: one workload, closed loop, for a fixed time.

    python3 perfbench/run.py --workload sweep-1d --seed 0 --seconds 30 --trace 0

Run from the root of a singell checkout; the benchmark imports `src/singell`
from there.  With --trace 0 it reports the end-to-end metrics, with --trace 1
the per-layer metrics of a traced run (spans written to perfbench/_traces/).
The last line of stdout is {"correct", "attempted", "failed", "metrics"}; the
line before it holds the provenance.  A readable report goes to stderr.
`python3 perfbench/report.py` runs every workload both ways and prints a table.
"""

import os
import sys
import time

START = time.perf_counter()
# One BLAS thread: a plain single-threaded run, steadier on a shared machine.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = HERE / "_work"
TRACE_DIR = HERE / "_traces"
SETUP_PROBES = 6            # extra set-ups in fresh interpreters, for a median
PERCENTILES = (99, 95, 90, 75)
WORKLOAD_NAMES = ("sweep-1d", "square-2d", "profiles-1d")


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only import and generate configs; print the time")
    return p.parse_args(argv)


def set_up(args, work: Path):
    """Import singell (numpy, scipy) and generate the workload's configs."""
    sys.path.insert(0, str(ROOT / "src"))
    import singell.cli  # noqa: F401
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload](ROOT, work, args.seed)
    return workload, time.perf_counter() - START


def setup_samples(args) -> list:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=120, check=True)
        samples.append(float(res.stdout.split()[-1]))
    return samples


def measure(args, workload, ops, tracer, probe):
    """Closed loop of passes; in a traced run odd passes are traced.

    Returns (traced, wall) per pass, the traced pass indices, and the speed
    probe times: one before every pass and one after the last.
    """
    passes, traced_passes, probes = [], [], []
    begin = time.perf_counter()
    index = 0
    while (index < (2 if tracer else 1)
           or time.perf_counter() - begin < args.seconds):
        traced = tracer is not None and index % 2 == 1
        workload.before_pass(index)
        probes.append(probe())
        if traced:
            tracer.pass_index = index
            tracer.install()
        t0 = time.perf_counter()
        try:
            workload.run_pass()
        except Exception:   # a crashing pass is a failed operation
            ops.add(f"pass {index}", False, traceback.format_exc())
            return passes, traced_passes, probes
        finally:
            wall = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        passes.append((traced, wall))
        workload.check_pass(ops)
        if traced:
            traced_passes.append(index)
            workload.check_trace(tracer.spans, index, ops)
        index += 1
    probes.append(probe())
    return passes, traced_passes, probes


def percentile_note(values) -> str:
    n = len(values)
    for p in PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            q = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
            return f"p{p} {q:.4f} s"
    return "no percentile above the median has 10 samples beyond it"


def end_to_end(passes, probes, setup, err):
    """Times at the reference speed: each untraced pass is scaled by the
    probes on either side of it, set-up by the run's median probe."""
    from probe import PROBE_REF_S
    scaled = [wall * 2 * PROBE_REF_S / (probes[i] + probes[i + 1])
              for i, (traced, wall) in enumerate(passes) if not traced]
    return {
        "wall_s": statistics.median(scaled),
        "setup_s": statistics.median(setup) * PROBE_REF_S
        / statistics.median(probes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "err_exact": err,
    }


def per_layer(tracer, walls, traced_passes, ops):
    from tracing import COUNTERS, layer_metrics
    per_pass = [layer_metrics(tracer.spans, i) for i in traced_passes]
    first = per_pass[0]
    for other in per_pass[1:]:
        diff = {k: (first[k], other[k]) for k in COUNTERS if first[k] != other[k]}
        ops.add("work counters repeat across passes", not diff, str(diff))
    out = {k: (statistics.median(p[k] for p in per_pass) if k.endswith("_s")
               else first[k]) for k in first}
    traced, untraced = statistics.median(walls[True]), statistics.median(walls[False])
    out.update({"trace.wall_traced_s": traced,
                "trace.wall_untraced_s": untraced,
                "trace.overhead_s": traced - untraced,
                "trace.spans_per_pass": sum(1 for s in tracer.spans
                                            if s["pass"] == traced_passes[0])})
    return out


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor()


def llc_bytes():
    """Size of the last-level cache of cpu0, from sysfs; None if unknown."""
    best = (0, None)
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        level, size = _read(index / "level").strip(), _read(index / "size").strip()
        if not level.isdigit() or not size:
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1], 1)
        value = int(size.rstrip("KMG")) * scale
        best = max(best, (int(level), value))
    return best[1]


def git_commit():
    """HEAD of the checkout, if the checkout itself is a git work tree."""
    try:
        res = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, timeout=10, capture_output=True, text=True)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = res.stdout.split()
    if res.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return None
    return lines[1]


def provenance(args) -> dict:
    import numpy
    import scipy
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "singell").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "client": "closed loop, 1 client, in-process CLI",
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "cpu_model": cpu_model(), "llc_bytes": llc_bytes(),
        "git_commit": git_commit(), "src_sha256": digest.hexdigest(),
    }


def report(args, prov, metrics, units, ops, walls, raw):
    from probe import PROBE_REF_S
    log(f"== {args.workload} seed {args.seed} trace {args.trace}: "
        f"{len(walls[False]) + len(walls[True])} passes ==")
    for name, value in metrics.items():
        log(f"  {name:36s} {value:>14.6g} {units[name]}")
    if args.trace == 0:
        log(f"  wall_s, setup_s: at the reference speed (probe median "
            f"{raw['probe_median_s'] * 1e3:.2f} ms; reference "
            f"{PROBE_REF_S * 1e3:.0f} ms)")
        log(f"  raw wall: median {raw['wall_median_s']:.4f} s of "
            f"{len(walls[False])} passes; {percentile_note(walls[False])}; "
            "passes " + " ".join(f"{w:.3f}" for w in walls[False]))
        log(f"  raw setup: median {raw['setup_median_s']:.4f} s")
    else:
        fill, llc = metrics["operators.lu_fill_bytes_computed"], prov["llc_bytes"]
        if fill and llc:
            log(f"  largest LU fill {fill / 2**20:.1f} MiB (computed, 12 B per "
                f"stored nonzero) vs last-level cache {llc / 2**20:.0f} MiB: "
                f"{fill / llc:.3f} of it")
    log(f"  fail_rate {ops.failed}/{ops.attempted} = "
        f"{ops.failed / max(ops.attempted, 1):.4g}")


def run(args, work: Path) -> int:
    workload, setup_main = set_up(args, work)
    if args.setup_probe:
        print(repr(setup_main))
        return 0
    from probe import SpeedProbe
    from tracing import Tracer
    from workloads import ERR_EXACT_MAX, Ops
    setup = [setup_main] + setup_samples(args)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}

    ops = Ops(log)
    tracer = Tracer() if args.trace else None
    passes, traced_passes, probes = measure(args, workload, ops, tracer,
                                            SpeedProbe())
    walls = {flag: [w for t, w in passes if t == flag] for flag in (False, True)}
    if not walls[False] or (tracer and not traced_passes):
        log("perfbench: a pass failed before the run had one of each kind; "
            "no result")
        return 1
    raw = {"probe_median_s": statistics.median(probes),
           "wall_median_s": statistics.median(walls[False]),
           "setup_median_s": statistics.median(setup)}
    err = workload.err_exact()
    ops.add("err_exact within the discretization bound", err <= ERR_EXACT_MAX,
            f"{err:.4e} > {ERR_EXACT_MAX}")

    prov = provenance(args)
    if tracer is None:
        metrics = end_to_end(passes, probes, setup, err)
    else:
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.write(TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl")
        metrics = per_layer(tracer, walls, traced_passes, ops)
    if set(metrics) != set(units):
        ops.add("metrics match BENCHMARK.json", False,
                f"missing {sorted(set(units) - set(metrics))}, "
                f"undeclared {sorted(set(metrics) - set(units))}")
    report(args, prov, metrics, units, ops, walls, raw)
    print(json.dumps({"provenance": prov, "raw": raw}))
    print(json.dumps({
        "correct": ops.failed == 0, "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": units.get(k, "")}
                    for k, v in metrics.items()}}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "singell" / "cli.py").is_file():
        log(f"perfbench: no singell sources at {ROOT / 'src' / 'singell'}; "
            "run from the root of a singell checkout")
        return 2
    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
