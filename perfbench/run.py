"""magnls benchmark: four CLI workloads, each run in a fresh child interpreter.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop, one client: each child runs one ``magnls`` command through
``magnls.cli.run`` and exits before the next one starts.  The child imports
magnls from ``src/`` of this checkout and gets the caller's environment minus
the BLAS/OpenMP/magnls thread variables, so the benchmark measures the
defaults users get.  Artifacts go to a temporary directory under
``perfbench/_work`` that is removed after the checks.

``--trace 0`` repeats the workload while the next child still fits in
``--seconds`` (at least once) and reports medians of the end-to-end metrics.
``--trace 1`` runs three children: default threads with only the search span
recorded (the untraced reference), every layer traced, and
``OPENBLAS_NUM_THREADS=1`` with only the search span; it reports the per-layer
metrics.  Human-readable lines come first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "MAGNLS_THREADS")
DEADLINE_S = 170.0  # every run ends within the 180 s the caller allows
MIN_SETUPS = 5

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")]


def _child_env(blas_threads=None):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    return env


def _wait(proc, deadline):
    """Reap ``proc`` and return its (exit code, rusage); kill it at ``deadline``."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage
        if time.perf_counter() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return None, usage
        time.sleep(0.01)


def run_child(name, seed, deadline, trace="off", setup_only=False, blas_threads=None, doctor=None):
    """One fresh interpreter running one workload; returns its measurements and check verdicts."""
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
    try:
        cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", name, "--seed", str(seed),
               "--workdir", workdir, "--trace", trace]
        if setup_only:
            cmd.append("--setup-only")
        with open(os.path.join(workdir, "stdout"), "w") as out, open(os.path.join(workdir, "stderr"), "w") as err:
            t_spawn = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(blas_threads), stdout=out, stderr=err)
            try:
                code, usage = _wait(proc, deadline)
            finally:
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        rec = {"cpu_s": usage.ru_utime + usage.ru_stime, "peak_rss_mb": usage.ru_maxrss / 1024.0}
        try:
            with open(os.path.join(workdir, "child.json")) as fh:
                info = json.load(fh)
        except (OSError, ValueError):
            with open(os.path.join(workdir, "stderr")) as fh:
                tail = fh.read()[-2000:]
            rec.update(ok=False, checks=[("child finished", False, f"exit {code}: {tail.strip()}")])
            return rec
        rec["setup_s"] = info["t_ready"] - t_spawn
        rec["versions"] = info["versions"]
        if setup_only:
            rec["ok"] = code == 0
            return rec
        rec["wall_s"] = info["t_done"] - info["t_ready"]
        outdir = os.path.join(workdir, "out")
        if doctor is not None:
            doctor(outdir)
        checks = [("exit 0", code == 0 and info["rc"] == 0, f"exit {code}, cli.run returned {info['rc']}")]
        checks += workloads.check(name, outdir)
        rec["checks"] = checks
        rec["ok"] = all(ok for _, ok, _ in checks)
        rec["bytes_written"] = sum(
            os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(outdir) for f in files
        )
        spans = os.path.join(workdir, "spans")
        if trace == "full":
            rec["layers"] = tracer.layer_metrics(spans)
        elif trace == "search":
            rec["search_s"] = tracer.search_seconds(spans)
        return rec
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass


def _median(records, key):
    values = [r[key] for r in records if key in r]
    return (statistics.median(values) if values else float("nan")), len(values)


def _machine(versions):
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        **(versions or {}),
        "commit": commit,
        "thread_env_caller": {k: os.environ.get(k) for k in THREAD_VARS},
        "thread_env_child": "stripped (OPENBLAS_NUM_THREADS=1 in blas1 children)",
    }


def _print_checks(label, rec):
    print(f"  {label}: {'ok' if rec['ok'] else 'FAILED'}")
    for check, ok, detail in rec.get("checks", []):
        print(f"    {'pass' if ok else 'FAIL'}  {check}: {detail}")


def measure(name, seed, seconds, deadline, doctor=None):
    """End-to-end run: repeat the workload while the next child fits in ``seconds``."""
    # untimed: warms the file cache and writes bytecode (unless PYTHONDONTWRITEBYTECODE is set)
    run_child(name, seed, deadline, setup_only=True)
    runs = []
    t0 = time.perf_counter()
    while True:
        runs.append(run_child(name, seed, deadline, doctor=doctor))
        elapsed = time.perf_counter() - t0
        per_run = elapsed / len(runs)
        if elapsed + per_run > seconds or time.perf_counter() + per_run > deadline - 10.0:
            break
    setups = [run_child(name, seed, deadline, setup_only=True) for _ in range(max(0, MIN_SETUPS - len(runs)))]
    failed = sum(1 for r in runs if not r["ok"])
    for i, r in enumerate(runs):
        _print_checks(f"run {i + 1}", r)
    good = [r for r in runs if r["ok"]] or runs
    metrics = {}
    for key, unit in END_TO_END:
        pool = good + setups if key == "setup_s" else good
        value, n = _median(pool, key)
        metrics[key] = {"value": value, "unit": unit}
        print(f"  {key:<12} {value:>12.6f} {unit:<5} median of {n}")
    print(f"  {'failed_frac':<12} {failed / len(runs):>12.6f} ratio  {failed} failed of {len(runs)}")
    versions = next((r["versions"] for r in runs + setups if "versions" in r), None)
    return {"correct": failed == 0, "attempted": len(runs), "failed": failed, "metrics": metrics}, versions


def measure_traced(name, seed, deadline):
    """Traced run: untraced reference, fully traced child, and a single-BLAS-thread child."""
    run_child(name, seed, deadline, setup_only=True)
    ref = run_child(name, seed, deadline, trace="search")
    full = run_child(name, seed, deadline, trace="full")
    blas1 = run_child(name, seed, deadline, trace="search", blas_threads=1)
    runs = [ref, full, blas1]
    for label, r in zip(("untraced", "traced", "blas1"), runs):
        _print_checks(label, r)
    failed = sum(1 for r in runs if not r["ok"])
    metrics = {}
    layers = full.get("layers") or {m: (0, u) for m, u, _, _ in tracer.LAYER_METRICS}
    for metric, (value, unit) in layers.items():
        metrics[metric] = {"value": value, "unit": unit}
    extra = {
        "cli.bytes_written": (full.get("bytes_written", 0), "B"),
        "trace.overhead_s": (full.get("wall_s", 0.0) - ref.get("wall_s", 0.0), "s"),
        "solver.search_total_s": (ref.get("search_s", 0.0), "s"),
        "solver.search_total_s.blas1": (blas1.get("search_s", 0.0), "s"),
        "wall_s.blas1": (blas1.get("wall_s", 0.0), "s"),
    }
    for metric, (value, unit) in extra.items():
        metrics[metric] = {"value": value, "unit": unit}
    for metric, m in metrics.items():
        print(f"  {metric:<30} {m['value']:>16.6f} {m['unit']}")
    print(f"  {'wall_s (untraced)':<30} {ref.get('wall_s', float('nan')):>16.6f} s")
    return {"correct": failed == 0, "attempted": len(runs), "failed": failed, "metrics": metrics}, ref.get("versions")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.CHECKS) + ["all"],
                        help="one workload, or all of them in turn (the last line then maps each to its result)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(ROOT, "src", "magnls", "cli.py")):
        print(f"error: no magnls sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    names = sorted(workloads.CHECKS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        deadline = time.perf_counter() + DEADLINE_S
        print(f"workload {name}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
        if args.trace:
            results[name], versions = measure_traced(name, args.seed, deadline)
        else:
            results[name], versions = measure(name, args.seed, args.seconds, deadline)
    print("machine " + json.dumps(_machine(versions), sort_keys=True))
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
