"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py [WORKLOAD ...]

For each workload (default: all four):

1. A run whose artifact is doctored after the child exits must be reported as
   failed (``correct`` false, every attempted run failed), not as a slow run.
2. Two traced runs must give identical exact counts: every per-layer metric
   with unit ``count`` or ``B`` (calls, field points, MINRES matvecs, Newton
   and minimizer iterations, bytes written).

Exits 0 when every check holds.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402


def _edit(path, change):
    with open(path) as fh:
        doc = json.load(fh)
    change(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _doctor_solve(factor):
    def change(doc):
        doc["level"] *= factor

    return lambda out: _edit(os.path.join(out, "solve.json"), change)


def _doctor_conditions(out):
    def change(doc):
        doc["lambda0_estimate"] *= 1.01

    _edit(os.path.join(out, "conditions.json"), change)


def _doctor_profiles(out):
    def change(doc):
        doc["terms"][1]["trajectory"][-1][0] += 2.0 * workloads.PROFILES_RHO

    _edit(os.path.join(out, "decomposition.json"), change)


DOCTORS = {
    "surface-2d": _doctor_solve(2.5),  # level above 2 c_inf
    "solve-3d": _doctor_solve(1.0 + 1e-4),
    "conditions": _doctor_conditions,
    "profiles": _doctor_profiles,
}

EXACT_UNITS = ("count", "B")


def main(names):
    problems = []
    for name in names:
        deadline = time.perf_counter() + run.DEADLINE_S
        result, _ = run.measure(name, 0, 1, deadline, doctor=DOCTORS[name])
        if result["correct"] or result["failed"] != result["attempted"]:
            problems.append(f"{name}: doctored artifact not reported as failed: {result}")

        counts = []
        for _ in range(2):
            deadline = time.perf_counter() + run.DEADLINE_S
            result, _ = run.measure_traced(name, 0, deadline)
            if not result["correct"]:
                problems.append(f"{name}: traced run failed its checks")
            counts.append({k: m["value"] for k, m in result["metrics"].items() if m["unit"] in EXACT_UNITS})
        differ = {k: (v, counts[1].get(k)) for k, v in counts[0].items() if counts[1].get(k) != v}
        if differ:
            problems.append(f"{name}: exact counts differ between traced runs: {differ}")
        print(f"selfcheck {name}: {len(counts[0])} exact counts compared, {len(differ)} differ")

    for line in problems:
        print("FAIL " + line)
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or sorted(workloads.CHECKS)))
