"""One benchmark child: a fresh interpreter that imports magnls and runs one CLI command.

    python3 perfbench/child.py --workload NAME --seed N --workdir DIR --trace off|search|full [--setup-only]

The parent records the clock before starting this process; the child records
it just before ``cli.run`` (set-up ends there) and again when ``cli.run``
returns, and writes both with its exit code to ``DIR/child.json``.  Artifacts
go to ``DIR/out``, spans to ``DIR/spans.*``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _versions():
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", choices=("off", "search", "full"), default="off")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import magnls.cli
    import workloads

    if not os.path.abspath(magnls.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"magnls imported from {magnls.cli.__file__}, not from {SRC}")

    argv = workloads.build_inputs(args.workload, args.seed, args.workdir)
    rec = None
    if args.trace != "off":
        import tracer

        rec = tracer.Recorder()
        if args.trace == "full":
            tracer.install(rec)
        else:
            tracer.install_search_only(rec)

    result = {"t_start": T_START, "t_ready": time.perf_counter()}
    if not args.setup_only:
        result["rc"] = magnls.cli.run(argv)
        result["t_done"] = time.perf_counter()
        if rec is not None:
            rec.save(os.path.join(args.workdir, "spans"))
    result["versions"] = _versions()
    result["magnls"] = os.path.dirname(magnls.cli.__file__)
    with open(os.path.join(args.workdir, "child.json"), "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
