"""Benchmark command for tagparse.

Run it from the root of a source checkout; the program is imported from
./src and nowhere else:

    python3 perfbench/run.py --workload query_seed --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py --workload query_seed --seed 0 --seconds 55 --trace 1

--trace 0 gives the end-to-end metrics, --trace 1 the per-layer ones.
Each metric is printed on its own line with its unit; the last line is
one JSON object with the keys correct, attempted, failed and metrics.
Spans of a traced run and every result go to .perfbench/ in the checkout.
"""

from __future__ import annotations

import os

# BLAS must see these before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import statistics
import sys
import tempfile
from pathlib import Path

WORKLOAD_NAMES = ("query_seed", "parse_beam5", "checkpoint_default")

# End-to-end metrics that every workload has; they go into the JSON line.
# The workload-specific ones are printed above it (see README.md).
GATED = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "checkpoint_mb": "MB"}

OUT_DIR = ".perfbench"


class ProgramMissing(RuntimeError):
    pass


def load_program(root: Path):
    """Import tagparse from root/src; returns the workloads module."""
    src = root / "src"
    if not (src / "tagparse" / "__init__.py").is_file():
        raise ProgramMissing(f"no tagparse package under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tagparse
    if Path(tagparse.__file__).resolve().parent != (src / "tagparse").resolve():
        raise ProgramMissing(f"tagparse was imported from {tagparse.__file__}")
    import workloads
    return workloads


def environment() -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def execute(workloads, name: str, seed: int, seconds: float, trace: bool,
            root: Path, sizes=None):
    """Run one workload; returns (printed lines, result dict)."""
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    tracer = workloads.Tracer(workloads.tensors_created)
    workloads.install(tracer, workloads.COARSE)
    try:
        with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
            run = workloads.Run(seed, seconds, trace, Path(tmp),
                                sizes or workloads.BENCH, tracer)
            workloads.WORKLOADS[name](run)
    finally:
        tracer.uninstall()

    env = environment()
    lines = [f"env {json.dumps(env, sort_keys=True)}"]
    failure_rate = run.failed / run.attempted if run.attempted else 1.0
    if trace:
        layer = workloads.layer_metrics(run)
        lines += [f"layer {k} {v!r} {u}" for k, (v, u) in layer.items()]
        lines.append(f"trace untraced_wall_s {statistics.median(run.rep_s)!r} s "
                     f"traced_wall_s {statistics.median(run.traced_rep_s)!r} s "
                     f"spans {len(tracer.spans)}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        tracer.dump(out_dir / f"trace-{name}-seed{seed}.json")
    else:
        e2e = {"setup_s": (statistics.median(run.setup_s), "s"), **run.e2e,
               "peak_rss_mb": (workloads.peak_rss_mb(), "MB"),
               "failure_rate": (failure_rate, "ratio")}
        lines += [f"metric {k} {v!r} {u}" for k, (v, u) in e2e.items()]
        metrics = {k: {"value": e2e[k][0], "unit": u} for k, u in GATED.items()}
    lines += [f"note {n}" for n in run.notes]
    lines += [f"check FAILED {p}" for p in run.problems]
    result = {"correct": not run.problems, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    with open(out_dir / f"result-{name}-seed{seed}-trace{int(trace)}.json", "w") as f:
        json.dump({"env": env, "lines": lines, **result}, f, indent=1)
    return lines, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    try:
        workloads = load_program(root)
    except (ProgramMissing, ImportError) as e:
        print(f"perfbench: cannot load the program: {e}", file=sys.stderr)
        return 2
    lines, result = execute(workloads, args.workload, args.seed, args.seconds,
                            bool(args.trace), root)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # str hashes are salted per process, and the salt moves the time of the
    # set-up's dict-heavy code (per-process medians of 7-13 ms with random
    # salts, 12.4-13.0 ms with this one); fix it so that runs are
    # comparable.  exec keeps the process, so nothing is left over.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
