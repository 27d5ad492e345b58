"""tanglekit benchmark: one workload per run, one process, no worker threads.

    python3 perfbench/run.py --workload hunt-roundtrip --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` (never from an installed copy).  Passes repeat while one more
pass still fits in ``--seconds``; there is always at least one.
``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
runs untraced passes for half the time, then traced passes for the other
half, and prints the per-layer metrics.  The last stdout line is one JSON
object; a result file with the environment, every figure and the gate's
failures goes to ``perfbench/out/``.  Any mismatch against the expected
outputs counts as a failed operation and makes the
exit code 1; a checkout without ``src/tanglekit`` exits 2.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402


def _environment(tk) -> dict:
    import numpy

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    package = Path(tk.__file__).resolve()
    from_src = (ROOT / "src") in package.parents
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": version("click"),
        "tanglekit_from": "src on sys.path" if from_src else "installed package",
        "tanglekit_file": str(package.relative_to(ROOT)) if from_src else str(package),
        "tanglekit_installed_version": version("tanglekit"),
        "platform": platform.platform(),
    }


def _measure(ctx, seconds, tracer=None):
    """Run passes while another one still fits in ``seconds``, at least one.

    Returns wall times, stage figures and the digest of the bytes each pass
    wrote.
    """
    walls, stages, digests = [], [], []
    start = perf_counter()
    while True:
        if tracer is not None:
            tracer.pass_id = len(walls)
        ctx.saved = []
        ctx.digest = hashlib.sha256()
        t0 = perf_counter()
        stages.append(workloads.PASSES[ctx.workload](ctx))
        walls.append(perf_counter() - t0)
        digests.append(ctx.digest.hexdigest())
        if perf_counter() - start + walls[-1] > seconds:
            return walls, stages, digests


def _check_resave(ctx):
    """Save each document of the last pass again; the bytes must not change."""
    for obj, name, sha in ctx.saved:
        path = ctx.work / f"again-{name}"
        ctx.tk.save(obj, path)
        ctx.gate.check(hashlib.sha256(path.read_bytes()).hexdigest() == sha,
                       f"second save of {name} is byte-identical")
        path.unlink()
    ctx.saved = []


def run(workload, seed, seconds, trace, work) -> tuple[dict, dict]:
    gate = workloads.Gate()
    tracer = tracing.Tracer() if trace else None
    call = tracer.call if tracer else tracing.untraced_call
    tk, cli, systems, setup_s = workloads.setup(seed, call)
    ctx = workloads.Ctx(workload, tk, cli, systems, seed, gate, tracing.untraced_call, work)
    report = {"environment": _environment(tk), "workload": workload, "seed": seed,
              "seconds": seconds, "trace": trace}

    if not trace:
        walls, stages, digests = _measure(ctx, seconds)
        gate.check(len(set(digests)) == 1, "every pass wrote the same bytes")
        _check_resave(ctx)
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        report["workload_figures"] = workloads.summarize(workload, stages)
        report["pass_walls"] = walls
    else:
        plain_walls, _, plain_digests = _measure(ctx, seconds / 2)
        ctx.call = tracer.call
        with tracing.Rebound(tracer) as rebound:
            walls, _, digests = _measure(ctx, seconds / 2, tracer)
        ctx.call = tracing.untraced_call
        gate.check(rebound.restored, "every rebound name restored")
        gate.check(len(set(plain_digests + digests)) == 1,
                   "traced passes wrote the same bytes as untraced ones")
        metrics, report["layer_detail"] = tracing.layer_metrics(
            tracer.spans, walls, plain_walls)
        report["rebind_missing"] = rebound.missing
        report["wall_s"] = {"untraced": plain_walls, "traced": walls}
        spans_path = HERE / "out" / f"spans-{workload}-seed{seed}.json"
        spans_path.write_text(json.dumps(tracer.spans), encoding="utf-8")
        report["spans_file"] = str(spans_path.relative_to(ROOT))
        report["span_count"] = len(tracer.spans)

    report["metrics"] = metrics
    report["gate"] = {
        "attempted": gate.attempted,
        "failed": gate.failed,
        "failed_ops_ratio": gate.failed / gate.attempted,
        "failures": gate.failures,
    }
    return metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PASSES))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tanglekit" / "__init__.py").is_file():
        print(f"error: no tanglekit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out))
    try:
        measured, report = run(args.workload, args.seed, args.seconds, args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    listed = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in listed}
    gate = report["gate"]
    result_path = out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    for name, metric in metrics.items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    for name, (value, unit) in report.get("workload_figures", {}).items():
        print(f"{name}: {value:.6g} {unit}")
    print(f"failed_ops_ratio: {gate['failed_ops_ratio']:.6g} ratio "
          f"({gate['failed']} of {gate['attempted']})")
    for failure in gate["failures"]:
        print(f"FAILED: {failure}")
    print(f"result file: {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": gate["failed"] == 0,
        "attempted": gate["attempted"],
        "failed": gate["failed"],
        "metrics": metrics,
    }))
    return 0 if gate["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
