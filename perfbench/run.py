"""Certification benchmark for smoothcert.

    python3 perfbench/run.py --workload certify-l2 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One client thread calls ``smoothcert.cli.run(config)`` back to back
(a closed loop) for ``--seconds`` seconds, and at least as many ops as
the workload's quality metric is averaged over. Every output is
checked after the timed loop. ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs half the time untraced and half with spans
around every layer boundary, and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A run record
and, for traced runs, the spans are written under ``perfbench/out/``.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5
NPROC = len(os.sched_getaffinity(0))
TAIL_PERCENTILE = 90

# workload and metric names, and the units of the result line, as
# BENCHMARK.json lists them: end-to-end metrics for untraced runs,
# per-layer metrics for traced runs
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
COUNTS = ("families.rows", "discrepancy.lambda_evals", "discrepancy.dual_calls",
          "families.accept_rate", "classifiers.eval_batches")


def _cap_blas_threads() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(NPROC)


def _setup(workload: str, seed: int, n: int | None = None):
    """Imports and input generation: everything before the first op."""
    _cap_blas_threads()
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import smoothcert.cli  # noqa: F401
    import workloads

    wl = workloads.WORKLOADS[workload](n)
    wl.config(seed, 0)
    return wl


def _setup_seconds(workload: str, seed: int) -> list[float]:
    """Wall time of fresh processes that set up and exit."""
    out = []
    for _ in range(SETUP_PROBES):
        t = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            check=True, stdout=subprocess.DEVNULL,
        )
        out.append(time.perf_counter() - t)
    return out


@dataclass
class Op:
    index: int
    config: dict
    seconds: float = 0.0
    code: int | None = None
    error: str = ""
    result: dict | None = None
    items: int = 0
    problems: list[str] = field(default_factory=list)
    misses: list[str] = field(default_factory=list)
    checks: int = 0


def _run_ops(wl, seed: int, seconds: float, min_ops: int, workdir: Path, tracer=None) -> list[Op]:
    from smoothcert import cli

    ops: list[Op] = []
    start = time.perf_counter()
    while len(ops) < min_ops or time.perf_counter() - start < seconds:
        op = Op(len(ops), wl.config(seed, len(ops)))
        out = workdir / f"op{op.index}"
        op.config["out"] = str(out)
        if tracer is not None:
            tracer.op = op.index
        t = time.perf_counter()
        try:
            if tracer is None:
                op.code = cli.run(op.config)
            else:
                with tracer.span("op"):
                    op.code = cli.run(op.config)
        except Exception:  # an op that raises is counted as failed, the loop goes on
            op.error = traceback.format_exc(limit=3)
        op.seconds = time.perf_counter() - t
        if op.code == 0:
            op.result = json.loads((out / "result.json").read_text(encoding="utf-8"))
            op.items = wl.items(op.result)
        shutil.rmtree(out, ignore_errors=True)
        ops.append(op)
    return ops


def _check(wl, ops: list[Op]) -> None:
    for op in ops:
        if op.code != 0:
            op.problems.append(f"exit code {op.code} {op.error}".strip())
            continue
        try:
            problems, op.misses, op.checks = wl.check(op.config, op.result)
        except Exception:
            problems = [f"check raised: {traceback.format_exc(limit=3)}"]
        op.problems.extend(problems)


def _deterministic(result: dict) -> dict:
    config = {k: v for k, v in result["config"].items() if k != "out"}
    return {**result, "config": config}


def _tail(times: list[float]) -> tuple[float, int]:
    """The TAIL_PERCENTILE-th percentile of the op times, interpolated
    between the nearest two, and the number of ops beyond it."""
    if len(times) == 1:
        return times[0], 0
    value = statistics.quantiles(times, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    return value, sum(t > value for t in times)


def _versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        commit = lines[1] if top.returncode == 0 and Path(lines[0]).resolve() == ROOT else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "git_commit": commit,
    }


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 n: int | None = None, quality_ops: int | None = None, setup_probes: bool = True) -> dict:
    """Run one workload; returns the run record (``record["line"]`` is
    the result line). The test suite calls this with a tiny ``n``."""
    probe_s = _setup_seconds(workload, seed) if setup_probes else []
    t = time.perf_counter()
    wl = _setup(workload, seed, n)
    setup_main = time.perf_counter() - t
    import spans
    from workloads import WORKERS, statistical_failure

    quality_ops = wl.quality_ops if quality_ops is None else quality_ops
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    record: dict = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "workers": WORKERS, "nproc": NPROC, "versions": _versions(),
    }
    tracer = None
    try:
        if trace:
            plain = _run_ops(wl, seed, seconds / 2, 1, workdir)
            tracer = spans.Tracer()
            with tracer.installed():
                traced = _run_ops(wl, seed, seconds / 2, 1, workdir, tracer)
            ops = plain + traced
        else:
            plain = ops = _run_ops(wl, seed, seconds, quality_ops, workdir)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    _check(wl, ops)
    run_checks = wl.run_checks(seed, ops[0].config)
    for problems in run_checks.values():
        ops[0].problems.extend(problems)
    if trace:
        for a, b in zip(plain, traced):
            if a.result and b.result and _deterministic(a.result) != _deterministic(b.result):
                b.problems.append("traced output differs from the untraced output of the same op")
    misses = sum(len(op.misses) for op in ops)
    checks = sum(op.checks for op in ops)
    statistical = statistical_failure(misses, checks, wl.miss_rate) if checks else False
    failed = sum(1 for op in ops if op.problems or (statistical and op.misses))
    record["checks"] = {
        "ops": len(ops), "failed": failed, "statistical_checks": checks,
        "statistical_misses": misses, "miss_rate": wl.miss_rate,
        "statistical_failure": statistical,
        "run_checks": sorted(run_checks),
        "problems": [f"op{op.index}: {p}" for op in ops for p in op.problems],
        "misses": [f"op{op.index}: {m}" for op in ops for m in op.misses],
    }
    record["ops"] = [{"index": op.index, "seconds": op.seconds, "items": op.items, "code": op.code}
                     for op in ops]

    def throughput(batch):
        return sum(op.items for op in batch) / sum(op.seconds for op in batch)

    def op_throughput(batch):
        # per-op median, so the cold first op of the untraced phase does
        # not count as tracing overhead
        return statistics.median(op.items / op.seconds for op in batch)

    named: dict = {}  # every metric under the name the workload reports it by
    if trace:
        layers = spans.layer_metrics(tracer, sum(op.items for op in traced), WORKERS, wl.accept_rate(seed))
        layers["trace_overhead"] = (op_throughput(traced) / op_throughput(plain), "ratio")
        named.update(layers)
        record["missing_boundaries"] = tracer.missing
        record["counts"] = {k: layers[k][0] for k in COUNTS}
        spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
        tracer.write(spans_path)
        record["spans"] = str(spans_path.relative_to(ROOT))
        line_names = PER_LAYER
    else:
        times = [op.seconds for op in ops]
        tail, beyond = _tail(times)
        first = [op.result for op in ops[:quality_ops]]
        quality = wl.quality(first) if None not in first else {wl.quality_name: None}
        named["setup_s"] = (statistics.median(probe_s) if probe_s else setup_main, "s")
        named["op_p50_s"] = (statistics.median(times), "s")
        named["op_tail_s"] = (tail, "s")
        named[f"{wl.item}_per_s"] = (throughput(ops), "1/s")
        for key, value in quality.items():
            named[key] = (value, "sigma" if key == "mean_radius" else "prob")
        named["peak_rss_mb"] = (rss_mb, "MB")
        named["items_per_s"] = named[f"{wl.item}_per_s"]
        named["quality"] = (quality[wl.quality_name], "score")
        record["op_tail"] = {"percentile": TAIL_PERCENTILE, "samples": len(times), "beyond": beyond}
        record["setup"] = {"probes_s": probe_s, "in_process_s": setup_main}
        line_names = END_TO_END
    named["fail_frac"] = (failed / len(ops), "ratio")
    record["metrics"] = {k: _metric(v, u) for k, (v, u) in named.items()}
    # a metric whose boundary is gone reads "missing" on the line too
    emitted = {k: _metric(named[k][0], unit) for k, unit in line_names.items()}
    record["line"] = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": emitted,
    }
    path = OUT / f"record-{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    record["record"] = str(path.relative_to(ROOT))
    return record


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, str):
        return value
    return f"{value:.6g}"


def _print_human(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"workers {record['workers']}  nproc {record['nproc']}")
    for name, m in record["metrics"].items():
        if name in ("items_per_s", "quality"):
            continue
        extra = ""
        if name == "op_tail_s":
            tail = record["op_tail"]
            extra = f"  (p{tail['percentile']} of {tail['samples']} ops, {tail['beyond']} beyond)"
        print(f"  {name:32s} {_fmt(m['value']):>12s} {m['unit']}{extra}")
    c = record["checks"]
    print(f"  checks: {c['ops']} ops, {c['failed']} failed, statistical misses "
          f"{c['statistical_misses']}/{c['statistical_checks']} (allowed rate {c['miss_rate']:.3g})")
    for problem in c["problems"]:
        print(f"  FAILED {problem}")
    for miss in c["misses"]:
        print(f"  miss {miss}")
    if record.get("missing_boundaries"):
        print(f"  missing boundaries: {', '.join(record['missing_boundaries'])}")
    print(f"  record: {record['record']}")


def _run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    lines = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        out = proc.stdout.strip().splitlines()
        print("\n".join(out[:-1]), flush=True)
        if proc.returncode != 0 or not out:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        lines[name] = json.loads(out[-1])
    print(json.dumps({
        "correct": all(v["correct"] for v in lines.values()),
        "attempted": sum(v["attempted"] for v in lines.values()),
        "failed": sum(v["failed"] for v in lines.values()),
        "metrics": {f"{w}.{k}": m for w, v in lines.items() for k, m in v["metrics"].items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "smoothcert" / "cli.py").is_file():
        print(f"perfbench: no smoothcert sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        _setup(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return _run_all(args)
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_human(record)
    print(json.dumps(record["line"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
