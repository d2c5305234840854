"""kwscascade benchmark: end-to-end metrics per workload, per-layer on request.

One run (the form the contract in BENCHMARK.json fixes):

    python3 perfbench/run.py --workload busy-float --seed 1 --seconds 10 --trace 0

prints one ``{"record": ...}`` line with the environment, input sizes and
every metric, then the result line ``{"correct", "attempted", "failed",
"metrics"}``. ``--trace 0`` measures the end-to-end metrics; ``--trace 1``
is a separate run that wraps each layer's entry points and reports
per-layer self time and counts over a fixed amount of work.

All workloads, several seeds, one process per run:

    python3 perfbench/run.py --workload all --seeds 1,2,3 --out results.json

Two such files, per workload and end-to-end metric:

    python3 perfbench/run.py --compare old.json new.json

Run it from anywhere inside a checkout: the package is imported from the
checkout's ``src`` directory, and scratch files go under ``.perfbench/``.
"""

import argparse
import ctypes
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np

import layers
import report
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 9
SETUP_YARDSTICK_FRAMES = 2500
RUN_TIMEOUT_S = 600
MODULES = ("synthetic", "encoder", "frontend", "audio_io", "speaker", "evaluation", "cli")

# Reported in every record, and by --compare as quartiles without a
# verdict, but not in BENCHMARK.json: the wall and CPU times as measured
# move with the load other tenants put on a shared machine (the contract
# holds them relative to the yardstick instead), the chunk and wake
# latencies exist on the stream workloads only, and error_rate reads 0
# when all is well (it reaches the contract as failed / attempted).
RECORD_ONLY = ("rtf", "cpu_rtf", "setup_wall_s", "yardstick_us", "chunk_ms_p50",
               "chunk_ms_p99", "wake_ms_p50", "error_rate")


class MissingPackage(Exception):
    """The checkout has no kwscascade sources to benchmark."""


def import_package():
    """Import kwscascade afresh from the checkout's ``src`` directory.

    Earlier imports are dropped first, so each call pays the package's own
    import cost again (numpy stays loaded). Everything built from the
    returned modules must come from the same call: enum members of two
    imports never compare equal.
    """
    if not os.path.isfile(os.path.join(SRC, "kwscascade", "__init__.py")):
        raise MissingPackage(f"no kwscascade package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [n for n in sys.modules if n == "kwscascade" or n.startswith("kwscascade.")]:
        del sys.modules[name]
    kws = importlib.import_module("kwscascade")
    if not os.path.abspath(kws.__file__).startswith(SRC + os.sep):
        raise MissingPackage(f"kwscascade imported from {kws.__file__}, not {SRC}")
    return SimpleNamespace(
        kws=kws, **{m: importlib.import_module(f"kwscascade.{m}") for m in MODULES}
    )


def load_benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def git_sha():
    """HEAD of the checkout, read from .git; None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def openblas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown.

    Read, never set: default threading is what users get.
    """
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "openblas_threads": openblas_threads(),
        "openblas_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end_metrics(workload, m, setups):
    """The contract's end-to-end metrics, then the record-only ones.

    ``setups`` lists (set-up seconds, yardstick seconds per frame right after).
    """
    setup_s = [s / ys * workloads.YARDSTICK_FRAME_S for s, ys in setups]
    metrics = {
        "rtf_ref": _metric(m.relative_cost() / m.block_audio_s, "s/s"),
        "cpu_rtf_ref": _metric(m.relative_cost(cpu=True) / m.block_audio_s, "s/s"),
        "setup_s": _metric(statistics.median(setup_s), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {
        "rtf": _metric(m.block_cost() / m.block_audio_s, "s/s"),
        "cpu_rtf": _metric(m.block_cost(cpu=True) / m.block_audio_s, "s/s"),
        "setup_wall_s": _metric(statistics.median(s for s, _ in setups), "s"),
        "yardstick_us": _metric(1e6 * statistics.median(m.yardstick_frame_s), "us/frame"),
        "error_rate": _metric(m.failed / m.attempted, "share"),
    }
    if workload.stream:
        op_ms = 1000 * np.asarray(m.op_s)
        extra["chunk_ms_p50"] = _metric(float(np.median(op_ms)), "ms")
        tail = report.highest_supported_percentile(len(op_ms))
        p99 = float(np.percentile(op_ms, 99)) if tail in ("99.9", "99") else None
        extra["chunk_ms_p99"] = _metric(p99, "ms")
        extra["chunk_tail"] = {"percentile": tail, "value": (
            float(np.percentile(op_ms, float(tail))) if tail else None), "unit": "ms"}
        extra["wake_ms_p50"] = _metric(
            1000 * statistics.median(m.wake_s) if m.wake_s else None, "ms")
    return metrics, extra


def traced_metrics(workload, state, base):
    """Per-layer metrics from a traced pass over the same work as ``base``."""
    log = spans.SpanLog()
    with spans.Instrumented(log, layers.make_hooks()) as inst:
        if workload.stream:
            state.cascade = state.make_cascade()  # built under the hooks: stage 1 is known
        traced = workload.run(state, None, log)
    workload.final_check(state, traced)
    metrics = layers.layer_metrics(log, inst.missing_layers)
    for name, entry in metrics.items():
        if entry["unit"] == "count" and entry["value"] is not None:
            entry["value"] = int(entry["value"])
    metrics["trace.overhead_ratio"] = _metric(
        sum(traced.op_s) / sum(base.op_s), "ratio")
    metrics["trace.audio_s"] = _metric(traced.audio_s, "s")
    return metrics, traced, log, inst.notes


def run_once(name, seed, seconds, trace):
    workload = workloads.WORKLOADS[name]
    pkg = import_package()  # first import also compiles on a fresh checkout
    workdir = os.path.join(SCRATCH, "work", f"{name}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        inputs = workload.generate(pkg, seed, workdir)
        setups = []  # (set-up seconds, yardstick seconds per frame right after)
        for _ in range(SETUP_REPEATS):
            began = time.perf_counter()
            state = workload.setup(import_package(), inputs)
            setups.append((time.perf_counter() - began,
                           workloads.yardstick_frame_s(SETUP_YARDSTICK_FRAMES)))
        notes = []
        if not trace:
            measured = [workload.run(state, seconds)]
            workload.final_check(state, measured[0])
            metrics, extra = end_to_end_metrics(workload, measured[0], setups)
        else:
            base = workload.run(state, None)
            metrics, traced, log, notes = traced_metrics(workload, state, base)
            extra = {}
            measured = [base, traced]
            os.makedirs(os.path.join(SCRATCH, "spans"), exist_ok=True)
            log.save(os.path.join(SCRATCH, "spans", f"{name}-seed{seed}.npz"))
        sizes = workload.sizes(state)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(m.attempted for m in measured)
    failed = sum(m.failed for m in measured)
    sizes.update({
        "audio_s": measured[-1].audio_s,
        "blocks": measured[-1].blocks,
        "operations": measured[-1].attempted,
        "wakes": len(measured[-1].wake_s),
        "keywords_checked": measured[-1].keywords_checked,
        "setup_s_samples": [s for s, _ in setups],
        "block_s": measured[-1].block_s,
        "block_yardstick_frame_s": measured[-1].yardstick_frame_s,
    })
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "why": workload.why, "env": environment(), "inputs": sizes,
        "metrics": {**metrics, **extra}, "attempted": attempted, "failed": failed,
        "notes": notes + [n for m in measured for n in m.notes],
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return record, result


# ---------------------------------------------------------------------------
# All workloads, and compare
# ---------------------------------------------------------------------------


def run_all(seeds, seconds, trace, out):
    records = []
    for name in workloads.WORKLOADS:
        for seed in seeds:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                sys.stderr.write(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            record = json.loads(lines[-2])["record"]
            records.append(record)
            status = "ok" if record["failed"] == 0 else f"{record['failed']} failed"
            sys.stderr.write(f"{name} seed {seed}: {status}\n")
    print_summary(records)
    if out:
        with open(out, "w") as fh:
            json.dump({"records": records}, fh, indent=1)
    return 0 if all(r["failed"] == 0 for r in records) else 1


def _by_workload(records):
    grouped = {}
    for record in records:
        grouped.setdefault(record["workload"], []).append(record)
    return grouped


def _values(records, metric):
    return [r["metrics"][metric]["value"] for r in records
            if metric in r["metrics"] and r["metrics"][metric]["value"] is not None]


def print_summary(records):
    for name, group in _by_workload(records).items():
        print(f"{name} ({len(group)} runs, seeds {[r['seed'] for r in group]})")
        for metric in group[0]["metrics"]:
            values = _values(group, metric)
            unit = group[0]["metrics"][metric]["unit"]
            if not values:
                print(f"  {metric:34s} {'-':>14}  {unit}")
                continue
            q1, med, q3 = report.quartiles(values)
            print(f"  {metric:34s} {med:14.6g}  {unit:6s} [q1 {q1:.6g}, q3 {q3:.6g}]")


def compare(old_path, new_path):
    """Per workload: quartiles of both files, and for each metric of the
    contract a verdict against its bound in BENCHMARK.json."""
    contract = {m["name"]: m for m in load_benchmark_spec()["end_to_end"]}
    with open(old_path) as fh:
        old = _by_workload(json.load(fh)["records"])
    with open(new_path) as fh:
        new = _by_workload(json.load(fh)["records"])
    print(f"{'workload':16s} {'metric':13s} {'old q1/median/q3':>34s} "
          f"{'new q1/median/q3':>34s} {'change':>8s}  verdict (bound)")
    for name in old:
        if name not in new:
            print(f"{name:16s} missing from {new_path}")
            continue
        by_seed_old = {r["seed"]: r for r in old[name]}
        for metric in [*contract, *RECORD_ONLY]:
            a, b = _values(old[name], metric), _values(new[name], metric)
            if not a or not b:
                continue
            qa, qb = report.quartiles(a), report.quartiles(b)
            line = (f"{name:16s} {metric:13s} "
                    f"{'/'.join(f'{v:.4g}' for v in qa):>34s} "
                    f"{'/'.join(f'{v:.4g}' for v in qb):>34s}")
            if metric not in contract:
                print(f"{line} {'':>8s}  (record only, no verdict)")
                continue
            pairs = []
            for record in new[name]:
                before = by_seed_old.get(record["seed"], {}).get("metrics", {}).get(metric)
                after = record["metrics"].get(metric)
                if before and after and None not in (before["value"], after["value"]):
                    pairs.append((before["value"], after["value"]))
            spec = contract[metric]
            result, change = report.verdict(a, b, spec["better"], spec["bound"], pairs)
            print(f"{line} {100 * change:+7.1f}%  {result} ({spec['bound']})")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seeds", default="1,2,3", help="seeds for --workload all")
    parser.add_argument("--seconds", type=float, help="timed-pass length (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="--workload all: write the records here")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    seconds = args.seconds if args.seconds is not None else load_benchmark_spec()["run_seconds"]
    if args.workload == "all":
        return run_all([int(s) for s in args.seeds.split(",")], seconds, args.trace, args.out)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)} or all")
    try:
        record, result = run_once(args.workload, args.seed, seconds, args.trace)
    except MissingPackage as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
