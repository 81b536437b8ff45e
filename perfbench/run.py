"""bipcover benchmark: run one workload, or all of them, and print its metrics.

    python3 perfbench/run.py --workload threshold-n1000
    python3 perfbench/run.py --workload all --seconds 10
    python3 perfbench/run.py --workload check-n1000 --trace 1
    python3 perfbench/run.py --workload mindeg-n400 --seed 7

Run it from the root of a checkout.  The metric names, units and bounds
come from BENCHMARK.json.  Every workload runs in fresh processes started
here (worker.py), one at a time: set-up is timed in several of them and
the last one measures.  The final line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the lines
before it say what ran, on what machine, and whether outputs matched.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 20250808  # the acceptance suite's BASE_SEED
SETUP_SAMPLES = 5  # fresh processes timed per run; the last one also measures
RUN_LIMIT_S = 170  # per workload, inside the 180 s a run may take
# Printed with every run but not gated: on a shared host they drift with
# the host's speed (README.md); their reference-divided forms are gated.
RAW_UNITS = {"ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p90": "ms"}


class BenchError(Exception):
    """A worker that crashed or ran out of time: the run has no result."""


def read_text(path: Path) -> str | None:
    try:
        return path.read_text()
    except OSError:
        return None


def git_commit() -> str:
    head = (read_text(ROOT / ".git" / "HEAD") or "").strip()
    if not head.startswith("ref: "):
        return head or "unknown (not a git checkout)"
    ref = head[len("ref: "):]
    loose = read_text(ROOT / ".git" / ref)
    if loose:
        return loose.strip()
    for line in (read_text(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return f"unknown ({ref})"


def environment() -> dict:
    """Read-only facts about the code and the machine; nothing is changed."""
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bipcover").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    cpuinfo = read_text(Path("/proc/cpuinfo")) or ""
    models = [line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
              if line.startswith("model name")]
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (read_text(index / name) for name in ("level", "type", "size"))
        if level and kind and size:
            caches.append(f"L{level.strip()} {kind.strip()} {size.strip()}")
    return {
        "commit": git_commit(), "source_sha256": sources.hexdigest(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": models[0] if models else platform.processor() or "unknown",
        "caches": caches, "python": platform.python_version(),
        "loadavg_start": os.getloadavg(),
    }


def spawn(args: list[str], deadline: float) -> dict:
    """Run worker.py to completion; its set-up time is counted from here."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} ran out of time") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["ready_at"] - spawned
    return result


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def check_run(name: str, seed: int, run: dict, pinned: dict) -> tuple[int, int, list[str]]:
    """Ops attempted, ops failed, and the problems that make the run incorrect.

    A pass whose digest differs from the reference fails all its ops.  The
    reference is the pinned digest at the default seed; on other seeds it
    is the first pass's, so passes must at least agree with each other.
    """
    passes = run["passes"]
    at_default = seed == DEFAULT_SEED
    reference = pinned[name]["digest"] if at_default else passes[0]["digest"]
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["ops"] if p["digest"] != reference else p["failed"] for p in passes)
    problems = []
    traffic = passes[0]["traffic"]
    if any(p["traffic"] != traffic for p in passes):
        problems.append("traffic differs between passes")
    if at_default and traffic != pinned[name]["traffic"]:
        problems.append(f"traffic {traffic} != pinned {pinned[name]['traffic']}")
    traced = [p for p in passes if p["traced"]]
    for p in traced:
        silent = [s for s in run["spans"] if not p["trace"]["calls"].get(s)]
        if silent:
            problems.append(f"declared spans recorded no calls: {silent}")
        if p["trace"]["counts"] != traced[0]["trace"]["counts"]:
            problems.append("traced counts differ between passes")
    if traced:
        silent = [s for s in run["setup_spans"] if not run["setup_trace"]["calls"].get(s)]
        if silent:
            problems.append(f"declared set-up spans recorded no calls: {silent}")
    if failed:
        problems.append(f"{failed} of {attempted} ops failed")
    return attempted, failed, problems


def end_to_end(run: dict, setups: list[float]) -> tuple[dict, dict]:
    """Metric values, and the samples behind each.

    ``ops_per_s`` and ``op_ms_*`` are wall time by the benchmark's clock.
    The gated ``ops_per_kref`` and ``op_ref_*`` divide out the host's speed
    at the time: the first by the mean time of every reference loop of the
    run, the others op by op by the reference timed around each op.
    """
    passes = [p for p in run["passes"] if not p["traced"]]
    op_ms = [x for p in passes for x in p["op_ms"]]
    op_ref = [x for p in passes for x in p["op_ref"]]
    ops = sum(p["ops"] for p in passes)
    busy_s = sum(p["busy_s"] for p in passes)
    ref_ms = run["reference_s"] * 1000 / run["reference_loops"]
    p50, p90 = percentile(op_ms, 50), percentile(op_ms, 90)
    values = {
        "ops_per_s": ops / busy_s, "op_ms_p50": p50, "op_ms_p90": p90,
        "ops_per_kref": ops / busy_s * ref_ms,
        "op_ref_p50": percentile(op_ref, 50), "op_ref_p90": percentile(op_ref, 90),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": run["peak_rss_kb"] / 1024,
    }
    timed = f"{ops} ops in {len(passes)} passes, {busy_s:.2f} s"
    per_op = f"{len(op_ms)} samples"
    per_ref = f"ref = {ref_ms:.4f} ms, mean of {run['reference_loops']} loops"
    local_ref = f"{len(op_ref)} samples, each over the reference around it"
    samples = {
        "ops_per_s": timed, "op_ms_p50": per_op, "op_ms_p90": per_op,
        "ops_per_kref": f"{timed}; {per_ref}",
        "op_ref_p50": local_ref, "op_ref_p90": local_ref,
        "setup_s": f"median of {len(setups)} fresh processes",
        "peak_rss_mb": "ru_maxrss of the measuring process",
    }
    return values, samples


def per_layer(run: dict, names: list[str]) -> dict:
    """Self time, calls and counts per traced pass; set-up spans once per set-up."""
    traced = [p for p in run["passes"] if p["traced"]]
    untraced = [p for p in run["passes"] if not p["traced"]]

    def per_pass(section: str, key: str) -> float:
        return sum(p["trace"][section].get(key, 0) for p in traced) / len(traced)

    values = {}
    for name in names:
        if name == "trace.overhead_pct":
            ratio = (statistics.median(p["busy_s"] for p in traced)
                     / statistics.median(p["busy_s"] for p in untraced))
            values[name] = (ratio - 1) * 100
        elif name.endswith(".self_ms"):
            span = name[:-len(".self_ms")]
            values[name] = (run["setup_trace"]["self_ms"].get(span, 0.0)
                            if span in run["setup_spans"] else per_pass("self_ms", span))
        elif name.endswith(".calls"):
            values[name] = per_pass("calls", name[:-len(".calls")])
        else:
            values[name] = per_pass("counts", name)
    return values


def measure(name: str, seed: int, seconds: int, trace: int, bench: dict,
            pinned: dict, workdir: Path) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    base = ["--workload", name, "--seed", str(seed), "--workdir", str(workdir)]
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(spawn(base + ["--mode", "setup"], deadline)["setup_s"])
    run = spawn(base + ["--mode", "measure", "--seconds", str(seconds),
                        "--trace", str(trace)], deadline)
    setups.append(run["setup_s"])
    attempted, failed, problems = check_run(name, seed, run, pinned)

    print(f"== {name}  seed {seed}  trace {trace}  "
          f"python {run['python']}  numpy {run['numpy']}")
    digests = sorted({p["digest"] for p in run["passes"]})
    pin = pinned[name]["digest"]
    print(f"   digest {', '.join(digests)}"
          + (f"  (pinned {'match' if digests == [pin] else 'MISMATCH ' + pin})"
             if seed == DEFAULT_SEED else "  (not the default seed: no pinned digest)"))
    print(f"   traffic per pass {json.dumps(run['passes'][0]['traffic'], sort_keys=True)}")
    print(f"   failed_ops_frac {failed / attempted:.6g}  ({failed} of {attempted} ops)")
    e2e, samples = end_to_end(run, setups)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    units.update(RAW_UNITS)
    for key, value in e2e.items():
        gated = " " if key in RAW_UNITS else "*"
        print(f" {gated} {key:<12} {value:>14.6g} {units[key]:<5} ({samples[key]})")
    if trace:
        metrics = per_layer(run, [m["name"] for m in bench["per_layer"]])
        for key, value in metrics.items():
            print(f"   {key:<48} {value:>14.6g} {units[key]}")
        spans = run["passes"][-1]["trace"]
        print("   all spans, last traced pass (self ms / calls): " + json.dumps(
            {s: [round(v, 3), spans["calls"][s]] for s, v in sorted(spans["self_ms"].items())}))
    else:
        metrics = {m["name"]: e2e[m["name"]] for m in bench["end_to_end"]}
    for problem in problems:
        print(f"   PROBLEM: {problem}")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=workloads + ["all"], required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "bipcover" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no bipcover sources under {ROOT / 'src'}\n")
        return 2
    pinned = json.loads((HERE / "pinned.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    names = workloads if args.workload == "all" else [args.workload]

    print("env " + json.dumps(environment(), sort_keys=True))
    workdir = ROOT / ".perfbench_work"
    workdir.mkdir(exist_ok=True)
    try:
        results = {name: measure(name, args.seed, seconds, args.trace, bench, pinned, workdir)
                   for name in names}
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    finally:
        try:
            workdir.rmdir()
        except OSError:
            pass
    print(f"env loadavg_end {list(os.getloadavg())}")

    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}.{k}": v for name, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
