"""One workload in a fresh process: set up, run passes, print one JSON line.

run.py starts this script; it is not meant to be run by hand:

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|measure \
        --seconds S --trace 0|1 --workdir DIR

``--mode setup`` stops once the inputs are ready, so run.py can time
set-up in several fresh processes.  ``--mode measure`` then runs whole
passes until the next one would end after ``--seconds``; at least one.
With ``--trace 1`` it alternates an untraced and a traced pass, so the
two can be compared for digests and overhead in one process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import bipcover  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, Reference  # noqa: E402


def run_passes(workload, state, seconds: float, tracer, reference) -> list[dict]:
    kinds = (False, True) if tracer else (False,)
    passes = []
    start = time.perf_counter()
    rounds = 0
    while True:
        for traced in kinds:
            patches = tracing.install(tracer) if traced else []
            result = workload.run_pass(state, reference)
            tracing.uninstall(patches)
            passes.append({
                "traced": traced, "busy_s": result.busy_s, "ops": result.ops,
                "failed": result.failed, "op_ms": result.op_ms, "ref_ms": result.ref_ms,
                "digest": hashlib.sha256(result.output).hexdigest(),
                "traffic": result.traffic,
                "trace": tracer.take() if traced else None,
            })
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            after_last = reference.sample(workload.REFERENCE_LOOPS)
            divide_by_local_reference(passes, after_last)
            return passes


def divide_by_local_reference(passes: list[dict], after_last: float) -> None:
    """Set each pass's ``op_ref``: op time over the reference time around it.

    The local reference is the mean over the loop groups timed just before
    the op before, before the op itself, and before the next two ops (or
    after the last op): a window of a few seconds, short beside the
    minutes over which the host's speed drifts.
    """
    refs = [r for p in passes for r in p["ref_ms"]] + [after_last]
    local = [statistics.fmean(refs[max(0, i - 1):i + 3]) for i in range(len(refs) - 1)]
    at = 0
    for p in passes:
        p["op_ref"] = [ms / r for ms, r in zip(p["op_ms"], local[at:])]
        at += len(p["op_ms"])


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    if not Path(bipcover.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.stderr.write(f"perfbench: bipcover came from {bipcover.__file__}, "
                         f"not from {ROOT / 'src'}\n")
        return 2
    workload = WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    reference = Reference()
    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        patches = tracing.install(tracer) if tracer else []
        state = workload.setup(args.seed, tmp)
        tracing.uninstall(patches)
        setup_trace = tracer.take() if tracer else None
        ready_at = time.monotonic()
        passes = (run_passes(workload, state, args.seconds, tracer, reference)
                  if args.mode == "measure" else [])
    out = {
        "ready_at": ready_at, "passes": passes, "setup_trace": setup_trace,
        "reference_s": reference.seconds, "reference_loops": reference.calls,
        "spans": list(workload.spans), "setup_spans": list(workload.setup_spans),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": platform.python_version(), "numpy": numpy.__version__,
    }
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
