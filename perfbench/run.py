"""The cycloper benchmark.  One run of one workload, from the repo root:

    python3 perfbench/run.py --workload opers --seed 1 --seconds 8 --trace 0

--trace 0 measures the end-to-end metrics with tracing off: set-up time in
fresh processes, a timed run of whole rounds of seeded problems in one fresh
process, every answer checked, then a history check that re-solves a few of
the run's problems each alone in a fresh process.  --trace 1 solves a fixed
problem list twice in fresh processes, untraced and traced, and reports the
per-layer metrics and the tracing overhead.  Either way the last line of
stdout is one JSON object; details and spans go to perfbench/results/.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
EXPECTED = HERE / "expected"

sys.path.insert(0, str(HERE))
from tracing import layer_metrics, unit_of  # noqa: E402
from workloads import WORKLOADS, pass_size, problems, round_size  # noqa: E402

SETUP_SAMPLES = 5        # fresh set-ups per run, the timed run's own included
HISTORY_CHECKS = 1       # problems re-solved alone per run
RUN_BUDGET_S = 170       # a run must end within 180 s


class Deadline:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        left = self.end - time.monotonic()
        if left <= 0:
            raise SystemExit("run budget exhausted")
        return left


def worker(request, deadline):
    """Run one fresh worker process; returns its JSON reply."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    # its own process group, so a timeout also ends the CLI processes it runs
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=env, cwd=str(ROOT), start_new_session=True,
    )
    try:
        out, err = proc.communicate(json.dumps(request), timeout=deadline.left())
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def expected_digests(workload):
    path = EXPECTED / f"{workload}.json"
    return json.loads(path.read_text()) if path.exists() else {}


def check_expected(workload, results):
    """Compare answers with the digests recorded for the default seed.
    Every cli invocation is recorded, so an unrecorded one is unverifiable."""
    expected = expected_digests(workload)
    for r in results:
        want = expected.get(r["key"])
        if r["failure"] is None and want is not None and want != r["digest"]:
            r["failure"] = "answer differs from the recorded answer"
        if r["failure"] is None and want is None and workload == "cli":
            r["failure"] = "no recorded answer for this invocation"


def history_check(workload, seed, results, deadline):
    """Re-solve a few problems of the run each alone in a fresh process."""
    if workload == "cli":  # every invocation already runs in a fresh process
        return []
    # from the second half of the run, where most history precedes them
    later = results[len(results) // 2:]
    rng = random.Random(f"cycloper-bench:history:{workload}:{seed}")
    picked = rng.sample(later, min(HISTORY_CHECKS, len(later)))
    checks = []
    for r in picked:
        alone = worker({"workload": workload, "problems": [r["problem"]]}, deadline)
        a = alone["results"][0]
        same = a["digest"] == r["digest"] and a["failure"] == r["failure"]
        checks.append({"id": r["id"], "same": same, "alone_failure": a["failure"]})
        if not same and r["failure"] is None:
            r["failure"] = "answer differs from the same problem solved alone"
    return checks


def context(args, results):
    def cpu_model():
        try:
            for line in Path("/proc/cpuinfo").read_text().splitlines():
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or "unknown"

    def git_commit():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                                 capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    src = hashlib.sha256()
    for f in sorted((ROOT / "src" / "cycloper").glob("*.py")):
        src.update(f.name.encode() + b"\0" + f.read_bytes())
    rounds = sorted({r["round"] for r in results})
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "source_sha256": src.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "round_size": round_size(args.workload),
        "rounds": len(rounds),
        "problems": len(results),
        "load": "one process at a time; cli runs one child at a time",
    }


def measure(args, deadline):
    main = worker({"workload": args.workload, "seed": args.seed, "seconds": args.seconds},
                  deadline)
    setups = [main["info"]["setup_s"]]
    for _ in range(SETUP_SAMPLES - 1):
        setups.append(worker({"workload": args.workload, "setup_only": True},
                             deadline)["info"]["setup_s"])
    results = main["results"]
    check_expected(args.workload, results)
    history = history_check(args.workload, args.seed, results, deadline)
    times = [r["seconds"] for r in results]
    ok = sum(r["failure"] is None for r in results)
    failed = len(results) - ok
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "problems_per_s": (ok / sum(times), "1/s"),
        "problem_s.p50": (statistics.median(times), "s"),
        "peak_rss_mb": (main["info"]["peak_rss_mb"], "MB"),
    }
    detail = {
        "samples": {"setup_s": len(setups), "problem_s.p50": len(times)},
        "setup_s_samples": setups,
        "fail_ratio": failed / len(results),
        "history_checks": history,
    }
    return results, metrics, detail


def measure_traced(args, deadline):
    # one pass: every slot once
    plist = list(itertools.islice(problems(args.workload, args.seed), pass_size(args.workload)))
    trace_path = RESULTS / f"{args.workload}-s{args.seed}-spans.json"
    plain = worker({"workload": args.workload, "problems": plist}, deadline)
    traced = worker({"workload": args.workload, "problems": plist,
                     "trace": str(trace_path)}, deadline)
    results = traced["results"]
    for a, b in zip(plain["results"], results):
        if b["failure"] is None and a["failure"] is None and a["digest"] != b["digest"]:
            b["failure"] = "traced answer differs from the untraced answer"
        if b["failure"] is None and a["failure"] is not None:
            b["failure"] = a["failure"]
    check_expected(args.workload, results)
    dump = json.loads(trace_path.read_text())
    per_layer = layer_metrics(dump["raw"])
    plain_s = sum(r["seconds"] for r in plain["results"])
    traced_s = sum(r["seconds"] for r in results)
    per_layer["trace.overhead_ratio"] = traced_s / plain_s
    dump["metrics"] = per_layer
    trace_path.write_text(json.dumps(dump))
    metrics = {k: (v, unit_of(k)) for k, v in per_layer.items()}
    failed = sum(r["failure"] is not None for r in results)
    detail = {
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "fail_ratio": failed / len(results),
        "spans_file": str(trace_path.relative_to(ROOT)),
    }
    return results, metrics, detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "cycloper" / "__init__.py").is_file():
        raise SystemExit(f"no cycloper source tree under {ROOT}")
    deadline = Deadline(RUN_BUDGET_S)
    RESULTS.mkdir(exist_ok=True)
    if args.trace:
        results, metrics, detail = measure_traced(args, deadline)
    else:
        results, metrics, detail = measure(args, deadline)
    failed = sum(r["failure"] is not None for r in results)
    out = {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report = {
        "context": context(args, results),
        "result": out,
        **detail,
        "failures": [{"id": r["id"], "problem": r["problem"], "failure": r["failure"]}
                     for r in results if r["failure"] is not None],
        "problems": [{k: r[k] for k in ("id", "key", "seconds", "digest", "failure")}
                     for r in results],
    }
    name = f"{args.workload}-s{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(report, indent=1))
    for k, (v, u) in metrics.items():
        print(f"{k} = {v:.6g} {u}")
    print(json.dumps(out))


if __name__ == "__main__":
    main()
