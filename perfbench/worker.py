"""One fresh benchmark process: set up, solve problems, report as JSON.

Reads a JSON request on stdin and writes one JSON object on stdout.  The
request names the workload and either a time budget (`seconds`: whole
rounds of the seeded stream until the timed seconds reach it) or an
explicit problem list.  Only the calls into cycloper are timed; checking
and rendering answers are not.

    {"workload": "opers", "seed": 1, "seconds": 10}
    {"workload": "opers", "problems": [...], "trace": "results/t.json"}
    {"workload": "opers", "setup_only": true}
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

PROBLEM_TIMEOUT_S = 60


class ProblemTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise ProblemTimeout(f"problem took longer than {PROBLEM_TIMEOUT_S} s")


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:24]


def child_env():
    """Environment of every process that runs cycloper: the checkout's own
    source tree, and fixed string hashing so runs repeat exactly."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def import_engine():
    sys.path.insert(0, str(SRC))
    import cycloper

    if Path(cycloper.__file__).resolve().parent != SRC / "cycloper":
        raise SystemExit(f"cycloper imported from {cycloper.__file__}, not from {SRC}")


def solve_all(req, solve_one):
    """Run solve_one over the requested problems; returns result records.

    solve_one(p) -> (timed seconds, answer lines, failure reason or None)."""
    from workloads import problem_key, problems, round_size

    budget = req.get("seconds")
    if req.get("problems") is not None:
        source = req["problems"]
    else:
        source = problems(req["workload"], req["seed"])
    size = round_size(req["workload"])
    used = 0.0
    results = []
    for i, p in enumerate(source):
        if budget is not None and i % size == 0 and used >= budget:
            break
        dt, answer, reason = solve_one(p)
        used += dt
        results.append({
            "id": p["id"], "round": p["round"], "key": problem_key(p), "problem": p,
            "seconds": dt, "digest": digest(answer), "failure": reason,
        })
    return results


def run_engine(req, tracer):
    from workloads import Engine

    t0 = time.perf_counter()
    import_engine()
    if tracer is not None:
        tracer.install()
    engine = Engine(req["workload"])
    setup_s = time.perf_counter() - t0
    if req.get("setup_only"):
        return {"setup_s": setup_s}, []
    signal.signal(signal.SIGALRM, _alarm)

    def solve_one(p):
        if tracer is not None:
            tracer.problem = p["id"]
        raw, reason, answer = None, None, []
        signal.alarm(PROBLEM_TIMEOUT_S)
        t = time.perf_counter()
        try:
            raw = engine.solve(p)
        except Exception as e:  # a failed problem is data; the run goes on
            reason = f"{type(e).__name__}: {e}"
        dt = time.perf_counter() - t
        signal.alarm(0)
        if tracer is not None:
            tracer.problem = None
        if raw is not None:
            try:
                answer, reason = engine.check(p, raw)
            except Exception as e:
                reason = f"check raised {type(e).__name__}: {e}"
        return dt, answer, reason

    results = solve_all(req, solve_one)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"setup_s": setup_s, "peak_rss_mb": rss_mb}, results


def cli_import_seconds():
    code = (
        "import time; t = time.perf_counter(); import cycloper.cli; "
        "print(time.perf_counter() - t)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True,
        timeout=60, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def run_cli(req, trace_dir):
    """Each invocation is a fresh `python -m cycloper` process, one at a
    time; its exit code and stdout are the answer."""
    from workloads import FIXTURES

    import_engine()  # fails early in a checkout without the engine
    setup_s = cli_import_seconds()
    if req.get("setup_only"):
        return {"setup_s": setup_s}, []
    count = [0]

    def solve_one(p):
        args = ["--problem", str(FIXTURES / p["fixture"]), "--command", p["command"]]
        if trace_dir is None:
            cmd = [sys.executable, "-m", "cycloper"] + args
        else:
            out_path = trace_dir / f"cli-{count[0]:04d}.json"
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(out_path), p["id"]] + args
        count[0] += 1
        reason = None
        t = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                                  timeout=PROBLEM_TIMEOUT_S)
            code, out = proc.returncode, proc.stdout
        except subprocess.TimeoutExpired:
            code, out, reason = None, "", f"timeout after {PROBLEM_TIMEOUT_S} s"
        dt = time.perf_counter() - t
        return dt, [f"exit {code}", out], reason

    results = solve_all(req, solve_one)
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return {"setup_s": setup_s, "peak_rss_mb": rss_mb}, results


def main():
    req = json.loads(sys.stdin.read())
    sys.path.insert(0, str(HERE))
    trace_path = req.get("trace")
    if req["workload"] == "cli":
        trace_dir = None
        if trace_path:
            trace_dir = Path(trace_path).with_suffix("")
            trace_dir.mkdir(parents=True, exist_ok=True)
        info, results = run_cli(req, trace_dir)
        if trace_dir is not None:
            from tracing import merge_raw

            parts = [json.loads(f.read_text()) for f in sorted(trace_dir.glob("cli-*.json"))]
            raw = merge_raw([part["raw"] for part in parts])
            spans = [dict(s, process=i) for i, part in enumerate(parts) for s in part["spans"]]
            Path(trace_path).write_text(json.dumps({"raw": raw, "spans": spans}))
    else:
        tracer = None
        if trace_path:
            from tracing import Tracer

            tracer = Tracer()
        info, results = run_engine(req, tracer)
        if tracer is not None:
            tracer.dump(trace_path)
    sys.stdout.write(json.dumps({"info": info, "results": results}) + "\n")


if __name__ == "__main__":
    main()
