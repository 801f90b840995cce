"""Tests of the benchmark itself: seeded inputs, answer checking, and the
outside-in tracing.  Run with `python3 -m pytest -q perfbench/test_perfbench.py`."""

import itertools
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import problems, round_size  # noqa: E402

SEEDED = ("opers", "reproduce", "gaudin")


def first_rounds(workload, seed, rounds=2):
    return list(itertools.islice(problems(workload, seed), rounds * round_size(workload)))


@pytest.mark.parametrize("workload", SEEDED)
def test_same_seed_same_inputs(workload):
    assert first_rounds(workload, 7) == first_rounds(workload, 7)
    assert first_rounds(workload, 7) != first_rounds(workload, 8)


@pytest.mark.parametrize("workload", SEEDED)
def test_no_problem_repeats(workload):
    from workloads import problem_key

    keys = [problem_key(p) for p in first_rounds(workload, 3, rounds=4)]
    assert len(keys) == len(set(keys))


def test_cli_order_is_seeded():
    a, b = first_rounds("cli", 1, rounds=1), first_rounds("cli", 2, rounds=1)
    assert a != b
    assert sorted(map(str, a)) == sorted(map(str, b))


def solve(workload, plist, trace=None):
    request = {"workload": workload, "problems": plist}
    if trace:
        request["trace"] = str(trace)
    return run.worker(request, run.Deadline(300))


def opers_problem():
    # the cheapest slot: A2 at T=4
    return first_rounds("opers", 5, rounds=1)[:1]


def gaudin_problem():
    return [p for p in first_rounds("gaudin", 5, rounds=1) if p["alg"] == "A3"][:1]


@pytest.fixture(scope="module")
def traced_opers(tmp_path_factory):
    d = tmp_path_factory.mktemp("trace")
    plain = solve("opers", opers_problem())
    traced = [solve("opers", opers_problem(), d / f"t{i}.json") for i in range(2)]
    dumps = [run.json.loads((d / f"t{i}.json").read_text()) for i in range(2)]
    return plain, traced, dumps


def test_corrupted_answer_is_counted_as_failed(monkeypatch):
    sys.path.insert(0, str(HERE.parent / "src"))
    from workloads import Engine

    engine = Engine("opers")
    p = opers_problem()[0]
    ctx, lam0, can, res0, resinf = engine.solve(p)
    answer, reason = engine.check(p, (ctx, lam0, can, res0, resinf))
    assert reason is None
    # the class at infinity in place of the class at the origin
    _, reason = engine.check(p, (ctx, lam0, can, resinf, resinf))
    assert reason is not None
    # a digest that differs from the recorded one
    result = {"key": "k", "digest": "x", "failure": None}
    monkeypatch.setattr(run, "expected_digests", lambda workload: {"k": "y"})
    run.check_expected("opers", [result])
    assert result["failure"] is not None


def test_unrecorded_cli_answer_is_unverifiable():
    result = {"key": "not an invocation", "digest": "x", "failure": None}
    run.check_expected("cli", [result])
    assert result["failure"] is not None


def test_traced_and_untraced_answers_agree(traced_opers):
    plain, traced, _ = traced_opers
    digests = [r["digest"] for r in plain["results"]]
    assert digests == [r["digest"] for r in traced[0]["results"]]
    assert all(r["failure"] is None for r in plain["results"] + traced[0]["results"])


def test_calls_through_imported_names_are_counted(traced_opers):
    raw = traced_opers[2][0]["raw"]
    # canonical.py imports gauge_transform by name
    assert raw["connection.gauge_transform_calls"] > 0
    assert raw["canonical.canonical_representative_s"] > 0
    spans = traced_opers[2][0]["spans"]
    canon = [s for s in spans if s["name"] == "canonical_representative"]
    assert canon and all(s["problem"] == opers_problem()[0]["id"] for s in canon)


def test_layer_counts_repeat_exactly(traced_opers):
    a, b = (d["raw"] for d in traced_opers[2])
    counts = [k for k in a if not k.endswith("_s")]
    assert counts and {k: a[k] for k in counts} == {k: b.get(k) for k in counts}


def test_gaudin_bypasses_the_gauge_layer(tmp_path):
    from tracing import layer_metrics

    reply = solve("gaudin", gaudin_problem(), tmp_path / "g.json")
    assert reply["results"][0]["failure"] is None
    metrics = layer_metrics(run.json.loads((tmp_path / "g.json").read_text())["raw"])
    assert metrics["linalg.matmul_calls"] == 0
    assert metrics["chevalley.bracket_calls"] == 0
    assert metrics["scalars.mul_calls"] > 0


def test_history_check_reports_a_mismatch():
    solved = solve("gaudin", gaudin_problem())["results"][0]
    # the same problem, as if solved mid-run with another answer
    results = [dict(solved, round=0), dict(solved, id="again", round=1, digest="x")]
    checks = run.history_check("gaudin", 1, results, run.Deadline(300))
    bad = [c for c in checks if not c["same"]]
    assert bad and results[1]["failure"] is not None
