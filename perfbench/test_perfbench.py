"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from diagcheck.oracle import oracle_verify

import inputs

SPEC_PATH = os.path.join(run.ROOT, "BENCHMARK.json")


def _spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _run(capsys, workload: str, trace: int, seconds: float = 0.2) -> tuple[dict, dict]:
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", str(seconds), "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(capsys, workload):
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        details, result = _run(capsys, workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in spec[key]}
        assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
        assert details["input_mix"]
        if trace:
            assert details["unexercised"] == []


def test_traced_and_untraced_runs_agree_on_invariants(capsys):
    # Long enough for the untraced run to serve every input at least once.
    untraced, _ = _run(capsys, "crosscheck-small", 0, seconds=4)
    traced, _ = _run(capsys, "crosscheck-small", 1)
    assert untraced["distinct_inputs"] == traced["distinct_inputs"]
    assert untraced["invariants_sha256"] == traced["invariants_sha256"]


def test_known_defect_counts_as_failure_not_wrong_answer(capsys):
    details, result = _run(capsys, "cli-docs", 0, seconds=5)
    crashes = sum(count for kind, count in details["input_mix"].items()
                  if kind in ("malformed/non-utf8", "malformed/deep-nesting"))
    assert crashes > 0
    assert details["failed_requests"] == crashes
    # The result line counts distinct inputs: two documents crash.
    assert result["attempted"] == details["distinct_inputs"]
    assert result["failed"] == 2
    assert result["correct"] is True


def test_wrong_expected_answer_is_counted_and_the_run_goes_on(tmp_path):
    ctx = workloads.Context(run.ROOT)
    cases, problems = workloads.setup("crosscheck-small", 5, str(tmp_path), ctx)
    assert problems == []
    cases[7].expect = not cases[7].expect
    tally = run.Tally()
    for case in cases:
        run.serve(tally, case, workloads.crosscheck_request, ctx)
    assert tally.attempted == len(cases)
    assert tally.failed == 1 and tally.wrong == 1
    assert cases[7].key in tally.problems[0]


def test_known_answer_rule_agrees_with_the_oracle():
    rng = random.Random(11)
    verdicts = {True: 0, False: 0}
    for i in range(1500):
        n = rng.randint(1, 6)
        edges = inputs.random_edges(n, rng.randint(0, 9), rng)
        if inputs.walk_count(n, edges, 3000) > 3000:
            continue
        family = workloads.TINY_FAMILIES[i % 3]
        for key, diagram, commutes in inputs.potential_pair(f"t{i}", family, n, edges, rng, want_reject=False):
            assert oracle_verify(diagram, n) == commutes, key
            verdicts[commutes] += 1
    assert verdicts[True] > 1000 and verdicts[False] > 300


def test_run_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(os.path.join(run.ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(SPEC_PATH, tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-large", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_keeps_ten_samples_beyond_it():
    samples = [float(i) for i in range(1, 1001)]
    assert run.tail(samples) == (990.0, 99.0)
    assert run.tail(samples[:50]) == (40.0, 80.0)
    assert run.tail(samples[:5]) == (5.0, 100.0)


def test_result_counts_depend_on_inputs_not_on_run_length():
    tally = run.Tally()
    case = workloads.Case("a", "a", True)
    for latency in (5, 3, 4):
        tally.add(case, latency * 10**6, ("a",), [])
    tally.add(workloads.Case("b", "b", True), 10**6, ("b",), ["wrong"])
    tally.add(workloads.Case("b", "b", True), 10**6, ("b",), ["wrong"])
    assert (tally.attempted, tally.failed) == (5, 2)
    assert (tally.inputs_attempted, tally.inputs_failed) == (2, 1)
    assert tally.best_ms == {"a": 3.0, "b": 1.0}
