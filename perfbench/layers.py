"""Per-layer metrics from the traced run's spans.

A *cycle* is the traced set-up plus one traced pass over every input; totals
(``*_s``, counts) are per cycle, so they repeat exactly for a seed.  Means per
call (``*_ms``, ``*_us``, ``*_ns``) are over every traced call.  Spans of the
CLI probe (request id -2) count only towards ``cli.main_ms``.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from time import perf_counter_ns

from tracing import END, EQ_N, EQ_NS, ID_NS, NAME, OP_N, OP_NS, REQUEST, SIZE, START

PROBE_REPEATS = 5
PROBE_DOCS = 3
SETUP, PASS, PROBE = "setup", "pass", "probe"
# Span names every workload's traced cycle is expected to produce.
EXPECTED_SPANS = (
    "verifier.verify", "verifier.loops", "verifier.multi", "verifier.reduced", "verifier.report_json",
    "diagram.parse", "diagram.serialize", "graph.build", "graph.predicates", "oracle.verify",
    "oracle.validate", "constructions.choose_triploid", "constructions.triploid", "constructions.family",
    "constructions.verify_nu_ge", "constructions.rank_bounds", "adversarial.labeling", "cli.main",
)


def _phase(request: int) -> str:
    return SETUP if request == -1 else PROBE if request == -2 else PASS


def _aggregate(tracer) -> dict:
    """name -> phase -> [duration ns, calls, size, op calls, op ns, eq calls, eq ns, monoid ns]."""
    table: dict = {}
    for rec in [tracer.loose] + tracer.spans:
        row = table.setdefault(rec[NAME], {}).setdefault(_phase(rec[REQUEST]), [0] * 8)
        row[0] += rec[END] - rec[START]
        row[1] += 1
        row[2] += rec[SIZE]
        row[3] += rec[OP_N]
        row[4] += rec[OP_NS]
        row[5] += rec[EQ_N]
        row[6] += rec[EQ_NS]
        row[7] += rec[ID_NS] + rec[OP_NS] + rec[EQ_NS]
    return table


def _run(argv, env) -> float:
    t0 = perf_counter_ns()
    subprocess.run(argv, env=env, check=True, capture_output=True, timeout=60)
    return (perf_counter_ns() - t0) / 1e6


def cli_probes(workloads, tracer, ctx, cases, workdir, env, workload) -> dict:
    """Interpreter start and import cost in child processes, and, for the
    in-process workloads, ``cli.main`` on a few of the workload's own inputs."""
    interp = statistics.median(_run([sys.executable, "-c", "pass"], env) for _ in range(PROBE_REPEATS))
    imported = statistics.median(
        _run([sys.executable, "-c", "import diagcheck.cli"], env) for _ in range(PROBE_REPEATS)
    )
    problems = []
    if workload != "cli-docs":
        docs = []
        for case in cases[:PROBE_DOCS]:
            diagram = case.diagram
            if diagram is None:  # certify-grid: the identity-labelled triploid of the pair
                n, m = case.pair[:2]
                graph = workloads.constructions.triploid(workloads.constructions.choose_triploid(n, m))
                one = workloads.FREE.identity()
                diagram = workloads.Diagram(graph, workloads.FREE, [one] * graph.edge_count)
            path = os.path.join(workdir, f"probe{len(docs)}.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(workloads.diagram_mod.serialize_diagram(diagram))
            docs.append(workloads.Case(f"probe/{case.key}", "probe", case.expect, diagram, path))
        with tracer.installed():
            tracer.request = -2
            for case in docs:
                problems += workloads.cli_inprocess_request(case, ctx)[2]
    seen = {rec[NAME] for rec in tracer.spans if rec[REQUEST] != -2 or rec[NAME] == "cli.main"}
    return {
        "interp_ms": interp,
        "import_ms": imported - interp,
        "problems": problems,
        "unexercised": [name for name in EXPECTED_SPANS if name not in seen],
    }


def per_layer_metrics(tracer, passes, verify_stats, verify_totals, untraced_walls, traced_walls, probe) -> dict:
    table = _aggregate(tracer)

    def cycle(name: str, field: int) -> float:
        phases = table.get(name, {})
        return phases.get(SETUP, [0] * 8)[field] + phases.get(PASS, [0] * 8)[field] / passes

    def mean_ns(name: str, phases=(SETUP, PASS)) -> float:
        rows = [table.get(name, {}).get(p, [0] * 8) for p in phases]
        calls = sum(r[1] for r in rows)
        return sum(r[0] for r in rows) / calls if calls else 0.0

    def monoid_total(field: int) -> float:
        return sum(cycle(name, field) for name in table)

    def mean_call_ns(field_n: int, field_ns: int) -> float:
        n = sum(r[field_n] for phases in table.values() for p, r in phases.items() if p != PROBE)
        ns = sum(r[field_ns] for phases in table.values() for p, r in phases.items() if p != PROBE)
        return ns / n if n else 0.0

    verify_parts = ("verifier.verify", "verifier.loops", "verifier.multi", "verifier.reduced")
    sizes = [rec[SIZE] for rec in tracer.spans if rec[NAME] == "verifier.report_json" and rec[REQUEST] != -2]
    reports = [s for s in sizes if s > 0]
    traces = [-s for s in sizes if s < 0]
    parse_ns = table.get("diagram.parse", {})
    parse_bytes = sum(r[2] for p, r in parse_ns.items() if p != PROBE)
    parse_time = sum(r[0] for p, r in parse_ns.items() if p != PROBE)
    main_phase = (PASS,) if "cli.main" in table and PASS in table["cli.main"] else (PROBE,)
    return {
        "monoid.op_calls": (monoid_total(3), "count"),
        "monoid.eq_calls": (monoid_total(5), "count"),
        "monoid.op_ns": (mean_call_ns(3, 4), "ns"),
        "monoid.eq_ns": (mean_call_ns(5, 6), "ns"),
        "monoid.self_s": (monoid_total(7) / 1e9, "s"),
        "verifier.loops_s": (cycle("verifier.loops", 0) / 1e9, "s"),
        "verifier.multi_s": (cycle("verifier.multi", 0) / 1e9, "s"),
        "verifier.dfs_s": ((cycle("verifier.verify", 0) - sum(cycle(n, 0) for n in verify_parts[1:])) / 1e9, "s"),
        "verifier.self_s": ((cycle("verifier.verify", 0) - sum(cycle(n, 7) for n in verify_parts)) / 1e9, "s"),
        "verifier.ops_per_s": (verify_totals[1] / (verify_totals[0] / 1e9), "1/s"),
        "verifier.bound_ratio_eq": (sum(s[0] for s in verify_stats) / max(1, sum(s[2] for s in verify_stats)), "ratio"),
        "verifier.bound_ratio_mult": (sum(s[1] for s in verify_stats) / max(1, sum(s[3] for s in verify_stats)), "ratio"),
        "verifier.report_json_ms": (mean_ns("verifier.report_json") / 1e6, "ms"),
        "verifier.report_bytes": (statistics.mean(reports) if reports else 0.0, "bytes"),
        "verifier.trace_bytes": (statistics.mean(traces) if traces else 0.0, "bytes"),
        "diagram.parse_ms": (mean_ns("diagram.parse") / 1e6, "ms"),
        "diagram.parse_mb_per_s": ((parse_bytes / 1e6) / (parse_time / 1e9) if parse_time else 0.0, "MB/s"),
        "diagram.serialize_s": (cycle("diagram.serialize", 0) / 1e9, "s"),
        "cli.interp_start_ms": (probe["interp_ms"], "ms"),
        "cli.import_ms": (probe["import_ms"], "ms"),
        "cli.main_ms": (mean_ns("cli.main", main_phase) / 1e6, "ms"),
        "graph.build_s": (cycle("graph.build", 0) / 1e9, "s"),
        "graph.predicates_s": (cycle("graph.predicates", 0) / 1e9, "s"),
        "oracle.verify_ms": (mean_ns("oracle.verify") / 1e6, "ms"),
        "oracle.walks": (cycle("oracle.verify", 3) + cycle("oracle.verify", 2), "count"),
        "oracle.validate_ms": (mean_ns("oracle.validate") / 1e6, "ms"),
        "constructions.choose_triploid_us": (mean_ns("constructions.choose_triploid") / 1e3, "us"),
        "constructions.triploid_ms": (mean_ns("constructions.triploid") / 1e6, "ms"),
        "constructions.family_ms": (mean_ns("constructions.family") / 1e6, "ms"),
        "constructions.verify_nu_ge_ms": (mean_ns("constructions.verify_nu_ge") / 1e6, "ms"),
        "constructions.rank_bounds_us": (mean_ns("constructions.rank_bounds") / 1e3, "us"),
        "adversarial.labeling_ms": (mean_ns("adversarial.labeling") / 1e6, "ms"),
        "trace.overhead_pct": (100 * (statistics.median(traced_walls) / statistics.median(untraced_walls) - 1), "%"),
    }
