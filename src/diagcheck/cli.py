"""Command-line surface.

Subcommands: verify, gen, fixtures, rhomboids, bounds, oracle, bench.
Exit codes: 0 on success (for verify/oracle: the diagram commutes), 1 when a
diagram is verified non-commutative (the report is still emitted), 2 on
usage, parse, or budget errors, an unreadable input file, or an output file
that cannot be written.  Identical inputs and seeds produce byte-identical
output.  Still open: verify/oracle on a non-UTF-8 or deeply nested document,
and gen/fixtures/rhomboids on a deeply nested --graph file, exit 1 with a
traceback.

The module level imports only what ``verify`` runs.  The other subcommands
import ``constructions``, ``adversarial``, ``oracle``, ``csv`` and ``random``
inside their handlers, so a ``verify`` process never loads them.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

from .diagram import (
    Diagram,
    DiagramFormatError,
    parse_diagram,
    parse_graph,
    serialize_diagram,
    serialize_graph,
)
from .errors import DEFAULT_RHOMBOID_BUDGET, DEFAULT_WALK_BUDGET, BudgetExceededError
from .graph import OrientedGraph, strip_loops
from .monoid import FREE
from .verifier import bound_eq_checks, bound_mults, verify


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    print(text)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


# ---------------------------------------------------------------------------
# Graph sources shared by gen / fixtures / rhomboids


def _add_graph_source(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--fit",
        nargs=2,
        type=int,
        metavar=("N", "M"),
        help="triploid chosen for exactly N vertices and M edges",
    )
    group.add_argument(
        "--params",
        nargs=5,
        type=int,
        metavar=("N1", "N2", "N3", "N0", "E"),
        help="explicit triploid parameters",
    )
    group.add_argument("--graph", metavar="PATH", help="graph JSON file")
    parser.add_argument(
        "--strip-loops",
        action="store_true",
        help="drop loop edges from the generated or loaded graph",
    )


def _resolve_graph(args) -> tuple[OrientedGraph, TriploidParams | None]:
    from .constructions import TriploidParams, choose_triploid, triploid

    if args.fit is not None:
        params = choose_triploid(args.fit[0], args.fit[1])
        graph = triploid(params)
    elif args.params is not None:
        params = TriploidParams(*args.params)
        graph = triploid(params)
    else:
        params = None
        graph = parse_graph(_read(args.graph))
    if args.strip_loops:
        graph = strip_loops(graph)
    return graph, params


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_verify(args) -> int:
    diagram = parse_diagram(_read(args.diagram))
    report = verify(diagram, trace=args.trace)
    _emit(report.to_json(), args.report)
    return 0 if report.commutative else 1


def _cmd_oracle(args) -> int:
    from .oracle import oracle_verify

    diagram = parse_diagram(_read(args.diagram))
    bound = args.length if args.length is not None else diagram.graph.vertex_count
    try:
        commutative = oracle_verify(diagram, bound, budget=args.budget)
    except ValueError as exc:  # a negative --length or --budget
        return _fail(str(exc))
    payload = {"commutative": commutative, "counters": None, "witness": None, "trace": None}
    _emit(json.dumps(payload, indent=2), args.report)
    return 0 if commutative else 1


def _cmd_gen(args) -> int:
    try:
        graph, _ = _resolve_graph(args)
    except ValueError as exc:
        return _fail(str(exc))
    _emit(serialize_graph(graph), args.out)
    return 0


def _fixture_diagram(args, graph: OrientedGraph, params: TriploidParams | None) -> Diagram:
    from .adversarial import (
        loop_indicator_labeling,
        loop_kernel_labeling,
        nz_edge_labeling,
        nz_pair_labeling,
        rhomboid_gap_labeling,
    )
    from .constructions import Rhomboid, explicit_rhomboid_family

    name = args.name
    if name == "nz-edge":
        if args.edge is None:
            raise ValueError("nz-edge requires --edge")
        return nz_edge_labeling(graph, args.edge)
    if name == "nz-pair":
        if args.edge is None or args.edge2 is None:
            raise ValueError("nz-pair requires --edge and --edge2")
        return nz_pair_labeling(graph, args.edge, args.edge2)
    if name == "rhomboid-gap":
        if args.rhomboid is not None:
            square = Rhomboid(*args.rhomboid)
        elif args.rhomboid_index is not None:
            if params is None:
                raise ValueError("--rhomboid-index needs a triploid source (--fit or --params)")
            family = explicit_rhomboid_family(params)
            if not 0 <= args.rhomboid_index < len(family):
                raise ValueError(f"rhomboid index out of range (family has {len(family)} members)")
            square = family[args.rhomboid_index]
        else:
            raise ValueError("rhomboid-gap requires --rhomboid or --rhomboid-index")
        return rhomboid_gap_labeling(graph, square)
    if name == "loop-indicator":
        return loop_indicator_labeling(graph)
    # argparse's choices leave only loop-kernel.
    if args.kernel is None:
        raise ValueError("loop-kernel requires --kernel")
    values = [int(part) for part in args.kernel.split(",") if part != ""]
    return loop_kernel_labeling(graph, values)


def _cmd_fixtures(args) -> int:
    try:
        graph, params = _resolve_graph(args)
        diagram = _fixture_diagram(args, graph, params)
    except ValueError as exc:
        return _fail(str(exc))
    _emit(serialize_diagram(diagram), args.out)
    return 0


def _cmd_rhomboids(args) -> int:
    from .constructions import explicit_rhomboid_family, greedy_disjoint_rhomboids

    try:
        graph, params = _resolve_graph(args)
        if args.explicit:
            if params is None:
                raise ValueError("--explicit needs a triploid source (--fit or --params)")
            family = explicit_rhomboid_family(params)
        else:
            family = greedy_disjoint_rhomboids(graph, budget=args.budget)
    except ValueError as exc:
        return _fail(str(exc))
    payload = [r._asdict() for r in family]
    _emit(json.dumps(payload, indent=2), args.out)
    return 0


def _cmd_bounds(args) -> int:
    from .constructions import LOWER_BOUND_SCALE, rank_bounds

    try:
        bounds = rank_bounds(args.n, args.m)
    except ValueError as exc:
        return _fail(str(exc))
    payload = {
        "eta_upper": bounds["eta_upper"],
        "nu_upper": bounds["nu_upper"],
        "eta_lower": f"{int(bounds['eta_lower'] * LOWER_BOUND_SCALE)}/{LOWER_BOUND_SCALE}",
        "nu_lower": f"{int(bounds['nu_lower'] * LOWER_BOUND_SCALE)}/{LOWER_BOUND_SCALE}",
    }
    _emit(json.dumps(payload, indent=2), args.out)
    return 0


# ---------------------------------------------------------------------------
# Bench


def _count_row(graph: OrientedGraph, n: int, m: int, kind: str, instance: int) -> dict:
    # Identity labels pass every check, so the counters are the graph's maximum.
    report = verify(Diagram(graph, FREE, [FREE.identity()] * graph.edge_count))
    reduced = report.reduced_edges
    bound_eq = bound_eq_checks(n, m)
    bound_mult = bound_mults(n, m)
    refined_eq = bound_eq_checks(n, m, reduced)
    refined_mult = bound_mults(n, m, reduced)
    within = (
        report.eq_total <= refined_eq <= bound_eq
        and report.mult_total <= refined_mult <= bound_mult
    )
    return {
        "n": n,
        "m": m,
        "kind": kind,
        "instance": instance,
        "edges": graph.edge_count,
        "reduced_edges": reduced,
        "eq_total": report.eq_total,
        "mult_total": report.mult_total,
        "bound_eq": bound_eq,
        "bound_mult": bound_mult,
        "refined_bound_eq": refined_eq,
        "refined_bound_mult": refined_mult,
        "within_bounds": "true" if within else "false",
        "rh_family_size": "",
        "loops": "",
        "nu_ge_eq_ok": "",
        "nu_ge_mult_ok": "",
    }


def bench_rows(n_grid, m_grid, seed: int, instances: int) -> list[dict]:
    import random

    from .constructions import triploid, verify_nu_ge

    rng = random.Random(seed)
    rows = []
    for n in sorted(set(n_grid)):
        for m in sorted(set(m_grid)):
            for instance in range(instances):
                # Uniform endpoints; loops and parallel edges arise naturally.
                graph = OrientedGraph(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(m)])
                rows.append(_count_row(graph, n, m, "random", instance))
            if n >= 4 and m >= 4:
                check = verify_nu_ge(n, m)
                row = _count_row(triploid(check["params"]), n, m, "triploid", instances)
                row["rh_family_size"] = check["rh_family_size"]
                row["loops"] = check["loops"]
                row["nu_ge_eq_ok"] = "true" if check["inequality_1_holds"] else "false"
                row["nu_ge_mult_ok"] = "true" if check["inequality_2_holds"] else "false"
                rows.append(row)
    return rows


def _cmd_bench(args) -> int:
    import csv

    try:
        n_grid = [int(part) for part in args.n_grid.split(",") if part != ""]
        m_grid = [int(part) for part in args.m_grid.split(",") if part != ""]
        if not n_grid or not m_grid:
            raise ValueError("empty grid")
        for flag, grid in (("--n-grid", n_grid), ("--m-grid", m_grid)):
            if min(grid) < 0:
                raise ValueError(f"{flag} value {min(grid)} is negative")
        if 0 in n_grid and max(m_grid) > 0:
            raise ValueError(f"--n-grid value 0 has no vertex for the {max(m_grid)} edges of --m-grid")
        if args.instances < 1:
            raise ValueError("--instances must be at least 1")
        rows = bench_rows(n_grid, m_grid, args.seed, args.instances)
    except ValueError as exc:
        return _fail(str(exc))
    buffer = io.StringIO()
    # ``bench_rows`` yields a row for every grid point, and the grids are not
    # empty, so the first row's keys are the header.
    writer = csv.DictWriter(buffer, fieldnames=rows[0].keys(), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    text = buffer.getvalue()
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# Parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diagcheck",
        description="Verify commutativity of monoid-labeled oriented graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify a diagram JSON file")
    p.add_argument("diagram", help="diagram JSON file")
    p.add_argument("--trace", action="store_true", help="record the relation-system trace")
    p.add_argument("--report", metavar="PATH", help="also write the report JSON to PATH")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("oracle", help="brute-force walk-enumeration verdict")
    p.add_argument("diagram", help="diagram JSON file")
    p.add_argument("--length", type=int, default=None, help="walk length bound (default: vertex count)")
    p.add_argument("--budget", type=int, default=DEFAULT_WALK_BUDGET, help="walk enumeration budget")
    p.add_argument("--report", metavar="PATH", help="also write the report JSON to PATH")
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("gen", help="emit a triploid (or loaded graph) as graph JSON")
    _add_graph_source(p)
    p.add_argument("--out", metavar="PATH", help="also write the JSON to PATH")
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("fixtures", help="emit an adversarial labeling as diagram JSON")
    p.add_argument(
        "name",
        choices=("nz-edge", "nz-pair", "rhomboid-gap", "loop-indicator", "loop-kernel"),
    )
    _add_graph_source(p)
    p.add_argument("--edge", type=int, help="edge id (nz-edge, nz-pair)")
    p.add_argument("--edge2", type=int, help="second edge id (nz-pair)")
    p.add_argument("--rhomboid", nargs=4, type=int, metavar=("A", "B", "C", "D"), help="rhomboid edge ids")
    p.add_argument("--rhomboid-index", type=int, help="index into the explicit family (triploid sources)")
    p.add_argument("--kernel", help="comma-separated integers, one per loop")
    p.add_argument("--out", metavar="PATH", help="also write the JSON to PATH")
    p.set_defaults(handler=_cmd_fixtures)

    p = sub.add_parser("rhomboids", help="emit a pairwise-disjoint rhomboid family")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--explicit", action="store_true", help="the triploid's explicit family")
    mode.add_argument("--greedy", action="store_true", help="first-fit family on any graph")
    _add_graph_source(p)
    p.add_argument("--budget", type=int, default=DEFAULT_RHOMBOID_BUDGET, help="enumeration budget for --greedy")
    p.add_argument("--out", metavar="PATH", help="also write the JSON to PATH")
    p.set_defaults(handler=_cmd_rhomboids)

    p = sub.add_parser("bounds", help="closed-form rank bounds for (n, m)")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--out", metavar="PATH", help="also write the JSON to PATH")
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("bench", help="counter-versus-bound CSV over instance grids")
    p.add_argument(
        "--n-grid", required=True,
        help="comma-separated vertex counts; write a list that starts with a negative value as --n-grid=-1,4",
    )
    p.add_argument(
        "--m-grid", required=True,
        help="comma-separated edge counts; write a list that starts with a negative value as --m-grid=-1,4",
    )
    p.add_argument("--seed", type=int, required=True, help="seed for the random instances")
    p.add_argument("--instances", type=int, default=3, help="random instances per grid cell")
    p.add_argument("--csv", metavar="PATH", help="write the CSV to PATH instead of stdout")
    p.set_defaults(handler=_cmd_bench)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (OSError, DiagramFormatError, BudgetExceededError) as exc:
        # An unreadable input, a failed --report/--out/--csv write, a bad
        # document or an exhausted budget is an error, never a verdict.
        return _fail(str(exc))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
