"""The four workloads: how each builds its inputs and serves one request.

A request takes one input all the way to a verdict and checks it against the
answer known from how the input was built.  Request functions return
``(done_ns, record, problems)``: the clock reading when the verdict was
reached, an invariant record (verdicts, counters, reduced edge counts and a
hash of the report bytes) and a list of failure reasons, empty on success.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from time import perf_counter_ns

import diagcheck.adversarial as adversarial
import diagcheck.cli as cli
import diagcheck.constructions as constructions
import diagcheck.diagram as diagram_mod
import diagcheck.graph as graph_mod
import diagcheck.oracle as oracle
import diagcheck.verifier as verifier
from diagcheck.diagram import Diagram
from diagcheck.graph import Path
from diagcheck.monoid import FREE

import inputs

WORKLOADS = ("verify-large", "crosscheck-small", "cli-docs", "certify-grid")
DOC_SEPARATOR = "\n\x1e\n"
ERROR = "error"  # expected outcome of a malformed document: exit 2
CLI_TIMEOUT_S = 60


class Case:
    """One benchmark input and the answer known from its construction."""

    __slots__ = ("key", "kind", "expect", "diagram", "path", "argv", "pair", "wrapped")

    def __init__(self, key, kind, expect, diagram=None, path=None, argv=(), pair=None):
        self.key = key
        self.kind = kind
        self.expect = expect
        self.diagram = diagram
        self.path = path
        self.argv = list(argv)
        self.pair = pair
        self.wrapped = None


class Context:
    """How requests reach the program: plain, or through the tracer's monoid."""

    def __init__(self, root: str, wrap=None):
        self.root = root
        self.wrap = wrap

    def diagram(self, case: Case) -> Diagram:
        if self.wrap is None:
            return case.diagram
        if case.wrapped is None:
            case.wrapped = self.wrap(case.diagram)
        return case.wrapped

    def fresh(self, diagram: Diagram) -> Diagram:
        return diagram if self.wrap is None else self.wrap(diagram)


# ---------------------------------------------------------------------------
# Shared checks


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def bound_problems(n: int, m: int, eq_total: int, mult_total: int, reduced: int) -> list:
    refined_eq = verifier.bound_eq_checks(n, m, reduced)
    refined_mult = verifier.bound_mults(n, m, reduced)
    if eq_total <= refined_eq <= verifier.bound_eq_checks(n, m) and (
        mult_total <= refined_mult <= verifier.bound_mults(n, m)
    ):
        return []
    return [f"counters ({eq_total}, {mult_total}) above bounds for n={n} m={m} reduced={reduced}"]


def report_problems(diagram: Diagram, report, expect: bool) -> list:
    problems = []
    if report.commutative != expect:
        problems.append(f"verdict {report.commutative}, expected {expect}")
    g = diagram.graph
    problems += bound_problems(g.vertex_count, g.edge_count, report.eq_total, report.mult_total, report.reduced_edges)
    if not report.commutative and not oracle.validate_witness(diagram, report.witness):
        problems.append("witness rejected by validate_witness")
    return problems


def report_record(report) -> tuple:
    c = report.counters
    body = report.to_json().encode()
    return (report.commutative, c.eq_loops, c.eq_multi, c.eq_dfs, c.mult_dfs, report.reduced_edges, sha(body))


def certify_problems(n: int, m: int) -> list:
    """Checks of the (n, m) worst-case certificate against the paper's
    closed forms: both inequalities hold, and the rank-bound uppers are the
    verifier's raw operation bounds."""
    problems = []
    cert = constructions.verify_nu_ge(n, m)
    if not (cert["inequality_1_holds"] and cert["inequality_2_holds"]):
        problems.append(f"lower-bound inequality fails at ({n}, {m})")
    p = cert["params"]
    if cert["rh_family_size"] != p.n1 * p.n3 * (p.n2 // 2) or cert["loops"] != m - p.n2 * (p.n1 + p.n3):
        problems.append(f"family size or loop count off the closed form at ({n}, {m})")
    bounds = constructions.rank_bounds(n, m)
    if (bounds["eta_upper"], bounds["nu_upper"]) != (verifier.bound_eq_checks(n, m), verifier.bound_mults(n, m)):
        problems.append(f"rank-bound uppers differ from the operation bounds at ({n}, {m})")
    return problems


# ---------------------------------------------------------------------------
# Input sets


LARGE_COPIES = 3
# (vertices, edges, family) of the random multigraphs, and the (n, m) of the
# worst-case triploid.  A quarter of the edges of the 64/4096 cases: each
# input then takes 1-55 ms, so a 30-second run serves it about 40 times
# or more, and its best latency depends far less on the host's slow stretches.
LARGE_RANDOM = ((32, 1024, "free"), (32, 256, "additive"), (16, 256, "mat2"))
LARGE_TRIPLOID = (32, 1024)


def _verify_large_inputs(rng):
    # Per copy, 13 inputs: a loop-kernel labeling that fails in the loop
    # phase, three random potential pairs, the 8x8 and 2x2 triploid pairs,
    # nz-edge and rhomboid-gap.
    cases = []
    tn, tm = LARGE_TRIPLOID
    tag = f"triploid-{tn}x{tm}"
    params, stripped = inputs.stripped_triploid(tn, tm)
    with_loops = constructions.triploid(params)
    for copy in range(LARGE_COPIES):
        kernel = [0] * params.loops
        kernel[rng.randrange(params.loops)] = rng.choice((-2, -1, 1, 2))
        cases.append((f"{tag}-{copy}/loop-kernel", adversarial.loop_kernel_labeling(with_loops, kernel), False))
        for n, m, family in LARGE_RANDOM:
            edges = inputs.random_edges(n, m, rng)
            cases += inputs.potential_pair(f"random-{n}x{m}-{copy}", family, n, edges, rng)
        for family in ("mat8", "mat2"):
            cases += inputs.potential_pair(f"{tag}-{copy}", family, tn, list(stripped.edges), rng)
        cases += inputs.triploid_fixtures(f"{tag}-{copy}", params, stripped, rng)
    return cases, [LARGE_TRIPLOID]


TINY_COPIES = 3
TINY_FAMILIES = ("free", "additive", "mat2")
TINY_WALK_LIMIT = 300


def _tiny_inputs(rng, copies):
    """Tiny potential diagrams and twins, stratified so every seed has the
    same number of inputs for each (vertices, edges, family) cell."""
    cases = []
    for copy in range(copies):
        for n in range(1, 8):
            for m in range(12):
                for family in TINY_FAMILIES:
                    while True:
                        edges = inputs.random_edges(n, m, rng)
                        # The oracle enumerates every walk of length <= n;
                        # a loop-heavy graph would make one request cost
                        # as much as thousands of others.
                        if inputs.walk_count(n, edges, TINY_WALK_LIMIT) <= TINY_WALK_LIMIT:
                            break
                    tag = f"tiny-{n}x{m}-{copy}"
                    cases += inputs.potential_pair(tag, family, n, edges, rng, want_reject=False)
    certified = []
    for n in range(4, 8):
        for m in range(4, 12):
            params, stripped = inputs.stripped_triploid(n, m)
            cases += inputs.triploid_fixtures(f"tiny-triploid-{n}x{m}", params, stripped, rng)
            certified.append((n, m))
    return cases, certified


def _kind(key: str) -> str:
    parts = key.split("/")
    return "/".join([parts[0].split("-")[0]] + parts[1:])


def _fixture_problems(cases, ctx: Context) -> list:
    """Cross-check the fixtures' constructed answers with the oracle."""
    problems = []
    for case in cases:
        if "nz-edge" in case.key or "rhomboid-gap" in case.key:
            d = ctx.fresh(case.diagram)
            if oracle.oracle_verify(d, d.graph.vertex_count) != case.expect:
                problems.append(f"{case.key}: oracle disagrees with the constructed answer")
    return problems


def _write_and_load(generated, workdir: str) -> list:
    """Serialize every input into one file, then parse the documents back:
    the requests see only what the program reads from its wire format."""
    texts = [diagram_mod.serialize_diagram(d) for _, d, _ in generated]
    path = os.path.join(workdir, "inputs.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(DOC_SEPARATOR.join(texts))
    with open(path, "r", encoding="utf-8") as handle:
        docs = handle.read().split(DOC_SEPARATOR)
    return [
        Case(key, _kind(key), expect, diagram_mod.parse_diagram(doc))
        for (key, _, expect), doc in zip(generated, docs)
    ]


def _cli_inputs(rng, workdir: str):
    generated = []
    for family in TINY_FAMILIES:
        n = rng.randint(3, 7)
        generated += inputs.potential_pair(f"tiny-{n}", family, n, inputs.random_edges(n, n + 3, rng), rng, want_reject=False)
    certified = []
    for n, m, family in ((32, 256, "free"), (16, 128, "additive"), (64, 1024, "free")):
        generated += inputs.potential_pair(f"random-{n}x{m}", family, n, inputs.random_edges(n, m, rng), rng)
    params, stripped = inputs.stripped_triploid(64, 4096)
    generated += inputs.potential_pair("triploid-64x4096", "mat2", 64, list(stripped.edges), rng)
    params, stripped = inputs.stripped_triploid(32, 1024)
    generated += inputs.triploid_fixtures("triploid-32x1024", params, stripped, rng)
    certified += [(64, 4096), (32, 1024)]
    traced = inputs.potential_pair("trace-16x64", "free", 16, inputs.random_edges(16, 64, rng), rng)
    traced += inputs.potential_pair("trace-12x48", "additive", 12, inputs.random_edges(12, 48, rng), rng)

    cases = []
    for idx, (key, d, expect) in enumerate(generated + traced):
        path = os.path.join(workdir, f"doc{idx:03d}.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(diagram_mod.serialize_diagram(d))
        argv = ["--trace"] if key.startswith("trace-") else []
        cases.append(Case(key, _kind(key), expect, d, path, argv))
    for idx, (key, payload) in enumerate(_malformed_documents(rng)):
        path = os.path.join(workdir, f"bad{idx}.json")
        with open(path, "wb") as handle:
            handle.write(payload)
        cases.append(Case(key, key, ERROR, None, path))
    return cases, certified


def _malformed_documents(rng):
    """Documents whose contract is exit 2.  The non-UTF-8 and the deeply
    nested ones currently crash with exit 1 (the open exit-code item of the
    roadmap); they stay in the mix so that defect shows in fail_share."""
    n = rng.randint(3, 9)
    doc = {"vertices": n, "monoid": {"family": "matrix", "k": 2},
           "edges": [{"origin": 0, "tail": 1, "label": [[1, 0], [0, 1]]}]}
    out_of_range = json.loads(json.dumps(doc))
    out_of_range["edges"][0]["tail"] = n + rng.randint(0, 5)
    bad_shape = json.loads(json.dumps(doc))
    bad_shape["edges"][0]["label"] = [[1, 0, 0], [0, 1, 0]]
    depth = rng.randint(50_000, 100_000)
    return [
        ("malformed/bad-json", json.dumps(doc)[: -rng.randint(2, 20)].encode()),
        ("malformed/endpoint-out-of-range", json.dumps(out_of_range).encode()),
        ("malformed/label-shape", json.dumps(bad_shape).encode()),
        ("malformed/non-utf8", json.dumps(doc).encode()[:-1] + b', "note": "\xff\xfe"}'),
        ("malformed/deep-nesting", b"[" * depth + b"]" * depth),
    ]


GRID_CELLS = 12
GRID_LOW, GRID_HIGH = 4, 130


def _grid_inputs(rng, workdir: str):
    """One (n, m) pair drawn from each cell of a GRID_CELLS x GRID_CELLS
    partition of [4, 130]^2, so every seed covers the grid evenly."""
    cuts = [GRID_LOW + (GRID_HIGH + 1 - GRID_LOW) * i // GRID_CELLS for i in range(GRID_CELLS + 1)]
    pairs = [
        (rng.randrange(cuts[i], cuts[i + 1]), rng.randrange(cuts[j], cuts[j + 1]))
        for i in range(GRID_CELLS)
        for j in range(GRID_CELLS)
    ]
    path = os.path.join(workdir, "pairs.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump([[n, m, rng.random(), rng.random()] for n, m in pairs], handle)
    with open(path, "r", encoding="utf-8") as handle:
        rows = json.load(handle)
    cases = [Case(f"grid-{n}x{m}-{i}", "grid", True, pair=(n, m, u, v)) for i, (n, m, u, v) in enumerate(rows)]
    return cases, []


def setup(workload: str, seed: int, workdir: str, ctx: Context):
    """Build, write and load the workload's inputs.

    Returns the cases and the failures found while checking the inputs'
    constructed answers (oracle cross-check of fixtures, certificates).
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli-docs":
        cases, certified = _cli_inputs(rng, workdir)
    elif workload == "certify-grid":
        cases, certified = _grid_inputs(rng, workdir)
    else:
        if workload == "verify-large":
            generated, certified = _verify_large_inputs(rng)
        else:
            generated, certified = _tiny_inputs(rng, TINY_COPIES)
        cases = _write_and_load(generated, workdir)
    problems = _fixture_problems([c for c in cases if c.diagram is not None], ctx)
    for n, m in sorted(set(certified)):
        problems += certify_problems(n, m)
    return cases, problems


# ---------------------------------------------------------------------------
# Requests


def verify_large_request(case: Case, ctx: Context):
    d = ctx.diagram(case)
    report = verifier.verify(d)
    done = perf_counter_ns()
    return done, (case.key,) + report_record(report), report_problems(d, report, case.expect)


def crosscheck_request(case: Case, ctx: Context):
    d = ctx.diagram(case)
    report = verifier.verify(d)
    brute = oracle.oracle_verify(d, d.graph.vertex_count)
    problems = report_problems(d, report, case.expect)
    done = perf_counter_ns()
    if brute != case.expect:
        problems.append(f"oracle verdict {brute}, expected {case.expect}")
    return done, (case.key, brute) + report_record(report), problems


def certify_request(case: Case, ctx: Context):
    n, m, u, v = case.pair
    params = constructions.choose_triploid(n, m)
    g = constructions.triploid(params)
    family = constructions.explicit_rhomboid_family(params)
    problems = certify_problems(n, m)
    if (params.vertex_count, params.e, len(family)) != (n, m, params.n1 * params.n3 * (params.n2 // 2)):
        problems.append(f"triploid shape off at ({n}, {m})")
    one = FREE.identity()
    identity_labeled = ctx.fresh(Diagram(g, FREE, [one] * g.edge_count))
    reports = [(identity_labeled, verifier.verify(identity_labeled), True)]
    stripped = graph_mod.strip_loops(g)
    nz = ctx.fresh(adversarial.nz_edge_labeling(stripped, int(u * stripped.edge_count)))
    reports.append((nz, verifier.verify(nz), True))
    brute = oracle.oracle_verify(nz, nz.graph.vertex_count)
    if family:
        # As ``diagcheck fixtures rhomboid-gap`` emits it and ``verify`` reads it.
        emitted = diagram_mod.serialize_diagram(adversarial.rhomboid_gap_labeling(stripped, family[int(v * len(family))]))
        gap = ctx.fresh(diagram_mod.parse_diagram(emitted))
        reports.append((gap, verifier.verify(gap), False))
    for d, report, expect in reports:
        problems += report_problems(d, report, expect)
    done = perf_counter_ns()
    if not brute:
        problems.append("oracle rejects the nz-edge labeling")
    record = (case.key,) + tuple(x for _, report, _ in reports for x in report_record(report))
    return done, record, problems


def _cli_problems(case: Case, code: int, out: bytes, err: bytes) -> list:
    if b"Traceback" in err:
        return [f"crash with exit {code}: {err.strip().splitlines()[-1][:120].decode(errors='replace')}"]
    if case.expect == ERROR:
        if code != 2 or out or not err.startswith(b"error:"):
            return [f"exit {code}, expected a format error with exit 2"]
        return []
    if code != (0 if case.expect else 1):
        return [f"exit {code}, expected {0 if case.expect else 1}"]
    payload = json.loads(out)
    counters = payload["counters"]
    eq_total = counters["eq_loops"] + counters["eq_multi"] + counters["eq_dfs"]
    g = case.diagram.graph
    problems = bound_problems(g.vertex_count, g.edge_count, eq_total, counters["mult_dfs"], counters["reduced_edges"])
    if payload["commutative"] != case.expect:
        problems.append(f"verdict {payload['commutative']}, expected {case.expect}")
    if not case.expect and not oracle.validate_witness(case.diagram, witness_from_dict(payload["witness"])):
        problems.append("witness rejected by validate_witness")
    if ("--trace" in case.argv) != (payload["trace"] is not None):
        problems.append("trace presence does not match the request")
    return problems


def witness_from_dict(raw: dict):
    kind = raw["kind"]
    if kind == "non_identity_loop":
        return verifier.NonIdentityLoop(raw["edge"])
    if kind == "multi_edge_mismatch":
        return verifier.MultiEdgeMismatch(raw["edge"], raw["kept"])
    paths = [Path(tuple(raw[p]["edges"]), raw[p]["origin"], raw[p]["tail"]) for p in ("path1", "path2")]
    return verifier.PathMismatch(*paths)


def cli_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_request(case: Case, ctx: Context, env: dict):
    """One ``python -m diagcheck.cli verify FILE`` process, spawn to exit."""
    argv = [sys.executable, "-m", "diagcheck.cli", "verify", case.path, *case.argv]
    proc = subprocess.run(argv, cwd=ctx.root, env=env, capture_output=True, timeout=CLI_TIMEOUT_S)
    done = perf_counter_ns()
    record = (case.key, proc.returncode, sha(proc.stdout))
    return done, record, _cli_problems(case, proc.returncode, proc.stdout, proc.stderr)


def cli_inprocess_request(case: Case, ctx: Context):
    """The same request through ``diagcheck.cli.main`` with output captured."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["verify", case.path, *case.argv])
    except Exception as exc:  # a crash is this request's outcome, not the run's
        done = perf_counter_ns()
        trace = f"Traceback (in-process)\n{type(exc).__name__}: {exc}".encode()
        return done, (case.key, 1, sha(out.getvalue().encode())), _cli_problems(case, 1, b"", trace)
    done = perf_counter_ns()
    stdout = out.getvalue().encode()
    return done, (case.key, code, sha(stdout)), _cli_problems(case, code, stdout, err.getvalue().encode())


def request_function(workload: str, traced: bool, root: str):
    if workload == "verify-large":
        return verify_large_request
    if workload == "crosscheck-small":
        return crosscheck_request
    if workload == "certify-grid":
        return certify_request
    if traced:
        return cli_inprocess_request
    env = cli_env(root)
    return lambda case, ctx: cli_request(case, ctx, env)
