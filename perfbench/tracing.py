"""Spans recorded from outside the package, for the traced run.

The tracer rebinds public names where they are looked up (module globals the
package's own code calls through, and the names ``diagcheck.cli`` and
``diagcheck.adversarial`` imported) and restores them afterwards.  Labels are
reached through ``TimedMonoid``, a delegating wrapper whose calls are
aggregated into the innermost open span as a count and total nanoseconds, so
a request with a hundred thousand monoid operations still makes a handful of
spans.  No private function is wrapped.
"""

from __future__ import annotations

import contextlib
import json
from time import perf_counter_ns

import diagcheck.adversarial as adversarial
import diagcheck.cli as cli
import diagcheck.constructions as constructions
import diagcheck.diagram as diagram_mod
import diagcheck.oracle as oracle
import diagcheck.verifier as verifier
from diagcheck.diagram import Diagram
from diagcheck.graph import OrientedGraph

# Span record layout: a flat list per span keeps the traced run cheap.
NAME, START, END, PARENT, REQUEST, SIZE, ID_N, ID_NS, OP_N, OP_NS, EQ_N, EQ_NS = range(12)


class TimedMonoid:
    """Delegating monoid that counts and times ``identity``/``op``/``eq``."""

    def __init__(self, inner, tracer: "Tracer"):
        self.inner = inner
        self.tracer = tracer

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def _current(self):
        stack = self.tracer.stack
        return self.tracer.spans[stack[-1]] if stack else self.tracer.loose

    def identity(self):
        t0 = perf_counter_ns()
        value = self.inner.identity()
        rec = self._current()
        rec[ID_N] += 1
        rec[ID_NS] += perf_counter_ns() - t0
        return value

    def op(self, a, b):
        t0 = perf_counter_ns()
        value = self.inner.op(a, b)
        t1 = perf_counter_ns()
        rec = self._current()
        rec[OP_N] += 1
        rec[OP_NS] += t1 - t0
        self.tracer.op_total += 1
        return value

    def eq(self, a, b):
        t0 = perf_counter_ns()
        value = self.inner.eq(a, b)
        t1 = perf_counter_ns()
        rec = self._current()
        rec[EQ_N] += 1
        rec[EQ_NS] += t1 - t0
        self.tracer.eq_total += 1
        return value


class Tracer:
    """In-memory spans: name, start, end, parent, request id, plus the
    monoid calls made directly inside each span."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.request = -1
        self.loose = self._record("(outside spans)", -1)
        self.op_total = 0
        self.eq_total = 0
        self.verify_stats: list = []  # (eq, mult, refined eq bound, refined mult bound)
        self.count_mismatches = 0

    def _record(self, name, parent):
        return [name, 0, 0, parent, self.request, 0, 0, 0, 0, 0, 0, 0]

    def wrap_diagram(self, diagram: Diagram) -> Diagram:
        return Diagram(diagram.graph, TimedMonoid(diagram.monoid, self), diagram.labels)

    def span(self, name: str, fn, size=None):
        """``fn`` wrapped in a span; ``size(args, result)`` fills its size."""
        spans, stack = self.spans, self.stack

        def wrapped(*args, **kwargs):
            rec = self._record(name, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter_ns()
                stack.pop()
            if size is not None:
                rec[SIZE] = size(args, result)
            return result

        return wrapped

    def _checked_verify(self, verify):
        """``verify`` whose report must count exactly the operations the
        timer saw; also keeps the counters next to their refined bounds."""

        def checked(diagram, *args, **kwargs):
            ops, eqs = self.op_total, self.eq_total
            report = verify(diagram, *args, **kwargs)
            if (self.op_total - ops, self.eq_total - eqs) != (report.mult_total, report.eq_total):
                self.count_mismatches += 1
            g = diagram.graph
            n, m, reduced = g.vertex_count, g.edge_count, report.reduced_edges
            self.verify_stats.append(
                (report.eq_total, report.mult_total, verifier.bound_eq_checks(n, m, reduced), verifier.bound_mults(n, m, reduced))
            )
            return report

        return checked

    def _parse_for_cli(self, parse):
        traced_parse = self.span("diagram.parse", parse, size=lambda args, _: len(args[0]))

        def parse_over_wrapper(text):
            return self.wrap_diagram(traced_parse(text))

        return parse_over_wrapper

    def _patches(self):
        verify = self._checked_verify(self.span("verifier.verify", verifier.verify))
        parse = self.span("diagram.parse", diagram_mod.parse_diagram, size=lambda args, _: len(args[0]))
        predicate = "graph.predicates"
        patches = [
            (constructions, "choose_triploid", self.span("constructions.choose_triploid", constructions.choose_triploid)),
            (constructions, "triploid", self.span("constructions.triploid", constructions.triploid)),
            (constructions, "explicit_rhomboid_family",
             self.span("constructions.family", constructions.explicit_rhomboid_family)),
            (constructions, "verify_nu_ge", self.span("constructions.verify_nu_ge", constructions.verify_nu_ge)),
            (constructions, "rank_bounds", self.span("constructions.rank_bounds", constructions.rank_bounds)),
            (adversarial, "nz_edge_labeling", self.span("adversarial.labeling", adversarial.nz_edge_labeling)),
            (adversarial, "rhomboid_gap_labeling", self.span("adversarial.labeling", adversarial.rhomboid_gap_labeling)),
            (OrientedGraph, "__init__", self.span("graph.build", OrientedGraph.__init__)),
            (diagram_mod, "parse_diagram", parse),
            (diagram_mod, "serialize_diagram", self.span("diagram.serialize", diagram_mod.serialize_diagram)),
            (verifier, "verify", verify),
            (verifier, "remove_loops", self.span("verifier.loops", verifier.remove_loops)),
            (verifier, "remove_multiple_edges", self.span("verifier.multi", verifier.remove_multiple_edges)),
            (verifier, "reduced_edge_count", self.span("verifier.reduced", verifier.reduced_edge_count)),
            (verifier.VerificationReport, "to_json", self.span(
                "verifier.report_json", verifier.VerificationReport.to_json, size=self._report_size)),
            (oracle, "oracle_verify", self.span(
                "oracle.verify", oracle.oracle_verify, size=lambda args, _: args[0].graph.vertex_count)),
            (oracle, "validate_witness", self.span("oracle.validate", oracle.validate_witness)),
            (cli, "main", self.span("cli.main", cli.main)),
            (cli, "verify", verify),
            (cli, "parse_diagram", self._parse_for_cli(diagram_mod.parse_diagram)),
        ]
        for name in ("has_multiple_edges", "has_triangle", "is_2_path_bounded", "is_quasi_acyclic", "loop_count"):
            patches.append((adversarial, name, self.span(predicate, getattr(adversarial, name))))
        return patches

    @staticmethod
    def _report_size(args, text):
        # Negative sizes mark reports that carry a relation trace.
        return -len(text) if args[0].trace is not None else len(text)

    @contextlib.contextmanager
    def installed(self):
        """Rebind every traced name for the duration of the block."""
        patches = self._patches()
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, replacement in patches:
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        """Write every span as one JSON line, once, at the end of the run."""
        with open(path, "w", encoding="utf-8") as handle:
            for rec in [self.loose] + self.spans:
                handle.write(json.dumps(rec) + "\n")


@contextlib.contextmanager
def verify_timer(totals: list):
    """Untraced-pass timing of ``verify`` only: adds [ns, operations] into
    ``totals`` without spans or monoid wrapping."""
    original = verifier.verify

    def timed(*args, **kwargs):
        t0 = perf_counter_ns()
        report = original(*args, **kwargs)
        totals[0] += perf_counter_ns() - t0
        totals[1] += report.eq_total + report.mult_total
        return report

    try:
        verifier.verify = cli.verify = timed
        yield totals
    finally:
        verifier.verify = cli.verify = original
