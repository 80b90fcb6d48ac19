"""What a ``verify`` process loads, and the package's lazily resolved exports.

Each check runs in a fresh interpreter with ``PYTHONPATH=src``, so no module
this test process has already imported hides a load.  The module sets are
compared before and after, because an interpreter's ``site`` hooks may load
some of the named modules at start-up.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction

from diagcheck import ADDITIVE, FREE, Diagram, build, matrix, matrix_monoid, number, serialize_diagram, word

from .conftest import rhomboid_square_graph

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

# Modules that only other subcommands, or the dataclass and typing machinery
# the records no longer use, would load.
_OFF_THE_VERIFY_PATH = (
    "dataclasses",
    "inspect",
    "fractions",
    "decimal",
    "typing",
    "csv",
    "random",
    "diagcheck.constructions",
    "diagcheck.adversarial",
    "diagcheck.oracle",
)

_VERIFY_PROBE = """
import json, sys
before = set(sys.modules)
import diagcheck.cli as cli
codes = [cli.main(["verify", *argv]) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "loaded": sorted(set(sys.modules) - before)}))
"""

_EXPORT_PROBE = """
import json, sys, types
import diagcheck
from diagcheck import oracle, verifier
results = {"submodules": [isinstance(m, types.ModuleType) for m in (oracle, verifier)]}
results["submodule_names"] = [oracle.__name__, verifier.__name__, diagcheck.constructions.__name__]
import diagcheck.adversarial, diagcheck.cli, diagcheck.constructions, diagcheck.errors
modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("diagcheck.")]
# Every module that binds an exported name binds the object its defining
# module made, so the package's value must be that very object.
unresolved = []
for name in diagcheck.__all__:
    value = getattr(diagcheck, name)
    owners = [m for m in modules if name in vars(m)]
    if not owners or any(vars(m)[name] is not value for m in owners):
        unresolved.append(name)
results["unresolved"] = unresolved
results["count"] = len(diagcheck.__all__)
results["distinct"] = len(set(diagcheck.__all__))
results["in_dir"] = set(diagcheck.__all__) <= set(dir(diagcheck))
try:
    diagcheck.no_such_name
except AttributeError as exc:
    results["missing"] = str(exc)
print(json.dumps(results))
"""


def _run(script: str, *args: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(_SRC))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_a_verify_process_loads_only_the_verify_path(tmp_path):
    half = number(Fraction(1, 2))
    documents = [
        # A commuting square with "p/q" labels, a traced matrix triangle with
        # a path witness, a non-identity loop and a parallel-edge mismatch.
        Diagram(rhomboid_square_graph(), ADDITIVE, [half, half, number(1), number(0)]),
        Diagram(build(3, [(0, 1), (1, 2), (0, 2)]), matrix_monoid(2),
                [matrix(((1, 1), (0, 1))), matrix(((1, 0), (1, 1))), matrix(((1, 0), (0, 1)))]),
        Diagram(build(1, [(0, 0)]), FREE, [word(3)]),
        Diagram(build(2, [(0, 1), (0, 1)]), FREE, [word(1), word(2)]),
    ]
    argvs = []
    for index, diagram in enumerate(documents):
        path = tmp_path / f"doc{index}.json"
        path.write_text(serialize_diagram(diagram), encoding="utf-8")
        argvs.append([str(path)])
    argvs[1] += ["--trace", "--report", str(tmp_path / "report.json")]
    result = _run(_VERIFY_PROBE, json.dumps(argvs))
    assert result["codes"] == [0, 1, 1, 1]
    assert "diagcheck.verifier" in result["loaded"]
    assert [name for name in _OFF_THE_VERIFY_PATH if name in result["loaded"]] == []


def test_every_export_resolves_to_its_module_object():
    result = _run(_EXPORT_PROBE)
    assert result["submodules"] == [True, True]
    assert result["submodule_names"] == ["diagcheck.oracle", "diagcheck.verifier", "diagcheck.constructions"]
    assert result["unresolved"] == []
    assert result["count"] == result["distinct"] == 63
    assert result["in_dir"]
    assert result["missing"] == "module 'diagcheck' has no attribute 'no_such_name'"
