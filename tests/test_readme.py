"""The README's examples run and print what their comments say."""

from __future__ import annotations

import json
from pathlib import Path

from diagcheck.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _fenced_block(heading: str, language: str) -> str:
    section = README.split(f"\n{heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_library_quick_start_values_match_its_comments():
    block = _fenced_block("## Library quick start", "python")
    namespace: dict = {}
    exec(block, namespace)
    stated = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if not comment or "=" in code.replace("==", ""):
            continue
        value = repr(eval(code, namespace))
        assert value in comment, (code, value, comment)
        stated.append(value)
    assert stated == ["True", "Counters(eq_loops=0, eq_multi=0, eq_dfs=1, mult_dfs=6)", "True"]


def test_bounds_example_matches_the_cli(capsys):
    block = _fenced_block("## CLI", "sh")
    comment = block.split("diagcheck bounds 11 16\n# ", 1)[1].split("\n", 1)[0]
    stated = json.loads(comment.replace(", ...}", "}"))
    assert stated == {"eta_upper": 192, "nu_upper": 176, "eta_lower": "192/16384"}
    assert main(["bounds", "11", "16"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert {key: printed[key] for key in stated} == stated
