"""The README's library quick start runs as written, its Configuration
section names exactly the solver's settings, and its CLI synopsis names
exactly the CLI's subcommands."""

import contextlib
import dataclasses
import io
import argparse
import re
from pathlib import Path

from pgcon.cli import build_parser
from pgcon.driver import SolverConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_prints_its_answer():
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue() == "KktPoint [1. 0.]\n"


def test_configuration_section_names_every_config_field():
    text = README.read_text()
    start = text.index("## Configuration")
    section = text[start:text.index("\n## ", start + 1)]
    documented = set(re.findall(r"`(\w+)=", section))
    assert documented == {f.name for f in dataclasses.fields(SolverConfig)}


def test_cli_synopsis_names_every_subcommand():
    text = README.read_text()
    section = text[text.index("## CLI"):]
    synopsis = re.search(r"```\n(.*?)```", section, re.S).group(1)
    documented = re.findall(r"^pgcon ([\w-]+)", synopsis, re.M)
    subparsers, = (a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
    assert sorted(documented) == sorted(subparsers.choices)
