"""The README's library quick start runs as written, and its
Configuration section names exactly the solver's settings."""

import contextlib
import dataclasses
import io
import re
from pathlib import Path

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
