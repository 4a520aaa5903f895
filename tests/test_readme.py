"""The README's "Library use" example and "Command line" examples, run as
written, the options its "Command line" section names, and the package's
public names."""
import argparse
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import rcsynth
from rcsynth.cli import build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_snippet_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(snippet, str(README), "exec"), {})


def test_command_line_examples_run(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert commands and all(argv[0] == "rcsynth" for argv in commands)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, argv


def test_command_line_options_exist():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    (sub,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    known = {
        opt for p in sub.choices.values() for a in p._actions for opt in a.option_strings
    }
    assert named and named <= known, sorted(named - known)


# "Library use" names, the types they return or raise, and the file-format
# functions; everything else is imported from its module.
PUBLIC = {
    "BooleanMapping", "Permutation", "realized_mapping",
    "synth_even_permutation", "synth_mapping",
    "Circuit", "Gate", "GateCountReport", "StageReport",
    "CapacityError", "ContractError", "FormatError", "ParameterError", "ParityError",
    "parse_circuit", "parse_mapping", "parse_permutation", "parse_spec_table",
    "serialize_circuit", "serialize_mapping", "serialize_permutation",
}


def test_public_names():
    # Read through dir() and getattr(), as a user sees them: the synthesizers'
    # names are bound only on first use.
    public = {
        name
        for name in dir(rcsynth)
        if not name.startswith("_") and not isinstance(getattr(rcsynth, name), ModuleType)
    }
    assert public == PUBLIC


def run_python(code):
    """Run `code` in a fresh interpreter, so no test has imported anything yet."""
    env = dict(os.environ, PYTHONPATH=str(README.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")
    return proc.stdout.decode()


def test_star_import_binds_the_public_names():
    code = "ns = {}; exec('from rcsynth import *', ns); print(sorted(set(ns) - {'__builtins__'}))"
    assert run_python(code) == f"{sorted(PUBLIC)}\n"


@pytest.mark.parametrize("name, module", [
    ("synth_even_permutation", "synth_basic"),
    ("synth_mapping", "synth_lupanov"),
    ("StageReport", "synth_lupanov"),
])
def test_synthesizer_names_resolve_to_their_module(name, module):
    code = (
        f"import rcsynth; value = rcsynth.{name}\n"
        f"print(value is rcsynth.{module}.{name}, vars(rcsynth)['{name}'] is value)"
    )
    assert run_python(code) == "True True\n"
