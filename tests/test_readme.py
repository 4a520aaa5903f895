"""The README's "Library use" example and "Command line" examples, run as
written, the options its "Command line" section names, and the package's
public names."""
import argparse
import re
import shlex
from pathlib import Path
from types import ModuleType

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


def test_public_names():
    # "Library use" names, the types they return or raise, and the file-format
    # functions; everything else is imported from its module.
    public = {
        name
        for name, value in vars(rcsynth).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert public == {
        "BooleanMapping", "Permutation", "realized_mapping",
        "synth_even_permutation", "synth_mapping",
        "Circuit", "Gate", "GateCountReport", "StageReport",
        "CapacityError", "ContractError", "FormatError", "ParameterError", "ParityError",
        "parse_circuit", "parse_mapping", "parse_permutation", "parse_spec_table",
        "serialize_circuit", "serialize_mapping", "serialize_permutation",
    }
