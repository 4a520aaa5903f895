"""Synthesis and verification toolkit for reversible circuits built from
NOT, CNOT and 2-CNOT gates.

`__all__` is the documented library surface; everything else is imported
from its module.  The synthesizers' modules are imported on first use of
one of their names (PEP 562), so `import rcsynth` alone does not compile
them."""

import importlib

from .circuit import Circuit, Gate, GateCountReport, realized_mapping
from .errors import (
    CapacityError,
    ContractError,
    FormatError,
    ParameterError,
    ParityError,
)
from .io import (
    parse_circuit,
    parse_mapping,
    parse_permutation,
    parse_spec_table,
    serialize_circuit,
    serialize_mapping,
    serialize_permutation,
)
from .perm import BooleanMapping, Permutation

__version__ = "0.1.0"
__all__ = [
    "BooleanMapping", "Permutation", "realized_mapping", "synth_even_permutation",
    "synth_mapping", "Circuit", "Gate", "GateCountReport", "StageReport",
    "CapacityError", "ContractError", "FormatError", "ParameterError", "ParityError",
    "parse_circuit", "parse_mapping", "parse_permutation", "parse_spec_table",
    "serialize_circuit", "serialize_mapping", "serialize_permutation",
]
_LAZY = {"synth_even_permutation": "synth_basic",
         "synth_mapping": "synth_lupanov", "StageReport": "synth_lupanov"}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __package__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
