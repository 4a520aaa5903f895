"""Synthesis and verification toolkit for reversible circuits built from
NOT, CNOT and 2-CNOT gates.

The names below are the documented library surface; everything else is
imported from its module."""

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
from .synth_basic import synth_even_permutation
from .synth_lupanov import StageReport, synth_mapping

__version__ = "0.1.0"
