"""Synthesis and verification toolkit for reversible circuits built from
NOT, CNOT and 2-CNOT gates."""

from .bounds import (
    PHI_REGISTRY,
    PSI_REGISTRY,
    BoundReport,
    block_upper,
    build_report,
    gate_set_size,
    gluhov_bound,
    no_ancilla_upper,
    pair_block_upper,
    shannon_lower,
    simple_lower,
)
from .circuit import (
    Circuit,
    Gate,
    GateCountReport,
    basis_gadget,
    ccnot,
    cnot,
    count_gates,
    invert,
    not_gate,
    realized_mapping,
    simulate,
    truth_table_masks,
)
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
from .perm import (
    BooleanMapping,
    Permutation,
    Transposition,
    TranspositionGroup,
    cycle_decomposition,
    is_even,
    moved_points,
    parity,
    split_dependent_pair,
    transposition_stream,
    transpositions_product,
)
from .synth_basic import (
    BlockMatrix,
    choose_block_size,
    synth_block,
    synth_even_permutation,
)
from .synth_lupanov import (
    LineAllocator,
    StageReport,
    choose_params,
    conjunction_bank,
    conjunction_gate_count,
    synth_mapping,
    xor_bank,
)
from .toffoli import (
    decompose_borrowed,
    decompose_clean,
    decompose_garbage,
)

__version__ = "0.1.0"
