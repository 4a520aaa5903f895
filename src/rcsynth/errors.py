"""Exception types shared across the toolkit."""


class FormatError(ValueError):
    """A file, literal or setting given to the toolkit does not match its format."""


class CapacityError(RuntimeError):
    """An exhaustive sweep, line allocation or helper budget was exceeded."""


class ContractError(RuntimeError):
    """A synthesis result broke its own contract: a block over its gate budget,
    a block that did not canonicalize to its single core gate, or a
    decomposition residue of the wrong shape.  This is a defect in the
    toolkit, not in the input."""


class ParityError(ValueError):
    """An odd permutation was given where only even ones are realizable."""


class ParameterError(ValueError):
    """A parameter (k, s, K, n, phi, ancilla budget) is out of range."""
