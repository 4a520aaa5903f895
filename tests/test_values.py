"""Value semantics of the record types: repr, construction, class-exact
equality, hashing, immutability, copying and validation messages."""
import copy
import pickle

import pytest

from rcsynth import BooleanMapping, Circuit, Gate, GateCountReport, Permutation, StageReport
from rcsynth.circuit import MAX_LINES, count_gates

ONE_GATE = Circuit(2, 1, [Gate([], 0)], [0])
STAGES = StageReport(1, 2, 1, (1, 2, 3, 4), (5, 6, 7, 8))


def values():
    """Two equal objects of each type, built positionally and by keyword."""
    return [
        (BooleanMapping(1, (0, 0)), BooleanMapping(n=1, images=[0, 0])),
        (Permutation(1, (1, 0)), Permutation(n=1, images=[1, 0])),
        (ONE_GATE, Circuit(m=2, n=1, gates=(Gate((), 0),), outputs=(0,))),
        (count_gates(ONE_GATE), GateCountReport(nots=1, cnots=0, toffolis=0)),
        (STAGES, StageReport(k=1, s=2, p=1, gate_counts=(1, 2, 3, 4),
                             ancilla_counts=(5, 6, 7, 8))),
    ]


def test_repr():
    assert repr(BooleanMapping(1, (0, 0))) == "BooleanMapping(n=1, images=(0, 0))"
    assert repr(Permutation(1, (1, 0))) == "Permutation(n=1, images=(1, 0))"
    assert repr(ONE_GATE) == "Circuit(m=2, n=1, gates=(((), 0),), outputs=(0,))"
    assert repr(count_gates(ONE_GATE)) == "GateCountReport(nots=1, cnots=0, toffolis=0)"
    assert repr(STAGES) == (
        "StageReport(k=1, s=2, p=1, gate_counts=(1, 2, 3, 4),"
        " ancilla_counts=(5, 6, 7, 8))"
    )


@pytest.mark.parametrize("a, b", values())
def test_keyword_construction_equals_positional_and_hashes_equal(a, b):
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_equality_is_class_exact():
    mapping, perm = BooleanMapping(1, (1, 0)), Permutation(1, (1, 0))
    assert mapping != perm and perm != mapping
    assert mapping.images == perm.images
    assert Permutation(1, (1, 0)) != Permutation(1, (0, 1))
    assert ONE_GATE != Circuit(2, 1, [Gate([], 1)], [0])
    assert ONE_GATE != Circuit(2, 1, [Gate([], 0)], [1])


@pytest.mark.parametrize("a, _", values())
def test_fields_cannot_be_assigned_or_deleted(a, _):
    for name in ("n", "images", "m", "gates", "outputs", "nots", "k"):
        if hasattr(a, name):
            with pytest.raises(AttributeError):
                setattr(a, name, 0)
            with pytest.raises(AttributeError):
                delattr(a, name)


@pytest.mark.parametrize(
    "a", [BooleanMapping(1, (0, 0)), Permutation(1, (1, 0)), Circuit(2, 1, (), (1,)),
          Gate((0,), 1), Circuit(3, 2, [Gate((0, 1), 2), Gate((1,), 0), Gate((), 2)], (2, 0)),
          GateCountReport(1, 0, 0), STAGES]
)
def test_copy_and_pickle_round_trip(a):
    pickled = [pickle.loads(pickle.dumps(a, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for b in (copy.copy(a), copy.deepcopy(a), *pickled):
        assert type(b) is type(a) and b == a


@pytest.mark.parametrize(
    "cls, args, message",
    [
        (BooleanMapping, (0, ()), "bit count must be at least 1"),
        (BooleanMapping, (2, (0, 1, 2)), r"expected 2\^2 images, got 3"),
        (BooleanMapping, (1, (0, 2)), r"image 2 out of range \[0, 2\)"),
        (Permutation, (0, (0,)), "bit count must be at least 1"),
        (Permutation, (1, (0,)), r"expected 2\^1 images, got 1"),
        # The bijection check runs after the range checks.
        (Permutation, (1, (2, 2)), r"image 2 out of range \[0, 2\)"),
        (Permutation, (1, (0, 0)), "image table is not a bijection"),
        (Circuit, (1, 0, (), ()), "need m >= n >= 1, got m=1, n=0"),
        (Circuit, (1, 2, (), (0, 9)), "need m >= n >= 1, got m=1, n=2"),
        (Circuit, (MAX_LINES + 1, 1, (), (0,)), f"{MAX_LINES + 1} lines exceed the limit of {MAX_LINES}"),
        (Circuit, (2, 1, (), (0, 1)), "outputs must name 1 distinct lines"),
        (Circuit, (2, 2, (), (1, 1)), "outputs must name 2 distinct lines"),
        (Circuit, (2, 1, [Gate([], 5)], (2,)), r"output line 2 out of range \[0, 2\)"),
        (Circuit, (2, 1, [Gate([], 0), Gate([], 5)], (0,)), r"gate 1: target 5 out of range \[0, 2\)"),
        # Bit counts, images and lines must be exactly int: a float image
        # used to fail later in synth_mapping, a bool passed as 0 or 1.
        (BooleanMapping, (3, (0, 1.5, 2, 3, 4, 5, 6, 7)), r"image 1\.5 is not an int"),
        (BooleanMapping, (1, (0, 2.0)), r"image 2\.0 is not an int"),
        (Permutation, (3, (True, False, 2, 3, 4, 5, 6, 7)), "image True is not an int"),
        (BooleanMapping, (True, (0, 1)), "bit count True is not an int"),
        (BooleanMapping, (2.0, (0, 1, 2, 3)), r"bit count 2\.0 is not an int"),
        (Circuit, (2, 2, (), (0.0, 1)), r"output line 0\.0 is not an int"),
        (Circuit, (2, 2, (), (0, True)), "output line True is not an int"),
        (Circuit, (2.0, 2, (), (0, 1)), r"line counts m=2\.0, n=2 are not both ints"),
        (Circuit, (3, 2.0, (), (0, 1)), r"line counts m=3, n=2\.0 are not both ints"),
    ],
)
def test_validation_messages(cls, args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        cls(*args)
