"""Serialized circuits of fixed instances, pinned by SHA-256 and gate count.

Any change to synthesis or serialization that alters one output byte fails
here.  A change meant to alter output updates these values and reports the
gate-count difference.
"""
import hashlib
from random import Random

import pytest

from rcsynth import (
    BooleanMapping,
    choose_params,
    serialize_circuit,
    synth_even_permutation,
    synth_mapping,
)
from conftest import random_even_permutation, random_permutation


def fingerprint(circuit):
    text = serialize_circuit(circuit)
    return hashlib.sha256(text.encode("utf-8")).hexdigest(), len(circuit.gates)


@pytest.mark.parametrize(
    "n, digest, gates",
    [
        (2, "6c9ca478db613511f8292047981d25c8bcb33936fe75bca8457c549e77a1f038", 12),
        (5, "af5aedaa3c86cf7c4e64a18eaf93f8d362b3e564e3e102fa79cc4733296754b0", 378),
        (8, "7d7680201f2da21f1e5e4ec6728e97530a8bc7a4073d2b05db0cbfb902550b3a", 7858),
    ],
)
def test_basic(n, digest, gates):
    circuit, _ = synth_even_permutation(random_even_permutation(n, Random(n)))
    assert fingerprint(circuit) == (digest, gates)


@pytest.mark.parametrize(
    "n, k, digest, gates",
    [
        (6, 8, "b0f2d64e67822040d2af8e71c30ced6d944c225eae9e86c3a5cba390ac5a4901", 906),
        (7, 16, "a9482fc72f2ef3fc76787b0d413bb1b38772191d01b96cae797c947b914fea02", 2508),
    ],
)
def test_basic_forced_block_size(n, k, digest, gates):
    circuit, _ = synth_even_permutation(random_even_permutation(n, Random(n)), k=k)
    assert fingerprint(circuit) == (digest, gates)


def test_basic_with_ancillas():
    # An odd permutation on 6 lines, realized through n - 3 clean helpers.
    circuit, _ = synth_even_permutation(random_permutation(6, Random(6)), ancilla_budget=3)
    assert fingerprint(circuit) == (
        "4e8779bd6ebbae68c5887f2473670f2608ac4972a8dfda0eb48feb13284e9e02",
        897,
    )


def test_lupanov():
    rng = Random(6)
    f = BooleanMapping(6, tuple(rng.randrange(64) for _ in range(64)))
    k, s, _ = choose_params(6)
    assert (k, s) == (2, 2)
    circuit, _ = synth_mapping(f, k, s)
    assert fingerprint(circuit) == (
        "e4b6e87026bd79c90e90b775df0cc9edb010ce32f76414fdaed1c4d377aab610",
        235,
    )


def test_lupanov_forced_params():
    rng = Random(8)
    f = BooleanMapping(8, tuple(rng.randrange(256) for _ in range(256)))
    circuit, _ = synth_mapping(f, 1, 6)
    assert fingerprint(circuit) == (
        "7c6b168f98150dafeb8ed7438d961eccc771b2d99194b1ea1eaf20990d4730ad",
        959,
    )
