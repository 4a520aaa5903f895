"""Serialized circuits of fixed instances, pinned by SHA-256 and gate count,
the `bounds --csv` table and the transposition grouping, pinned by SHA-256.

Any change to synthesis or serialization that alters one output byte fails
here.  A change meant to alter output updates these values and reports the
gate-count difference.
"""
import hashlib
from random import Random

import pytest

from rcsynth import (
    BooleanMapping,
    serialize_circuit,
    synth_even_permutation,
    synth_mapping,
)
from rcsynth.cli import main
from rcsynth.perm import Permutation, transposition_stream
from rcsynth.synth_lupanov import choose_params
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
    k = choose_params(6)
    assert k == 2
    circuit, _ = synth_mapping(f, k)
    assert fingerprint(circuit) == (
        "a2d6241d4c1b17c605dca6e9c737c8f66a8105abbf467b8640352cc399b9d391",
        185,
    )


def test_lupanov_forced_params():
    rng = Random(8)
    f = BooleanMapping(8, tuple(rng.randrange(256) for _ in range(256)))
    circuit, _ = synth_mapping(f, 1)
    assert fingerprint(circuit) == (
        "4923544bb62a37e1b5cd63d053a34b9c0f81fbd09e35e43ed22b8d98e8b88b7d",
        959,
    )


@pytest.mark.parametrize(
    "phi, digest",
    [
        ("one", "a5d0036c8d24e8b3aadbda02d9d4dc1d4506408164244ce0bf0a0545bc1e7e77"),
        ("two", "2e929c60114bd32b1af1ead9251c4da309ee7dfce54daf016c6f68962c7f2d56"),
        ("log2", "d7bdf3705e9201c1b19c7b93adfd0dee9b71d6ec2b0139038637e000e2a1fd5e"),
        ("loglog", "41f4db2df983801192a27f62d8e04cddece269f5ad24550686cde15beee7a470"),
        ("sqrt", "058fa881188a20a6f22915dc5c57fd34af97e8352a2d9422d1137f0c2955e942"),
        ("lupanov", "df39fe3de821475aa8197e8ca392164a92bef87ba36957409e15648787de257e"),
    ],
)
def test_bounds_csv(capsys, phi, digest):
    ns = [str(n) for n in range(2, 22)]
    assert main(["bounds", "--csv", "--n", *ns, "--q", "0", "3", "--phi", phi]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 41
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def _stream_inputs():
    """Per n = 3..10: a random even permutation, an involution x -> x ^ 1 on
    a seeded subset of pairs (many 2-cycles) and one cycle through every
    point in a seeded order."""
    for n in range(3, 11):
        rng = Random(n)
        yield random_even_permutation(n, rng)
        lows = [x for x in range(0, 1 << n, 2) if rng.random() < 0.75]
        yield Permutation.from_cycles(n, [(x, x ^ 1) for x in lows])
        order = list(range(1 << n))
        rng.shuffle(order)
        yield Permutation.from_cycles(n, [order])


@pytest.mark.parametrize(
    "K, digest",
    [
        (2, "dfec4886a54dc4c7407bcc994f243a445dca240c3e6316a8efc4d6823c01e49c"),
        (4, "6ae2e4de64634211fd7092d83e8e7e1745d6915c42a6c4885d721f781058b2aa"),
        (8, "4b7c7e30d92903a0ae8cc2d1003b202178e09f3a3c73b3c901d7994bdb3fa7ff"),
    ],
)
def test_transposition_stream(K, digest):
    text = "".join(repr(transposition_stream(p, K)) + "\n" for p in _stream_inputs())
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
