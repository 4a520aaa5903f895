"""Serialized circuits of fixed instances, pinned by SHA-256 and gate count,
the `bounds --csv` table, the transposition grouping, the block
canonicalization and the Toffoli decompositions, pinned by SHA-256.

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
from rcsynth.synth_basic import _canonicalize
from rcsynth.synth_lupanov import choose_params
from rcsynth.toffoli import decompose_borrowed, decompose_clean, decompose_garbage
from conftest import random_even_permutation, random_permutation


def fingerprint(circuit):
    text = serialize_circuit(circuit)
    return hashlib.sha256(text.encode("utf-8")).hexdigest(), len(circuit.gates)


@pytest.mark.parametrize(
    "n, digest, gates",
    [
        (2, "4daa75039e01bd92f7168044b277083d2bc9223db255313400c090f72ce61e20", 8),
        (5, "54733e13c849849988435a961d2a03e82b6e2a3a36f04f7419e5174b9a6799e4", 286),
        (8, "b554d61bd7a3d4e9a20e1f3fbb211cb6be6f1d4c925da5a8d6c770e790db055e", 4382),
        # 130 groups: one forked helper builds the second half where two
        # CPUs are available, and the bytes are those of the serial build.
        (10, "695eec085090aed2e1a441b4cd8958ce99982b61195ba8503faec4f1935da814", 22394),
    ],
    ids=["n2", "n5", "n8", "n10"],
)
def test_basic(n, digest, gates):
    circuit, _ = synth_even_permutation(random_even_permutation(n, Random(n)))
    assert fingerprint(circuit) == (digest, gates)


@pytest.mark.parametrize(
    "n, k, digest, gates",
    [
        (6, 8, "3773d73694f94dcfa03ee27e23d72c1d2a3e78965c4b7401f35f82ab0da0b3fd", 738),
        (7, 16, "0c18ecac57f49bef7f0875ba1365e9ceb0cc00558324eaae6b4a99f01c87a128", 1958),
        (8, 32, "8167d3244e9e564da5e3ab4f32f1b6ba760b22543acb3a036c08f662a3796553", 5412),
    ],
    ids=["n6-k8", "n7-k16", "n8-k32"],
)
def test_basic_forced_block_size(n, k, digest, gates):
    circuit, _ = synth_even_permutation(random_even_permutation(n, Random(n)), k=k)
    assert fingerprint(circuit) == (digest, gates)


def test_basic_with_ancillas():
    # An odd permutation on 6 lines, every wide gate expanded through the
    # n - 3 clean helpers.
    circuit, _ = synth_even_permutation(random_permutation(6, Random(6)), ancilla_budget=3)
    assert fingerprint(circuit) == (
        "2d0ca618b9ff9db149061deeec9e835e7f487a3678ff0f8d6135d730abc71cb0",
        679,
    )


def test_lupanov():
    rng = Random(6)
    f = BooleanMapping(6, tuple(rng.randrange(64) for _ in range(64)))
    k, s = choose_params(f)
    assert (k, s) == (2, 4)
    circuit, _ = synth_mapping(f, k, s)
    assert fingerprint(circuit) == (
        "8dda665bf911b5dab811e3a447375143cc07d793fa4c6e9c401fb395f97a4adc",
        147,
    )


def test_lupanov_forced_params():
    rng = Random(8)
    f = BooleanMapping(8, tuple(rng.randrange(256) for _ in range(256)))
    circuit, _ = synth_mapping(f, 1)
    assert fingerprint(circuit) == (
        "afa0d248ca5f69582ad79e3fdc5a6b1f098b20b5442dc46750855359c1796c2f",
        961,
    )


def test_lupanov_every_k():
    # One map per n = 3..12 from Random(n), synthesized at every admissible k
    # with the s of fewest gates for it: the circuit text and the stage report.
    text = ""
    for n in range(3, 13):
        rng = Random(n)
        f = BooleanMapping(n, tuple(rng.randrange(1 << n) for _ in range(1 << n)))
        for k in range(1, n):
            circuit, report = synth_mapping(f, k)
            text += serialize_circuit(circuit) + repr(report) + "\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == "b6cd4eb2eb632432e707cb625bd666af6f3c82a502bbc43d094c5bfdb81b7533"


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
        (2, "8fc90893b531d73a8f1533226db7c9fe2b2a950a9fb688ac438b618ac9f48cf1"),
        (4, "32a143d078960c02896ae9313bbc8162adb5ec4ba5c64e33a1fa88901560245a"),
        (8, "8cd80cd14efa025ee0bb926c62d4db2fa99f5f9ccb883705b6c1eb2f97184c8e"),
    ],
    ids=["K2", "K4", "K8"],
)
def test_transposition_stream(K, digest):
    text = "".join(repr(transposition_stream(p, K)) + "\n" for p in _stream_inputs())
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def _toffoli_layouts():
    """Per k = 3..8 and helper count h = 1..k: k controls, a target and h
    helpers drawn in seeded order from 2(k + 1 + h) lines, so the layout is
    shuffled and has gaps."""
    for k in range(3, 9):
        for h in range(1, k + 1):
            lines = Random(100 * k + h).sample(range(2 * (k + 1 + h)), k + 1 + h)
            yield lines[:k], lines[k], lines[k + 1 :]


@pytest.mark.parametrize(
    "decompose, digest",
    [
        (decompose_borrowed, "11b0ad70170a329239e6f6ba87d4f862afcf1b9ceba21248fc961c50280279da"),
        (decompose_clean, "8510a31b21645f24a7a60fb69f5f4e5ea7b5dbbe590a641162faf94fa35b00d9"),
        (decompose_garbage, "3749f13d4ffb6de0cb64e13db8d16152297ccc5408bd4209f9e148757fa486d4"),
    ],
    ids=["borrowed", "clean", "garbage"],
)
def test_toffoli_decompositions(decompose, digest):
    # borrowed runs on every helper count, which covers both the split
    # branch (h < k - 2) and the staircase; clean and garbage take exactly
    # k - 2 helpers.
    text = "".join(
        repr([tuple(gate) for gate in decompose(controls, target, helpers)]) + "\n"
        for controls, target, helpers in _toffoli_layouts()
        if decompose is decompose_borrowed or len(helpers) == len(controls) - 2
    )
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def _canonicalize_inputs():
    """Per n = 2..12, every admissible block size k = 2..32 (log2 k < n) and
    seeds 0..2: k distinct random n-bit rows."""
    for n in range(2, 13):
        for k in (2, 4, 8, 16, 32):
            if k.bit_length() - 1 >= n:
                continue
            for seed in range(3):
                yield Random(1000 * n + 10 * k + seed).sample(range(1 << n), k), n


def test_canonicalize():
    # Gates are written as plain (controls, target) pairs, so the pin reads
    # the same whatever type holds them; each block's frame follows them.
    text = ""
    for rows, n in _canonicalize_inputs():
        conjugators, frame = _canonicalize(rows, n)
        pairs = [(tuple(cs), t) for cs, t in conjugators]
        text += repr((pairs, frame)) + "\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == "a43de92fb88d837e15c08dd674305ce075838cbc6ff1a3fc0f00d258bba6b0f6"
