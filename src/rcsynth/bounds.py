"""Closed-form complexity bound evaluation for circuits over NOT/CNOT/2-CNOT.

All logarithms are binary.  The slowly-growing function phi is taken from a
named registry so that reports are reproducible from a CLI identifier.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .errors import ParameterError

PHI_REGISTRY: dict[str, Callable[[int], float]] = {
    "one": lambda n: 1.0,
    "two": lambda n: 2.0,
    "log2": lambda n: math.log2(n),
    "loglog": lambda n: math.log2(math.log2(n)),
    "sqrt": lambda n: math.sqrt(n),
    # n / (log2 n + 1): keeps k = ceil(n / phi(n)) near log2 n + 1.
    "lupanov": lambda n: n / (math.log2(n) + 1.0),
}

EXACT_GLUHOV_LIMIT = 20
# Bounds are float-valued; 3n 2^(n+4) in no_ancilla_upper is the first to
# leave the float range, near n = 1009, so n stops at 1000.
MAX_BOUND_N = 1000


def _check_n(n: int, low: int) -> None:
    if not low <= n <= MAX_BOUND_N:
        raise ParameterError(f"need {low} <= n <= {MAX_BOUND_N}, got n={n}")


def shannon_lower(n: int, q: int) -> float:
    """General lower bound 2^n (n-2) / (3 log2(n+q)) - n/3."""
    _check_n(n, 2)
    if q < 0:
        raise ParameterError(f"need q >= 0, got q={q}")
    return (1 << n) * (n - 2) / (3.0 * math.log2(n + q)) - n / 3.0


def gate_set_size(n: int) -> int:
    """Number of distinct NOT, CNOT and 2-CNOT gates on n lines:
    (n^3 - n^2 + 2n) / 2."""
    if n < 1:
        raise ParameterError(f"need n >= 1, got n={n}")
    return (n**3 - n**2 + 2 * n) // 2


def _log2_big(value: int) -> float:
    """log2 of a positive integer too large for float conversion."""
    bits = value.bit_length()
    if bits <= 53:
        return math.log2(value)
    return (bits - 53) + math.log2(value >> (bits - 53))


def gluhov_bound(n: int) -> int:
    """Generator-length heuristic ceil(log_r |A(Z_2^n)|) with r the gate set
    size; exact factorials up to n=20, log-gamma beyond."""
    _check_n(n, 2)
    r = gate_set_size(n)
    if n <= EXACT_GLUHOV_LIMIT:
        group_order = math.factorial(1 << n) // 2
        log2_group = _log2_big(group_order)
    else:
        log2_group = (math.lgamma((1 << n) + 1) - math.log(2)) / math.log(2)
    return math.ceil(log2_group / math.log2(r))


def simple_lower(n: int) -> float:
    """Counting lower bound n 2^n / (3 log2 n) for the no-ancilla case."""
    _check_n(n, 4)
    return n * (1 << n) / (3.0 * math.log2(n))


def epsilon(n: int, phi_id: str = "one") -> float:
    """Second-order term 1 / (6 phi(n)) + (8/3) log2 n log2 log2 n / n."""
    phi = PHI_REGISTRY[phi_id](n)
    return 1.0 / (6.0 * phi) + (8.0 / 3.0) * math.log2(n) * math.log2(math.log2(n)) / n


def no_ancilla_upper(n: int, phi_id: str = "one") -> tuple[float, float]:
    """No-ancilla upper bound 3n 2^(n+4) (1 + eps(n)) / (log2 n -
    log2 log2 n - log2 phi(n)); returns (value, eps(n)).

    Requires phi(n) < n / log2 n so the denominator is positive.
    """
    _check_n(n, 4)
    phi = PHI_REGISTRY[phi_id](n)
    if phi >= n / math.log2(n):
        raise ParameterError(
            f"phi {phi_id!r} gives {phi:.3f} >= n/log2(n) = {n / math.log2(n):.3f} at n={n}"
        )
    denom = math.log2(n) - math.log2(math.log2(n)) - math.log2(phi)
    eps = epsilon(n, phi_id)
    return 3 * n * (1 << (n + 4)) * (1.0 + eps) / denom, eps


def block_upper(n: int, k: int) -> float:
    """Gate budget of one transposition block:
    12n + k 2^(k+1) + 32 k log2 k - 10 log2 k."""
    if k < 2 or k & (k - 1):
        raise ParameterError(f"k={k} must be a power of two >= 2")
    lgk = k.bit_length() - 1
    if lgk >= n:
        raise ParameterError(f"k={k} needs log2 k < n={n}")
    return 12 * n + k * (1 << (k + 1)) + 32 * k * lgk - 10 * lgk


def pair_block_upper(n: int) -> float:
    """Budget of a two-transposition block (k = 4): 12n + 364."""
    return 12 * n + 364


@dataclass(frozen=True)
class BoundReport:
    """Every bound formula evaluated at one (n, q) point."""

    n: int
    q: int
    gate_set_size: int
    shannon_lower: float
    gluhov_bound: int | None
    simple_lower: float | None
    no_ancilla_upper: float | None
    no_ancilla_epsilon: float | None
    no_ancilla_note: str | None
    block_upper: dict[int, float] = field(default_factory=dict)
    reference_constants: dict[str, int] = field(default_factory=dict)


def build_report(
    n: int, q: int, phi_id: str = "one", block_sizes: tuple[int, ...] = (4, 8, 16)
) -> BoundReport:
    gluhov = gluhov_bound(n)
    simple = simple_lower(n) if n >= 4 else None
    upper = eps = None
    note = None
    if n < 4:
        note = "requires n >= 4"
    else:
        try:
            upper, eps = no_ancilla_upper(n, phi_id)
        except ParameterError as exc:
            note = str(exc)
    blocks = {}
    for k in block_sizes:
        try:
            blocks[k] = block_upper(n, k)
        except ParameterError:
            continue
    return BoundReport(
        n=n,
        q=q,
        gate_set_size=gate_set_size(n),
        shannon_lower=shannon_lower(n, q),
        gluhov_bound=gluhov,
        simple_lower=simple,
        no_ancilla_upper=upper,
        no_ancilla_epsilon=eps,
        no_ancilla_note=note,
        block_upper=blocks,
        reference_constants={
            "7n2^n": 7 * n * (1 << n),
            "6n2^n": 6 * n * (1 << n),
        },
    )
