"""Closed-form complexity bound evaluation for circuits over NOT/CNOT/2-CNOT.

All logarithms are binary.  The slowly-growing function phi is taken from a
named registry so that reports are reproducible from a CLI identifier.
"""
from __future__ import annotations

import math
from typing import Callable

from .errors import ParameterError

PHI_REGISTRY: dict[str, Callable[[int], float]] = {
    "one": lambda n: 1.0,
    "two": lambda n: 2.0,
    "log2": lambda n: math.log2(n),
    "loglog": lambda n: math.log2(math.log2(n)),
    "sqrt": lambda n: math.sqrt(n),
    # n / (log2 n + 1): n / phi(n) is a fixed bank width, which lupanov mode
    # no longer uses; `synth_lupanov.choose_params` picks k by exact count.
    "lupanov": lambda n: n / (math.log2(n) + 1.0),
}

# Bounds are float-valued; 3n 2^(n+4) in no_ancilla_upper is the first to
# leave the float range, near n = 1009, so n stops at 1000.
MAX_BOUND_N = 1000


def _check_n(n: int, low: int) -> None:
    if n < low:
        raise ParameterError(f"requires n >= {low}")
    if n > MAX_BOUND_N:
        raise ParameterError(f"requires n <= {MAX_BOUND_N}")


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


def gluhov_bound(n: int) -> int:
    """Generator-length heuristic ceil(log_r |A(Z_2^n)|) with r the gate set
    size and |A(Z_2^n)| = (2^n)! / 2, taken through log-gamma."""
    _check_n(n, 2)
    log2_group = (math.lgamma((1 << n) + 1) - math.log(2)) / math.log(2)
    return math.ceil(log2_group / math.log2(gate_set_size(n)))


def simple_lower(n: int) -> float:
    """Counting lower bound n 2^n / (3 log2 n) for the no-ancilla case."""
    _check_n(n, 4)
    return n * (1 << n) / (3.0 * math.log2(n))


def epsilon(n: int, phi_id: str = "one") -> float:
    """Second-order term 1 / (6 phi(n)) + (8/3) log2 n log2 log2 n / n of
    the no-ancilla upper bound, on its domain: n >= 4 and
    phi(n) < n / log2 n."""
    _check_n(n, 4)
    phi = PHI_REGISTRY[phi_id](n)
    if phi >= n / math.log2(n):
        raise ParameterError(
            f"phi {phi_id!r} gives {phi:.3f} >= n/log2(n) = {n / math.log2(n):.3f} at n={n}"
        )
    return 1.0 / (6.0 * phi) + (8.0 / 3.0) * math.log2(n) * math.log2(math.log2(n)) / n


def no_ancilla_upper(n: int, phi_id: str = "one") -> float:
    """No-ancilla upper bound 3n 2^(n+4) (1 + eps(n)) / (log2 n -
    log2 log2 n - log2 phi(n)), on the domain of `epsilon`, where the
    denominator is positive."""
    eps = epsilon(n, phi_id)
    denom = math.log2(n) - math.log2(math.log2(n)) - math.log2(PHI_REGISTRY[phi_id](n))
    return 3 * n * (1 << (n + 4)) * (1.0 + eps) / denom


def block_upper(n: int, k: int) -> float:
    """Gate budget of one transposition block:
    12n + k 2^(k+1) + 32 k log2 k - 10 log2 k."""
    if type(k) is not int or k < 2 or k & (k - 1):
        raise ParameterError(f"k={k!r} must be an int power of two >= 2")
    lgk = k.bit_length() - 1
    if lgk >= n:
        raise ParameterError(f"k={k} needs log2 k < n={n}")
    return 12 * n + k * (1 << (k + 1)) + 32 * k * lgk - 10 * lgk


def pair_block_upper(n: int) -> float:
    """Budget of a two-transposition block (k = 4): 12n + 364."""
    return block_upper(n, 4)


Row = tuple[str, float | None, str]


def _row(name: str, formula: Callable, *args, note: str = "") -> Row:
    try:
        return name, formula(*args), note
    except ParameterError as exc:
        return name, None, str(exc)


def bound_table(n: int, q: int, phi_id: str = "one") -> list[Row]:
    """Every bound formula evaluated once at (n, q), as (name, value, note)
    rows in the column order of `bounds --csv`.  A formula that refuses n gives value None with
    its reason as the note; an (n, q) that `shannon_lower` refuses raises."""
    shannon = shannon_lower(n, q)
    return [
        ("n", n, ""),
        ("q", q, ""),
        ("gate_set_size", gate_set_size(n), ""),
        ("shannon_lower", shannon, ""),
        _row("gluhov_bound", gluhov_bound, n, note="heuristic"),
        _row("simple_lower", simple_lower, n),
        _row("no_ancilla_upper", no_ancilla_upper, n, phi_id, note=f"phi={phi_id}"),
        _row("no_ancilla_epsilon", epsilon, n, phi_id),
        *(_row(f"block_upper_k{k}", block_upper, n, k) for k in (4, 8, 16)),
        ("ref_7n2^n", 7 * n * (1 << n), ""),
        ("ref_6n2^n", 6 * n * (1 << n), ""),
    ]
