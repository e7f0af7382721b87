"""Exact dyadic lower bounds on the halting probability of the machine.

Every K-bit halting program contributes exactly 1/2^K. Sums are kept as
exact rationals (the denominators are powers of two, nothing ever rounds),
and only lower bounds are ever claimed: unaccounted non-halting mass can
flip any binary digit, so reports carry a standing not-settled caveat.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from .enumerator import EnumState
from .vm import _record


@_record
class OmegaBound:
    value: Fraction
    source: tuple[int, int]  # (max_len, budget) provenance of the census


def from_state(state: EnumState) -> OmegaBound:
    """The bound of a whole census: each K-bit halting program adds 1/2^K.

    Linear: one pass counts the programs of each length K, and each length
    adds count_K/2^K. `load` and `extend` give distinct valid programs, and
    valid programs are prefix-free, so the sum is below one. Tests check
    that in place of a runtime check: acceptance criterion 1 (no prefix
    pairs up to 14 bits) and `test_the_code_is_complete` (mass identity).
    """
    per_length = Counter(len(rec.program) for rec in state.records)
    value = sum((Fraction(count, 2**k) for k, count in per_length.items()), start=Fraction(0))
    return OmegaBound(value, (state.max_len_done, state.budget))


def binary_expansion(bound: OmegaBound, k: int) -> str:
    """First k bits after the binary point, exact (the value is dyadic)."""
    if k < 0:
        raise ValueError("digit count must be >= 0")
    value = bound.value
    return format(value.numerator * 2**k // value.denominator % 2**k, f"0{k}b") if k else ""


def format_report(bound: OmegaBound, halting: int, pending: int, bits: int) -> str:
    max_len, budget = bound.source
    return (
        f"OMEGA >= {bound.value.numerator}/{bound.value.denominator}"
        f" = 0.{binary_expansion(bound, bits)}..."
        f" (census: len<={max_len}, budget {budget},"
        f" {halting} halting, {pending} pending)"
        f" [lower bound only; bits not settled]"
    )
