"""Search for elegant programs: size-minimal producers of a target output.

Elegance can never be certified unconditionally (that is the whole point),
so verdicts are explicit about their scope: certified means every strictly
shorter valid program was pinned down within the search budget, either by
halting with a different output or by a loop certificate. Anything still
running uncertified is listed and blocks certification.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .vm import Halted, Running, _record, classify, literal_program, programs

if TYPE_CHECKING:
    from fractions import Fraction


@_record
class ElegantVerdict:
    target: str
    witnesses: tuple[str, ...]
    certified: bool
    search_bounds: tuple[int, int]  # (max_len, budget)
    unresolved: tuple[str, ...] = ()


@_record
class CompressionReport:
    facts: str
    baseline_bits: int
    best_bits: int
    ratio: Fraction
    best_program: str


def find_elegant(target: str, max_len: int, budget: int) -> ElegantVerdict | None:
    """All shortest producers of `target`, scanning in length-lex order.

    Returns None when no producer exists within the bounds. Ties at the
    minimal length are all reported.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    unresolved: list[str] = []
    for length in range(1, max_len + 1):
        witnesses: list[str] = []
        unresolved_here: list[str] = []
        for bits in programs(length):
            outcome = classify(bits, budget)
            if isinstance(outcome, Halted):
                if outcome.output == target:
                    witnesses.append(bits)
            elif isinstance(outcome, Running):
                unresolved_here.append(bits)
        if witnesses:
            # unresolved holds only strictly shorter programs at this point
            return ElegantVerdict(
                target, tuple(witnesses), not unresolved, (max_len, budget), tuple(unresolved)
            )
        unresolved.extend(unresolved_here)
    return None


def compression_report(facts: str, max_len: int, budget: int) -> CompressionReport:
    """Best discovered producer of `facts` against the literal baseline.

    The best is the first shortest producer `find_elegant` finds below the
    literal program's length. The literal program is always tried, so
    best_bits <= baseline_bits and the ratio never exceeds one.
    """
    from fractions import Fraction  # here, so that `elegant` alone does not load it

    best_program = literal_program(facts)
    baseline = len(best_program)
    limit = min(max_len, baseline - 1)
    verdict = find_elegant(facts, limit, budget) if limit >= 1 else None
    if verdict is not None:
        best_program = verdict.witnesses[0]
    return CompressionReport(
        facts, baseline, len(best_program), Fraction(len(best_program), baseline), best_program
    )
