"""Computable-real demonstrations at desk scale.

Digit streams read a program's output tape as decimal digits (4 emitted
bits per digit, reduced mod 10, which skews toward 0..5 — acceptable for
demonstrations). The diagonal construction differs from the nth stream at
digit n using only 5s and 6s, so no 0 or 9 ever appears and the synonym
problem (trailing-9s vs trailing-0s spellings of the same real) cannot
bite. Covers shrink geometrically: point N gets an interval of width
epsilon/2^N, totalling epsilon(1 - 2^-N) exactly. The oracle digits
classify every string of a tiny question language about programs, with
"undecided within budget" standing in for unanswerable.

The Borel report numbers the strings in length-lex order. The first string
of length m is line R_m = (10**m - 1) / 9, and a string's offset within
its length is its alphabet indices read as a base-10 number. A report
group is the 1,000 strings that share a head P, all but their last 3
characters. If P is the gth string of length m - 3, the group covers
lines 1000 * h + 111 to 1000 * h + 1110, where h = R_(m-3) + g, so each
line number is h or h + 1 followed by three digits. So a group is one
template with h, h + 1 and P filled in, cut to the prefix for the last
group; the strings of up to 4 characters are written line by line. Each
piece is first written with digit 0 on every line. Every member of the
language starts with "H(" or "O(", so only the short strings and the
groups whose P starts with one of those go through one regular-expression
substitution, which fills in the digit of each member line; the machine
runs for those members alone.
"""

from __future__ import annotations

import re
from itertools import chain, count, product
from typing import TYPE_CHECKING, Iterator, Sequence

from .vm import Halted, InvalidProgram, LoopCert, _record, classify, decode, stream_output

if TYPE_CHECKING:
    from fractions import Fraction

BITS_PER_DIGIT = 4

BOREL_ALPHABET = ("H", "O", "(", ")", ",", ".", "?", "0", "1", "e")
# A report group is the 10**GROUP_TAIL strings that differ only in their
# last GROUP_TAIL characters.
GROUP_TAIL = 3

# The question language: "H(p)" and "O(p,s)" closed by "?" (a question) or
# "." (a statement), where each bit string is "e" (empty) or a run of 0/1.
# Every match starts with "H(" or "O(": borel_report relies on it.
_QUESTION = re.compile(r"H\((e|[01]+)\)([.?])|O\((e|[01]+),(e|[01]+)\)([.?])")
# A member's report line while its digit is still 0. The wrapper captures
# nothing, so _match_digit reads these matches as it reads _QUESTION's.
# Report texts hold no space and no newline, so " text 0\n" matches here
# exactly when _QUESTION.fullmatch(text) does.
_MEMBER_LINE = re.compile(f" (?:{_QUESTION.pattern}) 0\n")


@_record
class DigitStream:
    """A decimal stream: digit n is emitted bits 4n..4n+3, base 2, mod 10."""

    program: str

    def __post_init__(self) -> None:
        decode(self.program)  # invalid programs are rejected up front


def digit_at(stream: DigitStream, n: int, budget: int) -> int | None:
    """The nth digit, or None when the stream halts or stalls first."""
    if n < 0:
        raise ValueError("digit index must be >= 0")
    need = BITS_PER_DIGIT * (n + 1)
    out = stream_output(stream.program, budget, need)
    if len(out) < need:
        return None
    return int(out[need - BITS_PER_DIGIT : need], 2) % 10


@_record
class DiagonalReal:
    digits: tuple[int, ...]
    verified: tuple[bool, ...]


def diagonal(streams: Sequence[DigitStream], m: int, budget: int) -> DiagonalReal:
    """Differ from stream n at digit n: 5 unless the source digit is 5, then 6.

    Unknown source digits produce a 5 flagged unverified. Every digit is
    5 or 6, never 0 or 9.
    """
    if len(streams) < m:
        raise ValueError(f"need at least {m} streams, got {len(streams)}")
    digits: list[int] = []
    verified: list[bool] = []
    for n in range(m):
        d = digit_at(streams[n], n, budget)
        if d is None:
            digits.append(5)
            verified.append(False)
        else:
            digits.append(6 if d == 5 else 5)
            verified.append(True)
    return DiagonalReal(tuple(digits), tuple(verified))


@_record
class CoverInterval:
    index: int
    center: Fraction
    halfwidth: Fraction

    @property
    def width(self) -> Fraction:
        return 2 * self.halfwidth


@_record
class CoverReport:
    epsilon: Fraction
    intervals: tuple[CoverInterval, ...]
    total_length: Fraction


def borel_cover(points: Sequence[Fraction], epsilon: Fraction) -> CoverReport:
    """Cover point N (1-based) with an interval of width epsilon/2^N.

    Intervals may overlap or leave [0, 1]; their total length is exactly
    epsilon(1 - 2^-N), strictly below epsilon however many points are
    listed.
    """
    from fractions import Fraction  # here, so that digit streams and `borel` do not load it

    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    intervals: list[CoverInterval] = []
    total = Fraction(0)
    for index, point in enumerate(points, start=1):
        point = Fraction(point)
        if not 0 <= point <= 1:
            raise ValueError(f"point {index} outside [0, 1]: {point}")
        halfwidth = epsilon / 2 ** (index + 1)
        intervals.append(CoverInterval(index, point, halfwidth))
        total += 2 * halfwidth
    return CoverReport(epsilon, tuple(intervals), total)


def borel_strings() -> Iterator[str]:
    """Every string over the question alphabet, length-lex from length 1.

    Built by itertools alone (no Python frame per string), so a long
    prefix costs string joins and little else.
    """
    return chain.from_iterable(
        map("".join, product(BOREL_ALPHABET, repeat=n)) for n in count(1)
    )


def _bits(token: str) -> str:
    return "" if token == "e" else token


def _match_digit(match: re.Match[str], budget: int) -> int:
    """Digit of a string that parses in the question language."""
    h_program, h_end, o_program, o_output, o_end = match.groups()
    if (h_end or o_end) == ".":
        return 1
    try:
        outcome = classify(_bits(h_program or o_program), budget)
    except InvalidProgram:
        return 3  # not a program at all: it certainly never halts or outputs
    if isinstance(outcome, Halted):
        return 4 if h_end or outcome.output == _bits(o_output) else 3
    return 3 if isinstance(outcome, LoopCert) else 2


def classify_text(text: str, budget: int) -> int:
    """Borel digit of one string: 0 unparsable, 1 statement, 2 undecided
    within budget, 3 no, 4 yes.

    Questions are "H(p)?" (does p halt) and "O(p,s)?" (does p output
    exactly s); the same predicates with "." are statements. Raising the
    budget can only move a digit from 2 to 3 or 4.
    """
    match = _QUESTION.fullmatch(text)
    return 0 if match is None else _match_digit(match, budget)


def _fill(piece: str, budget: int) -> str:
    """Report text `piece`, written with digit 0 on every line, with the
    digit of each line whose text is in the question language filled in."""
    return _MEMBER_LINE.sub(lambda m: f"{m[0][:-2]}{_match_digit(m, budget)}\n", piece)


def _first_line(length: int) -> int:
    """R_length = (10**length - 1) / 9, the line of the first string of that length."""
    return (10**length - 1) // 9


def borel_report(prefix: int, budget: int) -> Iterator[str]:
    """The first `prefix` lines "k text digit" of the Borel report, where
    text is the kth string of borel_strings(), one group at a time.

    The pieces join to the whole report. Each holds at most 10**GROUP_TAIL
    lines, so memory does not grow with `prefix`.
    """
    tail = GROUP_TAIL
    size = 10**tail
    # Strings shorter than tail + 2 characters are written line by line.
    strings = borel_strings()
    short = min(prefix, _first_line(tail + 2) - 1)
    for first in range(1, short + 1, size):
        lines = zip(range(first, min(first + size, short + 1)), strings)
        yield _fill("".join(f"{k} {text} 0\n" for k, text in lines), budget)
    # The group whose head is the gth string of its length covers lines
    # size * h + low + j for j < size, where h = R(head length) + g and
    # low = R(tail). Since low + j < 2 * size, each line number is h or
    # h + 1 followed by `tail` digits: markers \0 and \1, and \2 for the head.
    low = _first_line(tail)
    marks = "\0\1"
    template = "".join(
        f"{marks[num // size]}{num % size:0{tail}d} \2{''.join(chars)} 0\n"
        for num, chars in zip(count(low), product(BOREL_ALPHABET, repeat=tail))
    )
    width = len(template) // size  # every template line has the same length
    for length in count(tail + 2):
        h = _first_line(length - tail)
        for chars in product(BOREL_ALPHABET, repeat=length - tail):
            first = size * h + low
            if first > prefix:
                return
            head = "".join(chars)
            piece = template[: min(size, prefix + 1 - first) * width]  # the last group is cut
            piece = piece.replace("\0", str(h)).replace("\1", str(h + 1)).replace("\2", head)
            # Only a group whose strings start "H(" or "O(" can hold a member.
            yield _fill(piece, budget) if head[:2] in ("H(", "O(") else piece
            h += 1
