"""Dovetailed enumeration of all programs at bounded step budgets.

Visits every bit string up to a length frontier in length-lexicographic
order, skips the syntactically invalid ones, and splits the valid programs
into a halting census and a pending set. Pending programs are kept so a
later, larger budget only re-runs them (refine) instead of re-scanning the
whole tree. States checkpoint to a line-oriented ASCII file with atomic
writes, and scanning may be spread over worker processes without changing
the result: each length is cut into contiguous chunks of at most
SCAN_CHUNK strings, handed to the pool in length order, so a costly
stretch of one length is shared among the workers instead of falling to
one of them.

The scan still decodes every bit string instead of walking `vm.programs`:
the benchmark's traced census (`check_trace` in perfbench/run.py) requires
`vm.decode` calls = strings scanned = 2^(L+1) - 2.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .vm import Halted, InvalidProgram, run

CHECKPOINT_MAGIC = "OMEGALAB v1"
SCAN_CHUNK = 1 << 15  # strings of one length per unit of pool work


@dataclass(frozen=True)
class HaltRecord:
    program: str
    output: str
    steps: int


@dataclass(frozen=True)
class EnumState:
    max_len_done: int
    budget: int
    records: frozenset[HaltRecord]
    pending: frozenset[str]


class CheckpointError(ValueError):
    """A checkpoint that cannot be trusted; the message names the line or program."""


def _scan_chunk(args: tuple[int, int, int, int]) -> tuple[list[tuple[str, str, int]], list[str]]:
    """Classify bit strings of one length with indices in [lo, hi)."""
    length, lo, hi, budget = args
    spec = f"0{length}b"
    records: list[tuple[str, str, int]] = []
    pending: list[str] = []
    for i in range(lo, hi):
        bits = format(i, spec)
        try:
            outcome = run(bits, budget)
        except InvalidProgram:
            continue
        if isinstance(outcome, Halted):
            records.append((bits, outcome.output, outcome.steps))
        else:
            pending.append(bits)
    return records, pending


def _scan_lengths(
    lengths: Iterable[int], budget: int, workers: int
) -> tuple[set[HaltRecord], set[str]]:
    chunks = [
        (length, lo, min(lo + SCAN_CHUNK, 1 << length), budget)
        for length in lengths
        for lo in range(0, 1 << length, SCAN_CHUNK)
    ]
    if workers > 1 and len(chunks) > 1:
        # Imported here: every other command would pay for loading
        # multiprocessing without ever starting a pool.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_scan_chunk, chunks))
    else:
        results = [_scan_chunk(chunk) for chunk in chunks]
    records: set[HaltRecord] = set()
    pending: set[str] = set()
    for recs, pend in results:
        records.update(HaltRecord(*r) for r in recs)
        pending.update(pend)
    return records, pending


def enumerate_programs(max_len: int, budget: int, workers: int = 1) -> EnumState:
    """Classify every valid program of length 1..max_len at `budget` steps.

    That is `extend` from the empty census at the same budget. The result
    is a pure function of (max_len, budget): the same state comes back
    whatever the worker count or execution order.
    """
    if max_len < 0 or budget < 0 or workers < 1:
        raise ValueError("max_len, budget must be >= 0 and workers >= 1")
    return extend(EnumState(0, budget, frozenset(), frozenset()), max_len, budget, workers)


def refine(state: EnumState, new_budget: int) -> EnumState:
    """Re-run only the pending programs at a strictly larger budget.

    Equals enumerate_programs(state.max_len_done, new_budget): records
    taken at the smaller budget stay bit-identical at any larger one. A
    pending program that revisits a control state stays pending after a few
    steps, at most three times the step of its first revisit, because `run`
    stops there; only one that never revisits, such as counter growth,
    costs the whole budget. An invalid pending program, which only a forged
    checkpoint holds, raises CheckpointError naming the first in length-lex order.
    """
    if new_budget <= state.budget:
        raise ValueError(f"new budget {new_budget} must exceed current {state.budget}")
    records = set(state.records)
    pending: set[str] = set()
    for bits in sorted(state.pending, key=_length_lex):
        try:
            outcome = run(bits, new_budget)
        except InvalidProgram as exc:
            raise CheckpointError(f"pending program {bits} is not a program ({exc})") from exc
        if isinstance(outcome, Halted):
            records.add(HaltRecord(bits, outcome.output, outcome.steps))
        else:
            pending.add(bits)
    return EnumState(state.max_len_done, new_budget, frozenset(records), frozenset(pending))


def extend(state: EnumState, max_len: int, budget: int, workers: int = 1) -> EnumState:
    """Grow a state to (max_len, budget); equals a fresh enumeration there."""
    if max_len < state.max_len_done:
        raise ValueError(f"cannot shrink max_len below {state.max_len_done}")
    if budget < state.budget:
        raise ValueError(f"cannot lower budget below {state.budget}")
    if budget > state.budget:
        state = refine(state, budget)
    records, pending = _scan_lengths(
        range(state.max_len_done + 1, max_len + 1), budget, workers
    )
    return EnumState(
        max_len,
        budget,
        state.records | frozenset(records),
        state.pending | frozenset(pending),
    )


def _length_lex(s: str) -> tuple[int, str]:
    return len(s), s


def _canonical_lines(state: EnumState) -> list[str]:
    lines = [CHECKPOINT_MAGIC]
    for rec in sorted(state.records, key=lambda r: _length_lex(r.program)):
        lines.append(f"H {rec.program} {rec.output or '-'} {rec.steps}")
    for bits in sorted(state.pending, key=_length_lex):
        lines.append(f"P {bits}")
    lines.append(f"FRONTIER {state.max_len_done} {state.budget}")
    return lines


def save(state: EnumState, destination: str | Path) -> None:
    """Write a canonical checkpoint atomically (temp file, then rename)."""
    destination = Path(destination)
    text = "\n".join(_canonical_lines(state)) + "\n"
    fd, tmp_name = tempfile.mkstemp(
        dir=destination.parent, prefix=destination.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp_name, destination)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _is_bits(s: str) -> bool:
    return bool(s) and all(c in "01" for c in s)


def load(source: str | Path) -> EnumState:
    """Read a checkpoint back; load(save(s)) == s.

    Besides the syntax, the records must fit their FRONTIER trailer: no
    program listed twice (as H or P), none longer than the frontier length,
    and no H record with more steps than the frontier budget. The offending
    line is named. Records are not decoded or re-run here.
    """
    lines = Path(source).read_text(encoding="ascii").splitlines()
    if not lines or lines[0] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"line 1: expected header {CHECKPOINT_MAGIC!r}")
    records: dict[str, HaltRecord] = {}
    pending: set[str] = set()
    frontier: tuple[int, int] | None = None
    for num, line in enumerate(lines[1:], start=2):
        if frontier is not None:
            raise CheckpointError(f"line {num}: content after FRONTIER trailer")
        fields = line.split(" ")
        kind = fields[0]
        if kind == "H":
            if len(fields) != 4 or not _is_bits(fields[1]):
                raise CheckpointError(f"line {num}: malformed H record")
            output = fields[2]
            if output != "-" and not _is_bits(output):
                raise CheckpointError(f"line {num}: malformed output field")
            if not fields[3].isdigit():
                raise CheckpointError(f"line {num}: malformed step count")
        elif kind == "P":
            if len(fields) != 2 or not _is_bits(fields[1]):
                raise CheckpointError(f"line {num}: malformed P record")
        elif kind == "FRONTIER":
            if len(fields) != 3 or not fields[1].isdigit() or not fields[2].isdigit():
                raise CheckpointError(f"line {num}: malformed FRONTIER trailer")
            frontier = (int(fields[1]), int(fields[2]))
            continue
        else:
            raise CheckpointError(f"line {num}: unknown record type {kind!r}")
        program = fields[1]
        if program in records or program in pending:
            raise CheckpointError(f"line {num}: program {program} listed twice")
        if kind == "H":
            records[program] = HaltRecord(program, "" if output == "-" else output, int(fields[3]))
        else:
            pending.add(program)
    if frontier is None:
        raise CheckpointError(f"line {len(lines) + 1}: missing FRONTIER trailer")
    max_len, budget = frontier
    # The trailer comes last, so the records are checked against it in a
    # second pass over the (now well-formed) record lines.
    for num, line in enumerate(lines[1:-1], start=2):
        fields = line.split(" ")
        if len(fields[1]) > max_len:
            raise CheckpointError(
                f"line {num}: program {fields[1]} is longer than the FRONTIER length {max_len}"
            )
        if fields[0] == "H" and int(fields[3]) > budget:
            raise CheckpointError(
                f"line {num}: {int(fields[3])} steps exceed the FRONTIER budget {budget}"
            )
    return EnumState(max_len, budget, frozenset(records.values()), frozenset(pending))
