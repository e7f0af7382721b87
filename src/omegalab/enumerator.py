"""Dovetailed enumeration of all programs at bounded step budgets.

Visits every bit string up to a length frontier in length-lexicographic
order, skips the syntactically invalid ones, and splits the valid programs
into a halting census and a pending set. Pending programs are kept so a
later, larger budget only re-runs them (refine) instead of re-scanning the
whole tree. States checkpoint to a line-oriented ASCII file with atomic
writes, and scanning may be spread over N = min(workers, chunks) processes,
the caller included, without changing the result: each length is cut into
contiguous chunks of at most SCAN_CHUNK strings, and the N processes claim
them in length order, each taking the next chunk when it is free, so a
costly stretch of one length is shared among the processes instead of
falling to one of them. The caller forks the other N - 1; each sends its
results back over a pipe.

The scan still calls `run` once on every bit string, and `run` raises
InvalidProgram for each one that is not a program; it does not walk
`vm.programs`. The benchmark's traced census (`check_trace` in
perfbench/run.py) pins that per-string contract: `vm.decode` calls =
strings scanned = 2^(L+1) - 2 = invalid + halting + pending, where invalid
counts the raising calls of `run` as this module binds it.
"""

from __future__ import annotations

import marshal
import os
import sys
import tempfile
from itertools import repeat
from pathlib import Path
from typing import Iterable, NoReturn

from .vm import Halted, InvalidProgram, _is_bits, _length_lex, _record, decode, programs, run

CHECKPOINT_MAGIC = "OMEGALAB v1"
SCAN_CHUNK = 1 << 15  # strings of one length per unit of scan work


@_record
class HaltRecord:
    program: str
    output: str
    steps: int


@_record
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
    for bits in map(format, range(lo, hi), repeat(spec)):
        try:
            outcome = run(bits, budget)
        except InvalidProgram:
            continue
        if isinstance(outcome, Halted):
            records.append((bits, outcome.output, outcome.steps))
        else:
            pending.append(bits)
    return records, pending


def _scan_claimed(
    chunks: list[tuple[int, int, int, int]], counter: tuple[int, int]
) -> list[tuple[list[tuple[str, str, int]], list[str]]]:
    """Scan each chunk that this process claims, until none is left.

    `counter` is a pipe that holds the index of the next unclaimed chunk,
    8 bytes, which a process reads and at once writes back one higher. A
    write that small is atomic and only one index is ever in the pipe, so
    each index is read whole and by one process.
    """
    take, put = counter
    results = []
    while True:
        k = int.from_bytes(os.read(take, 8), "big")
        os.write(put, (k + 1).to_bytes(8, "big"))
        if k >= len(chunks):
            return results
        results.append(_scan_chunk(chunks[k]))


def _scan_share(
    chunks: list[tuple[int, int, int, int]], counter: tuple[int, int], write_end: int
) -> NoReturn:
    """In a forked child: send the scan of the chunks it claims down the
    pipe and exit, with status 1 and the traceback printed if it raised."""
    status = 1
    try:
        with os.fdopen(write_end, "wb") as pipe:
            marshal.dump(_scan_claimed(chunks, counter), pipe)
        status = 0
    except BaseException:
        sys.excepthook(*sys.exc_info())
        sys.stderr.flush()
    finally:
        os._exit(status)  # never back into the caller's frames


def _scan_lengths(
    lengths: Iterable[int], budget: int, workers: int
) -> tuple[set[HaltRecord], set[str]]:
    chunks = [
        (length, lo, min(lo + SCAN_CHUNK, 1 << length), budget)
        for length in lengths
        for lo in range(0, 1 << length, SCAN_CHUNK)
    ]
    n = min(workers, len(chunks)) if hasattr(os, "fork") else 1
    counter = os.pipe()
    os.write(counter[1], bytes(8))  # chunk 0 is next
    children: list[tuple[int, int]] = []  # (pid, read end of its pipe)
    shares: list[tuple[int, int, bytes]] = []  # (pid, exit status, what it sent)
    try:
        for _ in range(1, n):
            read_end, write_end = os.pipe()
            if (pid := os.fork()) == 0:
                _scan_share(chunks, counter, write_end)
            # Closed before the next fork, or that child would hold it open
            # and the read below would never see the end of the pipe.
            os.close(write_end)
            children.append((pid, read_end))
        results = _scan_claimed(chunks, counter)
    finally:
        for pid, read_end in children:
            with os.fdopen(read_end, "rb") as pipe:
                sent = pipe.read()
            shares.append((pid, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]), sent))
        for end in counter:
            os.close(end)
    for pid, status, sent in shares:
        if status != 0:
            raise RuntimeError(f"census scan process {pid} exited with status {status}")
        results.extend(marshal.loads(sent))
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
    if max_len < 0 or budget < 0:
        raise ValueError("max_len, budget must be >= 0")
    return extend(EnumState(0, budget, frozenset(), frozenset()), max_len, budget, workers)


def refine(state: EnumState, new_budget: int) -> EnumState:
    """Re-run only the pending programs at a strictly larger budget.

    Equals enumerate_programs(state.max_len_done, new_budget): records
    taken at the smaller budget stay bit-identical at any larger one. A
    pending program that revisits a control state stays pending after a few
    steps, at most three times the step of its first revisit, because `run`
    stops there; only one that never revisits, such as counter growth,
    costs the whole budget. The pending programs are trusted to be
    programs: a loaded checkpoint has been checked against the grammar.
    """
    if new_budget <= state.budget:
        raise ValueError(f"new budget {new_budget} must exceed current {state.budget}")
    records = set(state.records)
    pending: set[str] = set()
    for bits in state.pending:
        outcome = run(bits, new_budget)
        if isinstance(outcome, Halted):
            records.add(HaltRecord(bits, outcome.output, outcome.steps))
        else:
            pending.add(bits)
    return EnumState(state.max_len_done, new_budget, frozenset(records), frozenset(pending))


def extend(state: EnumState, max_len: int, budget: int, workers: int = 1) -> EnumState:
    """Grow a state to (max_len, budget); equals a fresh enumeration there."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
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


def load(source: str | Path) -> EnumState:
    """Read a checkpoint back, trusted only as a complete census; load(save(s)) == s.

    Besides the syntax, the records must fit their FRONTIER trailer: no
    program listed twice (as H or P), none longer than the frontier length,
    and no H record with more steps than the frontier budget. Then each
    record must be a program, and every program up to the frontier length
    must be listed: the smallest missing one is named at the trailer. The
    offending line is named. The records are compared with `vm.programs`,
    so a valid checkpoint is never decoded; H outputs and steps are not re-run.
    """
    lines = Path(source).read_text(encoding="ascii").splitlines()
    if not lines or lines[0] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"line 1: expected header {CHECKPOINT_MAGIC!r}")
    records: dict[str, HaltRecord] = {}
    listed: dict[str, int] = {}  # every H or P program -> its line, in file order
    frontier: tuple[int, int] | None = None
    for num, line in enumerate(lines[1:], start=2):
        if frontier is not None:
            raise CheckpointError(f"line {num}: content after FRONTIER trailer")
        fields = line.split(" ")
        kind = fields[0]
        if kind == "H":
            if len(fields) != 4 or not fields[1] or not _is_bits(fields[1]):
                raise CheckpointError(f"line {num}: malformed H record")
            output = fields[2]
            if not output or (output != "-" and not _is_bits(output)):
                raise CheckpointError(f"line {num}: malformed output field")
            if not fields[3].isdigit():
                raise CheckpointError(f"line {num}: malformed step count")
        elif kind == "P":
            if len(fields) != 2 or not fields[1] or not _is_bits(fields[1]):
                raise CheckpointError(f"line {num}: malformed P record")
        elif kind == "FRONTIER":
            if len(fields) != 3 or not fields[1].isdigit() or not fields[2].isdigit():
                raise CheckpointError(f"line {num}: malformed FRONTIER trailer")
            frontier = (int(fields[1]), int(fields[2]))
            continue
        else:
            raise CheckpointError(f"line {num}: unknown record type {kind!r}")
        program = fields[1]
        if program in listed:
            raise CheckpointError(f"line {num}: program {program} listed twice")
        listed[program] = num
        if kind == "H":
            records[program] = HaltRecord(program, "" if output == "-" else output, int(fields[3]))
    if frontier is None:
        raise CheckpointError(f"line {len(lines) + 1}: missing FRONTIER trailer")
    max_len, budget = frontier
    for program, num in listed.items():
        if len(program) > max_len:
            raise CheckpointError(
                f"line {num}: program {program} is longer than the FRONTIER length {max_len}"
            )
        if program in records and records[program].steps > budget:
            raise CheckpointError(
                f"line {num}: {records[program].steps} steps exceed the FRONTIER budget {budget}"
            )
    # Tick off the programs in length-lex order up to the first one not
    # listed, so a trailer that claims more than the file lists costs no
    # more than the records. What is left unticked is decoded in file order:
    # only a checkpoint already known to be wrong gets that far.
    unticked = dict(listed)
    walk = (p for n in range(1, max_len + 1) for p in programs(n))
    missing = next((p for p in walk if unticked.pop(p, None) is None), None)
    for program, num in unticked.items():
        try:
            decode(program)
        except InvalidProgram as exc:
            raise CheckpointError(f"line {num}: {program} is not a program ({exc})") from exc
    if missing is not None:
        raise CheckpointError(
            f"line {len(lines)}: FRONTIER length {max_len} but program {missing} is not listed"
        )
    pending = listed.keys() - records.keys()
    return EnumState(max_len, budget, frozenset(records.values()), frozenset(pending))
