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

A string of L bits is built as a head plus a tail. The tail, its last
8 bits, comes from a table of all 256 of them, formatted when the module
is imported; the head, the leading L - 8 bits, is formatted once per 256
strings. A string of at most 8 bits is all tail, cut from the same table.
Concatenating the two costs several times less than formatting each
string whole.
"""

from __future__ import annotations

import marshal
import os
import sys
import tempfile
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, NoReturn

from .vm import Halted, InvalidProgram, _is_bits, _length_lex, _record, decode, programs, run

CHECKPOINT_MAGIC = "OMEGALAB v1"
SCAN_CHUNK = 1 << 15  # strings of one length per unit of scan work
_TAIL_BITS = 8  # a scanned string is a formatted head plus one of these tails
_TAILS = tuple(format(i, f"0{_TAIL_BITS}b") for i in range(1 << _TAIL_BITS))
_LINES_PIECE = 1 << 13  # characters of checkpoint text that load splits at once, at least


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
    width = min(length, _TAIL_BITS)
    tails = [t[_TAIL_BITS - width :] for t in _TAILS[: 1 << width]]
    spec = f"0{length - width}b"
    records: list[tuple[str, str, int]] = []
    pending: list[str] = []
    for high in range(lo >> width, ((hi - 1) >> width) + 1):
        head = format(high, spec) if length > width else ""  # format(0, "00b") is "0"
        base = high << width
        for tail in tails[max(lo - base, 0) : hi - base]:
            bits = head + tail
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
    """Grow a state to (max_len, budget); equals a fresh enumeration there.

    The state joins the sets the scan returns, and each is frozen once.
    """
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
    records.update(state.records)
    pending.update(state.pending)
    return EnumState(max_len, budget, frozenset(records), frozenset(pending))


def _canonical_lines(state: EnumState) -> Iterator[str]:
    """The checkpoint of `state`, one newline-terminated line at a time."""
    yield CHECKPOINT_MAGIC + "\n"
    # Length-lex order as a sort by program, then a stable one by length:
    # no key tuple is built per record.
    records = sorted(state.records, key=attrgetter("program"))
    records.sort(key=lambda r: len(r.program))
    for rec in records:
        yield f"H {rec.program} {rec.output or '-'} {rec.steps}\n"
    for bits in sorted(state.pending, key=_length_lex):
        yield f"P {bits}\n"
    yield f"FRONTIER {state.max_len_done} {state.budget}\n"


def save(state: EnumState, destination: str | Path) -> None:
    """Write a canonical checkpoint atomically (temp file, then rename).

    The lines go to the temp file as they are formatted: neither a list of
    them nor the whole text is ever held. The checkpoint keeps the mode of the
    file it replaces; a new one gets 0o666 less the umask, as open() gives.
    """
    destination = Path(destination)
    fd, tmp_name = tempfile.mkstemp(
        dir=destination.parent, prefix=destination.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="ascii", newline="\n") as fh:
            try:
                mode = os.stat(destination).st_mode & 0o7777
            except FileNotFoundError:
                umask = os.umask(0)
                os.umask(umask)
                mode = 0o666 & ~umask
            os.fchmod(fd, mode)
            fh.writelines(_canonical_lines(state))
        os.replace(tmp_name, destination)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _lines(text: str) -> Iterator[str]:
    """`text.splitlines()`, about 8 KiB of text at a time.

    Each piece ends just after a newline (or at the end of the text) and
    is split by `str.splitlines` on its own, so the other line boundaries
    it knows (form feed, vertical tab, the file and group separators, a
    lone carriage return) split lines here too, and no list of all the
    lines is built.
    """
    start = 0
    while start < len(text):
        end = text.find("\n", start + _LINES_PIECE) + 1 or len(text)
        yield from text[start:end].splitlines()
        start = end


def load(source: str | Path) -> EnumState:
    """Read a checkpoint back, trusted only as a complete census; load(save(s)) == s.

    Besides the syntax, the records must fit their FRONTIER trailer: no
    program listed twice (as H or P), none longer than the frontier length,
    and no H record with more steps than the frontier budget. Then each
    record must be a program, and every program up to the frontier length
    must be listed: the smallest missing one is named at the trailer. The
    offending line is named. The records are compared with `vm.programs`,
    so a valid checkpoint is never decoded; H outputs and steps are not re-run.

    The file is read as ASCII text in one piece, so an undecodable byte is
    reported before any line is parsed. Its lines, split as by
    `str.splitlines`, are then parsed one at a time and dropped, and the
    map of listed programs is dropped before the records' frozenset is
    built: the census is held once, not as lines, maps and sets together.
    """
    lines = _lines(Path(source).read_text(encoding="ascii"))
    if next(lines, None) != CHECKPOINT_MAGIC:
        raise CheckpointError(f"line 1: expected header {CHECKPOINT_MAGIC!r}")
    records: dict[str, HaltRecord] = {}
    listed: dict[str, int] = {}  # every H or P program -> its line, in file order
    frontier: tuple[int, int] | None = None
    num = trailer = 1
    for num, line in enumerate(lines, start=2):
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
            frontier, trailer = (int(fields[1]), int(fields[2])), num
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
        raise CheckpointError(f"line {num + 1}: missing FRONTIER trailer")
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
    # more than the records. The ticks are counted, not kept: when some
    # listed program is left unticked, the checkpoint is already known to
    # be wrong, and only then is every record decoded, in file order. Each
    # non-program is left unticked, so the first one named is the same.
    ticked = 0
    for missing in (p for n in range(1, max_len + 1) for p in programs(n)):
        if missing not in listed:
            break
        ticked += 1
    else:
        missing = None
    if ticked < len(listed):
        for program, num in listed.items():
            try:
                decode(program)
            except InvalidProgram as exc:
                raise CheckpointError(f"line {num}: {program} is not a program ({exc})") from exc
    if missing is not None:
        raise CheckpointError(
            f"line {trailer}: FRONTIER length {max_len} but program {missing} is not listed"
        )
    pending = frozenset(program for program in listed if program not in records)
    del listed
    return EnumState(max_len, budget, frozenset(records.values()), pending)
