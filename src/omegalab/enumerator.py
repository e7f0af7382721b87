"""Dovetailed enumeration of all programs at bounded step budgets.

Visits every bit string up to a length frontier in length-lexicographic
order, skips the syntactically invalid ones, and splits the valid programs
into a halting census and a pending set. Both are held as tuples in
length-lex order of program, the checkpoint's own order: every producer
builds that order as it goes, so nothing is sorted and `save` writes the
tuples as they are. Pending programs are kept so a later, larger budget
only re-runs them (refine) instead of re-scanning the whole tree. States
checkpoint to a line-oriented ASCII file with atomic writes, and `load`
checks a checkpoint against the grammar with one merge of its records and
the `vm.programs` walk. Scanning may be spread over N = min(workers,
chunks) processes, the caller included, without changing the result: each
length is cut into contiguous chunks of at most SCAN_CHUNK strings, and the
N processes claim them in length order, each taking the next chunk when it
is free, so a costly stretch of one length is shared among the processes
instead of falling to one of them. The caller forks the other N - 1; each
sends its results back over a pipe, and the caller puts them in chunk
order.

The census streams. Each chunk's scan waits as its H lines, formatted by
the process that scanned it and several times smaller than its records,
and its pending programs; a child sends its chunks down the pipe in that
form. An `Extension` is a scanned census not yet collected: `save` writes
each chunk's H lines as they are, in turn, after the H records of the
state it extends, and `extend` parses them back into an EnumState, so the
CLI and the library share one producer and one writer. No list of
records is built beyond one chunk's, which is why chunks are small.
`load` and `tally` share one reader. It opens a checkpoint once and reads
it twice, a line at a time: the first read takes the P list and the
trailer, and the second merges the H lines, in length-lex order, and the P
list with the walk, handing each H record to `load`, which builds it, or
to `tally`, which counts it. Only a file the reader refuses is read whole,
to name its first fault.

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
from bisect import insort
from collections import Counter
from itertools import chain, pairwise
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, NoReturn, TextIO, TypeVar

from .vm import Halted, InvalidProgram, _is_bits, _length_lex, _record, decode, programs, run

CHECKPOINT_MAGIC = "OMEGALAB v1"
SCAN_CHUNK = 1 << 11  # strings of one length per unit of scan work, and per records list
_TAIL_BITS = 8  # a scanned string is a formatted head plus one of these tails
_TAILS = tuple(format(i, f"0{_TAIL_BITS}b") for i in range(1 << _TAIL_BITS))


@_record
class HaltRecord:
    program: str
    output: str
    steps: int


_program = attrgetter("program")


def _record_key(rec: HaltRecord) -> tuple[int, str]:
    return _length_lex(rec.program)


def _ascending(programs: Iterable[str]) -> bool:
    """Whether `programs` are strictly increasing in length-lex order."""
    return all(len(a) < len(b) or len(a) == len(b) and a < b for a, b in pairwise(programs))


@_record
class EnumState:
    """A census up to `max_len_done` bits at `budget` steps.

    `records` and `pending` are tuples in strictly increasing length-lex
    order of program, the order a checkpoint lists them in; one linear pass
    checks that, so no state can make `save` write another order.
    """

    max_len_done: int
    budget: int
    records: tuple[HaltRecord, ...]
    pending: tuple[str, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.records, tuple) or not isinstance(self.pending, tuple):
            raise TypeError("records and pending must be tuples")
        if not _ascending(map(_program, self.records)) or not _ascending(self.pending):
            raise ValueError("records and pending must be in strictly increasing length-lex order")


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


_Scan = tuple[str, list[str]]  # a chunk's H lines, as a checkpoint has them, and pending programs


def _h_line(program: str, output: str, steps: int) -> str:
    return f"H {program} {output or '-'} {steps}\n"


def _scan_claimed(
    chunks: list[tuple[int, int, int, int]], counter: tuple[int, int]
) -> list[tuple[int, str, list[str]]]:
    """Scan each chunk that this process claims, until none is left; each
    scan comes with the index of its chunk, its records already formatted
    as H lines, several times smaller than the records.

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
        records, pending = _scan_chunk(chunks[k])
        results.append((k, "".join([_h_line(*rec) for rec in records]), pending))
        del records  # not alive beside the next chunk's


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


def _scan_lengths(lengths: Iterable[int], budget: int, workers: int) -> list[_Scan]:
    """The scan of every length in `lengths` (ascending), chunk by chunk.

    The chunks tile the lengths in length-lex order, so the scans, put in
    chunk order, list the H records and the pending programs each in that
    order.
    """
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
            del sent  # `shares` alone holds it, and drops it once it is loaded
        for end in counter:
            os.close(end)
    for pid, status, _ in shares:
        if status != 0:
            raise RuntimeError(f"census scan process {pid} exited with status {status}")
    while shares:
        results.extend(marshal.loads(shares.pop()[2]))
    results.sort(key=itemgetter(0))
    return [(halting, pending) for _, halting, pending in results]


class Extension:
    """`extend(state, max_len, budget, workers)` before it is collected:
    a census that `save` writes as it is and `extend` collects.

    Built, it has checked the arguments, refined `state` to `budget` and
    scanned the new lengths. The census is the refined state's H `records`,
    then the H lines of each scanned chunk (`chunks`), then the `pending`
    programs, the state's and the scan's; `n_halting` counts the H records.
    """

    def __init__(self, state: EnumState, max_len: int, budget: int, workers: int = 1) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_len < state.max_len_done:
            raise ValueError(f"cannot shrink max_len below {state.max_len_done}")
        if budget < state.budget:
            raise ValueError(f"cannot lower budget below {state.budget}")
        if budget > state.budget:
            state = refine(state, budget)
        scans = _scan_lengths(range(state.max_len_done + 1, max_len + 1), budget, workers)
        self.max_len_done, self.budget, self.records = max_len, budget, state.records
        self.chunks = [halting for halting, _ in scans]
        self.pending = state.pending + tuple(bits for _, pending in scans for bits in pending)
        self.n_halting = len(self.records) + sum(chunk.count("\n") for chunk in self.chunks)


def enumerate_programs(max_len: int, budget: int, workers: int = 1) -> EnumState:
    """Classify every valid program of length 1..max_len at `budget` steps.

    That is `extend` from the empty census at the same budget. The result
    is a pure function of (max_len, budget): the same state comes back
    whatever the worker count or execution order.
    """
    if max_len < 0 or budget < 0:
        raise ValueError("max_len, budget must be >= 0")
    return extend(EnumState(0, budget, (), ()), max_len, budget, workers)


def refine(state: EnumState, new_budget: int) -> EnumState:
    """Re-run only the pending programs at a strictly larger budget.

    Equals enumerate_programs(state.max_len_done, new_budget): records
    taken at the smaller budget stay bit-identical at any larger one. A
    pending program that revisits a control state stays pending after a few
    steps, at most three times the step of its first revisit, because `run`
    stops there; only one that never revisits, such as counter growth,
    costs the whole budget. The pending programs are trusted to be
    programs: a loaded checkpoint has been checked against the grammar.
    The ones that halt now are inserted into the records at their place in
    length-lex order; the rest stay pending in their order.
    """
    if new_budget <= state.budget:
        raise ValueError(f"new budget {new_budget} must exceed current {state.budget}")
    records = list(state.records)
    pending: list[str] = []
    for bits in state.pending:
        outcome = run(bits, new_budget)
        if isinstance(outcome, Halted):
            insort(records, HaltRecord(bits, outcome.output, outcome.steps), key=_record_key)
        else:
            pending.append(bits)
    return EnumState(state.max_len_done, new_budget, tuple(records), tuple(pending))


def extend(state: EnumState, max_len: int, budget: int, workers: int = 1) -> EnumState:
    """Grow a state to (max_len, budget); equals a fresh enumeration there.

    The Extension, collected: the scan's records and pending programs are
    all longer than the state's, so each follows the state's.
    """
    census = Extension(state, max_len, budget, workers)
    records = list(census.records)
    outputs: dict[str, str] = {}
    for chunk in census.chunks:
        records.extend(_halt_record(line.split(" "), outputs) for line in chunk.splitlines())
    return EnumState(max_len, budget, tuple(records), census.pending)


def _canonical_lines(census: EnumState | Extension) -> Iterator[str]:
    """The checkpoint of `census`, a newline-terminated line, or a scanned
    chunk's H lines, at a time."""
    yield CHECKPOINT_MAGIC + "\n"
    for rec in census.records:
        yield _h_line(rec.program, rec.output, rec.steps)
    if isinstance(census, Extension):
        yield from census.chunks
    for bits in census.pending:
        yield f"P {bits}\n"
    yield f"FRONTIER {census.max_len_done} {census.budget}\n"


def save(state: EnumState | Extension, destination: str | Path) -> None:
    """Write a canonical checkpoint atomically (temp file, then rename).

    The records and pending programs of an EnumState, and the scanned
    chunks of an Extension, are already in the checkpoint's order, so the
    lines go to the temp file as they are formatted: nothing is sorted, and
    neither a list of lines nor the whole text is ever held. The checkpoint
    keeps the mode of the file it replaces; a new one gets 0o666 less the
    umask, as open() gives.
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


def _file_lines(fh: TextIO) -> Iterator[str]:
    """The lines of a file opened with newline="", as `str.splitlines` splits
    its whole text: the file's lines end at "\n", "\r\n" or "\r", and are cut
    again at the other boundaries (form feed, vertical tab, \x1c to \x1e)."""
    return chain.from_iterable(map(str.splitlines, fh))


def _is_count(field: str) -> bool:
    """Whether `field` is digits that `int` converts: no more of them than
    Python's limit on that conversion (4,300 by default; 0, or none, if
    there is no limit)."""
    return field.isdigit() and not 0 < getattr(sys, "get_int_max_str_digits", int)() < len(field)


def _malformed(fields: list[str]) -> str | None:
    """What is wrong with the fields of a checkpoint line after the header,
    or None for a well-formed H, P or FRONTIER line."""
    kind = fields[0]
    if kind == "H":
        if len(fields) != 4 or not fields[1] or not _is_bits(fields[1]):
            return "malformed H record"
        output = fields[2]
        if not output or (output != "-" and not _is_bits(output)):
            return "malformed output field"
        if not _is_count(fields[3]):
            return "malformed step count"
    elif kind == "P":
        if len(fields) != 2 or not fields[1] or not _is_bits(fields[1]):
            return "malformed P record"
    elif kind == "FRONTIER":
        if len(fields) != 3 or not _is_count(fields[1]) or not _is_count(fields[2]):
            return "malformed FRONTIER trailer"
    else:
        return f"unknown record type {kind!r}"
    return None


def _halt_record(fields: list[str], outputs: dict[str, str]) -> HaltRecord:
    """The record of a well-formed H line's fields; equal outputs are
    stored once, in `outputs`."""
    output = fields[2]
    output = "" if output == "-" else outputs.setdefault(output, output)
    return HaltRecord(fields[1], output, int(fields[3]))


def _merge(halting: Iterator[str], pending: Iterator[str], max_len: int) -> bool:
    """Whether two streams of programs in length-lex order list between them
    each program of the `vm.programs` walk up to `max_len` bits once, and no
    other. The walk stops at the first program neither lists next, so a
    trailer that claims more than the streams list costs no more than they."""
    h, p = next(halting, None), next(pending, None)
    for program in chain.from_iterable(map(programs, range(1, max_len + 1))):
        if program == h:
            h = next(halting, None)
        elif program == p:
            p = next(pending, None)
        else:
            return False
    return h is None and p is None


class _Refused(Exception):
    """What `_stream` raises at the first thing it does not accept."""


_T = TypeVar("_T")
_Adder = Callable[[_T, list[str]], object]
_Census = tuple[int, int, _T, list[str]]  # (max_len, budget, H lines added up, P list)


def _stream(fh: TextIO, new: Callable[[], _T], add: _Adder[_T]) -> _Census[_T]:
    """The census of a checkpoint read twice, a line at a time, where
    `add(total, fields)` took each H line's fields, in length-lex order,
    into `total = new()`; _Refused or UnicodeDecodeError at anything else.

    The first read checks the P lines and the trailer, and takes them and
    whether the H lines are in order. The second checks each H line's fields
    and steps and the rest against the first, as the merge takes the H
    programs (held and sorted if out of order) and the P list.
    """
    lines = _file_lines(fh)
    if next(lines, None) != CHECKPOINT_MAGIC:
        raise _Refused
    pending: list[str] = []
    trailer: list[str] | None = None
    ordered, last = True, (0, "")
    for line in lines:
        fields = line.split(" ")
        if trailer is not None:
            raise _Refused
        if fields[0] == "H" and len(fields) == 4:  # checked whole on the second read
            key = _length_lex(fields[1])
            ordered, last = ordered and last < key, key
        elif _malformed(fields) is not None:
            raise _Refused
        elif fields[0] == "P":
            pending.append(fields[1])
        else:
            trailer = fields
    if trailer is None:
        raise _Refused
    max_len, budget = int(trailer[1]), int(trailer[2])

    def second_read() -> Iterator[list[str]]:
        """The fields of each H line, in file order."""
        fh.seek(0)
        lines = _file_lines(fh)
        expected = iter(pending)
        if next(lines, None) != CHECKPOINT_MAGIC:
            raise _Refused
        fields: list[str] = []
        for line in lines:
            fields = line.split(" ")
            if fields == trailer:
                break
            if fields[0] == "P" and fields == ["P", next(expected, None)]:
                continue
            if fields[0] != "H" or _malformed(fields) is not None or int(fields[3]) > budget:
                raise _Refused
            yield fields
        if fields != trailer or next(lines, None) is not None or next(expected, None) is not None:
            raise _Refused

    total = new()
    held = second_read() if ordered else sorted(second_read(), key=lambda f: _length_lex(f[1]))

    def halting() -> Iterator[str]:
        for fields in held:
            add(total, fields)
            yield fields[1]

    runs = pending if _ascending(pending) else sorted(pending, key=_length_lex)
    if not _merge(halting(), iter(runs), max_len):
        raise _Refused
    return max_len, budget, total, runs


def _reject(source: str | Path) -> None:
    """Name the first fault of a checkpoint read whole, as ASCII text, so a
    byte that is not ASCII is named at its place; return if there is none.
    The faults are looked for in the documented order, each in file order:
    the header; a malformed line, a line after the trailer or a program
    listed twice, whichever comes first; a missing trailer; a record past
    the FRONTIER length or budget; a record that is not a program (only
    here are records decoded); and the smallest program up to the FRONTIER
    length that no line lists.
    """
    lines = Path(source).read_text(encoding="ascii").splitlines()
    if lines[:1] != [CHECKPOINT_MAGIC]:
        raise CheckpointError(f"line 1: expected header {CHECKPOINT_MAGIC!r}")
    listed: list[tuple[int, list[str]]] = []  # (line, fields) of each H and P line
    seen: set[str] = set()
    trailer: tuple[int, int, int] | None = None
    for num, line in enumerate(lines[1:], start=2):
        fields = line.split(" ")
        message = _malformed(fields) if trailer is None else "content after FRONTIER trailer"
        if message is None and fields[0] == "FRONTIER":
            trailer = num, int(fields[1]), int(fields[2])
        elif message is None and fields[1] not in seen:
            seen.add(fields[1])
            listed.append((num, fields))
        else:
            raise CheckpointError(f"line {num}: {message or f'program {fields[1]} listed twice'}")
    if trailer is None:
        raise CheckpointError(f"line {len(lines) + 1}: missing FRONTIER trailer")
    trailer_num, max_len, budget = trailer
    for num, (kind, program, *rest) in listed:
        if len(program) > max_len:
            raise CheckpointError(
                f"line {num}: program {program} is longer than the FRONTIER length {max_len}"
            )
        if kind == "H" and int(rest[1]) > budget:
            raise CheckpointError(
                f"line {num}: {int(rest[1])} steps exceed the FRONTIER budget {budget}"
            )
    for num, (_, program, *_) in listed:
        try:
            decode(program)
        except InvalidProgram as exc:
            raise CheckpointError(f"line {num}: {program} is not a program ({exc})") from exc
    for program in chain.from_iterable(map(programs, range(1, max_len + 1))):
        if program not in seen:
            raise CheckpointError(
                f"line {trailer_num}: FRONTIER length {max_len} but program {program} is not listed"
            )


def _census(source: str | Path, new: Callable[[], _T], add: _Adder[_T]) -> _Census[_T]:
    """`_stream` of the checkpoint at `source`, or the first fault `_reject`
    names in it. A file refused with no fault changed between the reads: it
    is read once more, and refused if it changes again."""
    for _ in range(2):
        try:
            with open(source, encoding="ascii", newline="") as fh:
                return _stream(fh, new, add)
        except (_Refused, UnicodeDecodeError):
            _reject(source)
    raise CheckpointError("changed each time it was read")


def load(source: str | Path) -> EnumState:
    """Read a checkpoint back, trusted only as a complete census; load(save(s)) == s.

    Besides the syntax, the records must fit their FRONTIER trailer: no
    program listed twice (as H or P), none longer than the frontier length,
    and no H record with more steps than the frontier budget. Then each
    record must be a program, and every program up to the frontier length
    must be listed: the smallest missing one is named at the trailer. The
    offending line is named. H outputs and steps are not re-run.

    The file is read by the reader `tally` uses, twice, a line at a time,
    and the H records are built in length-lex order as its merge with the
    walk takes them, so a valid checkpoint is never decoded; equal outputs
    are stored once. Only a file the reader refuses is read whole.
    """
    outputs: dict[str, str] = {}
    max_len, budget, records, pending = _census(
        source, list, lambda records, fields: records.append(_halt_record(fields, outputs))
    )
    return EnumState(max_len, budget, tuple(records), tuple(pending))


@_record
class Tally:
    """A census counted, not held: `halting[k]` halting programs of k bits
    for k = 0..max_len_done, and `pending` programs still running."""

    max_len_done: int
    budget: int
    halting: tuple[int, ...]
    pending: int


def _count_length(counts: Counter[int], fields: list[str]) -> None:
    counts[len(fields[1])] += 1


def tally(source: str | Path) -> Tally:
    """The census of a checkpoint that `load` accepts, counted: what `load`
    would give, without holding its records.

    The file is read by the reader `load` uses, and the H records are
    counted by length as the merge takes them; only the P list, and H lines
    out of length-lex order, are held. A file the reader refuses is read
    whole, and its first fault named as `load` names it.
    """
    max_len, budget, per_length, pending = _census(source, Counter, _count_length)
    return Tally(max_len, budget, tuple(per_length[k] for k in range(max_len + 1)), len(pending))
