"""The OMV machine: a bit-exact, prefix-free two-counter toy language.

A program is a finite 0/1 string: an Elias-gamma header carrying the
instruction count, then the instructions themselves. A string is a valid
program only when decoding consumes every bit exactly, so no valid program
is a proper prefix of another one. That prefix-freeness is what makes
"pick each program bit with a fair coin" a well-defined probability space,
and it is the reason everything downstream (halting-mass bounds, elegance
search, the toy theory) can use plain program length as its size measure.

Execution model: two non-negative unbounded counters A and B, a program
counter, and an output tape of bits. DJZ is decrement-or-branch: it jumps
by its offset when its counter is zero, otherwise decrements and falls
through. Falling off either end of the instruction list is a halt, and
jump targets outside the code are clamped to "past the end". Everything
here is integer/string arithmetic; there is deliberately no floating point
in this module or anywhere above it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator

__all__ = [
    "InvalidProgram",
    "InvalidReason",
    "Op",
    "Instruction",
    "Program",
    "Halted",
    "Running",
    "LoopCert",
    "gamma_encode",
    "gamma_decode",
    "decode",
    "encode_instructions",
    "assemble",
    "run",
    "execute",
    "stream_output",
    "classify",
    "detect_loop",
    "programs",
    "literal_program",
]


class InvalidReason(Enum):
    TRUNCATED = "Truncated"
    LEFTOVER = "Leftover"
    MALFORMED_GAMMA = "MalformedGamma"


class InvalidProgram(ValueError):
    """Raised when a bit string is not a valid program."""

    def __init__(self, reason: InvalidReason):
        # A census raises this for ~99% of its strings. `_value_` is the
        # member's plain attribute: `.value` goes through a descriptor, and a
        # dict keyed by the member pays for Enum.__hash__ in Python.
        super().__init__(reason._value_)
        self.reason = reason


class Op(Enum):
    HALT = "HALT"
    EMIT0 = "EMIT0"
    EMIT1 = "EMIT1"
    INCA = "INCA"
    INCB = "INCB"
    DJZA = "DJZA"
    DJZB = "DJZB"


_JUMPS = (Op.DJZA, Op.DJZB)

_OPCODE = {
    Op.HALT: "00",
    Op.EMIT0: "01",
    Op.EMIT1: "10",
    Op.INCA: "1100",
    Op.INCB: "1101",
    Op.DJZA: "1110",
    Op.DJZB: "1111",
}


@dataclass(frozen=True)
class Instruction:
    op: Op
    offset: int | None = None

    def __post_init__(self) -> None:
        if (self.offset is not None) != (self.op in _JUMPS):
            raise ValueError(f"{self.op.value} takes an offset iff it is a jump")


@dataclass(frozen=True)
class Program:
    bits: str
    instructions: tuple[Instruction, ...]

    @property
    def length_bits(self) -> int:
        return len(self.bits)


@dataclass(frozen=True)
class Halted:
    output: str
    steps: int


@dataclass(frozen=True)
class Running:
    budget: int


@dataclass(frozen=True)
class LoopCert:
    """A revisited control state: a finite proof the program never halts."""

    program: str
    revisit_step: int
    state: tuple[int, int, int]  # (pc, counter A, counter B)


def gamma_encode(m: int) -> str:
    """Elias-gamma code of m >= 1: k zeros, then the (k+1)-bit binary of m."""
    if m < 1:
        raise ValueError("gamma code is defined for integers >= 1")
    return "0" * (m.bit_length() - 1) + format(m, "b")


def gamma_decode(bits: str, start: int = 0) -> tuple[int, int]:
    """Decode a gamma code at `start`; returns (value, bits consumed)."""
    k = start
    while k < len(bits) and bits[k] == "0":
        k += 1
    end = k + (k - start) + 1
    if k == len(bits) or end > len(bits):
        raise InvalidProgram(InvalidReason.MALFORMED_GAMMA)
    return int(bits[k:end], 2), end - start


def _zigzag(delta: int) -> int:
    return 2 * delta if delta >= 0 else -2 * delta - 1


def _unzigzag(z: int) -> int:
    return z // 2 if z % 2 == 0 else -(z // 2) - 1


# The instructions without an operand, keyed by their opcode. Instructions
# are frozen, so every decoded program can share these.
_PLAIN = {code: Instruction(op) for op, code in _OPCODE.items() if op not in _JUMPS}
_JUMP_OP = {"0": Op.DJZA, "1": Op.DJZB}  # the last bit of opcodes 1110 / 1111


def decode(bits: str) -> Program:
    """Decode a bit string; valid iff decoding consumes exactly all bits.

    Raises InvalidProgram with reason Truncated (bits ran out mid-decode),
    Leftover (bits remain after the counted instructions), or
    MalformedGamma (a self-delimiting integer could not be completed).

    Two passes. The first only moves a position through the string and
    raises at the first point where decoding fails, so the ~99% of strings
    a census scan meets that are not programs build no objects. Only a
    string that passes is walked again to build its instructions. A gamma
    code starting at `start` whose first 1 is at `k` ends at
    k + (k - start) + 1, as in gamma_decode.
    """
    n = len(bits)
    if bits.count("0") + bits.count("1") != n:
        raise ValueError("program bits must be '0'/'1' characters")
    k = bits.find("1")
    body = 2 * k + 1
    if k < 0 or body > n:
        raise InvalidProgram(InvalidReason.MALFORMED_GAMMA)
    count = int(bits[k:body], 2) - 1
    pos = body
    for _ in range(count):
        if pos + 2 > n:
            raise InvalidProgram(InvalidReason.TRUNCATED)
        if bits[pos] == "0" or bits[pos + 1] == "0":  # 00 / 01 / 10
            pos += 2
        elif pos + 4 > n:
            raise InvalidProgram(InvalidReason.TRUNCATED)
        elif bits[pos + 2] == "0":  # 1100 / 1101
            pos += 4
        else:  # 1110 / 1111, then a gamma-coded offset
            start = pos + 4
            k = bits.find("1", start)
            pos = 2 * k - start + 1
            if k < 0 or pos > n:
                raise InvalidProgram(InvalidReason.MALFORMED_GAMMA)
    if pos != n:
        raise InvalidProgram(InvalidReason.LEFTOVER)

    instructions = []
    pos = body
    for _ in range(count):
        if bits[pos] == "0" or bits[pos + 1] == "0":
            instructions.append(_PLAIN[bits[pos : pos + 2]])
            pos += 2
        elif bits[pos + 2] == "0":
            instructions.append(_PLAIN[bits[pos : pos + 4]])
            pos += 4
        else:
            start = pos + 4
            k = bits.find("1", start)
            end = 2 * k - start + 1
            z = int(bits[k:end], 2)
            instructions.append(Instruction(_JUMP_OP[bits[pos + 3]], _unzigzag(z - 1)))
            pos = end
    return Program(bits, tuple(instructions))


def encode_instructions(instructions: tuple[Instruction, ...]) -> str:
    parts = [gamma_encode(len(instructions) + 1)]
    for ins in instructions:
        parts.append(_OPCODE[ins.op])
        if ins.op in _JUMPS:
            parts.append(gamma_encode(_zigzag(ins.offset) + 1))
    return "".join(parts)


def assemble(instructions) -> Program:
    """Build a Program from an instruction list; inverse of decode."""
    instructions = tuple(instructions)
    return Program(encode_instructions(instructions), instructions)


def _run_machine(
    program: Program,
    budget: int,
    want_bits: int | None = None,
    seen: set[tuple[int, int, int]] | None = None,
) -> tuple[bool, str, int, tuple[int, int, int] | None]:
    """The machine's one step loop.

    Steps until HALT or fall-off, the budget, `want_bits` output bits, or,
    given a `seen` set, the first revisit of a control state (pc, A, B).
    Returns (halted, output, steps, revisited state or None).
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    code = program.instructions
    n = len(code)
    pc = a = b = steps = 0
    out: list[str] = []
    if seen is not None:
        seen.add((0, 0, 0))
    while True:
        if not 0 <= pc < n:
            return True, "".join(out), steps, None
        if steps >= budget or (want_bits is not None and len(out) >= want_bits):
            return False, "".join(out), steps, None
        ins = code[pc]
        op = ins.op
        steps += 1
        if op is Op.HALT:
            return True, "".join(out), steps, None
        if op is Op.EMIT0:
            out.append("0")
            pc += 1
        elif op is Op.EMIT1:
            out.append("1")
            pc += 1
        elif op is Op.INCA:
            a += 1
            pc += 1
        elif op is Op.INCB:
            b += 1
            pc += 1
        elif op is Op.DJZA and a:
            a -= 1
            pc += 1
        elif op is Op.DJZB and b:
            b -= 1
            pc += 1
        else:  # DJZA / DJZB on a zero counter: jump
            pc += 1 + ins.offset
            if not 0 <= pc <= n:
                pc = n  # out-of-range jump targets mean "past the end"
        if seen is not None:
            state = (pc, a, b)
            if state in seen:
                return False, "".join(out), steps, state
            seen.add(state)


def execute(program: Program, budget: int) -> Halted | Running:
    # No seen set: it would hold up to `budget` states per pending program.
    halted, out, steps, _ = _run_machine(program, budget)
    return Halted(out, steps) if halted else Running(budget)


def run(bits: str, budget: int) -> Halted | Running:
    """Decode and execute: Halted(output, steps) or Running(budget).

    Counters start at zero, output empty. Executing an instruction costs
    one step; halting by falling off the end costs none, so the empty
    program halts in zero steps at any budget.
    """
    return execute(decode(bits), budget)


def stream_output(program: Program, budget: int, want_bits: int) -> str:
    """Run ignoring halting status; the first `want_bits` emitted bits.

    The result is shorter than `want_bits` when the program halts or the
    budget runs out first.
    """
    _, out, _, _ = _run_machine(program, budget, want_bits)
    return out[:want_bits]


def classify(bits: str, budget: int) -> Halted | LoopCert | Running:
    """Halted as `run` says, else the first state revisit within `budget`
    steps as a LoopCert, else Running(budget); one simulation.

    Output emission does not touch the control state (pc, A, B), so a
    revisit makes the deterministic machine repeat forever: a sound
    non-halting certificate. The set of visited states grows by one per
    step, so memory grows with the budget for a program that keeps running.
    """
    halted, out, steps, state = _run_machine(decode(bits), budget, seen=set())
    if halted:
        return Halted(out, steps)
    if state is not None:
        return LoopCert(bits, steps, state)
    return Running(budget)


def detect_loop(bits: str, budget: int) -> LoopCert | None:
    """The loop certificate `classify` finds within `budget` steps, or None
    when the program halts or no state revisit shows up in time."""
    outcome = classify(bits, budget)
    return outcome if isinstance(outcome, LoopCert) else None


def programs(length: int) -> Iterator[str]:
    """Every valid program of exactly `length` bits, in lexicographic order.

    Built from the grammar, not by decoding all 2^length strings. Headers
    and codewords are each prefix-free codes, so trying the choices at each
    position in lexicographic order yields the programs in that order.
    """
    words = [code for op, code in _OPCODE.items() if op not in _JUMPS]
    z = 1
    while len(_OPCODE[Op.DJZA] + gamma_encode(z)) <= length:
        words.extend(_OPCODE[op] + gamma_encode(z) for op in _JUMPS)
        z += 1
    words.sort()
    fits = [[w for w in words if len(w) <= room] for room in range(length + 1)]

    def body(prefix: str, count: int, room: int) -> Iterator[str]:
        # `count` more codewords in exactly `room` bits; each takes >= 2
        if count == 0:
            if room == 0:
                yield prefix
        elif room >= 2 * count:
            for w in fits[room - 2 * (count - 1)]:
                yield from body(prefix + w, count - 1, room - len(w))

    for header in sorted(gamma_encode(m) for m in range(1, length // 2 + 2)):
        yield from body(header, int(header, 2) - 1, length - len(header))


def literal_program(s: str) -> str:
    """The program that prints `s` verbatim, one EMIT per fact bit.

    Always valid, always halts (by fall-off, within len(s) steps), costs
    two bits per output bit plus the logarithmic header: the baseline any
    genuine compression has to beat.
    """
    if any(c not in "01" for c in s):
        raise ValueError("facts must be '0'/'1' characters")
    body = "".join("01" if c == "0" else "10" for c in s)
    return gamma_encode(len(s) + 1) + body
