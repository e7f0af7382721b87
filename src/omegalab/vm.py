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

One step loop runs every simulation, over the program compiled to small
ints. Output does not touch the control state (pc, A, B), so a run that
comes back to a control state repeats forever. The loop compares each
state with one saved state (Brent's cycle finding), so `run` stops at such
a revisit with Running(budget), the answer running out the budget gives,
and `classify` turns it into a loop certificate. Neither keeps more than
a few states, whatever the budget.
"""

from __future__ import annotations

from enum import Enum
from operator import attrgetter
from typing import Iterator


class InvalidReason(Enum):
    TRUNCATED = "Truncated"
    LEFTOVER = "Leftover"
    MALFORMED_GAMMA = "MalformedGamma"


# Bound once: decode raises with these for ~99% of a census's strings, and
# a module-level name is cheaper to load than an Enum member lookup.
_TRUNCATED = InvalidReason.TRUNCATED
_LEFTOVER = InvalidReason.LEFTOVER
_MALFORMED_GAMMA = InvalidReason.MALFORMED_GAMMA


class InvalidProgram(ValueError):
    """Raised as InvalidProgram(reason) when a bit string is not a valid program."""

    # No __init__: a census raises this for ~99% of its strings, and without
    # one the exception is built in C, with no Python frame. The member stays
    # in args[0], so pickle and copy, which rebuild an exception from its
    # args, give back the same member.

    @property
    def reason(self) -> InvalidReason:
        return self.args[0]

    def __str__(self) -> str:
        return self.args[0]._value_


class Op(Enum):  # the instruction set: each value is its opcode bits
    HALT = "00"
    EMIT0 = "01"
    EMIT1 = "10"
    INCA = "1100"
    INCB = "1101"
    DJZA = "1110"  # a jump's opcode is followed by its gamma-coded offset
    DJZB = "1111"


_JUMPS = (Op.DJZA, Op.DJZB)


def _record(cls: type) -> type:
    """`cls` rebuilt as a frozen record of its annotated fields: the
    package's stand-in for ``@dataclass(frozen=True)``.

    The fields, in annotation order, become __slots__, and the class gets
    what a frozen dataclass has: an __init__ taking the fields by position
    or keyword, with the class-level values as defaults, that calls
    __post_init__ when the class defines one; equality with an instance of
    the same class only, never with a tuple; a hash of the fields; a
    Class(field=value, ...) repr; and AttributeError on any assignment or
    deletion. Methods and properties are kept. Importing dataclasses loads
    inspect, and each class it builds costs about a millisecond, which
    every short CLI call would pay again.
    """
    namespace = dict(vars(cls))
    names = tuple(cls.__annotations__)
    defaults = {name: namespace.pop(name) for name in names if name in namespace}
    for name in ("__dict__", "__weakref__"):
        namespace.pop(name, None)
    get = attrgetter(*names)
    fields = get if len(names) > 1 else lambda self: (get(self),)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return fields(self) == fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(fields(self))

    def __repr__(self):
        body = ", ".join(f"{n}={v!r}" for n, v in zip(names, fields(self)))
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value=None):  # also __delattr__
        raise AttributeError(f"{type(self).__name__} is frozen: cannot change {name!r}")

    def __reduce__(self):
        return type(self), fields(self)

    namespace.update(
        __slots__=names,
        __eq__=__eq__,
        __hash__=__hash__,
        __repr__=__repr__,
        __setattr__=__setattr__,
        __delattr__=__setattr__,
        __reduce__=__reduce__,
    )
    new = type(cls)(cls.__name__, cls.__bases__, namespace)
    # __init__ stores each field through its slot, bypassing __setattr__.
    # It is compiled so that it has the exact signature, defaults and
    # TypeErrors included, which a generic loop over the fields would have
    # to check by hand, and at about twice the cost per record.
    scope = {f"_set_{n}": vars(new)[n].__set__ for n in names}
    scope.update({f"_default_{n}": value for n, value in defaults.items()})
    params = ", ".join(f"{n}=_default_{n}" if n in defaults else n for n in names)
    body = [f"_set_{n}(self, {n})" for n in names]
    if "__post_init__" in namespace:
        body.append("self.__post_init__()")
    exec(f"def __init__(self, {params}):\n    " + "\n    ".join(body), scope)
    init = scope["__init__"]
    init.__qualname__ = f"{new.__qualname__}.__init__"
    new.__init__ = init
    return new


@_record
class Instruction:
    op: Op
    offset: int | None = None

    def __post_init__(self) -> None:
        if (self.offset is not None) != (self.op in _JUMPS):
            raise ValueError(f"{self.op.name} takes an offset iff it is a jump")


@_record
class Program:
    bits: str
    instructions: tuple[Instruction, ...]


@_record
class Halted:
    output: str
    steps: int


@_record
class Running:
    budget: int


@_record
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


def _zigzag(delta: int) -> int:
    return 2 * delta if delta >= 0 else -2 * delta - 1


def _unzigzag(z: int) -> int:
    return z // 2 if z % 2 == 0 else -(z // 2) - 1


_NOT_BITS = str.maketrans("", "", "01")  # translate by it deletes every 0 and 1


def _is_bits(s: str) -> bool:
    """Whether `s` is a bit string; the empty string is one."""
    return not s.translate(_NOT_BITS)


# The operand-free instructions by opcode; frozen, so all programs share them.
_PLAIN = {op.value: Instruction(op) for op in Op if op not in _JUMPS}
_JUMP_OP = {op.value[-1]: op for op in _JUMPS}  # keyed by the last opcode bit


def decode(bits: str) -> Program:
    """Decode a bit string; valid iff decoding consumes exactly all bits.

    Raises InvalidProgram with reason Truncated (bits ran out mid-decode),
    Leftover (bits remain after the counted instructions), or
    MalformedGamma (a self-delimiting integer could not be completed).

    Two passes. The first only moves a position through the string and
    raises at the first point where decoding fails, so the ~99% of strings
    a census scan meets that are not programs build no objects. Half of
    all strings start with the header 1, zero instructions: only "1"
    itself is a program, and the rest are Leftover at once. Only a string
    that passes is walked again to build its instructions. A gamma code
    starting at `start` whose first 1 is at `k` ends at k + (k - start) + 1.
    """
    n = len(bits)
    if bits.translate(_NOT_BITS):  # _is_bits, inline: a census decodes every string it scans
        raise ValueError("program bits must be '0'/'1' characters")
    k = bits.find("1")
    if not k:  # header 1: zero instructions
        if n > 1:
            raise InvalidProgram(_LEFTOVER)
        return Program(bits, ())
    body = 2 * k + 1
    if k < 0 or body > n:
        raise InvalidProgram(_MALFORMED_GAMMA)
    count = int(bits[k:body], 2) - 1
    pos = body
    for _ in range(count):
        if bits[pos : pos + 2] != "11":  # 00 / 01 / 10, or fewer than two bits left
            pos += 2
            if pos > n:
                raise InvalidProgram(_TRUNCATED)
        elif pos + 4 > n:
            raise InvalidProgram(_TRUNCATED)
        elif bits[pos + 2] == "0":  # 1100 / 1101
            pos += 4
        else:  # 1110 / 1111, then a gamma-coded offset
            start = pos + 4
            k = bits.find("1", start)
            pos = 2 * k - start + 1
            if k < 0 or pos > n:
                raise InvalidProgram(_MALFORMED_GAMMA)
    if pos != n:
        raise InvalidProgram(_LEFTOVER)

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


def assemble(instructions) -> Program:
    """Build a Program from an instruction list, to write programs by instruction.

    The inverse of decode: decode(assemble(ins).bits) == assemble(ins) for
    any instruction tuple.
    """
    instructions = tuple(instructions)
    parts = [gamma_encode(len(instructions) + 1)]
    for ins in instructions:
        parts.append(ins.op.value)
        if ins.op in _JUMPS:
            parts.append(gamma_encode(_zigzag(ins.offset) + 1))
    return Program("".join(parts), instructions)


# Compiled opcodes, grouped so the step loop dispatches on ranges of small
# ints: halts, emits, increments, jumps. _FALL is the sentinel past the last
# instruction: falling off the end halts without costing a step.
_FALL, _HALT, _EMIT0, _EMIT1, _INCA, _INCB, _DJZA, _DJZB = range(8)
_OPNUM = {op.value: num for num, op in enumerate(Op, _HALT)}  # Op lists them in this order
_START = (0, 0, 0)  # (pc, counter A, counter B) before the first step


def _compile(program: Program) -> list[tuple[int, int]]:
    """The program as (opcode, next pc) pairs, then a _FALL sentinel.

    A jump's next pc is its target when it fires, clamped to n (past the
    end) when out of range; every other instruction's is pc + 1.
    """
    code = program.instructions
    n = len(code)
    compiled = []
    for pc, ins in enumerate(code):
        target = pc + 1 if ins.offset is None else pc + 1 + ins.offset
        compiled.append((_OPNUM[ins.op._value_], target if 0 <= target <= n else n))
    compiled.append((_FALL, n))
    return compiled


def _run_machine(
    code: list[tuple[int, int]],
    budget: int,
    state: tuple[int, int, int] = _START,
    want_bits: int | None = None,
    window: int | None = 1,
) -> tuple[bool, str, int, tuple[int, int, int], int]:
    """The machine's one step loop, over `_compile`d code.

    Steps from `state` (pc, A, B) until HALT or fall-off, `budget` steps,
    or `want_bits` output bits. Unless `window` is None, it also stops at a
    revisit: each state is compared with a saved one, `state` itself up to
    step `window`, then the state at step window, 2·window, 4·window, ...
    up to the next of those steps (Brent's cycle finding; window=budget
    compares with `state` only). The first match is exactly one cycle
    length λ after the saved state. Returns (halted, output, steps, state,
    period), where period is that λ, or 0 when no revisit was seen.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    if want_bits is None:
        want_bits = budget + 1
    pc, a, b = state
    sp, sa, sb = (-1, 0, 0) if window is None else state  # -1: never revisited
    out = bytearray()
    emit = out.append
    saved = steps = 0
    end = window or budget
    while True:
        end = min(end, budget)
        for steps in range(steps + 1, end + 1):  # a for loop is the cheap counter
            op, target = code[pc]
            if op >= _DJZA:
                if op == _DJZA:
                    if a:
                        a -= 1
                        pc += 1
                    else:
                        pc = target
                elif b:
                    b -= 1
                    pc += 1
                else:
                    pc = target
            elif op >= _INCA:
                if op == _INCA:
                    a += 1
                else:
                    b += 1
                pc = target
            elif op >= _EMIT0:
                emit(48 if op == _EMIT0 else 49)  # b"0" / b"1"
                pc = target
                if len(out) >= want_bits:
                    return False, out.decode(), steps, (pc, a, b), 0
            else:  # HALT costs its step; fall-off was the previous step
                return True, out.decode(), steps if op == _HALT else steps - 1, (pc, a, b), 0
            if pc == sp and a == sa and b == sb:
                return False, out.decode(), steps, (pc, a, b), steps - saved
        if steps == budget:
            return code[pc][0] == _FALL, out.decode(), steps, (pc, a, b), 0
        sp, sa, sb, saved = pc, a, b, steps
        end = 2 * steps


def _advance(
    code: list[tuple[int, int]], state: tuple[int, int, int], steps: int
) -> tuple[int, int, int]:
    """The state `steps` steps after `state`, for a machine that never halts."""
    return _run_machine(code, steps, state, window=None)[3]


def _cycle_entry(code: list[tuple[int, int]], period: int) -> tuple[int, tuple[int, int, int]]:
    """(μ, x_μ): the first step whose state recurs `period` steps later, by
    Brent's second phase: x from x_0 and y from x_λ move in lockstep until
    they agree, after μ steps each. They move by a stride that doubles while
    the moved pair still differs and halves once it would agree, down to 1:
    O(log μ) `_advance` calls, O(μ) steps."""
    mu, x, y, stride = 0, _START, _advance(code, _START, period), 1
    while x != y:
        nx, ny = _advance(code, x, stride), _advance(code, y, stride)
        if nx == ny and stride > 1:
            stride //= 2  # past x_μ: the pair stays, the stride shrinks
        else:
            mu, x, y, stride = mu + stride, nx, ny, 2 * stride
    return mu, x


def run(bits: str, budget: int) -> Halted | Running:
    """Decode and run: Halted(output, steps) or Running(budget).

    Counters start at zero, output empty. Executing an instruction costs
    one step; halting by falling off the end costs none, so the empty
    program halts in zero steps at any budget. Running(budget) means the
    program did not halt within the budget: either the budget ran out, or
    a control state (pc, A, B) came back, which proves it never halts, and
    the run stopped there.
    """
    halted, out, steps, _, _ = _run_machine(_compile(decode(bits)), budget)
    return Halted(out, steps) if halted else Running(budget)


def stream_output(bits: str, budget: int, want_bits: int) -> str:
    """Decode and run ignoring halting status; the first `want_bits` bits.

    The result is shorter than `want_bits` when the program halts or the
    budget runs out first. A loop does not stop it: the output goes on.
    """
    out = _run_machine(_compile(decode(bits)), budget, want_bits=want_bits, window=None)[1]
    return out[:want_bits]


def classify(bits: str, budget: int) -> Halted | LoopCert | Running:
    """Halted as `run` says, else the first state revisit within `budget`
    steps as a LoopCert, else Running(budget).

    Output emission does not touch the control state (pc, A, B), so a
    revisit makes the deterministic machine repeat forever: a sound
    non-halting certificate. The states x_0, x_1, ... first repeat at step
    μ + λ, where x_μ is the first state on the cycle and λ its length; the
    certificate is (μ + λ, x_μ). No visited states are kept, in two steps:
    - The λ found is exact: Brent's cycle finding compares each state with
      one saved state, and its first match is that state's first recurrence.
      If the budget runs out first and μ + λ <= budget, x_budget is on the
      cycle and recurs λ steps later, so one more pass of `budget` steps,
      compared with x_budget, finds λ whenever a certificate is due.
    - x_i = x_{i+λ} holds from i = μ on and never before, so the strides
      of `_cycle_entry`'s lockstep close in on μ and hold O(1) states.
    """
    code = _compile(decode(bits))
    halted, out, steps, state, period = _run_machine(code, budget)
    if halted:
        return Halted(out, steps)
    if not period:
        period = _run_machine(code, budget, state, window=budget)[4]
    if period:
        mu, at_mu = _cycle_entry(code, period)
        if mu + period <= budget:
            return LoopCert(bits, mu + period, at_mu)
    return Running(budget)


def _length_lex(s: str) -> tuple[int, str]:
    """The sort key of length-lexicographic order: shorter first, then by bits."""
    return len(s), s


def programs(length: int) -> Iterator[str]:
    """Every valid program of exactly `length` bits, in lexicographic order.

    Built from the grammar, not by decoding all 2^length strings. Headers
    and codewords are each prefix-free codes, so trying the choices at each
    position in lexicographic order yields the programs in that order.
    """
    words = [op.value for op in Op if op not in _JUMPS]
    z = 1
    while len(Op.DJZA.value + gamma_encode(z)) <= length:
        words.extend(op.value + gamma_encode(z) for op in _JUMPS)
        z += 1
    words.sort()
    fits = [[w for w in words if len(w) <= room] for room in range(length + 1)]
    for header in sorted(gamma_encode(m) for m in range(1, length // 2 + 2)):
        yield from _bodies(fits, header, int(header, 2) - 1, length - len(header))


def _bodies(fits: list[list[str]], prefix: str, count: int, room: int) -> Iterator[str]:
    """`prefix` and then `count` more codewords in exactly `room` bits, each
    taking >= 2, in lexicographic order; `fits[r]` lists the codewords of at
    most r bits. A function of its own, not a closure over `fits`: a nested
    one that calls itself is a reference cycle, which would keep `fits`
    until the garbage collector runs."""
    if count == 0:
        if room == 0:
            yield prefix
    elif room >= 2 * count:
        for w in fits[room - 2 * (count - 1)]:
            yield from _bodies(fits, prefix + w, count - 1, room - len(w))


def literal_program(s: str) -> str:
    """The program that prints `s` verbatim, one EMIT per fact bit.

    Always valid, always halts (by fall-off, within len(s) steps), costs
    two bits per output bit plus the logarithmic header: the baseline any
    genuine compression has to beat.
    """
    if not _is_bits(s):
        raise ValueError("facts must be '0'/'1' characters")
    body = s.translate({ord("0"): Op.EMIT0.value, ord("1"): Op.EMIT1.value})
    return gamma_encode(len(s) + 1) + body
