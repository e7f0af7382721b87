"""Independent naive reimplementation of the machine, used only as a test
oracle. Written against the normative encoding/execution rules from
scratch: string chewing instead of position tracking, tuples instead of
dataclasses, so a shared bug with the real implementation is unlikely.
"""


def chew_gamma(s):
    """Read one gamma code off the front; (value, rest) or None."""
    zeros = 0
    while zeros < len(s) and s[zeros] == "0":
        zeros += 1
    if zeros == len(s) or len(s) < 2 * zeros + 1:
        return None
    return int(s[zeros : 2 * zeros + 1], 2), s[2 * zeros + 1 :]


def naive_decode(s):
    """Instruction tuples, or None when `s` is not a valid program."""
    got = chew_gamma(s)
    if got is None:
        return None
    header, rest = got
    prog = []
    for _ in range(header - 1):
        if rest.startswith("00"):
            prog.append(("halt",))
            rest = rest[2:]
        elif rest.startswith("01"):
            prog.append(("emit", "0"))
            rest = rest[2:]
        elif rest.startswith("10"):
            prog.append(("emit", "1"))
            rest = rest[2:]
        elif rest.startswith("1100"):
            prog.append(("inc", "a"))
            rest = rest[4:]
        elif rest.startswith("1101"):
            prog.append(("inc", "b"))
            rest = rest[4:]
        elif rest.startswith("1110") or rest.startswith("1111"):
            reg = "a" if rest[3] == "0" else "b"
            got = chew_gamma(rest[4:])
            if got is None:
                return None
            z, rest = got[0] - 1, got[1]
            delta = z // 2 if z % 2 == 0 else -((z + 1) // 2)
            prog.append(("djz", reg, delta))
        else:
            return None
    if rest:
        return None
    return prog


def naive_reason(s):
    """Why `s` is not a program, as the reason's text, or None when valid.

    Reasons come in the order a left-to-right reader meets them: the header
    or a jump offset cannot be completed ("MalformedGamma"), the bits run
    out before an instruction's opcode does ("Truncated"), or bits remain
    after the last counted instruction ("Leftover").
    """
    got = chew_gamma(s)
    if got is None:
        return "MalformedGamma"
    header, rest = got
    for _ in range(header - 1):
        if len(rest) < 2 or (rest[:2] == "11" and len(rest) < 4):
            return "Truncated"
        if rest[:3] == "111":
            got = chew_gamma(rest[4:])
            if got is None:
                return "MalformedGamma"
            rest = got[1]
        elif rest[:2] == "11":
            rest = rest[4:]
        else:
            rest = rest[2:]
    return "Leftover" if rest else None


def naive_run(s, budget):
    """("halted", output, steps) or ("running",) or None for invalid."""
    prog = naive_decode(s)
    if prog is None:
        return None
    counters = {"a": 0, "b": 0}
    pc, out, t = 0, "", 0
    while 0 <= pc < len(prog):
        if t == budget:
            return ("running",)
        ins = prog[pc]
        t += 1
        if ins[0] == "halt":
            return ("halted", out, t)
        if ins[0] == "emit":
            out += ins[1]
            pc += 1
        elif ins[0] == "inc":
            counters[ins[1]] += 1
            pc += 1
        else:
            reg, delta = ins[1], ins[2]
            if counters[reg] == 0:
                pc = pc + 1 + delta
                if pc < 0 or pc > len(prog):
                    pc = len(prog)
            else:
                counters[reg] -= 1
                pc += 1
    return ("halted", out, t)


def naive_loop(s, budget):
    """The first repeated control state within `budget` steps, as
    (step, (pc, a, b)), or None when `s` halts or no state repeats in time."""
    prog = naive_decode(s)
    pc, a, b = 0, 0, 0
    visited = {(pc, a, b)}
    for t in range(1, budget + 1):
        if not 0 <= pc < len(prog) or prog[pc][0] == "halt":
            return None
        ins = prog[pc]
        if ins[0] == "emit":
            pc += 1
        elif ins[0] == "inc":
            a, b = (a + 1, b) if ins[1] == "a" else (a, b + 1)
            pc += 1
        else:
            counter = a if ins[1] == "a" else b
            if counter == 0:
                pc = pc + 1 + ins[2]
                if pc < 0 or pc > len(prog):
                    pc = len(prog)
            else:
                a, b = (a - 1, b) if ins[1] == "a" else (a, b - 1)
                pc += 1
        if (pc, a, b) in visited:
            return t, (pc, a, b)
        visited.add((pc, a, b))
    return None


def all_strings_upto(max_len):
    for length in range(1, max_len + 1):
        for i in range(2**length):
            yield bin(i)[2:].zfill(length)


def naive_census(max_len, budget):
    """(halting dict program -> (output, steps), pending set)."""
    halted = {}
    pending = set()
    for s in all_strings_upto(max_len):
        result = naive_run(s, budget)
        if result is None:
            continue
        if result[0] == "halted":
            halted[s] = (result[1], result[2])
        else:
            pending.add(s)
    return halted, pending


def naive_omega(halted_programs, max_len):
    """Exact halting mass as an integer pair num/2^max_len, unreduced."""
    num = 0
    for p in halted_programs:
        num += 2 ** (max_len - len(p))
    return num, 2**max_len
