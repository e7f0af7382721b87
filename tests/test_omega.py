import random
from fractions import Fraction

import pytest

from omegalab.enumerator import EnumState, enumerate_programs
from omegalab.omega import OmegaBound, binary_expansion, format_report, from_state
from omegalab.vm import InvalidProgram, InvalidReason, decode, programs

from naive_vm import naive_census, naive_omega


def test_from_state_values():
    assert from_state(enumerate_programs(5, 100)).value == Fraction(19, 32)
    assert from_state(enumerate_programs(1, 100)).value == Fraction(1, 2)
    assert from_state(enumerate_programs(0, 100)).value == 0


def test_from_state_records_provenance():
    bound = from_state(enumerate_programs(5, 100))
    assert bound.source == (5, 100)


def naive_bound(state):
    """The census summed record by record by the independent oracle."""
    num, den = naive_omega([rec.program for rec in state.records], state.max_len_done)
    return OmegaBound(Fraction(num, den), (state.max_len_done, state.budget))


def test_from_state_equals_the_record_fold():
    state = enumerate_programs(10, 100)
    assert from_state(state) == naive_bound(state)
    records = sorted(state.records, key=lambda r: r.program)
    rng = random.Random(2002)
    for _ in range(30):
        subset = rng.sample(records, rng.randrange(len(records) + 1))
        subset.sort(key=lambda r: (len(r.program), r.program))
        sub = EnumState(10, 100, tuple(subset), ())
        assert from_state(sub) == naive_bound(sub)


def test_binary_expansion():
    bound = from_state(enumerate_programs(5, 100))
    assert binary_expansion(bound, 5) == "10011"
    assert binary_expansion(from_state(enumerate_programs(1, 100)), 5) == "10000"
    assert binary_expansion(OmegaBound(Fraction(0), (0, 0)), 3) == "000"
    with pytest.raises(ValueError, match="digit count must be >= 0"):
        binary_expansion(bound, -1)


def test_binary_expansion_reconstructs_value():
    bound = from_state(enumerate_programs(10, 500))
    k = bound.value.denominator.bit_length()  # enough digits for a dyadic
    bits = binary_expansion(bound, k)
    assert sum(Fraction(int(b), 2 ** (i + 1)) for i, b in enumerate(bits)) == bound.value


def test_value_is_reduced_dyadic():
    for max_len in range(0, 11):
        value = from_state(enumerate_programs(max_len, 100)).value
        assert value.denominator & (value.denominator - 1) == 0  # power of two
        # Fraction keeps gcd(p, q) == 1 by construction; check anyway
        import math

        assert math.gcd(value.numerator, value.denominator) == 1


def test_lower_bound_monotonicity_small_lattice():
    budgets = (10, 100)
    for budget in budgets:
        previous = Fraction(0)
        for max_len in range(1, 11):
            value = from_state(enumerate_programs(max_len, budget)).value
            assert value >= previous
            previous = value
    for max_len in range(1, 11):
        small = from_state(enumerate_programs(max_len, budgets[0])).value
        large = from_state(enumerate_programs(max_len, budgets[1])).value
        assert large >= small


def test_value_always_below_one():
    for max_len in (0, 5, 10, 12):
        assert from_state(enumerate_programs(max_len, 100)).value < 1


def test_matches_naive_mass():
    state = enumerate_programs(10, 1000)
    halted, _ = naive_census(10, 1000)
    num, den = naive_omega(halted.keys(), 10)
    assert from_state(state).value == Fraction(num, den)


@pytest.mark.parametrize("length", range(1, 17))
def test_the_code_is_complete(length):
    """No L-bit string is a dead end: each one extends a program of at most
    L bits (valid, or Leftover past a valid proper prefix), or runs out of
    bits mid-decode (Truncated or MalformedGamma) and so may still become
    one. The programs up to L bits and the strings still open at L share
    the unit mass exactly, so a set of programs proved never to halt
    bounds Omega from above."""
    shorter = {p for n in range(length) for p in programs(n)}
    mass = sum((Fraction(len(list(programs(n))), 2**n) for n in range(length + 1)), Fraction(0))
    leftover, prefixed, still_open = set(), set(), 0
    for i in range(2**length):
        bits = format(i, f"0{length}b")
        if any(bits[:cut] in shorter for cut in range(1, length)):
            prefixed.add(bits)
        try:
            decode(bits)
        except InvalidProgram as e:
            if e.reason is InvalidReason.LEFTOVER:
                leftover.add(bits)
            else:
                still_open += 1
    assert leftover == prefixed
    assert mass + Fraction(still_open, 2**length) == 1


def test_report_format():
    state = enumerate_programs(5, 100)
    line = format_report(from_state(state), len(state.records), len(state.pending), 5)
    assert line == (
        "OMEGA >= 19/32 = 0.10011... "
        "(census: len<=5, budget 100, 4 halting, 0 pending) "
        "[lower bound only; bits not settled]"
    )
