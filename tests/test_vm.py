import copy
import pickle
import random
import tracemalloc

import pytest

from omegalab.vm import (
    Halted,
    Instruction,
    InvalidProgram,
    InvalidReason,
    LoopCert,
    Op,
    Running,
    _is_bits,
    assemble,
    classify,
    decode,
    gamma_encode,
    literal_program,
    programs,
    run,
    stream_output,
)

from naive_vm import chew_gamma, naive_decode, naive_loop, naive_reason, naive_run


def all_strings(max_len):
    for length in range(1, max_len + 1):
        for i in range(2**length):
            yield format(i, f"0{length}b")


def valid_programs(max_len):
    for bits in all_strings(max_len):
        try:
            yield decode(bits)
        except InvalidProgram:
            continue


def random_programs(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        instructions = [
            Instruction(op, rng.randrange(-9, 10) if op in (Op.DJZA, Op.DJZB) else None)
            for op in rng.choices(list(Op), k=rng.randrange(0, 9))
        ]
        yield assemble(instructions).bits


# --- gamma code ---------------------------------------------------------


def test_gamma_encode_base_cases():
    assert gamma_encode(1) == "1"
    assert gamma_encode(2) == "010"
    assert gamma_encode(4) == "00100"


def test_gamma_round_trip_exhaustive():
    for m in range(1, 4097):
        bits = gamma_encode(m)
        assert chew_gamma(bits) == (m, "")
        # a gamma code is self-delimiting: trailing bits are left over
        assert chew_gamma(bits + "101") == (m, "101")
    # and through decode, as a jump's zigzag-coded offset
    for offset in range(-300, 301):
        (jump,) = decode(assemble([Instruction(Op.DJZB, offset)]).bits).instructions
        assert jump.offset == offset


def test_gamma_encode_rejects_nonpositive():
    with pytest.raises(ValueError):
        gamma_encode(0)


def test_decode_malformed_gamma_codes():
    # headers whose gamma code never completes, then a jump offset that does not
    for bad in ("", "0", "00", "01", "0001", "010111100", "0101111001"):
        with pytest.raises(InvalidProgram) as err:
            decode(bad)
        assert err.value.reason is InvalidReason.MALFORMED_GAMMA, bad


# --- decode -------------------------------------------------------------


def test_decode_empty_program():
    program = decode("1")
    assert program.instructions == ()
    assert program.bits == "1"


def test_decode_single_emit():
    program = decode("01001")
    assert [ins.op for ins in program.instructions] == [Op.EMIT0]


def test_decode_leftover():
    # header "1" says zero instructions, one bit remains
    with pytest.raises(InvalidProgram) as err:
        decode("10")
    assert err.value.reason is InvalidReason.LEFTOVER


def test_decode_truncated_opcode():
    with pytest.raises(InvalidProgram) as err:
        decode("01011")  # header n=1, then "11" is an unfinished long opcode
    assert err.value.reason is InvalidReason.TRUNCATED


def test_decode_truncated_missing_instruction():
    with pytest.raises(InvalidProgram) as err:
        decode("00100")  # header says 3 instructions, none follow
    assert err.value.reason is InvalidReason.TRUNCATED


def test_decode_malformed_jump_offset():
    with pytest.raises(InvalidProgram) as err:
        decode("0101111")  # DJZB with no offset code
    assert err.value.reason is InvalidReason.MALFORMED_GAMMA


def test_decode_rejects_non_bit_characters():
    # Digits of other scripts are not bits; nor is a bad character after
    # the point where the bits alone would already fail to decode.
    for bad in ("01x01", " 1", "1\n", "2", "01001 ", "٠١", "1０", "1" + "x" * 5):
        with pytest.raises(ValueError) as err:
            decode(bad)
        # InvalidProgram is a ValueError too; a non-bit string is not a verdict
        assert not isinstance(err.value, InvalidProgram), repr(bad)


def test_is_bits():
    for s in ("", "0", "1", "0110"):
        assert _is_bits(s), repr(s)
    for s in ("2", " 1", "٠", "01x", "1０"):
        assert not _is_bits(s), repr(s)


def test_decode_empty_string_is_malformed_gamma():
    with pytest.raises(InvalidProgram) as err:
        decode("")
    assert err.value.reason is InvalidReason.MALFORMED_GAMMA


def test_invalid_program_message_is_the_reason_text():
    for reason in InvalidReason:
        assert str(InvalidProgram(reason)) == reason.value


def test_invalid_program_survives_pickle_and_copy():
    # Pickle and copy rebuild an exception from its args alone; InvalidProgram
    # has no __init__ and keeps its reason there, so the member comes back.
    for reason in InvalidReason:
        error = InvalidProgram(reason)
        for clone in (pickle.loads(pickle.dumps(error)), copy.copy(error), copy.deepcopy(error)):
            assert clone.reason is reason
            assert str(clone) == reason.value
            assert isinstance(clone, ValueError)


def as_naive(ins):
    """An Instruction in naive_decode's tuple form."""
    if ins.op is Op.HALT:
        return ("halt",)
    if ins.op in (Op.EMIT0, Op.EMIT1):
        return ("emit", "0" if ins.op is Op.EMIT0 else "1")
    if ins.op in (Op.INCA, Op.INCB):
        return ("inc", "a" if ins.op is Op.INCA else "b")
    return ("djz", "a" if ins.op is Op.DJZA else "b", ins.offset)


def test_decode_matches_naive_oracle_exhaustively():
    for bits in all_strings(14):
        theirs = naive_decode(bits)
        try:
            ours = decode(bits)
        except InvalidProgram as err:
            assert theirs is None, bits
            assert err.reason.value == naive_reason(bits), bits
            continue
        assert theirs is not None, bits
        assert naive_reason(bits) is None, bits
        assert [as_naive(ins) for ins in ours.instructions] == theirs, bits
        assert ours.bits == bits


def test_decode_matches_naive_oracle_on_mutated_long_programs():
    # Programs past the exhaustive sweep, then one bit flipped, bits cut off
    # or bits appended: near-misses reach every reason deep in the string.
    rng = random.Random(20020611)
    for _ in range(3000):
        instructions = [
            Instruction(op, rng.randrange(-9, 10) if op in (Op.DJZA, Op.DJZB) else None)
            for op in rng.choices(list(Op), k=rng.randrange(0, 9))
        ]
        bits = assemble(instructions).bits
        cut = rng.randrange(len(bits))
        bits = rng.choice(
            [
                bits,
                bits[:cut] + "10"[int(bits[cut])] + bits[cut + 1 :],
                bits[:cut],
                bits + "".join(rng.choice("01") for _ in range(rng.randrange(1, 6))),
            ]
        )
        try:
            ours = [as_naive(ins) for ins in decode(bits).instructions]
        except InvalidProgram as err:
            assert err.reason.value == naive_reason(bits), bits
            continue
        assert ours == naive_decode(bits), bits


def test_decode_matches_naive_oracle_at_census_lengths():
    # Random 15- to 24-bit strings, past the exhaustive sweep. A quarter
    # start with the header 1 and a quarter end one bit into a codeword, so
    # both of decode's early exits are met at the lengths a census scans.
    rng = random.Random(19)

    def codeword():  # one instruction's bits, cut loose from the header "010"
        op = rng.choice(list(Op))
        offset = rng.randrange(-9, 10) if op in (Op.DJZA, Op.DJZB) else None
        return assemble((Instruction(op, offset),)).bits[3:]

    for i in range(20000):
        length = rng.randrange(15, 25)
        if i % 4 == 0:
            bits = "1" + format(rng.getrandbits(length - 1), f"0{length - 1}b")
        elif i % 4 == 1:
            bits = ""
            while len(bits) < 15:
                bits = gamma_encode(length + 1)  # counts more codewords than can follow
                word = codeword()
                while len(bits) + len(word) < length:
                    bits += word
                    word = codeword()
                bits += word[0]
        else:
            bits = format(rng.getrandbits(length), f"0{length}b")
        try:
            ours = [as_naive(ins) for ins in decode(bits).instructions]
        except InvalidProgram as err:
            assert err.reason.value == naive_reason(bits), bits
            assert i % 4 != 1 or err.reason is InvalidReason.TRUNCATED, bits
            continue
        assert i % 4 > 1, bits
        assert ours == naive_decode(bits), bits


def test_programs_match_the_brute_force_filter():
    for length in range(17):
        strings = (format(i, f"0{length}b") for i in range(2**length)) if length else [""]
        want = [bits for bits in strings if naive_decode(bits) is not None]
        assert list(programs(length)) == want, length


def test_valid_set_of_short_strings():
    valid = {p.bits for p in valid_programs(5)}
    assert valid == {"1", "01000", "01001", "01010"}


def test_decode_encode_consistency_exhaustive():
    for program in valid_programs(12):
        assert assemble(program.instructions).bits == program.bits


def test_assemble_round_trip():
    program = assemble(
        [Instruction(Op.EMIT1), Instruction(Op.INCA), Instruction(Op.DJZA, -2)]
    )
    assert decode(program.bits) == program
    rng = random.Random(1616)
    for _ in range(200):
        ops = rng.choices(list(Op), k=rng.randrange(8))
        instructions = [
            Instruction(op, rng.randrange(-40, 41) if op in (Op.DJZA, Op.DJZB) else None)
            for op in ops
        ]
        assert decode(assemble(instructions).bits) == assemble(instructions)


def test_instruction_offset_validation():
    with pytest.raises(ValueError, match="^HALT takes an offset iff it is a jump$"):
        Instruction(Op.HALT, 3)
    with pytest.raises(ValueError, match="^DJZA takes an offset iff it is a jump$"):
        Instruction(Op.DJZA)


@pytest.mark.parametrize("op", list(Op), ids=lambda op: op.name)
def test_each_op_value_is_its_opcode(op):
    if op in (Op.DJZA, Op.DJZB):  # offset 0 is gamma_encode(zigzag(0) + 1)
        assert decode(gamma_encode(2) + op.value + gamma_encode(1)).instructions == (
            Instruction(op, 0),
        )
    else:
        assert decode(gamma_encode(2) + op.value).instructions == (Instruction(op),)


def test_prefix_freeness_small():
    valid = {p.bits for p in valid_programs(10)}
    for bits in valid:
        for cut in range(1, len(bits)):
            assert bits[:cut] not in valid


# --- run ----------------------------------------------------------------


def test_run_empty_program_halts_immediately():
    assert run("1", 10) == Halted("", 0)
    assert run("1", 0) == Halted("", 0)  # fall-off costs no step


def test_run_single_emit():
    assert run("01001", 10) == Halted("0", 1)
    assert run("01010", 10) == Halted("1", 1)


def test_run_halt_instruction_costs_a_step():
    assert run("01000", 10) == Halted("", 1)
    assert run("01000", 0) == Running(0)


def test_run_self_loop_never_halts():
    for budget in (0, 1, 10, 1000):
        assert run("0101110010", budget) == Running(budget)


def test_run_jump_target_clamping():
    # forward jump past the end halts
    forward = assemble([Instruction(Op.DJZA, 5)])
    assert run(forward.bits, 10) == Halted("", 1)
    # backward jump before the start halts too
    backward = assemble([Instruction(Op.DJZB, -7)])
    assert run(backward.bits, 10) == Halted("", 1)


def test_run_djz_decrements_when_nonzero():
    program = assemble([Instruction(Op.INCA), Instruction(Op.DJZA, -2)])
    # INCA then DJZA sees A=1: decrement and fall through, no jump
    assert run(program.bits, 10) == Halted("", 2)


def assert_run_matches_oracle(bits, budget):
    ours, theirs = run(bits, budget), naive_run(bits, budget)
    if isinstance(ours, Halted):
        assert theirs == ("halted", ours.output, ours.steps), (bits, budget)
    else:
        assert ours == Running(budget) and theirs == ("running",), (bits, budget)


def test_run_matches_naive_oracle():
    for bits in all_strings(10):
        for budget in (0, 3, 50):
            if naive_decode(bits) is None:
                with pytest.raises(InvalidProgram):
                    run(bits, budget)
            else:
                assert_run_matches_oracle(bits, budget)
    # a looping program stops early at a revisit: the answer is the same
    for bits in (bits for length in range(15) for bits in programs(length)):
        for budget in (0, 1, 50, 5000):
            assert_run_matches_oracle(bits, budget)
    for bits in random_programs(20050503, 2000):
        assert_run_matches_oracle(bits, 5000)


def test_run_determinism_and_budget_monotonicity():
    for program in valid_programs(10):
        small = run(program.bits, 7)
        assert run(program.bits, 7) == small
        big = run(program.bits, 200)
        if isinstance(small, Halted):
            assert big == small
        elif isinstance(big, Halted):
            assert big.steps > 7


# --- literal programs ---------------------------------------------------


def test_literal_program_examples():
    assert literal_program("") == "1"
    assert literal_program("0") == "01001"
    assert literal_program("01") == "0110110"
    assert len(literal_program("01")) == 7


def test_literal_program_always_replays_its_facts():
    rng = random.Random(7)
    for _ in range(200):
        s = "".join(rng.choice("01") for _ in range(rng.randrange(0, 40)))
        bits = literal_program(s)
        outcome = run(bits, len(s) + 1)
        assert outcome == Halted(s, len(s))
        assert outcome.steps <= len(s) + 1


def test_literal_program_rejects_non_bits():
    with pytest.raises(ValueError):
        literal_program("012")


# --- loop certificates ---------------------------------------------------


def test_detect_loop_self_loop():
    assert classify("0101110010", 100) == LoopCert("0101110010", 1, (0, 0, 0))


def test_detect_loop_halting_program():
    assert classify("01001", 100) == Halted("0", 1)


def test_detect_loop_zero_budget():
    assert classify("0101110010", 0) == Running(0)


def test_loop_certificates_are_sound():
    # every certificate issued over short programs marks a true non-halter
    for program in valid_programs(12):
        if isinstance(classify(program.bits, 50), LoopCert):
            assert naive_run(program.bits, 5000) == ("running",)


def test_counter_growth_defeats_loop_detection():
    # INCA; DJZB(-2) cycles through pc 0 forever while A grows, so no
    # control state ever repeats: correctly no certificate at any budget
    runner = assemble([Instruction(Op.INCA), Instruction(Op.DJZB, -2)])
    assert runner.bits == "0111100111100100"
    assert classify(runner.bits, 2000) == Running(2000)
    assert run(runner.bits, 2000) == Running(2000)


# --- classify: one simulation -----------------------------------------------


def reference_classify(bits, budget):
    """What classify must say, from the oracle: its run, then its loop search."""
    result = naive_run(bits, budget)
    if result[0] == "halted":
        return Halted(result[1], result[2])
    loop = naive_loop(bits, budget)
    return Running(budget) if loop is None else LoopCert(bits, *loop)


def test_classify_matches_oracle_exhaustively():
    for bits in (bits for length in range(17) for bits in programs(length)):
        for budget in (0, 1, 2, 5, 50):
            assert classify(bits, budget) == reference_classify(bits, budget), (bits, budget)


def test_classify_matches_oracle_on_random_programs():
    for bits in random_programs(20050503, 2000):
        assert classify(bits, 500) == reference_classify(bits, 500), bits


def counter_round_trip(m, k):
    """INCA m + k times, then a cycle: drain A two steps per unit, with
    B = 0 making DJZB an unconditional jump, then k INCAs again. The first
    state on the cycle comes at mu = 3m + k (m >= 1); the cycle is
    3k + 2 steps long."""
    return assemble(
        [Instruction(Op.INCA)] * (m + k)
        + [Instruction(Op.DJZA, 1), Instruction(Op.DJZB, -2), Instruction(Op.DJZB, -(k + 3))]
    ).bits


def test_classify_certifies_at_exactly_the_first_revisit():
    # Brent's cycle finding sees a revisit up to ~3 max(mu, lambda) steps
    # late, so the budgets between the first revisit and that point are
    # where an O(1)-memory classify can go wrong. The round trips with m in
    # the thousands step the cycle entry search over thousands of states.
    looping = [
        (bits, naive_loop(bits, 500))
        for bits in [
            *(bits for length in range(15) for bits in programs(length)),
            *random_programs(19800701, 5000),
        ]
    ]
    looping = [(bits, loop) for bits, loop in looping if loop is not None]
    assert len(looping) > 200
    for m in (1, 2, 5, 1000, 2000):
        for k in (0, 1, 3, 8, 20):
            bits = counter_round_trip(m, k)
            loop = naive_loop(bits, 10_000)
            assert loop[0] == 3 * m + 4 * k + 2
            looping.append((bits, loop))
    for bits, (revisit, state) in looping:
        assert classify(bits, revisit) == LoopCert(bits, revisit, state), bits
        assert classify(bits, revisit - 1) == Running(revisit - 1), bits
        for budget in (0, 1, 2, 3, 5, 8, 50, 500):
            assert classify(bits, budget) == reference_classify(bits, budget), (bits, budget)


def test_classify_halts_by_fall_off_at_exactly_the_budget():
    # three EMITs fall off the end after three steps: halted at budget 3
    bits = literal_program("010")
    assert classify(bits, 3) == Halted("010", 3)
    assert classify(bits, 2) == Running(2)


def test_classify_leaves_counter_growth_running():
    runner = assemble([Instruction(Op.INCA), Instruction(Op.DJZB, -2)])
    assert classify(runner.bits, 2000) == Running(2000)


def test_classify_memory_does_not_grow_with_the_budget():
    # no set of visited states: counter growth runs the whole budget (and
    # the as long again check that no revisit is due) in O(1) states, and
    # the round trip's cycle entry search holds two states over mu = 6008
    runner = assemble([Instruction(Op.INCA), Instruction(Op.DJZB, -2)])
    round_trip = counter_round_trip(2000, 8)
    revisit, state = naive_loop(round_trip, 10_000)
    for bits, expected in [
        (runner.bits, Running(200_000)),
        (round_trip, LoopCert(round_trip, revisit, state)),
    ]:
        tracemalloc.start()
        try:
            assert classify(bits, 200_000) == expected
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, bits


def test_every_simulation_rejects_a_negative_budget():
    for simulate in (run, classify):
        with pytest.raises(ValueError, match="budget"):
            simulate("0101110010", -1)
    with pytest.raises(ValueError, match="budget"):
        stream_output("0101110010", -1, 1)
