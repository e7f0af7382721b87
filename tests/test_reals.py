import random
from bisect import bisect_left
from fractions import Fraction
from itertools import islice, product

import pytest

from omegalab import reals
from omegalab.reals import (
    BOREL_ALPHABET,
    CoverInterval,
    DigitStream,
    borel_cover,
    borel_digits,
    borel_strings,
    classify_text,
    diagonal,
    digit_at,
)
from omegalab.vm import Instruction, InvalidProgram, Op, assemble


def emitter(bits, forever=False):
    """A stream program emitting `bits` once, or cyclically forever."""
    ops = [Instruction(Op.EMIT0 if b == "0" else Op.EMIT1) for b in bits]
    if forever:
        ops.append(Instruction(Op.DJZB, -len(bits) - 1))
    return DigitStream(assemble(ops).bits)


# --- digit streams ----------------------------------------------------------


def test_first_digit_reads_four_bits_base_two():
    assert digit_at(emitter("0001"), 0, 100) == 1


def test_digits_reduce_mod_ten():
    assert digit_at(emitter("1111"), 0, 100) == 5  # 15 mod 10


def test_halting_stream_has_no_digits():
    assert digit_at(DigitStream("1"), 0, 100) is None


def test_stalled_stream_resolves_with_budget():
    stream = emitter("0000")
    assert digit_at(stream, 0, 3) is None
    assert digit_at(stream, 0, 4) == 0


def test_later_digits_use_later_bit_groups():
    stream = emitter("00010010", forever=False)
    assert digit_at(stream, 0, 100) == 1
    assert digit_at(stream, 1, 100) == 2
    assert digit_at(stream, 2, 100) is None  # only eight bits ever emitted


def test_streams_reject_invalid_programs():
    with pytest.raises(InvalidProgram):
        DigitStream("10")


def test_digit_index_must_be_nonnegative():
    with pytest.raises(ValueError):
        digit_at(emitter("0000"), -1, 10)


# --- the diagonal -------------------------------------------------------------


def test_diagonal_flips_fives_to_sixes():
    streams = [emitter("0101", forever=True) for _ in range(8)]  # every digit 5
    diag = diagonal(streams, 8, 1000)
    assert diag.digits == (6,) * 8
    assert diag.verified == (True,) * 8


def test_diagonal_defaults_to_five():
    streams = [emitter("0000", forever=True) for _ in range(8)]  # never 5
    diag = diagonal(streams, 8, 1000)
    assert diag.digits == (5,) * 8
    assert diag.verified == (True,) * 8


def test_diagonal_marks_unknown_digits_unverified():
    streams = [DigitStream("1") for _ in range(4)]  # halts, no digits
    diag = diagonal(streams, 4, 100)
    assert diag.digits == (5,) * 4
    assert diag.verified == (False,) * 4


def test_diagonal_needs_enough_streams():
    with pytest.raises(ValueError):
        diagonal([emitter("0101")], 2, 10)


def test_diagonal_differs_from_every_verified_source_digit():
    rng = random.Random(23)
    ops = [Op.EMIT0, Op.EMIT1, Op.INCA, Op.INCB]
    for _ in range(25):
        streams = []
        for _ in range(10):
            body = [Instruction(rng.choice(ops)) for _ in range(rng.randrange(1, 7))]
            if rng.random() < 0.5:
                body.append(Instruction(Op.DJZB, -len(body) - 1))  # cycle forever
            streams.append(DigitStream(assemble(body).bits))
        diag = diagonal(streams, 10, 300)
        for n in range(10):
            assert diag.digits[n] in (5, 6)
            source = digit_at(streams[n], n, 300)
            if diag.verified[n]:
                assert source is not None
                assert diag.digits[n] != source
            else:
                assert source is None


# --- covers -------------------------------------------------------------------


def test_cover_of_three_points():
    report = borel_cover([Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)], Fraction(1, 4))
    assert report.total_length == Fraction(7, 32)
    assert [iv.width for iv in report.intervals] == [
        Fraction(1, 8),
        Fraction(1, 16),
        Fraction(1, 32),
    ]


def test_cover_contains_each_point():
    points = [Fraction(i, 7) for i in range(8)]
    report = borel_cover(points, Fraction(1, 3))
    for point, interval in zip(points, report.intervals):
        assert interval.center - interval.halfwidth <= point <= interval.center + interval.halfwidth


def test_cover_of_no_points():
    report = borel_cover([], Fraction(1, 2))
    assert report.total_length == 0
    assert report.intervals == ()


def test_cover_total_follows_geometric_sum():
    for count in (1, 10, 64):
        points = [Fraction(i, count + 1) for i in range(1, count + 1)]
        report = borel_cover(points, Fraction(1, 3))
        assert report.total_length == Fraction(1, 3) * (1 - Fraction(1, 2**count))
        assert report.total_length < report.epsilon


def test_cover_rejects_points_outside_unit_interval():
    with pytest.raises(ValueError):
        borel_cover([Fraction(3, 2)], Fraction(1, 2))
    with pytest.raises(ValueError):
        borel_cover([Fraction(-1, 2)], Fraction(1, 2))


def test_cover_rejects_nonpositive_epsilon():
    with pytest.raises(ValueError):
        borel_cover([Fraction(1, 2)], Fraction(0))


def test_cover_interval_width_is_twice_halfwidth():
    interval = CoverInterval(3, Fraction(1, 2), Fraction(1, 16))
    assert interval.width == Fraction(1, 8)


# --- the question language -----------------------------------------------------


def test_first_strings_follow_alphabet_order():
    strings = list(islice(borel_strings(), 111))  # strings[k - 1] is the kth
    assert strings[:10] == list(BOREL_ALPHABET)
    assert strings[10] == "HH"
    assert strings[11] == "HO"
    assert strings[109] == "ee"
    assert strings[110] == "HHH"


def test_strings_are_length_lex_and_distinct():
    strings = list(islice(borel_strings(), 1000))
    assert len(set(strings)) == 1000
    for earlier, later in zip(strings, strings[1:]):
        key = (len(earlier), [BOREL_ALPHABET.index(c) for c in earlier])
        key_next = (len(later), [BOREL_ALPHABET.index(c) for c in later])
        assert key < key_next


def test_the_halting_question_about_the_empty_program_text():
    # "H(1)?" sits at a computable position: after all strings of length
    # <= 4, at the index spelled by its characters in base 10
    index = 0
    for c in "H(1)?":
        index = index * 10 + BOREL_ALPHABET.index(c)
    k = 10 + 100 + 1000 + 10000 + index + 1
    text = next(islice(borel_strings(), k - 1, None))
    assert text == "H(1)?"
    assert classify_text(text, 100) == 4


def test_classification_examples():
    assert classify_text("H(1)?", 100) == 4  # the empty program halts
    assert classify_text("H(1).", 100) == 1  # a statement, not a question
    assert classify_text("?", 100) == 0  # unparsable
    assert classify_text("O(01001,0)?", 100) == 4
    assert classify_text("O(01001,1)?", 100) == 3
    assert classify_text("O(1,e)?", 100) == 4
    assert classify_text("H(0101110010)?", 100) == 3  # loop certificate
    assert classify_text("O(0101110010,0)?", 100) == 3


def test_questions_about_non_programs_are_answered_no():
    assert classify_text("H(e)?", 100) == 3
    assert classify_text("H(10)?", 100) == 3
    assert classify_text("O(e,1)?", 100) == 3


def test_undecided_within_budget():
    # a counter grows forever: no halt, no revisit, so the question stays
    # open at every budget this side of infinity
    assert classify_text("H(0111100111100100)?", 100) == 2
    assert classify_text("O(0111100111100100,e)?", 100) == 2


def test_garbage_strings():
    for text in ("", "H", "H(", "H(1)", "H(1)?.", "O(1)?", "O(1,)?", "H(1)x", "((", "e?"):
        assert classify_text(text, 10) == 0


def top_level_alternatives(pattern):
    """The branches of a regular expression's outermost "|"."""
    branches, depth, start, i = [], 0, 0, 0
    while i < len(pattern):
        c = pattern[i]
        if c == "\\":
            i += 1  # an escaped character is never a bracket or a bar
        elif c in "([":
            depth += 1
        elif c in ")]":
            depth -= 1
        elif c == "|" and depth == 0:
            branches.append(pattern[start:i])
            start = i + 1
        i += 1
    return branches + [pattern[start:]]


def test_only_strings_starting_h_or_o_paren_can_parse():
    # The Borel report writes digit 0 for a whole group without matching
    # it when the group's strings start with neither "H(" nor "O(".
    branches = top_level_alternatives(reals._QUESTION.pattern)
    assert [branch[:3] for branch in branches] == ["H\\(", "O\\("]
    checked = 0
    for length in range(1, 6):
        for chars in product(BOREL_ALPHABET, repeat=length):
            text = "".join(chars)
            if text[:2] not in ("H(", "O("):
                assert classify_text(text, 10) == 0, text
            checked += 1
    assert checked == 111_110


def test_every_string_gets_exactly_one_digit():
    for text in islice(borel_strings(), 2000):
        assert classify_text(text, 20) in (0, 1, 2, 3, 4)


def test_batch_digits_equal_classify_text():
    texts = ["".join(chars) for n in range(5) for chars in product(BOREL_ALPHABET, repeat=n)]
    assert len(texts) == 11_111  # every string of at most 4 characters
    # Seeded questions and statements about programs that halt with some
    # output, loop, grow a counter forever (undecided) or are not programs.
    growth = assemble([Instruction(Op.INCA), Instruction(Op.DJZB, -2)]).bits
    programs = ["e", "1", "01000", "01001", "01010", "0101110010", growth, "10", "0110"]
    outputs = ["e", "0", "1", "00", "01"]
    rng = random.Random(13)
    for _ in range(2000):
        p, s = rng.choice(programs), rng.choice(outputs)
        texts.append(rng.choice((f"O({p},{s})?", f"O({p},{s}).", f"H({p})?", f"H({p}).")))
    digits = borel_digits(texts, 50)
    assert digits == [classify_text(text, 50) for text in texts]
    assert set(digits[11_111:]) == {1, 2, 3, 4}
    assert borel_digits([], 50) == []


def test_budget_refinement_is_monotone():
    texts = list(islice(borel_strings(), 499))
    texts += ["H(01000)?", "H(0101110010)?", "H(0111100111100100)?", "O(01001,0)?"]
    for text in texts:
        low = classify_text(text, 1)
        high = classify_text(text, 500)
        if low != 2:
            assert high == low
        else:
            assert high in (2, 3, 4)


# --- the question language against its grammar ---------------------------------

ORACLE_LEN = 12


def grammar_strings():
    """Every question and statement whose bit strings are "e" or 1-8 bits,
    kept when at most ORACLE_LEN long. A 9-bit token already makes
    "H(p)?" 13 characters long, so up to ORACLE_LEN this is the whole
    language."""
    tokens = ["e"] + [
        "".join(bits) for n in range(1, 9) for bits in product("01", repeat=n)
    ]
    members = set()
    for end in ".?":
        members.update(f"H({p}){end}" for p in tokens)
        members.update(
            f"O({p},{s}){end}"
            for p in tokens
            for s in tokens
            if len(p) + len(s) <= ORACLE_LEN - len("O(,)?")
        )
    return {text for text in members if len(text) <= ORACLE_LEN}


@pytest.fixture(scope="module")
def language():
    return grammar_strings()


def check_against_grammar(text, language):
    digit = classify_text(text, 20)
    if text not in language:
        assert digit == 0, text
    elif text.endswith("."):
        assert digit == 1, text
    else:
        assert digit in (2, 3, 4), text


def test_every_short_string_is_classified_by_the_grammar(language):
    checked = 0
    for length in range(7):
        for chars in product(BOREL_ALPHABET, repeat=length):
            check_against_grammar("".join(chars), language)
            checked += 1
    assert checked == 1_111_111  # the empty string and 1,111,110 others


def test_near_misses_of_the_grammar(language):
    rng = random.Random(5)
    members = sorted(language)
    checked = 0
    while checked < 20_000:
        text = rng.choice(members)
        pos = rng.randrange(len(text) + 1)
        edit = rng.choice(("insert", "delete", "replace"))
        if edit == "insert":
            text = text[:pos] + rng.choice(BOREL_ALPHABET) + text[pos:]
        elif pos < len(text):
            rest = text[pos + 1 :]
            text = text[:pos] + (rng.choice(BOREL_ALPHABET) if edit == "replace" else "") + rest
        if len(text) <= ORACLE_LEN:
            check_against_grammar(text, language)
            checked += 1


def line_of(text):
    """The report line of a string: R(len) = (10**len - 1) / 9, plus its
    characters' alphabet indices read as a base-10 number."""
    return (10 ** len(text) - 1) // 9 + int("".join(str(BOREL_ALPHABET.index(c)) for c in text))


def test_every_member_up_to_seven_characters_is_reported_at_its_line(language):
    # Groups starting "O(" hold members only from 7 characters on, and
    # "O(e,e)?" is the last member of that length: about 2.4 million lines.
    members = {line_of(text): text for text in language if len(text) <= 7}
    assert len(members) == 48
    lines = sorted(members)
    seen = zeros = 0
    for piece in reals.borel_report(lines[-1], 10):
        first = int(piece[: piece.index(" ")])
        count = piece.count("\n")
        zeros += piece.count(" 0\n")  # a text holds no space: only a digit 0 ends so
        inside = lines[bisect_left(lines, first) : bisect_left(lines, first + count)]
        if inside:
            split = piece.splitlines()
            for k in inside:
                text = members[k]
                assert split[k - first] == f"{k} {text} {classify_text(text, 10)}"
        seen += count
    assert seen == lines[-1]
    assert zeros == seen - len(members)
