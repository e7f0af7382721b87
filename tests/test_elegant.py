import random
from fractions import Fraction

import pytest

from omegalab import elegant
from omegalab.elegant import ElegantVerdict, compression_report, find_elegant
from omegalab.vm import Halted, literal_program, run

from naive_vm import all_strings_upto, naive_run


def producers_at_length(target, length, budget):
    found = []
    for bits in all_strings_upto(length):
        result = naive_run(bits, budget) if len(bits) == length else None
        if result is not None and result[:2] == ("halted", target):
            found.append(bits)
    return found


def test_empty_output_is_produced_by_the_empty_program():
    verdict = find_elegant("", 5, 100)
    assert verdict.witnesses == ("1",)
    assert verdict.certified
    assert verdict.unresolved == ()
    assert verdict.search_bounds == (5, 100)


def test_single_zero():
    verdict = find_elegant("0", 8, 100)
    assert verdict.witnesses == ("01001",)
    assert verdict.certified


def test_single_one():
    verdict = find_elegant("1", 8, 100)
    assert verdict.witnesses == ("01010",)
    assert verdict.certified


def test_not_found_when_output_needs_more_emits_than_fit():
    # emitting k bits takes k EMIT instructions: at least 2k+1 bits
    assert find_elegant("11111111", 6, 100) is None


def test_requires_positive_max_len():
    with pytest.raises(ValueError):
        find_elegant("0", 0, 100)


def test_two_bit_target():
    verdict = find_elegant("00", 8, 100)
    assert verdict.witnesses == ("0110101",)
    assert verdict.certified


def test_witnesses_match_exhaustive_rescan():
    for target in ("", "0", "1", "00", "01", "11"):
        verdict = find_elegant(target, 8, 100)
        length = len(verdict.witnesses[0])
        assert list(verdict.witnesses) == producers_at_length(target, length, 100)
        for shorter in range(1, length):
            assert producers_at_length(target, shorter, 100) == []


def test_uncertified_when_a_shorter_program_defies_classification():
    # INCA;DJZB(-2) runs forever with a growing counter: no halt, no
    # control-state revisit, so no budget can ever classify it. The
    # smallest target whose minimal witness is longer than those 16 bits
    # is six zeros (17-bit witness).
    verdict = find_elegant("000000", 17, 100)
    assert verdict.witnesses == ("00111010101010101",)
    assert not verdict.certified
    assert verdict.unresolved == ("0111100111100100", "0111101111000100")


def test_certification_scope_is_reported():
    verdict = find_elegant("0", 6, 50)
    assert verdict.search_bounds == (6, 50)


# --- compression reports --------------------------------------------------


def test_compression_of_nothing():
    report = compression_report("", 5, 100)
    assert report.baseline_bits == 1
    assert report.best_bits == 1
    assert report.best_program == "1"
    assert report.ratio == 1


def test_compression_baseline_sizes():
    report = compression_report("0101", 4, 100)
    assert report.baseline_bits == 13  # 5-bit header plus 8 instruction bits
    assert literal_program("0101") == report.best_program


def test_compression_best_never_beats_nothing():
    rng = random.Random(11)
    for _ in range(30):
        facts = "".join(rng.choice("01") for _ in range(rng.randrange(0, 10)))
        report = compression_report(facts, 9, 100)
        assert report.best_bits <= report.baseline_bits
        assert report.ratio <= 1
        assert report.ratio == Fraction(report.best_bits, report.baseline_bits)


def test_compression_best_program_replays_facts():
    for facts in ("", "0", "10", "110"):
        report = compression_report(facts, 9, 100)
        outcome = run(report.best_program, 100)
        assert isinstance(outcome, Halted)
        assert outcome.output == facts


def test_compression_finds_the_minimal_producer():
    # the literal program for "0" is also its elegant program
    report = compression_report("0", 8, 100)
    assert report.best_program == "01001"
    assert report.best_bits == 5
    assert report.ratio == 1


def test_compression_takes_the_first_shorter_witness(monkeypatch):
    # No short program beats the literal program of its output, so a
    # stand-in search reports two shorter producers of "0101".
    calls = []

    def fake_find_elegant(target, max_len, budget):
        calls.append((target, max_len, budget))
        return ElegantVerdict(target, ("01000", "01001"), True, (max_len, budget))

    monkeypatch.setattr(elegant, "find_elegant", fake_find_elegant)
    report = compression_report("0101", 20, 100)
    assert calls == [("0101", 12, 100)]  # below the 13-bit literal program
    assert (report.best_program, report.best_bits, report.baseline_bits) == ("01000", 5, 13)
    assert report.ratio == Fraction(5, 13)
