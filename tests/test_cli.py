import os
import subprocess
import sys
from fractions import Fraction
from itertools import count, product
from pathlib import Path

import pytest

from omegalab import cli, reals
from omegalab.cli import main, parse_points_file, UsageError
from omegalab.reals import BOREL_ALPHABET, classify_text


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- run -----------------------------------------------------------------


def test_run_halting_program(capsys):
    code, out, _ = invoke(capsys, "run", "--program", "01001", "--budget", "10")
    assert code == 0
    assert out == "HALTED output=0 steps=1\n"


def test_run_empty_output_prints_dash(capsys):
    code, out, _ = invoke(capsys, "run", "--program", "1", "--budget", "10")
    assert code == 0
    assert out == "HALTED output=- steps=0\n"


def test_run_budget_exhaustion(capsys):
    code, out, _ = invoke(capsys, "run", "--program", "0101110010", "--budget", "25")
    assert code == 0
    assert out == "RUNNING budget=25\n"


def test_run_invalid_program_is_a_domain_verdict(capsys):
    code, out, _ = invoke(capsys, "run", "--program", "10", "--budget", "5")
    assert code == 1
    assert out == "INVALID reason=Leftover\n"


@pytest.mark.parametrize("program, reason", [("011", "Truncated"), ("0", "MalformedGamma")])
def test_run_reports_the_other_invalid_reasons(capsys, program, reason):
    code, out, _ = invoke(capsys, "run", "--program", program, "--budget", "5")
    assert code == 1
    assert out == f"INVALID reason={reason}\n"


def test_run_rejects_non_bit_program(capsys):
    code, _, err = invoke(capsys, "run", "--program", "10a", "--budget", "5")
    assert code == 2
    assert "bit string" in err


# --- enumerate / omega -----------------------------------------------------


def test_enumerate_writes_checkpoint(tmp_path, capsys):
    ck = tmp_path / "c.ck"
    code, out, _ = invoke(
        capsys, "enumerate", "--max-len", "5", "--budget", "100", "--checkpoint", str(ck)
    )
    assert code == 0
    assert out == "ENUMERATED len<=5 budget=100 scanned=62 invalid=58 halting=4 pending=0\n"
    assert ck.read_text().startswith("OMEGALAB v1\n")


def test_omega_report(tmp_path, capsys):
    ck = tmp_path / "c.ck"
    invoke(capsys, "enumerate", "--max-len", "5", "--budget", "100", "--checkpoint", str(ck))
    code, out, _ = invoke(capsys, "omega", "--checkpoint", str(ck), "--bits", "5")
    assert code == 0
    assert out == (
        "OMEGA >= 19/32 = 0.10011... "
        "(census: len<=5, budget 100, 4 halting, 0 pending) "
        "[lower bound only; bits not settled]\n"
    )


def test_omega_rejects_corrupt_checkpoint(tmp_path, capsys):
    # 1 is a prefix of 10, but 10 is caught first: it is not a program.
    ck = tmp_path / "c.ck"
    forged = "OMEGALAB v1\nH 1 - 0\nH 10 - 1\nFRONTIER 2 9\n"
    ck.write_text(forged)
    code, out, err = invoke(capsys, "omega", "--checkpoint", str(ck))
    assert (code, out) == (2, "")
    assert err == f"omegalab: error: {ck}: line 3: 10 is not a program (Leftover)\n"
    assert ck.read_text() == forged


@pytest.mark.parametrize(
    "argv, records, message",
    [
        (("omega",), "H 0 - 0\nFRONTIER 1 10\n", "line 2: 0 is not a program (MalformedGamma)"),
        (
            ("enumerate", "--max-len", "4", "--budget", "10", "--resume"),
            "P 0\nFRONTIER 3 10\n",
            "line 2: 0 is not a program (MalformedGamma)",
        ),
        (  # a partial census: every program below 01001 is missing
            ("enumerate", "--max-len", "6", "--budget", "10", "--resume"),
            "H 01001 0 1\nFRONTIER 5 10\n",
            "line 3: FRONTIER length 5 but program 1 is not listed",
        ),
    ],
)
def test_checkpoint_must_be_the_census_of_its_frontier(tmp_path, capsys, argv, records, message):
    ck = tmp_path / "c.ck"
    forged = f"OMEGALAB v1\n{records}"
    ck.write_text(forged)
    code, out, err = invoke(capsys, *argv, "--checkpoint", str(ck))
    assert (code, out) == (2, "")
    assert err == f"omegalab: error: {ck}: {message}\n"
    assert ck.read_text() == forged


@pytest.mark.parametrize(
    "records, message",
    [
        ("H 1 - 0\nH 1 0 1\n", "line 3: program 1 listed twice"),
        ("H 1 - 0\nP 1\n", "line 3: program 1 listed twice"),
        ("H 1 - 0\nP 0100000\n", "line 3: program 0100000 is longer"),
        ("H 1 - 0\nH 01001 0 11\n", "line 3: 11 steps exceed"),
    ],
)
def test_checkpoint_records_must_fit_the_frontier(tmp_path, capsys, records, message):
    ck = tmp_path / "c.ck"
    ck.write_text(f"OMEGALAB v1\n{records}FRONTIER 5 10\n")
    code, out, err = invoke(capsys, "omega", "--checkpoint", str(ck))
    assert (code, out) == (2, "")
    assert message in err and "Traceback" not in err
    code, out, err = invoke(
        capsys,
        "enumerate", "--max-len", "6", "--budget", "10",
        "--checkpoint", str(ck), "--resume",
    )
    assert (code, out) == (2, "")
    assert message in err


def test_omega_missing_checkpoint(tmp_path, capsys):
    code, _, err = invoke(capsys, "omega", "--checkpoint", str(tmp_path / "nope.ck"))
    assert code == 2
    assert "cannot read" in err


def test_unwritable_checkpoint_error_is_the_same_every_time(tmp_path, capsys):
    # The OS error for the temporary file names a random file; the report does not.
    ck = tmp_path / "missing" / "x.ck"
    argv = ("enumerate", "--max-len", "3", "--budget", "5", "--checkpoint", str(ck))
    first, second = invoke(capsys, *argv), invoke(capsys, *argv)
    assert first == second
    assert first == (2, "", f"omegalab: error: cannot write {ck}: No such file or directory\n")


def test_checkpoint_onto_a_directory_leaves_no_temporary_file(tmp_path, capsys):
    # The temporary file is written, the rename fails, and save removes it.
    ck = tmp_path / "ck"
    ck.mkdir()
    (ck / "keep").write_text("kept\n")
    code, out, err = invoke(
        capsys, "enumerate", "--max-len", "3", "--budget", "5", "--checkpoint", str(ck)
    )
    assert (code, out, err) == (2, "", f"omegalab: error: cannot write {ck}: Is a directory\n")
    assert [p.name for p in tmp_path.iterdir()] == ["ck"]
    assert [p.name for p in ck.iterdir()] == ["keep"]
    assert (ck / "keep").read_text() == "kept\n"


def test_resume_reproduces_uninterrupted_checkpoint(tmp_path, capsys):
    straight = tmp_path / "full.ck"
    staged = tmp_path / "staged.ck"
    fresh = invoke(
        capsys, "enumerate", "--max-len", "6", "--budget", "100", "--checkpoint", str(straight)
    )
    invoke(capsys, "enumerate", "--max-len", "4", "--budget", "40", "--checkpoint", str(staged))
    resumed = invoke(
        capsys,
        "enumerate", "--max-len", "6", "--budget", "100",
        "--checkpoint", str(staged), "--resume",
    )
    assert resumed == fresh and fresh[0] == 0
    assert staged.read_bytes() == straight.read_bytes()
    # resuming an already-complete run is a no-op with identical bytes
    again = invoke(
        capsys,
        "enumerate", "--max-len", "6", "--budget", "100",
        "--checkpoint", str(staged), "--resume",
    )
    assert again == fresh
    assert staged.read_bytes() == straight.read_bytes()


def test_resume_without_checkpoint_starts_fresh(tmp_path, capsys):
    ck = tmp_path / "c.ck"
    code, out, _ = invoke(
        capsys,
        "enumerate", "--max-len", "5", "--budget", "100",
        "--checkpoint", str(ck), "--resume",
    )
    assert code == 0
    assert ck.exists()


def test_resume_below_saved_frontier_is_refused(tmp_path, capsys):
    ck = tmp_path / "c.ck"
    invoke(capsys, "enumerate", "--max-len", "5", "--budget", "10", "--checkpoint", str(ck))
    saved = ck.read_bytes()
    for max_len, budget in (("4", "10"), ("5", "9")):  # a shorter length, a smaller budget
        code, out, err = invoke(
            capsys,
            "enumerate", "--max-len", max_len, "--budget", budget,
            "--checkpoint", str(ck), "--resume",
        )
        assert (code, out) == (2, "")
        assert err == (
            "omegalab: error: cannot resume below the saved frontier (len<=5, budget 10)\n"
        )
        assert ck.read_bytes() == saved


def test_resume_over_an_invalid_pending_record_is_refused(tmp_path, capsys):
    ck = tmp_path / "c.ck"
    forged = "OMEGALAB v1\nP 0\nFRONTIER 3 10\n"
    ck.write_text(forged)
    code, out, err = invoke(
        capsys,
        "enumerate", "--max-len", "3", "--budget", "20",
        "--checkpoint", str(ck), "--resume",
    )
    assert (code, out) == (2, "")
    assert err == f"omegalab: error: {ck}: line 2: 0 is not a program (MalformedGamma)\n"
    assert ck.read_text() == forged


def test_worker_count_without_affinity_is_the_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert cli._worker_count(None) == os.cpu_count()
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._worker_count(None) == 1
    assert cli._worker_count(3) == 3


def test_enumerate_defaults_to_the_available_cpus(tmp_path, capsys):
    assert cli._worker_count(None) == len(os.sched_getaffinity(0))
    default = tmp_path / "default.ck"
    serial = tmp_path / "serial.ck"
    args = ("enumerate", "--max-len", "8", "--budget", "50", "--checkpoint")
    assert invoke(capsys, *args, str(default))[0] == 0
    assert invoke(capsys, *args, str(serial), "--workers", "1")[0] == 0
    assert default.read_bytes() == serial.read_bytes()


# --- elegant / compress -------------------------------------------------------


def test_elegant_report(capsys):
    code, out, _ = invoke(capsys, "elegant", "--target", "0", "--max-len", "8", "--budget", "100")
    assert code == 0
    assert out == "TARGET 0\nMINIMAL 5\nWITNESS 01001\nCERTIFIED\n"


def test_elegant_not_found(capsys):
    code, out, _ = invoke(
        capsys, "elegant", "--target", "11111111", "--max-len", "6", "--budget", "100"
    )
    assert code == 1
    assert out == "NOT FOUND\n"


def test_elegant_empty_target(capsys):
    code, out, _ = invoke(capsys, "elegant", "--target", "-", "--max-len", "5", "--budget", "100")
    assert code == 0
    assert out == "TARGET -\nMINIMAL 1\nWITNESS 1\nCERTIFIED\n"


def test_elegant_uncertified_report(capsys):
    # Both shorter programs grow a counter: they neither halt nor revisit a state.
    code, out, _ = invoke(
        capsys, "elegant", "--target", "010011", "--max-len", "17", "--budget", "100"
    )
    assert code == 0
    assert out.splitlines() == [
        "TARGET 010011",
        "MINIMAL 17",
        "WITNESS 00111011001011010",
        "UNCERTIFIED",
        "UNRESOLVED 0111100111100100",
        "UNRESOLVED 0111101111000100",
    ]


def test_compress_report(capsys):
    code, out, _ = invoke(capsys, "compress", "--facts", "0101", "--max-len", "4", "--budget", "100")
    assert code == 0
    assert out.splitlines() == [
        "FACTS 0101",
        "BASELINE 13",
        "BEST 13",
        "PROGRAM 0010101100110",
        "RATIO 1/1",
        "NOTE literal baseline costs 2 bits per fact bit plus a logarithmic header",
    ]


# --- diag / cover / borel -------------------------------------------------------


def test_diag_report(tmp_path, capsys):
    from omegalab.vm import Instruction, Op, assemble

    looper = assemble(
        [Instruction(Op.EMIT0), Instruction(Op.EMIT1),
         Instruction(Op.EMIT0), Instruction(Op.EMIT1),
         Instruction(Op.DJZB, -5)]
    ).bits
    listing = tmp_path / "programs.txt"
    listing.write_text("# three streams\n" + "\n".join([looper, looper, "1"]) + "\n")
    code, out, _ = invoke(
        capsys, "diag", "--programs", str(listing), "--digits", "3", "--budget", "100"
    )
    assert code == 0
    assert out == "0.665\nUNVERIFIED 3\n"


def test_diag_rejects_invalid_program_lines(tmp_path, capsys):
    listing = tmp_path / "programs.txt"
    listing.write_text("10\n")
    code, _, err = invoke(
        capsys, "diag", "--programs", str(listing), "--digits", "1", "--budget", "10"
    )
    assert code == 2
    assert "invalid program" in err


def test_diag_rejects_non_bit_lines(tmp_path, capsys):
    listing = tmp_path / "programs.txt"
    listing.write_text("1x\n")
    code, out, err = invoke(
        capsys, "diag", "--programs", str(listing), "--digits", "1", "--budget", "10"
    )
    assert (code, out) == (2, "")
    assert err == f"omegalab: error: {listing}: line 1: expected a bit string, got '1x'\n"


def test_diag_needs_enough_programs(tmp_path, capsys):
    listing = tmp_path / "programs.txt"
    listing.write_text("01001\n1\n")
    code, out, err = invoke(
        capsys, "diag", "--programs", str(listing), "--digits", "3", "--budget", "10"
    )
    assert (code, out) == (2, "")
    assert err == "omegalab: error: need 3 programs, file lists 2\n"


def test_cover_report(tmp_path, capsys):
    points = tmp_path / "points.txt"
    points.write_text("1/2\n1/3\n1/4\n")
    code, out, _ = invoke(capsys, "cover", "--points", str(points), "--epsilon", "1/4")
    assert code == 0
    assert out.splitlines() == [
        "COVER epsilon=1/4 points=3",
        "1 center=1/2 width=1/8",
        "2 center=1/3 width=1/16",
        "3 center=1/4 width=1/32",
        "TOTAL 7/32",
    ]


def test_cover_rejects_decimals_in_points_file(tmp_path, capsys):
    points = tmp_path / "points.txt"
    points.write_text("1/2\n0.5\n")
    code, _, err = invoke(capsys, "cover", "--points", str(points), "--epsilon", "1/4")
    assert code == 2
    assert "line 2" in err


def test_cover_rejects_point_outside_unit_interval(tmp_path, capsys):
    points = tmp_path / "points.txt"
    points.write_text("7/2\n")
    code, _, err = invoke(capsys, "cover", "--points", str(points), "--epsilon", "1/4")
    assert code == 2
    assert "outside" in err


def test_cover_rejects_decimal_epsilon(capsys, tmp_path):
    points = tmp_path / "points.txt"
    points.write_text("1/2\n")
    code, _, err = invoke(capsys, "cover", "--points", str(points), "--epsilon", "0.25")
    assert code == 2


def test_parse_points_file(tmp_path):
    path = tmp_path / "points.txt"
    path.write_text("# corners\n1/2\n1/3\n0/1\n1\n")
    assert parse_points_file(path) == [Fraction(1, 2), Fraction(1, 3), 0, 1]
    path.write_text("1/0\n")
    with pytest.raises(UsageError, match="line 1"):
        parse_points_file(path)


def test_borel_report(capsys):
    code, out, _ = invoke(capsys, "borel", "--prefix", "12", "--budget", "10")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "1 H 0"
    assert lines[9] == "10 e 0"
    assert lines[10] == "11 HH 0"
    assert len(lines) == 12


def test_borel_report_is_the_same_across_write_chunks(capsys, monkeypatch):
    _, whole, _ = invoke(capsys, "borel", "--prefix", "7", "--budget", "10")
    monkeypatch.setattr(reals, "GROUP_TAIL", 1)
    for prefix in (0, 1, 3, 6, 7):
        code, out, _ = invoke(capsys, "borel", "--prefix", str(prefix), "--budget", "10")
        assert code == 0
        # an empty report is one newline
        assert out == ("".join(whole.splitlines(keepends=True)[:prefix]) or "\n")


def test_borel_report_past_the_all_zero_prefix(capsys, monkeypatch):
    monkeypatch.setattr(reals, "GROUP_TAIL", 1)
    code, out, _ = invoke(capsys, "borel", "--prefix", "14047", "--budget", "10")
    texts = ("".join(chars) for n in count(1) for chars in product(BOREL_ALPHABET, repeat=n))
    want = [f"{k} {text} {classify_text(text, 10)}" for k, text in zip(range(1, 14048), texts)]
    lines = out.splitlines()
    assert code == 0 and out.endswith("\n") and len(lines) == len(want)
    # the first differing line, not a diff of 14,047 lines
    assert next((pair for pair in zip(lines, want) if pair[0] != pair[1]), None) is None
    assert all(line.endswith(" 0") for line in lines[:13845])
    # a statement; the empty program halts; "e" is not a program
    assert [lines[k - 1] for k in (13846, 13947, 14047)] == [
        "13846 H(0). 1",
        "13947 H(1)? 4",
        "14047 H(e)? 3",
    ]


def test_borel_report_matches_classify_text_across_every_seam(capsys):
    # Every length-5 group, written from the template or line by line, and
    # the first groups of length 6.
    code, out, _ = invoke(capsys, "borel", "--prefix", "130000", "--budget", "10")
    texts = ("".join(chars) for n in count(1) for chars in product(BOREL_ALPHABET, repeat=n))
    want = [f"{k} {text} {classify_text(text, 10)}\n" for k, text in zip(range(1, 130_001), texts)]
    lines = out.splitlines(keepends=True)
    assert code == 0 and len(lines) == len(want)
    assert next((pair for pair in zip(lines, want) if pair[0] != pair[1]), None) is None
    # Cut at the length-5 start, the first group boundary, the first "H("
    # group and the length-6 start.
    for prefix in (11_110, 11_111, 11_112, 12_110, 12_111, 12_112,
                   13_110, 13_111, 13_112, 111_110, 111_111, 111_112):
        code, out, _ = invoke(capsys, "borel", "--prefix", str(prefix), "--budget", "10")
        lines = out.splitlines(keepends=True)
        assert code == 0 and len(lines) == prefix
        assert next((pair for pair in zip(lines, want) if pair[0] != pair[1]), None) is None


# --- theory ---------------------------------------------------------------------


THEORY_TEXT = "(outputs 1 eps)\n(outputs 01001 0)\n"


def test_theory_prove(tmp_path, capsys):
    th = tmp_path / "facts.th"
    th.write_text(THEORY_TEXT)
    code, out, _ = invoke(
        capsys, "theory", "prove", "--theory", str(th), "--goal", "(elegant 01001)"
    )
    assert code == 0
    assert out.splitlines() == [
        "PROVED (elegant 01001)",
        "RULE ELEGANT-INTRO",
        "PREMISE (outputs 01001 0)",
        "PREMISE (outputs 1 eps)",
    ]


def test_theory_unprovable(tmp_path, capsys):
    th = tmp_path / "facts.th"
    th.write_text("(outputs 01001 0)\n")
    code, out, _ = invoke(
        capsys, "theory", "prove", "--theory", str(th), "--goal", "(elegant 01001)"
    )
    assert code == 1
    assert out.splitlines() == ["UNPROVABLE (elegant 01001)", "MISSING 1"]


def test_theory_rejects_uncertifiable_file(tmp_path, capsys):
    th = tmp_path / "facts.th"
    th.write_text("(loops 01001)\n")
    code, _, err = invoke(
        capsys, "theory", "prove", "--theory", str(th), "--goal", "(halts 1)"
    )
    assert code == 2
    assert "loop certificate" in err


def test_theory_rejects_malformed_goal(tmp_path, capsys):
    th = tmp_path / "facts.th"
    th.write_text(THEORY_TEXT)
    code, _, err = invoke(capsys, "theory", "prove", "--theory", str(th), "--goal", "(elegant )")
    assert code == 2
    assert "bad goal" in err


def test_theory_frontier(tmp_path, capsys):
    th = tmp_path / "facts.th"
    th.write_text(THEORY_TEXT)
    code, out, _ = invoke(capsys, "theory", "frontier", "--theory", str(th))
    assert code == 0
    assert out.splitlines() == [
        "N 272 FRONTIER 5",
        "PROVEN (elegant 1)",
        "PROVEN (elegant 01001)",
    ]


def test_theory_budget_defaults_to_the_certification_default(tmp_path, capsys):
    th = tmp_path / "facts.th"
    th.write_text(THEORY_TEXT)
    for command in (("frontier",), ("prove", "--goal", "(elegant 01001)")):
        argv = ("theory", *command, "--theory", str(th))
        assert invoke(capsys, *argv) == invoke(capsys, *argv, "--budget", "10000")


def test_theory_file_parse_error_names_line(tmp_path, capsys):
    th = tmp_path / "facts.th"
    th.write_text("(outputs 1 eps)\n(nonsense)\n")
    code, _, err = invoke(capsys, "theory", "frontier", "--theory", str(th))
    assert code == 2
    assert "line 2" in err


# --- usage and determinism --------------------------------------------------------


def test_unknown_subcommand_exits_2(capsys):
    assert invoke(capsys, "frobnicate")[0] == 2


def test_unknown_flag_exits_2(capsys):
    assert invoke(capsys, "run", "--program", "1", "--budget", "1", "--fast")[0] == 2


def test_missing_required_flag_exits_2(capsys):
    assert invoke(capsys, "run", "--budget", "1")[0] == 2


def test_negative_budget_exits_2(capsys):
    assert invoke(capsys, "run", "--program", "1", "--budget", "-3")[0] == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            "run --program 1 --budget x",
            "omegalab run: error: argument --budget: expected an integer, got 'x'",
        ),
        (
            "enumerate --max-len 1 --budget 1 --checkpoint c.ck --workers 0",
            "omegalab enumerate: error: argument --workers: expected a positive integer",
        ),
    ],
)
def test_bad_integer_flags_name_the_flag(capsys, argv, message):
    code, out, err = invoke(capsys, *argv.split())
    assert (code, out, err.splitlines()[-1]) == (2, "", message)


def test_help_exits_0(capsys):
    assert invoke(capsys, "--help")[0] == 0


def test_reports_are_byte_identical_across_invocations(tmp_path, capsys):
    points = tmp_path / "points.txt"
    points.write_text("1/2\n1/3\n")
    commands = [
        ("run", "--program", "01001", "--budget", "10"),
        ("elegant", "--target", "00", "--max-len", "8", "--budget", "100"),
        ("compress", "--facts", "01", "--max-len", "7", "--budget", "100"),
        ("cover", "--points", str(points), "--epsilon", "1/3"),
        ("borel", "--prefix", "30", "--budget", "20"),
    ]
    for argv in commands:
        first = invoke(capsys, *argv)
        second = invoke(capsys, *argv)
        assert first == second


# --- input files ------------------------------------------------------------------

# Every command that reads a file, with the file's flag last, and a file
# content each command rejects, with the reason it gives.
FILE_COMMANDS = {
    "omega": (
        ("omega", "--checkpoint"),
        "OMEGALAB v1\nH 1 - 0\nH 10 - 1\nFRONTIER 2 9\n",
        "line 3: 10 is not a program (Leftover)",
    ),
    "enumerate-resume": (
        ("enumerate", "--max-len", "6", "--budget", "10", "--resume", "--checkpoint"),
        "OMEGALAB v1\nH 1 - 0\nP 1\nFRONTIER 5 10\n",
        "line 3: program 1 listed twice",
    ),
    "cover": (
        ("cover", "--epsilon", "1/4", "--points"),
        "1/2\n0.5\n",
        "line 2: expected integer ratio 'p/q', got '0.5'",
    ),
    "theory-prove": (
        ("theory", "prove", "--goal", "(halts 1)", "--theory"),
        "(loops 01001)\n",
        "(loops 01001): no loop certificate within 10000 steps",
    ),
    "theory-frontier": (
        ("theory", "frontier", "--theory"),
        "(outputs 1 eps)\n(nonsense)\n",
        "line 2: unknown keyword 'nonsense' (at position 1)",
    ),
    "diag": (
        ("diag", "--digits", "1", "--budget", "10", "--programs"),
        "10\n",
        "invalid program 10: Leftover",
    ),
}


def _file_error(capsys, command, path):
    code, out, err = invoke(capsys, *FILE_COMMANDS[command][0], str(path))
    assert (code, out) == (2, "")
    return err


@pytest.mark.parametrize("command", FILE_COMMANDS)
def test_non_ascii_input_file_is_a_usage_error(tmp_path, capsys, command):
    path = tmp_path / "input.txt"
    path.write_bytes(b"1\n\xc3\xa9\n")
    assert _file_error(capsys, command, path) == (
        f"omegalab: error: {path}: 'ascii' codec can't decode byte 0xc3 in position 2:"
        " ordinal not in range(128)\n"
    )


@pytest.mark.parametrize("command", FILE_COMMANDS)
def test_unreadable_input_file_is_a_usage_error(tmp_path, capsys, command):
    path = tmp_path / "input.txt"
    if command == "enumerate-resume":
        path.mkdir()  # --resume starts afresh when the file is missing
        reason = f"[Errno 21] Is a directory: '{path}'"
    else:
        reason = f"[Errno 2] No such file or directory: '{path}'"
    assert _file_error(capsys, command, path) == f"omegalab: error: cannot read {path}: {reason}\n"


@pytest.mark.parametrize("command", FILE_COMMANDS)
def test_rejected_input_file_names_the_file(tmp_path, capsys, command):
    _, content, reason = FILE_COMMANDS[command]
    path = tmp_path / "input.txt"
    path.write_text(content)
    assert _file_error(capsys, command, path) == f"omegalab: error: {path}: {reason}\n"
    assert path.read_text() == content


# --- fresh processes ----------------------------------------------------------------

# Every subcommand at a tiny size. The tests above run where every layer is
# already imported; a fresh `python -m omegalab` also shows a handler that
# works only when other code has imported its layer first.
SMOKE = {
    "enumerate": ("enumerate", "--max-len", "5", "--budget", "100", "--checkpoint", "{ck}"),
    "omega": ("omega", "--checkpoint", "{ck}", "--bits", "5"),
    "elegant": ("elegant", "--target", "0", "--max-len", "5", "--budget", "10"),
    "compress": ("compress", "--facts", "01", "--max-len", "7", "--budget", "100"),
    "run": ("run", "--program", "01001", "--budget", "10"),
    "diag": ("diag", "--programs", "{programs}", "--digits", "2", "--budget", "100"),
    "cover": ("cover", "--points", "{points}", "--epsilon", "1/3"),
    "borel": ("borel", "--prefix", "30", "--budget", "20"),
    "theory-prove": ("theory", "prove", "--theory", "{theory}", "--goal", "(elegant 01001)"),
    "theory-frontier": ("theory", "frontier", "--theory", "{theory}"),
}


@pytest.mark.parametrize("command", SMOKE)
def test_each_subcommand_runs_alone_in_a_fresh_process(tmp_path, capsys, command):
    files = {"ck": tmp_path / "c.ck", "programs": tmp_path / "programs.txt",
             "points": tmp_path / "points.txt", "theory": tmp_path / "facts.th"}
    files["programs"].write_text("01001\n1\n")
    files["points"].write_text("1/2\n1/3\n")
    files["theory"].write_text(THEORY_TEXT)
    invoke(capsys, *(arg.format(**files) for arg in SMOKE["enumerate"]))
    argv = [arg.format(**files) for arg in SMOKE[command]]
    code, out, err = invoke(capsys, *argv)
    path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    fresh = subprocess.run([sys.executable, "-m", "omegalab", *argv], env=env,
                           capture_output=True, text=True)
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == (code, out, err)
    assert code == 0 and out
