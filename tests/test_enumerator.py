import gc
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from omegalab import enumerator
from omegalab.cli import main
from omegalab.enumerator import (
    CHECKPOINT_MAGIC,
    CheckpointError,
    EnumState,
    HaltRecord,
    Tally,
    enumerate_programs,
    extend,
    load,
    refine,
    save,
    tally,
)
from omegalab.omega import format_report, from_state
from omegalab.vm import run

from naive_vm import naive_census, naive_reason

EXPECTED_5_100 = """\
OMEGALAB v1
H 1 - 0
H 01000 - 1
H 01001 0 1
H 01010 1 1
FRONTIER 5 100
"""


def test_enumerate_small_census():
    state = enumerate_programs(5, 100)
    assert [r.program for r in state.records] == ["1", "01000", "01001", "01010"]
    assert {r.output for r in state.records} == {"", "0", "1"}
    assert state.pending == ()
    assert state.max_len_done == 5 and state.budget == 100


def test_enumerate_length_one():
    state = enumerate_programs(1, 100)
    assert state.records == (HaltRecord("1", "", 0),)
    assert state.pending == ()


def test_enumerate_nothing():
    state = enumerate_programs(0, 100)
    assert state.records == () and state.pending == ()


def test_enumerate_rejects_bad_arguments():
    with pytest.raises(ValueError):
        enumerate_programs(-1, 10)
    with pytest.raises(ValueError):
        enumerate_programs(3, -1)
    with pytest.raises(ValueError):
        enumerate_programs(3, 10, workers=0)


def test_census_matches_naive_scan():
    for max_len in (6, 8, 10):
        state = enumerate_programs(max_len, 200)
        halted, pending = naive_census(max_len, 200)
        assert {(r.program, r.output, r.steps) for r in state.records} == {
            (p, out, steps) for p, (out, steps) in halted.items()
        }
        assert set(state.pending) == pending


def test_records_monotone_in_length_and_budget():
    base = enumerate_programs(8, 50)
    assert set(base.records) <= set(enumerate_programs(10, 50).records)
    assert set(base.records) <= set(enumerate_programs(8, 500).records)


def test_refine_equals_fresh_enumeration():
    assert refine(enumerate_programs(5, 0), 100) == enumerate_programs(5, 100)
    assert refine(enumerate_programs(10, 1), 300) == enumerate_programs(10, 300)


def test_refine_with_empty_pending_only_bumps_budget():
    state = enumerate_programs(5, 100)
    refined = refine(state, 200)
    assert refined.records == state.records
    assert refined.pending == ()
    assert refined.budget == 200


def test_refine_requires_strictly_larger_budget():
    state = enumerate_programs(5, 100)
    with pytest.raises(ValueError):
        refine(state, 100)
    with pytest.raises(ValueError):
        refine(state, 50)


def test_extend_matches_fresh_run():
    partial = enumerate_programs(4, 100)
    assert extend(partial, 5, 100) == enumerate_programs(5, 100)
    assert extend(partial, 10, 400) == enumerate_programs(10, 400)
    # no-op extension returns an equal state
    assert extend(partial, 4, 100) == partial


def test_extend_rejects_fewer_than_one_worker():
    # enumerate_programs is extend from the empty census: one check serves both
    with pytest.raises(ValueError, match="^workers must be >= 1$"):
        enumerate_programs(3, 10, workers=0)
    with pytest.raises(ValueError, match="^workers must be >= 1$"):
        extend(enumerate_programs(3, 10), 4, 10, workers=0)


def test_extend_rejects_shrinking():
    state = enumerate_programs(5, 100)
    with pytest.raises(ValueError):
        extend(state, 4, 100)
    with pytest.raises(ValueError):
        extend(state, 6, 99)


def test_save_writes_canonical_bytes(tmp_path):
    path = tmp_path / "census.ck"
    save(enumerate_programs(5, 100), path)
    assert path.read_text() == EXPECTED_5_100


def canonical_text(max_len, budget):
    """A census checkpoint written out from the naive machine's census."""
    halted, pending = naive_census(max_len, budget)
    order = lambda p: (len(p), p)
    return "".join(
        [f"{CHECKPOINT_MAGIC}\n"]
        + [f"H {p} {halted[p][0] or '-'} {halted[p][1]}\n" for p in sorted(halted, key=order)]
        + [f"P {p}\n" for p in sorted(pending, key=order)]
        + [f"FRONTIER {max_len} {budget}\n"]
    )


def test_save_writes_the_canonical_text_of_a_12_bit_census(tmp_path):
    expected = canonical_text(12, 100)
    assert "\nP " in expected  # both kinds of record are written
    fresh, resumed, middle = (tmp_path / name for name in ("fresh.ck", "resumed.ck", "middle.ck"))
    save(enumerate_programs(12, 100), fresh)
    assert fresh.read_text() == expected
    save(enumerate_programs(10, 10), middle)
    save(extend(load(middle), 12, 100), resumed)
    assert resumed.read_text() == expected


def test_save_load_round_trip(tmp_path):
    path = tmp_path / "census.ck"
    for state in (enumerate_programs(0, 5), enumerate_programs(10, 30)):
        save(state, path)
        assert load(path) == state


def test_resumed_run_equals_fresh_checkpoint(tmp_path):
    direct = tmp_path / "direct.ck"
    resumed = tmp_path / "resumed.ck"
    save(enumerate_programs(5, 100), direct)
    save(extend(load_and_save_intermediate(tmp_path), 5, 100), resumed)
    assert resumed.read_bytes() == direct.read_bytes()


def load_and_save_intermediate(tmp_path):
    middle = tmp_path / "middle.ck"
    save(enumerate_programs(4, 100), middle)
    return load(middle)


def test_save_leaves_no_temp_files(tmp_path):
    path = tmp_path / "census.ck"
    save(enumerate_programs(3, 10), path)
    save(enumerate_programs(5, 10), path)  # overwrite goes through rename
    assert [p.name for p in tmp_path.iterdir()] == ["census.ck"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_a_checkpoint_gets_the_mode_open_gives_and_keeps_it(tmp_path, umask, mode):
    path = tmp_path / "census.ck"
    old_umask = os.umask(umask)
    try:
        assert main(["enumerate", "--max-len", "3", "--budget", "5", "--checkpoint", str(path)]) == 0
        assert path.stat().st_mode & 0o777 == mode
        path.chmod(0o640)
        argv = ["enumerate", "--max-len", "5", "--budget", "5", "--checkpoint", str(path)]
        assert main([*argv, "--resume"]) == 0
    finally:
        os.umask(old_umask)
    assert path.stat().st_mode & 0o777 == 0o640
    assert load(path) == enumerate_programs(5, 5)
    assert [p.name for p in tmp_path.iterdir()] == ["census.ck"]


def test_load_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.ck"
    path.write_text("OMEGALAB v2\nFRONTIER 0 0\n")
    with pytest.raises(CheckpointError, match="line 1"):
        load(path)


# (record line, the exact message load gives for it). A program field
# must be a nonempty bit string, and an output field one too or '-'.
MALFORMED_FIELDS = [
    ("H zz - 1", "malformed H record"),
    ("H 1x - 0", "malformed H record"),
    ("H  - 0", "malformed H record"),
    ("H 1 2 0", "malformed output field"),
    ("H 1  0", "malformed output field"),
    ("H 1 - x", "malformed step count"),
    ("P 1 1", "malformed P record"),
    ("P ", "malformed P record"),
    ("FRONTIER 1", "malformed FRONTIER trailer"),
]


def test_load_names_offending_line(tmp_path):
    path = tmp_path / "bad.ck"
    for record, message in MALFORMED_FIELDS:
        path.write_text(f"{CHECKPOINT_MAGIC}\nH 1 - 0\n{record}\nFRONTIER 5 100\n")
        with pytest.raises(CheckpointError) as caught:
            load(path)
        assert (record, str(caught.value)) == (record, f"line 3: {message}")


def test_a_count_of_more_digits_than_int_converts_is_malformed(tmp_path):
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if not limit:
        pytest.skip("int() converts any number of digits here")
    path = tmp_path / "census.ck"
    path.write_text(f"{CHECKPOINT_MAGIC}\nH 1 - {'0' * limit}\nFRONTIER {'1':0>{limit}} 5\n")
    assert load(path) == enumerate_programs(1, 5)
    assert tally(path) == Tally(1, 5, (0, 1), 0)
    for text, message in [
        (f"H 1 - {'0' * (limit + 1)}\nFRONTIER 1 5", "line 2: malformed step count"),
        (f"H 1 - 0\nFRONTIER 1 {'5':0>{limit + 1}}", "line 3: malformed FRONTIER trailer"),
    ]:
        path.write_text(f"{CHECKPOINT_MAGIC}\n{text}\n")
        for read in (load, tally):
            with pytest.raises(CheckpointError) as caught:
                read(path)
            assert str(caught.value) == message


def test_load_rejects_missing_trailer(tmp_path):
    path = tmp_path / "bad.ck"
    for text, line in [(f"{CHECKPOINT_MAGIC}\nH 1 - 0\n", 3), (f"{CHECKPOINT_MAGIC}", 2)]:
        path.write_text(text)
        with pytest.raises(CheckpointError) as caught:
            load(path)
        assert str(caught.value) == f"line {line}: missing FRONTIER trailer"


def test_load_rejects_content_after_trailer(tmp_path):
    path = tmp_path / "bad.ck"
    path.write_text(f"{CHECKPOINT_MAGIC}\nFRONTIER 1 1\nH 1 - 0\n")
    with pytest.raises(CheckpointError, match="line 3"):
        load(path)


def test_load_rejects_a_blank_line_after_the_trailer(tmp_path):
    path = tmp_path / "bad.ck"
    path.write_text(EXPECTED_5_100 + "\n")
    with pytest.raises(CheckpointError) as caught:
        load(path)
    assert str(caught.value) == "line 7: content after FRONTIER trailer"


def test_load_reads_crlf_lines(tmp_path):
    path = tmp_path / "census.ck"
    path.write_bytes(EXPECTED_5_100.replace("\n", "\r\n").encode("ascii"))
    assert load(path) == enumerate_programs(5, 100)


@pytest.mark.parametrize("piece", [1, 2, 3, 7, 1 << 13])
def test_lines_are_splitlines_piece_by_piece(tmp_path, piece):
    # The reader takes the lines a file gives with newline="", each cut
    # again by str.splitlines; whatever size of piece the file is read in,
    # the lines are those of str.splitlines on the whole text.
    rng = random.Random(piece)
    alphabet = ["0", "1", " ", "\n", "\n", "\r", "\r\n", "\f", "\v", "\x1c", "\x1d", "\x1e"]
    path = tmp_path / "lines.txt"
    for _ in range(2000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(16)))
        path.write_bytes(text.encode("ascii"))
        with open(path, encoding="ascii", newline="") as fh:
            fh._CHUNK_SIZE = piece
            assert list(enumerator._file_lines(fh)) == text.splitlines(), repr(text)
    state = enumerate_programs(10, 30)
    save(state, path)
    assert load(path) == state


def test_load_splits_lines_as_splitlines_does(tmp_path):
    # A form feed (or vertical tab) ends a line for str.splitlines: a
    # census with one between two records still loads, and one inside a
    # record cuts it, so the line numbers after it move down by one.
    path = tmp_path / "census.ck"
    for separator in ("\f", "\v", "\x1c"):
        path.write_text(EXPECTED_5_100.replace("H 1 - 0\n", f"H 1 - 0{separator}", 1))
        assert load(path) == enumerate_programs(5, 100)
    cut = EXPECTED_5_100.replace("H 01000 - 1", "H 01\f000 - 1")
    assert cut.splitlines()[2:4] == ["H 01", "000 - 1"]
    path.write_text(cut)
    with pytest.raises(CheckpointError) as caught:
        load(path)
    assert str(caught.value) == "line 3: malformed H record"
    path.write_text(EXPECTED_5_100.replace("FRONTIER", "H 1 - 0\fFRONTIER"))
    with pytest.raises(CheckpointError) as caught:
        load(path)
    assert str(caught.value) == "line 6: program 1 listed twice"


def test_load_rejects_unknown_record(tmp_path):
    path = tmp_path / "bad.ck"
    path.write_text(f"{CHECKPOINT_MAGIC}\nQ 101\nFRONTIER 1 1\n")
    with pytest.raises(CheckpointError, match="line 2"):
        load(path)


@pytest.mark.parametrize(
    "first, second",
    [("H 1 - 0", "H 1 0 1"), ("H 1 - 0", "P 1"), ("P 01000", "P 01000"), ("P 1", "H 1 - 0")],
)
def test_load_rejects_program_listed_twice(tmp_path, first, second):
    path = tmp_path / "bad.ck"
    path.write_text(f"{CHECKPOINT_MAGIC}\n{first}\n{second}\nFRONTIER 5 10\n")
    with pytest.raises(CheckpointError, match="line 3: .* listed twice"):
        load(path)


@pytest.mark.parametrize(
    "records, message",
    [
        ("H 01001 0 1", "line 3: program 01001 is longer than the FRONTIER length 4"),
        ("P 01001", "line 3: program 01001 is longer than the FRONTIER length 4"),
        ("H 0100 - 11", "line 3: 11 steps exceed the FRONTIER budget 10"),
        ("H 0100 - 11\nP 01001", "line 3: 11 steps"),  # the first of two is named
        ("P 01001\nH 0100 - 11", "line 3: program 01001 is longer"),
        ("H 01001 0 1\nP 0100000", "line 3: program 01001 is longer"),
        ("P 0100000\nH 01001 0 1", "line 3: program 0100000 is longer"),
        ("H 0100 - 12\nH 01001 0 11", "line 3: 12 steps exceed"),
        # A program listed twice is named first, wherever it is.
        ("H 1 - 0\nP 01001", "line 3: program 1 listed twice"),
        ("P 01001\nH 1 - 0", "line 4: program 1 listed twice"),
        ("H 0100 - 11\nP 0100", "line 4: program 0100 listed twice"),
    ],
)
def test_load_rejects_records_past_the_frontier(tmp_path, records, message):
    path = tmp_path / "bad.ck"
    path.write_text(f"{CHECKPOINT_MAGIC}\nH 1 - 0\n{records}\nFRONTIER 4 10\n")
    with pytest.raises(CheckpointError, match=message):
        load(path)


def test_load_accepts_records_at_the_frontier(tmp_path):
    # A complete census with records on both FRONTIER bounds: programs of
    # the frontier length, and H records whose steps equal the budget.
    path = tmp_path / "edge.ck"
    path.write_text(
        f"{CHECKPOINT_MAGIC}\nH 1 - 0\nH 01000 - 1\nH 01001 0 1\nH 01010 1 1\nFRONTIER 5 1\n"
    )
    state = load(path)
    assert state == enumerate_programs(5, 1)
    assert HaltRecord("01001", "0", 1) in state.records


@pytest.mark.parametrize("max_len", range(10))
def test_load_takes_a_census_and_nothing_one_record_off(tmp_path, max_len):
    path = tmp_path / "census.ck"
    for budget in (0, 2, 100):
        state = enumerate_programs(max_len, budget)
        save(state, path)
        assert load(path) == state
        lines = path.read_text().splitlines()
        trailer = len(lines) - 1  # the trailer's line number once a line is dropped
        for i, line in enumerate(lines[1:-1], start=1):
            kind, program, *rest = line.split(" ")
            # Flipping the first bit gives a header of no instructions with
            # bits left over, or "0" for the one-bit program "1".
            garbled = ("1" if program[0] == "0" else "0") + program[1:]
            assert naive_reason(garbled) is not None
            forgeries = {
                f"line {trailer}: FRONTIER length {max_len} but program {program} is not listed":
                    lines[:i] + lines[i + 1:],
                f"line {i + 1}: {garbled} is not a program":
                    lines[:i] + [" ".join([kind, garbled, *rest])] + lines[i + 1:],
                f"line {i + 2}: program {program} listed twice": lines[:i + 1] + lines[i:],
            }
            for message, forged in forgeries.items():
                path.write_text("\n".join(forged) + "\n")
                with pytest.raises(CheckpointError) as caught:
                    load(path)
                assert str(caught.value).startswith(message)


def test_load_does_not_decode(tmp_path, monkeypatch):
    # A traced census counts every decode: loading must not add any.
    import omegalab.vm

    def refuse(bits):
        raise AssertionError(f"load decoded {bits}")

    path = tmp_path / "census.ck"
    save(enumerate_programs(8, 100), path)
    monkeypatch.setattr(omegalab.vm, "decode", refuse)
    monkeypatch.setattr(enumerator, "decode", refuse)
    assert load(path).max_len_done == 8


def test_parallel_enumeration_matches_serial():
    serial = enumerate_programs(7, 100)
    for workers in (2, 3):
        assert enumerate_programs(7, 100, workers=workers) == serial


def test_the_pool_starts_no_idle_process(monkeypatch):
    # The caller scans too, and there are never more processes than
    # chunks, so N processes fork N - 1 children.
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append("fork")
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    serial = enumerate_programs(3, 10, workers=1)
    assert forks == []
    assert enumerate_programs(3, 10, workers=8) == serial  # three chunks, one per length
    assert len(forks) == 2
    assert enumerate_programs(1, 10, workers=8) == enumerate_programs(1, 10)  # one chunk
    assert len(forks) == 2


def test_without_fork_the_caller_scans_alone(monkeypatch):
    serial = enumerate_programs(9, 100)
    monkeypatch.delattr(os, "fork")
    assert enumerate_programs(9, 100, workers=3) == serial


def test_no_chunks_need_no_process():
    assert enumerate_programs(0, 10, workers=8) == enumerate_programs(0, 10)
    state = enumerate_programs(4, 10)
    assert extend(state, 4, 10, workers=8) == state


@pytest.mark.parametrize(
    "failing, error",
    [("child", r"^census scan process \d+ exited with status 1$"), ("caller", "^caller failed$")],
)
def test_a_failing_scan_process_leaves_no_child(monkeypatch, capfd, failing, error):
    # The process that does not fail holds its first chunk until the other
    # one has failed on a chunk of its own.
    caller = os.getpid()
    failed, tell = os.pipe()
    held = []
    scan_chunk = enumerator._scan_chunk

    def scan(chunk):
        if (os.getpid() == caller) == (failing == "caller"):
            os.write(tell, b"!")
            raise ArithmeticError(f"{failing} failed")
        if not held:
            held.append(os.read(failed, 1))
        return scan_chunk(chunk)

    monkeypatch.setattr(enumerator, "_scan_chunk", scan)
    try:
        with pytest.raises((RuntimeError, ArithmeticError), match=error):
            enumerate_programs(9, 100, workers=2)
    finally:
        os.close(failed)
        os.close(tell)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    if failing == "child":
        err = capfd.readouterr().err
        assert "Traceback" in err and "ArithmeticError: child failed" in err


def _fresh_imports(*argv):
    """Run `python -S -X importtime *argv` with the package on the path:
    (exit code, stdout, {top package: sorted modules it imported}). Without
    site, only what the command itself imports is listed."""
    path = [str(Path(enumerator.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", *argv], env=env, capture_output=True, text=True
    )
    imported: dict[str, list[str]] = {}
    for line in done.stderr.splitlines():
        if line.startswith("import time:"):
            name = line.rpartition("|")[2].strip()
            imported.setdefault(name.partition(".")[0], []).append(name)
    return done.returncode, done.stdout, {top: sorted(names) for top, names in imported.items()}


def test_importing_the_cli_leaves_the_worker_pool_unloaded():
    code, _, imported = _fresh_imports("-c", "import omegalab.cli")
    assert code == 0
    assert "concurrent" not in imported and "multiprocessing" not in imported
    # Nor any layer: each handler imports the ones it runs.
    assert imported["omegalab"] == ["omegalab", "omegalab.cli"]


def test_importing_the_package_loads_no_layer():
    code, _, imported = _fresh_imports("-c", "import omegalab")
    assert (code, imported["omegalab"]) == (0, ["omegalab"])


def test_the_run_subcommand_loads_the_machine_alone():
    argv = ("-m", "omegalab", "run", "--program", "01001", "--budget", "10")
    code, out, imported = _fresh_imports(*argv)
    assert (code, out) == (0, "HALTED output=0 steps=1\n")
    assert set(imported["omegalab"]) <= {
        "omegalab", "omegalab.__main__", "omegalab.cli", "omegalab.vm"
    }
    assert not imported.keys() & {"dataclasses", "fractions", "concurrent"}


def test_a_parallel_census_imports_no_pool(tmp_path):
    # Eight chunks in two processes: the scan forks, but loads no pool.
    argv = ("enumerate", "--max-len", "8", "--budget", "10", "--workers", "2", "--checkpoint")
    code, out, imported = _fresh_imports("-m", "omegalab", *argv, str(tmp_path / "c.ck"))
    assert (code, out.split()[:2]) == (0, ["ENUMERATED", "len<=8"])
    assert not imported.keys() & {"concurrent", "multiprocessing"}


def test_small_chunks_match_serial(monkeypatch):
    # Past the tail width, a chunk's bounds fall inside a head's tails.
    assert 12 > enumerator._TAIL_BITS
    serial = enumerate_programs(12, 100)
    base = enumerate_programs(6, 100)
    for chunk in (3, 1000):
        monkeypatch.setattr(enumerator, "SCAN_CHUNK", chunk)
        for workers in (1, 2, 3):
            assert enumerate_programs(12, 100, workers=workers) == serial
            assert extend(base, 12, 100, workers=workers) == serial


def test_scan_chunk_runs_each_string_of_its_range_once_in_order(monkeypatch):
    seen = []

    def record(bits, budget):
        seen.append(bits)
        return run(bits, budget)

    monkeypatch.setattr(enumerator, "run", record)
    for length in range(14):
        size = 1 << length
        for step in (3, 1000, 1 << enumerator._TAIL_BITS, size):
            for lo in range(0, size, step):
                hi = min(lo + step, size)
                seen.clear()
                enumerator._scan_chunk((length, lo, hi, 10))
                # The one string of no bits is "", where format(0, "00b") is "0".
                want = [format(i, f"0{length}b") if length else "" for i in range(lo, hi)]
                assert seen == want, (length, lo, hi)


def test_each_chunk_is_scanned_once_by_some_process(monkeypatch):
    # Each process reports the chunks it scans down one pipe; lines this
    # short are written whole, and all of them fit in the pipe.
    scanned, report = os.pipe()
    scan_chunk = enumerator._scan_chunk

    def scan(chunk):
        os.write(report, f"{chunk[0]} {chunk[1]}\n".encode())
        return scan_chunk(chunk)

    monkeypatch.setattr(enumerator, "SCAN_CHUNK", 3)
    monkeypatch.setattr(enumerator, "_scan_chunk", scan)
    try:
        enumerate_programs(9, 100, workers=3)
    finally:
        os.close(report)
    with os.fdopen(scanned) as lines:
        claims = sorted(tuple(map(int, line.split())) for line in lines)
    assert claims == [(n, lo) for n in range(1, 10) for lo in range(0, 1 << n, 3)]


def test_scan_chunks_tile_each_length_in_order(monkeypatch):
    chunks = []
    scan_chunk = enumerator._scan_chunk
    monkeypatch.setattr(enumerator, "SCAN_CHUNK", 3)
    monkeypatch.setattr(enumerator, "_scan_chunk", lambda c: chunks.append(c) or scan_chunk(c))
    enumerate_programs(9, 100)
    assert [c[0] for c in chunks] == sorted(c[0] for c in chunks)
    for length in range(1, 10):
        bounds = [(lo, hi) for n, lo, hi, _ in chunks if n == length]
        assert all(0 < hi - lo <= 3 for lo, hi in bounds)
        assert [lo for lo, _ in bounds] == [0] + [hi for _, hi in bounds[:-1]]
        assert bounds[-1][1] == 1 << length


def test_state_equality_is_structural():
    a = enumerate_programs(5, 100)
    records = ("1", "", 0), ("01000", "", 1), ("01001", "0", 1), ("01010", "1", 1)
    b = EnumState(5, 100, tuple(HaltRecord(*r) for r in records), ())
    assert a == b


def census_tuples(max_len, budget):
    """The naive machine's census as an EnumState's two canonical tuples."""
    halted, pending = naive_census(max_len, budget)
    order = lambda p: (len(p), p)
    records = tuple(HaltRecord(p, *halted[p]) for p in sorted(halted, key=order))
    return records, tuple(sorted(pending, key=order))


@pytest.mark.parametrize("workers", [1, 2, 3, 8])
def test_every_worker_count_builds_the_canonical_tuples(monkeypatch, workers):
    # Chunks of 7 strings: many per length, claimed by the processes in turn.
    monkeypatch.setattr(enumerator, "SCAN_CHUNK", 7)
    state = enumerate_programs(10, 100, workers=workers)
    assert (state.records, state.pending) == census_tuples(10, 100)


def test_extend_inserts_what_refine_halts_between_the_records():
    base = enumerate_programs(8, 1)
    state = extend(base, 10, 100)
    assert (state.records, state.pending) == census_tuples(10, 100)
    programs = [r.program for r in state.records]
    halted_now = [programs.index(p) for p in base.pending if p in programs]
    kept = [programs.index(r.program) for r in base.records]
    # Pending programs halt at the larger budget, and land before records
    # the base state already held.
    assert halted_now and min(halted_now) < max(kept)


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_load_sorts_a_shuffled_checkpoint(tmp_path, newline):
    path = tmp_path / "census.ck"
    expected = canonical_text(10, 100)
    head, *records, trailer = expected.splitlines()
    rng = random.Random(23)
    rng.shuffle(records)
    kinds = [line[0] for line in records]
    assert "H" in kinds[kinds.index("P"):]  # H and P lines interleave
    path.write_bytes(newline.join([head, *records, trailer, ""]).encode("ascii"))
    state = load(path)
    assert (state.records, state.pending) == census_tuples(10, 100)
    assert state == enumerate_programs(10, 100)
    save(state, path)
    assert path.read_text() == expected


@pytest.mark.parametrize(
    "records, pending",
    [
        ((HaltRecord("01000", "", 1), HaltRecord("1", "", 0)), ()),  # longer first
        ((HaltRecord("01001", "0", 1), HaltRecord("01000", "", 1)), ()),  # same length
        ((HaltRecord("1", "", 0), HaltRecord("1", "", 0)), ()),  # a duplicate
        ((), ("0101110010", "0101110001")),
        ((), ("0101110010", "0101110010")),
    ],
)
def test_a_state_takes_only_strictly_ascending_tuples(records, pending):
    with pytest.raises(ValueError, match="strictly increasing length-lex order"):
        EnumState(10, 100, records, pending)


def test_a_state_takes_only_tuples():
    record = HaltRecord("1", "", 0)
    with pytest.raises(TypeError, match="must be tuples"):
        EnumState(1, 10, frozenset({record}), ())
    with pytest.raises(TypeError, match="must be tuples"):
        EnumState(1, 10, [record], ())
    with pytest.raises(TypeError, match="must be tuples"):
        EnumState(1, 10, (record,), frozenset())


# (the lines after the header, the message): files with two faults, where
# the documented order names one of them. More are among the records past
# the frontier above.
TWO_FAULTS = [
    # A duplicate comes before a malformed line after it ...
    ("H 1 - 0\nP 01000\nH 1 - 0\nH zz - 1\nFRONTIER 5 10", "line 4: program 1 listed twice"),
    ("H 1 - 0\nH 1 - 0\nFRONTIER 5 10\nP 01000", "line 3: program 1 listed twice"),
    ("H 1 - 0\nH 1 - 0", "line 3: program 1 listed twice"),  # no trailer
    # ... but not before a malformed line before it.
    ("H 1 - 0\nH zz - 1\nH 1 - 0\nFRONTIER 5 10", "line 3: malformed H record"),
    # A non-program comes before a missing program, and the first of two
    # in file order is named.
    ("H 1 - 0\nH 01000 - 1\nP 0101\nFRONTIER 5 10", "line 4: 0101 is not a program"),
    ("P 0110\nH 1 - 0\nP 0101\nFRONTIER 5 10", "line 2: 0110 is not a program"),
]


@pytest.mark.parametrize("lines, message", TWO_FAULTS)
def test_load_names_the_first_of_two_faults(tmp_path, lines, message):
    path = tmp_path / "bad.ck"
    path.write_text(f"{CHECKPOINT_MAGIC}\n{lines}\n")
    with pytest.raises(CheckpointError) as caught:
        load(path)
    assert str(caught.value).startswith(message)


# --- the streamed census: `enumerate` writes an Extension, `omega` tallies ---


def _enumerated(state):
    """The line `enumerate` prints for a census."""
    scanned = 2 ** (state.max_len_done + 1) - 2
    halting, pending = len(state.records), len(state.pending)
    return (
        f"ENUMERATED len<={state.max_len_done} budget={state.budget} scanned={scanned}"
        f" invalid={scanned - halting - pending} halting={halting} pending={pending}\n"
    )


@pytest.mark.parametrize("workers", [1, 2, 3, 8])
def test_enumerate_writes_what_save_of_extend_writes(monkeypatch, tmp_path, capsys, workers):
    # Chunks of 7 strings: many per length, claimed by the processes in turn.
    monkeypatch.setattr(enumerator, "SCAN_CHUNK", 7)
    streamed, collected = tmp_path / "streamed.ck", tmp_path / "collected.ck"
    w = ("--workers", str(workers))
    state = extend(EnumState(0, 100, (), ()), 12, 100, workers)
    save(state, collected)
    assert main(["enumerate", "--max-len", "12", "--budget", "100", *w,
                 "--checkpoint", str(streamed)]) == 0
    assert capsys.readouterr() == (_enumerated(state), "")
    assert streamed.read_bytes() == collected.read_bytes()
    for base_budget, budget in [(1, 1), (1, 100), (100, 100)]:
        save(enumerate_programs(8, base_budget, workers), streamed)
        state = extend(load(streamed), 12, budget, workers)
        save(state, collected)
        assert main(["enumerate", "--max-len", "12", "--budget", str(budget), *w, "--resume",
                     "--checkpoint", str(streamed)]) == 0
        assert capsys.readouterr() == (_enumerated(state), "")
        assert streamed.read_bytes() == collected.read_bytes(), (base_budget, budget)


def _omega(capsys, path):
    code = main(["omega", "--checkpoint", str(path), "--bits", "24"])
    out, err = capsys.readouterr()
    return code, out, err


def _report(state):
    return format_report(from_state(state), len(state.records), len(state.pending), 24) + "\n"


@pytest.mark.parametrize("max_len, budget", [(0, 5), (1, 0), (5, 100), (10, 1), (12, 100)])
def test_omega_reports_what_the_loaded_census_gives(tmp_path, capsys, max_len, budget):
    path = tmp_path / "census.ck"
    save(enumerate_programs(max_len, budget), path)
    assert _omega(capsys, path) == (0, _report(load(path)), "")
    assert tally(path) == _tally_of(load(path))


def _tally_of(state):
    counts = [0] * (state.max_len_done + 1)
    for rec in state.records:
        counts[len(rec.program)] += 1
    return Tally(state.max_len_done, state.budget, tuple(counts), len(state.pending))


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_omega_takes_a_shuffled_checkpoint(tmp_path, capsys, monkeypatch, newline):
    path = tmp_path / "census.ck"
    head, *records, trailer = canonical_text(10, 100).splitlines()
    random.Random(24).shuffle(records)
    path.write_bytes(newline.join([head, *records, trailer, ""]).encode("ascii"))
    monkeypatch.setattr(Path, "read_text", None)  # only a refused file is read whole
    assert _omega(capsys, path) == (0, _report(enumerate_programs(10, 100)), "")


def test_omega_reads_a_canonical_checkpoint_without_load(tmp_path, capsys, monkeypatch):
    path = tmp_path / "census.ck"
    save(enumerate_programs(12, 100), path)
    monkeypatch.setattr(enumerator, "load", None)  # any call of it would fail
    assert _omega(capsys, path) == (0, _report(enumerate_programs(12, 100)), "")


def _faulty_checkpoints():
    """(id, text) of checkpoints `load` rejects: every fault of the load
    tables above, and a one-record forgery of each kind."""
    cases = {"wrong magic": "OMEGALAB v2\nFRONTIER 0 0\n"}
    for record, _ in MALFORMED_FIELDS:
        cases[record] = f"{CHECKPOINT_MAGIC}\nH 1 - 0\n{record}\nFRONTIER 5 100\n"
    cases["no trailer"] = f"{CHECKPOINT_MAGIC}\nH 1 - 0\n"
    cases["header only"] = CHECKPOINT_MAGIC
    cases["after trailer"] = f"{CHECKPOINT_MAGIC}\nFRONTIER 1 1\nH 1 - 0\n"
    cases["blank after trailer"] = EXPECTED_5_100 + "\n"
    cases["form feed repeat"] = EXPECTED_5_100.replace("FRONTIER", "H 1 - 0\fFRONTIER")
    cases["unknown"] = f"{CHECKPOINT_MAGIC}\nQ 101\nFRONTIER 1 1\n"
    for first, second in [("H 1 - 0", "H 1 0 1"), ("H 1 - 0", "P 1"), ("P 1", "H 1 - 0")]:
        cases[f"{first}, {second}"] = f"{CHECKPOINT_MAGIC}\n{first}\n{second}\nFRONTIER 5 10\n"
    for records in ("H 01001 0 1", "P 01001", "H 0100 - 11", "P 01001\nH 0100 - 11"):
        cases[records] = f"{CHECKPOINT_MAGIC}\nH 1 - 0\n{records}\nFRONTIER 4 10\n"
    for lines, _ in TWO_FAULTS:
        cases[lines] = f"{CHECKPOINT_MAGIC}\n{lines}\n"
    canonical = canonical_text(10, 100)
    head, *records, trailer = canonical.splitlines()
    cases["steps over budget"] = canonical.replace("FRONTIER 10 100", "FRONTIER 10 1")
    cases["frontier too long"] = canonical.replace("FRONTIER 10", "FRONTIER 11")
    cases["a record missing"] = "\n".join([head, *records[:7], *records[8:], trailer, ""])
    cases["a record twice"] = "\n".join([head, *records[:8], *records[7:], trailer, ""])
    cases["not a program"] = canonical.replace("\nH 01000 ", "\nH 11000 ")
    cases["P twice"] = canonical.replace("P 0101111010\n", "P 0101111010\nP 0101111010\n")
    digits = "9" * 5000  # more than int() converts by default
    cases["a long step count"] = f"{CHECKPOINT_MAGIC}\nH 1 - {digits}\nFRONTIER 1 5\n"
    cases["a long FRONTIER length"] = f"{CHECKPOINT_MAGIC}\nH 1 - 0\nFRONTIER {digits} 5\n"
    cases["a long FRONTIER budget"] = f"{CHECKPOINT_MAGIC}\nH 1 - 0\nFRONTIER 1 {digits}\n"
    return cases


FAULTY = _faulty_checkpoints()


@pytest.mark.parametrize("text", FAULTY.values(), ids=FAULTY.keys())
def test_a_faulty_checkpoint_is_refused_as_load_refuses_it(tmp_path, capsys, text):
    path = tmp_path / "bad.ck"
    path.write_text(text)
    with pytest.raises(CheckpointError) as caught:
        load(path)
    refusal = (2, "", f"omegalab: error: {path}: {caught.value}\n")
    assert _omega(capsys, path) == refusal
    resume = ["enumerate", "--max-len", "12", "--budget", "100", "--resume"]
    assert main([*resume, "--checkpoint", str(path)]) == 2
    assert (2, *capsys.readouterr()) == refusal
    assert path.read_text() == text


def test_a_non_ascii_byte_deep_in_a_census_is_named_where_it_is(tmp_path, capsys):
    path = tmp_path / "census.ck"
    save(enumerate_programs(16, 1000), path)
    data = bytearray(path.read_bytes())
    position = len(data) * 3 // 4
    data[position] = 0xC3
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as caught:
        path.read_text(encoding="ascii")
    message = f"omegalab: error: {path}: {caught.value}\n"
    assert f"byte 0xc3 in position {position}:" in message
    assert _omega(capsys, path) == (2, "", message)
    assert main(["enumerate", "--max-len", "16", "--budget", "1000", "--resume",
                 "--checkpoint", str(path)]) == 2
    assert capsys.readouterr() == ("", message)
    assert path.read_bytes() == data


def _pending_as_halting(text):
    """`text` with its first P line made an H line, in canonical order."""
    head, *records, trailer = text.splitlines()
    first = next(line for line in records if line.startswith("P "))
    records[records.index(first)] = f"H {first[2:]} - 0"
    records.sort(key=lambda line: (line[0] == "P", len(line.split()[1]), line.split()[1]))
    return "\n".join([head, *records, trailer, ""])


SECOND_READS = {
    "steps over budget": lambda text: text.replace("FRONTIER 10 100", "FRONTIER 10 1"),
    "a record missing": lambda text: text.replace("H 01000 - 1\n", ""),
    "an H for a P": _pending_as_halting,
    "cut short": lambda text: text[: len(text) // 2],
    "P list changed": lambda text: text.replace("P 0101110010\n", "P 0101110010\nP 01\n"),
    "content after trailer": lambda text: text + "P 1\n",
    "another census": lambda text: canonical_text(10, 1000),
    "a larger census": lambda text: canonical_text(11, 100),
    "the same census": lambda text: text,
}


@pytest.mark.parametrize("second", SECOND_READS.values(), ids=SECOND_READS.keys())
def test_a_checkpoint_that_changes_between_reads_is_not_trusted(
    tmp_path, capsys, monkeypatch, second
):
    # The file is rewritten just before omega reads it the second time;
    # omega must then report on that file as load reads it, or refuse it.
    path = tmp_path / "census.ck"
    first = canonical_text(10, 100)
    assert "\nP 0101110010\n" in first
    path.write_text(first)
    reads = []
    file_lines = enumerator._file_lines

    def rewritten(fh):
        reads.append(fh.tell())
        if len(reads) == 2:
            path.write_text(second(first))
        return file_lines(fh)

    monkeypatch.setattr(enumerator, "_file_lines", rewritten)
    result = _omega(capsys, path)
    assert reads[:2] == [0, 0]  # the second read starts over, after the rewrite
    try:
        state = load(path)
    except CheckpointError as exc:
        assert result == (2, "", f"omegalab: error: {path}: {exc}\n")
    else:
        assert result == (0, _report(state), "")


def test_a_checkpoint_that_changes_at_each_second_read_is_refused(tmp_path, capsys, monkeypatch):
    # Each refused read finds no fault when the file is read whole, so the
    # file is read once more, and then refused: never read in a loop.
    path = tmp_path / "census.ck"
    texts = [canonical_text(10, 100), canonical_text(10, 1000)]
    path.write_text(texts[0])
    reads = []
    file_lines = enumerator._file_lines

    def rewritten(fh):
        reads.append(fh.tell())
        if len(reads) % 2 == 0:
            path.write_text(texts[len(reads) // 2 % 2])
        return file_lines(fh)

    monkeypatch.setattr(enumerator, "_file_lines", rewritten)
    message = f"omegalab: error: {path}: changed each time it was read\n"
    assert _omega(capsys, path) == (2, "", message)
    assert reads == [0, 0, 0, 0]


def _mutant(rng, text):
    """`text` with up to three random edits (records shuffled, a line
    dropped, repeated or moved, a bit flipped, a field replaced, a stray
    line boundary or space), then LF, CRLF or CR line breaks, with or
    without a final one."""
    lines = text.splitlines()
    for _ in range(rng.randrange(4)):
        if not lines:
            break
        i, edit = rng.randrange(len(lines)), rng.randrange(7)
        line = lines[i]
        if edit == 0:
            body = lines[1:-1]
            rng.shuffle(body)
            lines[1:-1] = body
        elif edit == 1:
            del lines[i]
        elif edit == 2:
            lines.insert(rng.randrange(len(lines) + 1), line)
        elif edit == 3:
            del lines[i]
            lines.insert(rng.randrange(len(lines) + 1), line)
        elif edit == 4 and ("0" in line or "1" in line):
            j = rng.choice([j for j, c in enumerate(line) if c in "01"])
            lines[i] = line[:j] + ("1" if line[j] == "0" else "0") + line[j + 1 :]
        elif edit == 5:
            fields = line.split(" ")
            fields[rng.randrange(len(fields))] = rng.choice(["", "x", "2", "-", "0", "99", "H"])
            lines[i] = " ".join(fields)
        else:
            j = rng.randrange(len(line) + 1)
            lines[i] = line[:j] + rng.choice(["\f", "\v", "\x1c", "\r", " "]) + line[j:]
    newline = rng.choice(["\n", "\r\n", "\r"])
    return newline.join(lines) + newline * rng.randrange(2)


def _outcome(read, path):
    try:
        return read(path)
    except CheckpointError as exc:
        return str(exc)


def test_tally_counts_what_load_reads_of_mutated_checkpoints(tmp_path):
    # Both go through one reader: each mutant is either counted by tally as
    # load reads it, or refused by both with the same message.
    rng = random.Random(25)
    texts = [canonical_text(8, budget) for budget in (2, 100)]
    path = tmp_path / "census.ck"
    accepted = 0
    for _ in range(1000):
        path.write_bytes(_mutant(rng, rng.choice(texts)).encode("ascii"))
        loaded, counted = _outcome(load, path), _outcome(tally, path)
        if isinstance(loaded, EnumState):
            accepted += 1
            loaded = _tally_of(loaded)
        assert counted == loaded
    assert 100 < accepted < 900, accepted


def test_the_census_commands_hold_no_census(tmp_path, capsys):
    # Beyond what a bare `run` call costs (the CLI's own), enumerate and
    # omega each peak below half of what load peaks at on the same 16-bit
    # checkpoint, which is about the census held whole; so does omega on a
    # copy of it with CRLF line breaks.
    path, crlf = tmp_path / "census.ck", tmp_path / "crlf.ck"
    calls = {
        "run": ["run", "--program", "01001", "--budget", "10"],
        "enumerate": ["enumerate", "--max-len", "16", "--budget", "1000", "--workers", "1",
                      "--checkpoint", str(path)],
        "omega": ["omega", "--checkpoint", str(path)],
        "omega crlf": ["omega", "--checkpoint", str(crlf)],
    }
    for name, argv in calls.items():  # every import and first use is behind us
        if name == "omega crlf":
            crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert main(argv) == 0
    load(path)
    peaks = {}
    tracemalloc.start()
    try:
        for name, call in [*((n, lambda a=a: main(a)) for n, a in calls.items()),
                           ("load", lambda: load(path))]:
            gc.collect()
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            call()
            peaks[name] = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    for name in ("enumerate", "omega", "omega crlf"):
        assert peaks[name] - peaks["run"] < peaks["load"] / 2, peaks
