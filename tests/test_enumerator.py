import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from omegalab import enumerator
from omegalab.enumerator import (
    CHECKPOINT_MAGIC,
    CheckpointError,
    EnumState,
    HaltRecord,
    enumerate_programs,
    extend,
    load,
    refine,
    save,
)
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
    assert {r.program for r in state.records} == {"1", "01000", "01001", "01010"}
    assert {r.output for r in state.records} == {"", "0", "1"}
    assert state.pending == frozenset()
    assert state.max_len_done == 5 and state.budget == 100


def test_enumerate_length_one():
    state = enumerate_programs(1, 100)
    assert state.records == frozenset({HaltRecord("1", "", 0)})
    assert state.pending == frozenset()


def test_enumerate_nothing():
    state = enumerate_programs(0, 100)
    assert state.records == frozenset() and state.pending == frozenset()


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
    assert base.records <= enumerate_programs(10, 50).records
    assert base.records <= enumerate_programs(8, 500).records


def test_refine_equals_fresh_enumeration():
    assert refine(enumerate_programs(5, 0), 100) == enumerate_programs(5, 100)
    assert refine(enumerate_programs(10, 1), 300) == enumerate_programs(10, 300)


def test_refine_with_empty_pending_only_bumps_budget():
    state = enumerate_programs(5, 100)
    refined = refine(state, 200)
    assert refined.records == state.records
    assert refined.pending == frozenset()
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
def test_lines_are_splitlines_piece_by_piece(monkeypatch, tmp_path, piece):
    # load splits its text in pieces that end after a newline; whatever
    # the piece size, the lines are those of str.splitlines.
    monkeypatch.setattr(enumerator, "_LINES_PIECE", piece)
    rng = random.Random(piece)
    alphabet = ["0", "1", " ", "\n", "\n", "\r", "\r\n", "\f", "\v", "\x1c", "\x1d", "\x1e"]
    for _ in range(2000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(16)))
        assert list(enumerator._lines(text)) == text.splitlines(), repr(text)
    path = tmp_path / "census.ck"
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
    b = EnumState(5, 100, a.records, a.pending)
    assert a == b
