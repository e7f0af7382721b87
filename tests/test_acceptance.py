"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to get one line per
criterion (the -v test lines, plus an explicit PASS line from each).
Everything here is exact: integer, bit-string, or rational comparisons,
with tolerances of zero throughout.
"""

import random
from fractions import Fraction

from omegalab import cli, elegant, enumerator, omega, reals, theory, vm

from naive_vm import naive_census, naive_omega

BUDGET_1K = 1_000
BUDGET_10K = 10_000


def _pass(number, message):
    print(f"ACCEPTANCE {number}: PASS - {message}")


def all_strings(max_len):
    for length in range(1, max_len + 1):
        for i in range(2**length):
            yield format(i, f"0{length}b")


def test_criterion_01_prefix_freeness_sweep():
    scanned = 0
    valid = set()
    for bits in all_strings(14):
        scanned += 1
        try:
            vm.decode(bits)
        except vm.InvalidProgram:
            continue
        valid.add(bits)
    assert scanned == 2**15 - 2
    violations = [
        (bits[:cut], bits)
        for bits in valid
        for cut in range(1, len(bits))
        if bits[:cut] in valid
    ]
    assert violations == []
    _pass(1, f"no prefix pairs among {len(valid)} valid programs of length <= 14")


def test_criterion_02_census_oracle_equivalence():
    for max_len in range(0, 11):
        state = enumerator.enumerate_programs(max_len, BUDGET_1K)
        halted, pending = naive_census(max_len, BUDGET_1K)
        ours = {(r.program, r.output, r.steps) for r in state.records}
        theirs = {(p, out, steps) for p, (out, steps) in halted.items()}
        assert ours == theirs, f"record mismatch at max_len={max_len}"
        assert set(state.pending) == pending, f"pending mismatch at max_len={max_len}"
    _pass(2, "census matches the naive scanner for every L <= 10 at budget 10^3")


def test_criterion_03_omega_exactness():
    small_state = enumerator.enumerate_programs(5, 100)
    small = omega.from_state(small_state)
    assert small.value == Fraction(19, 32)
    assert omega.binary_expansion(small, 5) == "10011"

    state = enumerator.enumerate_programs(12, BUDGET_10K)
    bound = omega.from_state(state)
    halted, _ = naive_census(12, BUDGET_10K)
    num, den = naive_omega(halted.keys(), 12)
    assert bound.value == Fraction(num, den)

    assert 0 < small.value < 1
    assert 0 < bound.value < 1
    _pass(3, f"omega >= {bound.value} at len<=12 budget 10^4, exact and below one")


def test_criterion_04_omega_monotonicity():
    budgets = (10, 100, 1000)
    values = {}
    for budget in budgets:
        for max_len in range(1, 13):
            state = enumerator.enumerate_programs(max_len, budget)
            values[(max_len, budget)] = omega.from_state(state).value
    violations = []
    for budget in budgets:
        for max_len in range(1, 12):
            if values[(max_len + 1, budget)] < values[(max_len, budget)]:
                violations.append(("len", max_len, budget))
    for max_len in range(1, 13):
        for small, large in zip(budgets, budgets[1:]):
            if values[(max_len, large)] < values[(max_len, small)]:
                violations.append(("budget", max_len, large))
    assert violations == []
    _pass(4, "lower bound non-decreasing over {1..12} x {10,100,1000}, zero violations")


def test_criterion_05_elegance_ground_truth():
    expected = {"": ("1",), "0": ("01001",), "1": ("01010",)}
    for target, witnesses in expected.items():
        verdict = elegant.find_elegant(target, 8, 100)
        assert verdict is not None and verdict.certified
        assert verdict.witnesses == witnesses
        # exhaustive re-scan at the minimal length: no missing ties
        length = len(witnesses[0])
        rescan = []
        for bits in all_strings(length):
            if len(bits) != length:
                continue
            try:
                outcome = vm.run(bits, 100)
            except vm.InvalidProgram:
                continue
            if isinstance(outcome, vm.Halted) and outcome.output == target:
                rescan.append(bits)
        assert tuple(rescan) == witnesses
    _pass(5, "certified witnesses for '', '0', '1' with no missing ties")


def test_criterion_06_theory_soundness_round_trip():
    programs = [p for p in all_strings(6) if _decodes(p)]
    assert programs == ["1", "01000", "01001", "01010"]
    facts = []
    for program in programs:
        facts.extend(theory.certify_run_axioms(program, BUDGET_1K))
    th = theory.Theory.certified(facts, BUDGET_1K)
    proofs = 0
    for program in programs:
        result = theory.prove(th, theory.Statement("elegant", program))
        if isinstance(result, theory.Unprovable):
            continue
        proofs += 1
        assert theory.check_proof(th, result).ok
        for drop in range(1, len(result.premises)):
            pruned = theory.Proof(
                result.goal,
                result.rule,
                result.premises[:drop] + result.premises[drop + 1 :],
            )
            assert not theory.check_proof(th, pruned).ok
    assert proofs == 3  # 01000 shares its output with the shorter "1"
    _pass(6, f"{proofs} elegance proofs round-trip; every pruned proof is rejected")


def _decodes(bits):
    try:
        vm.decode(bits)
    except vm.InvalidProgram:
        return False
    return True


def test_criterion_07_incompleteness_trend():
    stages = [
        [],
        ["1"],
        ["1", "01000"],
        ["1", "01000", "01001"],
        ["1", "01000", "01001", "01010"],
        ["1", "01000", "01001", "01010", "0110101"],
    ]
    table = []
    for programs in stages:
        th = theory.theory_for_programs(programs, BUDGET_1K)
        report = theory.elegance_frontier(th)
        table.append((report.theory_bits, report.frontier))
    print("N_bits frontier")
    for n_bits, frontier in table:
        print(f"{n_bits} {frontier}")
    sizes = [n for n, _ in table]
    frontiers = [f for _, f in table]
    assert sizes == sorted(sizes) and len(set(sizes)) == len(sizes)
    assert frontiers == sorted(frontiers)
    assert frontiers == [0, 1, 1, 5, 5, 7]
    _pass(7, f"frontier trend {frontiers} over nested theories of sizes {sizes}")


def test_criterion_08_diagonal_property():
    rng = random.Random(20050628)
    ops = (vm.Op.EMIT0, vm.Op.EMIT1, vm.Op.INCA, vm.Op.INCB)
    budget = 400
    verified_total = 0
    for _ in range(100):
        streams = []
        while len(streams) < 20:
            body = [vm.Instruction(rng.choice(ops)) for _ in range(rng.randrange(1, 8))]
            if rng.random() < 0.6:
                body.append(vm.Instruction(vm.Op.DJZB, -len(body) - 1))
            streams.append(reals.DigitStream(vm.assemble(body).bits))
        diag = reals.diagonal(streams, 20, budget)
        for n in range(20):
            assert diag.digits[n] in (5, 6)
            assert diag.digits[n] not in (0, 9)
            if diag.verified[n]:
                verified_total += 1
                source = reals.digit_at(streams[n], n, budget)
                assert source is not None
                assert diag.digits[n] != source
    assert verified_total > 0
    _pass(8, f"100 stream lists, {verified_total} verified digits, all in {{5,6}} and distinct")


def test_criterion_09_cover_exactness():
    for epsilon in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 1000)):
        for count in (1, 10, 64):
            points = [Fraction(i, count + 1) for i in range(1, count + 1)]
            report = reals.borel_cover(points, epsilon)
            assert report.total_length == epsilon * (1 - Fraction(1, 2**count))
            for point, interval in zip(points, report.intervals):
                assert interval.width == epsilon / 2**interval.index
                assert (
                    interval.center - interval.halfwidth
                    <= point
                    <= interval.center + interval.halfwidth
                )
    _pass(9, "total length equals eps(1 - 2^-N) exactly for all nine (eps, N) pairs")


def test_criterion_10_determinism(tmp_path, capsys):
    serial = enumerator.enumerate_programs(7, 200)
    serial_path = tmp_path / "serial.ck"
    enumerator.save(serial, serial_path)
    for workers in (2, 3, 4):
        parallel_path = tmp_path / f"workers{workers}.ck"
        enumerator.save(enumerator.enumerate_programs(7, 200, workers=workers), parallel_path)
        assert parallel_path.read_bytes() == serial_path.read_bytes()

    commands = [
        ["run", "--program", "01001", "--budget", "10"],
        ["omega", "--checkpoint", str(serial_path), "--bits", "8"],
        ["elegant", "--target", "0", "--max-len", "8", "--budget", "100"],
        ["borel", "--prefix", "25", "--budget", "50"],
    ]
    for argv in commands:
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == first
    _pass(10, "parallel checkpoints and repeated CLI reports are byte-identical")
