import random

import pytest

from omegalab import theory as theory_module
from omegalab.theory import (
    CheckResult,
    Proof,
    Statement,
    StatementParseError,
    Theory,
    TheoryFileError,
    UncertifiableFact,
    Unprovable,
    certify_run_axioms,
    check_proof,
    elegance_frontier,
    load_theory,
    parse_statement,
    parse_theory_text,
    prove,
    shorter_valid_programs,
    theory_for_programs,
)
from omegalab.vm import Instruction, InvalidProgram, Op, assemble

from naive_vm import all_strings_upto, naive_loop, naive_reason, naive_run

SHORT_PROGRAMS = ("1", "01000", "01001", "01010")  # every valid program <= 6 bits


def full_theory(budget=1000):
    return theory_for_programs(SHORT_PROGRAMS, budget)


# --- statements -----------------------------------------------------------


def test_parse_simple_statements():
    assert parse_statement("(outputs 1 eps)") == Statement("outputs", "1", "")
    assert parse_statement("(elegant 01001)") == Statement("elegant", "01001")
    assert parse_statement("(halts 01000)") == Statement("halts", "01000")
    assert parse_statement("(loops 0101110010)") == Statement("loops", "0101110010")
    assert parse_statement("(outputs 01001 0)") == Statement("outputs", "01001", "0")


def test_parse_error_on_missing_argument():
    with pytest.raises(StatementParseError):
        parse_statement("(elegant )")


def test_parse_errors_carry_positions():
    with pytest.raises(StatementParseError) as err:
        parse_statement("elegant 1)")
    assert err.value.position == 0
    with pytest.raises(StatementParseError) as err:
        parse_statement("(grandiose 1)")
    assert err.value.position == 1
    with pytest.raises(StatementParseError) as err:
        parse_statement("(outputs 1 eps) ")
    assert err.value.position == 15


def test_parse_rejects_sloppy_spacing_and_bad_tokens():
    for bad in ("(outputs 1  eps)", "(halts 10x)", "(outputs 1 two)", "(halts 1", "()"):
        with pytest.raises(StatementParseError):
            parse_statement(bad)


def test_canonical_round_trip():
    for text in ("(halts 1)", "(outputs 01001 0)", "(outputs 1 eps)", "(elegant 01010)"):
        assert parse_statement(text).canonical() == text


def test_statement_validation():
    with pytest.raises(ValueError):
        Statement("halts", "")
    with pytest.raises(ValueError):
        Statement("halts", "1", output="0")
    with pytest.raises(ValueError):
        Statement("outputs", "1")


# --- certified axioms ------------------------------------------------------


def test_axioms_for_a_halting_program():
    assert certify_run_axioms("01001", 100) == [
        Statement("halts", "01001"),
        Statement("outputs", "01001", "0"),
    ]


def test_axioms_for_a_looping_program():
    assert certify_run_axioms("0101110010", 100) == [Statement("loops", "0101110010")]


def test_axioms_at_zero_budget():
    # "1" halts by fall-off in zero steps, so even budget 0 certifies it
    assert certify_run_axioms("1", 0) == [
        Statement("halts", "1"),
        Statement("outputs", "1", ""),
    ]
    # but a HALT instruction needs one step
    assert certify_run_axioms("01000", 0) == []


def test_axioms_reject_invalid_programs():
    with pytest.raises(InvalidProgram):
        certify_run_axioms("10", 100)


# --- theories --------------------------------------------------------------


def test_certified_theory_accepts_true_facts():
    theory = Theory.certified(
        [Statement("halts", "1"), Statement("outputs", "01001", "0"),
         Statement("loops", "0101110010")],
        budget=100,
    )
    assert len(theory.facts) == 3


def test_certified_theory_rejects_false_output():
    with pytest.raises(UncertifiableFact) as caught:
        Theory.certified([Statement("outputs", "01001", "1")], budget=100)
    assert str(caught.value) == "(outputs 01001 1): actual output is 0"


def test_certified_theory_rejects_false_loop():
    with pytest.raises(UncertifiableFact) as caught:
        Theory.certified([Statement("loops", "01001")], budget=100)
    assert str(caught.value) == "(loops 01001): no loop certificate within 100 steps"


@pytest.mark.parametrize(
    "fact", [Statement("halts", "0101110010"), Statement("outputs", "0101110010", "")]
)
def test_certification_says_a_looping_program_never_halts(fact):
    # 0101110010 is DJZA(-1): it is back at its start state after one step.
    with pytest.raises(UncertifiableFact) as caught:
        Theory.certified([fact])
    assert str(caught.value) == (
        f"{fact.canonical()}: never halts (control state revisited at step 1)"
    )


def test_certification_of_counter_growth_is_still_running():
    growth = assemble([Instruction(Op.INCA), Instruction(Op.DJZB, -2)]).bits
    with pytest.raises(UncertifiableFact) as caught:
        Theory.certified([Statement("halts", growth)], budget=100)
    assert str(caught.value) == f"(halts {growth}): still running after 100 steps"


def test_certified_theory_rejects_elegant_facts():
    with pytest.raises(UncertifiableFact) as caught:
        Theory.certified([Statement("elegant", "1")], budget=100)
    assert str(caught.value) == "(elegant 1): facts are limited to halts/outputs/loops"
    # The kind is checked before the program is run: 10 is not a program.
    with pytest.raises(UncertifiableFact) as caught:
        Theory.certified([Statement("elegant", "10")], budget=100)
    assert str(caught.value) == "(elegant 10): facts are limited to halts/outputs/loops"


def test_certification_classifies_each_program_once(monkeypatch):
    # Every halting program is stated twice, by a halts and an outputs fact.
    facts = theory_for_programs(shorter_valid_programs(12), budget=100).facts
    programs = [fact.program for fact in facts]
    assert len(programs) > len(set(programs))
    calls = []
    classify = theory_module.classify
    monkeypatch.setattr(
        theory_module, "classify", lambda bits, budget: calls.append(bits) or classify(bits, budget)
    )
    assert Theory.certified(facts, budget=100).facts == facts
    assert sorted(calls) == sorted(set(programs))


@pytest.mark.parametrize("budget", [0, 1, 10, 100, 1000])
def test_certified_accepts_exactly_what_the_writer_writes(budget):
    # At small budgets most programs are still running and state nothing.
    # Each candidate fact about a short program is accepted iff it is written.
    facts = theory_for_programs(shorter_valid_programs(12), budget).facts
    assert Theory.certified(facts, budget).facts == facts
    written = set(facts)
    for program in shorter_valid_programs(10):
        for fact in (
            Statement("halts", program),
            Statement("loops", program),
            Statement("outputs", program, ""),
            Statement("outputs", program, "0"),
        ):
            if fact in written:
                assert Theory.certified([fact], budget).facts == (fact,)
            else:
                with pytest.raises(UncertifiableFact):
                    Theory.certified([fact], budget)


def test_backdoor_construction_skips_certification():
    unsound = Theory((Statement("loops", "01001"),))  # false, accepted raw
    assert unsound.facts[0].kind == "loops"


def test_size_bits_is_eight_per_canonical_character():
    theory = Theory((Statement("outputs", "1", ""),))
    assert theory.canonical_text() == "(outputs 1 eps)\n"
    assert theory.size_bits == 128
    assert Theory().size_bits == 0


# --- proving ---------------------------------------------------------------


def test_facts_are_theorems():
    theory = full_theory()
    proof = prove(theory, Statement("halts", "1"))
    assert isinstance(proof, Proof)
    assert proof.rule == "FACT"
    assert check_proof(theory, proof) == CheckResult(True)


def test_elegance_of_the_empty_program():
    theory = Theory((Statement("outputs", "1", ""),))
    proof = prove(theory, Statement("elegant", "1"))
    assert isinstance(proof, Proof)
    assert proof.rule == "ELEGANT-INTRO"
    assert proof.premises == (Statement("outputs", "1", ""),)


def test_elegance_with_one_shorter_program():
    theory = Theory((Statement("outputs", "01001", "0"), Statement("outputs", "1", "")))
    proof = prove(theory, Statement("elegant", "01001"))
    assert isinstance(proof, Proof)
    assert proof.premises[0] == Statement("outputs", "01001", "0")
    assert Statement("outputs", "1", "") in proof.premises


def test_premise_choice_follows_theory_order():
    # A raw theory may state several outputs for one program. The base is
    # the goal's first outputs fact; a shorter program's premise is its
    # loops fact, else its first outputs fact with a different output.
    base = Statement("outputs", "01001", "0")
    theory = Theory(
        (
            base,
            Statement("outputs", "1", "0"),
            Statement("outputs", "1", "1"),
            Statement("outputs", "1", ""),
            Statement("outputs", "01001", "1"),
        )
    )
    proof = prove(theory, Statement("elegant", "01001"))
    assert proof.premises == (base, Statement("outputs", "1", "1"))
    theory = Theory(theory.facts + (Statement("loops", "1"),))
    proof = prove(theory, Statement("elegant", "01001"))
    assert proof.premises == (base, Statement("loops", "1"))


def test_unprovable_elegance_lists_missing_programs():
    theory = Theory((Statement("outputs", "01001", "0"),))
    result = prove(theory, Statement("elegant", "01001"))
    assert isinstance(result, Unprovable)
    assert result.missing == ("1",)


def test_unprovable_without_an_outputs_fact():
    result = prove(Theory(), Statement("elegant", "01001"))
    assert isinstance(result, Unprovable)
    assert result.missing == ("01001",)


def test_same_output_blocks_elegance():
    # "01000" outputs eps like the shorter "1": never elegant, and "1"
    # shows up as the unclassifiable side condition
    theory = full_theory()
    result = prove(theory, Statement("elegant", "01000"))
    assert isinstance(result, Unprovable)
    assert result.missing == ("1",)
    # The checker refuses the same premise when a proof offers it anyway.
    forged = Proof(
        Statement("elegant", "01000"),
        "ELEGANT-INTRO",
        (Statement("outputs", "01000", ""), Statement("outputs", "1", "")),
    )
    assert check_proof(theory, forged) == CheckResult(False, "shorter program 1 is not classified")


def test_non_elegance_goals_outside_facts_are_unprovable():
    result = prove(full_theory(), Statement("halts", "0101110010"))
    assert isinstance(result, Unprovable)
    assert result.missing == ()


def test_prover_and_checker_agree_over_short_programs():
    theory = full_theory()
    for program in SHORT_PROGRAMS:
        result = prove(theory, Statement("elegant", program))
        if isinstance(result, Proof):
            assert check_proof(theory, result) == CheckResult(True)


def without_premise(proof, drop):
    return Proof(proof.goal, proof.rule, proof.premises[:drop] + proof.premises[drop + 1 :])


def test_checker_rejects_missing_side_premise():
    theory = full_theory()
    proof = prove(theory, Statement("elegant", "01001"))
    for drop in range(1, len(proof.premises)):
        assert check_proof(theory, without_premise(proof, drop)) == CheckResult(
            False, f"shorter program {proof.premises[drop].program} is not classified"
        )


def test_checker_accepts_every_frontier_proof_of_a_9_bit_theory():
    theory = theory_for_programs(shorter_valid_programs(10), 1000)
    report = elegance_frontier(theory)
    assert report.frontier == 7 and len(report.proven) == 7
    for program in report.proven:
        proof = prove(theory, Statement("elegant", program))
        assert check_proof(theory, proof) == CheckResult(True)
    # The longest proof has several side premises: dropping any one names exactly its program.
    longest = prove(theory, Statement("elegant", report.proven[-1]))
    assert len(longest.premises) > 3
    for drop in range(1, len(longest.premises)):
        assert check_proof(theory, without_premise(longest, drop)) == CheckResult(
            False, f"shorter program {longest.premises[drop].program} is not classified"
        )


def test_checker_rejects_foreign_premise():
    theory = Theory((Statement("outputs", "1", ""),))
    proof = Proof(
        Statement("elegant", "01001"),
        "ELEGANT-INTRO",
        (Statement("outputs", "01001", "0"), Statement("outputs", "1", "")),
    )
    verdict = check_proof(theory, proof)
    assert not verdict.ok
    assert "premise not in theory" in verdict.reason


def test_checker_rejects_unknown_rule():
    theory = full_theory()
    proof = Proof(Statement("elegant", "1"), "ELEGANT-ELIM", (Statement("outputs", "1", ""),))
    assert not check_proof(theory, proof).ok


def test_checker_rejects_fact_proof_of_non_fact():
    theory = full_theory()
    assert not check_proof(theory, Proof(Statement("loops", "1"), "FACT", ())).ok


@pytest.mark.parametrize(
    "proof, reason",
    [
        (
            Proof(Statement("halts", "1"), "FACT", (Statement("outputs", "1", ""),)),
            "FACT proofs take no premises",
        ),
        (
            Proof(Statement("halts", "1"), "ELEGANT-INTRO", (Statement("outputs", "1", ""),)),
            "ELEGANT-INTRO only derives elegance statements",
        ),
        (Proof(Statement("elegant", "1"), "ELEGANT-INTRO", ()), "missing the outputs premise"),
    ],
)
def test_checker_rejects_misapplied_rules(proof, reason):
    assert check_proof(full_theory(), proof) == CheckResult(False, reason)


def test_checker_rejects_wrong_base_premise():
    theory = full_theory()
    proof = Proof(Statement("elegant", "01001"), "ELEGANT-INTRO", (Statement("outputs", "1", ""),))
    verdict = check_proof(theory, proof)
    assert not verdict.ok
    assert "first premise" in verdict.reason


def test_injected_false_loops_fact_yields_false_elegance():
    # claim (falsely) that the 5-bit "0" producer loops: the prover then
    # derives elegance of a 7-bit "0" producer, and the checker, which
    # only verifies relative to the theory, accepts. Garbage in, garbage
    # out, mechanically.
    lying = Theory(
        (
            Statement("outputs", "0110100", "0"),
            Statement("outputs", "1", ""),
            Statement("outputs", "01000", ""),
            Statement("loops", "01001"),
            Statement("outputs", "01010", "1"),
        )
    )
    proof = prove(lying, Statement("elegant", "0110100"))
    assert isinstance(proof, Proof)
    assert check_proof(lying, proof) == CheckResult(True)


def test_shorter_valid_programs_enumeration():
    assert shorter_valid_programs(1) == []
    assert shorter_valid_programs(5) == ["1"]
    assert shorter_valid_programs(6) == ["1", "01000", "01001", "01010"]


# --- frontier ---------------------------------------------------------------


def test_frontier_of_minimal_theory():
    report = elegance_frontier(Theory((Statement("outputs", "1", ""),)))
    assert report.frontier == 1
    assert report.proven == ("1",)


def test_frontier_of_empty_theory():
    report = elegance_frontier(Theory())
    assert report.frontier == 0
    assert report.proven == ()


def test_frontier_monotone_under_fact_addition():
    chain = [theory_for_programs(SHORT_PROGRAMS[:n], 1000) for n in range(5)]
    frontiers = [elegance_frontier(t).frontier for t in chain]
    assert frontiers == sorted(frontiers)
    sizes = [t.size_bits for t in chain]
    assert sizes == sorted(sizes)


def test_frontier_goal_length_cap():
    # The frontier is the length of the longest goal proven elegant.
    report = elegance_frontier(full_theory())
    assert report.frontier == max(len(p) for p in report.proven) == 5


def test_frontier_proves_what_prove_proves_on_a_13_bit_theory():
    # The theory of every valid program of up to 13 bits: the frontier
    # counts blockers, and each goal it proves is one `prove` proves.
    theory = theory_for_programs(shorter_valid_programs(14))
    report = elegance_frontier(theory)
    candidates = sorted(
        {f.program for f in theory.facts if f.kind == "outputs"}, key=lambda p: (len(p), p)
    )
    assert report.proven == tuple(
        p for p in candidates if isinstance(prove(theory, Statement("elegant", p)), Proof)
    )
    assert (len(theory.facts), report.frontier, len(report.proven)) == (498, 13, 31)


# --- frontier against a literal oracle ------------------------------------------

ORACLE_MAX_LEN = 10
OUTPUTS = ("", "0", "1", "00", "01", "10", "11")


def brute_force_programs(max_len):
    """Valid programs of 1..max_len bits in length-lex order, found by
    trying every bit string against the naive reader."""
    return [s for s in all_strings_upto(max_len) if naive_reason(s) is None]


VALID = brute_force_programs(ORACLE_MAX_LEN)


def oracle_frontier(theory):
    """ELEGANT-INTRO as its statement reads, one goal at a time.

    A goal (elegant p) for a program p with an outputs fact holds when it
    is a fact, or when, taking s from p's first outputs fact, every valid
    program shorter than p has a loops fact or an outputs fact whose
    output is not s.
    """
    facts = theory.facts
    candidates = sorted(
        {f.program for f in facts if f.kind == "outputs"}, key=lambda p: (len(p), p)
    )
    proven = []
    for p in candidates:
        s = next(f.output for f in facts if f.kind == "outputs" and f.program == p)
        if Statement("elegant", p) in facts or all(
            Statement("loops", q) in facts
            or any(f.kind == "outputs" and f.program == q and f.output != s for f in facts)
            for q in VALID
            if len(q) < len(p)
        ):
            proven.append(p)
    return tuple(proven)


def random_theory(rng):
    """Machine-true facts about valid programs, then damaged: facts
    dropped, outputs duplicated or contradicted, halting programs said to
    loop, an elegance fact, an outputs fact for a non-program, all
    shuffled, since the prover reads facts in theory order."""
    facts = []
    for q in VALID:
        if rng.random() < 0.15:
            continue
        run = naive_run(q, 100)
        if run[0] == "halted":
            facts += [Statement("halts", q), Statement("outputs", q, run[1])]
        elif naive_loop(q, 100) is not None:
            facts.append(Statement("loops", q))
    for _ in range(rng.randrange(6)):
        facts.append(Statement("outputs", rng.choice(VALID), rng.choice(OUTPUTS)))
    for _ in range(rng.randrange(3)):
        facts.append(rng.choice([f for f in facts if f.kind == "outputs"]))
    for _ in range(rng.randrange(3)):
        facts.append(Statement("loops", rng.choice(VALID)))
    if rng.random() < 0.5:
        facts.append(Statement("elegant", rng.choice(VALID)))
    if rng.random() < 0.3:
        bits = "".join(rng.choice("01") for _ in range(rng.randrange(1, ORACLE_MAX_LEN + 1)))
        facts.append(Statement("outputs", bits, rng.choice(OUTPUTS)))
    rng.shuffle(facts)
    return Theory(tuple(facts))


def test_frontier_matches_the_literal_oracle_on_damaged_theories():
    rng = random.Random(9)
    lengths = set()
    for _ in range(100):
        theory = random_theory(rng)
        report = elegance_frontier(theory)
        assert report.proven == oracle_frontier(theory)
        assert report.frontier == max((len(p) for p in report.proven), default=0)
        lengths.add(report.frontier)
        for p in report.proven:
            proof = prove(theory, Statement("elegant", p))
            assert isinstance(proof, Proof)
            assert check_proof(theory, proof) == CheckResult(True)
    assert len(lengths) > 3  # the damage moves the frontier, not only the facts


# --- theory files ------------------------------------------------------------


def test_parse_theory_text_with_comments():
    facts = parse_theory_text("# census facts\n(outputs 1 eps)\n\n(halts 01001)\n")
    assert facts == (Statement("outputs", "1", ""), Statement("halts", "01001"))


def test_parse_theory_text_names_bad_line():
    with pytest.raises(TheoryFileError, match="line 2"):
        parse_theory_text("(outputs 1 eps)\n(outputs 1)\n")


def test_load_theory_rejects_a_fact_about_a_non_program(tmp_path):
    path = tmp_path / "facts.th"
    path.write_text("(halts 0)\n")
    with pytest.raises(UncertifiableFact) as caught:
        load_theory(path, budget=100)
    assert str(caught.value) == "(halts 0): invalid program (MalformedGamma)"


def test_load_theory_certifies(tmp_path):
    path = tmp_path / "facts.th"
    path.write_text("(outputs 1 eps)\n(outputs 01001 0)\n")
    theory = load_theory(path, budget=100)
    assert len(theory.facts) == 2
    path.write_text("(loops 01001)\n")
    with pytest.raises(UncertifiableFact):
        load_theory(path, budget=100)
