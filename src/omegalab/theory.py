"""A toy formal axiomatic theory whose size is measured in bits.

Statements talk about concrete programs: (halts p), (outputs p s),
(loops p), (elegant p). A theory is a finite list of facts restricted to
the first three kinds, and every fact is certifiable by running the
machine, so theories built through the normal constructors are sound by
construction. The single inference rule, ELEGANT-INTRO, derives
(elegant p) from an outputs fact for p plus a classification of every
syntactically valid shorter program. The theory's size N is eight bits
per character of its canonical serialization. elegance_frontier pairs
that N with the largest program size provably elegant: the longest
program the theory's facts can prove shortest for its output, since every
shorter program must be classified first. The paper bounds that size by
N + c, but its argument needs a universal machine, and OMV is not one
(see "A complete halting decider" in ROADMAP.md). It indexes the theory
once and walks the grammar once, whatever the number of goals it tries, and
decides each goal by counting the shorter programs that block it: one
with neither a loops nor an outputs fact blocks every goal, and one whose
outputs facts all state s blocks the goals that print s.

Constructing Theory(...) directly skips certification. That backdoor
exists for tests that need deliberately unsound theories; real theories
come from Theory.certified, theory_for_programs, or load_theory.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

from .vm import (
    Halted,
    InvalidProgram,
    LoopCert,
    _is_bits,
    _length_lex,
    _record,
    classify,
    programs,
)

KINDS = ("halts", "outputs", "loops", "elegant")
FACT_KINDS = ("halts", "outputs", "loops")
DEFAULT_CERT_BUDGET = 10_000


class StatementParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UncertifiableFact(ValueError):
    """A would-be fact the machine does not back up."""


class TheoryFileError(ValueError):
    """A theory file line that does not parse; the message names it."""


@_record
class Statement:
    kind: str
    program: str
    output: str | None = None  # "" encodes eps; None for non-outputs kinds

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown statement kind {self.kind!r}")
        if not self.program or not _is_bits(self.program):
            raise ValueError("program must be a nonempty bit string")
        if (self.output is not None) != (self.kind == "outputs"):
            raise ValueError("only outputs statements carry an output")
        if self.output and not _is_bits(self.output):
            raise ValueError("output must be a bit string")

    def canonical(self) -> str:
        if self.kind == "outputs":
            return f"(outputs {self.program} {self.output or 'eps'})"
        return f"({self.kind} {self.program})"


def parse_statement(text: str) -> Statement:
    """Parse "(keyword arg ...)" with single-space separators.

    Round-trips with Statement.canonical; the empty output is written
    "eps". Errors carry the 0-based failure position.
    """
    if not text.startswith("("):
        raise StatementParseError("expected '('", 0)
    pos = 1
    end = pos
    while end < len(text) and text[end].isalpha():
        end += 1
    kind = text[pos:end]
    if kind not in KINDS:
        raise StatementParseError(f"unknown keyword {kind!r}", pos)
    pos = end
    args: list[tuple[str, int]] = []
    for _ in range(2 if kind == "outputs" else 1):
        if pos >= len(text) or text[pos] != " ":
            raise StatementParseError("expected ' '", pos)
        pos += 1
        start = pos
        while pos < len(text) and text[pos] not in " ()":
            pos += 1
        if pos == start:
            raise StatementParseError("expected an argument", start)
        args.append((text[start:pos], start))
    if pos >= len(text) or text[pos] != ")":
        raise StatementParseError("expected ')'", pos)
    if pos + 1 != len(text):
        raise StatementParseError("trailing characters", pos + 1)
    program, program_at = args[0]
    if not _is_bits(program):
        raise StatementParseError("program must be a bit string", program_at)
    output = None
    if kind == "outputs":
        token, token_at = args[1]
        if token == "eps":
            output = ""
        elif _is_bits(token):
            output = token
        else:
            raise StatementParseError("output must be a bit string or 'eps'", token_at)
    return Statement(kind, program, output)


def _run_facts(program: str, outcome: object) -> list[Statement]:
    """The facts one `classify` outcome certifies about `program`.

    Halting yields its halts and outputs facts; a loop certificate yields
    its loops fact; otherwise nothing can be asserted. This one rule both
    writes theories (certify_run_axioms) and accepts them (Theory.certified).
    """
    if isinstance(outcome, Halted):
        return [Statement("halts", program), Statement("outputs", program, outcome.output)]
    if isinstance(outcome, LoopCert):
        return [Statement("loops", program)]
    return []


def certify_run_axioms(program: str, budget: int) -> list[Statement]:
    """Execution-grounded axioms for one program, run for at most `budget` steps."""
    return _run_facts(program, classify(program, budget))


def _refusal(fact: Statement, outcome: object, budget: int) -> str:
    """Why `outcome` does not certify `fact`: it explains, never decides."""
    if fact.kind not in FACT_KINDS:
        return f"{fact.canonical()}: facts are limited to halts/outputs/loops"
    if fact.kind == "loops":
        return f"{fact.canonical()}: no loop certificate within {budget} steps"
    if isinstance(outcome, LoopCert):
        step = outcome.revisit_step
        return f"{fact.canonical()}: never halts (control state revisited at step {step})"
    if isinstance(outcome, Halted):
        return f"{fact.canonical()}: actual output is {outcome.output or 'eps'}"
    return f"{fact.canonical()}: still running after {budget} steps"


@_record
class Theory:
    facts: tuple[Statement, ...] = ()

    def canonical_text(self) -> str:
        return "".join(f.canonical() + "\n" for f in self.facts)

    @property
    def size_bits(self) -> int:
        return 8 * len(self.canonical_text())

    @classmethod
    def certified(cls, facts, budget: int = DEFAULT_CERT_BUDGET) -> "Theory":
        """Build a theory whose every fact is in `_run_facts` of its program's
        outcome; each distinct program is classified once, however many facts state it."""
        facts = tuple(facts)
        runs: dict[str, tuple[object, list[Statement]]] = {}
        for fact in facts:
            if fact.kind in FACT_KINDS and fact.program not in runs:
                try:
                    outcome = classify(fact.program, budget)
                except InvalidProgram as exc:
                    raise UncertifiableFact(f"{fact.canonical()}: invalid program ({exc})") from exc
                runs[fact.program] = outcome, _run_facts(fact.program, outcome)
            outcome, certified = runs.get(fact.program, (None, ()))
            if fact not in certified:
                raise UncertifiableFact(_refusal(fact, outcome, budget))
        return cls(facts)


def theory_for_programs(programs, budget: int = DEFAULT_CERT_BUDGET) -> Theory:
    """The theory of everything certify_run_axioms says about `programs`."""
    return Theory(tuple(fact for p in programs for fact in certify_run_axioms(p, budget)))


@_record
class Proof:
    goal: Statement
    rule: str  # "FACT" or "ELEGANT-INTRO"
    premises: tuple[Statement, ...]


@_record
class Unprovable:
    goal: Statement
    missing: tuple[str, ...]  # shorter programs lacking a usable classification


def shorter_valid_programs(length: int) -> list[str]:
    """Every valid program of fewer than `length` bits, length-lex order.

    Purely syntactic: candidates come from the grammar, never from running.
    """
    return [bits for n in range(1, length) for bits in programs(n)]


@_record
class _Index:
    """What the prover reads of one theory, each part built once."""

    facts: frozenset[Statement]
    outputs: dict[str, list[Statement]]  # each program's outputs facts, in theory order
    loops: dict[str, Statement]  # each program's loops fact


def _index(theory: Theory) -> _Index:
    """The theory's facts, indexed once; each decider walks the grammar itself."""
    outputs: dict[str, list[Statement]] = {}
    for f in theory.facts:
        if f.kind == "outputs":
            outputs.setdefault(f.program, []).append(f)
    loops = {f.program: f for f in theory.facts if f.kind == "loops"}
    return _Index(frozenset(theory.facts), outputs, loops)


def _blocks(index: _Index, q: str) -> str | bool:
    """Which ELEGANT-INTRO goals the shorter program q leaves unproven.

    q is settled for a goal printing s by its loops fact, or else by an
    outputs fact whose output differs from s. So q blocks no goal (False)
    when it has a loops fact or two outputs facts that differ, every goal
    (True) when it has neither kind of fact, and otherwise exactly the
    goals printing the one output its outputs facts state (that output).
    """
    if q in index.loops:
        return False
    outputs = {f.output for f in index.outputs.get(q, ())}
    if len(outputs) > 1:
        return False
    return outputs.pop() if outputs else True


def prove(theory: Theory, goal: Statement) -> Proof | Unprovable:
    """Derive `goal` from the theory, deterministically.

    Facts are theorems outright. ELEGANT-INTRO: from (outputs p s) and,
    for every valid program q shorter than p, either (loops q) or
    (outputs q s_q) with s_q != s, conclude (elegant p). An Unprovable
    elegance goal lists the shorter programs whose classification is
    missing (including p itself when it has no outputs fact). The
    theory's facts are indexed once, and the grammar is walked at most
    once, below the goal's length.
    """
    index = _index(theory)
    if goal in index.facts:
        return Proof(goal, "FACT", ())
    if goal.kind != "elegant":
        return Unprovable(goal, ())
    p = goal.program
    if p not in index.outputs:
        return Unprovable(goal, (p,))
    base = index.outputs[p][0]
    premises = [base]
    missing: list[str] = []
    # A shorter program's premise is its loops fact, else its first
    # outputs fact (in theory order) whose output differs from p's.
    for q in shorter_valid_programs(len(p)):
        blocked = _blocks(index, q)
        if blocked is True or blocked == base.output:
            missing.append(q)
        elif q in index.loops:
            premises.append(index.loops[q])
        else:
            premises.append(next(f for f in index.outputs[q] if f.output != base.output))
    if missing:
        return Unprovable(goal, tuple(missing))
    return Proof(goal, "ELEGANT-INTRO", tuple(premises))


@_record
class CheckResult:
    ok: bool
    reason: str | None = None


def check_proof(theory: Theory, proof: Proof) -> CheckResult:
    """Independently re-verify a proof; rejects at the first failing step.

    The side-condition enumeration is redone from scratch, so a proof
    that silently skips a shorter valid program does not pass. The facts
    and the side premises are each indexed once, so the check is linear in
    the theory, the proof and the shorter programs.
    """
    facts = set(theory.facts)
    for premise in proof.premises:
        if premise not in facts:
            return CheckResult(False, f"premise not in theory: {premise.canonical()}")
    if proof.rule == "FACT":
        if proof.premises:
            return CheckResult(False, "FACT proofs take no premises")
        if proof.goal not in facts:
            return CheckResult(False, f"goal is not a fact: {proof.goal.canonical()}")
        return CheckResult(True)
    if proof.rule != "ELEGANT-INTRO":
        return CheckResult(False, f"unknown rule {proof.rule!r}")
    if proof.goal.kind != "elegant":
        return CheckResult(False, "ELEGANT-INTRO only derives elegance statements")
    if not proof.premises:
        return CheckResult(False, "missing the outputs premise")
    base = proof.premises[0]
    if base.kind != "outputs" or base.program != proof.goal.program:
        return CheckResult(False, "first premise must state the goal program's output")
    covered = {
        premise.program
        for premise in proof.premises[1:]
        if premise.kind == "loops" or (premise.kind == "outputs" and premise.output != base.output)
    }
    for q in shorter_valid_programs(len(proof.goal.program)):
        if q not in covered:
            return CheckResult(False, f"shorter program {q} is not classified")
    return CheckResult(True)


@_record
class FrontierReport:
    theory_bits: int
    frontier: int
    proven: tuple[str, ...]


def elegance_frontier(theory: Theory) -> FrontierReport:
    """Largest program size provably elegant, paired with the theory's N.

    Goals are tried in length-lex order over the programs that carry an
    outputs fact; nothing else can satisfy ELEGANT-INTRO, so the scan is
    finite. Each goal is decided by the rules `prove` applies, without
    building its proof: a goal is a FACT, or ELEGANT-INTRO proves it
    exactly when no shorter program blocks it (`_blocks`). The programs of
    each length are counted once, the first time a goal that long needs
    them: how many block every goal, and how many block the goals of each
    output. So the frontier is linear in the theory and the shorter
    programs, not in their product.
    Adding facts never shrinks the frontier.
    """
    candidates = sorted({f.program for f in theory.facts if f.kind == "outputs"}, key=_length_lex)
    index = _index(theory)
    blocking: Counter[str | bool] = Counter()  # _blocks value -> shorter programs with it
    counted = 1  # the programs shorter than `counted` bits are in `blocking`
    proven = []
    for p in candidates:
        for n in range(counted, len(p)):
            for q in programs(n):
                blocking[_blocks(index, q)] += 1
        counted = len(p)
        output = index.outputs[p][0].output
        if Statement("elegant", p) in index.facts or not (blocking[True] or blocking[output]):
            proven.append(p)
    frontier = max((len(p) for p in proven), default=0)
    return FrontierReport(theory.size_bits, frontier, tuple(proven))


def parse_theory_text(text: str) -> tuple[Statement, ...]:
    """One canonical statement per line; '#' lines and blank lines skipped."""
    facts: list[Statement] = []
    for num, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            facts.append(parse_statement(stripped))
        except StatementParseError as exc:
            raise TheoryFileError(f"line {num}: {exc}") from exc
    return tuple(facts)


def load_theory(path: str | Path, budget: int = DEFAULT_CERT_BUDGET) -> Theory:
    return Theory.certified(parse_theory_text(Path(path).read_text(encoding="ascii")), budget)
