"""Command-line front end wiring every module into deterministic reports.

Exit codes: 0 success, 1 domain negatives (NOT FOUND, UNPROVABLE, invalid
program verdicts), 2 usage/parse/IO errors. All numeric output is exact —
bit strings and p/q rationals, never floating point — and two invocations
with equal inputs produce byte-identical reports.

A subcommand loads only the layers it runs: each handler imports its
modules when it is called, so `run` loads the machine and nothing else.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, TypeVar

if TYPE_CHECKING:
    from fractions import Fraction

    from .theory import Theory

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2

DEFAULT_OMEGA_BITS = 16

T = TypeVar("T")


class UsageError(Exception):
    """Bad input or I/O failure; reported on stderr with exit code 2."""


def _bits_value(text: str) -> str:
    from .vm import _is_bits

    if text in ("", "-"):
        return ""
    if not _is_bits(text):
        raise argparse.ArgumentTypeError("expected a bit string of 0/1 (or '-' for empty)")
    return text


def _nonneg_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError("expected a non-negative integer")
    return value


def _pos_int(text: str) -> int:
    value = _nonneg_int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("expected a positive integer")
    return value


def _parse_ratio(text: str) -> Fraction:
    """'p/q' or a bare integer, exactly; raises ValueError or ZeroDivisionError."""
    from fractions import Fraction

    numer, sep, denom = text.partition("/")
    return Fraction(int(numer), int(denom)) if sep else Fraction(int(numer))


def _rational(text: str) -> Fraction:
    try:
        return _parse_ratio(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"expected an integer ratio 'p/q' (no decimals), got {text!r}"
        ) from None


def _frac(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _read(path: str | Path, load: Callable[[str | Path], T], *errors: type[Exception]) -> T:
    """load(path), the one way in for input files: an unreadable file is a
    "cannot read <path>" usage error, non-ASCII or `errors` a "<path>" one."""
    try:
        return load(path)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except (UnicodeDecodeError, *errors) as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _data_lines(path: str | Path) -> list[tuple[int, str]]:
    """(line number, stripped text) of each line of an ASCII file that is
    neither blank nor a '#' comment."""
    text = _read(path, lambda p: Path(p).read_text(encoding="ascii"))
    return [
        (num, stripped)
        for num, line in enumerate(text.splitlines(), start=1)
        if (stripped := line.strip()) and not stripped.startswith("#")
    ]


def parse_points_file(path: str | Path) -> list[Fraction]:
    """One 'p/q' (or bare integer) per line; '#' comments; decimals rejected."""
    points: list[Fraction] = []
    for num, text in _data_lines(path):
        try:
            points.append(_parse_ratio(text))
        except (ValueError, ZeroDivisionError):
            raise UsageError(
                f"{path}: line {num}: expected integer ratio 'p/q', got {text!r}"
            ) from None
    return points


def _read_programs_file(path: str | Path) -> list[str]:
    from .vm import _is_bits

    programs: list[str] = []
    for num, text in _data_lines(path):
        if not _is_bits(text):
            raise UsageError(f"{path}: line {num}: expected a bit string, got {text!r}")
        programs.append(text)
    return programs


def _worker_count(requested: int | None) -> int:
    """--workers when given, else the CPUs this process may run on."""
    if requested is not None:
        return requested
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _emit(lines: list[str]) -> None:
    sys.stdout.write("\n".join(lines) + "\n")


def cmd_enumerate(args: argparse.Namespace) -> int:
    from . import enumerator

    workers = _worker_count(args.workers)
    checkpoint = Path(args.checkpoint)
    state = enumerator.EnumState(0, args.budget, (), ())
    if args.resume and checkpoint.exists():
        state = _read(args.checkpoint, enumerator.load, enumerator.CheckpointError)
        if args.max_len < state.max_len_done or args.budget < state.budget:
            raise UsageError(
                f"cannot resume below the saved frontier "
                f"(len<={state.max_len_done}, budget {state.budget})"
            )
    # The scan goes to the checkpoint chunk by chunk; only a resumed census is held.
    census = enumerator.Extension(state, args.max_len, args.budget, workers)
    try:
        enumerator.save(census, checkpoint)
    except OSError as exc:
        # strerror alone: the OS message names a temporary file with a random name
        raise UsageError(f"cannot write {checkpoint}: {exc.strerror or exc}") from exc
    scanned = 2 ** (census.max_len_done + 1) - 2
    valid = census.n_halting + len(census.pending)
    _emit(
        [
            f"ENUMERATED len<={census.max_len_done} budget={census.budget}"
            f" scanned={scanned} invalid={scanned - valid}"
            f" halting={census.n_halting} pending={len(census.pending)}"
        ]
    )
    return EXIT_OK


def cmd_omega(args: argparse.Namespace) -> int:
    from . import enumerator, omega

    tally = _read(args.checkpoint, enumerator.tally, enumerator.CheckpointError)
    bound = omega.from_tally(tally)
    _emit([omega.format_report(bound, sum(tally.halting), tally.pending, args.bits)])
    return EXIT_OK


def cmd_elegant(args: argparse.Namespace) -> int:
    from . import elegant

    verdict = elegant.find_elegant(args.target, args.max_len, args.budget)
    if verdict is None:
        _emit(["NOT FOUND"])
        return EXIT_DOMAIN
    lines = [f"TARGET {args.target or '-'}", f"MINIMAL {len(verdict.witnesses[0])}"]
    lines.extend(f"WITNESS {w}" for w in verdict.witnesses)
    if verdict.certified:
        lines.append("CERTIFIED")
    else:
        lines.append("UNCERTIFIED")
        lines.extend(f"UNRESOLVED {p}" for p in verdict.unresolved)
    _emit(lines)
    return EXIT_OK


def cmd_compress(args: argparse.Namespace) -> int:
    from . import elegant

    report = elegant.compression_report(args.facts, args.max_len, args.budget)
    _emit(
        [
            f"FACTS {report.facts or '-'}",
            f"BASELINE {report.baseline_bits}",
            f"BEST {report.best_bits}",
            f"PROGRAM {report.best_program}",
            f"RATIO {_frac(report.ratio)}",
            "NOTE literal baseline costs 2 bits per fact bit plus a logarithmic header",
        ]
    )
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    from . import vm

    try:
        outcome = vm.run(args.program, args.budget)
    except vm.InvalidProgram as exc:
        _emit([f"INVALID reason={exc.reason.value}"])
        return EXIT_DOMAIN
    if isinstance(outcome, vm.Halted):
        _emit([f"HALTED output={outcome.output or '-'} steps={outcome.steps}"])
    else:
        _emit([f"RUNNING budget={outcome.budget}"])
    return EXIT_OK


def cmd_diag(args: argparse.Namespace) -> int:
    from . import reals, vm

    programs = _read_programs_file(args.programs)
    streams: list[reals.DigitStream] = []
    for program in programs:
        try:
            streams.append(reals.DigitStream(program))
        except vm.InvalidProgram as exc:
            raise UsageError(f"{args.programs}: invalid program {program}: {exc}") from exc
    if len(streams) < args.digits:
        raise UsageError(f"need {args.digits} programs, file lists {len(streams)}")
    diag = reals.diagonal(streams, args.digits, args.budget)
    unverified = [str(i + 1) for i, ok in enumerate(diag.verified) if not ok]
    _emit(
        [
            "0." + "".join(str(d) for d in diag.digits),
            "UNVERIFIED " + (" ".join(unverified) if unverified else "-"),
        ]
    )
    return EXIT_OK


def cmd_cover(args: argparse.Namespace) -> int:
    from . import reals

    points = parse_points_file(args.points)
    try:
        report = reals.borel_cover(points, args.epsilon)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    lines = [f"COVER epsilon={_frac(report.epsilon)} points={len(report.intervals)}"]
    lines.extend(
        f"{iv.index} center={_frac(iv.center)} width={_frac(iv.width)}"
        for iv in report.intervals
    )
    lines.append(f"TOTAL {_frac(report.total_length)}")
    _emit(lines)
    return EXIT_OK


def cmd_borel(args: argparse.Namespace) -> int:
    from . import reals

    # Written a group at a time, so memory does not grow with --prefix.
    for piece in reals.borel_report(args.prefix, args.budget):
        sys.stdout.write(piece)
    if not args.prefix:
        _emit([])  # an empty report is one newline
    return EXIT_OK


def _load_theory(path: str, budget: int | None) -> Theory:
    """The certified theory in `path`; budget None is the theory layer's default."""
    from . import theory

    if budget is None:
        budget = theory.DEFAULT_CERT_BUDGET
    return _read(
        path,
        lambda p: theory.load_theory(p, budget),
        theory.TheoryFileError,
        theory.UncertifiableFact,
    )


def cmd_theory_prove(args: argparse.Namespace) -> int:
    from . import theory

    th = _load_theory(args.theory, args.budget)
    try:
        goal = theory.parse_statement(args.goal)
    except theory.StatementParseError as exc:
        raise UsageError(f"bad goal: {exc}") from exc
    result = theory.prove(th, goal)
    if isinstance(result, theory.Proof):
        lines = [f"PROVED {result.goal.canonical()}", f"RULE {result.rule}"]
        lines.extend(f"PREMISE {p.canonical()}" for p in result.premises)
        _emit(lines)
        return EXIT_OK
    lines = [f"UNPROVABLE {result.goal.canonical()}"]
    lines.extend(f"MISSING {q}" for q in result.missing)
    _emit(lines)
    return EXIT_DOMAIN


def cmd_theory_frontier(args: argparse.Namespace) -> int:
    from . import theory

    th = _load_theory(args.theory, args.budget)
    report = theory.elegance_frontier(th)
    lines = [f"N {report.theory_bits} FRONTIER {report.frontier}"]
    lines.extend(f"PROVEN (elegant {p})" for p in report.proven)
    _emit(lines)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omegalab",
        description="A desk-scale laboratory for program-size experiments "
        "on a fixed prefix-free toy machine.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="scan all programs up to a length at a step budget")
    p.add_argument("--max-len", type=_nonneg_int, required=True)
    p.add_argument("--budget", type=_nonneg_int, required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--resume", action="store_true", help="extend an existing checkpoint")
    p.add_argument(
        "--workers",
        type=_pos_int,
        default=None,
        help="scan in up to this many processes, never more than the chunks "
        "(default: the CPUs this process may run on)",
    )
    p.set_defaults(handler=cmd_enumerate)

    p = sub.add_parser("omega", help="halting-probability lower bound from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--bits", type=_nonneg_int, default=DEFAULT_OMEGA_BITS)
    p.set_defaults(handler=cmd_omega)

    p = sub.add_parser("elegant", help="find the smallest programs for a target output")
    p.add_argument("--target", type=_bits_value, required=True)
    p.add_argument("--max-len", type=_pos_int, required=True)
    p.add_argument("--budget", type=_nonneg_int, required=True)
    p.set_defaults(handler=cmd_elegant)

    p = sub.add_parser("compress", help="best found program vs the literal baseline")
    p.add_argument("--facts", type=_bits_value, required=True)
    p.add_argument("--max-len", type=_pos_int, required=True)
    p.add_argument("--budget", type=_nonneg_int, required=True)
    p.set_defaults(handler=cmd_compress)

    p = sub.add_parser("run", help="run one program")
    p.add_argument("--program", type=_bits_value, required=True)
    p.add_argument("--budget", type=_nonneg_int, required=True)
    p.set_defaults(handler=cmd_run)

    p = sub.add_parser("diag", help="diagonal real over a list of digit streams")
    p.add_argument("--programs", required=True, help="file with one program per line")
    p.add_argument("--digits", type=_pos_int, required=True)
    p.add_argument("--budget", type=_nonneg_int, required=True)
    p.set_defaults(handler=cmd_diag)

    p = sub.add_parser("cover", help="geometric interval cover of listed points")
    p.add_argument("--points", required=True, help="file with one 'p/q' per line")
    p.add_argument("--epsilon", type=_rational, required=True)
    p.set_defaults(handler=cmd_cover)

    p = sub.add_parser("borel", help="classify the first strings of the question language")
    p.add_argument("--prefix", type=_nonneg_int, required=True)
    p.add_argument("--budget", type=_nonneg_int, required=True)
    p.set_defaults(handler=cmd_borel)

    p = sub.add_parser("theory", help="toy formal theory commands")
    tsub = p.add_subparsers(dest="subcommand", required=True)

    tp = tsub.add_parser("prove", help="prove a goal from a theory file")
    tp.add_argument("--theory", required=True)
    tp.add_argument("--goal", required=True)
    tp.add_argument("--budget", type=_nonneg_int, default=None)
    tp.set_defaults(handler=cmd_theory_prove)

    tf = tsub.add_parser("frontier", help="largest provably elegant program size")
    tf.add_argument("--theory", required=True)
    tf.add_argument("--budget", type=_nonneg_int, default=None)
    tf.set_defaults(handler=cmd_theory_frontier)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"omegalab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
