"""omegalab benchmark: time the real CLI on fixed workloads and check every output.

    python3 perfbench/run.py --workload census|deepen|elegance|all \\
        --seed N --seconds S --trace 0|1

Each CLI call is a cold ``python -m omegalab`` process started from this
one benchmark process, one at a time (a closed loop with one client). A
workload is set up several times (``setup_s`` is the median), then its
pass of CLI calls is repeated while it fits in ``--seconds``; timings are
medians over the passes. Every output is checked against sha256 pins taken at
commit 226fbc4 and against facts recomputed here, never taken from the
program: a call with a wrong exit code or a wrong output counts in
``failed``.

With ``--trace 1`` untraced passes alternate with traced ones, in which
each call runs under ``tracer.py``; the last stdout line then carries the
per-layer metrics and the tracing overhead instead of the end-to-end ones.
``--workload all`` runs the three workloads in turn and prints a combined
line. Workload reasons and the layer-to-metric map are in README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from tracer import MODULES

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "work"
TRACER = BENCH_DIR / "tracer.py"
LAUNCHER = BENCH_DIR / "launch.py"

# One invocation must end inside 180 s; `--workload all` shares this limit
# between its workloads.
RUN_LIMIT_S = 170
# Set-up repeats at least 5 times and until 4 s is spent (at most 25), so
# that a set-up of one short process still gets a steady median.
SETUP_REPEATS = (5, 25)
SETUP_MIN_S = 4.0

SIZES = {
    "census": {"max_len": 19, "budget": 1000, "bits": 16},
    "deepen": {
        "base_len": 16, "base_budget": 1000, "max_len": 17, "budget": 50000, "workers": 2,
    },
    "elegance": {
        "target_bits": 5, "targets": 2, "max_len": 16, "budget": 50000,
        "theory_len": 13, "prefix": 500000, "borel_budget": 1000,
    },
}

# Set-up of `elegance`: the certified theory of every valid program of at
# most N bits, written by the package's public theory API.
THEORY_SCRIPT = """
import sys
from omegalab import theory
path, max_len = sys.argv[1], int(sys.argv[2])
th = theory.theory_for_programs(theory.shorter_valid_programs(max_len + 1))
with open(path, "w", encoding="ascii") as fh:
    fh.write(th.canonical_text())
"""


@dataclass
class Call:
    label: str
    code: int
    stdout: bytes
    wall_s: float
    rss_kb: int
    traced: bool = False
    failed: bool = False


class Bench:
    """Runs CLI calls one at a time and counts the ones that fail a check."""

    def __init__(self, work: Path, deadline: float, pins: dict[str, str]):
        self.work = work
        self.deadline = deadline
        self.pins = pins
        self.attempted = 0
        self.failed = 0
        self.trace_dir: Path | None = None  # set while a traced pass runs
        self.calls: list[Call] = []  # calls of the current pass
        self.log: list[Call] = []  # every call of the run
        self.env = {k: v for k, v in os.environ.items() if k != "OMEGALAB_THREADS"}
        self.env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0")

    def cli(self, label: str, *args: str) -> Call:
        if self.trace_dir is None:
            argv = ["-m", "omegalab", *args]
        else:
            argv = [str(TRACER), "--out", str(self.trace_dir / label), "--", *args]
        return self.spawn(label, argv)

    def spawn(self, label: str, argv: list[str]) -> Call:
        """Run `python argv` to completion through launch.py, which reports
        its wall time and peak RSS; the call's stdout is kept for checking."""
        self.attempted += 1
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            call = Call(label, -1, b"", 0.0, 0, self.trace_dir is not None)
            self.calls.append(call)
            self.fail(call, "not run: the run's time limit was reached")
            return call
        out_path, err_path = self.work / "call.stdout", self.work / "call.stderr"
        launcher = subprocess.Popen(
            [sys.executable, str(LAUNCHER), str(out_path), str(err_path), "--",
             sys.executable, *argv],
            stdout=subprocess.PIPE, env=self.env, cwd=ROOT, start_new_session=True,
        )
        try:
            report, _ = launcher.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            try:
                os.killpg(launcher.pid, signal.SIGKILL)  # the launcher, the call, its workers
            except ProcessLookupError:
                pass
            report, _ = launcher.communicate()
        try:
            result = json.loads(report)
        except ValueError:
            result = {"code": -1, "wall_s": 0.0, "rss_kb": 0}
        call = Call(label, result["code"], out_path.read_bytes(), result["wall_s"],
                    result["rss_kb"], self.trace_dir is not None)
        self.calls.append(call)
        self.log.append(call)
        if call.code != 0:
            tail = err_path.read_bytes()[-400:].decode("ascii", "replace").strip()
            self.fail(call, f"exit code {call.code}: {tail}")
        return call

    def fail(self, call: Call, reason: str) -> None:
        if not call.failed:
            call.failed = True
            self.failed += 1
        print(f"perfbench: {call.label}: {reason}", file=sys.stderr)

    def expect(self, call: Call, ok: bool, reason: str) -> bool:
        if not ok:
            self.fail(call, reason)
        return ok

    def pinned(self, call: Call, key: str, data: bytes) -> None:
        digest = hashlib.sha256(data).hexdigest()
        want = self.pins.get(key)
        self.expect(call, digest == want, f"{key}: sha256 {digest} is not the pinned {want}")


# ---------------------------------------------------------------- checks
# Everything below recomputes expectations from first principles or from
# the checkpoint bytes; none of it imports the package under test.


@dataclass
class Checkpoint:
    max_len: int
    budget: int
    halting: dict[str, tuple[str, int]]  # program -> (output, steps)
    pending: set[str]


def parse_checkpoint(data: bytes) -> Checkpoint | None:
    """The checkpoint's records, or None when it is not well formed."""
    lines = data.decode("ascii", "replace").splitlines()
    if not lines or lines[0] != "OMEGALAB v1" or not lines[-1].startswith("FRONTIER "):
        return None
    halting: dict[str, tuple[str, int]] = {}
    pending: set[str] = set()
    try:
        for line in lines[1:-1]:
            fields = line.split(" ")
            if fields[0] == "H" and len(fields) == 4:
                halting[fields[1]] = ("" if fields[2] == "-" else fields[2], int(fields[3]))
            elif fields[0] == "P" and len(fields) == 2:
                pending.add(fields[1])
            else:
                return None
        _, max_len, budget = lines[-1].split(" ")
        return Checkpoint(int(max_len), int(budget), halting, pending)
    except ValueError:
        return None


ENUMERATED = re.compile(
    rb"ENUMERATED len<=(\d+) budget=(\d+) scanned=(\d+) invalid=(\d+)"
    rb" halting=(\d+) pending=(\d+)\n"
)


def check_enumerate(bench: Bench, call: Call, path: Path, max_len: int, budget: int):
    """Reconcile the report with the checkpoint: 2^(L+1)-2 strings, each
    invalid, halting or pending, the last two matching the H and P lines."""
    data = path.read_bytes() if path.exists() else b""
    key = f"enumerate L{max_len} b{budget}"
    bench.pinned(call, f"{key} stdout", call.stdout)
    bench.pinned(call, f"{key} checkpoint", data)
    ck = parse_checkpoint(data)
    match = ENUMERATED.fullmatch(call.stdout)
    if not bench.expect(call, ck is not None and match is not None, "unparsable report"):
        return None
    length, bud, scanned, invalid, halting, pending = map(int, match.groups())
    bench.expect(call, (length, bud) == (max_len, budget) == (ck.max_len, ck.budget),
                 "wrong frontier")
    bench.expect(call, scanned == 2 ** (max_len + 1) - 2 == invalid + halting + pending,
                 "scanned != 2^(L+1)-2 = invalid + halting + pending")
    bench.expect(call, (halting, pending) == (len(ck.halting), len(ck.pending)),
                 "report counts differ from the checkpoint's H and P lines")
    bench.expect(call, not ck.pending & ck.halting.keys(), "a program is both H and P")
    bench.expect(call, all(len(p) <= max_len for p in [*ck.halting, *ck.pending]),
                 "a record is longer than the frontier")
    return ck


OMEGA = re.compile(
    rb"OMEGA >= (\d+)/(\d+) = 0\.([01]*)\.\.\. \(census: len<=(\d+), budget (\d+),"
    rb" (\d+) halting, (\d+) pending\) \[lower bound only; bits not settled\]\n"
)


def check_omega(bench: Bench, call: Call, ck: Checkpoint, bits: int) -> None:
    bench.pinned(call, f"omega L{ck.max_len} b{ck.budget} bits{bits} stdout", call.stdout)
    match = OMEGA.fullmatch(call.stdout)
    if not bench.expect(call, match is not None, "unparsable omega report"):
        return
    p, q, digits, length, budget, halting, pending = match.groups()
    value = sum((Fraction(1, 2 ** len(prog)) for prog in ck.halting), Fraction(0))
    bench.expect(call, Fraction(int(p), int(q)) == value, "p/q differs from the H records")
    expansion = "".join(str(int(value * 2**k) % 2) for k in range(1, bits + 1))
    bench.expect(call, digits.decode() == expansion, "binary digits differ from p/q")
    bench.expect(
        call,
        tuple(map(int, (length, budget, halting, pending)))
        == (ck.max_len, ck.budget, len(ck.halting), len(ck.pending)),
        "census description differs from the checkpoint",
    )


def simulated_steps(bench: Bench, call: Call, base: Checkpoint, new: Checkpoint) -> int:
    """Steps a resume simulated: every re-run pending program and every new
    valid program costs its halting step count, or the whole budget."""
    bench.expect(call, all(new.halting.get(p) == r for p, r in base.halting.items()),
                 "a halting record changed on resume")
    bench.expect(call, base.pending <= new.pending | new.halting.keys(),
                 "a pending program was lost on resume")
    rerun = base.pending | {p for p in [*new.halting, *new.pending] if len(p) > base.max_len}
    return sum(new.halting[p][1] if p in new.halting else new.budget for p in rerun)


def gamma(m: int) -> str:
    return "0" * (m.bit_length() - 1) + format(m, "b")


def literal_program(s: str) -> str:
    return gamma(len(s) + 1) + "".join("01" if c == "0" else "10" for c in s)


# ------------------------------------------------------------- workloads


class Census:
    """Exhaustive census to a fresh checkpoint, then the Omega bound on it."""

    def __init__(self, bench: Bench, sizes: dict, seed: int):
        self.bench, self.s = bench, sizes  # exhaustive: the seed picks nothing

    def setup(self) -> None:
        call = self.bench.cli("census.smoke", "run", "--program", "01001", "--budget", "10")
        self.bench.expect(call, call.stdout == b"HALTED output=0 steps=1\n", "smoke output")

    def run_pass(self) -> dict[str, float]:
        s, ck = self.s, self.bench.work / "census.ck"
        ck.unlink(missing_ok=True)
        enum = self.bench.cli("census.enumerate", "enumerate", "--max-len", str(s["max_len"]),
                              "--budget", str(s["budget"]), "--checkpoint", str(ck))
        state = check_enumerate(self.bench, enum, ck, s["max_len"], s["budget"])
        omega = self.bench.cli("census.omega", "omega", "--checkpoint", str(ck),
                               "--bits", str(s["bits"]))
        if state is not None:
            check_omega(self.bench, omega, state, s["bits"])
        scanned = 2 ** (s["max_len"] + 1) - 2
        return {"enumerate_s": enum.wall_s, "omega_s": omega.wall_s,
                "strings_per_s": scanned / max(enum.wall_s, 1e-9)}


class Deepen:
    """Resume a saved census one length further at a 50x budget, in a pool."""

    def __init__(self, bench: Bench, sizes: dict, seed: int):
        self.bench, self.s = bench, sizes  # exhaustive: the seed picks nothing
        self.base_path = bench.work / "deepen-base.ck"
        self.base: Checkpoint | None = None

    def setup(self) -> None:
        s = self.s
        self.base_path.unlink(missing_ok=True)
        call = self.bench.cli("deepen.base", "enumerate", "--max-len", str(s["base_len"]),
                              "--budget", str(s["base_budget"]),
                              "--checkpoint", str(self.base_path))
        self.base = check_enumerate(self.bench, call, self.base_path, s["base_len"],
                                    s["base_budget"])

    def run_pass(self) -> dict[str, float]:
        s, ck = self.s, self.bench.work / "deepen.ck"
        ck.unlink(missing_ok=True)
        if self.base_path.exists():  # a failed set-up already counts in `failed`
            shutil.copyfile(self.base_path, ck)
        call = self.bench.cli("deepen.resume", "enumerate", "--resume",
                              "--max-len", str(s["max_len"]), "--budget", str(s["budget"]),
                              "--workers", str(s["workers"]), "--checkpoint", str(ck))
        new = check_enumerate(self.bench, call, ck, s["max_len"], s["budget"])
        steps = 0
        if new is not None and self.base is not None:
            steps = simulated_steps(self.bench, call, self.base, new)
        return {"enumerate_s": call.wall_s, "steps_per_s": steps / max(call.wall_s, 1e-9)}


class Elegance:
    """Elegant-program search, the provable-elegance frontier and Borel digits."""

    def __init__(self, bench: Bench, sizes: dict, seed: int):
        self.bench, self.s = bench, sizes
        n = sizes["target_bits"]
        picks = random.Random(seed).sample(range(2**n), sizes["targets"])
        self.targets = [format(i, f"0{n}b") for i in picks]
        self.theory = bench.work / "elegance.th"

    def setup(self) -> None:
        self.theory.unlink(missing_ok=True)
        n = self.s["theory_len"]
        call = self.bench.spawn("elegance.theory",
                                ["-c", THEORY_SCRIPT, str(self.theory), str(n)])
        data = self.theory.read_bytes() if self.theory.exists() else b""
        self.bench.pinned(call, f"theory L{n} file", data)

    def run_pass(self) -> dict[str, float]:
        s, bench = self.s, self.bench
        elegant_s = []
        for target in self.targets:
            call = bench.cli(f"elegance.elegant-{target}", "elegant", "--target", target,
                             "--max-len", str(s["max_len"]), "--budget", str(s["budget"]))
            # Every target of 5 bits or fewer is printed most cheaply by its
            # literal program, and every shorter program is resolved.
            witness = literal_program(target)
            want = f"TARGET {target}\nMINIMAL {len(witness)}\nWITNESS {witness}\nCERTIFIED\n"
            bench.expect(call, call.stdout == want.encode(), f"elegance report != {want!r}")
            elegant_s.append(call.wall_s)
        front = bench.cli("elegance.frontier", "theory", "frontier", "--theory", str(self.theory))
        bench.pinned(front, f"frontier L{s['theory_len']} stdout", front.stdout)
        theory_bits = 8 * self.theory.stat().st_size if self.theory.exists() else 0
        bench.expect(front, front.stdout.startswith(f"N {theory_bits} FRONTIER ".encode()),
                     "N is not 8 bits per character of the theory file")
        borel = bench.cli("elegance.borel", "borel", "--prefix", str(s["prefix"]),
                          "--budget", str(s["borel_budget"]))
        bench.pinned(borel, f"borel k{s['prefix']} b{s['borel_budget']} stdout", borel.stdout)
        bench.expect(borel, borel.stdout.count(b"\n") == s["prefix"], "wrong line count")
        return {"elegant_s": statistics.fmean(elegant_s), "frontier_s": front.wall_s,
                "borel_s": borel.wall_s}


WORKLOADS = {"census": Census, "deepen": Deepen, "elegance": Elegance}
UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB", "enumerate_s": "s",
         "omega_s": "s", "elegant_s": "s", "frontier_s": "s", "borel_s": "s",
         "strings_per_s": "1/s", "steps_per_s": "1/s"}


# ---------------------------------------------------------------- tracing


def merge_traces(paths: list[Path]) -> dict:
    functions: dict[str, dict[str, float]] = {}
    counters: dict[str, int] = {}
    raised: dict[str, int] = {}
    spans = 0
    for path in paths:
        summary = json.loads(path.read_text())
        for name, row in summary["functions"].items():
            acc = functions.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += row[key]
        for totals, part in ((counters, summary["counters"]), (raised, summary["raised"])):
            for name, value in part.items():
                totals[name] = totals.get(name, 0) + value
        spans += summary["spans"]
    return {"functions": functions, "counters": counters, "raised": raised, "spans": spans}


def layer_metrics(trace: dict) -> dict[str, float]:
    fn, cnt, raised = trace["functions"], trace["counters"], trace["raised"]

    def calls(name):
        return fn.get(name, {}).get("calls", 0)

    def secs(name):
        return fn.get(name, {}).get("s", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    steps = cnt.get("vm.execute.steps", 0)
    m = {
        "vm.decode.calls": calls("vm.decode"),
        "vm.decode.s": secs("vm.decode"),
        "vm.decode.valid_ratio": ratio(
            calls("vm.decode") - sum(n for k, n in raised.items() if k.endswith(">vm.decode")),
            calls("vm.decode"),
        ),
        "vm.execute.calls": calls("vm.execute"),
        "vm.execute.s": secs("vm.execute"),
        "vm.execute.steps": steps,
        "vm.execute.steps_per_s": ratio(steps, secs("vm.execute")),
        "vm.execute.budget_exhausted_ratio":
            ratio(cnt.get("vm.execute.budget_exhausted", 0), calls("vm.execute")),
        "vm.detect_loop.calls": calls("vm.detect_loop"),
        "vm.detect_loop.s": secs("vm.detect_loop"),
        "vm.detect_loop.certified_ratio":
            ratio(cnt.get("vm.detect_loop.certified", 0), calls("vm.detect_loop")),
        "elegant.resimulated_steps": cnt.get("elegant.resimulated_steps", 0),
        "enumerator.scan_s": secs("enumerator._scan_lengths"),
        "enumerator.refine_s": secs("enumerator.refine"),
        "enumerator.save_s": secs("enumerator.save"),
        "enumerator.save_bytes": cnt.get("enumerator.save_bytes", 0),
        "enumerator.load_s": secs("enumerator.load"),
        "omega.kraft_check_s": secs("omega.kraft_check"),
        "omega.from_state_s": secs("omega.from_state"),
        "omega.records": cnt.get("omega.records", 0),
        "theory.load_theory_s": secs("theory.load_theory"),
        "theory.prove.calls": calls("theory.prove"),
        "theory.prove_s": secs("theory.prove"),
        "theory.shorter_valid_programs.calls": calls("theory.shorter_valid_programs"),
        "theory.shorter_valid_programs_s": secs("theory.shorter_valid_programs"),
        "theory.facts": cnt.get("theory.facts", 0),
        "reals.borel_string_s": secs("reals.borel_string"),
        "reals.classify_text_s": secs("reals.classify_text"),
    }
    for name in ("scanned", "halting", "pending"):
        m[f"enumerator.{name}"] = cnt.get(f"enumerator.{name}", 0)
    m["enumerator.invalid"] = raised.get("enumerator>vm.run", 0)
    for module in MODULES:
        m[f"{module}.self_s"] = sum(
            row["self_s"] for name, row in fn.items() if name.startswith(module + ".")
        )
    m["trace.spans"] = trace["spans"]
    return m


def check_trace(bench: Bench, workload: str, m: dict[str, float], sizes: dict) -> None:
    """The traced counters must reconcile with each other and the sizes."""
    scanned = m["enumerator.scanned"]
    if scanned:
        probe = bench.calls[0]
        bench.expect(probe, scanned == m["enumerator.invalid"] + m["enumerator.halting"]
                     + m["enumerator.pending"], "traced scanned != invalid + halting + pending")
        if workload == "census":
            want = 2 ** (sizes["max_len"] + 1) - 2
            bench.expect(probe, m["vm.decode.calls"] == scanned == want,
                         f"traced vm.decode.calls and scanned should both be {want}")


# -------------------------------------------------------------- measuring


def measure(name: str, seed: int, seconds: float, trace: bool, deadline: float,
            sizes: dict | None = None, work: Path = WORK) -> tuple[Bench, dict, dict]:
    """Set up, then repeat passes for `seconds`, ending before the monotonic
    time `deadline`; (bench, metrics, details)."""
    sizes = SIZES[name] if sizes is None else sizes
    run_dir = work / name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    pins = json.loads((BENCH_DIR / "pins.json").read_text())
    bench = Bench(run_dir, deadline, pins)
    workload = WORKLOADS[name](bench, sizes, seed)

    setups: list[float] = []
    least, most = SETUP_REPEATS
    while len(setups) < least or (sum(setups) < SETUP_MIN_S and len(setups) < most):
        bench.calls = []
        workload.setup()
        setups.append(sum(c.wall_s for c in bench.calls))

    plain: list[tuple[float, dict, int]] = []  # (run_s, per-call, peak rss kB)
    traced: list[tuple[float, dict]] = []  # (run_s, layer metrics)
    started = time.monotonic()
    while True:
        round_start = time.monotonic()
        bench.calls = []
        per_call = workload.run_pass()
        plain.append((sum(c.wall_s for c in bench.calls), per_call,
                      max(c.rss_kb for c in bench.calls)))
        if trace:
            bench.calls = []
            bench.trace_dir = run_dir / "trace"
            shutil.rmtree(bench.trace_dir, ignore_errors=True)
            bench.trace_dir.mkdir()
            workload.run_pass()
            layers = layer_metrics(merge_traces(sorted(bench.trace_dir.glob("*.json"))))
            check_trace(bench, name, layers, sizes)
            traced.append((sum(c.wall_s for c in bench.calls), layers))
            bench.trace_dir = None
        # Start another round only if it should end within `seconds`: a run
        # measures at most `seconds` (or one round), however slow the host.
        now = time.monotonic()
        round_s = now - round_start
        if now - started + round_s > seconds or now + 1.5 * round_s > bench.deadline:
            break

    run_s = statistics.median(r for r, _, _ in plain)
    details = {
        "passes": len(plain),
        "setup_runs_s": setups,
        "run_s_per_pass": [r for r, _, _ in plain],
        "per_call": {k: statistics.median(p[k] for _, p, _ in plain) for k in plain[0][1]},
    }
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": run_s,
        "peak_rss_mb": max(rss for _, _, rss in plain) / 1024,
    }
    if trace:
        traced_run_s = statistics.median(r for r, _ in traced)
        # median_low keeps counts whole and every time one that was measured
        layers = {k: statistics.median_low(m[k] for _, m in traced) for k in traced[0][1]}
        layers["trace.run_s"] = traced_run_s
        layers["trace.overhead_s"] = traced_run_s - run_s
        details["untraced"] = metrics
        metrics = layers
    return bench, metrics, details


def metric_unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("steps_per_s"):
        return "1/s"
    if name.endswith("_bytes"):
        return "B"
    return "s" if name.endswith(("_s", ".s")) else "count"


def git_sha() -> str:
    """HEAD of the checkout, read without running git (which may search
    directories above the checkout); 'unknown' outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ")[0]
    except OSError:
        pass
    return "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> tuple[dict, Bench]:
    bench, metrics, details = measure(name, seed, seconds, trace, deadline)
    env = {"seed": seed, "nproc": len(os.sched_getaffinity(0)),
           "python": platform.python_version(), "git": git_sha()}
    print(f"# {name}: " + " ".join(f"{k}={v}" for k, v in env.items())
          + f" passes={details['passes']} trace={int(trace)}")
    untraced = details.get("untraced", metrics)
    for key, value in [*untraced.items(), *details["per_call"].items()]:
        print(f"{name} {key} {value!r} {metric_unit(key)}")
    if trace:
        for key, value in metrics.items():
            print(f"{name} {key} {value!r} {metric_unit(key)}")
    print(f"{name} failed_ops {bench.failed} of {bench.attempted} calls")
    record = {**env, "workload": name, "seconds": seconds, "trace": int(trace),
              "attempted": bench.attempted, "failed": bench.failed,
              "metrics": metrics, **details}
    (WORK / f"results-{name}.json").write_text(json.dumps(record, indent=1) + "\n")
    return {k: {"value": metrics[k], "unit": unit} for k, unit in reported(trace).items()}, bench


def reported(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics that BENCHMARK.json puts on the last line."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="omegalab CLI benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "omegalab" / "cli.py").is_file():
        print(f"perfbench: no omegalab sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + RUN_LIMIT_S
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        found, bench = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
        attempted += bench.attempted
        failed += bench.failed
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in found.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
