"""Fast self-test of the benchmark itself, at tiny sizes (under 30 s).

    python3 perfbench/selftest.py

Runs one untraced and one traced pass of each workload. It fails unless
every output check passes, the traced counters reconcile (on `census`,
vm.decode.calls = 2^(L+1)-2 = scanned = invalid + halting + pending), the
worker processes of `deepen` hand their spans back, every module has a
measured self time on every workload, and every traced call prints the
same stdout as its untraced twin.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench_run  # noqa: E402

TINY = {
    "census": {"max_len": 8, "budget": 100, "bits": 8},
    "deepen": {"base_len": 7, "base_budget": 100, "max_len": 8, "budget": 1000, "workers": 2},
    "elegance": {
        "target_bits": 2, "targets": 2, "max_len": 8, "budget": 1000,
        "theory_len": 8, "prefix": 2000, "borel_budget": 100,
    },
}


def main() -> int:
    problems = []
    for name, sizes in TINY.items():
        bench, layers, _ = bench_run.measure(
            name, seed=1, seconds=0, trace=True, deadline=time.monotonic() + bench_run.RUN_LIMIT_S,
            sizes=sizes, work=bench_run.WORK / "selftest",
        )
        if bench.failed:
            problems.append(f"{name}: {bench.failed} of {bench.attempted} calls failed")
        plain = {c.label: c.stdout for c in bench.log if not c.traced}
        traced = {c.label: c.stdout for c in bench.log if c.traced}
        for label in sorted(traced):
            if traced[label] != plain.get(label):
                problems.append(f"{label}: traced stdout differs from untraced")
        if name == "deepen" and layers["enumerator.scanned"] != 2 ** sizes["max_len"]:
            problems.append("deepen: worker spans were not collected")
        untimed = [m for m in bench_run.MODULES if not layers[f"{m}.self_s"] > 0]
        if untimed:
            problems.append(f"{name}: no time measured for {', '.join(untimed)}")
        print(f"selftest {name}: {bench.attempted} calls, {int(layers['trace.spans'])} spans,"
              f" tracing overhead {layers['trace.overhead_s']:.3f} s")
    for problem in problems:
        print(f"selftest: FAIL {problem}", file=sys.stderr)
    print("selftest: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
