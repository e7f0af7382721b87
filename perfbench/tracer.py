"""Run one omegalab CLI call in this process with every layer boundary traced.

    python3 perfbench/tracer.py --out OUT -- CLI_ARGS...

The omegalab package must be importable (PYTHONPATH). The run id of the
call is the file name of OUT.

Every public function of the package modules is wrapped at every module
that binds it by name (``elegant.run``, ``theory.decode``, ``vm.decode``
under ``vm.run``, ...), so a span is recorded whichever module makes the
call. Two private functions are wrapped as well because they are layer
boundaries: ``enumerator._scan_lengths`` (the census scan) and
``enumerator._scan_chunk`` (the unit of work a pool worker runs).
Generator functions are left alone: a span around one would time only the
creation of the generator. Each module's import is a span too, named
``<module>.<import>``: every cold CLI call pays it, so every layer has a
measured time on every workload.

Spans (name, parent, start, end; one run id per CLI call) are kept in
memory as flat arrays. Worker processes forked by the enumerator record
their own spans and write them to ``OUT.worker-<pid>-<n>.pickle`` after
each chunk; the parent merges them under the ``_scan_lengths`` span that
was open when the worker forked, so pool work is not lost. At the end the
call writes ``OUT.json`` (calls, inclusive and self seconds per function,
plus counters taken at the same boundaries) and ``OUT.spans`` (a pickle of
every span). Self time is a span's duration minus the part of it covered
by its child spans in the same process; a parent waiting on the pool keeps
that wait as self time.

Stdout is the CLI's own, unchanged; the exit code is the CLI's.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import importlib.abc
import importlib.machinery
import inspect
import json
import os
import pickle
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

MODULES = ("vm", "enumerator", "omega", "elegant", "theory", "reals", "cli")
PRIVATE_BOUNDARIES = {"enumerator": ("_scan_lengths", "_scan_chunk")}


class Tracer:
    def __init__(self, out: Path):
        self.run_id = out.name
        self.out = out
        self.names: list[str] = []
        # Spans as parallel flat arrays: cheap enough to keep millions.
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[list] = []  # open spans: [index, child seconds]
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.counters: Counter = Counter()
        self.raised: Counter = Counter()  # "binding>function" -> exceptions
        self.elegant_running: dict[str, int] = {}
        self.is_worker = False
        self.fork_parent = -1
        self.worker_files = 0

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return self.names.index(name)

    def wrap(self, fn, name: str, binding: str, observe):
        nid = self._name_id(name)
        stack, calls, total, self_time = self.stack, self.calls, self.total, self.self_time
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        raised, raised_key = self.raised, f"{binding}>{name}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(span_start)
            span_name.append(nid)
            span_parent.append(stack[-1][0] if stack else -1)
            span_end.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[raised_key] += 1
                raise
            finally:
                end = perf_counter()
                span_end[index] = end
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                calls[nid] += 1
                total[nid] += duration
                self_time[nid] += duration - frame[1]
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Time each module's import, then replace each traced function at
        every module that binds it."""
        sys.meta_path.insert(0, ImportSpans(self))
        modules = {name: importlib.import_module(f"omegalab.{name}") for name in MODULES}
        originals = {}
        for short, module in modules.items():
            for attr, obj in vars(module).items():
                if not inspect.isfunction(obj) or inspect.isgeneratorfunction(obj):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if home not in modules:
                    continue
                if attr.startswith("_") and attr not in PRIVATE_BOUNDARIES.get(home, ()):
                    continue
                originals[(short, attr)] = (obj, f"{home}.{obj.__name__}")
        for (short, attr), (fn, name) in originals.items():
            observe = OBSERVERS.get((short, name), OBSERVERS.get(("*", name)))
            setattr(modules[short], attr, self.wrap(fn, name, short, observe))

    def enter_worker(self) -> None:
        """After fork: keep only what this worker process records itself."""
        self.fork_parent = self.stack[-1][0] if self.stack else -1
        self.is_worker = True
        self._clear()

    def _clear(self) -> None:
        for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del arr[:]
        self.stack.clear()
        for values in (self.calls, self.total, self.self_time):
            values[:] = [0] * len(values)
        self.counters.clear()
        self.raised.clear()

    def _snapshot(self) -> dict:
        return {
            "names": list(self.names),
            "calls": list(self.calls),
            "total": list(self.total),
            "self": list(self.self_time),
            "counters": dict(self.counters),
            "raised": dict(self.raised),
            "fork_parent": self.fork_parent,
            "span_name": self.span_name,
            "span_parent": self.span_parent,
            "span_start": self.span_start,
            "span_end": self.span_end,
        }

    def flush_worker(self) -> None:
        """Hand a finished chunk's spans to the parent through a file."""
        self.worker_files += 1
        path = Path(f"{self.out}.worker-{os.getpid()}-{self.worker_files}.pickle")
        with open(path, "wb") as fh:
            pickle.dump(self._snapshot(), fh)
        self._clear()

    def _merge(self, part: dict) -> None:
        offset = len(self.span_start)
        ids = [self._name_id(name) for name in part["names"]]
        for i, nid in enumerate(ids):
            self.calls[nid] += part["calls"][i]
            self.total[nid] += part["total"][i]
            self.self_time[nid] += part["self"][i]
        self.counters.update(part["counters"])
        self.raised.update(part["raised"])
        self.span_name.extend(ids[n] for n in part["span_name"])
        self.span_parent.extend(
            part["fork_parent"] if p < 0 else p + offset for p in part["span_parent"]
        )
        self.span_start.extend(part["span_start"])
        self.span_end.extend(part["span_end"])

    def finish(self) -> None:
        for path in sorted(self.out.parent.glob(f"{self.out.name}.worker-*.pickle")):
            with open(path, "rb") as fh:
                self._merge(pickle.load(fh))
            path.unlink()
        functions = {
            name: {"calls": self.calls[i], "s": self.total[i], "self_s": self.self_time[i]}
            for i, name in enumerate(self.names)
            if self.calls[i]
        }
        summary = {
            "run_id": self.run_id,
            "functions": functions,
            "counters": dict(self.counters),
            "raised": dict(self.raised),
            "spans": len(self.span_start),
        }
        Path(f"{self.out}.json").write_text(json.dumps(summary, indent=1, sort_keys=True))
        spans = self._snapshot()
        spans["run_id"] = self.run_id
        with open(f"{self.out}.spans", "wb") as fh:
            pickle.dump(spans, fh)


class ImportSpans(importlib.abc.MetaPathFinder):
    """Wraps the loading of each package module in a ``<module>.<import>``
    span; a module imported inside another's import is a child span."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        package, _, short = fullname.rpartition(".")
        if package != "omegalab" or short not in MODULES:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is not None and spec.loader is not None:
            loader = spec.loader
            loader.exec_module = self.tracer.wrap(loader.exec_module, f"{short}.<import>",
                                                  short, None)
        return spec


# Counters taken where the work happens, on successful calls only;
# exceptions are counted per binding by the wrapper itself. Observers are
# keyed by (binding module or "*", function).


def _budget(args, kwargs) -> int:
    return kwargs["budget"] if "budget" in kwargs else args[1]


def _observe_execute(tracer, args, kwargs, result):
    steps = getattr(result, "steps", None)
    if steps is None:  # Running: the whole budget was spent
        tracer.counters["vm.execute.budget_exhausted"] += 1
        steps = _budget(args, kwargs)
    tracer.counters["vm.execute.steps"] += steps


def _observe_elegant_run(tracer, args, kwargs, result):
    if not hasattr(result, "steps"):
        tracer.elegant_running[args[0]] = _budget(args, kwargs)


def _observe_detect_loop(tracer, args, kwargs, result):
    if result is not None:
        tracer.counters["vm.detect_loop.certified"] += 1


def _observe_elegant_detect_loop(tracer, args, kwargs, result):
    # find_elegant runs each program to the budget, then asks detect_loop
    # again from scratch: the budget `run` spent is simulated twice.
    _observe_detect_loop(tracer, args, kwargs, result)
    spent = tracer.elegant_running.pop(args[0], 0)
    if result is not None:
        tracer.counters["elegant.resimulated_steps"] += spent


def _observe_scan_chunk(tracer, args, kwargs, result):
    _, lo, hi, _ = args[0]
    records, pending = result
    tracer.counters["enumerator.scanned"] += hi - lo
    tracer.counters["enumerator.halting"] += len(records)
    tracer.counters["enumerator.pending"] += len(pending)
    if tracer.is_worker and not tracer.stack:
        tracer.flush_worker()


def _observe_save(tracer, args, kwargs, result):
    tracer.counters["enumerator.save_bytes"] += os.path.getsize(args[1])


def _observe_from_state(tracer, args, kwargs, result):
    tracer.counters["omega.records"] += len(args[0].records)


def _observe_load_theory(tracer, args, kwargs, result):
    tracer.counters["theory.facts"] += len(result.facts)


OBSERVERS = {
    ("*", "vm.execute"): _observe_execute,
    ("elegant", "vm.run"): _observe_elegant_run,
    ("*", "vm.detect_loop"): _observe_detect_loop,
    ("elegant", "vm.detect_loop"): _observe_elegant_detect_loop,
    ("*", "enumerator._scan_chunk"): _observe_scan_chunk,
    ("*", "enumerator.save"): _observe_save,
    ("*", "omega.from_state"): _observe_from_state,
    ("*", "theory.load_theory"): _observe_load_theory,
}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True,
                        help="output path prefix; its file name is the run id")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    tracer = Tracer(args.out)
    tracer.install()
    from omegalab import cli
    os.register_at_fork(after_in_child=tracer.enter_worker)
    try:
        return cli.main(cli_args)
    finally:
        sys.stdout.flush()
        if not tracer.is_worker:
            tracer.finish()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
