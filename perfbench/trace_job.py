"""Run one heattrace CLI job with its layers timed from outside the program.

Usage::

    python perfbench/trace_job.py SPAN_FD CLI_ARG...

The layers are the modules of the package.  Before the CLI runs, every public
function of every layer is replaced, on every module object that holds it
(including names imported by value, such as ``rank1.c_coeff`` or
``cli.growth_report``), by a wrapper that records a span.  Module imports are
recorded as spans named ``import`` through a meta-path hook, so every layer
also carries the import cost a CLI user pays on each run.

A span is ``[layer, name, start_ns, end_ns, parent]``, where ``parent`` is the
index of the enclosing span or -1.  Spans and counters stay in memory and are
written as one JSON object to the file descriptor SPAN_FD when the job ends.
The CLI's stdout and exit code are passed through unchanged.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import json
import os
import sys
import time
import types
from fractions import Fraction

PACKAGE = "heattrace"
LAYERS = ("exactnum", "seedpolys", "series", "rank1", "plancherel", "growth", "oracle",
          "verify", "cli")


def _bits(value) -> int:
    """Largest numerator + denominator bit length in a returned value."""
    if isinstance(value, Fraction):
        return value.numerator.bit_length() + value.denominator.bit_length()
    if isinstance(value, (tuple, list)):
        return max((_bits(v) for v in value), default=0)
    coeffs = getattr(value, "coeffs", None)  # HeatSeries
    if coeffs is not None:
        return _bits(coeffs)
    rational = getattr(value, "rational", None)  # ScaledRational
    return _bits(rational) if rational is not None else 0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters = {"rank1.max_bits": 0, "series.max_bits": 0, "series.mults": 0,
                         "plancherel.density_terms": 0, "verify.checks": 0}

    def begin(self, layer: str, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([layer, name, time.perf_counter_ns(), 0,
                           self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter_ns()
        self.stack.pop()

    def count(self, layer: str, name: str, args: tuple, out) -> None:
        c = self.counters
        if layer == "rank1":
            c["rank1.max_bits"] = max(c["rank1.max_bits"], _bits(out))
        elif layer == "series":
            c["series.max_bits"] = max(c["series.max_bits"], _bits(out))
            if name == "product":
                c["series.mults"] += len(args[0].coeffs) * len(args[1].coeffs)
        elif (layer, name) == ("plancherel", "closed_form"):
            c["plancherel.density_terms"] += len(args[0].p)
        elif (layer, name) == ("verify", "run_suite"):
            c["verify.checks"] += len(out)

    def wrap(self, fn, layer: str, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(layer, name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            self.count(layer, name, args, out)
            return out

        return traced


class _TimedLoader(importlib.abc.Loader):
    def __init__(self, loader, tracer: Tracer, layer: str) -> None:
        self._loader = loader
        self._tracer = tracer
        self._layer = layer

    def create_module(self, spec):
        return self._loader.create_module(spec)

    def exec_module(self, module) -> None:
        idx = self._tracer.begin(self._layer, "import")
        try:
            self._loader.exec_module(module)
        finally:
            self._tracer.end(idx)

    def __getattr__(self, name):
        return getattr(self._loader, name)


class _TimedImports(importlib.abc.MetaPathFinder):
    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer

    def find_spec(self, name, path, target=None):
        if not name.startswith(PACKAGE + "."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is not None and spec.loader is not None:
            spec.loader = _TimedLoader(spec.loader, self._tracer, name.rpartition(".")[2])
        return spec


def _wrap_layers(tracer: Tracer) -> None:
    wrapped = {}
    for layer in LAYERS:
        mod = sys.modules[f"{PACKAGE}.{layer}"]
        for name, obj in vars(mod).items():
            if (isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__
                    and not name.startswith("_")):
                wrapped[obj] = tracer.wrap(obj, layer, name)
    for modname, mod in list(sys.modules.items()):
        if modname == PACKAGE or modname.startswith(PACKAGE + "."):
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    setattr(mod, name, wrapped[obj])


def main(argv: list[str]) -> int:
    span_fd = int(argv[0])
    tracer = Tracer()
    sys.meta_path.insert(0, _TimedImports(tracer))
    code = 3
    try:
        cli = __import__(f"{PACKAGE}.cli", fromlist=["main"])
        _wrap_layers(tracer)
        code = cli.main(argv[1:])
    finally:
        sys.stdout.flush()
        with os.fdopen(span_fd, "w") as out:
            json.dump({"spans": tracer.spans, "counters": tracer.counters}, out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
