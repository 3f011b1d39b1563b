"""Per-layer call ledger: wraps the program's public entry points from outside.

A traced benchmark child installs the ledger after importing ``repro``.
Each wrapped function records its calls as spans named
``<layer>:<function>``, each with a parent (the innermost wrapped call
still open when it started).  Spans are folded in memory into one row
per ``(name, parent)`` pair - calls, total seconds and the seconds spent
in wrapped children - because the serving planner calls some entry
points millions of times; the rows are written out once, when the child
ends.  A row's self time is its total minus its children.  The hottest
entry points only count their calls, untimed.

Functions bound elsewhere by ``from module import name`` are replaced
in every loaded ``repro`` module, so a re-bound alias (the harness
imports of ``repro.eval.__main__``) is traced like the original.
"""

from __future__ import annotations

import functools
import importlib
import pathlib
import re
import sys
import time


class Ledger:
    """Span rows, named counters and distinct-content sets of one process."""

    def __init__(self):
        self.rows = {}  # (name, parent) -> [calls, total_s, child_s]
        self.counters = {}
        self.distinct = {}
        self._stack = []  # [name, child seconds] of each open span

    def add(self, name: str, amount) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def see(self, name: str, key) -> None:
        self.distinct.setdefault(name, set()).add(key)

    def timed(self, name, fn, after=None):
        """Wrap ``fn`` in a span; ``after(ledger, args, result)`` counts."""
        stack = self._stack
        rows = self.rows
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else ""
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                row = rows.get((name, parent))
                if row is None:
                    row = rows[(name, parent)] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += elapsed
                row[2] += frame[1]
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def counted(self, name, fn):
        """Count calls of a hot function without timing it."""
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] = counters.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self) -> dict:
        """The ledger as plain JSON data."""
        return {
            "spans": [
                {
                    "name": name,
                    "parent": parent,
                    "calls": calls,
                    "total_s": total,
                    "self_s": total - child,
                }
                for (name, parent), (calls, total, child) in sorted(
                    self.rows.items()
                )
            ],
            "counters": dict(sorted(self.counters.items())),
            "distinct": {k: len(v) for k, v in sorted(self.distinct.items())},
        }


def _replace_everywhere(original, replacement) -> None:
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _function(ledger, module, attr, layer, after=None, hot=False):
    original = getattr(importlib.import_module(module), attr)
    name = f"{layer}:{attr}"
    if hot:
        wrapped = ledger.counted(name, original)
    else:
        wrapped = ledger.timed(name, original, after)
    _replace_everywhere(original, wrapped)


def _method(ledger, module, cls, attr, layer, after=None, hot=False):
    owner = getattr(importlib.import_module(module), cls)
    original = owner.__dict__[attr]
    name = f"{layer}:{cls}.{attr}"
    if hot:
        setattr(owner, attr, ledger.counted(name, original))
    else:
        setattr(owner, attr, ledger.timed(name, original, after))


def _verify_rejected(ledger, args, report):
    if not report.ok:
        ledger.add("analysis.verify.rejected", 1)


def _pipeline_distinct(ledger, args, result):
    """Key a simulation by what it reads: the ops and the core's pipes.

    Register symbols print with per-process serial numbers (``A_reg#68``);
    renumbering them by first appearance makes two generations of one
    kernel compare equal.
    """
    model, trace = args[0], args[1]
    window = args[2] if len(args) > 2 else 48
    serials = {}
    ops = re.sub(
        r"#(\d+)",
        lambda m: f"#{serials.setdefault(m.group(1), len(serials))}",
        repr(trace),
    )
    machine = model.machine
    core = (machine.issue_width, machine.pipes, machine.vector_chime,
            model.vector_dispatch)
    ledger.see("sim.pipeline.distinct", (core, ops, window))


def _batch_candidates(ledger, args, result):
    ledger.add("sim.vectorized.candidates", len(args[0].m))


def _pool_jobs(ledger, args, result):
    ledger.add("tune.pool.jobs", len(args[0]))


def _cache_hit(ledger, args, record):
    if record is not None:
        ledger.add("tune.cache.hits", 1)


def _plan_configs(ledger, args, result):
    ledger.add("serve.plan.configs", len(result[1]))


def _batcher_requests(ledger, args, result):
    ledger.add("serve.batcher.requests", len(args[0]))


def _plane_outcome(ledger, args, result):
    ledger.add("serve.plane.requests", result.arrived)
    ledger.add("serve.plane.shed", len(result.shed))


def _io_bytes(ledger, args, result):
    ledger.add("io.bytes", len(args[1].encode()))


FIGURES = (
    "fig13_solo_data",
    "fig14_square_data",
    "fig15_resnet_layer_data",
    "fig16_resnet_time_data",
    "fig17_vgg_layer_data",
    "fig18_vgg_time_data",
    "thread_scaling_data",
    "threaded_instance_time_data",
)


def install() -> Ledger:
    """Wrap every traced entry point and return the ledger they fill."""
    ledger = Ledger()
    fn = functools.partial(_function, ledger)
    method = functools.partial(_method, ledger)
    gen = "repro.ukernel.generator"
    fn(gen, "generate_microkernel", "ukernel.generate")
    fn(gen, "generate_vla_microkernel", "ukernel.generate")
    ver = "repro.analysis.verifier"
    fn(ver, "verify_tile", "analysis.verify", _verify_rejected)
    fn(ver, "verify_kernel", "analysis.verify")
    method(
        "repro.sim.pipeline", "PipelineModel", "steady_cycles_per_iter",
        "sim.pipeline", _pipeline_distinct,
    )
    method(
        "repro.sim.timing", "TimingModel", "timing_for", "sim.timing",
        hot=True,
    )
    fn("repro.sim.timing", "gemm_time_model", "sim.gemm")
    fn("repro.sim.parallel", "parallel_gemm_breakdown", "sim.parallel")
    fn(
        "repro.sim.vectorized", "batch_gemm_cycles", "sim.vectorized",
        _batch_candidates,
    )
    for figure in FIGURES:
        fn("repro.eval.harness", figure, "eval.figure")
    fn("repro.tune.executor", "run_jobs", "tune.pool", _pool_jobs)
    cache = "repro.tune.cache"
    method(cache, "TuneCache", "get", "tune.cache.get", _cache_hit)
    method(cache, "TuneCache", "put", "tune.cache.put")
    fn(
        "repro.serve.placement", "search_configurations", "serve.plan",
        _plan_configs,
    )
    ex = "repro.serve.executor"
    fn(ex, "prewarm_executors", "serve.executor.prewarm")
    method(
        ex, "ModelExecutor", "batch_time_ms", "serve.executor.batch",
        hot=True,
    )
    method(
        ex, "ModelExecutor", "layer_time", "serve.executor.layer", hot=True
    )
    fn(
        "repro.serve.batcher", "simulate_serving", "serve.batcher",
        _batcher_requests,
    )
    method("repro.serve.plane", "ServePlane", "__init__", "serve.plane")
    fn("repro.serve.plane", "run_trace", "serve.plane", _plane_outcome)
    pathlib.Path.write_text = ledger.timed(
        "io:Path.write_text", pathlib.Path.write_text, _io_bytes
    )
    return ledger
