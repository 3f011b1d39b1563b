"""Out-of-order pipeline model for micro-kernel steady-state throughput.

The model executes the k-loop instruction trace of a scheduled kernel on an
abstract core described by a :class:`~repro.isa.machine.MachineModel`:

* every instruction occupies one slot on its functional-unit class
  (``fma`` / ``load`` / ``store`` / ``alu``), with per-cycle unit counts
  from the machine description;
* vector operations (fma, vector load/store) additionally share the
  *vector dispatch* slots — on Carmel, two per cycle.  This captures the
  empirical ~85% FMA efficiency of the hand-written kernels: the five
  operand loads per iteration steal vector slots from the 24 FMAs;
* results become available ``latency`` cycles after issue; consumers wait;
* issue is out-of-order with an unbounded window (Carmel's ROB is far
  larger than these loop bodies), so only true dependencies and resource
  conflicts constrain the schedule;
* accumulators (read-modify-write destinations) form loop-carried chains —
  the mechanism that throttles small register tiles (a 4x4 tile has four
  independent chains of latency-4 FMAs: at most one FMA per cycle no
  matter how many pipes exist).

Steady-state cycles per k-iteration are measured by simulating a window of
iterations and differencing completion times across the middle of the run.

The schedule is greedy, in trace order: each op issues at the first cycle
at or after its operands are ready where it fits.  Occupancy only grows,
so a full cycle stays full; each resource (issue slots, vector slots, one
per pipe) keeps a skip map from full cycles to the next free one, and the
search jumps over a blocked range instead of probing cycle by cycle.  The
result is memoized on the trace's content and the core's parameters.  The
stepped simulator this replaced is the test-only oracle in
``tests/test_pipeline_oracle.py``; the two agree bit for bit
(``docs/model.md``, "The pipeline scheduler").
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.codegen.asm import _flatten_calls, _find_k_loop, _window_key
from repro.core.loopir import Call, Proc, WindowExpr
from repro.core.prelude import CodegenError
from repro.isa.machine import CARMEL, MachineModel

VECTOR_PIPES = ("fma", "load", "store")


@dataclass(frozen=True)
class TraceOp:
    """One operation of the per-iteration trace."""

    pipe: str
    latency: int
    dest: Optional[tuple]  # value key, None for stores
    srcs: Tuple[tuple, ...]
    accumulate: bool = False  # dest is also a source (loop-carried)
    name: str = ""


@dataclass
class KernelTrace:
    """The k-loop body of a kernel as a flat operation list.

    ``prologue_vector_ops``/``epilogue_vector_ops`` count the C-tile loads
    and stores outside the k-loop (amortized per kernel invocation).
    """

    ops: List[TraceOp]
    flops_per_iter: int
    prologue_vector_ops: int
    epilogue_vector_ops: int
    extra_call_cycles: float = 0.0

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for op in self.ops:
            out[op.pipe] = out.get(op.pipe, 0) + 1
        return out


def trace_from_kernel(kernel, extra_alu_per_iter: int = 0) -> KernelTrace:
    """Build the per-iteration trace of a :class:`GeneratedKernel`.

    ``extra_alu_per_iter`` injects bookkeeping operations — used by the
    baseline models to represent compiler-generated addressing overhead in
    intrinsics code.
    """
    ir: Proc = kernel.proc.ir
    kloop = _find_k_loop(ir)
    calls = _flatten_calls(kloop.body)
    ops: List[TraceOp] = []
    for call in calls:
        ops.append(_op_from_call(call))
    for _ in range(extra_alu_per_iter):
        ops.append(TraceOp("alu", 1, None, (), name="addr"))
    # loop bookkeeping: increment, compare, branch
    for name in ("add", "cmp", "b"):
        ops.append(TraceOp("alu", 1, None, (), name=name))
    pro, epi = _tile_transfer_ops(ir, kloop)
    return KernelTrace(
        ops=ops,
        flops_per_iter=kernel.flops_per_k(),
        prologue_vector_ops=pro,
        epilogue_vector_ops=epi,
    )


def _op_from_call(call: Call) -> TraceOp:
    info = call.proc.instr
    if info is None:
        raise CodegenError(f"call to non-instruction {call.proc.name}")
    dest: Optional[tuple] = None
    srcs: List[tuple] = []
    accumulate = False
    formals = call.proc.args
    if info.pipe in ("load", "alu"):
        if call.args and isinstance(call.args[0], WindowExpr):
            dest = _window_key(call.args[0])
    elif info.pipe == "store":
        for actual in call.args[1:]:
            if isinstance(actual, WindowExpr):
                srcs.append(_window_key(actual))
    elif info.pipe == "fma":
        dest = _window_key(call.args[0])

        # the first argument of every FMA-class instruction is dst (also read)
        accumulate = _writes_are_reductions(call.proc)
        for actual in call.args[1:]:
            if isinstance(actual, WindowExpr):
                srcs.append(_window_key(actual))
        if accumulate and dest is not None:
            srcs.append(dest)
    return TraceOp(
        pipe=info.pipe,
        latency=info.latency,
        dest=dest,
        srcs=tuple(srcs),
        accumulate=accumulate,
        name=call.proc.name,
    )


def _writes_are_reductions(proc: Proc) -> bool:
    from repro.core.loopir import For, Reduce

    def scan(block) -> bool:
        for s in block:
            if isinstance(s, Reduce):
                return True
            if isinstance(s, For) and scan(s.body):
                return True
        return False

    return scan(proc.body)


def _tile_transfer_ops(ir: Proc, kloop) -> Tuple[int, int]:
    """Count vector ops before and after the k-loop (C tile load/store)."""
    from repro.core.loopir import For

    def count_calls(block) -> int:
        total = 0
        for s in block:
            if isinstance(s, Call):
                total += 1
            elif isinstance(s, For):

                from repro.core.affine import try_constant

                lo = try_constant(s.lo)
                hi = try_constant(s.hi)
                trip = (hi - lo) if (lo is not None and hi is not None) else 1
                total += trip * count_calls(s.body)
        return total

    seen_k = False
    pro = epi = 0
    for s in ir.body:
        if s is kloop:
            seen_k = True
            continue
        n = count_calls([s]) if isinstance(s, (Call, For)) else 0
        if seen_k:
            epi += n
        else:
            pro += n
    return pro, epi


# ---------------------------------------------------------------------------
# The scheduler
# ---------------------------------------------------------------------------

#: distinct (ops, core, window) simulations the steady-state memo keeps
_MEMO_SIZE = 512

_COUNTER_HELP = {
    "sim.pipeline.simulations": "steady-state pipeline simulations run",
    "sim.pipeline.memo_hits": "steady-state results served by the memo",
}


@dataclass
class PipelineModel:
    """Resource-and-latency scheduler for kernel traces."""

    machine: MachineModel = CARMEL

    def _dispatch_width(self) -> int:
        return self.machine.pipe_count("fma")

    @property
    def vector_dispatch(self) -> int:
        """Vector dispatch slots per cycle: the machine's FMA pipe count.

        Part of the simulation key ``perfbench/ledger.py`` records.
        """
        return self._dispatch_width()

    def steady_cycles_per_iter(
        self, trace: KernelTrace, window: int = 48
    ) -> float:
        """Simulate ``window`` k-iterations; return steady-state cycles/iter.

        The result depends only on the ops' content and the core's
        pipes, issue width, chime and dispatch width, so it is memoized
        on those: regenerating a kernel does not re-simulate it.
        """
        machine = self.machine
        return _steady_state(
            _signature(trace.ops),
            machine.pipes,
            machine.issue_width,
            machine.vector_chime,
            self._dispatch_width(),
            window,
        )


def _signature(ops: List[TraceOp]) -> tuple:
    """The ops as the scheduler reads them, value keys renumbered.

    Register symbols carry per-process serial numbers, so two generations
    of one kernel differ only in their keys.  The scheduler only tests
    keys and ``(key, iteration)`` pairs for equality, and a register key
    is never such a pair, so numbering each distinct key by first
    appearance changes no schedule and makes the two one memo entry.
    """
    ids: Dict[tuple, int] = {}

    def number(key: tuple) -> int:
        return ids.setdefault(key, len(ids))

    return tuple(
        (
            op.pipe,
            op.latency,
            None if op.dest is None else number(op.dest),
            tuple(number(src) for src in op.srcs),
            op.accumulate,
        )
        for op in ops
    )


def memo_counters() -> Dict[str, int]:
    """Steady-state simulations run and memo hits served in this process."""
    info = _steady_state.cache_info()
    return {
        "sim.pipeline.simulations": info.misses,
        "sim.pipeline.memo_hits": info.hits,
    }


def export_memo_counters(metrics, since: Dict[str, int]) -> None:
    """Add one run's simulations and memo hits to ``metrics``.

    ``since`` is :func:`memo_counters` taken when the run started; the
    memo is process-wide, so only the difference belongs to the run.
    """
    for name, value in memo_counters().items():
        metrics.counter(name, help=_COUNTER_HELP[name]).inc(
            value - since[name]
        )


class _Resource:
    """Per-cycle occupancy of one resource, with a skip map over full cycles.

    Occupancy only grows, so a full cycle stays full.  ``skip`` maps every
    full cycle to a later cycle no further than the next one that is not
    full (union-find with path compression).
    """

    __slots__ = ("cap", "used", "skip")

    def __init__(self, cap: int):
        self.cap = cap
        self.used: Dict[int, int] = {}
        self.skip: Dict[int, int] = {}

    def next_free(self, cycle: int) -> int:
        """The first cycle at or after ``cycle`` that is not full."""
        skip = self.skip
        root = cycle
        while root in skip:
            root = skip[root]
        while cycle != root:
            nxt = skip[cycle]
            skip[cycle] = root
            cycle = nxt
        return root

    def take(self, cycle: int) -> None:
        """Occupy one slot at ``cycle``, which must not be full."""
        used = self.used.get(cycle, 0) + 1
        self.used[cycle] = used
        if used >= self.cap:
            self.skip[cycle] = cycle + 1


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _steady_state(
    ops: tuple,
    pipes: Tuple[Tuple[str, int], ...],
    issue_width: int,
    vector_chime: int,
    vec_width: int,
    window: int,
) -> float:
    """Greedy schedule of ``window`` iterations of the signature ``ops``."""
    issue = _Resource(issue_width)
    vector = _Resource(vec_width)
    units: Dict[str, _Resource] = {}
    plan = []
    for pipe, latency, dest, srcs, accumulate in ops:
        if pipe not in units:
            cap = next((n for name, n in pipes if name == pipe), 1)
            units[pipe] = _Resource(cap)
        # vector ops occupy their unit for the machine's chime count
        # (RVV cores with a datapath narrower than VLEN)
        is_vec = pipe in VECTOR_PIPES
        plan.append((
            units[pipe],
            vector if is_vec else None,
            vector_chime if is_vec else 1,
            latency, dest, srcs, accumulate,
        ))

    ready: Dict[object, int] = {}
    iter_finish: List[int] = []
    for it in range(window):
        finish = 0
        for unit, vec, chime, latency, dest, srcs, accumulate in plan:
            start = 0
            for src in srcs:
                key = src if accumulate and dest == src else (src, it)
                if key in ready:
                    start = max(start, ready[key])
                elif src in ready:
                    start = max(start, ready[src])
            cycle = _first_fit(start, chime, unit, vec, issue)
            for cc in range(cycle, cycle + chime):
                unit.take(cc)
                if vec is not None:
                    vec.take(cc)
            issue.take(cycle)
            done = cycle + (chime - 1) + latency
            if dest is not None:
                if accumulate:
                    ready[dest] = done
                else:
                    ready[(dest, it)] = done
            finish = max(finish, done)
        iter_finish.append(finish)

    lo = window // 4
    hi = 3 * window // 4
    return (iter_finish[hi] - iter_finish[lo]) / (hi - lo)


def _first_fit(
    cycle: int,
    chime: int,
    unit: _Resource,
    vec: Optional[_Resource],
    issue: _Resource,
) -> int:
    """The first cycle ``c >= cycle`` an op can issue at.

    The issue slot must be free at ``c``, and the op's unit (and vector
    slots) at every cycle of ``[c, c + chime)``.  When cycle ``cc`` of
    that range is full, every start up to ``cc`` overlaps it and every
    start before the resource's next free cycle is itself full, so the
    search jumps straight there.
    """
    while True:
        cycle = issue.next_free(cycle)
        for cc in range(cycle, cycle + chime):
            blocked = unit.next_free(cc)
            if blocked == cc and vec is not None:
                blocked = vec.next_free(cc)
            if blocked != cc:
                cycle = blocked
                break
        else:
            return cycle
