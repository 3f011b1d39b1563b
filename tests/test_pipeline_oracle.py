"""Oracle-parity suite for the pipeline scheduler.

:meth:`repro.sim.pipeline.PipelineModel.steady_cycles_per_iter` computes
the greedy schedule with per-resource skip maps instead of probing one
cycle at a time.  The stepped simulator it replaced lives on here,
verbatim, as the golden oracle.  The two must agree *bit for bit* —
equality, never ``approx`` — on every micro-kernel trace the tune space
and the baselines price, and on hypothesis-drawn traces and machines.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.harness import (
    default_context,
    machine_context,
    plane_chunk_plans,
)
from repro.isa.machine import CARMEL, MachineModel
from repro.isa.targets import target
from repro.sim import pipeline
from repro.sim.pipeline import (
    VECTOR_PIPES,
    KernelTrace,
    PipelineModel,
    TraceOp,
)
from repro.tune.space import jobs_for_machine, problem_set

# ---------------------------------------------------------------------------
# The oracle: the stepped simulator, as production ran it before skip maps
# ---------------------------------------------------------------------------


@dataclass
class SteppedPipelineModel:
    """Resource-and-latency scheduler for kernel traces."""

    machine: MachineModel = CARMEL

    def _dispatch_width(self) -> int:
        return self.machine.pipe_count("fma")

    def steady_cycles_per_iter(
        self, trace: KernelTrace, window: int = 48
    ) -> float:
        """Simulate ``window`` k-iterations; return steady-state cycles/iter."""
        machine = self.machine
        vec_width = self._dispatch_width()
        ready: Dict[tuple, int] = {}
        pipe_busy: Dict[Tuple[int, str], int] = {}
        vec_busy: Dict[int, int] = {}
        issue_busy: Dict[int, int] = {}
        iter_finish: List[int] = []

        for it in range(window):
            finish = 0
            for op in trace.ops:
                start = 0
                for src in op.srcs:
                    key = src if _is_chain(op, src) else (src, it)
                    if key in ready:
                        start = max(start, ready[key])
                    elif src in ready:
                        start = max(start, ready[src])
                # vector ops occupy their unit for the machine's chime
                # count (RVV cores with a datapath narrower than VLEN)
                chime = (
                    machine.vector_chime if op.pipe in VECTOR_PIPES else 1
                )
                cycle = start
                while not self._can_issue(
                    cycle, op, chime, machine, vec_width,
                    pipe_busy, vec_busy, issue_busy,
                ):
                    cycle += 1
                for cc in range(cycle, cycle + chime):
                    pipe_busy[(cc, op.pipe)] = (
                        pipe_busy.get((cc, op.pipe), 0) + 1
                    )
                    if op.pipe in VECTOR_PIPES:
                        vec_busy[cc] = vec_busy.get(cc, 0) + 1
                issue_busy[cycle] = issue_busy.get(cycle, 0) + 1
                done = cycle + (chime - 1) + op.latency
                if op.dest is not None:
                    if op.accumulate:
                        ready[op.dest] = done
                    else:
                        ready[(op.dest, it)] = done
                finish = max(finish, done)
            iter_finish.append(finish)

        lo = window // 4
        hi = 3 * window // 4
        return (iter_finish[hi] - iter_finish[lo]) / (hi - lo)

    @staticmethod
    def _can_issue(
        cycle, op, chime, machine, vec_width, pipe_busy, vec_busy, issue_busy
    ):
        for cc in range(cycle, cycle + chime):
            if pipe_busy.get((cc, op.pipe), 0) >= machine.pipe_count(op.pipe):
                return False
            if op.pipe in VECTOR_PIPES and vec_busy.get(cc, 0) >= vec_width:
                return False
        if issue_busy.get(cycle, 0) >= machine.issue_width:
            return False
        return True


def _is_chain(op: TraceOp, src: tuple) -> bool:
    return op.accumulate and op.dest == src


def assert_parity(machine: MachineModel, trace: KernelTrace, window=48):
    fast = PipelineModel(machine=machine).steady_cycles_per_iter(
        trace, window
    )
    slow = SteppedPipelineModel(machine=machine).steady_cycles_per_iter(
        trace, window
    )
    assert fast == slow, (machine.name, window, fast, slow)


# ---------------------------------------------------------------------------
# Every kernel trace of the tune space, plus the baselines
# ---------------------------------------------------------------------------

TARGETS = ("neon", "avx512", "rvv128", "rvv256", "numa2s")


def tune_space_traces(isa: str) -> List[KernelTrace]:
    """Distinct traces the tuner prices on ``isa``, VLA tail parts included.

    The serial tune space over the ``all`` problem set, plus — on a VLA
    target — the part kernels of every tail height at every family
    width, since a ragged plane or thread slice can select any of them.
    """
    t = target(isa)
    ctx = machine_context(t.machine)
    seen: Dict[int, KernelTrace] = {}
    for job in jobs_for_machine(isa, problem_set("all")):
        for plan in plane_chunk_plans(ctx, job.m, job.n, job.mr, job.nr):
            seen.setdefault(id(plan.trace), plan.trace)
    if t.vla:
        heights = range(1, max(mr for mr, _ in t.family) + 1)
        widths = sorted({nr for _, nr in t.family})
        for h in heights:
            for w in widths:
                for _, trace in ctx.vla_part_traces(h, w):
                    seen.setdefault(id(trace), trace)
    return list(seen.values())


@pytest.mark.parametrize("isa", TARGETS)
def test_tune_space_traces_match_oracle(isa):
    traces = tune_space_traces(isa)
    assert len(traces) >= len(target(isa).family)
    machine = target(isa).machine
    for trace in traces:
        assert_parity(machine, trace)


def test_baseline_traces_match_oracle():
    ctx = default_context()
    for trace in (ctx.neon_trace(), ctx.blis_trace()):
        assert_parity(ctx.machine, trace)


# ---------------------------------------------------------------------------
# Hypothesis: drawn traces on drawn machines
# ---------------------------------------------------------------------------

#: the four known pipes plus one the machine does not list (capacity 1)
PIPES = ("fma", "load", "store", "alu", "mul")


@st.composite
def machines(draw):
    counts = [draw(st.integers(1, 3)) for _ in range(4)]
    return dataclasses.replace(
        CARMEL,
        name="drawn",
        pipes=tuple(zip(("fma", "load", "store", "alu"), counts)),
        issue_width=draw(st.integers(1, 6)),
        vector_chime=draw(st.integers(1, 4)),
    )


@st.composite
def traces(draw):
    """Ops over a small register pool: chains, accumulators, fan-in."""
    regs = [("v", i) for i in range(draw(st.integers(1, 6)))]
    ops = []
    for _ in range(draw(st.integers(1, 12))):
        pipe = draw(st.sampled_from(PIPES))
        latency = draw(st.integers(1, 8))
        srcs = tuple(
            draw(st.lists(st.sampled_from(regs), max_size=3))
        )
        if pipe == "store":
            ops.append(TraceOp(pipe, latency, None, srcs))
            continue
        dest = draw(st.sampled_from(regs))
        accumulate = draw(st.booleans())
        if accumulate:
            srcs = srcs + (dest,)
        ops.append(TraceOp(pipe, latency, dest, srcs, accumulate))
    return KernelTrace(
        ops=ops, flops_per_iter=1,
        prologue_vector_ops=0, epilogue_vector_ops=0,
    )


@given(machines(), traces(), st.sampled_from((8, 16, 48)))
@settings(max_examples=300, deadline=None)
def test_drawn_traces_match_oracle(machine, trace, window):
    assert_parity(machine, trace, window)


# ---------------------------------------------------------------------------
# The steady-state memo
# ---------------------------------------------------------------------------


def test_memo_keys_on_content_not_register_names():
    """Renamed registers are one memo entry; a changed op is another."""

    def chain(reg, latency):
        ops = [
            TraceOp("load", 3, (reg, 0), ()),
            TraceOp("fma", latency, (reg, 1), ((reg, 0), (reg, 1)), True),
        ]
        return KernelTrace(ops, 1, 0, 0)

    model = PipelineModel(machine=CARMEL)
    model.steady_cycles_per_iter(chain("a", 7), window=16)
    before = pipeline.memo_counters()
    model.steady_cycles_per_iter(chain("b", 7), window=16)
    after = pipeline.memo_counters()
    assert after["sim.pipeline.memo_hits"] == (
        before["sim.pipeline.memo_hits"] + 1
    )
    assert after["sim.pipeline.simulations"] == (
        before["sim.pipeline.simulations"]
    )
    model.steady_cycles_per_iter(chain("b", 5), window=16)
    assert pipeline.memo_counters()["sim.pipeline.simulations"] == (
        after["sim.pipeline.simulations"] + 1
    )


def test_memo_is_bounded():
    assert pipeline._steady_state.cache_info().maxsize == pipeline._MEMO_SIZE
