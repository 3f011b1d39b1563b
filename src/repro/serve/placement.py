"""Replica placement: splitting the machine and searching configurations.

A :class:`Placement` assigns each of R replicas a disjoint block of T
cores; :func:`enumerate_placements` walks every distinct thread width
the machine supports with the replica count maximized for that width —
dominated idle-core placements (a 5 x 1 split of 8 cores) are pruned,
so the planner never simulates a configuration that an all-cores
placement of the same width beats by construction.  On a NUMA machine
the core blocks span sockets exactly like the thread partitioner's, so
:func:`repro.sim.parallel.replica_topology` can pin each replica to its
node(s).

:func:`search_configurations` is the planner: it simulates the trace
under every (placement x max-batch) candidate, keeps the configurations
whose modelled p99 latency meets the SLO, and returns the
throughput-optimal one (ties: lower p99, then fewer replicas, smaller
batch — fully deterministic).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from repro.isa.machine import MachineModel
from repro.obs import Obs
from repro.sim.parallel import replica_numa_nodes, replica_topology
from repro.workloads import LayerGemm

from .batcher import BatchPolicy, ServingResult, simulate_serving
from .executor import Instance, ModelExecutor, prewarm_executors
from .report import serving_metrics
from .traffic import Request


@dataclass(frozen=True)
class Placement:
    """R replicas x T threads on disjoint core blocks."""

    replicas: int
    threads_per_replica: int

    @property
    def cores_used(self) -> int:
        """Cores this placement occupies."""
        return self.replicas * self.threads_per_replica

    def core_assignment(self) -> Tuple[Tuple[int, ...], ...]:
        """Replica -> core ids; blocks are contiguous and disjoint."""
        t = self.threads_per_replica
        return tuple(
            tuple(range(r * t, (r + 1) * t)) for r in range(self.replicas)
        )

    def numa_assignment(
        self, machine: MachineModel
    ) -> Tuple[Tuple[int, ...], ...]:
        """Replica -> NUMA node ids its core block touches."""
        return replica_numa_nodes(
            machine, self.replicas, self.threads_per_replica
        )

    @property
    def label(self) -> str:
        """Short ``RrxTt`` spelling for reports."""
        return f"{self.replicas}rx{self.threads_per_replica}t"


def enumerate_placements(machine: MachineModel) -> List[Placement]:
    """Replica counts worth simulating, dominated ones pruned.

    For each R in 1..cores the replica gets ``T = cores // R`` threads.
    On a flat-share (single-NUMA-node) machine a placement is kept only
    when R is the *largest* replica count for its T
    (``R == cores // T``): the even split gives a lower-R placement of
    the same width a marginally larger per-replica share (socket/5 vs
    socket/8), but the max-R placement matches it thread-for-thread on
    compute while fielding strictly more servers over the same
    aggregate bandwidth, so 5x1 / 6x1 / 7x1 on an 8-core part are
    dominated on the planner's throughput-first preference and never
    simulated.

    On a NUMA machine that argument needs a share check: replicas are
    pinned to the node(s) their blocks occupy, so fewer replicas of
    the same width *can* mean fewer residents on the worst node and
    strictly more bandwidth each.  A lower-replica placement survives
    exactly when its modelled bandwidth share
    (:func:`repro.sim.parallel.replica_topology`) strictly beats the
    max-replica placement of the same width — equal share and fewer
    servers is still dominated.  The (R, T) pairs are returned in
    increasing-R order and never over-subscribe a core (see
    :meth:`Placement.core_assignment`).
    """

    def share(replicas: int, threads: int) -> float:
        view = replica_topology(machine, replicas, threads)
        return view.socket_dram_bandwidth_bytes_per_cycle or (
            view.dram_bandwidth_bytes_per_cycle
        )

    placements = []
    for replicas in range(1, machine.cores + 1):
        threads = machine.cores // replicas
        if threads < 1:
            break
        r_max = machine.cores // threads
        if replicas != r_max:
            if machine.numa_nodes <= 1 or share(replicas, threads) <= share(
                r_max, threads
            ):
                continue  # dominated: more replicas, same speed
        placements.append(
            Placement(replicas=replicas, threads_per_replica=threads)
        )
    return placements


@dataclass
class ConfigOutcome:
    """One simulated (placement, policy) candidate and its metrics."""

    placement: Placement
    policy: BatchPolicy
    result: ServingResult
    metrics: dict
    executor: ModelExecutor

    @property
    def label(self) -> str:
        """Short ``RrxTtxbB`` spelling for reports."""
        return f"{self.placement.label}xb{self.policy.max_batch}"

    def meets_slo(self, slo_p99_ms: float) -> bool:
        """Whether this configuration's p99 is within the SLO."""
        return self.metrics["p99_ms"] <= slo_p99_ms


def evaluate_configuration(
    trace: Sequence[Request],
    machine: MachineModel,
    model: Union[str, Sequence[Instance]],
    placement: Placement,
    policy: BatchPolicy,
    use_tuned: bool = False,
    executor: Optional[ModelExecutor] = None,
    obs: Optional[Obs] = None,
) -> ConfigOutcome:
    """Simulate one configuration end to end.

    ``obs`` instruments this single run (virtual-time trace + metrics);
    the search loop leaves it off so the emitted trace covers exactly
    one configuration.
    """
    if executor is None:
        executor = ModelExecutor(
            machine,
            model=model,
            threads=placement.threads_per_replica,
            replicas=placement.replicas,
            use_tuned=use_tuned,
            obs=obs,
        )
    elif obs is not None and executor.obs is None:
        executor.obs = obs
    result = simulate_serving(
        trace, placement.replicas, policy, executor.batch_time_ms, obs=obs
    )
    return ConfigOutcome(
        placement=placement,
        policy=policy,
        result=result,
        metrics=serving_metrics(result),
        executor=executor,
    )


def search_configurations(
    trace: Sequence[Request],
    machine: MachineModel,
    model: Union[str, Sequence[Instance]],
    slo_p99_ms: float,
    batch_candidates: Sequence[int] = (1, 2, 4, 8),
    max_wait_ms: float = 2.0,
    use_tuned: bool = False,
    placements: Optional[Sequence[Placement]] = None,
) -> Tuple[ConfigOutcome, List[ConfigOutcome]]:
    """The placement search: best SLO-feasible config + every candidate.

    Feasible means modelled p99 <= the SLO; among feasible candidates
    the winner maximizes throughput (ties: lower p99, fewer replicas,
    smaller batch cap).  When nothing meets the SLO the lowest-p99
    candidate is returned so the report can say how far off it is.

    An empty trace fails fast here — every candidate would simulate
    zero requests and crash deep inside the metrics aggregation.
    """
    if not trace:
        raise ValueError(
            "trace is empty — raise the arrival rate or duration "
            "(or check the replayed CSV)"
        )
    if placements is None:
        placements = enumerate_placements(machine)
    batch_candidates = tuple(dict.fromkeys(int(b) for b in batch_candidates))
    if not batch_candidates or min(batch_candidates) < 1:
        raise ValueError(
            f"batch candidates must be >= 1, got {batch_candidates}"
        )
    executors = [
        ModelExecutor(
            machine,
            model=model,
            threads=placement.threads_per_replica,
            replicas=placement.replicas,
            use_tuned=use_tuned,
        )
        for placement in placements
    ]
    # price every (placement, batch-cap, layer) memo entry up front, one
    # vectorized sweep per cap; a size a simulation forms between the
    # caps is priced on first use, one sweep per (placement, size)
    prewarm_executors(executors, batch_candidates)
    outcomes: List[ConfigOutcome] = []
    for placement, executor in zip(placements, executors):
        for max_batch in batch_candidates:
            outcomes.append(
                evaluate_configuration(
                    trace,
                    machine,
                    model,
                    placement,
                    BatchPolicy(max_batch=max_batch, max_wait_ms=max_wait_ms),
                    use_tuned=use_tuned,
                    executor=executor,
                )
            )

    def preference(o: ConfigOutcome):
        return (
            -o.metrics["throughput_rps"],
            o.metrics["p99_ms"],
            o.placement.replicas,
            o.policy.max_batch,
        )

    feasible = [o for o in outcomes if o.meets_slo(slo_p99_ms)]
    if feasible:
        best = min(feasible, key=preference)
    else:
        best = min(
            outcomes,
            key=lambda o: (
                o.metrics["p99_ms"],
                -o.metrics["throughput_rps"],
                o.placement.replicas,
                o.policy.max_batch,
            ),
        )
    return best, outcomes
