"""The dynamic batcher and the request-level serving simulation.

Requests queue centrally in arrival order; each of the R replicas
coalesces the head of the queue into one batched inference under the
max-batch-size / max-wait-time rule.  The rule lives once, in
:class:`BatchFormer`; :func:`simulate_serving` here and the live
plane's :class:`repro.serve.plane.ReplicaPool` are its two drivers.
The batched service time comes from a caller-supplied
``service_time_ms(batch_size)`` (the per-layer executor), so the whole
latency/throughput report is a pure function of (trace, config).
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass
from typing import (
    Callable,
    Deque,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.obs import Obs, TraceContext, batch_id_for

from .traffic import Request


@dataclass(frozen=True)
class BatchPolicy:
    """The dynamic-batching rule: size cap and waiting-time cap."""

    max_batch: int = 1
    max_wait_ms: float = 0.0

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait_ms < 0:
            raise ValueError(
                f"max_wait_ms must be >= 0, got {self.max_wait_ms}"
            )


@dataclass(frozen=True, slots=True)
class ServedRequest:
    """One request's journey through the server."""

    request: Request
    replica: int
    batch_size: int
    dispatch_ms: float
    completion_ms: float

    @property
    def latency_ms(self) -> float:
        """Arrival-to-completion latency."""
        return self.completion_ms - self.request.arrival_ms


@dataclass(frozen=True, slots=True)
class ExecutedBatch:
    """One dispatched batch: where, when, how big, how long.

    ``formed_ms`` is the instant the core bound the replica to the
    batch — the boundary between a member request's queue-wait and its
    batch-wait.  The live plane also records the pool's ``model`` and
    the deterministic causal ``batch_id`` member spans reference.
    """

    replica: int
    size: int
    dispatch_ms: float
    service_ms: float
    formed_ms: Optional[float] = None
    model: str = ""
    batch_id: str = ""


@dataclass(frozen=True)
class ServingResult:
    """Everything the simulation produced, pre-aggregation."""

    served: Tuple[ServedRequest, ...]
    batches: Tuple[ExecutedBatch, ...]

    @property
    def latencies_ms(self) -> List[float]:
        """Per-request latencies in served order."""
        return [s.latency_ms for s in self.served]

    @property
    def makespan_ms(self) -> float:
        """First arrival to last completion."""
        if not self.served:
            return 0.0
        first = min(s.request.arrival_ms for s in self.served)
        last = max(s.completion_ms for s in self.served)
        return last - first

    @property
    def throughput_rps(self) -> float:
        """Served requests per second over the makespan."""
        span = self.makespan_ms
        if span <= 0:
            return 0.0
        return len(self.served) / span * 1000.0

    @property
    def mean_batch(self) -> float:
        """Average dispatched batch size."""
        if not self.batches:
            return 0.0
        return len(self.served) / len(self.batches)


class Dispatch(NamedTuple):
    """One batch the core hands to a replica."""

    replica: int
    members: List
    formed_ms: float
    dispatch_ms: float


class BatchFormer:
    """The batch-forming rule of one pool, with no clock and no asyncio.

    State: the FIFO queue (items need an ``arrival_ms``), the idle
    replicas, and the count of dispatched batches still running.  A
    batch forms when the queue is non-empty and a replica is idle: the
    lowest-index idle replica is bound and ``formed_ms`` is that
    instant.  It closes when the queue holds ``max_batch`` requests or
    the head has waited ``max_wait_ms``, whichever comes first, so a
    replica bound after the close time dispatches at once.  Ties: an
    arrival at the dispatch instant joins the batch — a driver feeds
    every arrival at ``now_ms`` before it polls there.
    """

    def __init__(self, policy: BatchPolicy, replicas: int):
        """Start with an empty queue and every replica idle."""
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.policy = policy
        self.queue: Deque = deque()
        self.idle: List[int] = list(range(replicas))  # a min-heap
        self.in_flight = 0
        self._forming: Optional[Tuple[int, float]] = None

    def arrive(self, item) -> None:
        """Queue one arrival."""
        self.queue.append(item)

    def release(self, replica: int) -> None:
        """Return ``replica`` from a finished (or failed) batch."""
        heapq.heappush(self.idle, replica)
        self.in_flight -= 1

    def poll(self, now_ms: float) -> Union[Dispatch, float, None]:
        """The decision at ``now_ms``.

        A :class:`Dispatch` to run now (poll again: more may follow),
        the close instant to wake at, or ``None`` when only a new
        arrival or release can change anything.
        """
        queue = self.queue
        if not queue:
            return None
        if self._forming is None:
            if not self.idle:
                return None
            self._forming = (heapq.heappop(self.idle), now_ms)
        max_batch = self.policy.max_batch
        if len(queue) < max_batch:
            close_ms = queue[0].arrival_ms + self.policy.max_wait_ms
            if now_ms < close_ms:
                return close_ms
            max_batch = len(queue)
        replica, formed_ms = self._forming
        self._forming = None
        self.in_flight += 1
        members = [queue.popleft() for _ in range(max_batch)]
        return Dispatch(replica, members, formed_ms, now_ms)


def simulate_serving(
    trace: Sequence[Request],
    replicas: int,
    policy: BatchPolicy,
    service_time_ms: Callable[[int], float],
    obs: Optional[Obs] = None,
) -> ServingResult:
    """Run a trace through R replicas under one batching policy.

    A discrete-event loop drives one :class:`BatchFormer` over the
    sorted trace: at each event instant it releases the replicas that
    finish then, queues the arrivals, and dispatches what the core
    forms.  ``service_time_ms(b)`` prices one batched inference of size
    ``b`` (milliseconds); the executor memoizes it per batch size, so
    the loop itself is O(requests + batches).

    ``obs`` attaches the observability bundle: the simulation emits the
    per-request lifecycle (arrival instant, queued span, batch-execute
    span, completion instant), queue-depth and per-replica
    batch-occupancy counter series into ``obs.tracer`` — all stamped in
    **virtual sim time**, so the trace is a pure function of (trace,
    config) — and aggregate counters/histograms into ``obs.metrics``.
    The default ``None`` takes the zero-overhead path.
    """
    former = BatchFormer(policy, replicas)
    requests = sorted(trace, key=lambda r: (r.arrival_ms, r.request_id))
    # arrival instants with an ``inf`` sentinel: the cursor's next
    # arrival is always ``arrivals[i]``, even after the last request
    arrivals = [r.arrival_ms for r in requests]
    arrivals.append(math.inf)
    total = len(requests)
    running: List[Tuple[float, int]] = []  # (completion_ms, replica) heap
    served: List[ServedRequest] = []
    batches: List[ExecutedBatch] = []
    queue, arrive, release, poll = (
        former.queue, former.arrive, former.release, former.poll
    )
    heappush, heappop = heapq.heappush, heapq.heappop
    add_batch = batches.append
    i = 0
    wake_ms = math.inf
    while i < total or queue:
        now = arrivals[i]
        if running and running[0][0] < now:
            now = running[0][0]
        if wake_ms < now:
            now = wake_ms
        while running and running[0][0] <= now:
            release(heappop(running)[1])
        while arrivals[i] <= now:
            arrive(requests[i])
            i += 1
        decision = poll(now)
        while type(decision) is Dispatch:
            replica, members, formed_ms, _ = decision
            size = len(members)
            service = service_time_ms(size)
            if service <= 0:
                raise ValueError(
                    f"service_time_ms({size}) must be positive, "
                    f"got {service}"
                )
            completion = now + service
            served += [
                ServedRequest(req, replica, size, now, completion)
                for req in members
            ]
            add_batch(ExecutedBatch(replica, size, now, service, formed_ms))
            heappush(running, (completion, replica))
            decision = poll(now)
        wake_ms = math.inf if decision is None else decision
    result = ServingResult(served=tuple(served), batches=tuple(batches))
    if obs is not None:
        emit_serving_obs(result, obs)
    return result


#: histogram buckets for simulated request latency (milliseconds)
LATENCY_BUCKETS_MS = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
    1000.0, 2000.0, 5000.0,
)

#: trace track ids: 0 is the central queue, replica r is track r + 1
QUEUE_TRACK = 0


def emit_serving_obs(result: ServingResult, obs: Obs) -> None:
    """Derive the trace and metrics of one simulated serving run.

    Every timestamp comes from the simulation itself (milliseconds
    scaled to trace microseconds), never from a wall clock, so two runs
    of the same (trace, config) produce byte-identical exports.  Every
    request event carries its :class:`repro.obs.TraceContext`
    correlation ids (chain ``arrive -> queued -> execute``; no
    admission gate offline) plus the deterministic ``batch_id`` of the
    batch that served it, and batch spans carry their forming instant —
    the same schema the live plane emits, so one analyzer reads both.
    """
    tracer = obs.tracer
    scale = 1e3  # sim milliseconds -> trace microseconds
    replicas = sorted({b.replica for b in result.batches})
    tracer.metadata("process_name", "repro.serve")
    tracer.metadata("thread_name", "queue", tid=QUEUE_TRACK)
    for r in replicas:
        tracer.metadata("thread_name", f"replica {r}", tid=r + 1)

    # served order is batch order (members append consecutively), so
    # a request's batch id falls out of the cumulative batch sizes
    batch_ids = [
        batch_id_for("sim", seq) for seq in range(len(result.batches))
    ]
    request_batch: List[str] = []
    for seq, batch in enumerate(result.batches):
        request_batch.extend([batch_ids[seq]] * batch.size)

    depth_deltas: List[Tuple[float, int, int]] = []
    for order, s in enumerate(result.served):
        arrival = s.request.arrival_ms * scale
        dispatch = s.dispatch_ms * scale
        completion = s.completion_ms * scale
        bid = request_batch[order]
        ctx = TraceContext.for_request(s.request.request_id)
        queued_ctx = ctx.child("queued")
        exec_ctx = queued_ctx.child("execute")
        args = {"request_id": s.request.request_id}
        tracer.instant(
            "arrive", ts_us=arrival, tid=QUEUE_TRACK, args=ctx.args(**args)
        )
        tracer.complete(
            "queued",
            ts_us=arrival,
            dur_us=dispatch - arrival,
            tid=QUEUE_TRACK,
            cat="request",
            args=queued_ctx.args(
                **args, batch_size=s.batch_size, batch_id=bid
            ),
        )
        tracer.instant(
            "complete",
            ts_us=completion,
            tid=s.replica + 1,
            args=exec_ctx.args(**args, batch_id=bid),
        )
        depth_deltas.append((s.request.arrival_ms, order, +1))
        depth_deltas.append((s.dispatch_ms, order, -1))
    for seq, batch in enumerate(result.batches):
        dispatch = batch.dispatch_ms * scale
        tracer.complete(
            "batch",
            ts_us=dispatch,
            dur_us=batch.service_ms * scale,
            tid=batch.replica + 1,
            cat="batch",
            args={
                "size": batch.size,
                "service_ms": batch.service_ms,
                "batch_id": batch_ids[seq],
                "formed_ms": batch.formed_ms,
            },
        )
        occupancy = f"occupancy_r{batch.replica}"
        tracer.counter(occupancy, batch.size, ts_us=dispatch)
        tracer.counter(
            occupancy,
            0,
            ts_us=dispatch + batch.service_ms * scale,
        )

    depth = 0
    max_depth = 0
    for t_ms, _, delta in sorted(depth_deltas):
        depth += delta
        max_depth = max(max_depth, depth)
        tracer.counter("queue_depth", depth, ts_us=t_ms * scale)

    metrics = obs.metrics
    metrics.counter(
        "serve.requests", help="requests served by the simulation"
    ).inc(len(result.served))
    metrics.counter(
        "serve.batches", help="batches dispatched"
    ).inc(len(result.batches))
    metrics.gauge(
        "serve.queue_depth", help="central queue depth (max observed)"
    ).set(max_depth)
    latency = metrics.histogram(
        "serve.latency_ms",
        buckets=LATENCY_BUCKETS_MS,
        help="request latency, arrival to completion",
    )
    for value in result.latencies_ms:
        latency.observe(value)
    batch_hist = metrics.histogram(
        "serve.batch_size",
        buckets=(1, 2, 4, 8, 16, 32, 64),
        help="dispatched batch sizes",
    )
    for batch in result.batches:
        batch_hist.observe(batch.size)
