"""The planner's sweep pricing: parity, report rows, no scalar grid search.

:func:`repro.serve.executor.prewarm_executors` fills every executor's
(layer, batch) memo for the declared batch caps, one vectorized sweep
per size; :meth:`ModelExecutor.batch_time_ms` prices a size no prewarm
covered in one sweep of its own.  These tests pin three promises:

* every sweep-priced entry equals what a fresh executor's lazy
  :meth:`ModelExecutor.layer_time` computes, bit for bit (seconds and
  main tile), on Neon, a two-socket NUMA machine, and the VLA target;
* the report's ``per_layer`` rows list the declared batch caps plus the
  sizes some simulation formed, and no other size is priced;
* the planner's simulations run no scalar grid search.
"""

from __future__ import annotations

import json

import pytest

from repro.isa.machine import CARMEL, MACHINES
from repro.serve import Request, search_configurations
from repro.serve import executor as executor_mod
from repro.serve import placement as placement_mod
from repro.serve.__main__ import main as serve_main
from repro.serve.executor import ModelExecutor, prewarm_executors
from repro.serve.placement import enumerate_placements

PARITY_CASES = [
    pytest.param(CARMEL, "resnet50", (1, 2, 4, 8), id="carmel"),
    pytest.param(MACHINES["numa2s"], "vgg16", (1, 3), id="numa2s"),
    pytest.param(MACHINES["rvv256"], "resnet50", (2, 3), id="rvv256"),
]


def _executors(machine, model, placements):
    return [
        ModelExecutor(
            machine,
            model=model,
            threads=p.threads_per_replica,
            replicas=p.replicas,
        )
        for p in placements
    ]


class TestPrewarmParity:
    @pytest.mark.parametrize("machine, model, batches", PARITY_CASES)
    def test_prewarm_equals_lazy_pricing(self, machine, model, batches):
        placements = enumerate_placements(machine)
        warm = _executors(machine, model, placements)
        filled = prewarm_executors(warm, batches)
        assert filled == sum(len(ex._layer_memo) for ex in warm)
        lazy = _executors(machine, model, placements)
        for warm_ex, lazy_ex in zip(warm, lazy):
            priced = sorted({batch for _, batch in warm_ex._layer_memo})
            assert priced == sorted(batches)
            layers = {layer.layer_id: layer for _, layer in lazy_ex.instances}
            for (layer_id, batch), entry in warm_ex._layer_memo.items():
                assert lazy_ex.layer_time(layers[layer_id], batch) == entry

    @pytest.mark.parametrize("machine, model, batches", PARITY_CASES)
    def test_first_use_sweep_equals_lazy_pricing(
        self, machine, model, batches
    ):
        placement = enumerate_placements(machine)[-1]
        (swept,) = _executors(machine, model, [placement])
        (lazy,) = _executors(machine, model, [placement])
        for batch in batches:
            total_seconds = 0.0
            for _, layer in lazy.instances:
                seconds, _ = lazy.layer_time(layer, batch)
                total_seconds += seconds
            assert swept.batch_time_ms(batch) == total_seconds * 1e3
        assert swept._layer_memo == lazy._layer_memo

    def test_prewarm_skips_filled_entries(self):
        ex = ModelExecutor(CARMEL, model="vgg16", threads=2)
        first = prewarm_executors([ex], (2,))
        layers = {layer.layer_id for _, layer in ex.instances}
        assert first == len(layers)
        assert prewarm_executors([ex], (2, 2)) == 0
        assert prewarm_executors([ex], (1, 2)) == len(layers)
        assert prewarm_executors([ex], ()) == 0


def _bursty_trace():
    """A burst of 3 then a burst of 5, far apart: with caps (1, 2, 4, 8)
    the simulations form sizes 1-5 but never 6 or 7."""
    arrivals = [0.0] * 3 + [5000.0] * 5
    return [
        Request(request_id=i, arrival_ms=t) for i, t in enumerate(arrivals)
    ]


def _batches_of(rows):
    return sorted({row["batch"] for row in rows})


class TestReportRows:
    def test_serve_smoke_lists_the_declared_caps(self, tmp_path):
        assert serve_main([
            str(tmp_path), "--machine", "carmel",
            "--arrivals", "synthetic", "--rate", "10", "--duration", "400",
            "--slo-p99", "100ms", "-q",
        ]) == 0
        report = json.loads(
            (tmp_path / "serve_carmel_resnet50.json").read_text()
        )
        rows = report["per_layer"]
        assert _batches_of(rows) == [1, 2, 4, 8]
        assert len(rows) == 80

    def test_bursty_trace_lists_declared_plus_formed(self):
        declared = (1, 2, 4, 8)
        best, outcomes = search_configurations(
            _bursty_trace(), CARMEL, "resnet50", slo_p99_ms=1e9,
            batch_candidates=declared,
        )
        formed = {
            b.size
            for o in outcomes
            if o.executor is best.executor
            for b in o.result.batches
        }
        expected = sorted(set(declared) | formed)
        # the trace must exercise both sides of the rule
        assert formed - set(declared)
        assert set(range(1, max(declared) + 1)) - set(expected)
        assert _batches_of(best.executor.layer_records()) == expected
        priced = sorted({batch for _, batch in best.executor._layer_memo})
        assert priced == expected


class TestNoScalarGridSearch:
    def test_simulations_price_by_sweep_only(self, monkeypatch):
        partitions = []
        real_prewarm = placement_mod.prewarm_executors

        def prewarm_then_count(executors, batches):
            filled = real_prewarm(executors, batches)
            real = executor_mod.exo_parallel_breakdown

            def counting(*args, **kwargs):
                partitions.append(kwargs.get("partition"))
                return real(*args, **kwargs)

            monkeypatch.setattr(
                executor_mod, "exo_parallel_breakdown", counting
            )
            return filled

        monkeypatch.setattr(
            placement_mod, "prewarm_executors", prewarm_then_count
        )
        best, outcomes = search_configurations(
            _bursty_trace(), CARMEL, "resnet50", slo_p99_ms=1e9,
        )
        sizes = {b.size for o in outcomes for b in o.result.batches}
        assert sizes - {1, 2, 4, 8}  # sizes no cap declared were formed
        # ...and priced, each layer from a vectorized sweep's winning
        # partition: no call runs the scalar grid search
        assert partitions
        assert all(p is not None for p in partitions)
