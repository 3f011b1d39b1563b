"""The process-wide pricing memos stay within their bounds.

Each memo is filled past a shrunken bound: its size must never exceed
the bound, and every result must equal the one an unbounded (default)
memo gives — an evicted entry is recomputed, never served stale.
"""

from __future__ import annotations

import numpy as np

from repro.blis.params import analytical_tile_params, clamp_tiles
from repro.eval import harness
from repro.eval.harness import plane_chunk_plans
from repro.isa.machine import CARMEL
from repro.sim import vectorized as vec
from repro.sim.memo import remember
from repro.sim.parallel import candidate_grids
from repro.tune import executor as tune_executor

#: a bound every fill below overruns several times over
SMALL = 5


def test_remember_drops_the_oldest_entry():
    memo = {}
    for key in range(10):
        assert remember(memo, key, key * key, 3) == key * key
        assert len(memo) <= 3
    assert memo == {7: 49, 8: 64, 9: 81}


class TestPlanArrayCache:
    def _grid_cycles(self, ctx, m, n, k, threads):
        machine = ctx.machine
        mr, nr = ctx.main_tile
        tiles = clamp_tiles(analytical_tile_params(mr, nr, machine), m, n, k)
        grids = candidate_grids(
            threads, m, n, machine, mr, nr, k=k, kc=tiles.kc
        )
        # fresh plan tuples on every call: each one is a new cache entry
        batch = vec.CandidateBatch(
            machines=(machine,),
            m=m, n=n, k=k, mr=mr, nr=nr, kc=tiles.kc, nc=tiles.nc,
            jc=[g[0] for g in grids],
            ic=[g[1] for g in grids],
            pc=[g[2] for g in grids],
            plan_source=lambda _i, m_t, n_t: vec.plan_costs(
                plane_chunk_plans(ctx, m_t, n_t, mr, nr), ctx.model
            ),
            kind="grid",
        )
        return vec.batch_gemm_cycles(batch).total_cycles.copy()

    def test_bounded_and_equal(self, monkeypatch):
        ctx = harness.machine_context(CARMEL)
        shapes = [(m, n, 256) for m in (50, 97, 203) for n in (64, 130)]
        expected = [self._grid_cycles(ctx, *s, 8) for s in shapes]
        monkeypatch.setattr(vec, "_PLAN_ARRAY_CACHE", {})
        monkeypatch.setattr(vec, "PLAN_ARRAY_CACHE_SIZE", SMALL)
        for shape, want in zip(shapes, expected):
            got = self._grid_cycles(ctx, *shape, 8)
            assert np.array_equal(got, want)
            assert len(vec._PLAN_ARRAY_CACHE) <= SMALL


class TestTunePlanCostMemo:
    def test_bounded_and_equal(self, monkeypatch):
        specs = [
            (mr, nr, m, n, 128, 1)
            for mr, nr in ((8, 12), (8, 8), (4, 12))
            for m, n in ((37, 50), (64, 64), (99, 130))
        ]
        expected = tune_executor.evaluate_candidates("neon", specs)
        monkeypatch.setattr(tune_executor, "_plan_cost_memo", {})
        monkeypatch.setattr(tune_executor, "PLAN_COST_MEMO_SIZE", SMALL)
        assert tune_executor.evaluate_candidates("neon", specs) == expected
        assert len(tune_executor._plan_cost_memo) <= SMALL
        # evicted entries recompute to the same records
        assert tune_executor.evaluate_candidates("neon", specs) == expected
        assert len(tune_executor._plan_cost_memo) <= SMALL
