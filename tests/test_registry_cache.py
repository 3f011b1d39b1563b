"""Cache semantics of the per-machine kernel registries.

Two machines tagged with the same ``isa`` must share one registry (and
so one set of generated kernels), as must two targets that run the same
instruction library and tile family (``avx512`` and ``numa2s``);
distinct libraries must be isolated; and the historical Neon
process-wide default registry must never be touched by a run on another
backend.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.isa.machine import (
    AVX512_SERVER,
    CARMEL,
    NUMA_SERVER_2S,
    RVV_EDGE_VLEN128,
    RVV_SERVER_VLEN256,
)
from repro.ukernel import registry as reg


@pytest.fixture()
def clean_registries(monkeypatch):
    """Fresh registry globals; the session-wide ones restore on teardown."""
    monkeypatch.setattr(reg, "_default_registry", None)
    monkeypatch.setattr(reg, "_machine_registries", {})


class TestRegistryForMachine:
    def test_same_isa_shares_one_registry(self, clean_registries):
        twin = dataclasses.replace(
            RVV_EDGE_VLEN128, name="another VLEN=128 core"
        )
        assert twin is not RVV_EDGE_VLEN128
        r1 = reg.registry_for_machine(RVV_EDGE_VLEN128)
        r2 = reg.registry_for_machine(twin)
        assert r1 is r2
        r1.get(1, 4)
        assert (1, 4) in r2

    def test_distinct_isas_are_isolated(self, clean_registries):
        r128 = reg.registry_for_machine(RVV_EDGE_VLEN128)
        r256 = reg.registry_for_machine(RVV_SERVER_VLEN256)
        assert r128 is not r256
        assert r128.lib["lanes"] == 4
        assert r256.lib["lanes"] == 8
        r128.get(4, 4)
        assert (4, 4) in r128
        assert (4, 4) not in r256

    def test_rvv_run_never_populates_neon_default(self, clean_registries):
        reg.registry_for_machine(RVV_EDGE_VLEN128).get(1, 4)
        # the Neon default registry was neither created nor populated
        assert reg._default_registry is None

    def test_neon_machine_reuses_the_default_registry(self, clean_registries):
        r = reg.registry_for_machine(CARMEL)
        assert r is reg.default_registry()
        assert r.lib["lanes"] == 4

    def test_repeated_lookups_are_memoized(self, clean_registries):
        r1 = reg.registry_for_machine(RVV_SERVER_VLEN256)
        r2 = reg.registry_for_machine(RVV_SERVER_VLEN256)
        assert r1 is r2
        assert reg._machine_registries == {"rvv256": r1}

    def test_one_library_shares_one_registry(self, clean_registries):
        kernel = reg.registry_for_machine(NUMA_SERVER_2S).get(16, 16)
        assert reg.registry_for_machine(AVX512_SERVER).get(16, 16) is kernel
        assert list(reg._machine_registries) == ["avx512"]


def _numa2s_outputs(tmp_path, monkeypatch, prime_avx512: bool) -> dict:
    """The numa2s tune artifact and eval reports, from fresh caches."""
    from repro import tune
    from repro.eval import harness
    from repro.eval.__main__ import main as eval_main
    from repro.tune import executor

    monkeypatch.setattr(reg, "_machine_registries", {})
    monkeypatch.setattr(harness, "_machine_contexts", {})
    monkeypatch.setattr(executor, "_contexts", {})
    problems = ((64, 48, 64), (100, 100, 100))
    if prime_avx512:
        tune.sweep(("avx512",), problems, threads=(1, 2))
    out = {"artifact": tune.sweep(("numa2s",), problems, threads=(1, 2))}
    outdir = tmp_path / ("shared" if prime_avx512 else "alone")
    assert eval_main([str(outdir), "--isa", "numa2s", "-q"]) == 0
    for path in sorted(outdir.iterdir()):
        lines = path.read_text().splitlines()
        # SUMMARY.txt's last line reports the host time of the run
        out[path.name] = [ln for ln in lines if not ln.startswith("regenerated")]
    return out


def test_numa2s_outputs_unchanged_by_sharing(tmp_path, monkeypatch):
    """numa2s tuned on kernels avx512 generated reports exactly what it
    reports on kernels of its own, as when registries were keyed by ISA."""
    by_isa = lambda t: t.name  # noqa: E731
    with monkeypatch.context() as m:
        m.setattr(reg, "_library_key", by_isa)
        alone = _numa2s_outputs(tmp_path, m, prime_avx512=False)
    with monkeypatch.context() as m:
        shared = _numa2s_outputs(tmp_path, m, prime_avx512=True)
        assert "numa2s" not in reg._machine_registries
    assert shared == alone
