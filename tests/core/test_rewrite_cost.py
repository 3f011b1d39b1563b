"""Work follows the rewrite: deterministic counts, no timing.

A scheduling primitive folds only the statements its rewrite did not
share with the proc's fold base, so statements it never touched cost it
nothing; the verifier and the assembly census substitute each unrolled
instruction call once, instead of re-substituting the remaining body at
every loop level.
"""

from __future__ import annotations

import pytest

from repro.analysis.verifier import Report, _collect_events
from repro.core import traversal
from repro.core.affine import try_constant
from repro.core.codegen.asm import _find_k_loop, _flatten_calls
from repro.core.loopir import Call, For
from repro.core.parser import parse_source
from repro.core.proc import Procedure
from repro.core.scheduling import divide_loop, simplify, subst, unroll_loop
from repro.isa.targets import target
from repro.ukernel.registry import registry_for_machine


def _padded(n: int) -> Procedure:
    """One loop to rewrite after ``n`` statements no rewrite touches."""
    pad = "".join(
        f"    y[{k % 8}] = x[{k % 64}] * 2.0 + x[{(k + 1) % 64}]\n"
        for k in range(n)
    )
    src = f"""
def padded(x: f32[64] @ DRAM, y: f32[8] @ DRAM):
{pad}    for i in seq(0, 8):
        y[i] += x[2 * i + 1] * x[i + 8]
"""
    return simplify(Procedure(parse_source(src)))


def _folds(monkeypatch, fn) -> int:
    """Statement-level expressions folded while ``fn`` runs."""
    count = 0
    fold = subst._fold_expr

    def counting(e):
        nonlocal count
        count += 1
        return fold(e)

    with monkeypatch.context() as m:
        m.setattr(subst, "_fold_expr", counting)
        fn()
    return count


REWRITES = {
    "unroll_loop": lambda p: unroll_loop(p, "i"),
    "divide_loop": lambda p: divide_loop(p, "i", 4, ["io", "ii"]),
    "divide_loop-perfect": lambda p: divide_loop(
        p, "i", 4, ["io", "ii"], perfect=True
    ),
}


@pytest.mark.parametrize("name", sorted(REWRITES))
def test_fold_work_is_independent_of_untouched_statements(monkeypatch, name):
    rewrite = REWRITES[name]
    small, large = _padded(1), _padded(64)
    local = [_folds(monkeypatch, lambda p=p: rewrite(p)) for p in (small, large)]
    assert local[0] == local[1] > 0
    # a whole-proc fold of the same rewrite would grow with the padding
    whole = [
        _folds(monkeypatch, lambda p=p: subst.fold_constants(rewrite(p).ir))
        for p in (small, large)
    ]
    assert whole[1] - local[1] > whole[0] - local[0]


def _unrolled_call_instances(block, enclosing_static: bool = False) -> int:
    """Call instances inside at least one static loop of ``block``."""
    total = 0
    for s in block:
        if isinstance(s, Call):
            total += enclosing_static
        elif isinstance(s, For):
            lo, hi = try_constant(s.lo), try_constant(s.hi)
            if lo is not None and hi is not None:
                total += (hi - lo) * _unrolled_call_instances(s.body, True)
    return total


def _substituted(monkeypatch, fn) -> list:
    """Every block substituted by :func:`unroll_calls` while ``fn`` runs."""
    blocks = []
    subst_stmts = traversal.subst_stmts

    def recording(stmts, env):
        blocks.append(stmts)
        return subst_stmts(stmts, env)

    with monkeypatch.context() as m:
        m.setattr(traversal, "subst_stmts", recording)
        fn()
    return blocks


@pytest.mark.parametrize("isa, mr, nr", [("neon", 8, 12), ("avx512", 16, 4)])
def test_verifier_substitutes_each_unrolled_call_once(monkeypatch, isa, mr, nr):
    ir = registry_for_machine(target(isa).machine).get(mr, nr).proc.ir
    kloop = _find_k_loop(ir)
    outside = [s for s in ir.body if s is not kloop]
    expected = _unrolled_call_instances(outside) + _unrolled_call_instances(
        kloop.body
    )
    assert expected > 0
    report = Report(ir.name)
    events = []
    blocks = _substituted(
        monkeypatch, lambda: events.extend(_collect_events(ir, report))
    )
    assert report.ok and events
    assert all(len(b) == 1 and isinstance(b[0], Call) for b in blocks)
    assert len(blocks) == expected


def test_asm_census_substitutes_each_unrolled_call_once(monkeypatch):
    ir = registry_for_machine(target("neon").machine).get(8, 12).proc.ir
    body = _find_k_loop(ir).body
    calls = []
    expected = _unrolled_call_instances(body)
    assert expected > 0
    blocks = _substituted(monkeypatch, lambda: calls.extend(_flatten_calls(body)))
    assert calls
    assert all(len(b) == 1 and isinstance(b[0], Call) for b in blocks)
    assert len(blocks) == expected
