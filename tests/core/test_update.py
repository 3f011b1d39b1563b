"""Contract of :func:`repro.core.loopir.update` and the sharing it buys."""

from __future__ import annotations

from dataclasses import FrozenInstanceError

import pytest

from repro.core.loopir import Assign, BinOp, Const, For, Read, const_int, update
from repro.core.prelude import Sym
from repro.core.traversal import map_expr, map_stmts, subst_stmts
from repro.core.typesys import F32, INDEX

I, J, X = Sym("i"), Sym("j"), Sym("x")


def _sum():
    return BinOp("+", Read(I, (), INDEX), const_int(1), INDEX)


class TestUpdate:
    def test_no_change_returns_the_node_itself(self):
        e = _sum()
        assert update(e) is e
        assert update(e, lhs=e.lhs, op=e.op) is e

    def test_equal_but_distinct_value_is_a_change(self):
        e = _sum()
        out = update(e, rhs=const_int(1))
        assert out is not e
        assert out == e

    def test_change_builds_a_new_node_sharing_the_rest(self):
        e = _sum()
        two = const_int(2)
        out = update(e, rhs=two)
        assert out is not e and type(out) is BinOp
        assert out.rhs is two
        assert out.lhs is e.lhs and out.op == "+" and out.type is INDEX
        assert out == BinOp("+", Read(I, (), INDEX), const_int(2), INDEX)
        assert e.rhs == const_int(1), "the input node is untouched"

    def test_unknown_field_raises_type_error(self):
        e = _sum()
        with pytest.raises(TypeError):
            update(e, bogus=1)
        with pytest.raises(TypeError):
            update(e, lhs=const_int(0), bogus=1)

    def test_nodes_stay_frozen(self):
        e = _sum()
        out = update(e, rhs=const_int(2))
        for node in (e, out):
            with pytest.raises(FrozenInstanceError):
                node.lhs = const_int(3)


class TestStructuralSharing:
    def _block(self):
        inner = Assign(X, (Read(J, (), INDEX),), Const(0.0, F32))
        return (For(J, const_int(0), const_int(4), (inner,)),)

    def test_identity_rewrite_shares_everything(self):
        block = self._block()
        assert map_stmts(block, expr_fn=lambda e: e) is block
        e = _sum()
        assert map_expr(e, lambda sub: sub) is e

    def test_substitution_rebuilds_only_the_changed_path(self):
        block = self._block()
        assert subst_stmts(block, {I: const_int(3)}) is block
        (loop,) = subst_stmts(block, {J: const_int(3)})
        (orig,) = block
        assert loop is not orig
        assert loop.lo is orig.lo and loop.hi is orig.hi
        assert loop.body[0].rhs is orig.body[0].rhs
