"""Tests for rename, partial_eval, and simplify."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent.parent))

from helpers import assert_equivalent

from repro.core import DRAM, SchedulingError, proc
from repro.core.loopir import Assign, BinOp, Read, const_int
from repro.core.pprint import expr_to_str
from repro.core.prelude import Sym
from repro.core.scheduling import rename, simplify
from repro.core.traversal import subst_expr, subst_stmts
from repro.core.typesys import F32, INDEX


@proc
def gemm_like(M: size, N: size, K: size, A: f32[K, M] @ DRAM, B: f32[K, N] @ DRAM, C: f32[N, M] @ DRAM):
    for k in seq(0, K):
        for j in seq(0, N):
            for i in seq(0, M):
                C[j, i] += A[k, i] * B[k, j]


class TestRename:
    def test_rename_changes_name_only(self):
        p = rename(gemm_like, "uk8x12")
        assert p.name() == "uk8x12"
        assert str(p).startswith("def uk8x12(")

    def test_invalid_name_rejected(self):
        with pytest.raises(SchedulingError):
            rename(gemm_like, "8bad name")


class TestPartialEval:
    def test_positional_binding(self):
        p = gemm_like.partial_eval(8, 12)
        names = p.arg_names()
        assert "M" not in names and "N" not in names and "K" in names
        assert "seq(0, 12)" in str(p)

    def test_keyword_binding(self):
        p = gemm_like.partial_eval(K=16)
        assert "K" not in p.arg_names()
        assert "seq(0, 16)" in str(p)

    def test_shapes_specialize(self):
        p = gemm_like.partial_eval(8, 12)
        a_arg = p.ir.arg_named("A")
        from repro.core.affine import try_constant

        assert try_constant(a_arg.type.shape[1]) == 8

    def test_semantics_match_original(self):
        p = gemm_like.partial_eval(8, 12)
        rng = np.random.default_rng(0)
        K = 5
        A = rng.random((K, 8), dtype=np.float32)
        B = rng.random((K, 12), dtype=np.float32)
        C1 = rng.random((12, 8), dtype=np.float32)
        C2 = C1.copy()
        gemm_like.interpret(8, 12, K, A, B, C1)
        p.interpret(K, A, B, C2)
        np.testing.assert_allclose(C1, C2)

    def test_nonpositive_size_rejected(self):
        with pytest.raises(SchedulingError, match="positive"):
            gemm_like.partial_eval(0, 12)

    def test_too_many_values_rejected(self):
        with pytest.raises(SchedulingError):
            gemm_like.partial_eval(1, 2, 3, 4)

    def test_contradicted_predicate_rejected(self):
        @proc
        def even(N: size, x: f32[N] @ DRAM):
            assert N % 2 == 0
            for i in seq(0, N):
                x[i] = 0.0

        with pytest.raises(SchedulingError, match="predicate"):
            even.partial_eval(3)

    def test_satisfied_predicate_dropped(self):
        @proc
        def even(N: size, x: f32[N] @ DRAM):
            assert N % 2 == 0
            for i in seq(0, N):
                x[i] = 0.0

        p = even.partial_eval(4)
        assert not p.ir.preds


class TestSimplify:
    def test_folds_index_arithmetic(self):
        @proc
        def messy(x: f32[16] @ DRAM):
            for i in seq(0, 4):
                x[2 * i + 2 * i + 0] = 0.0

        p = simplify(messy)
        assert "4 * i" in str(p)

    def test_drops_empty_loops(self):
        @proc
        def with_empty(x: f32[4] @ DRAM):
            for i in seq(0, 0):
                x[0] = 1.0
            for i in seq(0, 4):
                x[i] = 0.0

        p = simplify(with_empty)
        assert len(p.ir.body) == 1

    def test_keeps_trip_one_loops(self):
        @proc
        def single(x: f32[4] @ DRAM):
            for i in seq(0, 1):
                x[i] = 0.0

        p = simplify(single)
        assert "for i in seq(0, 1)" in str(p)

    def test_data_identities_folded(self):
        @proc
        def identities(x: f32[4] @ DRAM):
            for i in seq(0, 4):
                x[i] = x[i] * 1.0 + 0.0

        p = simplify(identities)
        assert "* 1.0" not in str(p)
        assert_equivalent(identities, p, sizes={})


class TestSubstStmts:
    def test_substitutes_each_occurrence_once(self):
        # i -> i + 1 mentions i again, so applying it at every enclosing
        # node (rather than once per occurrence) would nest it repeatedly
        i, x, y = Sym("i"), Sym("x"), Sym("y")
        i_read = Read(i, (), INDEX)
        rhs = Read(y, (BinOp("*", const_int(2), i_read, INDEX),), F32)
        (s,) = subst_stmts(
            (Assign(x, (i_read,), rhs),), {i: BinOp("+", i_read, const_int(1), INDEX)}
        )
        assert expr_to_str(s.rhs) == "y[2 * (i + 1)]"
        assert expr_to_str(s.rhs) == expr_to_str(
            subst_expr(rhs, {i: BinOp("+", i_read, const_int(1), INDEX)})
        )
        assert expr_to_str(s.idx[0]) == "i + 1"
