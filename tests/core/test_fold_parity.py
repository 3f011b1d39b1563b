"""Oracle-parity suite for ``fold_constants``.

Production folds each expression in one bottom-up pass: every node once,
children before parent.  The fold it replaced re-simplified every subtree
at every enclosing node; it lives on here, verbatim apart from wrapping
its per-node callback for the whole-expression ``map_stmts`` contract,
as the golden oracle.  The two must agree on ``==`` (which sees the node
types the printer hides) and on printed text (which sees ``1`` against
``1.0``) for every fold the generator runs on the pinned backends, and
for hypothesis-drawn procs covering every node kind the fold descends
into.

Production folds only the statements a rewrite did not share with its
fold base, which is sound because the fold is idempotent.  Both halves
are checked here: idempotence on drawn procs, and every local fold —
the generator's and one-statement rewrites of drawn procs — against the
oracle's fold of the whole proc.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent.parent))

from helpers import family_kernel_specs, generate_family_kernel, simplify_expr

from repro.core.affine import try_constant
from repro.core.loopir import (
    Alloc,
    Assign,
    BinOp,
    Call,
    Const,
    Expr,
    FnArg,
    For,
    InstrInfo,
    Interval,
    Pass,
    Point,
    Proc,
    Read,
    Reduce,
    StrideExpr,
    USub,
    WindowExpr,
    update,
)
from repro.core.memory import DRAM
from repro.core.patterns import replace_at
from repro.core.pprint import proc_to_str
from repro.core.prelude import Sym
from repro.core.scheduling import subst
from repro.core.scheduling.subst import fold_constants
from repro.core.traversal import map_expr, map_stmts
from repro.core.typesys import BOOL, F32, INDEX, SIZE, TensorType

# ---------------------------------------------------------------------------
# The oracle: the bottom-up fold as production ran it before the one-pass fold
# ---------------------------------------------------------------------------


def _fold_expr(e: Expr) -> Expr:
    """Affine-simplify index expressions; fold numeric identities."""
    simplified = simplify_expr(e)
    if isinstance(simplified, BinOp) and not simplified.type.is_indexable():
        lhs, rhs = _fold_expr(simplified.lhs), _fold_expr(simplified.rhs)
        # x * 1, 1 * x, x + 0, 0 + x on data arithmetic
        if simplified.op == "*":
            if isinstance(lhs, Const) and lhs.val == 1:
                return rhs
            if isinstance(rhs, Const) and rhs.val == 1:
                return lhs
        if simplified.op == "+":
            if isinstance(lhs, Const) and lhs.val == 0:
                return rhs
            if isinstance(rhs, Const) and rhs.val == 0:
                return lhs
        return update(simplified, lhs=lhs, rhs=rhs)
    return simplified


def oracle_fold_constants(ir: Proc) -> Proc:
    """Fold and canonicalize every expression; drop degenerate loops.

    A loop whose trip count folds to zero disappears; a trip count of one
    keeps the loop (explicit structure is what scheduling patterns address —
    collapsing is a separate, opt-in step).
    """

    def stmt_fn(s):
        if isinstance(s, For):
            lo = try_constant(s.lo)
            hi = try_constant(s.hi)
            if lo is not None and hi is not None and hi <= lo:
                return Pass(s.srcinfo)
        return s

    body = map_stmts(
        ir.body, stmt_fn=stmt_fn, expr_fn=lambda e: map_expr(e, _fold_expr)
    )
    body = tuple(s for s in body if not isinstance(s, Pass)) or body
    args = []
    for a in ir.args:
        typ = a.type
        if isinstance(typ, TensorType):
            typ = typ.with_shape(tuple(_fold_expr(d) for d in typ.shape))
        args.append(update(a, type=typ))

    def fold_alloc(s):
        if isinstance(s, Alloc) and isinstance(s.type, TensorType):
            return update(
                s, type=s.type.with_shape(tuple(_fold_expr(d) for d in s.type.shape))
            )
        return s

    body = map_stmts(body, stmt_fn=fold_alloc)
    preds = tuple(_fold_expr(pr) for pr in ir.preds)
    return update(ir, args=tuple(args), preds=preds, body=body)


def assert_same_fold(got: Proc, want: Proc) -> None:
    assert got == want
    assert proc_to_str(got) == proc_to_str(want)


def assert_fold_parity(ir: Proc) -> None:
    assert_same_fold(fold_constants(ir), oracle_fold_constants(ir))


# ---------------------------------------------------------------------------
# Every fold the generator runs, and every step it keeps
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "label, isa, mr, nr",
    family_kernel_specs(),
    ids=[spec[0] for spec in family_kernel_specs()],
)
def test_generator_folds_match_oracle(monkeypatch, label, isa, mr, nr):
    folds = []

    def recording_fold(ir, base=None):
        out = fold_constants(ir, base)
        folds.append((ir, base, out))
        return out

    # every primitive folds through ``subst.folded``, which reads the
    # module's ``fold_constants`` at call time
    monkeypatch.setattr(subst, "fold_constants", recording_fold)
    parts = generate_family_kernel(isa, mr, nr)
    monkeypatch.undo()

    assert folds, "generation ran no fold"
    assert any(base is not None for _, base, _ in folds), "no fold was local"
    for ir, _, out in folds:
        # local or whole, each fold equals the oracle's whole-proc fold
        assert_same_fold(out, oracle_fold_constants(ir))
    for _, kernel in parts:
        for step in kernel.steps.values():
            assert_fold_parity(step.ir)


# ---------------------------------------------------------------------------
# Hypothesis-drawn procs
# ---------------------------------------------------------------------------

_N, _M = Sym("N"), Sym("M")
_ITERS = (Sym("i"), Sym("j"), Sym("k"))
_X, _Y, _S = Sym("x"), Sym("y"), Sym("s")
_CALLEE = Proc(
    "callee",
    (),
    (),
    (),
    InstrInfo("callee({dst_data});"),
)

index_leaf = st.one_of(
    st.integers(-3, 9).map(lambda v: Const(v, INDEX)),
    st.sampled_from((_N, _M) + _ITERS).map(lambda s: Read(s, (), INDEX)),
)


def _index_node(children):
    binop = st.tuples(
        st.sampled_from(("+", "-", "*", "/", "%")), children, children
    ).map(lambda t: BinOp(t[0], t[1], t[2], INDEX))
    return st.one_of(binop, children.map(lambda a: USub(a, INDEX)))


# affine and non-affine (``/``, ``%``, ``i * j``) index arithmetic
index_expr = st.recursive(index_leaf, _index_node, max_leaves=6)

# the identities' operands: 1, 1.0, 0 and 0.0 constants of data type
data_const = st.sampled_from((1, 1.0, 0, 0.0, 2.5)).map(lambda v: Const(v, F32))

data_leaf = st.one_of(
    data_const,
    st.tuples(index_expr, index_expr).map(lambda ix: Read(_X, ix, F32)),
    st.lists(index_expr, min_size=1, max_size=1).map(
        lambda ix: Read(_Y, tuple(ix), F32)
    ),
    st.just(Read(_S, (), F32)),
)


def _data_node(children):
    binop = st.tuples(st.sampled_from(("+", "*", "-")), children, children).map(
        lambda t: BinOp(t[0], t[1], t[2], F32)
    )
    return st.one_of(binop, children.map(lambda a: USub(a, F32)))


data_expr = st.recursive(data_leaf, _data_node, max_leaves=6)

window_part = st.one_of(
    index_expr.map(Point),
    st.tuples(index_expr, index_expr).map(lambda t: Interval(t[0], t[1])),
)
window_expr = st.tuples(window_part, window_part).map(
    lambda w: WindowExpr(_X, w, TensorType(F32, (Const(4, INDEX),), window=True))
)
call_arg = st.one_of(
    window_expr,
    index_expr,
    st.just(StrideExpr(_X, 0)),
    st.just(Read(_X, (), TensorType(F32, (Read(_N, (), SIZE),)))),
)

shape = st.lists(index_expr, min_size=1, max_size=2).map(tuple)

simple_stmt = st.one_of(
    st.tuples(
        st.sampled_from((Assign, Reduce)), index_expr, index_expr, data_expr
    ).map(lambda t: t[0](_X, (t[1], t[2]), t[3])),
    st.lists(call_arg, min_size=1, max_size=3).map(
        lambda args: Call(_CALLEE, tuple(args))
    ),
    st.tuples(st.sampled_from((Sym("a"), Sym("b"))), shape).map(
        lambda t: Alloc(t[0], TensorType(F32, t[1]), DRAM)
    ),
    st.just(Pass()),
)

# zero-trip (empty and reversed), one-trip, and drawn loop bounds
loop_bounds = st.one_of(
    st.tuples(st.integers(0, 4), st.integers(-1, 1)).map(
        lambda t: (Const(t[0], INDEX), Const(t[0] + t[1], INDEX))
    ),
    st.integers(1, 4).map(
        lambda hi: (
            BinOp("-", Const(hi, INDEX), Const(1, INDEX), INDEX),
            Const(hi, INDEX),
        )
    ),
    st.tuples(index_expr, index_expr),
)


def _block(children):
    loop = st.tuples(
        st.sampled_from(_ITERS),
        loop_bounds,
        st.lists(children, min_size=1, max_size=3),
    ).map(lambda t: For(t[0], t[1][0], t[1][1], tuple(t[2])))
    return st.one_of(loop, children)


stmt = st.recursive(simple_stmt, _block, max_leaves=6)

drawn_proc = st.tuples(
    st.lists(stmt, min_size=1, max_size=4),
    shape,
    shape,
    st.lists(
        st.tuples(
            st.sampled_from(("<", "<=", "==")), index_expr, index_expr
        ).map(lambda t: BinOp(t[0], t[1], t[2], BOOL)),
        max_size=2,
    ),
).map(
    lambda t: Proc(
        "drawn",
        (
            FnArg(_N, SIZE),
            FnArg(_M, SIZE),
            FnArg(_X, TensorType(F32, t[1]), DRAM),
            FnArg(_Y, TensorType(F32, t[2]), DRAM),
            FnArg(_S, F32, DRAM),
        ),
        tuple(t[3]),
        tuple(t[0]),
    )
)


@settings(max_examples=300, deadline=None)
@given(drawn_proc)
def test_drawn_procs_match_oracle(ir):
    assert_fold_parity(ir)


@settings(max_examples=150, deadline=None)
@given(drawn_proc)
def test_fold_is_idempotent(ir):
    """The invariant the local fold rests on: a fold output is a fixed
    point, so each of its statements may be skipped by the next fold."""
    once = fold_constants(ir)
    assert_same_fold(fold_constants(once), once)


def _stmt_paths(block, prefix=()):
    for i, s in enumerate(block):
        yield prefix + (i,)
        if isinstance(s, For):
            yield from _stmt_paths(s.body, prefix + (i,))


@settings(max_examples=150, deadline=None)
@given(drawn_proc, stmt, st.data())
def test_local_fold_of_a_rewrite_matches_oracle(ir, new_stmt, data):
    """Rewrite one statement of a fold output, anywhere in the nest: the
    fold against the old output equals the oracle's whole-proc fold."""
    old = fold_constants(ir)
    path = data.draw(st.sampled_from(list(_stmt_paths(old.body))))
    new = replace_at(old, path, [new_stmt])
    assert_same_fold(fold_constants(new, base=old), oracle_fold_constants(new))


_I = Read(_ITERS[0], (), INDEX)


@pytest.mark.parametrize(
    "rhs, text",
    [
        # -(x[i] * 1.0): the identity sits below a data USub
        (USub(BinOp("*", Read(_X, (_I,), F32), Const(1.0, F32), F32), F32), "-x[i]"),
        # 0.0 + 1 * x[i + 0]: identities nested in identities
        (
            BinOp(
                "+",
                Const(0.0, F32),
                BinOp(
                    "*",
                    Const(1, F32),
                    Read(_X, (BinOp("+", _I, Const(0, INDEX), INDEX),), F32),
                    F32,
                ),
                F32,
            ),
            "x[i]",
        ),
    ],
    ids=["usub-over-identity", "nested-identities"],
)
def test_identities_below_the_root_fold(rhs, text):
    x_arg = FnArg(_X, TensorType(F32, (Const(8, INDEX),)), DRAM)
    ir = Proc("p", (x_arg,), (), (Assign(_X, (Const(0, INDEX),), rhs),))
    assert_fold_parity(ir)
    assert proc_to_str(fold_constants(ir)).endswith(f"x[0] = {text}")
