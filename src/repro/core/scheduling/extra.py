"""Additional scheduling primitives: inline_call, fuse_loops, cut_loop.

These round out the Exo-style vocabulary beyond what the paper's pipeline
strictly needs:

* :func:`inline_call` — the inverse of ``replace``: expand an instruction
  (or procedure) call back into its semantic body, with windows
  substituted.  Useful for inspecting what a call "really does" and for
  re-scheduling code that was already lowered; ``replace`` after
  ``inline_call`` round-trips.
* :func:`fuse_loops` — merge two adjacent loops with identical bounds into
  one, subject to the same effect-safety discipline as fission (fusion is
  its inverse).
* :func:`cut_loop` — split a loop's iteration range at a static point,
  yielding two loops; the manual form of ``divide_loop``'s tail handling.
"""

from __future__ import annotations

from typing import List

from ..affine import try_constant
from ..effects import fission_safe
from ..loopir import (
    Assign,
    BinOp,
    Call,
    Const,
    Expr,
    For,
    Point,
    Read,
    Reduce,
    Stmt,
    WindowExpr,
    update,
)
from ..patterns import find_loop, find_stmt, get_stmt, replace_at
from ..prelude import SchedulingError
from ..proc import Procedure
from ..traversal import alpha_rename, map_expr, map_stmts, subst_stmts
from ..typesys import INDEX, TensorType
from .subst import folded

# ---------------------------------------------------------------------------
# inline_call
# ---------------------------------------------------------------------------


def inline_call(p: Procedure, pattern: str) -> Procedure:
    """Expand the call matched by ``pattern`` into the callee's body.

    Window arguments become re-indexed accesses of the underlying buffers
    (a window ``C_reg[jt, it, 0:4]`` read at ``dst[i]`` becomes
    ``C_reg[jt, it, i]``); scalar and index arguments substitute directly.
    """
    cursor = find_stmt(p.ir, pattern)
    call = cursor.stmt()
    if not isinstance(call, Call):
        raise SchedulingError(f"pattern {pattern!r} does not name a call")
    callee = call.proc

    # Build per-formal translation of accesses.
    translators = {}
    value_env = {}
    for formal, actual in zip(callee.args, call.args):
        if isinstance(formal.type, TensorType):
            translators[formal.name] = _window_translator(formal, actual)
        else:
            value_env[formal.name] = actual

    body = alpha_rename(callee.body)
    body = subst_stmts(body, value_env)

    def fix_expr(e: Expr) -> Expr:
        if isinstance(e, Read) and e.name in translators:
            return translators[e.name](e.idx, e)
        return e

    def fix_stmt(s: Stmt) -> Stmt:
        if isinstance(s, (Assign, Reduce)) and s.name in translators:
            model = translators[s.name](s.idx, None)
            return update(s, name=model.name, idx=model.idx)
        return s

    new_body = map_stmts(
        body, stmt_fn=fix_stmt, expr_fn=lambda e: map_expr(e, fix_expr)
    )
    return folded(p, replace_at(p.ir, cursor.path, list(new_body)))


def _window_translator(formal, actual):
    """Build a function mapping formal indices to concrete buffer indices."""
    if isinstance(actual, WindowExpr):
        buf = actual.name
        window = actual.idx

        def translate(idx, read):
            concrete: List[Expr] = []
            it = iter(idx)
            for w in window:
                if isinstance(w, Point):
                    concrete.append(w.pt)
                else:
                    inner = next(it)
                    concrete.append(BinOp("+", w.lo, inner, INDEX))
            result_type = read.type if read is not None else None
            return Read(buf, tuple(concrete), result_type or formal.type.base)

        return translate
    if isinstance(actual, Read) and actual.type.is_tensor():
        buf = actual.name

        def translate(idx, read):
            result_type = read.type if read is not None else None
            return Read(buf, tuple(idx), result_type or formal.type.base)

        return translate
    raise SchedulingError(
        f"cannot inline: argument {formal.name.name} is not a buffer"
    )


# ---------------------------------------------------------------------------
# fuse_loops
# ---------------------------------------------------------------------------


def fuse_loops(p: Procedure, pattern: str) -> Procedure:
    """Fuse the loop matched by ``pattern`` with its immediate successor.

    Both loops must have equal bounds; the second loop's iterator is renamed
    to the first's.  Safety mirrors fission: for every buffer written in one
    body and touched in the other, accesses must agree on the iterator's
    coefficient signature and actually depend on it.
    """
    cursor = find_loop(p.ir, pattern)
    first = cursor.stmt()
    assert isinstance(first, For)
    parent_path = cursor.path[:-1]
    idx = cursor.path[-1]
    block = (
        p.ir.body if not parent_path else get_stmt(p.ir, parent_path).body
    )
    if idx + 1 >= len(block) or not isinstance(block[idx + 1], For):
        raise SchedulingError("no adjacent loop to fuse with")
    second = block[idx + 1]

    from ..affine import exprs_equal

    if not (
        exprs_equal(first.lo, second.lo) and exprs_equal(first.hi, second.hi)
    ):
        raise SchedulingError("cannot fuse loops with different bounds")

    renamed = subst_stmts(
        second.body, {second.iter: Read(first.iter, (), INDEX)}
    )
    if not fission_safe(list(first.body), list(renamed), [first.iter]):
        raise SchedulingError("fusing these loops may change behaviour")
    fused = update(first, body=first.body + renamed)

    new_block = list(block)
    new_block[idx : idx + 2] = [fused]
    if not parent_path:
        return Procedure(update(p.ir, body=tuple(new_block)), p.fold_base)
    parent = get_stmt(p.ir, parent_path)
    return Procedure(
        replace_at(p.ir, parent_path, [update(parent, body=tuple(new_block))]),
        p.fold_base,
    )


# ---------------------------------------------------------------------------
# cut_loop
# ---------------------------------------------------------------------------


def cut_loop(p: Procedure, pattern: str, cut: int) -> Procedure:
    """Split ``for i in seq(lo, hi)`` into ``[lo, cut)`` and ``[cut, hi)``.

    ``cut`` must lie strictly inside the static iteration range.
    """
    cursor = find_loop(p.ir, pattern)
    loop = cursor.stmt()
    assert isinstance(loop, For)
    lo = try_constant(loop.lo)
    hi = try_constant(loop.hi)
    if lo is None or hi is None:
        raise SchedulingError("cut_loop requires static loop bounds")
    if not (lo < cut < hi):
        raise SchedulingError(
            f"cut point {cut} outside the open range ({lo}, {hi})"
        )
    src = loop.srcinfo
    head = update(loop, hi=Const(cut, INDEX, src))
    tail_iter = loop.iter.copy()
    tail_body = subst_stmts(loop.body, {loop.iter: Read(tail_iter, (), INDEX)})
    tail = For(
        tail_iter,
        Const(cut, INDEX, src),
        loop.hi,
        alpha_rename(tail_body),
        src,
    )
    return Procedure(replace_at(p.ir, cursor.path, [head, tail]), p.fold_base)
