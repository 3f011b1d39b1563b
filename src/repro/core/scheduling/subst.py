"""Renaming, constant folding, and ``simplify``.

Primitives fold through :func:`folded`, which folds only the statements
created since the proc's last fold: a primitive costs what the fragment
it rewrites costs, not what the whole proc costs.
"""

from __future__ import annotations

from typing import Optional

from ..affine import delinearize, linearize, try_constant
from ..loopir import BinOp, Const, Expr, For, Pass, Proc, Read, update
from ..prelude import SchedulingError
from ..proc import Procedure
from ..traversal import map_expr, map_stmts
from ..typesys import INDEX, TensorType


def rename(p: Procedure, new_name: str) -> Procedure:
    """Return a copy of ``p`` with a new procedure name."""
    if not new_name.isidentifier():
        raise SchedulingError(f"invalid procedure name {new_name!r}")
    return Procedure(update(p.ir, name=new_name), p.fold_base)


def _fold_node(e: Expr) -> Expr:
    """Fold one node whose children are already folded.

    Affine arithmetic goes to canonical form; ``x * 1``, ``1 * x``,
    ``x + 0`` and ``0 + x`` on data arithmetic reduce to ``x``.
    """
    leaf = isinstance(e, Const) or (isinstance(e, Read) and not e.idx)
    if leaf and e.type is INDEX:
        return e  # an index leaf is its own canonical form
    lin = linearize(e)
    if lin is not None:
        return delinearize(lin, e.srcinfo)
    if isinstance(e, BinOp) and not e.type.is_indexable():
        lhs, rhs = e.lhs, e.rhs
        if e.op == "*":
            if isinstance(lhs, Const) and lhs.val == 1:
                return rhs
            if isinstance(rhs, Const) and rhs.val == 1:
                return lhs
        if e.op == "+":
            if isinstance(lhs, Const) and lhs.val == 0:
                return rhs
            if isinstance(rhs, Const) and rhs.val == 0:
                return lhs
    return e


def _fold_expr(e: Expr) -> Expr:
    """Fold ``e`` in one bottom-up pass: every node once, children first."""
    return map_expr(e, _fold_node)


def _stmt_ids(stmts, out: set) -> set:
    for s in stmts:
        out.add(id(s))
        if isinstance(s, For):
            _stmt_ids(s.body, out)
    return out


def fold_constants(ir: Proc, base: Optional[Proc] = None) -> Proc:
    """Fold and canonicalize every expression; drop degenerate loops.

    A loop whose trip count folds to zero disappears; a trip count of one
    keeps the loop (explicit structure is what scheduling patterns address —
    collapsing is a separate, opt-in step).

    ``base``, when given, is the fold output ``ir`` was rewritten from.
    The fold is idempotent, so a statement of ``ir`` that is the very
    object of a ``base`` statement is a fixed point: it is kept, and only
    the statements created since are folded.  The result equals the
    whole-proc fold that ``base=None`` runs.  The ids of ``base``'s
    statements live only for this call, while ``base`` holds them alive.
    """
    done = _stmt_ids(base.body, set()) if base is not None else ()

    def stmt_fn(s):
        if isinstance(s, For):
            lo = try_constant(s.lo)
            hi = try_constant(s.hi)
            if lo is not None and hi is not None and hi <= lo:
                return Pass(s.srcinfo)
        return s

    body = map_stmts(
        ir.body,
        stmt_fn=stmt_fn,
        expr_fn=_fold_expr,
        keep=(lambda s: id(s) in done) if done else None,
    )
    body = tuple(s for s in body if not isinstance(s, Pass)) or body
    args, preds = ir.args, ir.preds
    if base is None or args is not base.args:
        args = []
        for a in ir.args:
            typ = a.type
            if isinstance(typ, TensorType):
                typ = typ.with_shape(tuple(_fold_expr(d) for d in typ.shape))
            args.append(update(a, type=typ))
        args = tuple(args)
    if base is None or preds is not base.preds:
        preds = tuple(_fold_expr(pr) for pr in ir.preds)
    return update(ir, args=args, preds=preds, body=body)


def folded(p: Procedure, ir: Proc) -> Procedure:
    """Fold ``ir``, a rewrite of ``p``, into a new fold base.

    Only what differs from ``p``'s fold base is folded; the result is its
    own fold base, so the next fold starts from it.
    """
    ir = fold_constants(ir, p.fold_base)
    return Procedure(ir, fold_base=ir)


def simplify(p: Procedure) -> Procedure:
    """Public entry: canonicalize all index arithmetic in ``p``."""
    return folded(p, p.ir)
