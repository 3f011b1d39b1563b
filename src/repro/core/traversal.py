"""Generic traversal, substitution, and alpha-renaming over LoopIR.

The workhorses used by every scheduling primitive:

* :func:`map_expr` / :func:`map_stmts` — bottom-up rewriting with a callback.
  ``map_expr`` calls its callback on every subexpression, children first.
  ``map_stmts`` calls ``expr_fn`` once on each *statement-level* expression,
  whole: every index, right-hand side, loop bound, call argument and
  allocation dimension.  A caller that needs a per-node callback passes
  ``lambda e: map_expr(e, fn)``.  Both return every unchanged subtree as
  the very object they were given.  The constant fold relies on that: it
  skips every statement still shared with the proc's last fold output,
  its *fold base* (:func:`repro.core.scheduling.subst.fold_constants`).
* :func:`walk_expr` — the read-only visit for queries: nothing is rebuilt.
* :func:`subst_expr` — capture-avoiding substitution of symbols by
  expressions (both in expression position and, where an entire buffer is
  renamed, in statement l-values).
* :func:`unroll_calls` — a block's calls with its static loops unrolled.
* :func:`alpha_rename` — deep copy of a statement block with fresh symbols
  for every binder (loop iterators and allocations), so a block can be
  duplicated (e.g. by ``unroll_loop`` or ``divide_loop`` tails) without
  symbol collisions.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, Tuple

from .affine import try_constant
from .loopir import (
    Alloc,
    Assign,
    BinOp,
    Call,
    Const,
    Expr,
    For,
    Interval,
    Pass,
    Point,
    Read,
    Reduce,
    Stmt,
    StrideExpr,
    USub,
    WindowExpr,
    update,
)
from .prelude import Sym
from .typesys import INDEX

# ---------------------------------------------------------------------------
# Expression rewriting
# ---------------------------------------------------------------------------


def _shared(new: tuple, old) -> tuple:
    """``old`` itself when ``new`` holds exactly its elements, else ``new``."""
    if (
        type(old) is tuple
        and len(new) == len(old)
        and all(a is b for a, b in zip(new, old))
    ):
        return old
    return new


def _map_tuple(fn: Callable, items: tuple) -> tuple:
    return _shared(tuple(fn(x) for x in items), items)


def map_expr(e: Expr, fn: Callable[[Expr], Expr]) -> Expr:
    """Rebuild ``e`` bottom-up, applying ``fn`` to every subexpression."""
    if isinstance(e, (Const, StrideExpr)):
        return fn(e)
    if isinstance(e, Read):
        if not e.idx:
            return fn(e)  # a scalar read is a leaf
        return fn(update(e, idx=_map_tuple(lambda i: map_expr(i, fn), e.idx)))
    if isinstance(e, BinOp):
        return fn(update(e, lhs=map_expr(e.lhs, fn), rhs=map_expr(e.rhs, fn)))
    if isinstance(e, USub):
        return fn(update(e, arg=map_expr(e.arg, fn)))
    if isinstance(e, Interval):
        return fn(update(e, lo=map_expr(e.lo, fn), hi=map_expr(e.hi, fn)))
    if isinstance(e, Point):
        return fn(update(e, pt=map_expr(e.pt, fn)))
    if isinstance(e, WindowExpr):
        return fn(update(e, idx=_map_tuple(lambda i: map_expr(i, fn), e.idx)))
    raise TypeError(f"unknown expression node: {type(e).__name__}")


def walk_expr(e: Expr, fn: Callable[[Expr], None]) -> None:
    """Call ``fn`` on every subexpression of ``e``, children first.

    The read-only twin of :func:`map_expr`: same order, nothing rebuilt.
    """
    if isinstance(e, (Read, WindowExpr)):
        for i in e.idx:
            walk_expr(i, fn)
    elif isinstance(e, BinOp):
        walk_expr(e.lhs, fn)
        walk_expr(e.rhs, fn)
    elif isinstance(e, USub):
        walk_expr(e.arg, fn)
    elif isinstance(e, Interval):
        walk_expr(e.lo, fn)
        walk_expr(e.hi, fn)
    elif isinstance(e, Point):
        walk_expr(e.pt, fn)
    elif not isinstance(e, (Const, StrideExpr)):
        raise TypeError(f"unknown expression node: {type(e).__name__}")
    fn(e)


def map_stmts(
    stmts: Iterable[Stmt],
    stmt_fn: Callable[[Stmt], Stmt] = None,
    expr_fn: Callable[[Expr], Expr] = None,
    keep: Callable[[Stmt], bool] = None,
) -> Tuple[Stmt, ...]:
    """Rebuild a statement block bottom-up.

    ``expr_fn`` is applied once to each statement-level expression (an
    index, a right-hand side, a loop bound, a call argument or an
    allocation dimension), which it receives whole; ``stmt_fn`` is applied
    to every rebuilt statement.  A statement for which ``keep`` returns
    True is passed through as it is, without visiting it or anything
    inside it.  Any of the three may be None.  Statements whose
    expressions and bodies come back unchanged are returned as they are.
    """
    sf = stmt_fn or (lambda s: s)
    ef = expr_fn or (lambda e: e)

    out = []
    for s in stmts:
        if keep is not None and keep(s):
            out.append(s)
            continue
        if isinstance(s, (Assign, Reduce)):
            s2 = update(s, idx=_map_tuple(ef, s.idx), rhs=ef(s.rhs))
        elif isinstance(s, For):
            s2 = update(
                s,
                lo=ef(s.lo),
                hi=ef(s.hi),
                body=map_stmts(s.body, stmt_fn, expr_fn, keep),
            )
        elif isinstance(s, Call):
            s2 = update(s, args=_map_tuple(ef, s.args))
        elif isinstance(s, Alloc):
            s2 = s
            typ = s.type
            if getattr(typ, "is_tensor", lambda: False)():
                new_shape = _map_tuple(ef, typ.shape)
                if new_shape is not typ.shape:
                    s2 = update(s, type=typ.with_shape(new_shape))
        elif isinstance(s, Pass):
            s2 = s
        else:
            raise TypeError(f"unknown statement node: {type(s).__name__}")
        out.append(sf(s2))
    return _shared(tuple(out), stmts)


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------


def subst_expr(e: Expr, env: Dict[Sym, Expr]) -> Expr:
    """Substitute symbols by expressions inside ``e``.

    A ``Read(name, ())`` whose name is mapped is replaced wholesale.  A
    mapped name appearing with indices must map to another plain symbol
    reference (buffer renaming); anything else is a misuse.
    """

    def go(sub: Expr) -> Expr:
        if isinstance(sub, Read) and sub.name in env:
            repl = env[sub.name]
            if not sub.idx:
                return repl
            if isinstance(repl, Read) and not repl.idx:
                return update(sub, name=repl.name)
            raise ValueError(
                f"cannot substitute indexed read of {sub.name} by {repl}"
            )
        if isinstance(sub, (WindowExpr, StrideExpr)) and sub.name in env:
            repl = env[sub.name]
            if isinstance(repl, Read) and not repl.idx:
                return update(sub, name=repl.name)
            raise ValueError(f"cannot substitute {type(sub).__name__} target")
        return sub

    return map_expr(e, go)


def subst_stmts(stmts: Iterable[Stmt], env: Dict[Sym, Expr]) -> Tuple[Stmt, ...]:
    """Substitute symbols in a block, including statement l-value renames."""

    def stmt_fn(s: Stmt) -> Stmt:
        if isinstance(s, (Assign, Reduce)) and s.name in env:
            repl = env[s.name]
            if isinstance(repl, Read) and not repl.idx:
                return update(s, name=repl.name)
            raise ValueError(f"cannot substitute l-value {s.name} by {repl}")
        return s

    return map_stmts(stmts, stmt_fn=stmt_fn, expr_fn=lambda e: subst_expr(e, env))


def unroll_calls(
    block: Iterable[Stmt], max_trips: int = None, env: Dict[Sym, Expr] = None
) -> Iterator[Stmt]:
    """Yield a block's statements in order, unrolling its static loops.

    The iterator values travel down the loop nest in ``env``, so each
    ``Call`` instance and each nested loop bound is substituted once.  A
    loop that is not static, or runs more than ``max_trips`` times, is
    yielded whole like any other statement, for the caller to skip or
    reject.
    """
    env = env or {}
    for s in block:
        if isinstance(s, Call):
            yield subst_stmts((s,), env)[0] if env else s
        elif isinstance(s, For):
            lo = try_constant(subst_expr(s.lo, env))
            hi = try_constant(subst_expr(s.hi, env))
            static = lo is not None and hi is not None
            if not static or (max_trips is not None and hi - lo > max_trips):
                yield s
                continue
            for i in range(lo, hi):
                inner = {**env, s.iter: Const(i, INDEX)}
                yield from unroll_calls(s.body, max_trips, inner)
        else:
            yield s


# ---------------------------------------------------------------------------
# Alpha renaming
# ---------------------------------------------------------------------------


def alpha_rename(stmts: Iterable[Stmt]) -> Tuple[Stmt, ...]:
    """Deep-copy a block, refreshing every binder it introduces.

    Loop iterators and allocation names defined *inside* the block get fresh
    symbols; free symbols are left untouched.
    """
    mapping: Dict[Sym, Sym] = {}

    def rename_expr(e: Expr) -> Expr:
        if isinstance(e, (Read, WindowExpr, StrideExpr)) and e.name in mapping:
            return update(e, name=mapping[e.name])
        return e

    def go(block: Iterable[Stmt]) -> Tuple[Stmt, ...]:
        out = []
        for s in block:
            if isinstance(s, Alloc):
                fresh = s.name.copy()
                mapping[s.name] = fresh
                out.append(update(s, name=fresh))
            elif isinstance(s, For):
                fresh = s.iter.copy()
                mapping[s.iter] = fresh
                out.append(
                    update(
                        s,
                        iter=fresh,
                        lo=map_expr(s.lo, rename_expr),
                        hi=map_expr(s.hi, rename_expr),
                        body=go(s.body),
                    )
                )
            elif isinstance(s, (Assign, Reduce)):
                name = mapping.get(s.name, s.name)
                out.append(
                    update(
                        s,
                        name=name,
                        idx=tuple(map_expr(i, rename_expr) for i in s.idx),
                        rhs=map_expr(s.rhs, rename_expr),
                    )
                )
            elif isinstance(s, Call):
                out.append(
                    update(
                        s, args=tuple(map_expr(a, rename_expr) for a in s.args)
                    )
                )
            elif isinstance(s, Pass):
                out.append(s)
            else:
                raise TypeError(f"unknown statement node: {type(s).__name__}")
        return tuple(out)

    return go(stmts)


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------


def collect_reads(e: Expr) -> list:
    """All (Sym, idx-tuple) scalar reads inside an expression."""
    found = []

    def see(sub: Expr) -> None:
        if isinstance(sub, Read):
            found.append((sub.name, sub.idx))

    walk_expr(e, see)
    return found


def free_symbols(stmts: Iterable[Stmt]) -> set:
    """Symbols read or written in a block but not bound within it."""
    bound: set = set()
    free: set = set()

    def see(sym: Sym):
        if sym not in bound:
            free.add(sym)

    def see_expr(e: Expr) -> None:
        if isinstance(e, (Read, WindowExpr, StrideExpr)):
            see(e.name)

    def walk(block):
        for s in block:
            if isinstance(s, Alloc):
                bound.add(s.name)
            elif isinstance(s, For):
                walk_expr(s.lo, see_expr)
                walk_expr(s.hi, see_expr)
                bound.add(s.iter)
                walk(s.body)
            elif isinstance(s, (Assign, Reduce)):
                see(s.name)
                for i in s.idx:
                    walk_expr(i, see_expr)
                walk_expr(s.rhs, see_expr)
            elif isinstance(s, Call):
                for a in s.args:
                    walk_expr(a, see_expr)
            elif isinstance(s, Pass):
                pass
            else:
                raise TypeError(f"unknown statement node: {type(s).__name__}")

    walk(stmts)
    return free


def stmt_uses_sym(s: Stmt, sym: Sym) -> bool:
    """True when ``s`` (recursively) reads, writes, or indexes via ``sym``."""
    return sym in free_symbols((s,))
