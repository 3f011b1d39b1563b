"""The loop-nest intermediate representation (LoopIR).

Every ``@proc`` parses into a :class:`Proc`: a list of formal arguments, a
list of assertion predicates, and a statement block.  Statements and
expressions are immutable dataclasses; scheduling primitives rewrite by
constructing new trees.  Sharing is structural: :func:`update` hands back
the node itself when no field changes, so a rewrite rebuilds only the
path to what it changed and every unchanged subtree of its result is the
very same object as in its input.

The node set intentionally mirrors Exo's core IR:

Expressions
    ``Const``, ``Read`` (scalar read or whole-tensor reference), ``BinOp``,
    ``USub``, ``WindowExpr`` (a rectangular slice of a tensor, used as a call
    argument), ``StrideExpr`` (the ``stride(x, d)`` primitive used in
    instruction preconditions).

Statements
    ``Assign`` (``x[i] = e``), ``Reduce`` (``x[i] += e``), ``For`` (a
    ``seq(lo, hi)`` loop), ``Alloc``, ``Call`` (invocation of another proc —
    after ``replace``, of a hardware instruction), and ``Pass``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .memory import DRAM, Memory
from .prelude import NULL_SRC, SrcInfo, Sym
from .typesys import BOOL, INDEX, ScalarType, TensorType, Type

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Expr:
    """Base class for IR expressions."""


@dataclass(frozen=True)
class Const(Expr):
    val: object
    type: Type
    srcinfo: SrcInfo = NULL_SRC


@dataclass(frozen=True)
class Read(Expr):
    """Read a scalar element ``name[idx...]`` or reference a whole buffer.

    A ``Read`` with empty ``idx`` of tensor type denotes the entire tensor
    (used when passing a buffer to a call without slicing).
    """

    name: Sym
    idx: Tuple[Expr, ...]
    type: Type
    srcinfo: SrcInfo = NULL_SRC


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # + - * / % < > <= >= == and or
    lhs: Expr
    rhs: Expr
    type: Type
    srcinfo: SrcInfo = NULL_SRC


@dataclass(frozen=True)
class USub(Expr):
    arg: Expr
    type: Type
    srcinfo: SrcInfo = NULL_SRC


@dataclass(frozen=True)
class Interval(Expr):
    """A half-open index range ``lo:hi`` inside a :class:`WindowExpr`."""

    lo: Expr
    hi: Expr
    srcinfo: SrcInfo = NULL_SRC


@dataclass(frozen=True)
class Point(Expr):
    """A single index inside a :class:`WindowExpr`."""

    pt: Expr
    srcinfo: SrcInfo = NULL_SRC


@dataclass(frozen=True)
class WindowExpr(Expr):
    """A rectangular window ``name[w0, w1, ...]`` passed to a call.

    Each ``idx`` entry is a :class:`Point` (collapsing that dimension) or an
    :class:`Interval` (keeping it).  The resulting type is a window tensor
    whose rank equals the number of intervals.
    """

    name: Sym
    idx: Tuple[Expr, ...]  # Point | Interval
    type: TensorType
    srcinfo: SrcInfo = NULL_SRC


@dataclass(frozen=True)
class StrideExpr(Expr):
    """``stride(name, dim)`` — the dim-th stride of a tensor argument."""

    name: Sym
    dim: int
    type: Type = INDEX
    srcinfo: SrcInfo = NULL_SRC


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Stmt:
    """Base class for IR statements."""


@dataclass(frozen=True)
class Assign(Stmt):
    name: Sym
    idx: Tuple[Expr, ...]
    rhs: Expr
    srcinfo: SrcInfo = NULL_SRC


@dataclass(frozen=True)
class Reduce(Stmt):
    """``name[idx] += rhs`` — the only reduction form in the DSL."""

    name: Sym
    idx: Tuple[Expr, ...]
    rhs: Expr
    srcinfo: SrcInfo = NULL_SRC


@dataclass(frozen=True)
class For(Stmt):
    """``for iter in seq(lo, hi): body`` — a sequential counted loop."""

    iter: Sym
    lo: Expr
    hi: Expr
    body: Tuple[Stmt, ...]
    srcinfo: SrcInfo = NULL_SRC


@dataclass(frozen=True)
class Alloc(Stmt):
    name: Sym
    type: Type  # TensorType or ScalarType
    mem: Memory = DRAM
    srcinfo: SrcInfo = NULL_SRC


@dataclass(frozen=True)
class Call(Stmt):
    """Invocation of another proc.  After ``replace``, ``proc`` is an
    instruction proc and code generation splices its C format string."""

    proc: "Proc"
    args: Tuple[Expr, ...]
    srcinfo: SrcInfo = NULL_SRC


@dataclass(frozen=True)
class Pass(Stmt):
    srcinfo: SrcInfo = NULL_SRC


# ---------------------------------------------------------------------------
# Procedures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FnArg:
    """A formal argument: name, type, and (for numeric args) a memory."""

    name: Sym
    type: Type
    mem: Optional[Memory] = None
    srcinfo: SrcInfo = NULL_SRC


@dataclass(frozen=True)
class InstrInfo:
    """Backend metadata attached to ``@instr`` procedures.

    Attributes:
        c_instr: C format string with ``{arg}`` / ``{arg_data}`` holes.
        c_global: optional C preamble (e.g. an ``#include``).
        latency/pipe/issue_slots: performance-model metadata consumed by the
            pipeline simulator (cycles of result latency, which functional
            unit class executes it, and how many issue slots it occupies).
    """

    c_instr: str
    c_global: str = ""
    latency: int = 1
    pipe: str = "alu"
    issue_slots: int = 1


@dataclass(frozen=True)
class Proc:
    name: str
    args: Tuple[FnArg, ...]
    preds: Tuple[Expr, ...]
    body: Tuple[Stmt, ...]
    instr: Optional[InstrInfo] = None
    srcinfo: SrcInfo = NULL_SRC

    def arg_named(self, name: str) -> FnArg:
        for a in self.args:
            if a.name.name == name:
                return a
        raise KeyError(f"proc {self.name} has no argument {name!r}")


# ---------------------------------------------------------------------------
# Small constructors used throughout the codebase
# ---------------------------------------------------------------------------


def const_int(v: int, srcinfo: SrcInfo = NULL_SRC) -> Const:
    return Const(int(v), INDEX, srcinfo)


def const_bool(v: bool) -> Const:
    return Const(bool(v), BOOL)


def read_var(sym: Sym, typ: Type, srcinfo: SrcInfo = NULL_SRC) -> Read:
    return Read(sym, (), typ, srcinfo)


def add(a: Expr, b: Expr) -> Expr:
    return BinOp("+", a, b, INDEX)


def sub(a: Expr, b: Expr) -> Expr:
    return BinOp("-", a, b, INDEX)


def mul(a: Expr, b: Expr) -> Expr:
    return BinOp("*", a, b, INDEX)


def is_const(e: Expr, val=None) -> bool:
    if not isinstance(e, Const):
        return False
    return val is None or e.val == val


def expr_type(e: Expr) -> Type:
    """Return the type of any expression node (Interval/Point have none)."""
    if isinstance(e, (Interval, Point)):
        raise TypeError(f"window index fragment has no standalone type: {e}")
    return e.type


_MISSING = object()


def update(node, **changes):
    """Functional update of any frozen IR dataclass.

    Returns ``node`` itself when every changed field already ``is`` its
    current value; otherwise a new node sharing the fields not changed.
    An unknown field name raises ``TypeError``.
    """
    fields = node.__dict__
    for name, value in changes.items():
        if fields.get(name, _MISSING) is not value:
            break
    else:
        return node
    unknown = changes.keys() - fields.keys()
    if unknown:
        raise TypeError(
            f"{type(node).__name__} has no field {min(unknown)!r}"
        )
    new = object.__new__(type(node))
    # frozen dataclasses forbid setattr, so install the fields wholesale
    object.__setattr__(new, "__dict__", {**fields, **changes})
    return new
