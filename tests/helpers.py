"""Shared test utilities.

The central tool is :func:`assert_equivalent`: run two procedures with the
same signature on identical random inputs through the reference interpreter
and compare every output buffer.  Every scheduling step in the generator
tests is validated this way — the empirical counterpart of Exo's formal
equivalence guarantee.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.core import Procedure
from repro.core.affine import delinearize, linearize
from repro.core.loopir import BinOp, Expr, Read, USub, update
from repro.core.prelude import NULL_SRC
from repro.core.typesys import TensorType


def random_args(
    proc: Procedure,
    sizes: Dict[str, int],
    seed: int = 0,
) -> Dict[str, object]:
    """Build a full argument dict for ``proc``: ints for size/index args,
    random arrays (matching declared shapes) for tensors."""
    from repro.core.interp import _eval_expr, _Frame

    rng = np.random.default_rng(seed)
    frame = _Frame()
    args: Dict[str, object] = {}
    for arg in proc.ir.args:
        name = arg.name.name
        if arg.type.is_indexable():
            if name not in sizes:
                raise KeyError(f"test must supply size {name!r}")
            args[name] = sizes[name]
            frame.set(arg.name, sizes[name])
    for arg in proc.ir.args:
        name = arg.name.name
        if isinstance(arg.type, TensorType):
            shape = tuple(
                int(_eval_expr(dim, frame)) for dim in arg.type.shape
            )
            data = rng.standard_normal(shape).astype(arg.type.base.np_dtype)
            args[name] = data
    return args


def run_with(proc: Procedure, args: Dict[str, object]) -> Dict[str, np.ndarray]:
    """Run ``proc`` on copies of ``args``; return the (mutated) arrays."""
    copied = {
        k: (v.copy() if isinstance(v, np.ndarray) else v)
        for k, v in args.items()
    }
    proc.interpret(**copied)
    return {
        k: v for k, v in copied.items() if isinstance(v, np.ndarray)
    }


def assert_equivalent(
    p1: Procedure,
    p2: Procedure,
    sizes: Dict[str, int],
    seed: int = 0,
    rtol: float = 1e-5,
    atol: float = 1e-5,
) -> None:
    """Both procedures must agree on random inputs (all output buffers)."""
    args = random_args(p1, sizes, seed=seed)
    out1 = run_with(p1, args)
    out2 = run_with(p2, args)
    assert out1.keys() == out2.keys()
    for name in out1:
        np.testing.assert_allclose(
            out1[name].astype(np.float64),
            out2[name].astype(np.float64),
            rtol=rtol,
            atol=atol,
            err_msg=f"buffer {name} diverged between "
            f"{p1.name()} and {p2.name()}",
        )


#: the backends whose generated kernels the byte-level pins cover
PINNED_ISAS = ("neon", "avx512", "rvv128", "rvv256")


def family_kernel_specs():
    """``(label, isa, mr, nr)`` for every pinned family tile and ragged
    VLA tile (the latter exercise the reduced-AVL ``vsetvl`` tails)."""
    from repro.analysis.verifier import _ragged_tiles
    from repro.isa.targets import target

    specs = []
    for isa in PINNED_ISAS:
        t = target(isa)
        for mr, nr in t.family:
            specs.append((f"{isa}/{mr}x{nr}", isa, mr, nr))
        for mr, nr in _ragged_tiles(t):
            specs.append((f"{isa}/vla_{mr}x{nr}", isa, mr, nr))
    return specs


def generate_family_kernel(isa: str, mr: int, nr: int):
    """Freshly generate one tile: ``[(part_label, GeneratedKernel), ...]``.

    A family tile yields one kernel; a ragged VLA tile yields one kernel
    per row part (full-width body, reduced-AVL tail).  Nothing is taken
    from the process-wide registries, so every rewrite actually runs.
    """
    from repro.isa.targets import target
    from repro.ukernel.generator import (
        generate_microkernel,
        generate_vla_microkernel,
    )

    t = target(isa)
    if t.vla and mr % t.lib["lanes"]:
        plan = generate_vla_microkernel(mr, nr, t.lib_factory)
        return [(f"part{off}", kernel) for off, kernel in plan.parts]
    return [("kernel", generate_microkernel(mr, nr, t.lib))]


def simplify_expr(e: Expr) -> Expr:
    """Simplify an index expression to canonical affine form when possible.

    The fold oracle's simplifier (``tests/core/test_fold_parity.py``):
    production folds each node once through ``subst._fold_node``.

    Non-affine expressions are rebuilt with affine subexpressions simplified.
    Non-index expressions (data arithmetic) are returned untouched except for
    recursion into their operands.
    """
    lin = linearize(e)
    if lin is not None:
        return delinearize(lin, getattr(e, "srcinfo", NULL_SRC))
    if isinstance(e, BinOp):
        return update(e, lhs=simplify_expr(e.lhs), rhs=simplify_expr(e.rhs))
    if isinstance(e, USub):
        return update(e, arg=simplify_expr(e.arg))
    if isinstance(e, Read):
        return update(e, idx=tuple(simplify_expr(i) for i in e.idx))
    return e
