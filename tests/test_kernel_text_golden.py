"""Byte-level pin of the generated micro-kernels.

For every family tile of the pinned backends (and the ragged VLA tiles
whose reduced-AVL tails the verifier sweeps), the golden file holds the
sha256 of each scheduling step's printed proc, of the final kernel's C
code and of its pseudo-assembly k-loop.  A rewrite-engine change that is
meant to be invisible must leave every digest where it is.

The printers never print ``Sym`` ids, so the digests do not depend on
how many symbols earlier tests created.  To re-record after a change
that moves generated code on purpose::

    PYTHONPATH=src python tests/test_kernel_text_golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from helpers import family_kernel_specs, generate_family_kernel

from repro.core.prelude import CodegenError

GOLDEN = Path(__file__).parent / "data" / "kernel_text_golden.json"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _asm_text(kernel) -> str:
    # the pseudo-assembly backend models 32 ARM vector registers; wider
    # tiles pin the refusal message instead of a listing
    try:
        trace = kernel.proc.asm_trace()
    except CodegenError as err:
        return f"CodegenError: {err}"
    return f"{trace.reg_count}\n{trace.ops!r}"


def tile_digests(isa: str, mr: int, nr: int) -> dict:
    """``{part: {step|"c_code"|"asm": sha256}}`` for one tile."""
    out = {}
    for part, kernel in generate_family_kernel(isa, mr, nr):
        digests = {name: _sha(str(p)) for name, p in kernel.steps.items()}
        digests["c_code"] = _sha(kernel.proc.c_code())
        digests["asm"] = _sha(_asm_text(kernel))
        out[part] = digests
    return out


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize(
    "label, isa, mr, nr",
    family_kernel_specs(),
    ids=[spec[0] for spec in family_kernel_specs()],
)
def test_generated_kernel_text_is_pinned(label, isa, mr, nr):
    assert tile_digests(isa, mr, nr) == _golden()[label]


def test_golden_covers_every_tile():
    assert sorted(_golden()) == sorted(spec[0] for spec in family_kernel_specs())


if __name__ == "__main__":
    record = {
        label: tile_digests(isa, mr, nr)
        for label, isa, mr, nr in family_kernel_specs()
    }
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(record)} tiles to {GOLDEN}")
