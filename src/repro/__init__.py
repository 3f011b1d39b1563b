"""repro — reproduction of "Tackling the Matrix Multiplication Micro-kernel
Generation with Exo" (Castello et al., CGO 2024).

The package implements, from scratch:

* :mod:`repro.core` — an Exo-like scheduling compiler: a Python-embedded
  loop DSL, the scheduling primitives of the paper's Section III, a
  unification-checked ``replace`` for hardware instructions, a reference
  interpreter, and C / pseudo-assembly backends.
* :mod:`repro.isa` — instruction libraries (ARM Neon f32/f16, AVX-512,
  RISC-V Vector at any VLEN) written as semantic ``@instr`` procedures,
  plus machine models and the ISA target registry (``docs/backends.md``).
* :mod:`repro.ukernel` — the paper's step-by-step GEMM micro-kernel
  generator and kernel-family machinery.
* :mod:`repro.blis` — the five-loop BLIS-like GEMM algorithm with packing
  and the analytical tile model of Low et al.
* :mod:`repro.sim` — the performance substrate standing in for the
  NVIDIA Carmel board: a pipeline model and an analytical memory model.
* :mod:`repro.baselines`, :mod:`repro.workloads`, :mod:`repro.eval` — the
  paper's comparators, the Table I/II DNN workloads, and the per-figure
  experiment harness.

Quick start::

    from repro import generate_microkernel

    kernel = generate_microkernel(8, 12)
    print(kernel.proc)          # the scheduled DSL (paper Figure 11)
    print(kernel.proc.c_code()) # plain C with Neon intrinsics
"""

from .blis import BlisGemm, analytical_tile_params, naive_gemm
from .core import DRAM, Neon, Neon8f, Procedure, instr, proc
from .isa import CARMEL, MachineModel
from .ukernel import (
    GeneratedKernel,
    KernelRegistry,
    generate_microkernel,
    make_reference_kernel,
)

__version__ = "0.4.0"

__all__ = [
    "BlisGemm",
    "CARMEL",
    "DRAM",
    "GeneratedKernel",
    "KernelRegistry",
    "MachineModel",
    "Neon",
    "Neon8f",
    "Procedure",
    "analytical_tile_params",
    "generate_microkernel",
    "instr",
    "make_reference_kernel",
    "naive_gemm",
    "proc",
]
