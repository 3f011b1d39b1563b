"""Edge-case decomposition: covering a GEMM's (m, n) plane with a family.

The paper's edge-case strategy (Section III-B, evaluated in Figure 15):
instead of one monolithic kernel masked over partial tiles, generate a
small family and cover the plane exactly — full 8-row panels, then 4-row,
then 1-row tails; 12-wide columns, then 8 and 4.

:func:`decompose_extent` produces the chunk lists; :func:`tile_cover`
counts every (mr, nr) tile class a shape needs, which both the GEMM driver
and the timing model consume.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple


def _greedy_counts(extent: int, ordered: Sequence[int]) -> Dict[int, int]:
    """Chunk size -> count of the greedy cover of ``extent``.

    ``ordered`` holds the distinct sizes, largest first; sizes with no
    chunk are omitted, and a ragged remainder adds one padded chunk of
    the smallest size — so expanding the counts in key order gives the
    chunk list of :func:`decompose_extent`.
    """
    if extent <= 0:
        raise ValueError(f"extent must be positive, got {extent}")
    counts: Dict[int, int] = {}
    left = extent
    for size in ordered:
        count, left = divmod(left, size)
        if count:
            counts[size] = count
    if left:
        smallest = ordered[-1]
        counts[smallest] = counts.get(smallest, 0) + 1
    return counts


def decompose_extent(extent: int, sizes: Sequence[int]) -> List[int]:
    """Greedy cover of ``extent`` by chunk sizes (largest first).

    A ragged remainder smaller than every size gets one padded chunk of the
    smallest size, mirroring the zero-padded packing buffers of BLIS.
    """
    counts = _greedy_counts(extent, sorted(set(sizes), reverse=True))
    return [size for size, count in counts.items() for _ in range(count)]


def tile_cover(
    m: int,
    n: int,
    family: Sequence[Tuple[int, int]],
) -> Dict[Tuple[int, int], int]:
    """Count the micro-tiles of each family shape covering an (m, n) plane.

    Row heights and column widths decompose independently; a tile class
    (mr, nr) must exist in the family for every (height, width) pair that
    the decomposition produces — the family is validated up front.  The
    counts come from one ``divmod`` per size, never from the chunk lists,
    so the cost does not grow with the plane.
    """
    members = set(family)
    heights = sorted({s[0] for s in members}, reverse=True)
    widths = sorted({s[1] for s in members}, reverse=True)
    m_chunks = _greedy_counts(m, heights)
    n_chunks = _greedy_counts(n, widths)
    cover: Dict[Tuple[int, int], int] = {}
    for mr, mcount in m_chunks.items():
        for nr, ncount in n_chunks.items():
            if (mr, nr) not in members:
                raise KeyError(
                    f"decomposition needs a {mr}x{nr} kernel but the family "
                    f"only provides {sorted(members)}"
                )
            cover[(mr, nr)] = mcount * ncount
    return cover


def _vla_counts(extent: int, lanes: int) -> Dict[int, int]:
    """Chunk size -> count of the exact VLA cover of ``extent``."""
    if extent <= 0:
        raise ValueError(f"extent must be positive, got {extent}")
    if lanes <= 0:
        raise ValueError(f"lanes must be positive, got {lanes}")
    full, tail = divmod(extent, lanes)
    counts = {lanes: full} if full else {}
    if tail:
        counts[tail] = 1
    return counts


def decompose_extent_vla(extent: int, lanes: int) -> List[int]:
    """Exact cover of ``extent`` on a vector-length-agnostic ISA.

    Where :func:`decompose_extent` must pad a ragged remainder to the
    smallest kernel size (the packed-SIMD reality), a VLA ISA re-runs the
    same instructions with ``vsetvl`` narrowed to the remainder — the
    predicated tail path.  The cover is therefore exact: full-lane chunks
    plus at most one chunk of ``extent % lanes``.
    """
    counts = _vla_counts(extent, lanes)
    return [size for size, count in counts.items() for _ in range(count)]


def vla_tile_cover(
    m: int,
    n: int,
    mr: int,
    nr: int,
) -> Dict[Tuple[int, int], int]:
    """Tile classes covering an (m, n) plane on a VLA ISA — exact area.

    Rows decompose into ``mr``-high panels plus a reduced-vl tail of
    ``m % mr`` rows (any height is runnable, since the row dimension is
    the vectorized one and ``vsetvl`` handles the remainder); columns
    decompose into ``nr``-wide panels plus an ``n % nr`` tail, legal for
    any width because the broadcast schedule never vectorizes j.  Unlike
    :func:`tile_cover` no family membership constraint applies: every
    (height, width) class the decomposition produces is generable (via
    :func:`repro.ukernel.generator.generate_vla_microkernel` when the
    height is not a lane multiple).
    """
    m_chunks = _vla_counts(m, mr)
    n_chunks = _vla_counts(n, nr)
    return {
        (h, w): mcount * ncount
        for h, mcount in m_chunks.items()
        for w, ncount in n_chunks.items()
    }


def monolithic_cover(m: int, n: int, mr: int, nr: int) -> int:
    """Tiles a single (mr, nr) kernel needs to cover the plane (padded)."""
    return math.ceil(m / mr) * math.ceil(n / nr)


def useful_fraction(m: int, n: int, mr: int, nr: int) -> float:
    """Fraction of a monolithic kernel's flops that are useful work."""
    total = monolithic_cover(m, n, mr, nr) * mr * nr
    return (m * n) / total
