"""The arithmetic tile covers against the chunk-list-and-Counter oracle.

:func:`repro.ukernel.edge.tile_cover` and :func:`vla_tile_cover` count
each chunk size with one ``divmod`` instead of materializing the chunk
lists.  The functions below are the list-based implementations they
replaced, kept verbatim as the oracle: the covers must be equal dicts
in the same key order (the chunk plans are built by iterating them),
and a missing family member must raise the same ``KeyError``.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ukernel.edge import (
    decompose_extent,
    decompose_extent_vla,
    tile_cover,
    vla_tile_cover,
)
from repro.ukernel.registry import DEFAULT_FAMILY

# ---------------------------------------------------------------------------
# The oracle: the list-plus-Counter covers
# ---------------------------------------------------------------------------


def oracle_decompose_extent(extent: int, sizes: Sequence[int]) -> List[int]:
    if extent <= 0:
        raise ValueError(f"extent must be positive, got {extent}")
    ordered = sorted(set(sizes), reverse=True)
    chunks: List[int] = []
    left = extent
    for size in ordered:
        count, left = divmod(left, size)
        chunks.extend([size] * count)
    if left:
        chunks.append(ordered[-1])
    return chunks


def oracle_tile_cover(
    m: int,
    n: int,
    family: Sequence[Tuple[int, int]],
) -> Dict[Tuple[int, int], int]:
    heights = sorted({s[0] for s in family}, reverse=True)
    widths = sorted({s[1] for s in family}, reverse=True)
    m_chunks = Counter(oracle_decompose_extent(m, heights))
    n_chunks = Counter(oracle_decompose_extent(n, widths))
    cover: Dict[Tuple[int, int], int] = {}
    for mr, mcount in m_chunks.items():
        for nr, ncount in n_chunks.items():
            if (mr, nr) not in set(family):
                raise KeyError(
                    f"decomposition needs a {mr}x{nr} kernel but the family "
                    f"only provides {sorted(set(family))}"
                )
            cover[(mr, nr)] = mcount * ncount
    return cover


def oracle_decompose_extent_vla(extent: int, lanes: int) -> List[int]:
    if extent <= 0:
        raise ValueError(f"extent must be positive, got {extent}")
    if lanes <= 0:
        raise ValueError(f"lanes must be positive, got {lanes}")
    chunks = [lanes] * (extent // lanes)
    if extent % lanes:
        chunks.append(extent % lanes)
    return chunks


def oracle_vla_tile_cover(
    m: int,
    n: int,
    mr: int,
    nr: int,
) -> Dict[Tuple[int, int], int]:
    m_chunks = Counter(oracle_decompose_extent_vla(m, mr))
    n_chunks = Counter(oracle_decompose_extent_vla(n, nr))
    cover: Dict[Tuple[int, int], int] = {}
    for h, mcount in m_chunks.items():
        for w, ncount in n_chunks.items():
            cover[(h, w)] = mcount * ncount
    return cover


# ---------------------------------------------------------------------------
# Parity
# ---------------------------------------------------------------------------

extents = st.integers(1, 200_000)
sizes = st.integers(1, 24)
families = st.lists(
    st.tuples(sizes, sizes), min_size=1, max_size=8
)


def closed(family):
    """The height x width closure of ``family`` (a valid cover family)."""
    heights = sorted({s[0] for s in family}, reverse=True)
    widths = sorted({s[1] for s in family}, reverse=True)
    return [(h, w) for h in heights for w in widths]


def outcome(fn, *args):
    """``fn(*args)`` as ("ok", value with key order) or its exception."""
    try:
        value = fn(*args)
    except (KeyError, ValueError) as exc:
        return (type(exc).__name__, str(exc))
    if isinstance(value, dict):
        return ("ok", list(value.items()))
    return ("ok", value)


def assert_same(fn, oracle, *args):
    assert outcome(fn, *args) == outcome(oracle, *args)


class TestTileCoverParity:
    @given(extents, extents)
    @settings(max_examples=200, deadline=None)
    def test_default_family(self, m, n):
        assert_same(tile_cover, oracle_tile_cover, m, n, DEFAULT_FAMILY)

    @given(extents, extents, sizes, sizes)
    @settings(max_examples=100, deadline=None)
    def test_single_size_family(self, m, n, mr, nr):
        assert_same(tile_cover, oracle_tile_cover, m, n, [(mr, nr)])

    @given(extents, extents, families)
    @settings(max_examples=200, deadline=None)
    def test_closed_drawn_family(self, m, n, family):
        assert_same(tile_cover, oracle_tile_cover, m, n, closed(family))

    @given(st.integers(1, 400), st.integers(1, 400), families)
    @settings(max_examples=300, deadline=None)
    def test_drawn_family_raises_the_same(self, m, n, family):
        """Unclosed families: the same cover or the same ``KeyError``."""
        assert_same(tile_cover, oracle_tile_cover, m, n, family)

    def test_missing_member_message(self):
        family = [(8, 12), (1, 12), (1, 8)]
        with pytest.raises(KeyError) as new:
            tile_cover(9, 20, family)
        with pytest.raises(KeyError) as old:
            oracle_tile_cover(9, 20, family)
        assert str(new.value) == str(old.value)

    @pytest.mark.parametrize("m, n", [(0, 5), (5, 0), (-3, 7), (0, 0)])
    def test_bad_extent_raises_the_same(self, m, n):
        assert_same(tile_cover, oracle_tile_cover, m, n, DEFAULT_FAMILY)

    def test_largest_batched_plane(self):
        """A batched im2row plane of 100,352 rows: 12,544 chunks."""
        assert_same(
            tile_cover, oracle_tile_cover, 100_352, 147, DEFAULT_FAMILY
        )


class TestVlaTileCoverParity:
    @given(extents, extents, sizes, sizes)
    @settings(max_examples=300, deadline=None)
    def test_drawn_tiles(self, m, n, mr, nr):
        assert_same(vla_tile_cover, oracle_vla_tile_cover, m, n, mr, nr)

    @pytest.mark.parametrize(
        "m, n, mr, nr", [(0, 5, 8, 12), (5, 0, 8, 12), (5, 5, 0, 12),
                         (5, 5, 8, 0), (7, 9, 8, 12), (16, 24, 8, 12)]
    )
    def test_edges_and_errors(self, m, n, mr, nr):
        assert_same(vla_tile_cover, oracle_vla_tile_cover, m, n, mr, nr)


class TestDecomposeListsUnchanged:
    @given(extents, st.lists(sizes, min_size=1, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_decompose_extent(self, extent, chunk_sizes):
        assert_same(
            decompose_extent, oracle_decompose_extent, extent, chunk_sizes
        )

    @given(st.integers(-3, 200_000), st.integers(-2, 24))
    @settings(max_examples=200, deadline=None)
    def test_decompose_extent_vla(self, extent, lanes):
        assert_same(
            decompose_extent_vla, oracle_decompose_extent_vla, extent, lanes
        )
