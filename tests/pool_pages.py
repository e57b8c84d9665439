"""Planting page state in a test, on either page pool.

A runtime memcg is a handle on a pool row and holds no page state:
tests read a memcg's pages with ``pool.row_pages(memcg.row)``.  A test
that needs pages in a state no kernel operation reaches directly (a
given age, say) writes the owning pool's storage with
:func:`write_pages`; :func:`store_pages` compresses chosen pages.
:func:`compress` and :func:`decompress` are zswap's store and fault
paths for one reference memcg, the memcg being the page space.
"""

import numpy as np

from repro.kernel.oracle import ScalarPagePool
from repro.kernel.zswap import compress_rounds, decompress_rounds


def write_pages(pool, memcg, column, values, indices=slice(None)):
    """Set ``column[indices] = values`` over one memcg's pages
    (memcg-local indices), in the pool that holds them."""
    if isinstance(pool, ScalarPagePool):
        getattr(pool.row_memcg[memcg.row], column)[indices] = values
    else:
        base = int(pool.row_base[memcg.row])
        segment = getattr(pool, column)[base : base + memcg.capacity_pages]
        segment[indices] = values


def store_pages(machine, memcg, indices):
    """One zswap store of a memcg's pages (memcg-local indices) through
    the machine's pool; returns the pages stored."""
    base = machine.pool.row_base[memcg.row]
    return _store(machine.zswap, machine.pool, memcg,
                  np.asarray(indices, dtype=np.int64) + base)


def compress(zswap, memcg, indices):
    """One zswap store of a reference memcg's pages, the memcg being the
    page space; returns the pages stored."""
    return _store(zswap, memcg, memcg, np.asarray(indices))


def _store(zswap, pages, memcg, slots):
    if slots.size == 0:
        return 0
    return compress_rounds(pages, slots, [
        (zswap, [(memcg, 0, int(slots.size))])
    ])[0]


def decompress(zswap, memcg, indices):
    """Fault a reference memcg's far pages back to near memory, as one
    promotion round; returns the decompression latency."""
    indices = np.asarray(indices)
    if indices.size == 0:
        return 0.0
    payloads = memcg.payload_bytes[indices]
    memcg.mark_near(indices)
    memcg.record_promotions(indices)
    return decompress_rounds([(zswap, [(memcg, int(indices.size))])],
                             payloads)
