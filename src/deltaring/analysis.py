"""Distinguished subsets of a finite ring.

Every function here is an exhaustive sweep over the compiled tables,
vectorised with numpy.  The sweeps' results are cached on the ring
object as read-only boolean masks, and only as arrays: the public
functions build a fresh :class:`ElementSet` from a cached mask on every
call, so no cache entry points back at its ring and each ring is freed
by reference counting alone.  The caches are pure functions of the
tables, so a populated cache always equals its from-scratch
recomputation; concurrent callers may compute a value twice and publish
the same answer, which is harmless.

Two standard facts keep the sweeps one-sided and bounded:

* The set ``{x : 1 - r*x is a unit for every r}`` is exactly the
  Jacobson radical of a unital ring: membership of x in the radical
  makes every ``1 - r*x`` invertible, and conversely invertibility of
  every ``1 - r*x`` is the strong quasi-regularity that defines the
  radical.  The radical is a two-sided notion, so no mirrored sweep over
  ``1 - x*r`` is needed, and in a finite ring one-sided invertibility is
  two-sided anyway (see the kernel notes).
* The powers x_1 = a, x_(k+1) = x_k * a of any table close a cycle: once
  x_k = x_s with s < k, every later power is one of x_s, ..., x_(k-1),
  which have already been tested.  So a power iteration can drop an
  element at the first repeat it sees, and never needs more than n
  steps, on any table, ring or not.

The n^2 sweeps run over row blocks of about ``_BLOCK_CELLS`` cells, each
a flat ``np.take`` into an n-vector lookup composed once (for example
``is_unit(1 - y)`` for every y), so no sweep holds an n^2 temporary.
"""

from __future__ import annotations

import math

import numpy as np

from .kernel import Element, ElementSet, FiniteRing, _row_blocks

# Cells per row block of a sweep.  np.take turns int32 indices into an
# intp copy, so a block costs 9-13 bytes per cell, about 2.4-3.4 MB at
# every ring size.  Blocks of 2^20 cells raised the peak RSS of small
# workloads; blocks of 2^16 made each sweep 1.8x slower.
_BLOCK_CELLS = 1 << 18


def _cached(ring: FiniteRing, key, compute):
    value = ring._cache.get(key)
    if value is None:
        value = compute()
        ring._cache[key] = value
    return value


def _frozen(mask: np.ndarray) -> np.ndarray:
    mask = np.ascontiguousarray(mask)
    mask.flags.writeable = False
    return mask


def _blocks(count: int, width: int) -> list[slice]:
    """Slices of ``range(count)`` whose rows of ``width`` cells hold about
    ``_BLOCK_CELLS`` cells; an empty row counts as one cell."""
    return _row_blocks(count, max(width, 1), _BLOCK_CELLS)


def _all_along_rows(lookup, table, cols=None, where=None) -> np.ndarray:
    """Entry x is True when ``lookup[table[x, c]]`` holds for every column
    c of ``cols`` (every column when None) at which ``where[x]`` is True.

    Cost: one flat gather per cell, in row blocks.
    """
    out = np.empty(table.shape[0], dtype=bool)
    width = table.shape[1] if cols is None else len(cols)
    for rows in _blocks(table.shape[0], width):
        part = table[rows] if cols is None else np.take(table[rows], cols, axis=1)
        out[rows] = np.take(lookup, part).all(axis=1, where=True if where is None else where[rows])
    return out


def _all_down_columns(lookup, table, rows=None) -> np.ndarray:
    """Entry y is True when ``lookup[table[r, y]]`` holds for every row r
    of ``rows`` (every row when None).

    Cost: one flat gather per cell, in row blocks.
    """
    out = np.ones(table.shape[1], dtype=bool)
    count = table.shape[0] if rows is None else len(rows)
    for block in _blocks(count, table.shape[1]):
        part = table[block] if rows is None else np.take(table, rows[block], axis=0)
        out &= np.take(lookup, part).all(axis=0)
    return out


def first_escape(mask, table, rows=None, cols=None) -> tuple[int, int] | None:
    """The first (i, j) in row-major order with ``table[rows[i], cols[j]]``
    outside ``mask``, or None; ``rows`` or ``cols`` None means every index.

    Cost: one flat gather per cell, in blocks of whole table rows,
    stopping at the first block with an escape.  Tracemalloc peak: one
    block, at most 17 bytes per cell.
    """
    outside = ~mask
    count = table.shape[0] if rows is None else len(rows)
    for block in _blocks(count, table.shape[1]):
        part = table[block] if rows is None else np.take(table, rows[block], axis=0)
        if cols is not None:
            part = np.take(part, cols, axis=1)
        escaped = np.take(outside, part)
        if escaped.any():
            i, j = np.argwhere(escaped)[0]
            return block.start + int(i), int(j)
    return None


# -- boolean-mask layer (internal fast paths) --------------------------------


def unit_mask(ring: FiniteRing) -> np.ndarray:
    return _cached(ring, "unit_mask", lambda: _frozen(ring.inverse_table() >= 0))


def unit_indices(ring: FiniteRing) -> np.ndarray:
    return _cached(ring, "unit_indices", lambda: _frozen(np.flatnonzero(unit_mask(ring))))


def idempotent_mask(ring: FiniteRing) -> np.ndarray:
    def compute():
        arange = np.arange(ring.size)
        return _frozen(ring.mul_table[arange, arange] == arange)

    return _cached(ring, "idempotent_mask", compute)


def idempotent_indices(ring: FiniteRing) -> np.ndarray:
    """Idempotents in ascending index order: the column order of every
    idempotent-indexed grid."""
    return _cached(
        ring, "idempotent_indices", lambda: _frozen(np.flatnonzero(idempotent_mask(ring)))
    )


def nilpotent_mask(ring: FiniteRing) -> np.ndarray:
    """a with a^k = 0 for some k <= n + 1, powers taken as x_(k+1) = x_k * a.

    Every a iterates its powers from x_1 = a while it is unresolved.  It
    leaves as nilpotent at x_k = 0, and as not nilpotent when x_k repeats
    x_1 or the power saved at the last power-of-two step (Brent's cycle
    test): every later power is then one of x_s, ..., x_(k-1), already
    tested (module notes).  So the mask equals that of testing all n + 1
    powers, on any table.  Cost: one gather over the unresolved elements
    per step, at most n steps.  A pure cycle, such as a unit's powers,
    leaves after its length; an orbit with a tail of t powers and a
    cycle of c leaves within 2*max(t, c) + c steps.  Peak: a few
    n-vectors.
    """

    def compute():
        flat = ring.mul_table.reshape(-1)
        nilpotent = np.zeros(ring.size, dtype=bool)
        start = np.arange(ring.size)
        power = saved = start
        for k in range(1, ring.size + 2):
            zero = power == ring.zero
            nilpotent[start[zero]] = True
            done = zero
            if k > 1:
                done = done | (power == start) | (power == saved)
            if done.any():
                live = ~done
                start, power, saved = start[live], power[live], saved[live]
            if k & (k - 1) == 0:
                saved = power
            if not start.size or k > ring.size:
                break
            power = np.take(flat, np.multiply(power, ring.size, dtype=np.intp) + start)
        return _frozen(nilpotent)

    return _cached(ring, "nilpotent_mask", compute)


def comm_matrix(ring: FiniteRing) -> np.ndarray:
    """Boolean matrix with entry (x, y) true when x*y == y*x.

    The matrix is symmetric for any table, ring or not, so row x is both
    C(x) and the set of elements x commutes with.  Cost: n^2/2
    comparisons over square tiles of about ``_BLOCK_CELLS`` cells, each
    tile above the diagonal mirrored below it, so both operands of a
    comparison are read from cache.  Tracemalloc peak: 1.1 bytes
    per n^2, the kept matrix and numpy's buffers for the transposed
    tiles.
    """

    def compute():
        mul = ring.mul_table
        side = math.isqrt(_BLOCK_CELLS)
        out = np.empty(mul.shape, dtype=bool)
        for lo in range(0, ring.size, side):
            rows = slice(lo, lo + side)
            for hi in range(lo, ring.size, side):
                cols = slice(hi, hi + side)
                np.equal(mul[rows, cols], mul[cols, rows].T, out=out[rows, cols])
                if hi != lo:
                    out[cols, rows] = out[rows, cols].T
        return _frozen(out)

    return _cached(ring, "comm_matrix", compute)


def packed_equal_rows(table: np.ndarray, value: int) -> np.ndarray:
    """``np.packbits(table == value, axis=1)``, compared in row blocks:
    one block of booleans at a time, n*n/8 bytes kept for n x n."""
    count, width = table.shape
    out = np.empty((count, (width + 7) // 8), dtype=np.uint8)
    for rows in _blocks(count, width):
        out[rows] = np.packbits(table[rows] == value, axis=1)
    return out


def row_subset_grid(packed: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Entry (a, j) is True when row a of a boolean matrix, given as
    ``packed = np.packbits(rows, axis=1)``, is contained in row
    ``targets[j]``.  Cost: n*k*n/8 byte operations for an n x n matrix
    and k targets, with one Python step per target.
    """
    grid = np.empty((packed.shape[0], len(targets)), dtype=bool)
    for j, t in enumerate(targets):
        grid[:, j] = ~(packed & ~packed[t]).any(axis=1)
    return grid


def comm2_grid(ring: FiniteRing) -> np.ndarray:
    """Entry (a, j) is True when idempotent ``idempotent_indices[j]`` lies
    in comm2(a), that is when C(a) is a subset of C(p).

    One row-subset grid over the commutation matrix, shared by every
    spectral flavor: |Id|*n^2/8 byte operations, n*|Id| bytes kept.
    """

    def compute():
        packed = np.packbits(comm_matrix(ring), axis=1)
        return _frozen(row_subset_grid(packed, idempotent_indices(ring)))

    return _cached(ring, "comm2_grid", compute)


def center_mask(ring: FiniteRing) -> np.ndarray:
    return _cached(ring, "center_mask", lambda: _frozen(comm_matrix(ring).all(axis=1)))


def _one_minus_is_unit(ring: FiniteRing) -> np.ndarray:
    """Entry y: whether 1 + (-y) is a unit."""
    return unit_mask(ring)[ring.add_table[ring.one][ring.neg_table]]


def jacobson_mask(ring: FiniteRing) -> np.ndarray:
    """x with 1 - r*x a unit for every r: column x of the multiplication
    table read through ``is_unit(1 - y)``.

    Cost: n^2 flat gathers in row blocks.  Tracemalloc peak: 2.5 bytes
    per n^2 at n = 1024, one block at 9 bytes per cell, so it falls as
    1/n^2 above that.
    """
    def compute():
        return _frozen(_all_down_columns(_one_minus_is_unit(ring), ring.mul_table))

    return _cached(ring, "jacobson_mask", compute)


def delta_mask(ring: FiniteRing) -> np.ndarray:
    """x with 1 - x*u a unit for every unit u.

    Cost: n*|U| flat gathers in row blocks.  Tracemalloc peak: 3.5 bytes
    per n^2 at n = 1024, one block at 13 bytes per cell (the unit
    columns, their intp copy and the bool gather).
    """

    def compute():
        lookup = _one_minus_is_unit(ring)
        return _frozen(_all_along_rows(lookup, ring.mul_table, unit_indices(ring)))

    return _cached(ring, "delta_mask", compute)


def qnil_mask(ring: FiniteRing) -> np.ndarray:
    """a with 1 + a*x a unit for every x in C(a): row a of the
    multiplication table read through ``is_unit(1 + y)``, where row a of
    the commutation matrix is True.

    Cost: n^2 flat gathers in row blocks, plus the commutation matrix.
    Tracemalloc peak: 2.5 bytes per n^2 at n = 1024 above that matrix,
    one block at 9 bytes per cell.
    """

    def compute():
        one_plus_is_unit = unit_mask(ring)[ring.add_table[ring.one]]
        return _frozen(_all_along_rows(one_plus_is_unit, ring.mul_table, where=comm_matrix(ring)))

    return _cached(ring, "qnil_mask", compute)


def comm_mask(ring: FiniteRing, a: Element) -> np.ndarray:
    ring._check_index(a)
    return comm_matrix(ring)[a]


def comm2_mask(ring: FiniteRing, a: Element) -> np.ndarray:
    comm = comm_matrix(ring)
    return comm[comm[a]].all(axis=0)


# -- public ElementSet layer ---------------------------------------------------


def units(ring: FiniteRing) -> ElementSet:
    """Elements with a two-sided multiplicative inverse."""
    return ElementSet(ring, unit_mask(ring))


def idempotents(ring: FiniteRing) -> ElementSet:
    """Elements equal to their own square."""
    return ElementSet(ring, idempotent_mask(ring))


def nilpotents(ring: FiniteRing) -> ElementSet:
    """Elements with some power equal to zero (index capped at the size)."""
    return ElementSet(ring, nilpotent_mask(ring))


def center(ring: FiniteRing) -> ElementSet:
    """Elements commuting with the whole ring."""
    return ElementSet(ring, center_mask(ring))


def jacobson_radical(ring: FiniteRing) -> ElementSet:
    """The Jacobson radical, computed as {x : 1 - r*x is a unit for all r}."""
    return ElementSet(ring, jacobson_mask(ring))


def delta(ring: FiniteRing) -> ElementSet:
    """The unit-stable fringe {x : 1 - x*u is a unit for every unit u}.

    This set contains the Jacobson radical, is closed under subtraction
    and multiplication, and absorbs multiplication by units, but it need
    not be an ideal; it is the largest subring of that shape sitting
    over the radical.
    """
    return ElementSet(ring, delta_mask(ring))


def delta_alternative_forms(ring: FiniteRing) -> tuple[ElementSet, ElementSet, ElementSet]:
    """Three independently computed characterizations of :func:`delta`.

    Returns ``(sum_form, right_form, left_form)`` where

    * sum_form  = {r : r + u is a unit for every unit u}
    * right_form = {r : r*u + 1 is a unit for every unit u}
    * left_form  = {r : u*r + 1 is a unit for every unit u}

    Each is swept from its own formula so the equality of all three (and
    of :func:`delta`) is a checkable fact, not a shared code path.  Cost:
    3*n*|U| flat gathers in row blocks.  Tracemalloc peak: 3.5 bytes
    per n^2 at n = 1024, one block at 13 bytes per cell.
    """

    def compute():
        is_unit = unit_mask(ring)
        ulist = unit_indices(ring)
        plus_one_is_unit = is_unit[ring.add_table[:, ring.one]]
        sum_form = _all_along_rows(is_unit, ring.add_table, ulist)
        right = _all_along_rows(plus_one_is_unit, ring.mul_table, ulist)
        left = _all_down_columns(plus_one_is_unit, ring.mul_table, ulist)
        return _frozen(sum_form), _frozen(right), _frozen(left)

    return tuple(ElementSet(ring, mask) for mask in _cached(ring, "delta_forms", compute))


def qnil(ring: FiniteRing) -> ElementSet:
    """Quasinilpotents: a with 1 + a*x a unit for every x commuting with a."""
    return ElementSet(ring, qnil_mask(ring))


def comm(ring: FiniteRing, a: Element) -> ElementSet:
    """The commutant of a: elements x with a*x == x*a."""
    return ElementSet(ring, comm_mask(ring, a))


def comm2(ring: FiniteRing, a: Element) -> ElementSet:
    """The double commutant of a: elements commuting with every member of comm(a)."""
    ring._check_index(a)
    return ElementSet(ring, comm2_mask(ring, a))


def ann_left(ring: FiniteRing, a: Element) -> ElementSet:
    """Left annihilator {x : x*a == 0}."""
    ring._check_index(a)
    return ElementSet(ring, ring.mul_table[:, a] == ring.zero)


def ann_right(ring: FiniteRing, a: Element) -> ElementSet:
    """Right annihilator {x : a*x == 0}."""
    ring._check_index(a)
    return ElementSet(ring, ring.mul_table[a] == ring.zero)
