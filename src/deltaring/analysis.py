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
* A nilpotent element of an n-element ring has nilpotency index at most
  n, because the power sequence repeats within n steps; power iterations
  therefore stop at the ring size.
"""

from __future__ import annotations

import numpy as np

from .kernel import Element, ElementSet, FiniteRing


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
    def compute():
        arange = np.arange(ring.size)
        current = arange.copy()
        seen_zero = current == ring.zero
        for _ in range(ring.size):
            current = ring.mul_table[current, arange]
            seen_zero |= current == ring.zero
        return _frozen(seen_zero)

    return _cached(ring, "nilpotent_mask", compute)


def comm_matrix(ring: FiniteRing) -> np.ndarray:
    """Boolean matrix with entry (x, y) true when x*y == y*x.

    Cost: one n x n comparison, n^2 bytes kept.  The matrix is symmetric
    for any table, ring or not, so row x is both C(x) and the set of
    elements x commutes with.
    """
    return _cached(ring, "comm_matrix", lambda: _frozen(ring.mul_table == ring.mul_table.T))


def row_subset_grid(rows: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Entry (a, j) is True when row a of ``rows`` is contained in row
    ``targets[j]``.

    Rows are packed into bitsets, so the cost is n*k*n/8 byte operations
    for an n x n matrix and k targets, with one Python step per target.
    """
    packed = np.packbits(rows, axis=1)
    grid = np.empty((rows.shape[0], len(targets)), dtype=bool)
    for j, t in enumerate(targets):
        grid[:, j] = ~(packed & ~packed[t]).any(axis=1)
    return grid


def center_mask(ring: FiniteRing) -> np.ndarray:
    return _cached(ring, "center_mask", lambda: _frozen(comm_matrix(ring).all(axis=1)))


def jacobson_mask(ring: FiniteRing) -> np.ndarray:
    def compute():
        units = unit_mask(ring)
        one_minus = ring.add_table[ring.one][ring.neg_table[ring.mul_table]]
        return _frozen(units[one_minus].all(axis=0))

    return _cached(ring, "jacobson_mask", compute)


def delta_mask(ring: FiniteRing) -> np.ndarray:
    def compute():
        units = unit_mask(ring)
        ulist = unit_indices(ring)
        products = ring.mul_table[:, ulist]
        one_minus = ring.add_table[ring.one][ring.neg_table[products]]
        return _frozen(units[one_minus].all(axis=1))

    return _cached(ring, "delta_mask", compute)


def qnil_mask(ring: FiniteRing) -> np.ndarray:
    """a with 1 + a*x a unit for every x in C(a): one n x n boolean gather
    masked by the commutation matrix, so n^2 work and bytes."""

    def compute():
        one_plus_is_unit = unit_mask(ring)[ring.add_table[ring.one]]
        unit_at = one_plus_is_unit[ring.mul_table]  # (a, x): 1 + a*x is a unit
        return _frozen((unit_at | ~comm_matrix(ring)).all(axis=1))

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
    of :func:`delta`) is a checkable fact, not a shared code path.
    """

    def compute():
        units_b = unit_mask(ring)
        ulist = unit_indices(ring)
        add = ring.add_table
        mul = ring.mul_table
        plus_one = add[:, ring.one]

        sums = add[:, ulist]
        sum_form = units_b[sums].all(axis=1)

        right = units_b[plus_one[mul[:, ulist]]].all(axis=1)
        left = units_b[plus_one[mul[ulist, :]]].all(axis=0)

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
