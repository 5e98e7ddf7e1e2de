"""Distinguished subsets of a finite ring.

Every layer here reads the compiled tables only through the kernel's
read seam: ``FiniteRing.block``, ``kernel.row_block_reads``,
``kernel.gathered``, ``FiniteRing.apply`` and ``FiniteRing.neg_rows``.
A cached layer is
decorated with the kernel's ``_cached``, or ``_swept`` for a sweep, and
its result is cached on the ring as frozen arrays: the public functions
build a fresh :class:`ElementSet` from a cached mask on every call, so
no cache entry points back at its ring and each ring is freed by
reference counting alone.  The caches are pure functions of the
tables, so a populated cache always equals its from-scratch
recomputation; concurrent callers may compute a value twice and
publish the same answer, which is harmless.

A layer answers by an exhaustive sweep, vectorised with numpy, on any
table, or by a theorem about finite rings, proved in its docstring, on
a ring that carries the ``certified`` mark.  :data:`LAYERS` pairs each
theorem path with its sweep, and :func:`answered` picks one.  Here:
:func:`nilpotent_mask` (a bounded nil test), :func:`jacobson_mask` and
:func:`in_radical` (T9), :func:`delta_mask` (T1) and :func:`qnil_mask`
(T4), which fill nothing.  The checks that state those theorems read
the sweeps.

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

The n^2 sweeps run over row blocks of about ``kernel._BLOCK_CELLS``
cells, each a flat ``take`` into an n-vector lookup composed once (for
example ``is_unit(1 - y)`` for every y), so no sweep holds an n^2
temporary.  A sweep reads the whole ring, so it fills the ring's tables
once, on its cache miss (``_swept``), and every later read is a gather
from them.  Only the sweeps fill: every other cached layer (``_cached``)
reads what it needs by ``apply`` and ``block``.

On a ring whose validation report passed and is in its cache,
:func:`closure_holds` decides whether a set is a two-sided ideal from
its own additive generators and those of R (the prover's), by facts of
the ring axioms alone.  It never sweeps; its callers do, on any other
table.  :func:`unit_generators` generates U on such a ring.
"""

from __future__ import annotations

import functools

import numpy as np

from .kernel import (
    Element,
    ElementSet,
    FiniteRing,
    _additive_tree,
    _cached,
    _row_blocks,
    _swept,
    _upper_tiles,
    proven_generators,
    row_block_reads,
)


LAYERS: dict = {}  # each theorem path's name -> (theorem path, sweep), entered by answered


def answered(sweep):
    """Decorator: enters the theorem path it decorates in :data:`LAYERS`
    under its name, beside ``sweep``, and answers from that entry, read
    at call time: from the theorem path on a certified ring, and from
    the sweep on any other table or where the theorem path returns None."""

    def register(theorem):
        name = theorem.__name__
        LAYERS[name] = (theorem, sweep)

        @functools.wraps(theorem)
        def answer(ring: FiniteRing, *args, **kwargs):
            theorem, sweep = LAYERS[name]
            value = theorem(ring, *args, **kwargs) if ring.certified else None
            return sweep(ring, *args, **kwargs) if value is None else value

        return answer

    return register


def _all_along_rows(lookup, ring: FiniteRing, op: str, cols=None, commuting=False) -> np.ndarray:
    """Entry x is True when ``lookup[table[x, c]]`` holds for every column
    c of ``cols`` (every column when None), or of C(x) with ``commuting``.

    Cost: one flat gather per cell, in row blocks.
    """
    out = np.empty(ring.size, dtype=bool)
    for start, part in row_block_reads(ring, op, cols=cols):
        rows = slice(start, start + len(part))
        out[rows] = lookup.take(part).all(  # C(x) unpacked only after the gather's copy is freed
            axis=1, where=comm_rows(ring, rows) if commuting else True)
    return out


def _all_down_columns(lookup, ring: FiniteRing, op: str, rows=None, cols=None) -> np.ndarray:
    """Entry j is True when ``lookup[table[r, cols[j]]]`` holds for every
    row r of ``rows``; None means every row, or every column.

    Cost: one flat gather per cell, in row blocks.
    """
    out = np.ones(ring.size if cols is None else len(cols), dtype=bool)
    for _, part in row_block_reads(ring, op, rows, cols):
        out &= lookup.take(part).all(axis=0)
    return out


def first_escape(mask, ring: FiniteRing, op: str, rows=None, cols=None) -> tuple[int, int] | None:
    """The first (i, j) in row-major order with ``table[rows[i], cols[j]]``
    of the op's table ("add" or "mul") outside ``mask``, or None; ``rows``
    or ``cols`` None means every index.

    Cost: one flat gather per cell, over :func:`kernel.row_block_reads`,
    stopping at the first block with an escape.  Tracemalloc peak on a
    filled table: one block, at most 11 bytes per cell.
    """
    outside = ~mask
    for start, block in row_block_reads(ring, op, rows, cols):
        escaped = outside.take(block)
        if escaped.any():
            i, j = np.argwhere(escaped)[0]
            return start + int(i), int(j)
    return None


def is_two_sided_ideal(ring: FiniteRing, mask: np.ndarray):
    """Whether the masked set is closed under addition and under
    multiplication by any element on either side, as (bool, the first
    witness pair or None, what fails or None).

    Cost on a ring that passed C00: :func:`closure_holds`, the masked
    walk's |I| list steps and 2 k l products for k generators of I and
    l of R.  Otherwise, or when that does not hold: |I|^2 + 2 n |I|
    cells of ``first_escape``, read by blocks, so an unfilled ring
    stays unfilled.
    """
    if closure_holds(ring, mask):
        return True, None, None
    members = np.flatnonzero(mask)
    at = first_escape(mask, ring, "add", members, members)
    if at is not None:
        return False, [int(members[at[0]]), int(members[at[1]])], "not closed under addition"
    at = first_escape(mask, ring, "mul", cols=members)
    if at is not None:
        return False, [at[0], int(members[at[1]])], "not closed under left multiplication"
    at = first_escape(mask, ring, "mul", rows=members)
    if at is not None:
        return False, [int(members[at[0]]), at[1]], "not closed under right multiplication"
    return True, None, None


def closure_holds(ring: FiniteRing, mask: np.ndarray) -> bool:
    """Whether the masked set S is a two-sided ideal, decided from
    generators on a ring whose cached validation report passed (C00,
    ``kernel.proven_generators``).  False means undecided: any other
    table, an S without zero, or a generator test that fails.  The
    caller then runs its sweep, which decides and names the witness, so
    verdicts and witnesses are the sweep's.

    The facts use only the ring axioms that C00 proved, and none of
    the theorems T1-T10:

    * S, holding zero, is a subgroup exactly when the walk of
      ``kernel._additive_tree`` inside S reaches all of it, and its
      picks x_i then generate S.
    * x -> x*y and y -> x*y are additive, so for subgroups A and B
      generated by a_i and b_j, every a*b is a sum of products a_i*b_j,
      and A*B lies in a subgroup C exactly when every a_i*b_j does.
      With the picks of R (the prover's), this decides S*R and R*S.

    An ideal is closed under differences and products, and under
    multiplication by units on either side, so a True answer settles
    those closures too.

    Cost: the masked walk's |S| list steps plus one row per pick, then
    2*k*l products for the k picks of S and the l generators of R.
    """
    ring_generators = proven_generators(ring)
    if ring_generators is None or not mask[ring.zero]:
        return False
    picks, tree = _additive_tree(ring.block("add"), ring.zero, mask)
    if tree is None:
        return False
    sides = [(picks, ring_generators), (ring_generators, picks)]
    return all(mask.take(ring.block("mul", rows, cols)).all() for rows, cols in sides)


@_cached
def unit_generators(ring: FiniteRing) -> np.ndarray | None:
    """Generators of the unit group of a ring whose cached validation
    report passed (C00), and None on any other, from one greedy walk,
    cached.  Each pick is the least unit outside the group H of the
    picks before it, and H is closed under right multiplication by
    every pick before the next pick.  In a finite group that closure of
    {1} is the subgroup the picks generate, as an inverse is a positive
    power; each H is a subgroup of the next and at most half its size,
    so there are at most log2 |U| picks.

    Cost: |U| l list steps for l picks, plus one column of n cells per
    pick.
    """
    if proven_generators(ring) is None:
        return None
    reached = [False] * ring.size
    reached[ring.one] = True
    order, picks, columns = [ring.one], [], []
    for u in unit_indices(ring).tolist():
        if reached[u]:
            continue
        picks.append(u)
        columns.append(ring.block("mul", None, [u])[:, 0].tolist())  # x -> x*u
        # the old H is closed under the earlier picks, so it needs only u
        base, i = len(order), 0
        while i < len(order):
            x = order[i]
            for column in columns if i >= base else columns[-1:]:
                if not reached[y := column[x]]:
                    reached[y] = True
                    order.append(y)
            i += 1
    return np.array(picks, dtype=np.intp)


# -- boolean-mask layer (internal fast paths) --------------------------------


@_swept
def unit_mask(ring: FiniteRing) -> np.ndarray:
    return ring.inverse_table() >= 0


@_cached
def unit_indices(ring: FiniteRing) -> np.ndarray:
    return np.flatnonzero(unit_mask(ring))


@_cached
def idempotent_mask(ring: FiniteRing) -> np.ndarray:
    arange = np.arange(ring.size)
    return ring.apply("mul", arange, arange) == arange


@_cached
def idempotent_indices(ring: FiniteRing) -> np.ndarray:
    """Idempotents in ascending index order: the column order of every
    idempotent-indexed grid."""
    return np.flatnonzero(idempotent_mask(ring))


def _nil_squarings(n: int) -> int:
    """ceil(log2 m) for m = floor(log2 n): the squarings that take a
    nilpotent element of a ring of n elements to zero (:func:`nilpotent_mask`)."""
    return (n.bit_length() - 2).bit_length()


@_swept
def nilpotent_sweep_mask(ring: FiniteRing) -> np.ndarray:
    """a with a^k = 0 for some k <= n + 1, powers taken as x_(k+1) = x_k * a,
    walked on any table.

    Every a iterates its powers from x_1 = a while it is unresolved.  It
    leaves as nilpotent at x_k = 0, and as not nilpotent when x_k repeats
    x_1 or the power saved at the last power-of-two step (Brent's cycle
    test): every later power is then one of x_s, ..., x_(k-1), already
    tested (module notes).  So the mask equals that of testing all n + 1
    powers, on any table.  Cost: one gather over the unresolved elements
    per step, at most n steps.  A pure cycle, such as a unit's powers,
    leaves after its length; an orbit with a tail of t powers and a
    cycle of c leaves within 2*max(t, c) + c steps.
    Tracemalloc peak: 0.1 bytes per n^2 at n = 1024, a few n-vectors.
    """
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
        power = ring.apply("mul", power, start)
    return nilpotent


@answered(nilpotent_sweep_mask)
@_cached
def nilpotent_mask(ring: FiniteRing) -> np.ndarray:
    """a with a^k = 0 for some k: on a certified ring, ceil(log2 m)
    elementwise squarings of every element for m = floor(log2 n).

    The index bound: a nilpotent z in a ring of n elements has z^m = 0.
    The additive subgroups z^i R shrink as i grows, and if
    z^i R = z^(i+1) R, then z^(i+1) R = z (z^i R) = z^(i+2) R and so
    on, down to 0.  So while z^i != 0, each z^i R is a proper subgroup
    of z^(i-1) R, at most half its size, and n >= 2^(i+1).  So
    ceil(log2 m) squarings reach zero exactly at the nilpotent elements.
    The bound is tight on Z(2^k), where 2 has index k.  (The plain bound
    z^n = 0, from distinct nonzero powers, would need ceil(log2 n)
    squarings: 10 in place of 4 at n = 1024.)

    Cost: n*ceil(log2 floor(log2 n)) products through ``apply``,
    pointwise on an unfilled ring, which stays unfilled.
    Tracemalloc peak: 0.1 bytes per n^2 at n = 1024, a few n-vectors.
    """
    powers = np.arange(ring.size)
    for _ in range(_nil_squarings(ring.size)):
        powers = ring.apply("mul", powers, powers)
    return powers == ring.zero


@_swept
def comm_matrix(ring: FiniteRing) -> np.ndarray:
    """The commutation relation x*y == y*x, packed and known to this
    module alone: uint8 (n, ceil(n/8)), row x ``np.packbits`` of C(x).

    The relation is symmetric for any table, ring or not, so row x is both
    C(x) and the set of elements x commutes with.  Cost: n^2/2
    comparisons over the square tiles of ``kernel._upper_tiles``, each
    tile above the diagonal mirrored below it from a contiguous copy, so
    both operands of a comparison are read from cache; n*ceil(n/8) bytes
    kept.  Tracemalloc peak: 0.3 bytes per n^2 at n = 1024 and 0.14 at
    4096, the kept eighth and one tile's comparison and its transpose.
    """
    out = np.empty((ring.size, -(-ring.size // 8)), dtype=np.uint8)
    for rows, cols in _upper_tiles(ring.size):
        same = ring.block("mul", rows, cols) == ring.block("mul", cols, rows).T
        out[rows, cols.start // 8 : -(-cols.stop // 8)] = np.packbits(same, axis=1)
        if cols != rows:
            out[cols, rows.start // 8 : rows.stop // 8] = np.packbits(same.T.copy(), axis=1)
    return out


def comm_rows(ring: FiniteRing, xs) -> np.ndarray:
    """Rows ``xs`` of :func:`comm_matrix` unpacked, boolean, n/8 bytes each."""
    return np.unpackbits(comm_matrix(ring)[xs], axis=1, count=ring.size).view(bool)


def packed_equal_rows(ring: FiniteRing, op: str, value: int, transposed=False) -> np.ndarray:
    """``np.packbits(table == value, axis=1)``, or of ``table.T``, in
    blocks of 8k rows, n*n/8 bytes kept.  ``table.T`` weighs 8 rows into
    a byte per column: 8-12 ms at 4096 elements, 40-80 ms by columns."""
    n = ring.size
    out = np.empty((n, (n + 7) // 8), dtype=np.uint8)
    for part in _row_blocks(out.shape[1], 8 * n):
        rows = slice(8 * part.start, 8 * part.stop)
        bits = ring.block(op, rows) == value
        if not transposed:
            out[rows] = np.packbits(bits, axis=1)
            continue
        if len(bits) % 8:  # pad the last run of rows with False, as np.packbits pads
            bits = np.concatenate((bits, np.zeros((8 - len(bits) % 8, n), dtype=bool)))
        bits = bits.view(np.uint8).reshape(-1, 8, n)
        out[:, part] = np.einsum("gkx,k->xg", bits, 1 << np.arange(7, -1, -1, dtype=np.uint8))
    return out


def row_subset_pairs(packed: np.ndarray, rows: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Entry k: whether row ``rows[k]`` of a boolean n-column matrix,
    packed by ``np.packbits`` along rows, lies within row ``targets[k]``.
    Cost: |pairs|*n/8 byte operations, in chunks of ``kernel._BLOCK_CELLS`` bytes."""
    out = np.empty(len(rows), dtype=bool)
    for part in _row_blocks(len(rows), packed.shape[1]):
        out[part] = ~(packed[rows[part]] & ~packed[targets[part]]).any(axis=1)
    return out


@_cached
def center_mask(ring: FiniteRing) -> np.ndarray:
    """Rows of :func:`comm_matrix` equal to the packed all-ones row (0 padding in both)."""
    return (comm_matrix(ring) == np.packbits(np.ones(ring.size, dtype=bool))).all(axis=1)


def _one_minus_is_unit(ring: FiniteRing) -> np.ndarray:
    """Entry y: whether 1 + (-y) is a unit."""
    return unit_mask(ring).take(ring.apply("add", ring.one, ring.neg_rows()))


@_swept
def jacobson_sweep_mask(ring: FiniteRing) -> np.ndarray:
    """x with 1 - r*x a unit for every r, swept on any table: column x of
    the multiplication table read through ``is_unit(1 - y)``.

    Cost: n^2 flat gathers in row blocks.  Tracemalloc peak: 2.5 bytes
    per n^2 at n = 1024, one block at 9 bytes per cell, so it falls as
    1/n^2 above that.
    """
    return _all_down_columns(_one_minus_is_unit(ring), ring, "mul")


@answered(jacobson_sweep_mask)
@_cached
def jacobson_mask(ring: FiniteRing) -> np.ndarray:
    """x with 1 - r*x a unit for every r: on a certified ring, the x whose
    row of the multiplication table lies in :func:`nilpotent_mask` (T9).

    T9: x is in J exactly when x*r is nilpotent for every r.  A finite
    ring is Artinian, so J is nilpotent (Lam, "A First Course in
    Noncommutative Rings", Thm 4.12), and x in J gives x*r in J, a
    nilpotent element.  Conversely, if every x*r is nilpotent, 1 - x*r
    has the inverse v = sum_i (x*r)^i for every r, and then so has
    1 - r*x, with the inverse 1 + r*v*x (Jacobson's lemma:
    (1 - r*x)(1 + r*v*x) = 1 - r*x + r*(1 - x*r)*v*x = 1, and the same
    on the other side), which is the sweep's definition of J.  The
    mirror, with r*x and columns, holds the same way.  Only nilpotent x
    need their rows read (r = 1).

    Cost: the nil mask's n*ceil(log2 floor(log2 n)) products, plus
    n*|nil| cells of the nilpotent rows (:func:`in_radical`), from
    the builder's arithmetic on an unfilled ring, which stays unfilled.
    Tracemalloc peak: 2.8 bytes per n^2 at n = 1024, one row block at
    11 bytes per cell.
    """
    members = np.flatnonzero(nilpotent_mask(ring))
    radical = np.zeros(ring.size, dtype=bool)
    radical[members] = in_radical(ring, members)
    return radical


def in_radical_sweep(ring: FiniteRing, xs) -> np.ndarray:
    """Whether each element of ``xs`` lies in J, on any table: its column
    read through ``is_unit(1 - y)``, n flat gathers per element in row blocks."""
    return _all_down_columns(_one_minus_is_unit(ring), ring, "mul", cols=xs)


@answered(in_radical_sweep)
def in_radical(ring: FiniteRing, xs) -> np.ndarray:
    """Whether each element of ``xs`` lies in J, as :func:`jacobson_mask`
    decides it: on a certified ring (T9, proved in :func:`jacobson_mask`),
    whether the element's row of the multiplication table lies in the
    one cached :func:`nilpotent_mask`.

    Cost: n cells per element, read in row blocks of
    ``kernel._BLOCK_CELLS`` cells by ``block``, from the builder's
    arithmetic on an unfilled ring, which stays unfilled; plus, once per
    ring, the nil mask's n*ceil(log2 floor(log2 n)) products.
    """
    nilpotent = nilpotent_mask(ring)
    xs = np.asarray(xs, dtype=np.intp)
    out = np.empty(len(xs), dtype=bool)
    for rows in _row_blocks(len(xs), ring.size):
        out[rows] = nilpotent.take(ring.block("mul", xs[rows])).all(axis=1)
    return out


@_swept
def delta_sweep_mask(ring: FiniteRing) -> np.ndarray:
    """x with 1 - x*u a unit for every unit u, swept on any table.

    Cost: n*|U| flat gathers in row blocks.  Tracemalloc peak: 3.5 bytes
    per n^2 at n = 1024, one block at 13 bytes per cell (the unit
    columns, their intp copy and the bool gather).
    """
    return _all_along_rows(_one_minus_is_unit(ring), ring, "mul", unit_indices(ring))


@answered(delta_sweep_mask)
def delta_mask(ring: FiniteRing) -> np.ndarray:
    """x with 1 - x*u a unit for every unit u: :func:`jacobson_mask` on a
    certified ring, by T1.

    T1: delta(R) = J(R) for a finite ring R.  For x in J and a unit u,
    x*u is in J, so 1 - x*u is a unit: J lies in delta.  Conversely, an
    element that is a unit modulo J is a unit (if u*v and v*u lie in
    1 + J, whose members are units, u has inverses on both sides), so
    every unit of R/J lifts to a unit of R and x in delta(R) gives
    x + J in delta(R/J).  R/J is a finite semisimple ring, a product of
    matrix rings M(k, F) over finite fields (Wedderburn; finite division
    rings are fields), and delta of a product is the product of the
    deltas, as its units are.  delta(M(k, F)) = 0: for x != 0 pick a
    vector v with w = x*v != 0, and an invertible u with u*w = v; then
    (1 - x*u)*w = w - x*v = 0, so 1 - x*u is not a unit.  Hence
    x + J = 0.  (delta(R) is the set of Leroy and Matczuk, "Remarks on
    the Jacobson radical", 2019.)

    Tracemalloc peak: 2.8 bytes per n^2 at n = 1024, jacobson_mask's.
    """
    return jacobson_mask(ring)


@_swept
def qnil_sweep_mask(ring: FiniteRing) -> np.ndarray:
    """a with 1 + a*x a unit for every x in C(a), swept on any table: row
    a of the multiplication table read through ``is_unit(1 + y)``, on C(a).

    Cost: n^2 flat gathers in row blocks, plus the commutation relation.
    Tracemalloc peak: 2.5 bytes per n^2 at n = 1024 above the relation,
    one block at 9 bytes per cell.
    """
    one_plus_is_unit = unit_mask(ring).take(ring.block("add", [ring.one])[0])
    return _all_along_rows(one_plus_is_unit, ring, "mul", commuting=True)


@answered(qnil_sweep_mask)
def qnil_mask(ring: FiniteRing) -> np.ndarray:
    """a with 1 + a*x a unit for every x in C(a): :func:`nilpotent_mask`
    on a certified ring, by T4.

    T4: qnil(R) = nil(R) for a finite ring R (Fitting's lemma).  If a
    is nilpotent and x commutes with a, then (a*x)^k = a^k * x^k, so a*x
    is nilpotent and 1 + a*x is a unit.  Conversely, the powers of any a
    close a cycle, and the cycle is a group under the product whose
    identity is an idempotent power e = a^k, k >= 1 (``classify`` uses
    this as T8).  a*e = a^(k+1) lies in that group, so it has an
    inverse w there, a power of a, and a*w = (a*e)*w = e.  x = -w
    commutes with a, and 1 + a*x = 1 - e is an idempotent, a unit only
    when e = 0.  So a quasinilpotent a has a^k = e = 0.

    Tracemalloc peak: 0.1 bytes per n^2 at n = 1024, nilpotent_mask's
    few n-vectors.
    """
    return nilpotent_mask(ring)


def comm_mask(ring: FiniteRing, a: Element) -> np.ndarray:
    """C(a), from row a and column a of the multiplication table: 2n
    cells, which fill nothing."""
    ring._check_index(a)
    return ring.block("mul", [a])[0] == ring.block("mul", None, [a])[:, 0]


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
    over the radical.  In a finite ring it is the radical itself (T1 of
    :func:`delta_mask`), so a certified ring answers with the radical.
    """
    return ElementSet(ring, delta_mask(ring))


@_swept
def delta_forms(ring: FiniteRing) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The masks of :func:`delta_alternative_forms`."""
    is_unit = unit_mask(ring)
    ulist = unit_indices(ring)
    plus_one_is_unit = is_unit.take(ring.block("add", None, [ring.one])[:, 0])
    sum_form = _all_along_rows(is_unit, ring, "add", ulist)
    right = _all_along_rows(plus_one_is_unit, ring, "mul", ulist)
    left = _all_down_columns(plus_one_is_unit, ring, "mul", ulist)
    return sum_form, right, left


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
    return tuple(ElementSet(ring, mask) for mask in delta_forms(ring))


def qnil(ring: FiniteRing) -> ElementSet:
    """Quasinilpotents: a with 1 + a*x a unit for every x commuting with a."""
    return ElementSet(ring, qnil_mask(ring))


def comm(ring: FiniteRing, a: Element) -> ElementSet:
    """The commutant of a: elements x with a*x == x*a."""
    return ElementSet(ring, comm_mask(ring, a))


def comm2(ring: FiniteRing, a: Element) -> ElementSet:
    """The double commutant of a: elements commuting with every member of
    comm(a), the AND of their rows of :func:`comm_matrix`, |C(a)|*n/8 bytes."""
    ring._check_index(a)
    meet = np.bitwise_and.reduce(comm_matrix(ring)[comm_mask(ring, a)])
    return ElementSet(ring, np.unpackbits(meet, count=ring.size).view(bool))


def ann_left(ring: FiniteRing, a: Element) -> ElementSet:
    """Left annihilator {x : x*a == 0}."""
    ring._check_index(a)
    return ElementSet(ring, ring.block("mul", None, [a])[:, 0] == ring.zero)


def ann_right(ring: FiniteRing, a: Element) -> ElementSet:
    """Right annihilator {x : a*x == 0}."""
    ring._check_index(a)
    return ElementSet(ring, ring.block("mul", [a])[0] == ring.zero)
