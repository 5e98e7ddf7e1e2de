"""Constructions of finite unital rings.

Each constructor checks the element count against the kernel's cap,
attaches a ``Provenance`` record describing how the ring was built,
and gives each element a structural display name.  Names are built
when first read: a builder hands ``FiniteRing`` a recipe that names the
elements of an index array from its inputs' names at the indices they
take, so naming a few elements (``FiniteRing.names_of``) names a few of
its inputs', and the whole list is built only when ``element_names``
is read.
There is one record for every construction: its ``kind`` names the
builder, its ``spelling`` is the canonical spec that ``spell()``
returns, and it keeps only the parts that checks and decoding helpers
read.  Each builder spells itself once with ``spelling(head, *args)``,
the one formatter that ``ringspec.Spec.canonical`` also uses, and
passes that string to both its capacity check and its record.  Element
indices follow a canonical mixed-radix encoding per construction, most
significant component first, so encode/decode round-trips are exact and
reports are reproducible.

Every construction is built from its arithmetic, without tables: the
FiniteRing fills each table when a pass that reads the whole ring asks
for it (``FiniteRing.fill``), and serves any block of a table it has
not filled from the same arithmetic (``FiniteRing.block``), and any
elementwise read from the builder's pointwise form
(``FiniteRing.apply``): Zn on the indices, a product from its
components, a grid ring from the grids of its two operands, a Dorroh
extension from its base and V, and a corner or a quotient from its
parent, none of them through a block.  Zn's
tables are a sliding window and an outer product; products, M, T, H
and Dorroh are sums of row gathers (``_gather_rows``): row x is a sum
of rows picked by small keys of x, so none of them runs an elementwise
n x n gather but Dorroh's V-part product, which depends on all of x.
A block restricts the same terms to its columns and gathers them at
its rows; a product, a grid ring or a Dorroh extension takes them from
its components' blocks.  A corner or a quotient is a view of its parent
(``_view``): its blocks are the parent's blocks at the elements it
keeps, relabelled by one lookup, so a parent that nothing else reads
never fills its tables, and no build or block read fills a base.  Only
table leaves, checked at once, hold tables from the start.  No module
but the kernel reads a ring's table; this one reads a Dorroh V's
tables alone.  Every builder writes its tables as uint16
(``kernel.TABLE_DTYPE``) with no wider n x n intermediate, and the
FiniteRing keeps the fresh tables it is handed.  Every table builder's
docstring gives its tracemalloc peak in bytes per cell of the n x n
result, the ring's tables and negation included, as measured with
numpy 2.4 at 512 to 4096 elements (the peak per cell falls with n,
towards the 4 bytes of the two tables).  A memory pre-flight would
multiply them by the square of the element count.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analysis, kernel
from .kernel import (
    CapacityError,
    ConstructionError,
    Element,
    ElementSet,
    FiniteRing,
    MalformedTableError,
    TABLE_DTYPE,
    _as_table,
    _axiom_violations,
    _is_int,
    _row_blocks,
    element_capacity,
    row_block_reads,
)


def _check_capacity(size: int, what: str) -> None:
    cap = element_capacity()
    if size > cap:
        raise CapacityError(f"{what} would have {size} elements, exceeding the cap {cap}")


def _provenance(ring: FiniteRing, builder: str, *kinds: str) -> Provenance:
    """The ring's provenance record, which must be of one of ``kinds``."""
    if getattr(ring.provenance, "kind", None) not in kinds:
        raise ConstructionError(f"ring was not built by {builder}")
    return ring.provenance


def _certify(ring: FiniteRing, *inputs: FiniteRing) -> FiniteRing:
    """Mark the ring ``certified`` when every input ring carries the mark
    (Zn has none), and return it.  The builder's docstring names the
    theorem that makes its result a ring whenever its inputs are."""
    ring.certified = all(part.certified for part in inputs)
    return ring


def _gather_rows(terms) -> np.ndarray:
    """The uint16 table sum_p rows_p[keys_p], one row gather per term.

    Each term is a pair (rows, keys): ``keys[x]`` is a small key derived
    from the element of row x, and ``rows`` is the (#keys, width) uint16
    table whose row ``keys[x]`` is the term's contribution to row x,
    place value folded in.  Every entry of the sum is an element index,
    and the terms are not negative, so no partial sum wraps.  Terms are
    consumed one at a time, and each after the first is added in row
    blocks.  Cost: one contiguous row copy of the len(keys) x width
    result per term, in place of an elementwise gather; tracemalloc peak
    2 bytes per cell of the result (the sum), one block and one ``rows``.
    """
    out = None
    for rows, keys in terms:
        if out is None:
            out = np.take(rows, keys, axis=0)
            continue
        for block in _row_blocks(len(keys), rows.shape[1], kernel._SWEEP_BLOCK_CELLS):
            part = out[block]
            part += np.take(rows, keys[block], axis=0)
    return out


def _occurring(keys: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of ``keys``, all in ``range(size)``, and each
    key's place among them; every value of the range, with no sort, when
    there are at least ``size`` keys, as reading them all costs no more."""
    if len(keys) >= size:
        return np.arange(size), keys
    return np.unique(keys, return_inverse=True)


def _numbering(indices, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct elements of a parent of n that ``indices`` (an index
    array or a boolean mask) names, ascending, and the lookup that numbers
    them: i at the i-th, -1 at every other; one n-vector, and no sort."""
    lookup = np.full(n, -1, dtype=np.int32)
    lookup[indices] = 0
    kept = np.flatnonzero(lookup == 0)
    lookup[kept] = np.arange(len(kept), dtype=np.int32)
    return kept, lookup


def _relabelled(base: FiniteRing, op: str, rows, cols, lookup: np.ndarray) -> np.ndarray:
    """``lookup[base.block(op, rows, cols)]`` as a uint16 table, read by
    ``kernel.row_block_reads``, so that no block of the parent is held
    whole.  ``lookup`` maps a parent element to the element of a
    sub-construction that it stands for, and the caller has made sure
    that every entry of the block has one.  This is the blocked gather
    of a corner's or a quotient's arithmetic (:func:`_view`) and of an
    ideal's V.  Cost: 2 bytes per cell of the result, and one row
    block."""
    count = base.size if rows is None else len(rows)
    out = np.empty((count, base.size if cols is None else len(cols)), dtype=TABLE_DTYPE)
    for start, block in row_block_reads(base, op, rows, cols):
        out[start : start + len(block)] = lookup[block]
    return out


def _view(parent: FiniteRing, kept: np.ndarray, lookup: np.ndarray, **fields) -> FiniteRing:
    """The ring on the parent elements ``kept``, element i standing for
    ``kept[i]``, with its tables unfilled: a block is the parent's block
    at the kept rows and columns, and an elementwise read the parent's
    elementwise read at the kept elements, each mapped back by
    ``lookup`` (a parent index to the element it stands for).  So the
    ring reads its parent through its own reads, fills nothing of it,
    and keeps it alive.  ``fields`` are FiniteRing's zero, one,
    provenance and element_names."""

    def arithmetic(op, rows, cols):
        at = [kept if ids is None else kept[ids] for ids in (rows, cols)]
        return _relabelled(parent, op, *at, lookup)

    def pointwise(op, x, y):
        return lookup[parent.apply(op, kept[x], kept[y])].astype(TABLE_DTYPE)

    return FiniteRing(len(kept), None, None, arithmetic=arithmetic, pointwise=pointwise, **fields)


def _columns(table: np.ndarray, coord: np.ndarray) -> np.ndarray:
    """``table[:, coord]``, C-contiguous so that its rows gather as
    contiguous copies (the fancy index lays it out column-major)."""
    return np.take(table, coord, axis=1)


# -- provenance ----------------------------------------------------------------


def spelling(head: str, *args) -> str:
    """The canonical spelling of a construction: ``Z<n>`` and
    ``table:<label>`` for the leaves, ``head(a, b, ...)`` for the rest.

    Each argument is written with ``str``, so a nested ring is passed as
    its own spelling.  Builders, their capacity messages and
    ``ringspec.Spec.canonical`` all spell through here.
    """
    if head in ("Z", "table:"):
        return f"{head}{args[0]}"
    return f"{head}({', '.join(map(str, args))})"


@dataclass(eq=False)
class Provenance:
    """How a ring was built: the construction's ``kind``, its canonical
    ``spelling``, and the parts that checks and decoding helpers read.

    A product keeps ``left`` and ``right``; M, T, H and Dorroh keep
    ``base``; M and T keep ``k``, ``positions`` and ``grid``, H keeps
    ``grid``; Dorroh keeps ``action``.  A corner keeps its ``members``
    (parent indices) and a quotient its ``coset_of`` (a parent index to
    its quotient element), and neither record holds a ring; the corner
    or quotient itself reads its parent (``_view``).
    """

    kind: str
    spelling: str
    left: FiniteRing | None = None
    right: FiniteRing | None = None
    base: FiniteRing | None = None
    k: int | None = None
    positions: list[tuple[int, int]] | None = None
    grid: np.ndarray | None = None  # (size, k, k) base indices, fixed and dependent entries included
    action: BimoduleRingAction | None = None
    members: np.ndarray | None = None  # a corner's ascending parent indices
    coset_of: np.ndarray | None = None  # parent index -> the quotient element of its coset

    def spell(self) -> str:
        return self.spelling


# -- elementary constructions ---------------------------------------------------


def zn(n: int) -> FiniteRing:
    """The integers modulo n, for n >= 2, with its tables unfilled.

    Row x of the sum is the window x..x+n-1 of 0..n-1 written twice.
    The product, and any block of an unfilled table, is the uint32 outer
    sum or product of the index arrays reduced mod n, in row blocks of
    ``kernel._SWEEP_BLOCK_CELLS`` cells stored into the uint16 result:
    exact while (n-1)^2 < 2^32, that is up to the hard cap of 65536;
    an elementwise read is the same sum or product of its two indices.
    The product reduces p mod n as p - (p // n) n: Z4096's product
    table fills in 25 ms, against 57 ms with numpy's scalar % (min of
    7 on a 2-vCPU Xeon VM).
    Tracemalloc peak: 5 bytes per n^2 to fill the tables; a block
    costs 2 bytes per cell of the block, and one row block.  Its names
    are the indices, built when first read.  Certified: the integers
    modulo n are a ring.
    """
    spelled = spelling("Z", n)
    if n < 2:
        raise ConstructionError(f"{spelled} is not a unital ring with one != zero")
    _check_capacity(n, spelled)

    def arithmetic(op, rows, cols):
        if rows is None and cols is None and op == "add":
            twice = (np.arange(2 * n) % n).astype(TABLE_DTYPE)
            return np.lib.stride_tricks.sliding_window_view(twice, n)[:n].copy()
        arange = np.arange(n, dtype=np.uint32)
        left = arange if rows is None else rows.astype(np.uint32)
        right = arange if cols is None else cols.astype(np.uint32)
        out = np.empty((len(left), len(right)), dtype=TABLE_DTYPE)
        for block in _row_blocks(len(left), len(right), kernel._SWEEP_BLOCK_CELLS):
            if op == "add":
                part = np.add.outer(left[block], right)
                np.subtract(part, np.uint32(n), out=part, where=part >= n)
            else:
                part = np.multiply.outer(left[block], right)
                # part mod n, exact on unsigned ints, without numpy's slow
                # scalar %, and in place, so a block holds one temporary
                quotient = part // np.uint32(n)
                quotient *= np.uint32(n)
                part -= quotient
            out[block] = part
        return out

    def pointwise(op, x, y):
        x = np.asarray(x, dtype=np.int64)
        return ((x + y if op == "add" else x * y) % n).astype(TABLE_DTYPE)

    ring = FiniteRing(
        n,
        None,
        None,
        zero=0,
        one=1,
        provenance=Provenance("zn", spelled),
        element_names=lambda at: [str(x) for x in at.tolist()],
        arithmetic=arithmetic,
        pointwise=pointwise,
    )
    return _certify(ring)


def table_ring(source, label: str | None = None) -> FiniteRing:
    """Build a ring from explicit tables.

    ``source`` is a path to a JSON file or an already-parsed dict with
    keys size, add, mul, zero, one (tables are 0-based, row-major).
    Structural defects raise MalformedTableError; whether the tables
    satisfy the ring axioms is validate_ring's question, so defective
    axioms load fine and are reported there.  The ring is certified when
    they pass, and the report stays in its cache
    (``kernel.validation_report``) for C00 and the verbs' gate.
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        if label is None:
            label = path.name
        try:
            data = json.loads(path.read_text())
        except OSError as exc:
            raise MalformedTableError(f"cannot read table file {path}: {exc}")
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise MalformedTableError(f"table file {path} is not valid JSON: {exc}")
    else:
        data = source
        if label is None:
            label = "<inline>"
    if not isinstance(data, dict):
        raise MalformedTableError("table data must be a JSON object")
    missing = [key for key in ("size", "add", "mul", "zero", "one") if key not in data]
    if missing:
        raise MalformedTableError(f"table data is missing keys: {', '.join(missing)}")
    size = data["size"]
    if not _is_int(size) or size < 1:
        raise MalformedTableError(f"table size must be a positive integer, got {size!r}")
    _check_capacity(size, f"table ring {label}")
    zero = data["zero"]
    one = data["one"]
    if not (_is_int(zero) and _is_int(one)):
        raise MalformedTableError("zero and one must be element indices")
    ring = FiniteRing(
        size,
        data["add"],
        data["mul"],
        zero=zero,
        one=one,
        provenance=Provenance("table", spelling("table:", label)),
    )
    ring.certified = kernel.validation_report(ring).ok
    return ring


def _names_at(ring, at: np.ndarray) -> np.ndarray:
    """The names of the elements ``at``, repeats included, as an object
    array; each distinct element is named once, by ``names_of``."""
    used, keys = _occurring(at, ring.size)
    return np.array(ring.names_of(used), dtype=object)[keys]


def _pair_names(first, second):
    """The name recipe of pairs: "(a, b)" at index a * |second| + b."""

    def names(at):
        a, b = np.divmod(at, second.size)
        return [f"({x}, {y})" for x, y in zip(_names_at(first, a), _names_at(second, b))]

    return names


def product(left: FiniteRing, right: FiniteRing) -> FiniteRing:
    """Direct product; index of (r, s) is r * |right| + s.  Its tables
    are unfilled, and its components stay as they are.

    Both tables are componentwise: a block is two row gathers keyed by
    its rows' coordinates, from the components' blocks at the
    coordinates that occur; an elementwise read is the components'
    elementwise reads.  Tracemalloc peak: 5 bytes per n^2 to fill the
    tables; a block costs 2 bytes per cell, plus those blocks.  Its
    names "(a, b)" are built when first read, from the factors' names.
    Certified when both factors are: a product of rings, with the
    operations componentwise, is a ring.
    """
    n = left.size * right.size
    spelled = spelling("prod", left.spell(), right.spell())
    _check_capacity(n, spelled)
    sn = right.size

    def arithmetic(op, rows, cols):
        rows = np.arange(n) if rows is None else rows
        cols = np.arange(n) if cols is None else cols

        def terms():  # one at a time, as each term's rows take |keys| x |cols|
            for part, at, pv in ((left, np.floor_divide, sn), (right, np.remainder, 1)):
                used, keys = _occurring(at(rows, sn), part.size)
                occur, place = _occurring(at(cols, sn), part.size)
                yield np.take(part.block(op, used, occur), place, axis=1) * TABLE_DTYPE(pv), keys

        return _gather_rows(terms())

    def pointwise(op, x, y):
        (xl, xr), (yl, yr) = np.divmod(x, sn), np.divmod(y, sn)
        return left.apply(op, xl, yl) * TABLE_DTYPE(sn) + right.apply(op, xr, yr)

    ring = FiniteRing(
        n,
        None,
        None,
        zero=left.zero * sn + right.zero,
        one=left.one * sn + right.one,
        provenance=Provenance("product", spelled, left=left, right=right),
        element_names=_pair_names(left, right),
        arithmetic=arithmetic,
        pointwise=pointwise,
    )
    return _certify(ring, left, right)


def product_components(ring: FiniteRing, x: Element) -> tuple[int, int]:
    prov = _provenance(ring, "product()", "product")
    ring._check_index(x)
    return divmod(x, prov.right.size)


def product_encode(ring: FiniteRing, r: int, s: int) -> int:
    prov = _provenance(ring, "product()", "product")
    prov.left._check_index(r)
    prov.right._check_index(s)
    return r * prov.right.size + s


# -- matrix-shaped constructions -------------------------------------------------


def _check_digits_capacity(base: FiniteRing, m: int, what: str) -> None:
    """Reject a ring of m base-ring digits, |base|^m elements, above the cap.

    Every ring has at least two elements, so m >= the cap's bit length
    already exceeds it: |base|^m is then never computed, and the message
    gives it as a power.
    """
    cap = element_capacity()
    if m >= cap.bit_length():
        raise CapacityError(f"{what} would have {base.size}^{m} elements, exceeding the cap {cap}")
    _check_capacity(base.size**m, what)


def _stored_grid(base: FiniteRing, k: int, positions: list[tuple[int, int]]) -> np.ndarray:
    """The (n, k, k) int32 grid of base indices of every element.

    Element x holds the mixed-radix digits of x at ``positions``, most
    significant first, and the base zero everywhere else.  The caller
    has checked the size against the cap.
    """
    m = len(positions)
    n = base.size**m
    arange = np.arange(n)
    grid = np.full((n, k, k), base.zero, dtype=np.int32)
    for p, (i, j) in enumerate(positions):
        grid[:, i, j] = (arange // base.size ** (m - 1 - p)) % base.size
    return grid


def _grid_ring(
    base: FiniteRing, grid: np.ndarray, positions: list[tuple[int, int]], provenance
) -> FiniteRing:
    """The ring of the matrices ``grid[x]``, indexed by their entries at
    ``positions`` (most significant first), with the matrix sum and
    product, its tables unfilled.  Its names, the grids written with the
    base's names, are built when first read.

    Both tables are sums of row gathers, one term per stored position.
    The sum is componentwise.  Product entry (i, j) of xy sums
    x[i, l] * y[l, j], first term first, over the l in L where places
    (i, l) and (l, j) are nonzero in some element's grid: every other
    term has a factor that is the base zero in all elements.  The
    identity is nonzero on the whole diagonal, so l = j always
    contributes.  That entry depends on x only through its entries
    x[i, l] for l in L, so it is a row gather keyed by them in mixed
    radix, from a table with one row per key that occurs: at most
    |S|^|L|, which is n^(1/k) for M(k, S), at most n^(2/3) for T(k, S)
    and H, and n only for k = 1; its columns are keyed by the y[l, j]
    alike, and one column gather spreads them.  Dependent entries, such
    as h_ring's a and d, are keys like any other.  The base is read by
    blocks and elementwise only.  Cost: a fill is one n^2 row gather per
    stored position for the sum and one for the product, plus per
    position |S| * n base cells for the sum's rows, and |S|^(2|L|) (n for
    M(k, S)) and an |S|^|L| x n column gather for the product's.  A
    block of an unfilled table restricts the same terms to its columns
    and gathers them at its rows: one |rows| x |cols| row gather per
    position, plus min(|S|, |rows|) * |cols| base cells for the sum,
    its rows keyed by the digits that occur, and
    min(|S|^|L|, |rows|) * min(|S|^|L|, |cols|) and their column gather
    for the product; so 1 x 1 blocks of both tables of M(1, Z4096) read
    2 cells of Z4096 and fill none.  An elementwise read sums the same terms
    at the two operands' grids, |L| base products per stored position,
    with no keyed rows: a whole fill that way would pay k^3 base
    products per cell.  It reads the base elementwise once for the sum,
    and for the product once per rank of the terms, the t-th terms of
    all positions together, in the fill's order.
    """
    m = len(positions)
    n, k, _ = grid.shape
    bs = base.size
    place_values = [bs ** (m - 1 - p) for p in range(m)]
    support = (grid != base.zero).any(axis=0)
    ells = [np.flatnonzero(support[i] & support[:, j]) for i, j in positions]

    def terms(op, rows, cols):
        at_rows = grid if rows is None else grid[rows]
        at_cols = grid if cols is None else grid[cols]
        for (i, j), pv, ls in zip(positions, place_values, ells):
            if op == "add":
                used, keys = _occurring(at_rows[:, i, j], bs)
                yield base.block("add", used, at_cols[:, i, j]) * TABLE_DTYPE(pv), keys
                continue
            shape = (bs,) * len(ls)
            keys = np.ravel_multi_index([at_rows[:, i, l] for l in ls], shape)
            used, keys = _occurring(keys, bs ** len(ls))
            place = np.ravel_multi_index([at_cols[:, l, j] for l in ls], shape)
            occur, place = _occurring(place, bs ** len(ls))
            acc = None
            for left, right in zip(np.unravel_index(used, shape), np.unravel_index(occur, shape)):
                term = base.block("mul", left, right)
                acc = term if acc is None else base.apply("add", acc, term)
            acc = np.take(acc, place, axis=1)
            acc *= pv
            yield acc, keys

    # the product's terms x[i, l] * y[l, j] by rank: rank t pairs the
    # positions that have a t-th l in L with that l, so that one base
    # read per rank serves every position.  Every position has a first l.
    pi, pj = np.array(positions).T
    first = np.array([ls[0] for ls in ells])
    later = []
    for t in range(1, max(map(len, ells))):
        at = np.array([p for p in range(m) if len(ells[p]) > t])
        later.append((at, np.array([ells[p][t] for p in at])))
    place = np.array(place_values, dtype=TABLE_DTYPE)

    def pointwise(op, x, y):
        gx, gy = grid[x], grid[y]
        if op == "add":
            entries = base.apply("add", gx[..., pi, pj], gy[..., pi, pj])
        else:
            entries = base.apply("mul", gx[..., pi, first], gy[..., first, pj])
            for at, ls in later:
                term = base.apply("mul", gx[..., pi[at], ls], gy[..., ls, pj[at]])
                entries[..., at] = base.apply("add", entries[..., at], term)
        return (entries * place).sum(axis=-1, dtype=TABLE_DTYPE)

    zero = sum(base.zero * pv for pv in place_values)
    one = sum(
        (base.one if i == j else base.zero) * pv
        for (i, j), pv in zip(positions, place_values)
    )
    fmt = "[" + ",".join(["[" + ",".join(["{}"] * k) + "]"] * k) + "]"

    def names(at):
        cells = _names_at(base, grid[at].reshape(-1)).reshape(len(at), k * k)
        return [fmt.format(*row) for row in cells.tolist()]

    grid.flags.writeable = False
    return FiniteRing(
        n,
        None,
        None,
        zero=zero,
        one=one,
        provenance=provenance,
        element_names=names,
        arithmetic=lambda op, rows, cols: _gather_rows(terms(op, rows, cols)),
        pointwise=pointwise,
    )


def matrix_ring(k: int, base: FiniteRing) -> FiniteRing:
    """Full k x k matrices over the base ring, row-major mixed radix.

    Tracemalloc peak: 5 bytes per n^2: both tables, one row block, and
    the keyed product rows of _grid_ring, which are n x n for k = 1, the
    base's block and its column gather, and take it to 8.5.  Certified
    when the base is: the k x k matrices over a ring are a ring under
    the matrix sum and product.
    """
    if k < 1:
        raise ConstructionError("matrix dimension must be at least 1")
    spelled = spelling("M", k, base.spell())
    _check_digits_capacity(base, k * k, spelled)
    positions = [(i, j) for i in range(k) for j in range(k)]
    grid = _stored_grid(base, k, positions)
    prov = Provenance("matrix", spelled, base=base, k=k, positions=positions, grid=grid)
    return _certify(_grid_ring(base, grid, positions, prov), base)


def upper_triangular(k: int, base: FiniteRing) -> FiniteRing:
    """Upper-triangular k x k matrices over the base ring.

    Tracemalloc peak: 5 bytes per n^2, as for matrix_ring.  Certified
    when the base is: the upper-triangular matrices hold 1 and are
    closed under the sum and product of M(k, base), so they are a
    subring of that ring.
    """
    if k < 1:
        raise ConstructionError("matrix dimension must be at least 1")
    spelled = spelling("T", k, base.spell())
    _check_digits_capacity(base, k * (k + 1) // 2, spelled)
    positions = [(i, j) for i in range(k) for j in range(k) if i <= j]
    grid = _stored_grid(base, k, positions)
    prov = Provenance("upper_triangular", spelled, base=base, k=k, positions=positions, grid=grid)
    return _certify(_grid_ring(base, grid, positions, prov), base)


def matrix_entries(ring: FiniteRing, x: Element) -> tuple[tuple[int, ...], ...]:
    """Decode an element of a matrix-shaped ring, h_ring's included,
    into its full k x k grid of base indices."""
    prov = _provenance(
        ring, "matrix_ring(), upper_triangular() or h_ring()", "matrix", "upper_triangular", "h"
    )
    ring._check_index(x)
    return tuple(tuple(row) for row in prov.grid[x].tolist())


def matrix_encode(ring: FiniteRing, grid) -> int:
    """Encode a k x k grid of base indices into an element index."""
    prov = _provenance(ring, "matrix_ring() or upper_triangular()", "matrix", "upper_triangular")
    k = prov.k
    grid = [list(row) for row in grid]
    if len(grid) != k or any(len(row) != k for row in grid):
        raise ConstructionError(f"expected a {k}x{k} grid")
    index = 0
    for i, j in prov.positions:
        prov.base._check_index(grid[i][j])
        index = index * prov.base.size + grid[i][j]
    for i in range(k):
        for j in range(k):
            if (i, j) not in prov.positions and grid[i][j] != prov.base.zero:
                raise ConstructionError(
                    f"entry ({i}, {j}) must be the base zero in this construction"
                )
    return index


def matrix_unit_index(ring: FiniteRing, i: int, j: int) -> int:
    """Index of the matrix with the base one at (i, j) and zeros elsewhere."""
    prov = _provenance(ring, "matrix_ring() or upper_triangular()", "matrix", "upper_triangular")
    grid = [[prov.base.zero] * prov.k for _ in range(prov.k)]
    grid[i][j] = prov.base.one
    return matrix_encode(ring, grid)


# -- the constrained 3 x 3 subring ------------------------------------------------

_H_POSITIONS = [(1, 0), (1, 2), (2, 2)]  # the free entries c, e, f


def h_ring(s: Element, t: Element, base: FiniteRing) -> FiniteRing:
    """The subring of 3 x 3 matrices

        [[a, 0, 0],
         [c, d, e],
         [0, 0, f]]

    over the base ring, constrained by a - d = s*c and d - f = t*e for
    fixed central units s and t.  Elements are stored as the free triple
    (c, e, f), most significant first; the dependent entries are
    d = f + t*e and a = d + s*c.  Size is |base|^3, not |base|^9.
    Tracemalloc peak: 5.5 bytes per n^2: the product is keyed on two
    entries, so its keyed rows take |base|^2 x n cells, one in |base|
    of n^2.  Certified when the base is: the set is a subring of
    M(3, base).  It holds 1 (c = e = 0) and is closed under sums.  The
    product of two of its matrices has diagonal aa', dd', ff' and free
    entries ca' + dc' and de' + ef', and since s and t are central,
    aa' - dd' = s(ca' + dc') and dd' - ff' = t(de' + ef').
    """
    base._check_index(s)
    base._check_index(t)
    # s and t are central when their rows of the multiplication table equal their columns
    rows, cols = base.block("mul", [s, t]), base.block("mul", None, [s, t])
    s_central, t_central = (rows == cols.T).all(axis=1)
    if not (s_central and base.is_unit(s)):
        raise ConstructionError(f"s (index {s}) must be a central unit of the base ring")
    if not (t_central and base.is_unit(t)):
        raise ConstructionError(f"t (index {t}) must be a central unit of the base ring")
    spelled = spelling("H", s, t, base.spell())
    _check_digits_capacity(base, len(_H_POSITIONS), spelled)
    grid = _stored_grid(base, 3, _H_POSITIONS)
    c, e, f = (grid[:, i, j] for i, j in _H_POSITIONS)
    grid[:, 1, 1] = base.apply("add", f, base.apply("mul", t, e))
    grid[:, 0, 0] = base.apply("add", grid[:, 1, 1], base.apply("mul", s, c))
    ring = _grid_ring(base, grid, _H_POSITIONS, Provenance("h", spelled, base=base, grid=grid))
    return _certify(ring, base)


def h_components(ring: FiniteRing, x: Element) -> tuple[int, int, int, int, int]:
    """Return (a, c, d, e, f) for an element of an h_ring."""
    _provenance(ring, "h_ring()", "h")
    (a, _, _), (c, d, e), (_, _, f) = matrix_entries(ring, x)
    return a, c, d, e, f


def h_encode(ring: FiniteRing, c: int, e: int, f: int) -> int:
    prov = _provenance(ring, "h_ring()", "h")
    for v in (c, e, f):
        prov.base._check_index(v)
    bs = prov.base.size
    return (c * bs + e) * bs + f


# -- Dorroh-style extensions -------------------------------------------------------


class NonUnitalRing:
    """A finite ring that need not have an identity, given by tables.

    Used as the V part of a Dorroh extension; the construction never
    assumes or uses an identity in V.
    """

    __slots__ = ("size", "add_table", "mul_table", "zero", "names")

    def __init__(self, size: int, add, mul, zero: int, names=None):
        if not _is_int(size) or size < 1:
            raise MalformedTableError("V must have at least one element")
        self.add_table = _as_table("V add", add, (size, size), size)
        self.mul_table = _as_table("V mul", mul, (size, size), size)
        if not _is_int(zero) or not (0 <= zero < size):
            raise MalformedTableError(f"V zero index {zero!r} out of range")
        self.size = size
        self.zero = zero
        if names is not None and not callable(names) and len(names) != size:
            raise MalformedTableError("V names length does not match size")
        self.names = names

    def names_of(self, at) -> list[str]:
        """The names of the elements ``at``, from ``names``: a list, a
        recipe as for ``FiniteRing``, or None to name each by its index."""
        at = np.asarray(at, dtype=np.intp)
        if callable(self.names):
            return self.names(at)
        return [str(v) if self.names is None else self.names[v] for v in at.tolist()]


@dataclass(eq=False)
class BimoduleRingAction:
    """Two-sided action of a base ring on a (possibly non-unital) ring V.

    ``left[r, v]`` is r.v and ``right[v, r]`` is v.r, both V indices;
    their shapes are checked against a base ring by
    :func:`validate_bimodule_action`.
    """

    v: NonUnitalRing
    left: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        self.left = _as_table("left action", self.left, None, self.v.size)
        self.right = _as_table("right action", self.right, None, self.v.size)


def validate_bimodule_action(base: FiniteRing, action: BimoduleRingAction) -> list[str]:
    """Exhaustively check every law a Dorroh extension relies on.

    V must be a ring, judged exactly by the kernel's axiom code without
    a one, since the triple-axiom prover needs no identity.  A V that
    fails gets one error per violated pair axiom, and for the triple
    axioms one per violated axiom from the triple scan up to 256
    elements, or the prover's failing gate's single witness above
    that.  Then
    both actions must be biadditive and unital over the base one, and
    satisfy the module associativity laws (r*s).v = r.(s.v),
    v.(r*s) = (v.r).s, (r.v).s = r.(v.s) and the three
    ring-compatibility laws (v w).r = v (w.r), (v.r) w = v (r.w),
    (r.v) w = r.(v w).  Each law is a broadcast comparison over its
    variables r, s in the base and v, w in V, at most
    |base| |V| max(|base|, |V|) cells, in blocks of r, or of v within
    one r, of about ``kernel._BLOCK_CELLS`` cells; a block reads the
    base only as its rows of r + s and r * s (``FiniteRing.block``), so
    an unfilled base stays unfilled.  Returns human-readable violations,
    one per failing axiom or law with its first witness in (r, s, v, w)
    row-major order, empty when all hold.  Tracemalloc peak: 2.2 MB for
    a V of 1024 or 2048 elements, nearly all of it the laws (V's own
    axiom check takes under 1 MB), and 2.6 MB for ``zero_action(Z4096)``.
    """
    ring_v = action.v
    errs = [
        f"V {violation.describe(ring_v)}"
        for violation in _axiom_violations(ring_v.add_table, ring_v.mul_table, ring_v.zero)[0]
    ]
    left = action.left
    right = action.right
    n = base.size
    vn = ring_v.size
    if left.shape != (n, vn):
        return errs + [f"left action table must be {n}x{vn}"]
    if right.shape != (vn, n):
        return errs + [f"right action table must be {vn}x{n}"]

    vadd, vmul = ring_v.add_table, ring_v.mul_table
    width = max(n, vn)
    found = {}  # law -> its first witness (r, s, v, w) so far, and its message
    for rows, vs in itertools.product(_row_blocks(n, vn * width), _row_blocks(vn, width)):
        # open grids, one axis per variable: the block's r, then s over
        # the base, the block's v and w over V; r + s and r * s by the same axes
        ids = np.arange(n)[rows]
        r, s, v, w = np.ix_(ids, np.arange(n), np.arange(vn)[vs], np.arange(vn))
        r_plus_s = base.block("add", ids)[:, :, None, None]
        r_times_s = base.block("mul", ids)[:, :, None, None]
        laws = (
            ("1.v == v", lambda: (left[base.one, v], v)),
            ("v.1 == v", lambda: (right[v, base.one], v)),
            ("r.(v+w) == r.v + r.w", lambda: (left[r, vadd[v, w]], vadd[left[r, v], left[r, w]])),
            ("(r+s).v == r.v + s.v", lambda: (left[r_plus_s, v], vadd[left[r, v], left[s, v]])),
            ("(v+w).r == v.r + w.r", lambda: (right[vadd[v, w], r], vadd[right[v, r], right[w, r]])),
            ("v.(r+s) == v.r + v.s", lambda: (right[v, r_plus_s], vadd[right[v, r], right[v, s]])),
            ("(r*s).v == r.(s.v)", lambda: (left[r_times_s, v], left[r, left[s, v]])),
            ("v.(r*s) == (v.r).s", lambda: (right[v, r_times_s], right[right[v, r], s])),
            ("(r.v).s == r.(v.s)", lambda: (right[left[r, v], s], left[r, right[v, s]])),
            ("(v*w).r == v*(w.r)", lambda: (right[vmul[v, w], r], vmul[v, right[w, r]])),
            ("(v.r)*w == v*(r.w)", lambda: (vmul[right[v, r], w], vmul[v, left[r, w]])),
            ("(r.v)*w == r.(v*w)", lambda: (vmul[left[r, v], w], left[r, vmul[v, w]])),
        )
        for law, sides in laws:
            # a law without r is read in the first block; one failed at an earlier r is done
            if found[law][0][0] < rows.start if law in found else "r" not in law and rows.start:
                continue
            mismatch = np.not_equal(*sides())
            if mismatch.any():
                at = tuple(np.argwhere(mismatch)[0] + (rows.start, 0, vs.start, 0))
                witness = ", ".join(f"{k}={int(c)}" for k, c in zip("rsvw", at) if k in law)
                new = (at, f"{law} fails ({witness})")
                found[law] = min(found.get(law, new), new)
    return errs + [found[law][1] for law, _ in laws if law in found]


def self_action(base: FiniteRing) -> BimoduleRingAction:
    """V is the base ring itself (identity forgotten), acting by ring product."""
    mul = base.block("mul")
    v = NonUnitalRing(base.size, base.block("add"), mul, base.zero, names=base.names_of)
    return BimoduleRingAction(v=v, left=mul, right=mul)


def zero_action(base: FiniteRing) -> BimoduleRingAction:
    """V is the one-element zero ring."""
    v = NonUnitalRing(1, [[0]], [[0]], 0, names=["0"])
    left = np.zeros((base.size, 1), dtype=np.int32)
    right = np.zeros((1, base.size), dtype=np.int32)
    return BimoduleRingAction(v=v, left=left, right=right)


def ideal_action(base: FiniteRing, generators) -> BimoduleRingAction:
    """V is the two-sided ideal generated by the given elements, with
    inherited operations and the base ring acting by multiplication."""
    members, lookup = _numbering(ideal_generated(base, generators).bool_array(), base.size)
    v = NonUnitalRing(
        len(members),
        _relabelled(base, "add", members, members, lookup),
        _relabelled(base, "mul", members, members, lookup),
        int(lookup[base.zero]),
        names=lambda at: base.names_of(members[at]),
    )
    left = _relabelled(base, "mul", None, members, lookup)
    right = _relabelled(base, "mul", members, None, lookup)
    return BimoduleRingAction(v=v, left=left, right=right)


def dorroh(base: FiniteRing, action: BimoduleRingAction, v_spell: str = "custom") -> FiniteRing:
    """Extension of the base ring by a bimodule-ring V, its tables unfilled.

    Elements are pairs (r, v), index r * |V| + v, with

        (r, v) + (s, w) = (r + s, v + w)
        (r, v) * (s, w) = (r * s, r.w + v.s + v * w)

    and identity (1, 0).  The capacity is checked first, then all
    action laws exhaustively; V is never assumed to have an identity of
    its own.  Every block is the base's block packed by |V| plus the
    V-part, from rows keyed by the r and v that occur in its rows; the
    product's V-sum is summed elementwise, in row blocks.  An elementwise
    read is the base's elementwise read and V's tables and the actions
    at its two pairs.
    Tracemalloc peak: 5.5 bytes per n^2 for the tables, and one block of
    the action laws for the validation (:func:`validate_bimodule_action`).
    Its names "(r, v)" are built when first read, from the base's and V's.
    Certified when the base is: the Dorroh extension of a ring by a ring
    V under a bimodule action that satisfies those laws, all checked
    here, is a ring with identity (1, 0).
    """
    v = action.v
    vn = v.size
    n = base.size * vn
    spelled = spelling("dorroh", base.spell(), v_spell)
    _check_capacity(n, spelled)
    errs = validate_bimodule_action(base, action)
    if errs:
        raise ConstructionError(f"invalid bimodule action: {errs[0]}")
    vadd = v.add_table.reshape(-1)
    width = np.int32(vn)

    def arithmetic(op, rows, cols):
        rows = np.arange(n) if rows is None else rows
        cols = np.arange(n) if cols is None else cols
        # the rows' r and v that occur, and each row's place among them
        used_r, key_r = _occurring(rows // vn, base.size)
        used_v, key_v = _occurring(rows % vn, vn)
        yr, yw = np.divmod(cols, vn)

        def terms():  # one at a time, as each term's rows take |keys| x |cols|
            yield base.block(op, used_r, yr) * TABLE_DTYPE(vn), key_r
            if op == "add":
                yield _columns(np.take(v.add_table, used_v, axis=0), yw), key_v

        out = _gather_rows(terms())
        if op == "add":
            return out
        lw = _columns(np.take(action.left, used_r, axis=0), yw)
        vs = _columns(np.take(action.right, used_v, axis=0), yr)
        vw = _columns(np.take(v.mul_table, used_v, axis=0), yw)
        for block in _row_blocks(len(rows), len(cols), kernel._SWEEP_BLOCK_CELLS):
            kr, kv = key_r[block], key_v[block]
            out[block] += np.take(vadd, np.take(vadd, lw[kr] * width + vs[kv]) * width + vw[kv])
        return out

    def pointwise(op, x, y):
        (r, rv), (s, sw) = np.divmod(x, vn), np.divmod(y, vn)
        head = base.apply(op, r, s) * TABLE_DTYPE(vn)
        if op == "add":
            return head + v.add_table[rv, sw]
        acted = v.add_table[action.left[r, sw], action.right[rv, s]]
        return head + v.add_table[acted, v.mul_table[rv, sw]]

    ring = FiniteRing(
        n,
        None,
        None,
        zero=base.zero * vn + v.zero,
        one=base.one * vn + v.zero,
        provenance=Provenance("dorroh", spelled, base=base, action=action),
        element_names=_pair_names(base, v),
        arithmetic=arithmetic,
        pointwise=pointwise,
    )
    return _certify(ring, base)


def dorroh_components(ring: FiniteRing, x: Element) -> tuple[int, int]:
    prov = _provenance(ring, "dorroh()", "dorroh")
    ring._check_index(x)
    return divmod(x, prov.action.v.size)


# -- corners, ideals, quotients ---------------------------------------------------


def corner(base: FiniteRing, e: Element) -> FiniteRing:
    """The corner ring e*R*e with identity e, for a nonzero idempotent e,
    its tables unfilled.

    The base is read elementwise (``FiniteRing.apply``) at e*e, at every
    ex and at their products exe.  The corner is a view of the base at
    its members (:func:`_view`), so its blocks and elementwise reads are
    the base's and an unfilled base stays unfilled.  eRe is closed under
    + and * in any ring, so only an uncertified base has its closure
    checked, by ``analysis.first_escape`` over the members' sums and
    products.  The build holds vectors the length of the base and, on
    an uncertified base, one row block.  Tracemalloc peak: 6 bytes
    per n^2 to fill the tables of a corner of n elements from an
    unfilled base (5.7 measured at 1024): the two tables, one block of
    the base and its relabelled copy.  Its names are its members' names
    in the base, built when first read.  Certified when the base is: for
    an idempotent e of a ring, eRe is a ring with identity e.
    """
    base._check_index(e)
    if base.apply("mul", e, e) != e:
        raise ConstructionError(f"element {e} is not idempotent")
    if e == base.zero:
        raise ConstructionError("corner at zero is the zero ring and has no identity")
    exe = base.apply("mul", base.apply("mul", e, np.arange(base.size)), e)
    members, lookup = _numbering(exe, base.size)
    if not base.certified:
        for op in ("add", "mul"):
            if analysis.first_escape(lookup >= 0, base, op, members, members) is not None:
                raise ConstructionError("corner set is not closed; the base tables are defective")
    ring = _view(
        base,
        members,
        lookup,
        zero=int(lookup[base.zero]),
        one=int(lookup[e]),
        provenance=Provenance("corner", spelling("corner", base.spell(), e), members=members),
        element_names=lambda at: base.names_of(members[at]),
    )
    return _certify(ring, base)


def ideal_generated(base: FiniteRing, generators) -> ElementSet:
    """The smallest two-sided ideal containing the given elements.

    Saturates under addition of members and multiplication by arbitrary
    ring elements on both sides; negation is covered by multiplication
    with -1.  A round reads F + I, O + F, F R and R F for the members I,
    those F new in the round before and the older ones O, so each ordered
    sum is read once (a table that is not a ring may not add
    commutatively) and the fixpoint is closed on any table: |I|^2 +
    2 n |I| cells in all, in row blocks (``kernel.row_block_reads``),
    so an unfilled base stays unfilled.
    """
    mask = np.zeros(base.size, dtype=bool)
    mask[base.zero] = True
    for g in generators:
        base._check_index(int(g))
        mask[int(g)] = True
    fresh, old = np.flatnonzero(mask), np.array([], dtype=np.intp)
    while len(fresh):
        members = np.flatnonzero(mask)
        found = np.zeros(base.size, dtype=bool)
        sums = [("add", fresh, members), ("add", old, fresh)]
        for op, rows, cols in sums + [("mul", None, fresh), ("mul", fresh, None)]:
            for _, block in row_block_reads(base, op, rows, cols):
                found[block] = True
        old, fresh = members, np.flatnonzero(found & ~mask)
        mask |= found
    return ElementSet(base, mask)


def quotient(base: FiniteRing, ideal: ElementSet) -> FiniteRing:
    """The quotient ring by a verified two-sided ideal, spelled with the
    ideal's nonzero members as generators.

    Cosets are represented by their minimum element index.  Quotients
    that would collapse one onto zero (ideal containing one) are
    rejected, keeping every constructed ring unital and nonzero.
    The build reads the base R only by blocks and elementwise: the
    ideal check's |I|^2 + 2 |R| |I| cells, the negation of the members
    (``FiniteRing.neg_rows``) and the |R| x |I| coset table, in row
    blocks, so an unfilled base stays unfilled.  It keeps ``coset_of``,
    the vector from a base element to its coset, and the quotient is a
    view of the base at the representatives (:func:`_view`), its tables
    unfilled.  The build holds one row block of the ideal check or the
    coset table, about 3 MB, and vectors the length of the base.
    Tracemalloc peak: 6 bytes per n^2 to fill the tables of a quotient
    of n elements from an unfilled base, as for :func:`corner` (5.7
    measured at 1024).  Its names "[r]", for each coset's representative
    r, are built when first read.  Certified when the base is: the
    quotient of a ring by a two-sided ideal is a ring.
    """
    if ideal.ring is not base:
        raise ConstructionError("ideal belongs to a different ring")
    mask = ideal.bool_array()
    if not mask[base.zero]:
        raise ConstructionError("not an ideal: missing zero")
    is_ideal, _, why = analysis.is_two_sided_ideal(base, mask)
    if not is_ideal:
        raise ConstructionError(f"not an ideal: {why}")
    return _quotient(base, ideal, [g for g in ideal.indices() if g != base.zero])


def quotient_by_generators(base: FiniteRing, generators) -> FiniteRing:
    """The quotient by the two-sided ideal the generators generate;
    certified when the base is, as for :func:`quotient`."""
    generators = [int(g) for g in generators]
    return _quotient(base, ideal_generated(base, generators), generators)


def _quotient(base: FiniteRing, ideal: ElementSet, generators) -> FiniteRing:
    # ``ideal`` is closed under sums and products: generated, or checked
    mask = ideal.bool_array()
    members = np.flatnonzero(mask)
    if not mask[base.neg_rows(members)].all():
        raise ConstructionError("not an ideal: not closed under negation")
    if mask[base.one]:
        raise ConstructionError("quotient by the whole ring is the zero ring; rejected")

    rep_of = np.empty(base.size, dtype=np.int32)
    for start, block in row_block_reads(base, "add", None, members):
        rep_of[start : start + len(block)] = block.min(axis=1)
    representatives, lookup = _numbering(rep_of, base.size)
    coset_of = lookup[rep_of]  # every element has a coset, so no entry is -1
    coset_of.flags.writeable = False
    spelled = spelling("quot", base.spell(), *generators)
    ring = _view(
        base,
        representatives,
        coset_of,
        zero=int(coset_of[base.zero]),
        one=int(coset_of[base.one]),
        provenance=Provenance("quotient", spelled, coset_of=coset_of),
        element_names=lambda at: [f"[{x}]" for x in base.names_of(representatives[at])],
    )
    return _certify(ring, base)


def quotient_project(ring: FiniteRing, parent_x: Element) -> int:
    """Image of a parent element under the quotient projection."""
    prov = _provenance(ring, "quotient()", "quotient")
    if not (0 <= parent_x < len(prov.coset_of)):
        raise IndexError(
            f"element index {parent_x} out of range for ring of size {len(prov.coset_of)}"
        )
    return int(prov.coset_of[parent_x])
