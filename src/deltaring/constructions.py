"""Constructions of finite unital rings.

Each constructor compiles full operation tables eagerly (the kernel caps
the element count), attaches a provenance record describing how the ring
was built, and assigns each element a structural display name.  Element
indices follow a canonical mixed-radix encoding per construction, most
significant component first, so encode/decode round-trips are exact and
reports are reproducible.

The product, matrix-shaped and Dorroh tables are sums of row gathers
(``_gather_rows``): row x is a sum of rows picked by small keys of x, so
none of them runs an elementwise n x n gather but Dorroh's V-part
product, which depends on all of x.  Zn's tables are a sliding window
and an outer product; corner and quotient select from their parent's
tables.  The FiniteRing keeps the fresh int32 tables it is handed.
Every table builder's docstring gives its tracemalloc peak in bytes per
cell of the n x n result, the ring's tables and negation scan included,
as measured with numpy 2.4 at 512 to 4096 elements (the peak per cell
falls with n, towards the 8 bytes of the two tables); a memory
pre-flight multiplies it by n^2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analysis
from .kernel import (
    CapacityError,
    ConstructionError,
    Element,
    ElementSet,
    FiniteRing,
    MalformedTableError,
    _SWEEP_BLOCK_CELLS,
    _as_table,
    _axiom_violations,
    _row_blocks,
    element_capacity,
)


def _check_capacity(size: int, what: str) -> None:
    cap = element_capacity()
    if size > cap:
        raise CapacityError(f"{what} would have {size} elements, exceeding the cap {cap}")


def _provenance(ring: FiniteRing, kind: type, builder: str):
    """The ring's provenance record, which must be a ``kind``."""
    if not isinstance(ring.provenance, kind):
        raise ConstructionError(f"ring was not built by {builder}")
    return ring.provenance


def _gather_rows(terms) -> np.ndarray:
    """The int32 n x n table sum_p rows_p[keys_p], one row gather per term.

    Each term is a pair (rows, keys): ``keys[x]`` is a small key derived
    from element x, and ``rows`` is the (#keys, n) int32 table whose row
    ``keys[x]`` is the term's contribution to row x, place value folded
    in.  Terms are consumed one at a time, and each after the first is
    added in row blocks.  Cost: one contiguous n^2 row copy per term, in
    place of an elementwise n^2 gather; tracemalloc peak 4 bytes per n^2
    (the sum), one block and one ``rows``.
    """
    out = None
    for rows, keys in terms:
        if out is None:
            out = np.take(rows, keys, axis=0)
            continue
        for block in _row_blocks(len(keys), len(keys), _SWEEP_BLOCK_CELLS):
            part = out[block]
            part += np.take(rows, keys[block], axis=0)
    return out


def _componentwise(tables, coords, place_values) -> np.ndarray:
    """The int32 n x n table that applies ``tables[p]`` to coordinate p.

    ``coords[p][x]`` is coordinate p of element x, and entry (x, y) packs
    ``tables[p][coords[p][x], coords[p][y]]`` by ``place_values[p]``: row
    x of term p is row ``coords[p][x]`` of ``tables[p][:, coords[p]]``.
    The packed value is an element index below the capped size, so it
    fits int32 at every cap.  Cost: one row gather per coordinate.
    """
    return _gather_rows(
        (_columns(table, coord) * np.int32(pv), coord)
        for table, coord, pv in zip(tables, coords, place_values)
    )


def _columns(table: np.ndarray, coord: np.ndarray) -> np.ndarray:
    """``table[:, coord]``, C-contiguous so that its rows gather as
    contiguous copies (the fancy index lays it out column-major)."""
    return np.take(table, coord, axis=1)


def _sub_table(table: np.ndarray, members: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``index[table[x, y]]`` for x, y in ``members``: the table restricted
    to members and renumbered, in two m x m gathers."""
    return index[table[np.ix_(members, members)]]


# -- provenance records -------------------------------------------------------


@dataclass(eq=False)
class ZnProvenance:
    kind = "zn"
    n: int

    def spell(self) -> str:
        return f"Z{self.n}"


@dataclass(eq=False)
class TableProvenance:
    kind = "table"
    label: str

    def spell(self) -> str:
        return f"table:{self.label}"


@dataclass(eq=False)
class ProductProvenance:
    kind = "product"
    left: FiniteRing
    right: FiniteRing

    def spell(self) -> str:
        return f"prod({self.left.spell()}, {self.right.spell()})"


@dataclass(eq=False)
class MatrixProvenance:
    # kind is "matrix" for full k x k rings, "upper_triangular" otherwise
    kind: str
    k: int
    base: FiniteRing
    positions: list[tuple[int, int]]
    grid: np.ndarray  # (size, k, k) base indices, fixed zeros included

    def spell(self) -> str:
        head = "M" if self.kind == "matrix" else "T"
        return f"{head}({self.k}, {self.base.spell()})"


@dataclass(eq=False)
class HProvenance:
    kind = "h"
    base: FiniteRing
    s: int
    t: int
    grid: np.ndarray  # (size, 3, 3) base indices, dependent entries and zeros included

    def spell(self) -> str:
        return f"H({self.s}, {self.t}, {self.base.spell()})"


@dataclass(eq=False)
class CornerProvenance:
    kind = "corner"
    parent: FiniteRing
    e: int
    members: np.ndarray  # ascending parent indices

    def spell(self) -> str:
        return f"corner({self.parent.spell()}, {self.e})"


@dataclass(eq=False)
class DorrohProvenance:
    kind = "dorroh"
    base: FiniteRing
    action: "BimoduleRingAction"
    v_spell: str

    def spell(self) -> str:
        return f"dorroh({self.base.spell()}, {self.v_spell})"


@dataclass(eq=False)
class QuotientProvenance:
    kind = "quotient"
    parent: FiniteRing
    ideal: ElementSet
    generators: tuple[int, ...]
    representatives: np.ndarray  # ascending parent indices, one per coset
    rep_of: np.ndarray  # parent index -> minimal representative of its coset

    def spell(self) -> str:
        gens = ", ".join(str(g) for g in self.generators)
        return f"quot({self.parent.spell()}, {gens})"


# -- elementary constructions ---------------------------------------------------


def zn(n: int) -> FiniteRing:
    """The integers modulo n, for n >= 2.

    Row x of the sum is the window x..x+n-1 of 0..n-1 written twice.
    The product is a uint32 outer product reduced mod n in place: exact
    while (n-1)^2 < 2^32, that is up to the hard cap of 65536.
    Tracemalloc peak: 9 bytes per n^2.
    """
    if n < 2:
        raise ConstructionError(f"Z{n} is not a unital ring with one != zero")
    _check_capacity(n, f"Z{n}")
    twice = np.arange(2 * n, dtype=np.int32) % n
    add = np.lib.stride_tricks.sliding_window_view(twice, n)[:n].copy()
    arange = np.arange(n, dtype=np.uint32)
    mul = np.multiply.outer(arange, arange)
    mul %= np.uint32(n)
    mul = mul.view(np.int32)
    return FiniteRing(
        n,
        add,
        mul,
        zero=0,
        one=1,
        provenance=ZnProvenance(n),
        element_names=[str(i) for i in range(n)],
    )


def table_ring(source, label: str | None = None) -> FiniteRing:
    """Build a ring from explicit tables.

    ``source`` is a path to a JSON file or an already-parsed dict with
    keys size, add, mul, zero, one (tables are 0-based, row-major).
    Structural defects raise MalformedTableError; whether the tables
    satisfy the ring axioms is validate_ring's question, so defective
    axioms load fine and are reported there.
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        if label is None:
            label = path.name
        try:
            text = path.read_text()
        except OSError as exc:
            raise MalformedTableError(f"cannot read table file {path}: {exc}")
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
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
    if not isinstance(size, int) or size < 1:
        raise MalformedTableError(f"table size must be a positive integer, got {size!r}")
    _check_capacity(size, f"table ring {label}")
    zero = data["zero"]
    one = data["one"]
    if not isinstance(zero, int) or not isinstance(one, int):
        raise MalformedTableError("zero and one must be element indices")
    return FiniteRing(
        size,
        data["add"],
        data["mul"],
        zero=zero,
        one=one,
        provenance=TableProvenance(label),
    )


def _pair_names(first, second) -> list[str]:
    """The name "(a, b)" of every pair, indexed first * |second| + second."""
    names = [second.element_name(w) for w in range(second.size)]
    return [f"({first.element_name(r)}, {w})" for r in range(first.size) for w in names]


def product(left: FiniteRing, right: FiniteRing) -> FiniteRing:
    """Direct product; index of (r, s) is r * |right| + s.

    Both tables are componentwise.  Tracemalloc peak: 10 bytes per n^2.
    """
    n = left.size * right.size
    _check_capacity(n, f"prod({left.spell()}, {right.spell()})")
    sn = right.size
    arange = np.arange(n)
    rs = arange // sn
    ss = arange % sn
    add = _componentwise((left.add_table, right.add_table), (rs, ss), (sn, 1))
    mul = _componentwise((left.mul_table, right.mul_table), (rs, ss), (sn, 1))
    names = _pair_names(left, right)
    return FiniteRing(
        n,
        add,
        mul,
        zero=left.zero * sn + right.zero,
        one=left.one * sn + right.one,
        provenance=ProductProvenance(left, right),
        element_names=names,
    )


def product_components(ring: FiniteRing, x: Element) -> tuple[int, int]:
    prov = _provenance(ring, ProductProvenance, "product()")
    ring._check_index(x)
    return divmod(x, prov.right.size)


def product_encode(ring: FiniteRing, r: int, s: int) -> int:
    prov = _provenance(ring, ProductProvenance, "product()")
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
    ``positions`` (most significant first), with the matrix sum and product.

    The sum is componentwise over the stored positions.  Product entry
    (i, j) of xy sums x[i, l] * y[l, j], first term first, over the l in
    L where places (i, l) and (l, j) are nonzero in some element's grid:
    every other term has a factor that is the base zero in all elements.
    The identity is nonzero on the whole diagonal, so l = j always
    contributes.  That entry depends on x only through its entries
    x[i, l] for l in L, so it is a row gather keyed by them in mixed
    radix, from a table of |S|^|L| rows: n^(1/k) for M(k, S), at most
    n^(2/3) for T(k, S) and H, and n only for k = 1.
    Dependent entries, such as h_ring's a and d, are keys like any other.
    Cost: one n^2 row gather per stored position for the sum and one for
    the product, plus |S|^|L| * n cells of elementwise work per position
    to build the product's keyed rows.
    """
    m = len(positions)
    n, k, _ = grid.shape
    bs = base.size
    place_values = [bs ** (m - 1 - p) for p in range(m)]
    add = _componentwise([base.add_table] * m, [grid[:, i, j] for i, j in positions], place_values)
    support = (grid != base.zero).any(axis=0)

    def product_terms():
        for (i, j), pv in zip(positions, place_values):
            ls = np.flatnonzero(support[i] & support[:, j])
            keys = np.zeros(n, dtype=np.intp)
            for l in ls:
                keys = keys * bs + grid[:, i, l]
            digits = np.indices((bs,) * len(ls)).reshape(len(ls), -1)
            acc = None
            for digit, l in zip(digits, ls):
                term = _columns(np.take(base.mul_table, digit, axis=0), grid[:, l, j])
                acc = term if acc is None else base.add_table[acc, term]
            acc *= pv
            yield acc, keys

    mul = _gather_rows(product_terms())

    zero = sum(base.zero * pv for pv in place_values)
    one = sum(
        (base.one if i == j else base.zero) * pv
        for (i, j), pv in zip(positions, place_values)
    )
    fmt = "[" + ",".join(["[" + ",".join(["{}"] * k) + "]"] * k) + "]"
    base_names = np.array([base.element_name(v) for v in range(base.size)], dtype=object)
    columns = base_names[grid.reshape(n, k * k)].T.tolist()
    names = [fmt.format(*cells) for cells in zip(*columns)]
    grid.flags.writeable = False
    return FiniteRing(n, add, mul, zero=zero, one=one, provenance=provenance, element_names=names)


def matrix_ring(k: int, base: FiniteRing) -> FiniteRing:
    """Full k x k matrices over the base ring, row-major mixed radix.

    Tracemalloc peak: 10.5 bytes per n^2: both tables, one row block,
    and the keyed product rows of _grid_ring, which are n x n for k = 1
    and take it to 12.
    """
    if k < 1:
        raise ConstructionError("matrix dimension must be at least 1")
    _check_digits_capacity(base, k * k, f"M({k}, {base.spell()})")
    positions = [(i, j) for i in range(k) for j in range(k)]
    grid = _stored_grid(base, k, positions)
    return _grid_ring(base, grid, positions, MatrixProvenance("matrix", k, base, positions, grid))


def upper_triangular(k: int, base: FiniteRing) -> FiniteRing:
    """Upper-triangular k x k matrices over the base ring.

    Tracemalloc peak: 10.5 bytes per n^2, as for matrix_ring.
    """
    if k < 1:
        raise ConstructionError("matrix dimension must be at least 1")
    _check_digits_capacity(base, k * (k + 1) // 2, f"T({k}, {base.spell()})")
    positions = [(i, j) for i in range(k) for j in range(k) if i <= j]
    grid = _stored_grid(base, k, positions)
    prov = MatrixProvenance("upper_triangular", k, base, positions, grid)
    return _grid_ring(base, grid, positions, prov)


def matrix_entries(ring: FiniteRing, x: Element) -> tuple[tuple[int, ...], ...]:
    """Decode an element of a matrix-shaped ring into its k x k entry grid."""
    prov = _provenance(ring, MatrixProvenance, "matrix_ring() or upper_triangular()")
    ring._check_index(x)
    return tuple(tuple(int(v) for v in row) for row in prov.grid[x])


def matrix_encode(ring: FiniteRing, grid) -> int:
    """Encode a k x k grid of base indices into an element index."""
    prov = _provenance(ring, MatrixProvenance, "matrix_ring() or upper_triangular()")
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
    prov = _provenance(ring, MatrixProvenance, "matrix_ring() or upper_triangular()")
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
    Tracemalloc peak: 11 bytes per n^2: the product is keyed on two
    entries, so its keyed rows take |base|^2 x n cells, one in |base|
    of n^2.
    """
    base._check_index(s)
    base._check_index(t)
    s_central = bool(analysis.center_mask(base)[s])
    t_central = bool(analysis.center_mask(base)[t])
    if not (s_central and base.is_unit(s)):
        raise ConstructionError(f"s (index {s}) must be a central unit of the base ring")
    if not (t_central and base.is_unit(t)):
        raise ConstructionError(f"t (index {t}) must be a central unit of the base ring")
    _check_digits_capacity(base, len(_H_POSITIONS), f"H({s}, {t}, {base.spell()})")
    grid = _stored_grid(base, 3, _H_POSITIONS)
    c, e, f = (grid[:, i, j] for i, j in _H_POSITIONS)
    grid[:, 1, 1] = base.add_table[f, base.mul_table[t, e]]
    grid[:, 0, 0] = base.add_table[grid[:, 1, 1], base.mul_table[s, c]]
    return _grid_ring(base, grid, _H_POSITIONS, HProvenance(base, s, t, grid))


def h_components(ring: FiniteRing, x: Element) -> tuple[int, int, int, int, int]:
    """Return (a, c, d, e, f) for an element of an h_ring."""
    (a, _, _), (c, d, e), (_, _, f) = h_matrix(ring, x)
    return a, c, d, e, f


def h_encode(ring: FiniteRing, c: int, e: int, f: int) -> int:
    prov = _provenance(ring, HProvenance, "h_ring()")
    for v in (c, e, f):
        prov.base._check_index(v)
    bs = prov.base.size
    return (c * bs + e) * bs + f


def h_matrix(ring: FiniteRing, x: Element) -> tuple[tuple[int, ...], ...]:
    """Expand an h_ring element to its full 3 x 3 grid of base indices."""
    prov = _provenance(ring, HProvenance, "h_ring()")
    ring._check_index(x)
    return tuple(tuple(row) for row in prov.grid[x].tolist())


# -- Dorroh-style extensions -------------------------------------------------------


class NonUnitalRing:
    """A finite ring that need not have an identity, given by tables.

    Used as the V part of a Dorroh extension; the construction never
    assumes or uses an identity in V.
    """

    __slots__ = ("size", "add_table", "mul_table", "zero", "names")

    def __init__(self, size: int, add, mul, zero: int, names: list[str] | None = None):
        if not isinstance(size, int) or size < 1:
            raise MalformedTableError("V must have at least one element")
        self.add_table = _as_table("V add", add, (size, size), size)
        self.mul_table = _as_table("V mul", mul, (size, size), size)
        if not isinstance(zero, int) or not (0 <= zero < size):
            raise MalformedTableError(f"V zero index {zero!r} out of range")
        self.size = size
        self.zero = zero
        if names is not None and len(names) != size:
            raise MalformedTableError("V names length does not match size")
        self.names = names

    def element_name(self, v: int) -> str:
        if self.names is None:
            return str(v)
        return self.names[v]


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
    (r.v) w = r.(v w).  Each law is one broadcast comparison over its
    variables r, s in the base and v, w in V, at most
    |base| |V| max(|base|, |V|) cells.  Returns human-readable
    violations, one per failing axiom or law with its first witness,
    empty when all hold.
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

    # open grids, one axis per variable: r, s over the base, v, w over V
    r, s, v, w = np.ix_(np.arange(n), np.arange(n), np.arange(vn), np.arange(vn))
    badd, bmul, vadd, vmul = base.add_table, base.mul_table, ring_v.add_table, ring_v.mul_table
    laws = (
        ("1.v == v", lambda: (left[base.one, v], v)),
        ("v.1 == v", lambda: (right[v, base.one], v)),
        ("r.(v+w) == r.v + r.w", lambda: (left[r, vadd[v, w]], vadd[left[r, v], left[r, w]])),
        ("(r+s).v == r.v + s.v", lambda: (left[badd[r, s], v], vadd[left[r, v], left[s, v]])),
        ("(v+w).r == v.r + w.r", lambda: (right[vadd[v, w], r], vadd[right[v, r], right[w, r]])),
        ("v.(r+s) == v.r + v.s", lambda: (right[v, badd[r, s]], vadd[right[v, r], right[v, s]])),
        ("(r*s).v == r.(s.v)", lambda: (left[bmul[r, s], v], left[r, left[s, v]])),
        ("v.(r*s) == (v.r).s", lambda: (right[v, bmul[r, s]], right[right[v, r], s])),
        ("(r.v).s == r.(v.s)", lambda: (right[left[r, v], s], left[r, right[v, s]])),
        ("(v*w).r == v*(w.r)", lambda: (right[vmul[v, w], r], vmul[v, right[w, r]])),
        ("(v.r)*w == v*(r.w)", lambda: (vmul[right[v, r], w], vmul[v, left[r, w]])),
        ("(r.v)*w == r.(v*w)", lambda: (vmul[left[r, v], w], left[r, vmul[v, w]])),
    )
    for law, sides in laws:
        mismatch = np.not_equal(*sides())
        if mismatch.any():
            at = dict(zip("rsvw", np.argwhere(mismatch)[0]))
            witness = ", ".join(f"{name}={int(at[name])}" for name in "rsvw" if name in law)
            errs.append(f"{law} fails ({witness})")
    return errs


def self_action(base: FiniteRing) -> BimoduleRingAction:
    """V is the base ring itself (identity forgotten), acting by ring product."""
    v = NonUnitalRing(
        base.size,
        base.add_table,
        base.mul_table,
        base.zero,
        names=[base.element_name(i) for i in range(base.size)],
    )
    return BimoduleRingAction(v=v, left=base.mul_table, right=base.mul_table)


def zero_action(base: FiniteRing) -> BimoduleRingAction:
    """V is the one-element zero ring."""
    v = NonUnitalRing(1, [[0]], [[0]], 0, names=["0"])
    left = np.zeros((base.size, 1), dtype=np.int32)
    right = np.zeros((1, base.size), dtype=np.int32)
    return BimoduleRingAction(v=v, left=left, right=right)


def ideal_action(base: FiniteRing, generators) -> BimoduleRingAction:
    """V is the two-sided ideal generated by the given elements, with
    inherited operations and the base ring acting by multiplication."""
    members = np.array(sorted(ideal_generated(base, generators).indices()), dtype=np.int32)
    lookup = np.full(base.size, -1, dtype=np.int32)
    lookup[members] = np.arange(len(members), dtype=np.int32)
    v = NonUnitalRing(
        len(members),
        _sub_table(base.add_table, members, lookup),
        _sub_table(base.mul_table, members, lookup),
        int(lookup[base.zero]),
        names=[base.element_name(int(m)) for m in members],
    )
    left = lookup[base.mul_table[:, members]]
    right = lookup[base.mul_table[members, :]]
    return BimoduleRingAction(v=v, left=left, right=right)


def dorroh(base: FiniteRing, action: BimoduleRingAction, v_spell: str = "custom") -> FiniteRing:
    """Extension of the base ring by a bimodule-ring V.

    Elements are pairs (r, v), index r * |V| + v, with

        (r, v) + (s, w) = (r + s, v + w)
        (r, v) * (s, w) = (r * s, r.w + v.s + v * w)

    and identity (1, 0).  The capacity is checked first, then all
    action laws exhaustively, then the tables are compiled; V is never
    assumed to have an identity of its own.  Tracemalloc peak: 12.5 bytes
    per n^2 for the tables, and about 11 bytes per cell of the largest
    action law, |base| |V| max(|base|, |V|) cells, for the validation.
    """
    v = action.v
    vn = v.size
    n = base.size * vn
    _check_capacity(n, f"dorroh({base.spell()}, {v_spell})")
    errs = validate_bimodule_action(base, action)
    if errs:
        raise ConstructionError(f"invalid bimodule action: {errs[0]}")
    arange = np.arange(n)
    rvec = (arange // vn).astype(np.int32)
    vvec = (arange % vn).astype(np.int32)

    add = _componentwise((base.add_table, v.add_table), (rvec, vvec), (vn, 1))
    mul = _componentwise((base.mul_table,), (rvec,), (vn,))
    # r.w, v.s and v*w are rows keyed by r or v, but their V-sum depends
    # on all of x, so it is summed elementwise, one row block at a time,
    # by flat gathers from V's addition table
    lw = _columns(action.left, vvec)
    vs = _columns(action.right, rvec)
    vw = _columns(v.mul_table, vvec)
    vadd = v.add_table.reshape(-1)
    width = np.int32(vn)
    for block in _row_blocks(n, n, _SWEEP_BLOCK_CELLS):
        xr, xv = rvec[block], vvec[block]
        part = mul[block]
        part += np.take(vadd, np.take(vadd, lw[xr] * width + vs[xv]) * width + vw[xv])

    names = _pair_names(base, v)
    prov = DorrohProvenance(base, action, v_spell)
    return FiniteRing(
        n,
        add,
        mul,
        zero=base.zero * vn + v.zero,
        one=base.one * vn + v.zero,
        provenance=prov,
        element_names=names,
    )


def dorroh_components(ring: FiniteRing, x: Element) -> tuple[int, int]:
    prov = _provenance(ring, DorrohProvenance, "dorroh()")
    ring._check_index(x)
    return divmod(x, prov.action.v.size)


# -- corners, ideals, quotients ---------------------------------------------------


def corner(base: FiniteRing, e: Element) -> FiniteRing:
    """The corner ring e*R*e with identity e, for a nonzero idempotent e.

    Tracemalloc peak: 12.5 bytes per m^2 for a corner of m elements.
    """
    base._check_index(e)
    if base.mul(e, e) != e:
        raise ConstructionError(f"element {e} is not idempotent")
    if e == base.zero:
        raise ConstructionError("corner at zero is the zero ring and has no identity")
    compress_left = base.mul_table[e]
    exe = base.mul_table[compress_left, e]
    members = np.unique(exe)
    lookup = np.full(base.size, -1, dtype=np.int32)
    lookup[members] = np.arange(len(members), dtype=np.int32)
    add = _sub_table(base.add_table, members, lookup)
    mul = _sub_table(base.mul_table, members, lookup)
    if (add < 0).any() or (mul < 0).any():
        raise ConstructionError("corner set is not closed; the base tables are defective")
    names = [base.element_name(int(m)) for m in members]
    prov = CornerProvenance(base, e, members)
    return FiniteRing(
        len(members),
        add,
        mul,
        zero=int(lookup[base.zero]),
        one=int(lookup[e]),
        provenance=prov,
        element_names=names,
    )


def ideal_generated(base: FiniteRing, generators) -> ElementSet:
    """The smallest two-sided ideal containing the given elements.

    Saturates under addition of members and multiplication by arbitrary
    ring elements on both sides; negation is covered by multiplication
    with -1.
    """
    mask = np.zeros(base.size, dtype=bool)
    mask[base.zero] = True
    for g in generators:
        base._check_index(int(g))
        mask[int(g)] = True
    while True:
        members = np.flatnonzero(mask)
        candidates = np.concatenate(
            [
                base.add_table[np.ix_(members, members)].ravel(),
                base.mul_table[:, members].ravel(),
                base.mul_table[members, :].ravel(),
            ]
        )
        new_mask = mask.copy()
        new_mask[candidates] = True
        if (new_mask == mask).all():
            return ElementSet(base, mask)
        mask = new_mask


def quotient(base: FiniteRing, ideal: ElementSet) -> FiniteRing:
    """The quotient ring by a verified two-sided ideal.

    Cosets are represented by their minimum element index.  Quotients
    that would collapse one onto zero (ideal containing one) are
    rejected, keeping every constructed ring unital and nonzero.
    Tracemalloc peak: 12.5 bytes per m^2 for a quotient of m elements,
    or 5.1 bytes per cell of the |base| x |ideal| coset table if larger.
    """
    if ideal.ring is not base:
        raise ConstructionError("ideal belongs to a different ring")
    members = np.array(ideal.indices(), dtype=np.int64)
    if base.zero not in ideal:
        raise ConstructionError("not an ideal: missing zero")
    closed_add = ideal.bool_array()[base.add_table[np.ix_(members, members)]].all()
    if not closed_add:
        raise ConstructionError("not an ideal: not closed under addition")
    mask = ideal.bool_array()
    if not mask[base.neg_table[members]].all():
        raise ConstructionError("not an ideal: not closed under negation")
    if not mask[base.mul_table[:, members]].all():
        raise ConstructionError("not an ideal: not closed under left multiplication")
    if not mask[base.mul_table[members, :]].all():
        raise ConstructionError("not an ideal: not closed under right multiplication")
    if base.one in ideal:
        raise ConstructionError("quotient by the whole ring is the zero ring; rejected")

    cosets = base.add_table[:, members]
    rep_of = cosets.min(axis=1).astype(np.int32)
    representatives = np.unique(rep_of)
    lookup = np.full(base.size, -1, dtype=np.int32)
    lookup[representatives] = np.arange(len(representatives), dtype=np.int32)
    coset_of = lookup[rep_of]
    add = _sub_table(base.add_table, representatives, coset_of)
    mul = _sub_table(base.mul_table, representatives, coset_of)
    names = [f"[{base.element_name(int(r))}]" for r in representatives]
    gens = tuple(int(g) for g in members if g != base.zero)
    rep_of.flags.writeable = False
    prov = QuotientProvenance(base, ideal, gens, representatives, rep_of)
    return FiniteRing(
        len(representatives),
        add,
        mul,
        zero=int(coset_of[base.zero]),
        one=int(coset_of[base.one]),
        provenance=prov,
        element_names=names,
    )


def quotient_by_generators(base: FiniteRing, generators) -> FiniteRing:
    ring = quotient(base, ideal_generated(base, generators))
    ring.provenance.generators = tuple(int(g) for g in generators)
    return ring


def quotient_project(ring: FiniteRing, parent_x: Element) -> int:
    """Image of a parent element under the quotient projection."""
    prov = _provenance(ring, QuotientProvenance, "quotient()")
    prov.parent._check_index(parent_x)
    rep = int(prov.rep_of[parent_x])
    return int(np.searchsorted(prov.representatives, rep))

