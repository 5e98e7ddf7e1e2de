"""Finite unital rings as dense lookup tables.

Elements of a ring are the integers ``0..size-1``; addition and
multiplication are total ``size x size`` index tables.  Every
higher-level computation in this package (subset sweeps, classification,
the verification suite) is a function of these tables alone, so the
axioms checked by :func:`validate_ring` are the single trust anchor.

One finiteness fact is used by the inverse scan and recorded here once:
in a finite unital ring a one-sided inverse is two-sided.  If
``x*y == 1``, the map ``z -> x*z`` is surjective (it reaches every
``w = x*(y*w)``), hence injective on a finite set; from
``x*(y*x) == (x*y)*x == x == x*1`` injectivity gives ``y*x == 1``.  The
inverse table therefore scans each row for a right inverse and verifies
the left product once per hit.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

DEFAULT_CAPACITY = 4096
# Zn's uint32 product is exact while (n-1)^2 < 2^32, that is up to here,
# where the two int32 tables of a ring already take 32 GiB
MAX_CAPACITY = 65536
CAPACITY_ENV_VAR = "DELTARING_CAPACITY"

# An element is an index into a ring's canonical element order; it is
# meaningful only together with its ring.
Element = int


class RingError(Exception):
    """Base class for every error raised by this package."""


class CapacityError(RingError):
    """Requested ring exceeds the element-count cap."""


class MalformedTableError(RingError):
    """Structurally broken table data (distinct from an axiom failure)."""


class ConstructionError(RingError):
    """Construction parameters violate their preconditions."""


def element_capacity() -> int:
    """Return the current element-count cap for constructed rings.

    Defaults to 4096.  The DELTARING_CAPACITY environment variable
    overrides it with a value from 2 to MAX_CAPACITY (65536); any other
    value raises CapacityError.
    """
    raw = os.environ.get(CAPACITY_ENV_VAR)
    if raw is None:
        return DEFAULT_CAPACITY
    try:
        value = int(raw)
    except ValueError:
        raise CapacityError(
            f"{CAPACITY_ENV_VAR} must be an integer, got {raw!r}"
        ) from None
    if not 2 <= value <= MAX_CAPACITY:
        raise CapacityError(
            f"{CAPACITY_ENV_VAR} must be between 2 and {MAX_CAPACITY}, got {value}"
        )
    return value


def _as_table(name: str, data, shape: tuple[int, int] | None, bound: int) -> np.ndarray:
    """``data`` as a read-only, C-contiguous int32 table of the given
    shape (any 2-D shape when None), with every entry in ``0..bound-1``.

    A C-contiguous int32 array is kept, not copied, and marked read-only:
    builders hand over fresh tables they never touch again, and another
    ring's tables are read-only already.  Other integer data is
    range-checked before the int32 cast, so no entry wraps into range;
    data that is not integer is malformed.
    """
    try:
        table = np.asarray(data)
    except (ValueError, TypeError) as exc:
        raise MalformedTableError(f"{name} table is not rectangular integer data: {exc}")
    if table.ndim != 2 or shape not in (None, table.shape):
        want = "2-D" if shape is None else f"{shape[0]}x{shape[1]}"
        raise MalformedTableError(f"{name} table must be {want}, got shape {table.shape}")
    if table.dtype.kind not in "iu":
        raise MalformedTableError(f"{name} table is not integer data (dtype {table.dtype})")
    # one pass: read unsigned, a negative entry is larger than any bound
    if table.size and int(table.view(f"u{table.dtype.itemsize}").max()) >= bound:
        bad = np.argwhere((table < 0) | (table >= bound))[0]
        raise MalformedTableError(
            f"{name} table entry at ({bad[0]}, {bad[1]}) is outside 0..{bound - 1}"
        )
    table = np.ascontiguousarray(table, dtype=np.int32)
    table.flags.writeable = False
    return table


class FiniteRing:
    """A finite unital ring with compiled operation tables.

    Tables are compiled eagerly at construction and never mutated; all
    caches attached afterwards are pure functions of the tables, so a
    populated cache always equals its from-scratch recomputation.
    Constructions are rejected above :func:`element_capacity` elements
    and zero rings (``one == zero``) are rejected outright.
    """

    __slots__ = (
        "size",
        "zero",
        "one",
        "add_table",
        "mul_table",
        "neg_table",
        "provenance",
        "element_names",
        "_cache",
    )

    def __init__(
        self,
        size: int,
        add,
        mul,
        zero: int,
        one: int,
        provenance=None,
        element_names: list[str] | None = None,
    ):
        if not isinstance(size, int) or size < 1:
            raise MalformedTableError(f"ring size must be a positive integer, got {size!r}")
        cap = element_capacity()
        if size > cap:
            raise CapacityError(
                f"ring of size {size} exceeds the capacity cap {cap} "
                f"(override via {CAPACITY_ENV_VAR}, at most {MAX_CAPACITY})"
            )
        self.add_table = _as_table("add", add, (size, size), size)
        self.mul_table = _as_table("mul", mul, (size, size), size)
        for label, idx in (("zero", zero), ("one", one)):
            if not isinstance(idx, int) or not (0 <= idx < size):
                raise MalformedTableError(f"{label} index {idx!r} is outside 0..{size - 1}")
        if zero == one:
            raise ConstructionError("zero ring rejected: the zero and one indices coincide")
        self.size = size
        self.zero = zero
        self.one = one
        # Lenient negation scan: first position of `zero` in each row, or 0
        # when a row has none.  A missing additive inverse is an axiom
        # failure and is reported by validate_ring, not here.  Row blocks
        # keep the boolean scan from adding 1 byte per n^2 to every build.
        neg = np.concatenate(
            [
                np.argmax(self.add_table[rows] == zero, axis=1)
                for rows in _row_blocks(size, size, _SWEEP_BLOCK_CELLS)
            ]
        ).astype(np.int32)
        neg.flags.writeable = False
        self.neg_table = neg
        self.provenance = provenance
        if element_names is not None and len(element_names) != size:
            raise MalformedTableError("element_names length does not match ring size")
        self.element_names = element_names
        self._cache: dict = {}

    # -- scalar operations ------------------------------------------------

    def _check_index(self, x: int) -> int:
        if not (0 <= x < self.size):
            raise IndexError(f"element index {x} out of range for ring of size {self.size}")
        return x

    def add(self, x: Element, y: Element) -> Element:
        return int(self.add_table[self._check_index(x), self._check_index(y)])

    def mul(self, x: Element, y: Element) -> Element:
        return int(self.mul_table[self._check_index(x), self._check_index(y)])

    def neg(self, x: Element) -> Element:
        return int(self.neg_table[self._check_index(x)])

    def sub(self, x: Element, y: Element) -> Element:
        return self.add(x, self.neg(y))

    def pow(self, x: Element, k: int) -> Element:
        """k-th power of x; pow(x, 0) is the ring's one."""
        if k < 0:
            raise ValueError("negative exponents are not defined; use inverse() first")
        self._check_index(x)
        result = self.one
        base = x
        while k:
            if k & 1:
                result = int(self.mul_table[result, base])
            base = int(self.mul_table[base, base])
            k >>= 1
        return result

    def inverse(self, x: Element) -> Element | None:
        """Two-sided inverse of x, or None.

        The table is built in a single pass over rows: a right inverse is
        located per row and its left product checked once (one-sided
        inverses are two-sided in finite rings; see the module notes).
        """
        inv = self.inverse_table()
        value = int(inv[self._check_index(x)])
        return None if value < 0 else value

    def inverse_table(self) -> np.ndarray:
        table = self._cache.get("inverse_table")
        if table is None:
            # the first right inverse in each row, scanned in row blocks as
            # the negation scan is, kept where it is also a left inverse
            right = np.concatenate(
                [
                    np.argmax(self.mul_table[rows] == self.one, axis=1)
                    for rows in _row_blocks(self.size, self.size, _SWEEP_BLOCK_CELLS)
                ]
            )
            arange = np.arange(self.size)
            has_right = self.mul_table[arange, right] == self.one
            two_sided = self.mul_table[right, arange] == self.one
            table = np.where(has_right & two_sided, right, -1).astype(np.int32)
            table.flags.writeable = False
            self._cache["inverse_table"] = table
        return table

    def is_unit(self, x: Element) -> bool:
        return int(self.inverse_table()[self._check_index(x)]) >= 0

    # -- presentation -------------------------------------------------------

    def elements(self) -> range:
        return range(self.size)

    def element_name(self, x: Element) -> str:
        self._check_index(x)
        if self.element_names is None:
            return str(x)
        return self.element_names[x]

    def spell(self) -> str:
        if self.provenance is not None:
            return self.provenance.spell()
        return f"ring<{self.size}>"

    def __repr__(self) -> str:
        return f"FiniteRing({self.spell()}, size={self.size})"


class ElementSet:
    """An immutable subset of one ring's elements: the ring and a
    read-only boolean mask, entry i recording element i.

    The mask is the set's own frozen copy, so a later write to the
    array it was built from changes nothing, and :meth:`bool_array`
    hands it out as it is.  Set algebra is only defined between subsets
    of the same ring object; mixing rings raises ValueError.
    """

    __slots__ = ("ring", "_mask")

    def __init__(self, ring: FiniteRing, mask):
        mask = np.array(mask, dtype=bool)
        if mask.shape != (ring.size,):
            raise ValueError("boolean mask length does not match ring size")
        mask.flags.writeable = False
        self.ring = ring
        self._mask = mask

    # -- constructors -------------------------------------------------------

    @classmethod
    def empty(cls, ring: FiniteRing) -> "ElementSet":
        return cls(ring, np.zeros(ring.size, dtype=bool))

    @classmethod
    def full(cls, ring: FiniteRing) -> "ElementSet":
        return cls(ring, np.ones(ring.size, dtype=bool))

    @classmethod
    def singleton(cls, ring: FiniteRing, x: Element) -> "ElementSet":
        return cls.from_indices(ring, [x])

    @classmethod
    def from_indices(cls, ring: FiniteRing, indices) -> "ElementSet":
        mask = np.zeros(ring.size, dtype=bool)
        for x in indices:
            mask[ring._check_index(int(x))] = True
        return cls(ring, mask)

    @classmethod
    def from_bool_array(cls, ring: FiniteRing, mask: np.ndarray) -> "ElementSet":
        return cls(ring, mask)

    # -- views ---------------------------------------------------------------

    def bool_array(self) -> np.ndarray:
        return self._mask

    def indices(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self._mask).tolist())

    # -- set algebra ----------------------------------------------------------

    def _require_same_ring(self, other: "ElementSet") -> None:
        if not isinstance(other, ElementSet):
            raise TypeError("expected an ElementSet")
        if other.ring is not self.ring:
            raise ValueError("element sets belong to different rings")

    def __and__(self, other: "ElementSet") -> "ElementSet":
        self._require_same_ring(other)
        return ElementSet(self.ring, self._mask & other._mask)

    def __or__(self, other: "ElementSet") -> "ElementSet":
        self._require_same_ring(other)
        return ElementSet(self.ring, self._mask | other._mask)

    def __xor__(self, other: "ElementSet") -> "ElementSet":
        self._require_same_ring(other)
        return ElementSet(self.ring, self._mask ^ other._mask)

    def __sub__(self, other: "ElementSet") -> "ElementSet":
        self._require_same_ring(other)
        return ElementSet(self.ring, self._mask & ~other._mask)

    def complement(self) -> "ElementSet":
        return ElementSet(self.ring, ~self._mask)

    def issubset(self, other: "ElementSet") -> bool:
        return not (self - other)

    def __le__(self, other: "ElementSet") -> bool:
        return self.issubset(other)

    # -- protocol -------------------------------------------------------------

    def __contains__(self, x: int) -> bool:
        return 0 <= x < self.ring.size and bool(self._mask[x])

    def __iter__(self):
        return iter(self.indices())

    def __len__(self) -> int:
        return int(np.count_nonzero(self._mask))

    def __bool__(self) -> bool:
        return bool(self._mask.any())

    def __eq__(self, other) -> bool:
        if not isinstance(other, ElementSet):
            return NotImplemented
        return other.ring is self.ring and bool((other._mask == self._mask).all())

    def __hash__(self) -> int:
        return hash((id(self.ring), self._mask.tobytes()))

    def __repr__(self) -> str:
        shown = self.indices()
        body = ", ".join(str(i) for i in shown[:12])
        if len(shown) > 12:
            body += ", ..."
        return f"ElementSet{{{body}}}@{self.ring.spell()}"


@dataclass(frozen=True)
class AxiomViolation:
    axiom: str
    witness: tuple[int, ...]

    def describe(self, ring: FiniteRing) -> str:
        names = ", ".join(ring.element_name(i) for i in self.witness)
        return f"{self.axiom} at ({names})"


@dataclass
class ValidationReport:
    """Outcome of a ring-axiom scan.

    Pair-quantified axioms are checked on every pair, triple-quantified
    ones by the prover or, on a failing table of at most 256 elements,
    by the n^3 scan of those the prover did not prove.  One witness is
    reported per violated axiom, but above 256 elements a failing table
    gets only the witness of the prover's gate that fails, and
    ``not_checked`` (written only when non-empty) lists the triple
    axioms left undecided.  ``mode`` is "exhaustive" up to 256 elements
    and "sampled" above, where the dict also carries ``sampled_triples``
    (n^2) and ``sample_seed``, although nothing is sampled: the
    benchmark's reference outputs (``ringbench/refs``) pin them.
    """

    ring: str
    size: int
    violations: list[AxiomViolation] = field(default_factory=list)
    not_checked: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def mode(self) -> str:
        return "exhaustive" if self.size <= FULL_SCAN_LIMIT else "sampled"

    def to_dict(self) -> dict:
        out = {
            "ring": self.ring,
            "size": self.size,
            "mode": self.mode,
            "ok": self.ok,
            "violations": [
                {"axiom": v.axiom, "witness": list(v.witness)} for v in self.violations
            ],
        }
        if self.not_checked:
            out["not_checked"] = list(self.not_checked)
        if self.mode == "sampled":
            out["sampled_triples"] = self.size * self.size
            out["sample_seed"] = VALIDATION_SEED
        return out


FULL_SCAN_LIMIT = 256
VALIDATION_SEED = 0x5EED

# Keep chunked triple tensors around 16 MB of int32.
_CHUNK_CELLS = 4_000_000
# A row-block pass of the triple-axiom prover keeps up to eight
# block-sized arrays alive at once (intp ones counting twice), so its
# blocks are an eighth of a scan chunk: about 16 MB in all.
_CERT_BLOCK_CELLS = _CHUNK_CELLS // 8


# Row blocks for one-pass sweeps over a table (the negation scan, and the
# constructions' row gathers), and the commutativity check's tiles:
# 256 KB of int32 stays in cache, and is small next to an n^2 table at
# every size.
_SWEEP_BLOCK_CELLS = 1 << 16


def _row_blocks(count: int, width: int, cells: int = _CERT_BLOCK_CELLS) -> list[slice]:
    """Slices of ``range(count)`` whose rows of ``width`` cells hold about
    ``cells`` cells."""
    step = max(1, cells // width)
    return [slice(lo, lo + step) for lo in range(0, count, step)]


def _upper_tiles(n: int, cells: int) -> list[tuple[slice, slice]]:
    """Square tiles (rows, cols) of about ``cells`` cells that cover the
    diagonal of an n x n table and the part above it, row band by row
    band: comparing a tile with its mirror below the diagonal reads both
    from cache, where a band of rows against its columns does not."""
    side = math.isqrt(cells)
    return [
        (slice(lo, lo + side), slice(hi, hi + side))
        for lo in range(0, n, side)
        for hi in range(lo, n, side)
    ]


def _first_mismatch(left, right, offset: tuple[int, ...] = ()) -> tuple[int, ...] | None:
    """The first index, in row-major order, at which two arrays of one
    shape differ, with ``offset`` added to its leading coordinates; None
    when they are equal."""
    mismatch = left != right
    if not mismatch.any():
        return None
    at = np.unravel_index(int(np.argmax(mismatch)), mismatch.shape)
    return tuple(int(c) + s for c, s in zip(at, offset + (0,) * mismatch.ndim))


_TRIPLE_AXIOMS = (
    "add-associativity",
    "mul-associativity",
    "left-distributivity",
    "right-distributivity",
)


def _additive_tree(add: np.ndarray, zero: int):
    """The enumeration of :func:`_prove_triple_axioms`: the picks, and
    (orders, relations, parent, pick), or None in their place when the
    walk breaks down (two layers meet, or an orbit closes outside
    H_{j-1}), the picks then ending with the one whose stage broke down.

    ``picks[j]`` is g_j, ``orders[j]`` m_j and ``relations[j]`` r_j.
    ``parent`` and ``pick`` hold p(y) and j(y) for every element y, so
    that y = g_j(y) + p(y); zero is its own parent, with pick k.  The
    walk is O(n) list steps plus one row per pick, and it ends after at
    most n layers even on a table that is not a group.
    """
    n = add.shape[0]
    index = [-1] * n  # position in the enumeration, -1 while unreached
    index[zero] = 0
    order = [zero]
    parent = [zero] * n
    pick = [-1] * n
    picks, orders, relations = [], [], []
    while len(order) < n:
        g = index.index(-1)
        picks.append(g)
        row = add[g].tolist()
        base = len(order)  # H_{j-1} is order[:base], zero first
        layer, m = order, 1
        # the first entry of each layer is m g_j, the orbit of zero
        while index[row[layer[0]]] < 0:
            for p in layer[:base]:
                y = row[p]
                if index[y] >= 0:
                    return np.array(picks, dtype=np.intp), None
                index[y] = len(order)
                order.append(y)
                parent[y] = p
                pick[y] = len(picks) - 1
            layer, m = order[-base:], m + 1
        relation = row[layer[0]]
        if index[relation] >= base:  # the orbit closed outside H_{j-1}
            return np.array(picks, dtype=np.intp), None
        orders.append(m)
        relations.append(relation)
    pick[zero] = len(picks)
    return np.array(picks, dtype=np.intp), (
        orders,
        relations,
        np.array(parent, dtype=np.intp),
        np.array(pick, dtype=np.intp),
    )


def _multiple(add: np.ndarray, w: np.ndarray, m: int) -> np.ndarray:
    """m w for an element or a vector of elements w and m >= 1, by doubling."""
    out = None
    while m:
        if m & 1:
            out = w if out is None else add[out, w]
        w = add[w, w]
        m >>= 1
    return out


def _prove_triple_axioms(
    add: np.ndarray, mul: np.ndarray, zero: int
) -> tuple[AxiomViolation, tuple[str, ...]] | None:
    """Decide the four triple-quantified axioms with two n^2 passes,
    whatever the number k of additive generators: None for a proof,
    else a violated triple and the triple axioms left undecided.

    None proves both associativities and both distributive laws on
    every triple of a table that satisfies the additive pair axioms
    (commutative +, two-sided zero, additive inverses); every ring gets
    None.  No step uses a multiplicative identity, so a ring without
    one, such as the V of a Dorroh extension, is judged the same way.

    Enumeration (:func:`_additive_tree`).  H_0 = {0}.  Stage j picks
    g_j, the lowest element outside H_{j-1}.  Layer 0 is H_{j-1}, and
    layer c is g_j + (layer c-1), elementwise, until the image of 0
    (the orbit point c g_j) lands in H_{j-1}: at c = m_j, as r_j.  An
    element y of layer c >= 1 records its parent p(y), the element of
    layer c-1 it came from, and its pick j(y), so y = g_j(y) + p(y).
    H_j is layers 0..m_j-1, and the stages end when H_k holds all n
    elements.  Each stage at least doubles H, so k <= log2 n.

    The gates, each over all x, y, z and every pick:

    1. the layers are disjoint, so c(0) = 0 and c(y) = c(p(y)) + e_j(y)
       is a bijection from the elements onto B = prod_j [0, m_j);
    2. the translations T_j: z -> g_j + z commute pairwise;
    3. the additive tree: y + z = p(y) + (g_j(y) + z) for y != 0;
    4. the left-distributive tree: xy = x p(y) + x g_j(y) for y != 0,
       and x0 = x0 + x0;
    5. the multiplicative relations: m_j (x g_j) = x r_j, by doubling;
    6. right distributivity on G: (y + g_j) g_i = y g_i + g_j g_i;
    7. multiplicative associativity on G^3.

    Soundness, given the additive pair axioms and gates 1-7.  Write
    T_y: z -> y + z, and T^v for the composite of T_j^{v_j} over j,
    v in N^k, whose order does not matter by gate 2.

    (a) T_0 is the identity, and gate 3 says T_y = T_{p(y)} T_j(y), so
        by induction along parents T_y = T^{c(y)}.
    (b) T_{r_j} = T_j^{m_j}, as r_j = T_j^{m_j}(0): by commutativity,
        (a) and gate 2, r_j + z = T^{c(z)}(T_j^{m_j}(0)) =
        T_j^{m_j}(T_z(0)) = T_j^{m_j}(z).  So the additive relations
        need no gate of their own.
    (c) If v_j >= m_j, (a) and (b) give T^v = T^{v'} for
        v' = v - m_j e_j + c(r_j); c(r_j) vanishes from coordinate j
        on, since r_j is in H_{j-1}.  Taking the highest such j each
        time lowers v read from the top, so the rewriting ends in B,
        at some c(w) by gate 1: T^v = T_w.
    (d) So T_x T_y = T^{c(x) + c(y)} = T_w for some w, and at 0 this
        reads x + y = w.  Thus x + (y + z) = (x + y) + z, and with the
        pair axioms (R, +) is an abelian group.
    (e) psi: Z^k -> R, v -> sum_j v_j g_j, maps c(y) to T^{c(y)}(0) =
        y, so it is onto and its kernel K has index n.  K holds the
        relations rho_j = m_j e_j - c(r_j), a triangular set with
        diagonal m_j, so they span a lattice of index
        prod_j m_j = |B| = n (gate 1): all of K.
    (f) Fix x and let phi: Z^k -> R, v -> sum_j v_j (x g_j).  Gate 4 at
        y = g_j, whose parent is 0, gives x0 = 0, and then, by
        induction along parents, xy = phi(c(y)); in particular
        phi(c(r_j)) = x r_j.  By gate 5, phi(rho_j) = 0, so phi
        vanishes on K and factors as lambda psi with lambda additive:
        xy = lambda(psi(c(y))) = lambda(y).  Every y -> xy is additive.
    (g) For fixed i, the h with (y + h) g_i = y g_i + h g_i for all y
        are closed under +, and they include G by gate 6.  A nonempty
        subset of a finite group closed under + is a subgroup, and G
        generates R, so y -> y g_i is additive.  By (f),
        y(x + x') = yx + yx', and a sum of additive maps is additive,
        so by the same argument every y -> yx is additive.
    (h) By (f) and (g), (xy)z and x(yz) are additive in each argument,
        and every element is a sum of picks (0 the empty one), so
        gate 7 makes them equal everywhere.

    Completeness.  In a ring (R, +) is an abelian group: H_{j-1} is
    the subgroup the earlier picks generate, layer c is the coset
    c g_j + H_{j-1}, and these are distinct for c below m_j, the order
    of g_j modulo H_{j-1}; so gate 1 holds, and gates 2-7 are
    identities of every ring (x0 = 0 among them).

    Witnesses.  The first gate that fails names one triple that
    violates one axiom, which table lookups alone replay; the triple
    axioms that the gates after it would have proved stay undecided.
    Commutative + gives y = p(y) + g_j(y).

    1. Add-associativity at the least (x, g, y) of Light's test,
       (x + g) + y != x + (g + y), over the picks so far, the current
       one included; the other three axioms stay undecided.
    2. Add-associativity at (g_i, g_j, z) or (g_j, g_i, z): their
       left sides (g_i + g_j) + z and (g_j + g_i) + z are equal, and
       their right sides g_i + (g_j + z) != g_j + (g_i + z) are not,
       so one of them is violated.  Undecided as in gate 1.
    3. Add-associativity at (p(y), g_j, z), whose left side is y + z.
       Undecided as in gate 1.
    4. Left-distributivity at (x, p(y), g_j(y)), or at (x, 0, 0) when
       x0 != x0 + x0; mul-associativity and right-distributivity stay
       undecided.
    5. Left-distributivity at (x, (m_j - 1) g_j, g_j): gate 4 proved
       x (c g_j) = c (x g_j) for c < m_j, so the right side is
       m_j (x g_j), and the left side x r_j differs from it.
       Undecided as in gate 4.
    6. Right-distributivity at (y, g_j, g_i); mul-associativity stays
       undecided.
    7. Mul-associativity at (g_a, g_b, g_c); none stays undecided.

    Within a gate the witness is the first failing cell in the order
    the gate reads them, pick by pick and then row-major, and the row
    blocks do not change it; gate 1 takes the least (x, g, y).

    Gate 1 always finds its witness.  If every pick so far passed
    Light's test, then so would every s in the monoid M they generate,
    since the s that pass are closed under + (Light's lemma) and
    include 0.  So + is associative on M, and for s in M and the t with
    s + t = 0, (x + s) + t = x + (s + t) = x: x -> x + s is injective,
    and M, a finite cancellative commutative monoid, is a group.  In it
    H_{j-1} is the subgroup of the earlier picks, and layer c the coset
    c g_j + H_{j-1}.  A layer is built only while its head c g_j lies
    outside the layers before it, so it meets none of them; and the
    head m_j g_j that stops the stage cannot lie in a layer c >= 1, or
    the head (m_j - c) g_j of an earlier layer would lie in H_{j-1}.
    So gate 1 could not have failed.

    Cost: the walk, k^2 n for gate 2, n sum_j log m_j for gate 5,
    n k^2 for gate 6 and k^3 for gate 7.  Gates 3 and 4 are one n^2
    pass each, in row blocks of about ``_CERT_BLOCK_CELLS`` cells:
    gate 3 gathers, for the y of one pick, the rows of p(y) through
    the columns g_j + z, and gate 4 reads each x's row of ``mul`` and
    gathers from one row of ``add`` per pick.  Only a failing gate 1
    pays more: Light's test is k n^2, in the same row blocks.
    """
    undecided = {
        "add-associativity": _TRIPLE_AXIOMS[1:],
        "left-distributivity": ("mul-associativity", "right-distributivity"),
        "right-distributivity": ("mul-associativity",),
        "mul-associativity": (),
    }

    def failure(axiom, *witness):
        return AxiomViolation(axiom, tuple(int(c) for c in witness)), undecided[axiom]

    picks, tree = _additive_tree(add, zero)
    n = add.shape[0]
    translate = add[picks]  # translate[j, z] = g_j + z
    if tree is None:
        found = []
        for rows in _row_blocks(n, n):
            for g, t in zip(picks, translate):
                # (x + g) + y against x + (g + y), for the block's x
                at = _first_mismatch(add[t[rows]], np.take(add[rows], t, axis=1), (rows.start,))
                if at:
                    found.append((at[0], g, at[1]))
        return failure("add-associativity", *min(found))
    orders, relations, parent, pick = tree
    after = translate[:, translate]  # after[i, j, z] = g_i + (g_j + z)
    at = _first_mismatch(after, after.transpose(1, 0, 2))
    if at:
        i, j, z = at
        gi, gj = picks[i], picks[j]
        if add[add[gi, gj], z] != after[i, j, z]:
            return failure("add-associativity", gi, gj, z)
        return failure("add-associativity", gj, gi, z)
    for j, t in enumerate(translate):
        ys = np.flatnonzero(pick == j)
        for rows in _row_blocks(ys.size, n):
            at = _first_mismatch(
                np.take(add[parent[ys[rows]]], t, axis=1), add[ys[rows]], (rows.start,)
            )
            if at:
                return failure("add-associativity", parent[ys[at[0]]], picks[j], at[1])
    flat = add.reshape(-1)
    heads = np.append(picks, zero)  # x g_j by pick, and x0 for y = 0
    for rows in _row_blocks(n, n):
        block = mul[rows]
        # the flat index in add of x g_j(y) + x p(y)
        cells = np.take(block[:, heads].astype(np.intp) * n, pick, axis=1)
        cells += np.take(block, parent, axis=1)
        at = _first_mismatch(np.take(flat, cells), block, (rows.start,))
        if at:
            x, y = at
            return failure("left-distributivity", x, parent[y], heads[pick[y]])
    for g, m, r in zip(picks, orders, relations):
        at = _first_mismatch(_multiple(add, mul[:, g], m), mul[:, r])
        if at:
            return failure("left-distributivity", at[0], _multiple(add, g, m - 1), g)
    cols = mul[:, picks]  # cols[y, i] = y g_i
    at = _first_mismatch(cols[translate], add[cols, cols[picks][:, None]])
    if at:
        j, y, i = at
        return failure("right-distributivity", y, picks[j], picks[i])
    gg = cols[picks]
    at = _first_mismatch(mul[gg[:, :, None], picks], mul[picks[:, None, None], gg])
    if at:
        return failure("mul-associativity", *picks[list(at)])
    return None


def _scan_triple_axioms(
    add: np.ndarray, mul: np.ndarray, axioms: tuple[str, ...] = _TRIPLE_AXIOMS
) -> list[AxiomViolation]:
    """All n^3 triples in x-chunks of about 16 MB: the first witness per
    axiom of ``axioms``.

    A witness is the lexicographically first violating (x, y, z) of its
    axiom.  An axiom stops being scanned once violated, and the scan
    stops once all of ``axioms`` are.
    """
    n = add.shape[0]
    violations: list[AxiomViolation] = []
    pending = set(axioms)
    chunk = max(1, _CHUNK_CELLS // (n * n))

    def distributes(rows):
        # rows[a, b] = a*b, or b*a for right distributivity:
        # rows[a, b + c] against rows[a, b] + rows[a, c]
        return rows[:, add], add[rows[:, :, None], rows[:, None, :]]

    for x0 in range(0, n, chunk):
        if not pending:
            break
        xs = np.arange(x0, min(n, x0 + chunk))
        a_rows = add[xs]
        m_rows = mul[xs]
        # (axiom, sides, order): witness coordinate p is coordinate
        # order[p] of the first mismatch of the two sides
        laws = (
            ("add-associativity", lambda: (add[a_rows], a_rows[:, add]), (0, 1, 2)),
            ("mul-associativity", lambda: (mul[m_rows], m_rows[:, mul]), (0, 1, 2)),
            ("left-distributivity", lambda: distributes(m_rows), (0, 1, 2)),
            # indexed [z, x, y] for (x+y)z != xz+yz, so that z is scanned
            # first; reported as (x, y, z) like the other laws
            ("right-distributivity", lambda: distributes(mul[:, xs].T), (1, 2, 0)),
        )
        for axiom, sides, order in laws:
            if axiom not in pending:
                continue
            at = _first_mismatch(*sides(), (x0,))
            if at:
                violations.append(AxiomViolation(axiom, tuple(at[i] for i in order)))
                pending.discard(axiom)
    return violations


def _identity_witness(table: np.ndarray, unit: int) -> tuple[int] | None:
    """(x,) for the first x with table[unit, x] != x, else for the first
    with table[x, unit] != x; None when ``unit`` is a two-sided identity."""
    arange = np.arange(table.shape[0])
    bad = table[unit] != arange
    if not bad.any():
        bad = table[:, unit] != arange
    return (int(np.argmax(bad)),) if bad.any() else None


def _axiom_violations(
    add: np.ndarray, mul: np.ndarray, zero: int, one: int | None = None
) -> tuple[list[AxiomViolation], tuple[str, ...]]:
    """The ring axioms on an add and a mul table: the violations found,
    and the triple axioms left unchecked.

    The pair-quantified axioms (additive commutativity, two-sided zero,
    additive inverses, and a two-sided one unless ``one`` is None) are
    checked on all n^2 pairs: commutativity on square tiles of about
    ``_SWEEP_BLOCK_CELLS`` cells on and above the diagonal
    (:func:`_upper_tiles`), where the first asymmetric pair in
    row-major order always lies, and inverses in row blocks of about
    ``_CERT_BLOCK_CELLS`` cells.  Once the three additive ones
    pass, :func:`_prove_triple_axioms` decides the triple-quantified
    ones (both associativities, both distributive laws) without using
    an identity, so ``one=None`` judges a ring that need not have one.
    A table that fails an additive pair axiom or the prover gets, on
    at most 256 elements, the n^3 scan (:func:`_scan_triple_axioms`) of
    the triple axioms still open, all four or the prover's failing one
    and those it left undecided: the lexicographically first triple of
    each violated triple axiom.
    Above that it gets the prover's witness and the triple axioms the
    prover leaves undecided, or all four when an additive pair axiom
    fails, since the prover needs those.
    """
    n = add.shape[0]
    violations: list[AxiomViolation] = []
    asymmetric = [
        at
        for rows, cols in _upper_tiles(n, _SWEEP_BLOCK_CELLS)
        if (at := _first_mismatch(add[rows, cols], add[cols, rows].T, (rows.start, cols.start)))
    ]
    if asymmetric:
        violations.append(AxiomViolation("add-commutativity", min(asymmetric)))
    witness = _identity_witness(add, zero)
    if witness is not None:
        violations.append(AxiomViolation("zero-identity", witness))
    no_inverse = np.concatenate([~(add[rows] == zero).any(axis=1) for rows in _row_blocks(n, n)])
    if no_inverse.any():
        violations.append(AxiomViolation("add-inverse", (int(np.argmax(no_inverse)),)))
    additive = not violations
    witness = None if one is None else _identity_witness(mul, one)
    if witness is not None:
        violations.append(AxiomViolation("one-identity", witness))
    if not additive:
        if n <= FULL_SCAN_LIMIT:
            return violations + _scan_triple_axioms(add, mul), ()
        return violations, _TRIPLE_AXIOMS
    failure = _prove_triple_axioms(add, mul, zero)
    if failure is None:
        return violations, ()
    violation, not_checked = failure
    if n <= FULL_SCAN_LIMIT:
        # the prover proved the other triple axioms, which have no violation
        return violations + _scan_triple_axioms(add, mul, (violation.axiom, *not_checked)), ()
    return violations + [violation], not_checked


def validate_ring(ring: FiniteRing) -> ValidationReport:
    """Check the unital-ring axioms against the compiled tables.

    :func:`_axiom_violations` judges them, exactly at every size.  A
    passing ring costs n^2 pair checks plus the two n^2 passes of
    :func:`_prove_triple_axioms`, whatever the number of additive
    generators, all in blocks of at most ``_CERT_BLOCK_CELLS`` cells.
    A failing table of at most 256 elements pays n^3 for the first
    witness of each violated triple axiom; above that, the report
    carries the witness of the prover's failing gate and the triple
    axioms that gate leaves ``not_checked``.

    Tracemalloc peak: 9 bytes per n^2 at about 1024 elements, where one
    block is half the table; at every size the blocks hold it near 9 MB.
    Structural totality (square tables, in-range entries) is enforced
    at construction time and raises MalformedTableError there, so this
    scan only ever judges axioms.
    """
    violations, not_checked = _axiom_violations(ring.add_table, ring.mul_table, ring.zero, ring.one)
    return ValidationReport(ring.spell(), ring.size, violations, not_checked)
