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
# and every element index fits TABLE_DTYPE; the two tables of a ring of
# this size already take 16 GiB
MAX_CAPACITY = 65536
# The dtype of every add and mul table: an entry is an element index
# below MAX_CAPACITY, 2 bytes per cell at every allowed size
TABLE_DTYPE = np.uint16
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


def _is_int(value) -> bool:
    """Whether ``value`` is a Python int and not a bool, which JSON's
    true and false load as and which ``isinstance(value, int)`` admits."""
    return isinstance(value, int) and not isinstance(value, bool)


def _as_table(name: str, data, shape: tuple[int, int] | None, bound: int) -> np.ndarray:
    """``data`` as a read-only, C-contiguous ``TABLE_DTYPE`` (uint16)
    table of the given shape (any 2-D shape when None), with every entry
    in ``0..bound-1``.

    A C-contiguous uint16 array is kept, not copied, and marked
    read-only: builders hand over fresh tables they never touch again,
    and another ring's tables are read-only already.  Other integer data
    is range-checked before the uint16 cast, so no entry wraps into
    range (2^16 + 2 would read as 2); data that is not integer is
    malformed.
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
    table = np.ascontiguousarray(table, dtype=TABLE_DTYPE)
    table.flags.writeable = False
    return table


class FiniteRing:
    """A finite unital ring with operation tables.

    A ring is given either its add and mul tables, which are checked at
    construction, or its builder's ``arithmetic`` and ``pointwise``
    forms.  ``arithmetic(op, rows, cols)`` returns the uint16 block
    ``table[np.ix_(rows, cols)]`` of the "add" or "mul" table, rows or
    cols None meaning every index, so that ``arithmetic(op, None, None)``
    is the whole table.  ``pointwise(op, x, y)`` returns ``table[x, y]``
    elementwise over index arrays that broadcast together, in the shape
    and dtype of the filled gather.  A table slot reads None until
    :meth:`fill`, the one code that fills it: add and mul from the
    arithmetic, through the same range check, and ``neg_table`` by
    :meth:`neg_rows`.  So only a table leaf or a direct
    ``FiniteRing(...)`` call holds tables from construction; every
    construction, corners and quotients included, holds none until
    :meth:`fill`.  Other modules, and the builders, read a ring only by
    :meth:`block`, :func:`row_block_reads`, :meth:`neg_rows` and
    :meth:`apply`, which never fill a table, so no construction fills
    its base or parent, and a one-element answer reads O(n) cells, not
    n^2.  Only a pass that reads the whole ring calls :meth:`fill`: the
    analysis sweeps on a miss, ``classify.classification_report``, and
    :func:`validate_ring`.  Tables are
    never mutated; all caches attached afterwards are pure functions of
    the tables, so a populated cache always equals its from-scratch
    recomputation.  Both tables are ``TABLE_DTYPE`` (uint16), 4 bytes
    per n^2 together.  Constructions are rejected above
    :func:`element_capacity` elements and zero rings (``one == zero``)
    are rejected outright.

    ``certified`` says the tables are known to satisfy the ring axioms,
    so that analysis and classify may answer from theorems about finite
    rings instead of sweeping.  It is False on every ring built here;
    ``constructions`` sets it on Zn, on a table that passes
    :func:`validate_ring`, and on a construction whose inputs all carry
    it, each by a theorem its builder names.
    """

    __slots__ = (
        "size",
        "zero",
        "one",
        "add_table",
        "mul_table",
        "neg_table",
        "provenance",
        "certified",
        "_names",
        "_name_recipe",
        "_minus_one",
        "_arithmetic",
        "_pointwise",
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
        element_names=None,
        arithmetic=None,
        pointwise=None,
    ):
        if not _is_int(size) or size < 1:
            raise MalformedTableError(f"ring size must be a positive integer, got {size!r}")
        cap = element_capacity()
        if size > cap:
            raise CapacityError(
                f"ring of size {size} exceeds the capacity cap {cap} "
                f"(override via {CAPACITY_ENV_VAR}, at most {MAX_CAPACITY})"
            )
        self._arithmetic = arithmetic
        self._pointwise = pointwise
        self.certified = False
        self._minus_one = None
        if arithmetic is None:
            self.add_table = _as_table("add", add, (size, size), size)
            self.mul_table = _as_table("mul", mul, (size, size), size)
        else:
            self.add_table = self.mul_table = None
        self.neg_table = None
        for label, idx in (("zero", zero), ("one", one)):
            if not _is_int(idx) or not (0 <= idx < size):
                raise MalformedTableError(f"{label} index {idx!r} is outside 0..{size - 1}")
        if zero == one:
            raise ConstructionError("zero ring rejected: the zero and one indices coincide")
        self.size = size
        self.zero = zero
        self.one = one
        self.provenance = provenance
        self._names = self._name_recipe = None
        if callable(element_names):
            self._name_recipe = element_names
        elif element_names is not None and len(element_names) != size:
            raise MalformedTableError("element_names length does not match ring size")
        else:
            self._names = element_names
        self._cache: dict = {}

    # -- tables and blocks --------------------------------------------------

    def fill(self) -> "FiniteRing":
        """Fill every table not yet filled, and return the ring."""
        n = self.size
        if self.add_table is None:
            self.add_table = _as_table("add", self._arithmetic("add", None, None), (n, n), n)
        if self.mul_table is None:
            self.mul_table = _as_table("mul", self._arithmetic("mul", None, None), (n, n), n)
        if self.neg_table is None:
            self.neg_table = self.neg_rows()
        return self

    def block(self, op: str, rows=None, cols=None) -> np.ndarray:
        """``table[np.ix_(rows, cols)]`` of the "add" or "mul" table, as
        uint16; rows or cols is an index array, a slice, or None for
        every index.  Without an index array it is a view of a filled table.

        Cost on a filled table: one gather of |rows| |cols| cells, whole
        rows or columns by one ``np.take`` when the other index is a
        slice.  An unfilled table stays unfilled, and the block costs
        what the builder's arithmetic states.
        """
        if op not in ("add", "mul"):
            raise ValueError(f"op must be 'add' or 'mul', got {op!r}")
        table = getattr(self, f"{op}_table")
        if table is None:
            every = np.arange(self.size)
            return self._arithmetic(op, *(None if i is None else every[i] for i in (rows, cols)))
        if rows is None or isinstance(rows, slice):
            view = table if rows is None else table[rows]
            if cols is None or isinstance(cols, slice):
                return view if cols is None else view[:, cols]
            return view.take(cols, axis=1)
        rows = np.asarray(rows, dtype=np.intp)
        if cols is None or isinstance(cols, slice):
            return (table if cols is None else table[:, cols]).take(rows, axis=0)
        return table[rows[:, None], cols]

    def apply(self, op: str, x, y) -> np.ndarray:
        """``table[x, y]`` elementwise over index arrays that broadcast
        together: one flat ``np.take`` of a filled table, or one index
        when x and y are Python ints, and the builder's ``pointwise``
        form on an unfilled one, which stays unfilled.  The flat index
        is one intp temporary, added to in place, unless x is smaller
        than the broadcast shape."""
        if op not in ("add", "mul"):
            raise ValueError(f"op must be 'add' or 'mul', got {op!r}")
        table = getattr(self, f"{op}_table")
        if table is None:
            return self._pointwise(op, x, y)
        if type(x) is int and type(y) is int:  # a scalar op: 5x faster than take
            return table[x, y]
        index = np.multiply(x, self.size, dtype=np.intp)
        try:
            index += y
        except ValueError:  # an x smaller than the broadcast shape
            index = index + y
        return table.ravel().take(index)

    def neg_rows(self, rows=None) -> np.ndarray:
        """``neg_table[rows]`` (every row when None), read from the table
        once it is filled.  Until then, on a certified ring, -x = (-1)*x:
        one :meth:`apply` product, once -1 is known.  -1 is found once
        per ring, by the negation scan of the row of ``one`` alone.  On
        any other table it is the lenient negation scan: the first
        position of ``zero`` in each row of the addition table, or 0
        when a row has none.  A missing additive inverse is an axiom
        failure and is reported by validate_ring, not here.  The scan
        reads the rows by :func:`row_block_reads` in blocks of
        ``_SWEEP_BLOCK_CELLS`` cells, so it fills nothing and adds
        nothing per n^2 to a build.
        """
        table = self.neg_table
        if table is not None:
            return table if rows is None else table[rows]
        if not self.certified:
            return self._negation_scan(rows)
        if self._minus_one is None:
            self._minus_one = int(self._negation_scan(np.array([self.one]))[0])
        every = np.arange(self.size) if rows is None else rows
        neg = self.apply("mul", self._minus_one, every).astype(np.int32)
        neg.flags.writeable = False
        return neg

    def _negation_scan(self, rows) -> np.ndarray:
        """The lenient negation scan of :meth:`neg_rows` over ``rows``."""
        neg = np.empty(self.size if rows is None else len(rows), dtype=np.int32)
        for start, part in row_block_reads(self, "add", rows, cells=_SWEEP_BLOCK_CELLS):
            neg[start : start + len(part)] = np.argmax(part == self.zero, axis=1)
        neg.flags.writeable = False
        return neg

    # -- scalar operations: one apply or neg_rows read, filling nothing --

    def _check_index(self, x: int) -> int:
        if not (0 <= x < self.size):
            raise IndexError(f"element index {x} out of range for ring of size {self.size}")
        return x

    def add(self, x: Element, y: Element) -> Element:
        return int(self.apply("add", self._check_index(x), self._check_index(y)))

    def mul(self, x: Element, y: Element) -> Element:
        return int(self.apply("mul", self._check_index(x), self._check_index(y)))

    def neg(self, x: Element) -> Element:
        return int(self.neg_rows([self._check_index(x)])[0])

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
                result = int(self.apply("mul", result, base))
            base = int(self.apply("mul", base, base))
            k >>= 1
        return result

    def inverse(self, x: Element) -> Element | None:
        """Two-sided inverse of x, or None.

        From the cached inverse sweep, which fills no table: one pass
        over rows finds a right inverse per row and checks its left
        product (one-sided inverses are two-sided; see the module notes).
        """
        inv = self.inverse_table()
        value = int(inv[self._check_index(x)])
        return None if value < 0 else value

    def inverse_table(self) -> np.ndarray:
        table = self._cache.get("inverse_table")
        if table is None:
            # the first right inverse in each row, scanned in row blocks as
            # the negation scan is, kept where it is also a left inverse
            blocks = row_block_reads(self, "mul", cells=_SWEEP_BLOCK_CELLS)
            right = np.concatenate([np.argmax(part == self.one, axis=1) for _, part in blocks])
            arange = np.arange(self.size)
            has_right = self.apply("mul", arange, right) == self.one
            two_sided = self.apply("mul", right, arange) == self.one
            table = np.where(has_right & two_sided, right, -1).astype(np.int32)
            table.flags.writeable = False
            self._cache["inverse_table"] = table
        return table

    def is_unit(self, x: Element) -> bool:
        return int(self.inverse_table()[self._check_index(x)]) >= 0

    # -- presentation -------------------------------------------------------

    def elements(self) -> range:
        return range(self.size)

    @property
    def element_names(self) -> list[str] | None:
        """Every element's name, by index, or None when elements are named
        by their index.  A builder gives a list or a recipe, a function
        from an index array to those elements' names; a recipe builds the
        list the first time this is read, and the list is kept."""
        if self._names is None and self._name_recipe is not None:
            self._names = self._name_recipe(np.arange(self.size))
        return self._names

    def element_name(self, x: Element) -> str:
        self._check_index(x)
        names = self.element_names
        return str(x) if names is None else names[x]

    def names_of(self, xs) -> list[str]:
        """The names of the elements xs, in order: read from the list once
        it is built, else from the recipe at xs alone, so that naming a
        few elements builds no list."""
        at = np.asarray(xs, dtype=np.intp)
        if self._names is not None:
            return [self._names[x] for x in at.tolist()]
        if self._name_recipe is None:
            return [str(x) for x in at.tolist()]
        return self._name_recipe(at) if len(at) else []

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
        names = ", ".join(ring.names_of(self.witness))
        return f"{self.axiom} at ({names})"


@dataclass
class ValidationReport:
    """Outcome of a ring-axiom scan.

    Pair-quantified axioms are decided on every pair (additive
    commutativity by the prover's proof on a table that passes it),
    triple-quantified ones by the prover or, on a failing table of at
    most 256 elements, by the n^3 scan of those the prover did not
    prove.  One witness is
    reported per violated axiom, but above 256 elements a failing table
    gets only the witness of the prover's gate that fails, and
    ``not_checked`` (written only when non-empty) lists the triple
    axioms left undecided.  ``mode`` is "exhaustive" up to 256 elements
    and "sampled" above, where the dict also carries ``sampled_triples``
    (n^2) and ``sample_seed``, although nothing is sampled: the
    benchmark's reference outputs (``ringbench/refs``) pin them.

    ``generators``, on a passing report only, are the prover's picks,
    which generate the ring's additive group; ``to_dict`` leaves them
    out.
    """

    ring: str
    size: int
    violations: list[AxiomViolation] = field(default_factory=list)
    not_checked: tuple[str, ...] = ()
    generators: np.ndarray | None = field(default=None, repr=False, compare=False)

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

# The two cell budgets of every blocked pass in the package, read when a
# pass runs.  This one: row blocks that gather through index copies and
# pay per numpy call (the analysis sweeps, row_block_reads by default,
# the pair-axiom inverse pass, the n^3 scan's x-chunks): np.take turns
# uint16 indices into an intp copy, 9-13 bytes per cell in all, so 2^18
# cells keep a pass near 3 MB; 2^20 raised the peak RSS of small
# workloads, 2^16 made the analysis sweeps 1.8x slower.
_BLOCK_CELLS = 1 << 18
# Square tiles of both commutativity walks, the builders' fills and the
# negation and inverse scans, which hold no intp copy: 128 KB of uint16
# stays in cache.  At 2^18 the tiles ran 2-3x slower, and the Zn and
# Dorroh fills broke their stated peaks at 1024 elements.  The prover's
# passes and C17 read it as well, although they hold an intp index: a
# block of theirs is then 0.75 MB, where at _BLOCK_CELLS it was 3 MB and
# set the peak of a verify at 1024 elements, and they ran no slower.
_SWEEP_BLOCK_CELLS = 1 << 16


def _row_blocks(count: int, width: int, cells: int | None = None) -> list[slice]:
    """Slices of ``range(count)`` whose rows of ``width`` cells hold about
    ``cells`` cells, ``_BLOCK_CELLS`` when None; an empty row counts as
    one cell, and the last slice stops at ``count``."""
    step = max(1, (_BLOCK_CELLS if cells is None else cells) // max(width, 1))
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def row_block_reads(ring: FiniteRing, op: str, rows=None, cols=None, cells: int | None = None):
    """``ring.block(op, rows, cols)`` in row blocks of about ``cells``
    cells (``_BLOCK_CELLS`` when None), as (first row, block) pairs:
    views of a filled table when ``rows`` is None, and never a fill."""
    count = ring.size if rows is None else len(rows)
    for block in _row_blocks(count, ring.size if cols is None else len(cols), cells):
        yield block.start, ring.block(op, block if rows is None else rows[block], cols)


def _upper_tiles(n: int) -> list[tuple[slice, slice]]:
    """Square tiles (rows, cols) of about ``_SWEEP_BLOCK_CELLS`` cells, a
    multiple of 8 wide so that ``analysis.comm_matrix`` packs whole bytes,
    over the diagonal of an n x n table and above it, band by band: a tile
    and its mirror both read from cache, where a band of rows does not."""
    side = max(8, math.isqrt(_SWEEP_BLOCK_CELLS) // 8 * 8)
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


def _additive_tree(add: np.ndarray, zero: int, mask: np.ndarray | None = None):
    """The enumeration of :func:`_prove_triple_axioms`: the picks, and
    (orders, relations, order), or None in their place when the walk
    breaks down (two layers meet, a stage adds no element, an orbit
    closes outside H_{j-1}, or a sum leaves ``mask``), the picks then
    ending with the one whose stage broke down.

    ``picks[j]`` is g_j, ``orders[j]`` m_j and ``relations[j]`` r_j.
    ``order`` lists the elements as the walk reaches them, zero first.
    With b_0 = 1 and b_{j+1} = m_j b_j, stage j's elements fill the
    positions [b_j, b_{j+1}), g_j sits at b_j, and the parent p(y) of
    the element y at position q sits at q - b_j, so y = g_j + p(y).

    With a boolean ``mask`` that holds zero, the walk picks only masked
    elements and must reach all of them, so on a table that passed the
    ring axioms it ends with a tree exactly when the masked set S is an
    additive subgroup: the walk reaches the subgroup its picks generate,
    which lies in S when no sum leaves S, and a subgroup S holds every
    sum the walk forms.  The picks then generate S.

    The walk is O(|S|) list steps (n without a mask) plus one row per
    pick, and it ends after at most |S| layers even on a table that is
    not a group: every stage that does not break down adds an element.
    """
    n = add.shape[0]
    # position in the enumeration: -1 while unreached, -2 outside the mask
    index = [-1] * n if mask is None else np.where(mask, -1, -2).tolist()
    count = n if mask is None else int(np.count_nonzero(mask))
    index[zero] = 0
    order = [zero]
    picks, orders, relations = [], [], []
    while len(order) < count:
        g = index.index(-1)
        picks.append(g)
        row = add[g].tolist()
        base = len(order)  # H_{j-1} is order[:base], zero first
        layer, m = order, 1
        # the first entry of each layer is m g_j, the orbit of zero
        while index[row[layer[0]]] < 0:
            for p in layer[:base]:
                y = row[p]
                if index[y] != -1:  # reached already, or outside the mask
                    return np.array(picks, dtype=np.intp), None
                index[y] = len(order)
                order.append(y)
            layer, m = order[-base:], m + 1
        relation = row[layer[0]]
        # a stage that added no element, or an orbit closed outside H_{j-1}
        if m == 1 or index[relation] >= base:
            return np.array(picks, dtype=np.intp), None
        orders.append(m)
        relations.append(relation)
    return np.array(picks, dtype=np.intp), (orders, relations, np.array(order, dtype=np.intp))


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
    add: np.ndarray, mul: np.ndarray, zero: int, walk=None
) -> tuple[AxiomViolation, tuple[str, ...]] | None:
    """Decide the four triple-quantified axioms with two n^2 passes,
    whatever the number k of additive generators: None for a proof,
    else a violated axiom's witness and the triple axioms left undecided.
    ``walk`` is :func:`_additive_tree`'s result on the table, computed
    here when None.

    None proves additive commutativity, both associativities and both
    distributive laws on every triple of a table with a two-sided zero
    and additive inverses; every ring gets None.  No step uses a
    multiplicative identity, so a ring without one, such as the V of a
    Dorroh extension, is judged the same way.

    Enumeration (:func:`_additive_tree`).  H_0 = {0}.  Stage j picks
    g_j, the lowest element outside H_{j-1}.  Layer 0 is H_{j-1}, and
    layer c is g_j + (layer c-1), elementwise, until the image of 0
    (the orbit point c g_j) lands in H_{j-1}: at c = m_j, as r_j.  An
    element y of layer c >= 1 has a parent p(y), the element of
    layer c-1 it came from, and a pick j(y), so y = g_j(y) + p(y).
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

    Soundness, given the two-sided zero, the additive inverses and
    gates 1-7.  Write T_y: z -> y + z, and T^v for the composite of
    T_j^{v_j} over j, v in N^k, whose order does not matter by gate 2.

    (a) T_0 is the identity, and gate 3 says T_y = T_{p(y)} T_j(y), so
        by induction along parents T_y = T^{c(y)}.
    (b) + is commutative: by (a), T_x and T_y are composites of the
        T_j, which commute by gate 2, so x + y = T_x T_y(0) =
        T_y T_x(0) = y + x.  Gates 1-3 and the zero alone give this,
        so no table whose + is not commutative passes them.
    (c) T_{r_j} = T_j^{m_j}, as r_j = T_j^{m_j}(0): by (b), (a) and
        gate 2, r_j + z = T^{c(z)}(T_j^{m_j}(0)) = T_j^{m_j}(T_z(0)) =
        T_j^{m_j}(z).  So the additive relations need no gate of their
        own.
    (d) If v_j >= m_j, (a) and (c) give T^v = T^{v'} for
        v' = v - m_j e_j + c(r_j); c(r_j) vanishes from coordinate j
        on, since r_j is in H_{j-1}.  Taking the highest such j each
        time lowers v read from the top, so the rewriting ends in B,
        at some c(w) by gate 1: T^v = T_w.
    (e) So T_x T_y = T^{c(x) + c(y)} = T_w for some w, and at 0 this
        reads x + y = w.  Thus x + (y + z) = (x + y) + z, and with (b),
        the zero and the inverses (R, +) is an abelian group.
    (f) psi: Z^k -> R, v -> sum_j v_j g_j, maps c(y) to T^{c(y)}(0) =
        y, so it is onto and its kernel K has index n.  K holds the
        relations rho_j = m_j e_j - c(r_j), a triangular set with
        diagonal m_j, so they span a lattice of index
        prod_j m_j = |B| = n (gate 1): all of K.
    (g) Fix x and let phi: Z^k -> R, v -> sum_j v_j (x g_j).  Gate 4 at
        y = g_j, whose parent is 0, gives x0 = 0, and then, by
        induction along parents, xy = phi(c(y)); in particular
        phi(c(r_j)) = x r_j.  By gate 5, phi(rho_j) = 0, so phi
        vanishes on K and factors as lambda psi with lambda additive:
        xy = lambda(psi(c(y))) = lambda(y).  Every y -> xy is additive.
    (h) For fixed i, the h with (y + h) g_i = y g_i + h g_i for all y
        are closed under +, and they include G by gate 6.  A nonempty
        subset of a finite group closed under + is a subgroup, and G
        generates R, so y -> y g_i is additive.  By (g),
        y(x + x') = yx + yx', and a sum of additive maps is additive,
        so by the same argument every y -> yx is additive.
    (i) By (g) and (h), (xy)z and x(yz) are additive in each argument,
        and every element is a sum of picks (0 the empty one), so
        gate 7 makes them equal everywhere.

    Completeness.  In a ring (R, +) is an abelian group: H_{j-1} is
    the subgroup the earlier picks generate, layer c is the coset
    c g_j + H_{j-1}, and these are distinct for c below m_j, the order
    of g_j modulo H_{j-1}; so gate 1 holds, and gates 2-7 are
    identities of every ring (x0 = 0 among them).

    Witnesses.  On a table whose + is commutative, the first gate that
    fails names one triple that violates one axiom, which table lookups
    alone replay; the triple axioms that the gates after it would have
    proved stay undecided.  Commutative + gives y = p(y) + g_j(y).

    1. Add-associativity at the least (x, g, y) of Light's test,
       read as (g + x) + y != x + (g + y), over the picks so far, the
       current one included; the other three axioms stay undecided.
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

    Within a gate the witness is the first failing cell in element
    order, pick by pick and then row-major in the elements' indices,
    whatever the order of the enumeration, and the blocks do not change
    it; gate 1 takes the least (x, g, y).  On a table whose + is not
    commutative a witness need not replay, and :func:`_axiom_violations`
    reports the asymmetric pair in its place.

    Gate 1 always finds its witness, commutative + or not.  An s that
    passes the test as read, (s + x) + y = x + (s + y) for all x, y,
    commutes with every x (take y = 0), so (x + s) + y = x + (s + y).
    Such s are closed under +: for two of them s and s',
    ((s + s') + x) + y = (s + (s' + x)) + y = (s' + x) + (s + y) =
    x + (s' + (s + y)) = x + ((s + s') + y) (Light's lemma).  They
    include 0, so if every pick so far passed, so would every s in the
    monoid M they generate.  So + is associative and commutative on M,
    and for s in M and the t with s + t = 0, (x + s) + t =
    x + (s + t) = x: x -> x + s is injective, and M, a finite
    cancellative commutative monoid, is a group.  In it H_{j-1} is the
    subgroup of the earlier picks, and layer c the coset
    c g_j + H_{j-1}.  A layer is built only while its head c g_j lies
    outside the layers before it, so it meets none of them; and the
    head m_j g_j that stops the stage cannot lie in a layer c >= 1, or
    the head (m_j - c) g_j of an earlier layer would lie in H_{j-1}.
    So gate 1 could not have failed.

    Cost: the walk, k^2 n for gate 2, n sum_j log m_j for gate 5,
    n k^2 for gate 6 and k^3 for gate 7.  Gates 3 and 4 are one n^2
    pass each, stage by stage, in blocks of about
    ``_SWEEP_BLOCK_CELLS`` cells.  They read the enumeration's position
    slices: stage j's y at [b_j, b_{j+1}), their parents at
    [0, b_{j+1} - b_j) and g_j at b_j.  Gate 3 compares rows of y with
    rows of p(y) gathered through the columns g_j + z, and gate 4
    columns of y of a block of ``mul`` rows with one flat gather from
    ``add`` at x g_j + x p(y).  Where the walk reaches every element at
    the position of its index, as on every builder's table, the slices
    are views, and a block holds the intp flat index, its gather and
    two boolean masks, about 12 bytes per cell, 0.75 MB.  Any other
    order gathers each block's rows or columns through it, one more
    uint16 copy.  Only a failing gate 1 pays more: Light's test is
    k n^2, in the same blocks.
    """
    undecided = {
        "add-associativity": _TRIPLE_AXIOMS[1:],
        "left-distributivity": ("mul-associativity", "right-distributivity"),
        "right-distributivity": ("mul-associativity",),
        "mul-associativity": (),
    }

    def failure(axiom, *witness):
        return AxiomViolation(axiom, tuple(int(c) for c in witness)), undecided[axiom]

    picks, tree = _additive_tree(add, zero) if walk is None else walk
    n = add.shape[0]
    translate = add[picks]  # translate[j, z] = g_j + z
    if tree is None:
        found = []
        for rows in _row_blocks(n, n, _SWEEP_BLOCK_CELLS):
            for g, t in zip(picks, translate):
                # (g + x) + y against x + (g + y), for the block's x
                at = _first_mismatch(add[t[rows]], np.take(add[rows], t, axis=1), (rows.start,))
                if at:
                    found.append((at[0], g, at[1]))
        return failure("add-associativity", *min(found))
    orders, relations, order = tree
    bounds = np.cumprod([1, *orders]).tolist()  # b_0, ..., b_k = n
    if np.array_equal(order, np.arange(n)):
        span = slice  # the elements at positions [lo, hi), as a view
    else:

        def span(lo, hi):
            return order[lo:hi]

    after = translate[:, translate]  # after[i, j, z] = g_i + (g_j + z)
    at = _first_mismatch(after, after.transpose(1, 0, 2))
    if at:
        i, j, z = at
        gi, gj = picks[i], picks[j]
        if add[add[gi, gj], z] != after[i, j, z]:
            return failure("add-associativity", gi, gj, z)
        return failure("add-associativity", gj, gi, z)
    for j, t in enumerate(translate.astype(np.intp)):
        b, e = bounds[j], bounds[j + 1]
        found = []
        for rows in _row_blocks(e - b, n, _SWEEP_BLOCK_CELLS):
            lo, hi = rows.start, rows.stop  # parents' positions, y's at b + lo
            wrong = np.take(add[span(lo, hi)], t, axis=1) != add[span(b + lo, b + hi)]
            bad = lo + np.flatnonzero(wrong.any(axis=1))
            if bad.size:
                q = bad[np.argmin(order[b + bad])]
                found.append((order[b + q], order[q], np.argmax(wrong[q - lo])))
        if found:
            _, p, z = min(found)
            return failure("add-associativity", p, picks[j], z)
    flat = add.reshape(-1)
    found = []
    # y at [b, e), p(y) at [0, e - b) and g_j at b; first y = 0, for x0 = x0 + x0
    for b, e in [(0, 1), *zip(bounds, bounds[1:])]:
        head, ys, ps = order[b], span(b, e), span(0, e - b)
        for rows in _row_blocks(n, e - b, _SWEEP_BLOCK_CELLS):
            block = mul[rows]
            # the flat index in add of x g_j + x p(y), dropped once read so
            # that the next block's index does not meet it
            cells = np.multiply(block[:, head, None], n, dtype=np.intp) + block[:, ps]
            wrong = flat.take(cells) != block[:, ys]
            del cells
            bad = np.flatnonzero(wrong.any(axis=1))
            if bad.size:
                q = np.flatnonzero(wrong[bad[0]])
                q = q[np.argmin(order[b + q])]
                found.append((rows.start + bad[0], order[b + q], order[q], head))
                break
    if found:
        x, _, p, g = min(found)
        return failure("left-distributivity", x, p, g)
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
    """All n^3 triples in x-chunks of about ``_BLOCK_CELLS`` cells: the
    first witness per axiom of ``axioms``.  Tracemalloc peak: 1.5 MB at
    256 elements.

    A witness is the lexicographically first violating (x, y, z) of its
    axiom.  Each axiom is scanned chunk by chunk up to its first
    violation, in the order of ``_TRIPLE_AXIOMS``, so neither the
    witnesses nor their order depend on the chunks.
    """
    n = add.shape[0]

    def distributes(rows):
        # rows[a, b] = a*b, or b*a for right distributivity:
        # rows[a, b + c] against rows[a, b] + rows[a, c]
        return rows[:, add], add[rows[:, :, None], rows[:, None, :]]

    # (axiom, sides of the chunk xs, order): witness coordinate p is
    # coordinate order[p] of the first mismatch of the two sides
    laws = (
        ("add-associativity", lambda xs: (add[add[xs]], add[xs][:, add]), (0, 1, 2)),
        ("mul-associativity", lambda xs: (mul[mul[xs]], mul[xs][:, mul]), (0, 1, 2)),
        ("left-distributivity", lambda xs: distributes(mul[xs]), (0, 1, 2)),
        # indexed [z, x, y] for (x+y)z != xz+yz, so that z is scanned
        # first; reported as (x, y, z) like the other laws
        ("right-distributivity", lambda xs: distributes(mul[:, xs].T), (1, 2, 0)),
    )
    violations: list[AxiomViolation] = []
    for axiom, sides, order in laws:
        if axiom not in axioms:
            continue
        for xs in _row_blocks(n, n * n):
            at = _first_mismatch(*sides(xs), (xs.start,))
            if at:
                violations.append(AxiomViolation(axiom, tuple(at[i] for i in order)))
                break
    return violations


def _identity_witness(table: np.ndarray, unit: int) -> tuple[int] | None:
    """(x,) for the first x with table[unit, x] != x, else for the first
    with table[x, unit] != x; None when ``unit`` is a two-sided identity."""
    arange = np.arange(table.shape[0])
    bad = table[unit] != arange
    if not bad.any():
        bad = table[:, unit] != arange
    return (int(np.argmax(bad)),) if bad.any() else None


def _asymmetric_pair(add: np.ndarray) -> tuple[int, int] | None:
    """The first (x, y) in row-major order with x + y != y + x, or None:
    over square tiles of about ``_SWEEP_BLOCK_CELLS`` cells on and above
    the diagonal (:func:`_upper_tiles`), where the first asymmetric pair
    always lies."""
    asymmetric = [
        at
        for rows, cols in _upper_tiles(add.shape[0])
        if (at := _first_mismatch(add[rows, cols], add[cols, rows].T, (rows.start, cols.start)))
    ]
    return min(asymmetric) if asymmetric else None


def _axiom_violations(
    add: np.ndarray, mul: np.ndarray, zero: int, one: int | None = None
) -> tuple[list[AxiomViolation], tuple[str, ...], np.ndarray | None]:
    """The ring axioms on an add and a mul table: the violations found,
    the triple axioms left unchecked, and the prover's picks when it
    proves the triple axioms (None otherwise), which generate (R, +).

    The pair-quantified axioms (additive commutativity, two-sided zero,
    additive inverses, and a two-sided one unless ``one`` is None) hold
    on all n^2 pairs or have a witness.  The zero and the inverses are
    checked first, the inverses in row blocks of about ``_BLOCK_CELLS``
    cells.  Once they hold, :func:`_prove_triple_axioms` decides the
    triple-quantified axioms (both associativities, both distributive
    laws) without using an identity, so ``one=None`` judges a ring that
    need not have one; its proof makes + commutative as well.  Only
    when the prover fails, or the zero or the inverses do, does the
    commutativity scan (:func:`_asymmetric_pair`) run, so a ring pays
    no scan for it.  A table that fails an additive pair axiom or the
    prover gets, on at most 256 elements, the n^3 scan
    (:func:`_scan_triple_axioms`) of the triple axioms still open, all
    four or the prover's failing one and those it left undecided: the
    lexicographically first triple of each violated triple axiom.
    Above that it gets the prover's witness and the triple axioms the
    prover leaves undecided, or all four when an additive pair axiom
    fails, since the prover needs those.
    """
    n = add.shape[0]
    zero_witness = _identity_witness(add, zero)
    no_inverse = np.concatenate([~(add[rows] == zero).any(axis=1) for rows in _row_blocks(n, n)])
    prover_runs = zero_witness is None and not no_inverse.any()
    walk = _additive_tree(add, zero) if prover_runs else None
    failure = _prove_triple_axioms(add, mul, zero, walk) if prover_runs else None
    picks = walk[0] if prover_runs and failure is None else None
    violations: list[AxiomViolation] = []
    # a proof makes + commutative, so only a failure pays for the scan
    if not prover_runs or failure is not None:
        asymmetric = _asymmetric_pair(add)
        if asymmetric is not None:
            violations.append(AxiomViolation("add-commutativity", asymmetric))
    if zero_witness is not None:
        violations.append(AxiomViolation("zero-identity", zero_witness))
    if no_inverse.any():
        violations.append(AxiomViolation("add-inverse", (int(np.argmax(no_inverse)),)))
    additive = not violations
    witness = None if one is None else _identity_witness(mul, one)
    if witness is not None:
        violations.append(AxiomViolation("one-identity", witness))
    if not additive:
        if n <= FULL_SCAN_LIMIT:
            return violations + _scan_triple_axioms(add, mul), (), picks
        return violations, _TRIPLE_AXIOMS, picks
    if failure is None:
        return violations, (), picks
    violation, not_checked = failure
    if n <= FULL_SCAN_LIMIT:
        # the prover proved the other triple axioms, which have no violation
        scanned = _scan_triple_axioms(add, mul, (violation.axiom, *not_checked))
        return violations + scanned, (), picks
    return violations + [violation], not_checked, picks


def validate_ring(ring: FiniteRing) -> ValidationReport:
    """Check the unital-ring axioms against the compiled tables.

    :func:`_axiom_violations` judges them, exactly at every size.  A
    passing ring costs the zero and inverse checks, one n^2 pass, plus
    the two n^2 passes of :func:`_prove_triple_axioms`, whatever the
    number of additive generators, all in blocks of at most
    ``_BLOCK_CELLS`` cells; the commutativity scan runs only on a
    failing table.  A failing table of at most 256 elements pays n^3
    for the first witness of each violated triple axiom; above that,
    the report carries the witness of the prover's failing gate and the
    triple axioms that gate leaves ``not_checked``.

    Tracemalloc peak: 1.2 bytes per n^2 at about 1024 elements (0.8 to
    1.1 on Z1024, T(4, Z2) and H(1, 1, Z10)), most of it one block of
    the prover's gate 4, and gate 2's k^2 n translations at k = 10;
    at every size the blocks hold it near 1 MB.
    Structural totality (square tables, in-range entries) is enforced
    at construction time and raises MalformedTableError there, so this
    scan only ever judges axioms.  It reads the whole ring, so it fills
    the ring's tables first (:meth:`FiniteRing.fill`).
    """
    ring.fill()
    violations, not_checked, picks = _axiom_violations(
        ring.add_table, ring.mul_table, ring.zero, ring.one
    )
    return ValidationReport(
        ring.spell(), ring.size, violations, not_checked, picks if not violations else None
    )


def validation_report(ring: FiniteRing) -> ValidationReport:
    """:func:`validate_ring`'s report, computed once per ring and kept in
    its cache, so that a table leaf's build, C00 and a verb's gate share
    one run of the prover."""
    report = ring._cache.get("validation_report")
    if report is None:
        report = ring._cache["validation_report"] = validate_ring(ring)
    return report


def proven_generators(ring: FiniteRing) -> np.ndarray | None:
    """The additive generators of a ring whose cached validation report
    passed (C00), the prover's picks, or None when no passing report is
    cached.  It computes no report, so a caller on a ring that was
    never validated pays nothing and keeps its sweep."""
    report = ring._cache.get("validation_report")
    return None if report is None else report.generators
