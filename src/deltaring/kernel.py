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

    Pair-quantified axioms are always checked on every pair.  ``mode``
    says how the triple-quantified ones were covered.  "exhaustive"
    (rings of at most 256 elements) means every triple is covered by
    proof: by the generator certificate on a ring, by the full triple
    scan otherwise.  "sampled" (larger rings) records the seeded sample
    of ``sampled_triples`` triples that a table failing the certificate
    gets.  A table that passes it is a ring, on which that sample
    provably finds nothing, so its report is the sample's without a
    draw: the coverage there is exhaustive too.  The "sampled" label and
    its two fields stay only because the benchmark's reference outputs
    (``ringbench/refs``) pin them byte for byte.  One witness is
    reported per violated axiom.
    """

    ring: str
    size: int
    mode: str
    sampled_triples: int
    sample_seed: int | None
    violations: list[AxiomViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

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
        if self.mode == "sampled":
            out["sampled_triples"] = self.sampled_triples
            out["sample_seed"] = self.sample_seed
        return out


FULL_SCAN_LIMIT = 256
VALIDATION_SEED = 0x5EED

# Keep chunked triple tensors around 16 MB of int32.
_CHUNK_CELLS = 4_000_000
# A certificate step keeps up to eight block-sized arrays alive at once
# (intp ones counting twice), so its blocks are an eighth of a scan
# chunk: about 16 MB in all.
_CERT_BLOCK_CELLS = _CHUNK_CELLS // 8


# Row blocks for one-pass sweeps over a table (the negation scan, and the
# constructions' row gathers): 256 KB of int32 stays in cache, and is
# small next to an n^2 table at every size.
_SWEEP_BLOCK_CELLS = 1 << 16


def _row_blocks(count: int, width: int, cells: int = _CERT_BLOCK_CELLS) -> list[slice]:
    """Slices of ``range(count)`` whose rows of ``width`` cells hold about
    ``cells`` cells."""
    step = max(1, cells // width)
    return [slice(lo, lo + step) for lo in range(0, count, step)]


def _first_witness(mismatch: np.ndarray, x_offset: int = 0) -> tuple[int, ...]:
    at = np.argwhere(mismatch)[0]
    coords = [int(c) for c in at]
    coords[0] += x_offset
    return tuple(coords)


def _additive_generators(add: np.ndarray, zero: int) -> np.ndarray | None:
    """A greedy additive generating set G, or None if the closure runs long.

    G starts empty and repeatedly takes the lowest element not yet
    reached.  After each pick the reached set is closed by sumset
    doubling, ``reach |= add[reach][:, reach]``, so r rounds reach every
    sum of up to 2^r picked elements; a round that reaches every
    element ends the closure.  In a group each pick at least doubles
    the reached subgroup and each closure stops growing within
    ``bit_length(n)`` rounds, so k = |G| <= log2 n.  Exceeding either
    bound proves the addition is not a group; None then sends the caller
    to the triple scan.  Cost: O(n^2) per round, O(n^2 log n) in total,
    gathered in blocks of about ``_CERT_BLOCK_CELLS``.
    """
    n = add.shape[0]
    limit = n.bit_length()
    reach = np.zeros(n, dtype=bool)
    reach[zero] = True
    gens = []
    while not reach.all():
        if len(gens) == limit:
            return None
        g = int(np.argmin(reach))
        gens.append(g)
        reach[g] = True
        for _ in range(limit + 1):
            idx = np.flatnonzero(reach)
            for rows in _row_blocks(idx.size, n):
                reach[np.take(add[idx[rows]], idx, axis=1)] = True
            count = np.count_nonzero(reach)
            if count == idx.size or count == n:
                break
        else:
            return None
    return np.array(gens, dtype=np.intp)


def _certify_triple_axioms(add: np.ndarray, mul: np.ndarray, zero: int) -> bool:
    """Prove the four triple-quantified axioms in O(n^2 k + n k^2) gathers.

    Sound only on tables that already satisfy the pair-quantified axioms
    of addition (commutative, two-sided zero, additive inverses).  No
    step uses a multiplicative identity, so the certificate serves a ring
    without one too, such as the V of a Dorroh extension
    (``constructions.validate_bimodule_action``).  Each step is sound
    only once the steps before it have passed:

    1. A greedy additive generating set G, k = |G| <= log2 n
       (:func:`_additive_generators`): every element is a sum of picks.
    2. Additive associativity by Light's test, one generator at a time:
       with commutative addition, (x+g)+y = x+(g+y) for all x, y says
       that M_g = add[add[:, g]] is symmetric.  The g that associate
       this way are closed under +, and G generates the table, so every
       element associates.  With the pair axioms, + is now a finite
       abelian group, generated by G alone.
    3. Right distributivity: (y+g)x = yx + gx for all x, y and every g
       in G.  The g for which it holds are closed under + and, in the
       finite group of step 2, form a subgroup; so it holds for every
       g and every right multiplication y -> yx is additive.
    4. Left distributivity on generators only: g(y+h) = gy + gh for g,
       h in G and all y.  For each g the h that satisfy it form a
       subgroup, so every L_g: y -> gy is additive.  By step 3,
       L_{x+x'} = L_x + L_{x'}, and a sum of additive maps of an
       abelian group is additive, so the x with additive L_x form a
       subgroup containing G: every left multiplication is additive.
    5. Multiplicative associativity on G^3.  By steps 3 and 4 both
       (xy)z and x(yz) are additive in each argument, and every element
       is a sum of generators, so agreement on G^3 is agreement
       everywhere.

    True is a proof covering every triple.  False means some step
    failed, which happens only on a table that is not a ring.

    Cost: steps 2 and 3 are k row-block gathers each over the n^2
    cells, step 4 is n k^2 and step 5 k^3.  Every n x n step runs in row
    blocks of about ``_CERT_BLOCK_CELLS`` cells, so its temporaries stay
    near 16 MB at every size.
    """
    gens = _additive_generators(add, zero)
    if gens is None:
        return False
    n = add.shape[0]
    plus = add[:, gens].T  # plus[j, y] = y + g_j
    blocks = _row_blocks(n, n)
    for rows in blocks:
        add_rows = add[rows]
        for plus_g in plus:
            # (x+g)+y against x+(y+g), which is M_g[y, x], for the block's x
            if (add[plus_g[rows]] != np.take(add_rows, plus_g, axis=1)).any():
                return False
    for rows in blocks:
        # cols[i, y] = y*x for the block's x; every gather below stays
        # inside one row of cols or of add
        cols = np.ascontiguousarray(mul[:, rows].T)
        flat = cols + (np.arange(cols.shape[0], dtype=np.intp) * n)[:, None]
        for g, plus_g in zip(gens, plus):
            # (y+g)x against gx + yx
            if (np.take(cols, plus_g, axis=1) != np.take(add[cols[:, g]], flat)).any():
                return False
    mul_gens = mul[gens]
    gg = mul_gens[:, gens]
    # g(y+h) against gy + gh
    if (mul_gens[:, plus.T] != add[mul_gens[:, :, None], gg[:, None, :]]).any():
        return False
    return bool((mul[gg[:, :, None], gens] == mul[gens[:, None, None], gg]).all())


_TRIPLE_AXIOMS = (
    "add-associativity",
    "mul-associativity",
    "left-distributivity",
    "right-distributivity",
)


def _scan_triple_axioms(add: np.ndarray, mul: np.ndarray) -> list[AxiomViolation]:
    """All n^3 triples in x-chunks of about 16 MB: the first witness per axiom.

    A witness is the lexicographically first violating (x, y, z) of its
    axiom.  An axiom stops being scanned once violated, and the scan
    stops once all four are.
    """
    n = add.shape[0]
    violations: list[AxiomViolation] = []
    chunk = max(1, _CHUNK_CELLS // (n * n))

    def distributes(rows):
        # rows[a, b] = a*b, or b*a for right distributivity:
        # rows[a, b + c] against rows[a, b] + rows[a, c]
        return rows[:, add], add[rows[:, :, None], rows[:, None, :]]

    for x0 in range(0, n, chunk):
        if len(violations) == len(_TRIPLE_AXIOMS):
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
            # first; reported as (x, y, z) like the sampled path
            ("right-distributivity", lambda: distributes(mul[:, xs].T), (1, 2, 0)),
        )
        for axiom, sides, order in laws:
            if any(v.axiom == axiom for v in violations):
                continue
            mismatch = np.not_equal(*sides())
            if mismatch.any():
                at = _first_witness(mismatch, x0)
                violations.append(AxiomViolation(axiom, tuple(at[i] for i in order)))
    return violations


def _sample_triple_axioms(
    add: np.ndarray, mul: np.ndarray, seed: int
) -> list[AxiomViolation]:
    """n^2 triples drawn from ``seed``, in batches: the first witness per axiom.

    A witness is the first sampled violating (x, y, z) of its axiom.  An
    axiom stops being checked once violated, and the sample stops once
    all four are.
    """
    n = add.shape[0]
    triple_axioms = dict.fromkeys(_TRIPLE_AXIOMS, True)
    violations: list[AxiomViolation] = []
    rng = np.random.default_rng(seed)
    sampled = n * n
    batch = 1_000_000
    done = 0
    while done < sampled and any(triple_axioms.values()):
        count = min(batch, sampled - done)
        xs = rng.integers(0, n, size=count)
        ys = rng.integers(0, n, size=count)
        zs = rng.integers(0, n, size=count)
        done += count
        checks = (
            ("add-associativity", add[add[xs, ys], zs], add[xs, add[ys, zs]]),
            ("mul-associativity", mul[mul[xs, ys], zs], mul[xs, mul[ys, zs]]),
            ("left-distributivity", mul[xs, add[ys, zs]], add[mul[xs, ys], mul[xs, zs]]),
            ("right-distributivity", mul[add[xs, ys], zs], add[mul[xs, zs], mul[ys, zs]]),
        )
        for axiom, lhs, rhs in checks:
            if not triple_axioms[axiom]:
                continue
            mismatch = lhs != rhs
            if mismatch.any():
                at = int(np.argmax(mismatch))
                witness = (int(xs[at]), int(ys[at]), int(zs[at]))
                violations.append(AxiomViolation(axiom, witness))
                triple_axioms[axiom] = False
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
    add: np.ndarray,
    mul: np.ndarray,
    zero: int,
    one: int | None = None,
    *,
    sample_seed: int | None = VALIDATION_SEED,
) -> list[AxiomViolation]:
    """The ring axioms on an add and a mul table: one witness per violated axiom.

    The pair-quantified axioms (additive commutativity, two-sided zero,
    additive inverses, and a two-sided one unless ``one`` is None) are
    checked on all n^2 pairs, the n x n ones in row blocks of about
    ``_CERT_BLOCK_CELLS`` cells.  Once they pass,
    :func:`_certify_triple_axioms` proves the triple-quantified ones
    (both associativities, both distributive laws) without using an
    identity, so ``one=None`` judges a ring that need not have one.
    Only a table that is not a ring fails a pair axiom or a certificate
    step; it gets the fallback that reports witnesses, the
    lexicographically first of each violated axiom among all n^3
    triples (:func:`_scan_triple_axioms`) when n <= 256 or
    ``sample_seed`` is None, else the first in a seeded sample of n^2
    triples (:func:`_sample_triple_axioms`).
    """
    n = add.shape[0]
    violations: list[AxiomViolation] = []
    blocks = _row_blocks(n, n)
    for rows in blocks:
        mismatch = add[rows] != add[:, rows].T
        if mismatch.any():
            witness = _first_witness(mismatch, rows.start)
            violations.append(AxiomViolation("add-commutativity", witness))
            break
    witness = _identity_witness(add, zero)
    if witness is not None:
        violations.append(AxiomViolation("zero-identity", witness))
    no_inverse = np.concatenate([~(add[rows] == zero).any(axis=1) for rows in blocks])
    if no_inverse.any():
        violations.append(AxiomViolation("add-inverse", (int(np.argmax(no_inverse)),)))
    witness = None if one is None else _identity_witness(mul, one)
    if witness is not None:
        violations.append(AxiomViolation("one-identity", witness))
    if violations or not _certify_triple_axioms(add, mul, zero):
        if n <= FULL_SCAN_LIMIT or sample_seed is None:
            violations += _scan_triple_axioms(add, mul)
        else:
            violations += _sample_triple_axioms(add, mul, sample_seed)
    return violations


def validate_ring(ring: FiniteRing, *, sample_seed: int = VALIDATION_SEED) -> ValidationReport:
    """Check the unital-ring axioms against the compiled tables.

    :func:`_axiom_violations` judges them.  Above 256 elements the
    report has mode "sampled", with the sample size and seed, though
    only a table that is not a ring draws that sample: on a table that
    passes the certificate the sample provably finds nothing.  That
    label stays only because the benchmark's reference outputs pin it.

    A passing ring costs n^2 pair checks plus O(n^2 k + n k^2)
    certificate gathers, k <= log2 n generators, in blocks of about
    16 MB, and n^3 or the sample is paid only on a failing table.
    Structural totality (square tables, in-range entries) is enforced
    at construction time and raises MalformedTableError there, so this
    scan only ever judges axioms.
    """
    n = ring.size
    exhaustive = n <= FULL_SCAN_LIMIT
    return ValidationReport(
        ring=ring.spell(),
        size=n,
        mode="exhaustive" if exhaustive else "sampled",
        sampled_triples=0 if exhaustive else n * n,
        sample_seed=None if exhaustive else sample_seed,
        violations=_axiom_violations(
            ring.add_table, ring.mul_table, ring.zero, ring.one, sample_seed=sample_seed
        ),
    )
