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
    overrides it; values above 65536 are accepted but unsupported, since
    the compiled tables grow quadratically with the size.
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
    if value < 2:
        raise CapacityError(f"{CAPACITY_ENV_VAR} must be at least 2, got {value}")
    return value


def _as_table(name: str, data, size: int) -> np.ndarray:
    try:
        table = np.array(data, dtype=np.int32)
    except (ValueError, TypeError) as exc:
        raise MalformedTableError(f"{name} table is not rectangular integer data: {exc}")
    if table.ndim != 2 or table.shape != (size, size):
        raise MalformedTableError(
            f"{name} table must be {size}x{size}, got shape {table.shape}"
        )
    if size and (int(table.min()) < 0 or int(table.max()) >= size):
        bad = np.argwhere((table < 0) | (table >= size))[0]
        raise MalformedTableError(
            f"{name} table entry at ({bad[0]}, {bad[1]}) is outside 0..{size - 1}"
        )
    table = np.ascontiguousarray(table)
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
                f"(override via {CAPACITY_ENV_VAR}, unsupported above 65536)"
            )
        self.add_table = _as_table("add", add, size)
        self.mul_table = _as_table("mul", mul, size)
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
        # failure and is reported by validate_ring, not here.
        neg = np.argmax(self.add_table == zero, axis=1).astype(np.int32)
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
            hits = self.mul_table == self.one
            right = np.argmax(hits, axis=1)
            has_right = hits.any(axis=1)
            two_sided = self.mul_table[right, np.arange(self.size)] == self.one
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
    """An immutable subset of one ring's elements, stored as a bitset.

    Set algebra is only defined between subsets of the same ring object;
    mixing rings raises ValueError.  Membership, iteration, and the
    boolean-mask view are all derived from a single Python integer whose
    bit i records element i.
    """

    __slots__ = ("ring", "bits", "_array")

    def __init__(self, ring: FiniteRing, bits: int):
        if bits < 0 or bits >> ring.size:
            raise ValueError("bitset has bits outside the ring's element range")
        self.ring = ring
        self.bits = bits
        self._array = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def empty(cls, ring: FiniteRing) -> "ElementSet":
        return cls(ring, 0)

    @classmethod
    def full(cls, ring: FiniteRing) -> "ElementSet":
        return cls(ring, (1 << ring.size) - 1)

    @classmethod
    def singleton(cls, ring: FiniteRing, x: Element) -> "ElementSet":
        ring._check_index(x)
        return cls(ring, 1 << x)

    @classmethod
    def from_indices(cls, ring: FiniteRing, indices) -> "ElementSet":
        bits = 0
        for x in indices:
            ring._check_index(int(x))
            bits |= 1 << int(x)
        return cls(ring, bits)

    @classmethod
    def from_bool_array(cls, ring: FiniteRing, mask: np.ndarray) -> "ElementSet":
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (ring.size,):
            raise ValueError("boolean mask length does not match ring size")
        packed = np.packbits(mask, bitorder="little").tobytes()
        return cls(ring, int.from_bytes(packed, "little"))

    # -- views ---------------------------------------------------------------

    def bool_array(self) -> np.ndarray:
        if self._array is None:
            nbytes = (self.ring.size + 7) // 8
            raw = np.frombuffer(self.bits.to_bytes(nbytes, "little"), dtype=np.uint8)
            arr = np.unpackbits(raw, bitorder="little")[: self.ring.size].astype(bool)
            arr.flags.writeable = False
            self._array = arr
        return self._array

    def indices(self) -> tuple[int, ...]:
        out = []
        bits = self.bits
        while bits:
            low = bits & -bits
            out.append(low.bit_length() - 1)
            bits ^= low
        return tuple(out)

    # -- set algebra ----------------------------------------------------------

    def _require_same_ring(self, other: "ElementSet") -> None:
        if not isinstance(other, ElementSet):
            raise TypeError("expected an ElementSet")
        if other.ring is not self.ring:
            raise ValueError("element sets belong to different rings")

    def __and__(self, other: "ElementSet") -> "ElementSet":
        self._require_same_ring(other)
        return ElementSet(self.ring, self.bits & other.bits)

    def __or__(self, other: "ElementSet") -> "ElementSet":
        self._require_same_ring(other)
        return ElementSet(self.ring, self.bits | other.bits)

    def __xor__(self, other: "ElementSet") -> "ElementSet":
        self._require_same_ring(other)
        return ElementSet(self.ring, self.bits ^ other.bits)

    def __sub__(self, other: "ElementSet") -> "ElementSet":
        self._require_same_ring(other)
        return ElementSet(self.ring, self.bits & ~other.bits)

    def complement(self) -> "ElementSet":
        return ElementSet(self.ring, ~self.bits & ((1 << self.ring.size) - 1))

    def issubset(self, other: "ElementSet") -> bool:
        self._require_same_ring(other)
        return self.bits & ~other.bits == 0

    def __le__(self, other: "ElementSet") -> bool:
        return self.issubset(other)

    # -- protocol -------------------------------------------------------------

    def __contains__(self, x: int) -> bool:
        return 0 <= x < self.ring.size and (self.bits >> x) & 1 == 1

    def __iter__(self):
        return iter(self.indices())

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __bool__(self) -> bool:
        return self.bits != 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, ElementSet):
            return NotImplemented
        return other.ring is self.ring and other.bits == self.bits

    def __hash__(self) -> int:
        return hash((id(self.ring), self.bits))

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

    ``mode`` records whether triple-quantified axioms were checked
    exhaustively or on a deterministic seeded sample; pair-quantified
    axioms are always exhaustive.  "exhaustive" means every triple is
    covered by proof: by the generator certificate on a ring, by the
    full triple scan otherwise.  One witness is reported per violated
    axiom.
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
    sum of up to 2^r picked elements.  In a group each pick at least
    doubles the reached subgroup and each closure stops growing within
    ``bit_length(n)`` rounds, so k = |G| <= log2 n.  Exceeding either
    bound proves the addition is not a group; None then sends the caller
    to the triple scan.  Cost: O(n^2) per round, O(n^2 log n) in total.
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
            reach[add[np.ix_(idx, idx)]] = True
            if np.count_nonzero(reach) == idx.size:
                break
        else:
            return None
    return np.array(gens, dtype=np.intp)


def _certify_triple_axioms(add: np.ndarray, mul: np.ndarray, zero: int) -> bool:
    """Prove the four triple-quantified axioms in O(n^2 k) gathers.

    Sound only on tables that already satisfy the pair-quantified axioms
    (commutative addition, two-sided zero and one, additive inverses).
    Each step is sound only once the steps before it have passed:

    1. A greedy additive generating set G (:func:`_additive_generators`).
    2. Additive associativity by Light's test: (x+g)+y = x+(g+y) for all
       x, y and every g in G.  The elements that associate this way are
       closed under +, and G with the zero generates the table, so every
       element associates.  With the pair axioms, + is now a finite
       abelian group, generated by G alone.
    3. Distributivity: x(y+g) = xy + xg and (y+g)x = yx + gx for all
       x, y and every g in G.  The g for which one of these holds are
       closed under +, so every left and right multiplication is
       additive, and x0 = 0x = 0 follows by cancellation.
    4. Multiplicative associativity on G^3.  By step 3 both (xy)z and
       x(yz) are additive in each argument, and every element is a sum
       of generators, so agreement on G^3 is agreement everywhere.

    True is a proof covering every triple.  False means some step
    failed, which happens only on a table that is not a ring.
    """
    gens = _additive_generators(add, zero)
    if gens is None:
        return False
    if (add[add[:, gens]] != add[:, add[gens]]).any():
        return False
    mul_g = mul[:, gens]
    if (mul[:, add[:, gens]] != add[mul[:, :, None], mul_g[:, None, :]]).any():
        return False
    if (mul[add[:, gens]] != add[mul[:, None, :], mul[gens][None, :, :]]).any():
        return False
    gg = mul_g[gens]
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
    triple_axioms = dict.fromkeys(_TRIPLE_AXIOMS, True)
    violations: list[AxiomViolation] = []
    chunk = max(1, _CHUNK_CELLS // (n * n))
    for x0 in range(0, n, chunk):
        if not any(triple_axioms.values()):
            break
        xs = np.arange(x0, min(n, x0 + chunk))
        a_rows = add[xs]
        m_rows = mul[xs]
        if triple_axioms["add-associativity"]:
            mismatch = add[a_rows] != a_rows[:, add]
            if mismatch.any():
                violations.append(
                    AxiomViolation("add-associativity", _first_witness(mismatch, x0))
                )
                triple_axioms["add-associativity"] = False
        if triple_axioms["mul-associativity"]:
            mismatch = mul[m_rows] != m_rows[:, mul]
            if mismatch.any():
                violations.append(
                    AxiomViolation("mul-associativity", _first_witness(mismatch, x0))
                )
                triple_axioms["mul-associativity"] = False
        if triple_axioms["left-distributivity"]:
            mismatch = m_rows[:, add] != add[m_rows[:, :, None], m_rows[:, None, :]]
            if mismatch.any():
                violations.append(
                    AxiomViolation("left-distributivity", _first_witness(mismatch, x0))
                )
                triple_axioms["left-distributivity"] = False
        if triple_axioms["right-distributivity"]:
            cols = mul[:, xs].T
            mismatch = cols[:, add] != add[cols[:, :, None], cols[:, None, :]]
            if mismatch.any():
                # mismatch is indexed [z, x, y] for (x+y)z != xz+yz;
                # reorder so the witness reads (x, y, z) like the
                # sampled path reports it
                z, x, y = _first_witness(mismatch, x0)
                violations.append(
                    AxiomViolation("right-distributivity", (x, y, z))
                )
                triple_axioms["right-distributivity"] = False
    return violations


def validate_ring(ring: FiniteRing, *, sample_seed: int = VALIDATION_SEED) -> ValidationReport:
    """Check the unital-ring axioms against the compiled tables.

    The pair-quantified axioms (additive commutativity, two-sided zero
    and one, additive inverses) are checked on all n^2 pairs at every
    size.  For the triple-quantified axioms (both associativities, both
    distributive laws), rings of at most 256 elements are covered
    exhaustively:

    - once the pair axioms pass, :func:`_certify_triple_axioms` proves
      all four in O(n^2 k) gathers, k <= log2 n generators, through its
      four steps in soundness order: generators, additive associativity
      (Light's test), distributivity, multiplicative associativity on
      generator triples;
    - when a pair axiom or a certificate step fails, which happens only
      on a table that is not a ring, :func:`_scan_triple_axioms` scans
      all n^3 triples and reports the lexicographically first witness of
      each violated axiom.

    So a passing ring costs n^2 pair checks plus O(n^2 k) certificate
    gathers, and n^3 is paid only on a failing table, whose report is
    the full scan's.  Larger rings get every pair-quantified axiom plus
    a seeded sample of size^2 triples, with the sampling mode recorded
    in the report.  Structural totality (square tables, in-range
    entries) is enforced at construction time and raises
    MalformedTableError there, so this scan only ever judges axioms.
    """
    n = ring.size
    add = ring.add_table
    mul = ring.mul_table
    arange = np.arange(n)
    violations: list[AxiomViolation] = []

    # Pair-quantified axioms, always exhaustive.
    mismatch = add != add.T
    if mismatch.any():
        violations.append(AxiomViolation("add-commutativity", _first_witness(mismatch)))
    bad = add[ring.zero] != arange
    if bad.any():
        violations.append(AxiomViolation("zero-identity", (int(np.argmax(bad)),)))
    else:
        bad = add[:, ring.zero] != arange
        if bad.any():
            violations.append(AxiomViolation("zero-identity", (int(np.argmax(bad)),)))
    no_inverse = ~(add == ring.zero).any(axis=1)
    if no_inverse.any():
        violations.append(AxiomViolation("add-inverse", (int(np.argmax(no_inverse)),)))
    bad = mul[ring.one] != arange
    if bad.any():
        violations.append(AxiomViolation("one-identity", (int(np.argmax(bad)),)))
    else:
        bad = mul[:, ring.one] != arange
        if bad.any():
            violations.append(AxiomViolation("one-identity", (int(np.argmax(bad)),)))

    if n <= FULL_SCAN_LIMIT:
        mode = "exhaustive"
        sampled = 0
        if violations or not _certify_triple_axioms(add, mul, ring.zero):
            violations += _scan_triple_axioms(add, mul)
    else:
        triple_axioms = dict.fromkeys(_TRIPLE_AXIOMS, True)
        mode = "sampled"
        sampled = n * n
        rng = np.random.default_rng(sample_seed)
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

    return ValidationReport(
        ring=ring.spell(),
        size=n,
        mode=mode,
        sampled_triples=sampled,
        sample_seed=sample_seed if mode == "sampled" else None,
        violations=violations,
    )
