"""Per-element and per-ring taxonomy predicates with certificates.

Every ring-level verdict here reduces to a per-element test, and every
False verdict carries a witness, the first element whose test fails,
that re-verifies by direct recomputation.  The central notion is a
spectral idempotent for an element a: an idempotent p in the double
commutant of a such that a + p lands in a designated target set.  Four
targets are supported:

    delta       a + p in delta(R)
    jacobson    a + p in J(R)
    unit        a + p in U(R)
    quasipolar  a + p in U(R) and a*p quasinilpotent

A ring is delta-quasipolar (resp. j-quasipolar, quasipolar) when every
element has at least one spectral idempotent for the matching target.

Four layers here are theorem paths in ``analysis.LAYERS``:
:func:`spectral_mask`, :func:`element_flags`, :func:`clean_flags` and
:func:`is_local`.  On a ring that carries the ``certified`` mark they
answer from theorems about finite rings, T2, T5, T6 and T8, each proved
in the docstring of the code that uses it (T1, delta = J, and T4,
qnil = nil, are in ``analysis``), and need no commutation relation.
Uniquely clean and uniquely delta-clean count the decompositions
a = e + w over the residuals a - e of one n x |Id| block
(:func:`residual_grid`), which fills nothing.  The sweeps of the table
answer on every other table, where no theorem settles the arguments,
and for the checks that state those theorems.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import analysis
from .kernel import Element, ElementSet, FiniteRing

# The set a + p must land in for each spectral flavor, as the sweeps read
# it; the quasipolar flavor also asks a*p to be quasinilpotent (spectral_grid).
_SWEEP_TARGETS = {
    "delta": analysis.delta_sweep_mask,
    "jacobson": analysis.jacobson_mask,
    "unit": analysis.unit_mask,
    "quasipolar": analysis.unit_mask,
}
FLAVORS = tuple(_SWEEP_TARGETS)
# the set the residual w of a clean decomposition a = e + w must lie in
_CLEAN_TARGETS = {name: _SWEEP_TARGETS[name] for name in ("unit", "jacobson", "delta")}
# the flavors and clean targets that are J on a certified ring (T1); each
# flavor's spectral_grid may be taken from the other's
_RADICAL_TWIN = {"delta": "jacobson", "jacobson": "delta"}


def _sweep_target(name: str, kind: str = "spectral flavor"):
    """The target-mask function of a spectral flavor, or of a clean
    target for ``kind`` "clean target"."""
    targets = _CLEAN_TARGETS if kind == "clean target" else _SWEEP_TARGETS
    if name not in targets:
        raise ValueError(f"unknown {kind} {name!r}")
    return targets[name]


# -- what the theorem paths compute, on certified rings --------------------------------


def _square_plus(ring: FiniteRing, a: np.ndarray, sign: int) -> np.ndarray:
    """a*a + a for sign 1, a*a - a for sign -1, elementwise."""
    return ring.apply("add", ring.apply("mul", a, a), a if sign > 0 else ring.neg_rows(a))


def _lift_step(ring: FiniteRing, p: np.ndarray, square: np.ndarray) -> np.ndarray:
    """3p^2 - 2p^3, elementwise, given ``square`` = p^2."""
    cube = ring.apply("mul", square, p)
    three = ring.apply("add", ring.apply("add", square, square), square)
    return ring.apply("add", three, ring.neg_rows(ring.apply("add", cube, cube)))


def _radical_lift(ring: FiniteRing, x: np.ndarray) -> np.ndarray:
    """For elements x of a certified ring with x^2 - x in J, the
    idempotent p = x (mod J), an integer polynomial in x.

    Iterates p <- 3p^2 - 2p^3 on the elements whose p is not yet
    idempotent.  With d = p^2 - p, one step gives d^2 (4d - 3) as the
    new defect and moves p by d (1 - 2p), so p stays in x + J and d
    goes from J^m into J^(2m).  J is nilpotent, J^L = 0 for some
    L <= log2 n, so about log2 log2 n steps reach p^2 = p.
    """
    p = np.array(x, dtype=np.intp)
    for _ in range(ring.size.bit_length() + 1):
        square = ring.apply("mul", p, p)
        live = square != p
        if not live.any():
            return p
        p[live] = _lift_step(ring, p[live], square[live])
    raise AssertionError("the idempotent lift did not settle: the ring axioms fail")


def _power_idempotents(ring: FiniteRing, a: np.ndarray) -> np.ndarray:
    """For each element a of a certified ring, the one idempotent among
    its powers a, a^2, ... (T8), found within n powers.  Cost: two
    gathers per power over the elements still unresolved."""
    a = np.asarray(a, dtype=np.intp)
    found = np.empty_like(a)
    todo, power = np.arange(len(a)), a
    for _ in range(ring.size):
        idempotent = ring.apply("mul", power, power) == power
        found[todo[idempotent]] = power[idempotent]
        todo, power = todo[~idempotent], power[~idempotent]
        if not todo.size:
            return found
        power = ring.apply("mul", power, a[todo])
    raise AssertionError("no idempotent power within n powers: the ring axioms fail")


# -- spectral idempotents ----------------------------------------------------------------


@analysis._cached
def spectral_grid(ring: FiniteRing, flavor: str = "delta") -> np.ndarray:
    """Entry (a, j) says whether idempotent ``idempotent_indices[j]`` is a
    spectral idempotent of a for the target, swept on any table; cached
    and frozen.

    The target comes first: an n x |Id| gather of a + p (and of a*p for
    the quasipolar flavor) through the swept target sets.  The test
    C(a) subset of C(p) then runs only at the candidates, the cells
    where the target holds and p is not central (else C(p) = R), on the
    packed rows of :func:`analysis.comm_matrix`.  Cost: n*|Id| gathers
    plus |candidates|*n/8 byte operations.

    The delta and jacobson grids are the same function of their target
    masks, so the second of them to be asked for is the first one's
    grid when ``np.array_equal`` finds the two masks equal, as on every
    ring; a table whose masks differ pays both sweeps.
    """
    target = _sweep_target(flavor)(ring.fill())  # an unknown flavor raises before the fill
    other = _RADICAL_TWIN.get(flavor)
    twin = None if other is None else ring._cache.get(("spectral_grid", other))
    if twin is not None and np.array_equal(target, _SWEEP_TARGETS[other](ring)):
        return twin
    idl = analysis.idempotent_indices(ring)
    grid = target.take(ring.block("add", None, idl))
    if flavor == "quasipolar":
        grid &= analysis.qnil_sweep_mask(ring).take(ring.block("mul", None, idl))
    a, j = np.nonzero(grid & ~analysis.center_mask(ring)[idl])
    grid[a, j] = analysis.row_subset_pairs(analysis.comm_matrix(ring), a, idl[j])
    return grid


def spectral_sweep_mask(ring: FiniteRing, a: Element, flavor: str = "delta") -> np.ndarray:
    """Boolean mask of all spectral idempotents of a for the target, from
    a row of :func:`spectral_grid`, on any table."""
    ring._check_index(a)
    mask = np.zeros(ring.size, dtype=bool)
    mask[analysis.idempotent_indices(ring)] = spectral_grid(ring, flavor)[a]
    return mask


@analysis.answered(spectral_sweep_mask)
def spectral_mask(ring: FiniteRing, a: Element, flavor: str = "delta") -> np.ndarray | None:
    """Boolean mask of all spectral idempotents of a for the given target,
    on a certified ring: the one idempotent p below, or none; None for a
    flavor that no theorem settles ("unit").

    Delta and jacobson (T2, with T1 for delta): a has a spectral
    idempotent exactly when a^2 + a lies in J, and it is then the lift
    p of -a (:func:`_radical_lift`).  If a + p is in J, then a = -p
    modulo J, so a^2 = p = -a there.  Conversely the lift p of -a is an
    idempotent with a + p in J, and as a polynomial in a it lies in
    comm2(a).  It is the only one: two spectral idempotents p and q of
    a commute (q is in comm2(a) and p commutes with a), and p - q =
    (a + p) - (a + q) is in J; commuting idempotents have
    (p - q)^3 = p - q, and a nilpotent x with x^3 = x is x^(2k+1) = 0.
    Membership of a^2 + a in J is read from its row of the
    multiplication table, by the nil test of T9 (:func:`analysis.in_radical`).

    Quasipolar (T8): the set is {1 - e} for the one idempotent e among
    the powers of a.  The powers close a cycle a^s, ..., a^(s+c-1),
    which is a group under the product: a cyclic group whose identity
    is e = a^k for the k in that range that c divides.  An idempotent
    power repeats, so it lies in the cycle, and a group has one
    idempotent.  a and e commute, so (a(1 - e))^j = a^j - a^j e = 0
    for j >= s: a(1 - e) is nilpotent, hence quasinilpotent (T4).  And
    a + 1 - e = ae + (1 - e)(1 + a), where ae is a unit of eRe (an
    element of the group) and (1 - e)(1 + a) = (1 - e) + a(1 - e) is a
    unit of (1 - e)R(1 - e), its identity plus a commuting nilpotent;
    so a + 1 - e is a unit.  1 - e is a polynomial in a, so it lies in
    comm2(a), and spectral idempotents are unique (Koliha and Patricio,
    "Elements of rings with equal spectral idempotents", 2002).
    """
    ring._check_index(a)
    a = np.array([a], dtype=np.intp)
    if flavor == "quasipolar":
        p = ring.apply("add", ring.one, ring.neg_rows(_power_idempotents(ring, a)))
    elif flavor in _RADICAL_TWIN:
        has = analysis.in_radical(ring, _square_plus(ring, a, 1))[0]
        p = _radical_lift(ring, ring.neg_rows(a)) if has else [-1]
    else:
        return None
    return np.arange(ring.size) == p[0]


def spectral_idempotents(ring: FiniteRing, a: Element, flavor: str = "delta") -> ElementSet:
    """All idempotents witnessing that a is quasipolar for the target.

    Empty exactly when the element is not (delta-/j-/...)quasipolar.
    """
    return ElementSet(ring, spectral_mask(ring, a, flavor))


@analysis._cached
def spectral_sweep_flags(ring: FiniteRing, flavor: str = "delta") -> np.ndarray:
    """Per-element quasipolarity flags read from :func:`spectral_grid`,
    on any table; cached and frozen."""
    return spectral_grid(ring, flavor).any(axis=1)


@analysis.answered(spectral_sweep_flags)
@analysis._cached
def element_flags(ring: FiniteRing, flavor: str = "delta") -> np.ndarray | None:
    """Per-element quasipolarity flags for the target, cached and frozen,
    on a certified ring: one gather J[a*a + a] for delta and jacobson
    (T2), and every element for quasipolar (T8, or T5: a finite ring is
    strongly pi-regular, hence quasipolar)."""
    if flavor == "quasipolar":
        return np.ones(ring.size, dtype=bool)
    if flavor not in _RADICAL_TWIN:
        return None
    return analysis.jacobson_mask(ring).take(_square_plus(ring, np.arange(ring.size), 1))


def ring_quasipolar(ring: FiniteRing, flavor: str = "delta") -> tuple[bool, int | None]:
    """Ring-level verdict plus the lowest-index failing element, if any."""
    return verdict(element_flags(ring, flavor))


def is_delta_quasipolar(ring: FiniteRing) -> tuple[bool, int | None]:
    return ring_quasipolar(ring, "delta")


def is_j_quasipolar(ring: FiniteRing) -> tuple[bool, int | None]:
    return ring_quasipolar(ring, "jacobson")


def is_quasipolar(ring: FiniteRing) -> tuple[bool, int | None]:
    return ring_quasipolar(ring, "quasipolar")


# -- clean-style decompositions a = e + w ------------------------------------------


@analysis._cached
def residual_grid(ring: FiniteRing) -> np.ndarray:
    """Entry (a, j) is the residual a - e_j of a and idempotent
    ``idempotent_indices[j]``: one n x |Id| block of the addition table,
    which fills nothing; cached and frozen."""
    return ring.block("add", None, ring.neg_rows(analysis.idempotent_indices(ring)))


def clean_sweep_flags(
    ring: FiniteRing,
    target: str = "unit",
    *,
    commuting: bool = False,
    unique: bool = False,
) -> np.ndarray:
    """Per-element flags for a = e + w decompositions, swept on any table.

    ``target`` picks where the residual w must lie (unit, jacobson, or
    delta); ``commuting`` additionally requires ew = we, which for
    w = a - e is equivalent to ea = ae; ``unique`` asks for exactly one
    qualifying decomposition instead of at least one.  Cost: an
    n x |Id| gather of the target at the residuals, and only for
    ``commuting`` the relation's |Id| rows, unpacked and transposed.
    """
    good = _sweep_target(target, "clean target")(ring).take(residual_grid(ring))
    if commuting:
        good &= analysis.comm_rows(ring, analysis.idempotent_indices(ring)).T
    counts = good.sum(axis=1)
    return counts == 1 if unique else counts >= 1


@analysis.answered(clean_sweep_flags)
def clean_flags(
    ring: FiniteRing,
    target: str = "unit",
    *,
    commuting: bool = False,
    unique: bool = False,
) -> np.ndarray | None:
    """The flags of :func:`clean_sweep_flags` on a certified ring, or None
    where no theorem settles them: the unit target with ``unique``, which
    the sweep counts, and a target outside unit, jacobson and delta.

    T5 and T8: every element of a finite ring is strongly clean.  By T8
    for -a, -a + 1 - e is a unit u for an idempotent e that is a power
    of -a, so a = (1 - e) + (-u) with 1 - e commuting with a.

    T6: a is J-clean, and strongly J-clean, exactly when a^2 - a is in
    J.  If a = e + j, then a = e modulo J, an idempotent there.
    Conversely the lift p of a (:func:`_radical_lift`) commutes with a
    and has a - p in J.  By T1 the delta targets read the same.  Asking
    for exactly one commuting decomposition leaves a^2 - a in J alone:
    two commuting idempotents in a + J differ by a nilpotent x with
    x^3 = x, which is 0 (see T2).  Without the commutation, the
    decompositions a = e + d are counted by their definition, the
    members of J among the residuals a - e (:func:`residual_grid`).
    """
    if target == "unit":
        return None if unique else np.ones(ring.size, dtype=bool)
    if target not in _RADICAL_TWIN:
        return None
    radical = analysis.jacobson_mask(ring)
    if unique and not commuting:
        return radical.take(residual_grid(ring)).sum(axis=1) == 1
    return radical.take(_square_plus(ring, np.arange(ring.size), -1))


def verdict(flags: np.ndarray) -> tuple[bool, int | None]:
    """(whether every flag holds, the first element whose flag fails)."""
    if flags.all():
        return True, None
    return False, int(np.argmax(~flags))


def is_clean(ring: FiniteRing) -> tuple[bool, int | None]:
    return verdict(clean_flags(ring, "unit"))


def is_strongly_clean(ring: FiniteRing) -> tuple[bool, int | None]:
    return verdict(clean_flags(ring, "unit", commuting=True))


def is_uniquely_clean(ring: FiniteRing) -> tuple[bool, int | None]:
    """Every element is e + u for exactly one idempotent e and unit u."""
    return verdict(clean_flags(ring, "unit", unique=True))


def is_j_clean(ring: FiniteRing) -> tuple[bool, int | None]:
    return verdict(clean_flags(ring, "jacobson"))


def is_strongly_delta_clean(ring: FiniteRing) -> tuple[bool, int | None]:
    return verdict(clean_flags(ring, "delta", commuting=True))


def is_uniquely_delta_clean(ring: FiniteRing, strict_commuting: bool = False) -> tuple[bool, int | None]:
    """Exactly one decomposition a = e + d with e idempotent, d in delta(R).

    The commutation of e and d is not required by default;
    ``strict_commuting`` adds that requirement.  Both readings are
    available because external usage varies; the default is documented
    in the CLI.
    """
    return verdict(clean_flags(ring, "delta", commuting=strict_commuting, unique=True))


def clean_decompositions(ring: FiniteRing, a: Element, target: str = "unit"):
    """All pairs (e, w) with e idempotent, w in the target set, a = e + w.

    Returns a list of (e, w, commuting) triples for certificate display.
    """
    ring._check_index(a)
    idl = analysis.idempotent_indices(ring)
    residual = residual_grid(ring)[a]
    commutes = analysis.comm_mask(ring, a)[idl]
    good = _sweep_target(target, "clean target")(ring)[residual]
    return [(int(idl[j]), int(residual[j]), bool(commutes[j])) for j in np.flatnonzero(good)]


# -- structural ring predicates ------------------------------------------------------


def is_abelian(ring: FiniteRing) -> tuple[bool, int | None]:
    """Every idempotent central; witness is the first non-central
    idempotent.  Idempotent e is central when row e of the
    multiplication table equals column e: 2 |Id| n cells, on any table.
    """
    idl = analysis.idempotent_indices(ring)
    central = (ring.block("mul", idl) == ring.block("mul", None, idl).T).all(axis=1)
    if central.all():
        return True, None
    return False, int(idl[np.argmax(~central)])


def is_local_sweep(ring: FiniteRing) -> tuple[bool, tuple[int, int] | None]:
    """Non-units closed under addition, on any table: one blocked sweep of
    the non-unit square of the addition table (:func:`analysis.first_escape`)."""
    nonunit = ~analysis.unit_mask(ring)
    nonunits = np.flatnonzero(nonunit)
    at = analysis.first_escape(nonunit, ring, "add", nonunits, nonunits)
    if at is not None:
        return False, (int(nonunits[at[0]]), int(nonunits[at[1]]))
    return True, None


@analysis.answered(is_local_sweep)
def is_local(ring: FiniteRing) -> tuple[bool, tuple[int, int] | None]:
    """Non-units closed under addition.

    For a finite unital ring this is equivalent to the non-units forming
    the unique maximal (left) ideal: they are already closed under
    multiplication by anything (a product with a non-unit factor cannot
    be a unit, else that factor would have a one-sided inverse, which is
    two-sided here), so additive closure is the whole question.  The
    witness is the first pair of non-units, in row-major order, whose
    sum is a unit: the first escape of :func:`is_local_sweep`.

    A certified ring is local exactly when |U| + |J| = n (T5), and a
    ring that is not gets its witness from U and J, with no sweep.  U
    and J are disjoint, so |U| + |J| = n says the non-units are J, an
    ideal.  Conversely, if the non-units form an ideal M, then for m in
    M and any r, rm is in M and 1 - rm is not (else 1 would be), so
    1 - rm is a unit and M lies in J.  The witness row is the first
    non-unit x outside J.  Such an x is not in Delta = J (T1), the r
    with 1 - ru a unit for every unit u, so some unit u has 1 - xu a
    non-unit, and y = u^-1 - x = (1 - xu)u^-1 is a non-unit with
    x + y = u^-1 a unit.  A row x in J has no such y: a unit x + y
    makes y = (x + y) - x a unit.  So x's row is the first row of the
    sweep with an escape, and y, the first non-unit with x + y a unit,
    is read from that one row of ``add``: n cells.
    """
    nonunit = ~analysis.unit_mask(ring)
    outside = nonunit & ~analysis.jacobson_mask(ring)
    if not outside.any():  # the non-units are J
        return True, None
    x = int(np.argmax(outside))
    row = ring.block("add", [x])[0]
    return False, (x, int(np.argmax(nonunit & ~nonunit[row])))


def is_strongly_pi_regular(ring: FiniteRing) -> tuple[bool, None]:
    """Every a has a^s = a^(s+1) * b for some s >= 1 and b commuting with a.

    A theorem settles this for every finite ring, so nothing is searched.
    The powers a, a^2, ... take at most n values, so the sequence is
    eventually periodic: a^s = a^(s+m) for some s, m >= 1.  Take
    b = a^(m-1), or b = 1 when m = 1.  Then b commutes with a, and
    a^(s+1) * b = a^(s+m) = a^s.  (More generally every Artinian ring is
    strongly pi-regular, by Azumaya.)  The proof needs the ring axioms,
    so the answer means nothing on a table that fails them (C00).
    """
    return True, None


# -- aggregate report ------------------------------------------------------------------


@dataclass
class ClassificationReport:
    """All taxonomy predicates for one ring, with witnesses for the false ones."""

    ring: str
    size: int
    booleans: dict = field(default_factory=dict)
    sizes: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {"ring": self.ring, "size": self.size}
        out.update(self.booleans)
        out["sizes"] = dict(self.sizes)
        out["witnesses"] = {k: dict(v) for k, v in self.witnesses.items()}
        return out


_WITNESS_REASONS = {
    "delta_quasipolar": "element has no spectral idempotent for target delta",
    "j_quasipolar": "element has no spectral idempotent for target jacobson",
    "quasipolar": "element has no spectral idempotent for target quasipolar",
    "clean": "element is not idempotent + unit",
    "strongly_clean": "element has no commuting idempotent + unit decomposition",
    "uniquely_clean": "element does not have exactly one idempotent + unit decomposition",
    "j_clean": "element is not idempotent + jacobson",
    "strongly_delta_clean": "element has no commuting idempotent + delta decomposition",
    "uniquely_delta_clean": "element does not have exactly one idempotent + delta decomposition",
    "abelian": "idempotent is not central",
    "local": "two non-units add to a unit",
}


def classification_report(ring: FiniteRing, strict_commuting: bool = False) -> ClassificationReport:
    """Evaluate every predicate; field order is fixed for stable output.

    The units are an n^2 sweep, so the ring is filled first, and the
    theorem paths before them gather from the tables instead of reading
    the builder's pointwise arithmetic.
    """
    ring.fill()
    results: dict[str, tuple[bool, object]] = {
        "delta_quasipolar": is_delta_quasipolar(ring),
        "j_quasipolar": is_j_quasipolar(ring),
        "quasipolar": is_quasipolar(ring),
        "clean": is_clean(ring),
        "strongly_clean": is_strongly_clean(ring),
        "uniquely_clean": is_uniquely_clean(ring),
        "j_clean": is_j_clean(ring),
        "strongly_delta_clean": is_strongly_delta_clean(ring),
        "uniquely_delta_clean": is_uniquely_delta_clean(ring, strict_commuting),
        "abelian": is_abelian(ring),
        "local": is_local(ring),
        "strongly_pi_regular": is_strongly_pi_regular(ring),
    }
    report = ClassificationReport(ring=ring.spell(), size=ring.size)
    for name, (ok, witness) in results.items():
        report.booleans[name] = bool(ok)
        if not ok:
            elements = list(witness) if isinstance(witness, tuple) else [witness]
            report.witnesses[name] = {
                "elements": [int(x) for x in elements],
                "names": ring.names_of(elements),
                "reason": _WITNESS_REASONS[name],
            }
    report.sizes = {
        "units": len(analysis.units(ring)),
        "idempotents": len(analysis.idempotents(ring)),
        "nilpotents": len(analysis.nilpotents(ring)),
        "jacobson": len(analysis.jacobson_radical(ring)),
        "delta": len(analysis.delta(ring)),
        "qnil": len(analysis.qnil(ring)),
    }
    return report
