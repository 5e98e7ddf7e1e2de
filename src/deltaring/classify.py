"""Per-element and per-ring taxonomy predicates with certificates.

Every ring-level verdict here reduces to an exhaustive per-element scan,
and every False verdict carries a witness that re-verifies by direct
recomputation.  The central notion is a spectral idempotent for an
element a: an idempotent p in the double commutant of a such that a + p
lands in a designated target set.  Four targets are supported:

    delta       a + p in delta(R)
    jacobson    a + p in J(R)
    unit        a + p in U(R)
    quasipolar  a + p in U(R) and a*p quasinilpotent

A ring is delta-quasipolar (resp. j-quasipolar, quasipolar) when every
element has at least one spectral idempotent for the matching target.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import analysis
from .kernel import Element, ElementSet, FiniteRing

FLAVORS = ("delta", "jacobson", "unit", "quasipolar")


def _target_mask(ring: FiniteRing, flavor: str) -> np.ndarray:
    if flavor == "delta":
        return analysis.delta_mask(ring)
    if flavor == "jacobson":
        return analysis.jacobson_mask(ring)
    if flavor in ("unit", "quasipolar"):
        return analysis.unit_mask(ring)
    raise ValueError(f"unknown spectral flavor {flavor!r}")


def spectral_grid(ring: FiniteRing, flavor: str = "delta") -> np.ndarray:
    """Entry (a, j) says whether idempotent ``idempotent_indices[j]`` is a
    spectral idempotent of a for the target; cached and frozen.

    p lies in comm2(a) exactly when C(a) is a subset of C(p), so the
    double-commutant test for every pair is one row-subset grid over the
    commutation matrix: |Id|*n^2/8 byte operations, plus an n x |Id|
    gather of a + p (and of a*p for the quasipolar flavor).
    """

    def compute():
        idl = analysis.idempotent_indices(ring)
        grid = _target_mask(ring, flavor)[ring.add_table[:, idl]]
        grid &= analysis.row_subset_grid(analysis.comm_matrix(ring), idl)
        if flavor == "quasipolar":
            grid &= analysis.qnil_mask(ring)[ring.mul_table[:, idl]]
        return analysis._frozen(grid)

    return analysis._cached(ring, ("spectral_grid", flavor), compute)


def spectral_mask(ring: FiniteRing, a: Element, flavor: str = "delta") -> np.ndarray:
    """Boolean mask of all spectral idempotents of a for the given target."""
    ring._check_index(a)
    mask = np.zeros(ring.size, dtype=bool)
    mask[analysis.idempotent_indices(ring)] = spectral_grid(ring, flavor)[a]
    return mask


def spectral_idempotents(ring: FiniteRing, a: Element, flavor: str = "delta") -> ElementSet:
    """All idempotents witnessing that a is quasipolar for the target.

    Empty exactly when the element is not (delta-/j-/...)quasipolar.
    """
    return ElementSet.from_bool_array(ring, spectral_mask(ring, a, flavor))


def element_flags(ring: FiniteRing, flavor: str = "delta") -> np.ndarray:
    """Per-element quasipolarity flags for the target, cached and frozen."""
    return analysis._cached(
        ring,
        ("qp_elements", flavor),
        lambda: analysis._frozen(spectral_grid(ring, flavor).any(axis=1)),
    )


def ring_quasipolar(ring: FiniteRing, flavor: str = "delta") -> tuple[bool, int | None]:
    """Ring-level verdict plus the lowest-index failing element, if any."""
    return _ring_verdict(element_flags(ring, flavor))


def is_delta_quasipolar(ring: FiniteRing) -> tuple[bool, int | None]:
    return ring_quasipolar(ring, "delta")


def is_j_quasipolar(ring: FiniteRing) -> tuple[bool, int | None]:
    return ring_quasipolar(ring, "jacobson")


def is_quasipolar(ring: FiniteRing) -> tuple[bool, int | None]:
    return ring_quasipolar(ring, "quasipolar")


# -- clean-style decompositions a = e + w ------------------------------------------


def _decomposition_grid(ring: FiniteRing) -> tuple[np.ndarray, np.ndarray]:
    """For every element a and idempotent e_j: the residual a - e_j and
    whether a commutes with e_j."""

    def compute():
        idl = analysis.idempotent_indices(ring)
        residual = ring.add_table[:, ring.neg_table[idl]]
        commutes = analysis.comm_matrix(ring)[:, idl]
        return analysis._frozen(residual), analysis._frozen(commutes)

    return analysis._cached(ring, "decomposition_grid", compute)


_CLEAN_TARGETS = {
    "unit": analysis.unit_mask,
    "jacobson": analysis.jacobson_mask,
    "delta": analysis.delta_mask,
}


def clean_flags(
    ring: FiniteRing,
    target: str = "unit",
    *,
    commuting: bool = False,
    unique: bool = False,
) -> np.ndarray:
    """Per-element flags for a = e + w decompositions.

    ``target`` picks where the residual w must lie (unit, jacobson, or
    delta); ``commuting`` additionally requires ew = we, which for
    w = a - e is equivalent to ea = ae; ``unique`` asks for exactly one
    qualifying decomposition instead of at least one.
    """
    residual, commutes = _decomposition_grid(ring)
    good = _CLEAN_TARGETS[target](ring)[residual]
    if commuting:
        good = good & commutes
    counts = good.sum(axis=1)
    return counts == 1 if unique else counts >= 1


def _ring_verdict(flags: np.ndarray) -> tuple[bool, int | None]:
    if flags.all():
        return True, None
    return False, int(np.argmax(~flags))


def is_clean(ring: FiniteRing) -> tuple[bool, int | None]:
    return _ring_verdict(clean_flags(ring, "unit"))


def is_strongly_clean(ring: FiniteRing) -> tuple[bool, int | None]:
    return _ring_verdict(clean_flags(ring, "unit", commuting=True))


def is_uniquely_clean(ring: FiniteRing) -> tuple[bool, int | None]:
    return _ring_verdict(clean_flags(ring, "unit", unique=True))


def is_j_clean(ring: FiniteRing) -> tuple[bool, int | None]:
    return _ring_verdict(clean_flags(ring, "jacobson"))


def is_strongly_delta_clean(ring: FiniteRing) -> tuple[bool, int | None]:
    return _ring_verdict(clean_flags(ring, "delta", commuting=True))


def is_uniquely_delta_clean(ring: FiniteRing, strict_commuting: bool = False) -> tuple[bool, int | None]:
    """Exactly one decomposition a = e + d with e idempotent, d in delta(R).

    The commutation of e and d is not required by default;
    ``strict_commuting`` adds that requirement.  Both readings are
    available because external usage varies; the default is documented
    in the CLI.
    """
    return _ring_verdict(clean_flags(ring, "delta", commuting=strict_commuting, unique=True))


def clean_decompositions(ring: FiniteRing, a: Element, target: str = "unit"):
    """All pairs (e, w) with e idempotent, w in the target set, a = e + w.

    Returns a list of (e, w, commuting) triples for certificate display.
    """
    ring._check_index(a)
    idl = analysis.idempotent_indices(ring)
    residual, commutes = _decomposition_grid(ring)
    good = _CLEAN_TARGETS[target](ring)[residual[a]]
    out = []
    for j in np.flatnonzero(good):
        e = int(idl[j])
        w = int(residual[a, j])
        out.append((e, w, bool(commutes[a, j])))
    return out


# -- structural ring predicates ------------------------------------------------------


def is_abelian(ring: FiniteRing) -> tuple[bool, int | None]:
    """Every idempotent central; witness is a non-central idempotent."""
    bad = analysis.idempotent_mask(ring) & ~analysis.center_mask(ring)
    if bad.any():
        return False, int(np.argmax(bad))
    return True, None


def is_local(ring: FiniteRing) -> tuple[bool, tuple[int, int] | None]:
    """Non-units closed under addition.

    For a finite unital ring this is equivalent to the non-units forming
    the unique maximal (left) ideal: they are already closed under
    multiplication by anything (a product with a non-unit factor cannot
    be a unit, else that factor would have a one-sided inverse, which is
    two-sided here), so additive closure is the whole question.  The
    witness is a pair of non-units whose sum is a unit.
    """
    nonunits = np.flatnonzero(~analysis.unit_mask(ring))
    sums = ring.add_table[np.ix_(nonunits, nonunits)]
    bad = analysis.unit_mask(ring)[sums]
    if bad.any():
        i, j = np.argwhere(bad)[0]
        return False, (int(nonunits[i]), int(nonunits[j]))
    return True, None


def is_strongly_pi_regular(ring: FiniteRing) -> tuple[bool, int | None]:
    """Every a has a^n = a^(n+1) * b for some n <= size and b commuting with a.

    The exponent is searched upward from 1; power sequences in a finite
    ring enter a cycle within size steps, so the bound is exhaustive.
    """
    comm = analysis.comm_matrix(ring)
    mul = ring.mul_table
    for a in range(ring.size):
        commuters = np.flatnonzero(comm[a])
        power = a
        found = False
        for _ in range(ring.size):
            next_power = int(mul[power, a])
            if (mul[next_power, commuters] == power).any():
                found = True
                break
            power = next_power
        if not found:
            return False, a
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
    "strongly_pi_regular": "no exponent and commuting witness found",
}


def classification_report(ring: FiniteRing, strict_commuting: bool = False) -> ClassificationReport:
    """Evaluate every predicate; field order is fixed for stable output."""
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
                "names": [ring.element_name(int(x)) for x in elements],
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
