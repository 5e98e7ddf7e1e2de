"""Corpus-quantified verification checks C00 - C31.

Each check states one property of a single ring (sometimes reaching into
the ring's construction provenance for component rings) and returns one
of four verdicts:

    PASS            hypothesis applied, assertion verified
    FAIL            assertion violated; witness re-verifies independently
    NOT-APPLICABLE  the ring does not satisfy the check's hypothesis
    VACUOUS         hypothesis applied but quantified over nothing,
                    recorded explicitly rather than silently passing

C00 is the axiom gate: when it fails on a ring, every other check on
that ring is reported NOT-APPLICABLE (and the C00 failure row is always
included, even under a --check filter, so a corrupted ring can never
yield a clean filtered report).  Checks never claim more than
non-falsification over the corpus at hand.

Results are deterministic: checks run per ring, possibly across worker
threads, and the report is assembled in corpus order regardless of
scheduling.  Timing is measured but only serialized on request.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from . import analysis, classify, constructions, ringspec
from .kernel import ElementSet, FiniteRing, RingError, validate_ring

PASS = "PASS"
FAIL = "FAIL"
NOT_APPLICABLE = "NOT-APPLICABLE"
VACUOUS = "VACUOUS"


@dataclass
class CheckResult:
    check: str
    ring: str
    verdict: str
    witness: dict | None = None
    note: str | None = None
    millis: float = 0.0

    def to_dict(self, timing: bool = False) -> dict:
        out = {"check": self.check, "ring": self.ring, "verdict": self.verdict}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.note is not None:
            out["note"] = self.note
        if timing:
            out["millis"] = round(self.millis, 3)
        return out


@dataclass
class SuiteReport:
    corpus: list = field(default_factory=list)  # (spec_text, size) pairs
    results: list = field(default_factory=list)

    def summary(self) -> dict:
        counts = {"pass": 0, "fail": 0, "na": 0, "vacuous": 0}
        keymap = {PASS: "pass", FAIL: "fail", NOT_APPLICABLE: "na", VACUOUS: "vacuous"}
        for result in self.results:
            counts[keymap[result.verdict]] += 1
        return counts

    def failures(self) -> list:
        return [r for r in self.results if r.verdict == FAIL]

    def to_dict(self, timing: bool = False) -> dict:
        out = {
            "corpus": [{"spec": spec, "size": size} for spec, size in self.corpus],
            "results": [r.to_dict(timing) for r in self.results],
            "summary": self.summary(),
        }
        if timing:
            out["summary"]["total_millis"] = round(sum(r.millis for r in self.results), 3)
        return out

    def to_markdown(self, timing: bool = False) -> str:
        lines = ["# Verification suite", ""]
        counts = self.summary()
        lines.append(
            f"{len(self.corpus)} rings, {len(self.results)} results: "
            f"{counts['pass']} pass, {counts['fail']} fail, "
            f"{counts['na']} not applicable, {counts['vacuous']} vacuous."
        )
        if timing:
            total = sum(r.millis for r in self.results)
            lines.append(f"Total check time: {total:.1f} ms.")
        lines.append("")
        lines.append("| check | statement | pass | fail | n/a | vacuous |")
        lines.append("|-------|-----------|------|------|-----|---------|")
        per_check: dict[str, dict[str, int]] = {}
        for result in self.results:
            row = per_check.setdefault(
                result.check, {PASS: 0, FAIL: 0, NOT_APPLICABLE: 0, VACUOUS: 0}
            )
            row[result.verdict] += 1
        for check_id in sorted(per_check):
            row = per_check[check_id]
            statement = CHECKS[check_id].statement if check_id in CHECKS else ""
            lines.append(
                f"| {check_id} | {statement} | {row[PASS]} | {row[FAIL]} "
                f"| {row[NOT_APPLICABLE]} | {row[VACUOUS]} |"
            )
        failures = self.failures()
        if failures:
            lines.append("")
            lines.append("## Failures")
            for result in failures:
                detail = ""
                if result.witness is not None:
                    detail = f" witness: {result.witness}"
                if result.note:
                    detail += f" note: {result.note}"
                lines.append(f"- {result.check} on {result.ring}:{detail}")
        vacuous = [r for r in self.results if r.verdict == VACUOUS]
        if vacuous:
            lines.append("")
            lines.append("## Vacuous")
            for result in vacuous:
                lines.append(f"- {result.check} on {result.ring}: {result.note}")
        lines.append("")
        return "\n".join(lines)


@dataclass
class SuiteContext:
    strict_commuting: bool = False


def _witness(ring: FiniteRing, elements, detail: str) -> dict:
    elements = [int(x) for x in elements]
    return {
        "elements": elements,
        "names": [ring.element_name(x) for x in elements],
        "detail": detail,
    }


def _verdict(verdict: str, witness: dict | None = None, note: str | None = None):
    return verdict, witness, note


# -- individual check bodies ----------------------------------------------------------


def _c00_axioms(ring: FiniteRing, ctx: SuiteContext):
    report = validate_ring(ring)
    if report.ok:
        return _verdict(PASS, note=f"{report.mode} scan")
    violation = report.violations[0]
    witness = _witness(ring, violation.witness, f"axiom {violation.axiom} violated")
    all_axioms = ", ".join(v.axiom for v in report.violations)
    return _verdict(FAIL, witness, note=f"violated: {all_axioms} ({report.mode} scan)")


def _c01_forms_agree(ring: FiniteRing, ctx: SuiteContext):
    primary = analysis.delta(ring)
    labels = ("x+u form", "xu+1 form", "ux+1 form")
    for label, variant in zip(labels, analysis.delta_alternative_forms(ring)):
        if variant != primary:
            diff = (variant ^ primary).indices()
            witness = _witness(ring, diff[:1], f"{label} disagrees with the 1-xu form")
            return _verdict(FAIL, witness)
    return _verdict(PASS)


def _c02_unit_stability(ring: FiniteRing, ctx: SuiteContext):
    dmask = analysis.delta_mask(ring)
    dl = np.flatnonzero(dmask)
    ul = analysis.unit_indices(ring)
    right = ring.mul_table[np.ix_(dl, ul)]
    if not dmask[right].all():
        i, j = np.argwhere(~dmask[right])[0]
        d, u = int(dl[i]), int(ul[j])
        return _verdict(FAIL, _witness(ring, [d, u], "d*u escapes delta"))
    left = ring.mul_table[np.ix_(ul, dl)]
    if not dmask[left].all():
        i, j = np.argwhere(~dmask[left])[0]
        u, d = int(ul[i]), int(dl[j])
        return _verdict(FAIL, _witness(ring, [u, d], "u*d escapes delta"))
    return _verdict(PASS)


def _c03_subring(ring: FiniteRing, ctx: SuiteContext):
    dmask = analysis.delta_mask(ring)
    if not dmask[ring.zero]:
        return _verdict(FAIL, _witness(ring, [ring.zero], "zero missing from delta"))
    dl = np.flatnonzero(dmask)
    diffs = ring.add_table[np.ix_(dl, ring.neg_table[dl])]
    if not dmask[diffs].all():
        i, j = np.argwhere(~dmask[diffs])[0]
        return _verdict(
            FAIL, _witness(ring, [int(dl[i]), int(dl[j])], "difference escapes delta")
        )
    prods = ring.mul_table[np.ix_(dl, dl)]
    if not dmask[prods].all():
        i, j = np.argwhere(~dmask[prods])[0]
        return _verdict(
            FAIL, _witness(ring, [int(dl[i]), int(dl[j])], "product escapes delta")
        )
    return _verdict(PASS)


def _is_two_sided_ideal(ring: FiniteRing, mask: np.ndarray):
    """Returns (bool, witness elements, description)."""
    members = np.flatnonzero(mask)
    sums = ring.add_table[np.ix_(members, members)]
    if not mask[sums].all():
        i, j = np.argwhere(~mask[sums])[0]
        return False, [int(members[i]), int(members[j])], "not closed under addition"
    for label, table in (("left", ring.mul_table[:, members]), ("right", ring.mul_table[members, :])):
        if not mask[table].all():
            at = np.argwhere(~mask[table])[0]
            if label == "left":
                pair = [int(at[0]), int(members[at[1]])]
            else:
                pair = [int(members[at[0]]), int(at[1])]
            return False, pair, f"not closed under {label} multiplication"
    return True, None, None


def _c04_ideal_iff_radical(ring: FiniteRing, ctx: SuiteContext):
    dmask = analysis.delta_mask(ring)
    is_ideal, pair, why = _is_two_sided_ideal(ring, dmask)
    equals_radical = analysis.delta(ring) == analysis.jacobson_radical(ring)
    if is_ideal == equals_radical:
        return _verdict(PASS, note=f"ideal={is_ideal}, delta==radical={equals_radical}")
    if is_ideal:
        diff = (analysis.delta(ring) ^ analysis.jacobson_radical(ring)).indices()
        witness = _witness(ring, diff[:1], "delta is an ideal yet differs from the radical")
    else:
        witness = _witness(ring, pair, f"delta equals the radical yet is {why}")
    return _verdict(FAIL, witness)


def _c05_product_delta(ring: FiniteRing, ctx: SuiteContext):
    prov = ring.provenance
    if not isinstance(prov, constructions.ProductProvenance):
        return _verdict(NOT_APPLICABLE, note="applies to direct products")
    sn = prov.right.size
    arange = np.arange(ring.size)
    expected = analysis.delta_mask(prov.left)[arange // sn] & analysis.delta_mask(prov.right)[arange % sn]
    actual = analysis.delta_mask(ring)
    if (expected == actual).all():
        return _verdict(PASS)
    bad = int(np.argmax(expected != actual))
    side = "missing from" if expected[bad] else "extra in"
    return _verdict(FAIL, _witness(ring, [bad], f"element {side} the componentwise product"))


def _c06_central_units_qnil(ring: FiniteRing, ctx: SuiteContext):
    central_units = ~analysis.unit_mask(ring) | analysis.center_mask(ring)
    if not central_units.all():
        u = int(np.argmax(~central_units))
        return _verdict(NOT_APPLICABLE, note=f"unit {u} is not central")
    escaped = analysis.qnil_mask(ring) & ~analysis.delta_mask(ring)
    if escaped.any():
        a = int(np.argmax(escaped))
        return _verdict(FAIL, _witness(ring, [a], "quasinilpotent outside delta"))
    return _verdict(PASS)


def _c07_triangular_delta(ring: FiniteRing, ctx: SuiteContext):
    prov = ring.provenance
    if not (
        isinstance(prov, constructions.MatrixProvenance)
        and prov.kind == "upper_triangular"
    ):
        return _verdict(NOT_APPLICABLE, note="applies to upper-triangular matrix rings")
    base_delta = analysis.delta_mask(prov.base)
    expected = np.ones(ring.size, dtype=bool)
    for i in range(prov.k):
        expected &= base_delta[prov.grid[:, i, i]]
    actual = analysis.delta_mask(ring)
    if (expected == actual).all():
        return _verdict(PASS, note="delta = diagonal-in-base-delta, strict upper free")
    bad = int(np.argmax(expected != actual))
    side = "missing from" if expected[bad] else "extra in"
    return _verdict(FAIL, _witness(ring, [bad], f"element {side} the diagonal formula"))


def _c08_delta_members_qp(ring: FiniteRing, ctx: SuiteContext):
    flags = classify.element_flags(ring, "delta")
    bad = analysis.delta_mask(ring) & ~flags
    if bad.any():
        d = int(np.argmax(bad))
        return _verdict(FAIL, _witness(ring, [d], "delta member with empty spectral set"))
    return _verdict(PASS)


def _c09_j_spectral_subset(ring: FiniteRing, ctx: SuiteContext):
    bad = classify.spectral_grid(ring, "jacobson") & ~classify.spectral_grid(ring, "delta")
    if bad.any():
        a, j = np.argwhere(bad)[0]
        p = analysis.idempotent_indices(ring)[j]
        return _verdict(FAIL, _witness(ring, [a, p], "jacobson-spectral p not delta-spectral"))
    return _verdict(PASS)


def _c10_negated_shift(ring: FiniteRing, ctx: SuiteContext):
    flags = classify.element_flags(ring, "delta")
    image = ring.neg_table[ring.add_table[ring.one]]
    bad = flags & ~flags[image]
    if bad.any():
        a = int(np.argmax(bad))
        return _verdict(
            FAIL, _witness(ring, [a, int(image[a])], "-1-a loses delta-quasipolarity")
        )
    return _verdict(PASS)


def _c11_strongly_delta_clean(ring: FiniteRing, ctx: SuiteContext):
    dqp, dqp_witness = classify.is_delta_quasipolar(ring)
    abelian, _ = classify.is_abelian(ring)
    sdc, sdc_witness = classify.is_strongly_delta_clean(ring)
    if not dqp and not (abelian and sdc):
        return _verdict(
            NOT_APPLICABLE, note="neither delta-quasipolar nor abelian strongly delta-clean"
        )
    if dqp and not sdc:
        return _verdict(
            FAIL, _witness(ring, [sdc_witness], "delta-quasipolar but not strongly delta-clean")
        )
    if abelian and sdc and not dqp:
        return _verdict(
            FAIL,
            _witness(ring, [dqp_witness], "abelian strongly delta-clean but not delta-quasipolar"),
        )
    return _verdict(PASS)


def _c12_abelian_equivalences(ring: FiniteRing, ctx: SuiteContext):
    abelian, _ = classify.is_abelian(ring)
    if not abelian:
        return _verdict(NOT_APPLICABLE, note="applies to abelian rings")
    dqp, a = classify.is_delta_quasipolar(ring)
    sdc, b = classify.is_strongly_delta_clean(ring)
    uc, c = classify.is_uniquely_clean(ring)
    if dqp == sdc == uc:
        return _verdict(PASS, note=f"all three {'hold' if dqp else 'fail'}")
    pieces = f"delta-quasipolar={dqp}, strongly delta-clean={sdc}, uniquely clean={uc}"
    witness_elt = next(w for w in (a, b, c) if w is not None)
    return _verdict(FAIL, _witness(ring, [witness_elt], pieces))


def _c13_t2z2_profile(ring: FiniteRing, ctx: SuiteContext):
    if ring.spell() != "T(2, Z2)":
        return _verdict(NOT_APPLICABLE, note="applies to the ring T(2, Z2)")
    dqp, w1 = classify.is_delta_quasipolar(ring)
    abelian, w2 = classify.is_abelian(ring)
    uc, w3 = classify.is_uniquely_clean(ring)
    if dqp and not abelian and not uc:
        return _verdict(PASS, note="delta-quasipolar, not abelian, not uniquely clean")
    bad = w1 if not dqp else (w2 if abelian else w3)
    profile = f"delta-quasipolar={dqp}, abelian={abelian}, uniquely clean={uc}"
    return _verdict(FAIL, _witness(ring, [bad if bad is not None else ring.zero], profile))


def _c14_uniquely_clean_implications(ring: FiniteRing, ctx: SuiteContext):
    uc, _ = classify.is_uniquely_clean(ring)
    udc, _ = classify.is_uniquely_delta_clean(ring, ctx.strict_commuting)
    if not uc and not udc:
        return _verdict(NOT_APPLICABLE, note="neither uniquely clean nor uniquely delta-clean")
    dqp, witness = classify.is_delta_quasipolar(ring)
    if dqp:
        held = []
        if uc:
            held.append("uniquely clean")
        if udc:
            held.append("uniquely delta-clean")
        return _verdict(PASS, note=f"premises: {', '.join(held)}")
    premise = "uniquely clean" if uc else "uniquely delta-clean"
    return _verdict(FAIL, _witness(ring, [witness], f"{premise} ring fails delta-quasipolarity"))


def _c15_two_in_delta(ring: FiniteRing, ctx: SuiteContext):
    dqp, _ = classify.is_delta_quasipolar(ring)
    if not dqp:
        return _verdict(NOT_APPLICABLE, note="applies to delta-quasipolar rings")
    two = ring.add(ring.one, ring.one)
    if analysis.delta_mask(ring)[two]:
        return _verdict(PASS, note=f"2 is element {two}")
    return _verdict(FAIL, _witness(ring, [two], "1+1 escapes delta"))


def _c16_matrix_qnil_gap(ring: FiniteRing, ctx: SuiteContext):
    prov = ring.provenance
    if not (isinstance(prov, constructions.MatrixProvenance) and prov.kind == "matrix" and prov.k >= 2):
        return _verdict(NOT_APPLICABLE, note="applies to full matrix rings of dimension >= 2")
    if analysis.delta(ring) != analysis.jacobson_radical(ring):
        diff = (analysis.delta(ring) ^ analysis.jacobson_radical(ring)).indices()
        return _verdict(FAIL, _witness(ring, diff[:1], "delta differs from the radical"))
    e12 = constructions.matrix_unit_index(ring, 0, 1)
    if not analysis.qnil_mask(ring)[e12]:
        return _verdict(FAIL, _witness(ring, [e12], "expected quasinilpotent is not"))
    if analysis.delta_mask(ring)[e12]:
        return _verdict(FAIL, _witness(ring, [e12], "expected escapee lies in delta"))
    return _verdict(PASS, note="delta = radical; a quasinilpotent stays outside")


def _c17_conjugation(ring: FiniteRing, ctx: SuiteContext):
    flags = classify.element_flags(ring, "delta")
    inv = ring.inverse_table()
    for u in analysis.unit_indices(ring):
        conj = ring.mul_table[ring.mul_table[int(inv[u])], u]
        bad = flags & ~flags[conj]
        if bad.any():
            a = int(np.argmax(bad))
            return _verdict(
                FAIL, _witness(ring, [a, int(u)], "conjugate loses delta-quasipolarity")
            )
    return _verdict(PASS)


def _sole_spectral_idempotent(ring: FiniteRing, members: np.ndarray, p: int, detail: str):
    """In a delta-quasipolar ring, every member's delta-spectral set is {p}.

    The witness is the first member whose set differs, then its set.
    """
    dqp, _ = classify.is_delta_quasipolar(ring)
    if not dqp:
        return _verdict(NOT_APPLICABLE, note="applies to delta-quasipolar rings")
    idl = analysis.idempotent_indices(ring)
    grid = classify.spectral_grid(ring, "delta")
    bad = members & (grid != (idl == p)).any(axis=1)
    if bad.any():
        a = int(np.argmax(bad))
        return _verdict(FAIL, _witness(ring, [a, *idl[grid[a]]], detail))
    return _verdict(PASS)


def _c18_unit_spectral(ring: FiniteRing, ctx: SuiteContext):
    return _sole_spectral_idempotent(
        ring, analysis.unit_mask(ring), ring.one, "unit spectral set differs from {1}"
    )


def _c19_nilpotent_spectral(ring: FiniteRing, ctx: SuiteContext):
    return _sole_spectral_idempotent(
        ring, analysis.nilpotent_mask(ring), ring.zero, "nilpotent spectral set differs from {0}"
    )


def _c20_nil_in_delta(ring: FiniteRing, ctx: SuiteContext):
    dqp, _ = classify.is_delta_quasipolar(ring)
    if not dqp:
        return _verdict(NOT_APPLICABLE, note="applies to delta-quasipolar rings")
    escaped = analysis.nilpotent_mask(ring) & ~analysis.delta_mask(ring)
    if escaped.any():
        a = int(np.argmax(escaped))
        return _verdict(FAIL, _witness(ring, [a], "nilpotent outside delta"))
    return _verdict(PASS)


def _c21_unit_variant(ring: FiniteRing, ctx: SuiteContext):
    dqp, _ = classify.is_delta_quasipolar(ring)
    if not dqp:
        return _verdict(NOT_APPLICABLE, note="applies to delta-quasipolar rings")
    flags = classify.element_flags(ring, "unit")
    if flags.all():
        return _verdict(PASS)
    a = int(np.argmax(~flags))
    return _verdict(FAIL, _witness(ring, [a], "no idempotent p in comm2(a) with a+p a unit"))


def _c22_ideal_when_two_unit(ring: FiniteRing, ctx: SuiteContext):
    dqp, _ = classify.is_delta_quasipolar(ring)
    if not dqp:
        return _verdict(NOT_APPLICABLE, note="applies to delta-quasipolar rings")
    two = ring.add(ring.one, ring.one)
    if not analysis.unit_mask(ring)[two]:
        in_delta = bool(analysis.delta_mask(ring)[two])
        return _verdict(
            VACUOUS,
            note=f"2 (element {two}) is not a unit; 2 in delta(R): {in_delta}",
        )
    is_ideal, pair, why = _is_two_sided_ideal(ring, analysis.delta_mask(ring))
    if is_ideal:
        return _verdict(PASS, note="2 is a unit and delta is an ideal")
    return _verdict(FAIL, _witness(ring, pair, f"2 is a unit yet delta is {why}"))


def _c23_local_equivalences(ring: FiniteRing, ctx: SuiteContext):
    dqp, _ = classify.is_delta_quasipolar(ring)
    local, _ = classify.is_local(ring)
    trivial_idempotents = len(analysis.idempotents(ring)) == 2
    radical_index_two = ring.size == 2 * len(analysis.jacobson_radical(ring))
    legs = {
        "local and delta-quasipolar": local and dqp,
        "delta-quasipolar with only trivial idempotents": dqp and trivial_idempotents,
        "radical of index 2": radical_index_two,
    }
    values = set(legs.values())
    if len(values) == 1:
        return _verdict(PASS, note=f"all three legs {'hold' if values.pop() else 'fail'}")
    detail = "; ".join(f"{k}={v}" for k, v in legs.items())
    return _verdict(FAIL, _witness(ring, [ring.one], detail))


def _c24_annihilators(ring: FiniteRing, ctx: SuiteContext):
    zero = ring.mul_table == ring.zero  # (x, y): x*y == 0
    idl = analysis.idempotent_indices(ring)
    left_ok = analysis.row_subset_grid(zero.T, idl)  # ann_left(a) within ann_left(p)
    right_ok = analysis.row_subset_grid(zero, idl)  # ann_right(a) within ann_right(p)
    bad = classify.spectral_grid(ring, "delta") & ~(left_ok & right_ok)
    if not bad.any():
        return _verdict(PASS)
    a, j = np.argwhere(bad)[0]
    p = idl[j]
    if not left_ok[a, j]:
        x = np.argmax(zero[:, a] & ~zero[:, p])
        return _verdict(FAIL, _witness(ring, [a, p, x], "x*a = 0 but x*p != 0"))
    x = np.argmax(zero[a] & ~zero[p])
    return _verdict(FAIL, _witness(ring, [a, p, x], "a*x = 0 but p*x != 0"))


def _c25_abelian_j_clean(ring: FiniteRing, ctx: SuiteContext):
    abelian, _ = classify.is_abelian(ring)
    j_clean, _ = classify.is_j_clean(ring)
    if not (abelian and j_clean):
        return _verdict(NOT_APPLICABLE, note="applies to abelian rings with idempotent + radical decompositions")
    dqp, witness = classify.is_delta_quasipolar(ring)
    if dqp:
        return _verdict(PASS)
    return _verdict(FAIL, _witness(ring, [witness], "abelian j-clean ring fails delta-quasipolarity"))


def _c26_pi_regular_equivalence(ring: FiniteRing, ctx: SuiteContext):
    dqp, _ = classify.is_delta_quasipolar(ring)
    if not dqp or analysis.delta(ring) != analysis.jacobson_radical(ring):
        return _verdict(
            NOT_APPLICABLE, note="applies to delta-quasipolar rings with delta equal to the radical"
        )
    spr, spr_witness = classify.is_strongly_pi_regular(ring)
    radical = analysis.jacobson_radical(ring)
    sets_equal = (
        radical == analysis.qnil(ring)
        and radical == analysis.nilpotents(ring)
        and radical == analysis.delta(ring)
    )
    if spr == sets_equal:
        return _verdict(PASS, note=f"both sides {spr}")
    if spr:
        for other in (analysis.qnil(ring), analysis.nilpotents(ring)):
            diff = (radical ^ other).indices()
            if diff:
                return _verdict(
                    FAIL,
                    _witness(ring, diff[:1], "strongly pi-regular yet the four sets differ"),
                )
        return _verdict(FAIL, _witness(ring, [ring.zero], "set mismatch not localized"))
    return _verdict(
        FAIL, _witness(ring, [spr_witness], "sets agree yet strong pi-regularity fails")
    )


def _c27_product_biconditional(ring: FiniteRing, ctx: SuiteContext):
    prov = ring.provenance
    if not isinstance(prov, constructions.ProductProvenance):
        return _verdict(NOT_APPLICABLE, note="applies to direct products")
    whole, whole_witness = classify.is_delta_quasipolar(ring)
    left, left_witness = classify.is_delta_quasipolar(prov.left)
    right, right_witness = classify.is_delta_quasipolar(prov.right)
    if whole == (left and right):
        return _verdict(PASS, note=f"product={whole}, factors=({left}, {right})")
    if whole:
        bad = left_witness if not left else right_witness
        factor = prov.left if not left else prov.right
        witness = {
            "elements": [int(bad)],
            "names": [factor.element_name(int(bad))],
            "detail": f"product is delta-quasipolar but factor {factor.spell()} is not",
        }
        return _verdict(FAIL, witness)
    return _verdict(
        FAIL,
        _witness(ring, [whole_witness], "factors are delta-quasipolar but the product is not"),
    )


def _c28_corners(ring: FiniteRing, ctx: SuiteContext):
    dqp, _ = classify.is_delta_quasipolar(ring)
    if not dqp:
        return _verdict(NOT_APPLICABLE, note="applies to delta-quasipolar rings")
    checked = 0
    for e in analysis.idempotents(ring).indices():
        if e == ring.zero:
            continue
        checked += 1
        if e == ring.one:
            continue  # corner(R, 1) is R itself, already delta-quasipolar
        sub = constructions.corner(ring, e)
        ok, witness = classify.is_delta_quasipolar(sub)
        if not ok:
            corner_witness = {
                "elements": [int(e), int(witness)],
                "names": [ring.element_name(int(e)), sub.element_name(int(witness))],
                "detail": f"corner at idempotent {e} is not delta-quasipolar",
            }
            return _verdict(FAIL, corner_witness)
    return _verdict(PASS, note=f"{checked} corners checked")


def _dorroh_conditions(base: FiniteRing, action: constructions.BimoduleRingAction):
    base_dqp, _ = classify.is_delta_quasipolar(base)
    v = action.v
    idl = np.flatnonzero(analysis.idempotent_mask(base))
    idempotents_commute = bool(
        (action.left[idl, :] == action.right[:, idl].T).all()
    )
    quasi_inverses = True
    for x in range(v.size):
        sums = v.add_table[v.add_table[x], v.mul_table[x]]
        if not (sums == v.zero).any():
            quasi_inverses = False
            break
    return base_dqp, idempotents_commute, quasi_inverses


def _c29_dorroh(ring: FiniteRing, ctx: SuiteContext):
    prov = ring.provenance
    if not isinstance(prov, constructions.DorrohProvenance):
        return _verdict(NOT_APPLICABLE, note="applies to extension rings")
    ext_dqp, ext_witness = classify.is_delta_quasipolar(ring)
    base_dqp, commute, quasi = _dorroh_conditions(prov.base, prov.action)
    profile = (
        f"base delta-quasipolar={base_dqp}, idempotents commute with V={commute}, "
        f"quasi-inverses in V={quasi}, extension delta-quasipolar={ext_dqp}"
    )
    if ext_dqp and not base_dqp:
        _, base_witness = classify.is_delta_quasipolar(prov.base)
        witness = {
            "elements": [int(base_witness)],
            "names": [prov.base.element_name(int(base_witness))],
            "detail": "extension is delta-quasipolar but the base is not",
        }
        return _verdict(FAIL, witness, note=profile)
    if base_dqp and commute and quasi and not ext_dqp:
        return _verdict(
            FAIL,
            _witness(ring, [ext_witness], "all conditions hold but the extension fails"),
            note=profile,
        )
    return _verdict(PASS, note=profile)


def _c30_h_ring(ring: FiniteRing, ctx: SuiteContext):
    prov = ring.provenance
    if not isinstance(prov, constructions.HProvenance):
        return _verdict(NOT_APPLICABLE, note="applies to the constrained 3x3 subrings")
    base = prov.base
    base_units = analysis.unit_mask(base)
    expected_units = base_units[prov.a_of] & base_units[prov.d_of] & base_units[prov.f_of]
    actual_units = analysis.unit_mask(ring)
    if (expected_units != actual_units).any():
        bad = int(np.argmax(expected_units != actual_units))
        return _verdict(FAIL, _witness(ring, [bad], "unit set differs from the (a,d,f) formula"))
    base_delta = analysis.delta_mask(base)
    expected_delta = base_delta[prov.a_of] & base_delta[prov.d_of] & base_delta[prov.f_of]
    actual_delta = analysis.delta_mask(ring)
    if (expected_delta != actual_delta).any():
        bad = int(np.argmax(expected_delta != actual_delta))
        return _verdict(FAIL, _witness(ring, [bad], "delta differs from the (a,d,f) formula"))
    ring_dqp, ring_witness = classify.is_delta_quasipolar(ring)
    base_dqp, base_witness = classify.is_delta_quasipolar(base)
    if ring_dqp != base_dqp:
        if ring_dqp:
            witness = {
                "elements": [int(base_witness)],
                "names": [base.element_name(int(base_witness))],
                "detail": "subring is delta-quasipolar but the base is not",
            }
        else:
            witness = _witness(ring, [ring_witness], "base is delta-quasipolar but the subring is not")
        return _verdict(FAIL, witness)
    return _verdict(PASS, note=f"both sides delta-quasipolar={ring_dqp}")


def reverify_not_dqp_witness(ring: FiniteRing, a: int) -> bool:
    """Scalar re-verification that element a has no spectral idempotent.

    Recomputes units, idempotents, the double commutant of a, and delta
    membership of a+p with plain Python loops over the tables, avoiding
    the vectorized sweeps used everywhere else.  True when no idempotent
    qualifies (the witness is genuine).
    """
    n = ring.size
    mul = ring.mul_table
    add = ring.add_table
    one = ring.one
    units = [
        u
        for u in range(n)
        if any(mul[u, v] == one and mul[v, u] == one for v in range(n))
    ]
    unit_set = set(units)
    neg = ring.neg_table
    comm_a = [x for x in range(n) if mul[x, a] == mul[a, x]]
    comm2_a = [
        y for y in range(n) if all(mul[y, x] == mul[x, y] for x in comm_a)
    ]
    candidates = [p for p in comm2_a if mul[p, p] == p]
    for p in candidates:
        s = int(add[a, p])
        if all(int(add[one, neg[mul[s, u]]]) in unit_set for u in units):
            return False
    return True


def _c31_matrix_not_dqp(ring: FiniteRing, ctx: SuiteContext):
    prov = ring.provenance
    if not (isinstance(prov, constructions.MatrixProvenance) and prov.kind == "matrix" and prov.k >= 2):
        return _verdict(NOT_APPLICABLE, note="applies to full matrix rings of dimension >= 2")
    dqp, witness = classify.is_delta_quasipolar(ring)
    if dqp:
        return _verdict(
            FAIL, _witness(ring, [ring.one], "matrix ring unexpectedly delta-quasipolar")
        )
    if not reverify_not_dqp_witness(ring, witness):
        return _verdict(
            FAIL, _witness(ring, [witness], "witness failed scalar re-verification")
        )
    return _verdict(
        PASS,
        witness=_witness(ring, [witness], "element with no spectral idempotent, re-verified"),
        note="not delta-quasipolar",
    )


@dataclass(frozen=True)
class Check:
    check_id: str
    statement: str
    body: object


CHECKS: dict[str, Check] = {}


def _register(check_id: str, statement: str, body) -> None:
    CHECKS[check_id] = Check(check_id, statement, body)


_register("C00", "the compiled tables satisfy the unital-ring axioms", _c00_axioms)
_register(
    "C01",
    "the four sweeps defining delta agree (1-xu, x+u, xu+1, ux+1 forms)",
    _c01_forms_agree,
)
_register("C02", "delta is stable under unit multiplication on both sides", _c02_unit_stability)
_register(
    "C03", "delta contains 0 and is closed under subtraction and multiplication", _c03_subring
)
_register(
    "C04",
    "delta is a two-sided ideal exactly when it equals the jacobson radical",
    _c04_ideal_iff_radical,
)
_register("C05", "delta of a direct product is the product of component deltas", _c05_product_delta)
_register("C06", "when all units are central, quasinilpotents lie in delta", _c06_central_units_qnil)
_register(
    "C07",
    "delta of an upper-triangular ring is: diagonal in base delta, strict upper free",
    _c07_triangular_delta,
)
_register("C08", "every member of delta is delta-quasipolar as an element", _c08_delta_members_qp)
_register(
    "C09",
    "jacobson-spectral idempotents are delta-spectral idempotents, elementwise",
    _c09_j_spectral_subset,
)
_register("C10", "if a is delta-quasipolar then so is -1-a", _c10_negated_shift)
_register(
    "C11",
    "delta-quasipolar implies strongly delta-clean; abelian strongly delta-clean implies back",
    _c11_strongly_delta_clean,
)
_register(
    "C12",
    "on abelian rings: delta-quasipolar, strongly delta-clean, uniquely clean coincide",
    _c12_abelian_equivalences,
)
_register(
    "C13",
    "T(2, Z2) is delta-quasipolar yet neither abelian nor uniquely clean",
    _c13_t2z2_profile,
)
_register(
    "C14",
    "uniquely clean implies delta-quasipolar; uniquely delta-clean implies it too",
    _c14_uniquely_clean_implications,
)
_register("C15", "in a delta-quasipolar ring, 2 lies in delta", _c15_two_in_delta)
_register(
    "C16",
    "full matrix rings: delta equals the radical yet a quasinilpotent escapes delta",
    _c16_matrix_qnil_gap,
)
_register("C17", "delta-quasipolarity of elements survives conjugation by units", _c17_conjugation)
_register("C18", "in a delta-quasipolar ring, a unit's only spectral idempotent is 1", _c18_unit_spectral)
_register(
    "C19", "in a delta-quasipolar ring, a nilpotent's only spectral idempotent is 0", _c19_nilpotent_spectral
)
_register("C20", "in a delta-quasipolar ring, nilpotents lie in delta", _c20_nil_in_delta)
_register(
    "C21",
    "in a delta-quasipolar ring, every a has idempotent p in comm2(a) with a+p a unit",
    _c21_unit_variant,
)
_register(
    "C22",
    "a delta-quasipolar ring with 2 a unit has delta as an ideal (vacuity tracked)",
    _c22_ideal_when_two_unit,
)
_register(
    "C23",
    "local+delta-quasipolar, delta-quasipolar+trivial idempotents, and radical index 2 coincide",
    _c23_local_equivalences,
)
_register(
    "C24",
    "annihilators of an element embed in those of each of its spectral idempotents",
    _c24_annihilators,
)
_register("C25", "abelian rings with idempotent+radical decompositions are delta-quasipolar", _c25_abelian_j_clean)
_register(
    "C26",
    "with delta equal to the radical: strong pi-regularity iff radical=qnil=nil=delta",
    _c26_pi_regular_equivalence,
)
_register("C27", "a direct product is delta-quasipolar exactly when both factors are", _c27_product_biconditional)
_register(
    "C28", "corners of a delta-quasipolar ring at nonzero idempotents stay delta-quasipolar", _c28_corners
)
_register(
    "C29",
    "extension rings: delta-quasipolar only if the base is; three conditions force the converse",
    _c29_dorroh,
)
_register(
    "C30",
    "constrained 3x3 subrings: units and delta follow the (a,d,f) formulas; quasipolarity matches the base",
    _c30_h_ring,
)
_register("C31", "full matrix rings of dimension >= 2 are not delta-quasipolar (witness re-verified)", _c31_matrix_not_dqp)

CHECK_IDS = tuple(CHECKS)


def run_check(check_id: str, ring: FiniteRing, ctx: SuiteContext | None = None) -> CheckResult:
    """Evaluate one check on one ring, timing it.

    A RingError escaping a check body (possible on deliberately
    corrupted rings, e.g. a corner construction finding unclosed tables)
    is reported as a FAIL with the error message, never as a crash.
    """
    if check_id not in CHECKS:
        raise KeyError(f"unknown check id {check_id!r}")
    if ctx is None:
        ctx = SuiteContext()
    started = time.perf_counter()
    try:
        verdict, witness, note = CHECKS[check_id].body(ring, ctx)
    except RingError as exc:
        verdict, witness, note = FAIL, None, f"check aborted by error: {exc}"
    millis = (time.perf_counter() - started) * 1000.0
    return CheckResult(
        check=check_id,
        ring=ring.spell(),
        verdict=verdict,
        witness=witness,
        note=note,
        millis=millis,
    )


# -- corpus handling ---------------------------------------------------------------------


@dataclass
class CorpusEntry:
    spec_text: str
    ring: FiniteRing


def default_corpus_path() -> Path:
    return Path(str(resources.files("deltaring").joinpath("data/corpus.txt")))


def load_manifest(path) -> list[tuple[int, str]]:
    """Read a manifest; returns (line_number, spec_text) pairs.

    Blank lines and lines starting with # are skipped.
    """
    text = Path(path).read_text()
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        out.append((lineno, line))
    return out


def build_corpus(path=None) -> list[CorpusEntry]:
    """Build every ring a manifest names; default manifest if path is None.

    Table paths inside the manifest resolve relative to the manifest's
    directory.  Errors are re-raised with the manifest line number
    prepended, preserving the error class (so capacity errors stay
    capacity errors).
    """
    manifest = default_corpus_path() if path is None else Path(path)
    ctx = ringspec.BuildContext(base_dir=manifest.parent)
    entries = []
    for lineno, line in load_manifest(manifest):
        try:
            ring = ringspec.build_ring(line, ctx)
        except RingError as exc:
            raise type(exc)(f"{manifest.name} line {lineno}: {exc}") from exc
        entries.append(CorpusEntry(line, ring))
    return entries


def _ring_results(entry: CorpusEntry, selected: tuple[str, ...], ctx: SuiteContext) -> list[CheckResult]:
    gate = run_check("C00", entry.ring, ctx)
    results = []
    if "C00" in selected or gate.verdict == FAIL:
        results.append(gate)
    for check_id in selected:
        if check_id == "C00":
            continue
        if gate.verdict == FAIL:
            results.append(
                CheckResult(
                    check=check_id,
                    ring=entry.ring.spell(),
                    verdict=NOT_APPLICABLE,
                    note="ring axioms failed; see C00",
                )
            )
        else:
            results.append(run_check(check_id, entry.ring, ctx))
    return results


def run_suite(
    entries: list[CorpusEntry],
    check_ids: tuple[str, ...] | None = None,
    jobs: int | None = None,
    strict_commuting: bool = False,
) -> SuiteReport:
    """Run the selected checks (all by default) over every corpus entry.

    Worker threads split by ring; each ring's caches are touched by one
    worker only, and the report is assembled in corpus order, so output
    is identical whatever the parallelism.
    """
    if check_ids is None:
        selected = CHECK_IDS
    else:
        for check_id in check_ids:
            if check_id not in CHECKS:
                raise KeyError(f"unknown check id {check_id!r}")
        selected = tuple(check_ids)
    ctx = SuiteContext(strict_commuting=strict_commuting)
    report = SuiteReport(corpus=[(e.spec_text, e.ring.size) for e in entries])
    if not entries:
        return report
    workers = jobs if jobs and jobs > 0 else (os.cpu_count() or 1)
    workers = min(workers, len(entries))
    if workers <= 1:
        batches = [_ring_results(entry, selected, ctx) for entry in entries]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(lambda e: _ring_results(e, selected, ctx), entries))
    for batch in batches:
        report.results.extend(batch)
    return report


# -- standalone check entry points and test hooks -------------------------------------------


def check_dorroh(base: FiniteRing, action: constructions.BimoduleRingAction) -> CheckResult:
    """Build the extension of base by the action and run the extension check."""
    ring = constructions.dorroh(base, action)
    return run_check("C29", ring)


def check_h_ring_equivalence(base: FiniteRing, s: int, t: int) -> CheckResult:
    """Build the constrained 3x3 subring and run its formula/equivalence check."""
    ring = constructions.h_ring(s, t, base)
    return run_check("C30", ring)


def mutate_mul_entry(ring: FiniteRing, x: int, y: int, value: int) -> FiniteRing:
    """A copy of the ring with one multiplication entry overwritten.

    Used by the mutation test: the result is structurally well-formed
    but (generically) violates an axiom, which C00 must catch.
    """
    ring._check_index(x)
    ring._check_index(y)
    ring._check_index(value)
    mul = ring.mul_table.copy()
    mul[x, y] = value
    names = list(ring.element_names) if ring.element_names is not None else None
    return FiniteRing(
        ring.size,
        ring.add_table,
        mul,
        zero=ring.zero,
        one=ring.one,
        provenance=constructions.TableProvenance(f"mutated:{ring.spell()}"),
        element_names=names,
    )
