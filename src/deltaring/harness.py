"""Corpus-quantified verification checks C00 - C31.

Each check encodes one statement as "hypothesis => assertion" about a
single ring (sometimes reaching into the ring's construction provenance
for component rings) and returns one of four verdicts:

    PASS            hypothesis applied, assertion verified
    FAIL            assertion violated; witness re-verifies independently
    NOT-APPLICABLE  the ring does not satisfy the check's hypothesis
    VACUOUS         hypothesis applied but quantified over nothing,
                    recorded explicitly rather than silently passing

A check is one function registered with `@check(id, statement,
requires=hypothesis)`; its body holds only the assertion and returns the
(verdict, witness, note) triple, with witnesses built by `_witness`.  A
hypothesis takes (ring, ctx) and returns None when the ring qualifies,
else the NOT-APPLICABLE note.  The shared ones (delta-quasipolar,
abelian, T(2, Z2), one per construction kind) are defined once; a check
with a hypothesis of its own defines it beside the body.  `run_check`
evaluates the hypothesis first, inside the timed window, and runs the
body only on qualifying rings.  Checks register in definition order,
which is id order.

A check that states one of the theorems ``analysis`` and ``classify``
answer from on a certified ring (C01, C04, C06, C09, C11, C12, C14,
C16, C25 and C26) reads the sweeps that ``analysis.LAYERS`` pairs with
those theorem paths, and ``classify.spectral_grid`` under them, so that
it compares a sweep with a theorem and never a theorem path with itself.

The closure checks decide from generators on a ring whose C00 already
passed, by facts of the ring axioms C00 proved: C02, C03, C04 and C22
from one ideal test (``analysis.closure_holds``), C17 from U's
(``analysis.unit_generators``).  They sweep every product only on other
tables or to name a witness, so their rows are the sweeps'.

C00 is the axiom gate: when it fails on a ring, every other check on
that ring is reported NOT-APPLICABLE (and the C00 failure row is always
included, even under a --check filter, so a corrupted ring can never
yield a clean filtered report).  Checks never claim more than
non-falsification over the corpus at hand.

Results are deterministic: checks run per ring, on the calling thread
or, when asked, across worker threads, and the report is assembled in
corpus order regardless of scheduling.  Timing is measured but only
serialized on request.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from . import analysis, classify, constructions, kernel, ringspec
from .kernel import FiniteRing, RingError, row_block_reads, validation_report

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
            statement = CHECKS[check_id].statement
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
    """Witness elements named by the ring they belong to."""
    elements = [int(x) for x in elements]
    return {
        "elements": elements,
        "names": ring.names_of(elements),
        "detail": detail,
    }


def _first_mismatch(ring: FiniteRing, expected: np.ndarray, actual: np.ndarray, detail: str):
    """A FAIL at the first element where the masks differ, or None;
    `{side}` in detail reads "missing from" or "extra in" the expected set."""
    differs = expected != actual
    if not differs.any():
        return None
    bad = int(np.argmax(differs))
    side = "missing from" if expected[bad] else "extra in"
    return FAIL, _witness(ring, [bad], detail.format(side=side)), None


def _diagonal_in(base_mask: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Elements of a matrix-shaped ring whose every diagonal entry is in base_mask."""
    return base_mask[grid.diagonal(axis1=1, axis2=2)].all(axis=1)


# -- registry and shared hypotheses ---------------------------------------------------


@dataclass(frozen=True)
class Check:
    check_id: str
    statement: str
    body: object
    requires: object = None


CHECKS: dict[str, Check] = {}


def check(check_id: str, statement: str, requires=None):
    """Register the decorated body as `check_id`; see the module docstring."""

    def register(body):
        CHECKS[check_id] = Check(check_id, statement, body, requires)
        return body

    return register


def _hypothesis(note: str, holds):
    """The hypothesis that a ring predicate holds, with its NOT-APPLICABLE note."""
    return lambda ring, ctx: None if holds(ring) else note


def _built_as(kind: str):
    """Whether a ring's construction provenance is of this kind."""
    return lambda ring: getattr(ring.provenance, "kind", None) == kind


delta_quasipolar_ring = _hypothesis(
    "applies to delta-quasipolar rings", lambda ring: classify.is_delta_quasipolar(ring)[0]
)
direct_product = _hypothesis("applies to direct products", _built_as("product"))
full_matrix_ring = _hypothesis(
    "applies to full matrix rings of dimension >= 2",
    lambda ring: _built_as("matrix")(ring) and ring.provenance.k >= 2,
)
upper_triangular_ring = _hypothesis(
    "applies to upper-triangular matrix rings", _built_as("upper_triangular")
)
extension_ring = _hypothesis("applies to extension rings", _built_as("dorroh"))
h_subring = _hypothesis("applies to the constrained 3x3 subrings", _built_as("h"))
abelian_ring = _hypothesis("applies to abelian rings", lambda ring: classify.is_abelian(ring)[0])
t2z2_ring = _hypothesis("applies to the ring T(2, Z2)", lambda ring: ring.spell() == "T(2, Z2)")


# -- individual check bodies ----------------------------------------------------------


@check("C00", "the compiled tables satisfy the unital-ring axioms")
def _c00_axioms(ring: FiniteRing, ctx: SuiteContext):
    report = validation_report(ring)
    if report.ok:
        return PASS, None, f"{report.mode} scan"
    violation = report.violations[0]
    witness = _witness(ring, violation.witness, f"axiom {violation.axiom} violated")
    note = "violated: " + ", ".join(v.axiom for v in report.violations)
    if report.not_checked:
        note += "; not checked: " + ", ".join(report.not_checked)
    return FAIL, witness, f"{note} ({report.mode} scan)"


@check("C01", "the four sweeps defining delta agree (1-xu, x+u, xu+1, ux+1 forms)")
def _c01_forms_agree(ring: FiniteRing, ctx: SuiteContext):
    primary = analysis.delta_sweep_mask(ring)
    labels = ("x+u form", "xu+1 form", "ux+1 form")
    for label, variant in zip(labels, analysis.delta_alternative_forms(ring)):
        detail = f"{label} disagrees with the 1-xu form"
        failed = _first_mismatch(ring, primary, variant.bool_array(), detail)
        if failed:
            return failed
    return PASS, None, None


@check("C02", "delta is stable under unit multiplication on both sides")
def _c02_unit_stability(ring: FiniteRing, ctx: SuiteContext):
    """On a ring that passed C00, delta being a two-sided ideal settles
    it (``analysis.closure_holds``): the walk inside delta, then 2 k l
    products with R's l generators.  Otherwise, or to name the witness,
    |delta| |U| cells on each side, the first escape of d*u, then of u*d."""
    dmask = analysis.delta_mask(ring)
    if analysis.closure_holds(ring, dmask):
        return PASS, None, None
    dl = np.flatnonzero(dmask)
    ul = analysis.unit_indices(ring)
    at = analysis.first_escape(dmask, ring, "mul", dl, ul)
    if at is not None:
        return FAIL, _witness(ring, [dl[at[0]], ul[at[1]]], "d*u escapes delta"), None
    at = analysis.first_escape(dmask, ring, "mul", ul, dl)
    if at is not None:
        return FAIL, _witness(ring, [ul[at[0]], dl[at[1]]], "u*d escapes delta"), None
    return PASS, None, None


@check("C03", "delta contains 0 and is closed under subtraction and multiplication")
def _c03_subring(ring: FiniteRing, ctx: SuiteContext):
    """On a ring that passed C00, delta being a two-sided ideal settles
    it (``analysis.closure_holds``): the walk inside delta, then 2 k l
    products with R's l generators.  Otherwise, or to name the witness,
    |delta|^2 cells twice."""
    dmask = analysis.delta_mask(ring)
    if not dmask[ring.zero]:
        return FAIL, _witness(ring, [ring.zero], "zero missing from delta"), None
    if analysis.closure_holds(ring, dmask):
        return PASS, None, None
    dl = np.flatnonzero(dmask)
    at = analysis.first_escape(dmask, ring, "add", dl, ring.neg_rows(dl))
    if at is not None:
        return FAIL, _witness(ring, [dl[at[0]], dl[at[1]]], "difference escapes delta"), None
    at = analysis.first_escape(dmask, ring, "mul", dl, dl)
    if at is not None:
        return FAIL, _witness(ring, [dl[at[0]], dl[at[1]]], "product escapes delta"), None
    return PASS, None, None


@check("C04", "delta is a two-sided ideal exactly when it equals the jacobson radical")
def _c04_ideal_iff_radical(ring: FiniteRing, ctx: SuiteContext):
    """The ideal test is ``analysis.is_two_sided_ideal``: on a ring that
    passed C00, the walk inside delta and 2 k l products with R's l
    generators; |delta|^2 + 2 n |delta| cells otherwise."""
    dmask = analysis.delta_sweep_mask(ring)
    is_ideal, pair, why = analysis.is_two_sided_ideal(ring, dmask)
    equals_radical = bool((dmask == analysis.jacobson_mask(ring)).all())
    if is_ideal == equals_radical:
        return PASS, None, f"ideal={is_ideal}, delta==radical={equals_radical}"
    if is_ideal:
        detail = "delta is an ideal yet differs from the radical"
        return _first_mismatch(ring, analysis.jacobson_mask(ring), dmask, detail)
    return FAIL, _witness(ring, pair, f"delta equals the radical yet is {why}"), None


@check("C05", "delta of a direct product is the product of component deltas", requires=direct_product)
def _c05_product_delta(ring: FiniteRing, ctx: SuiteContext):
    prov = ring.provenance
    sn = prov.right.size
    arange = np.arange(ring.size)
    expected = analysis.delta_mask(prov.left)[arange // sn] & analysis.delta_mask(prov.right)[arange % sn]
    detail = "element {side} the componentwise product"
    return _first_mismatch(ring, expected, analysis.delta_mask(ring), detail) or (PASS, None, None)


def _units_central(ring: FiniteRing, ctx: SuiteContext):
    central_units = ~analysis.unit_mask(ring) | analysis.center_mask(ring)
    if not central_units.all():
        return f"unit {int(np.argmax(~central_units))} is not central"
    return None


@check("C06", "when all units are central, quasinilpotents lie in delta", requires=_units_central)
def _c06_central_units_qnil(ring: FiniteRing, ctx: SuiteContext):
    escaped = analysis.qnil_sweep_mask(ring) & ~analysis.delta_sweep_mask(ring)
    if escaped.any():
        return FAIL, _witness(ring, [np.argmax(escaped)], "quasinilpotent outside delta"), None
    return PASS, None, None


@check("C07", "delta of an upper-triangular ring is: diagonal in base delta, strict upper free",
       requires=upper_triangular_ring)
def _c07_triangular_delta(ring: FiniteRing, ctx: SuiteContext):
    prov = ring.provenance
    expected = _diagonal_in(analysis.delta_mask(prov.base), prov.grid)
    detail = "element {side} the diagonal formula"
    failed = _first_mismatch(ring, expected, analysis.delta_mask(ring), detail)
    return failed or (PASS, None, "delta = diagonal-in-base-delta, strict upper free")


@check("C08", "every member of delta is delta-quasipolar as an element")
def _c08_delta_members_qp(ring: FiniteRing, ctx: SuiteContext):
    bad = analysis.delta_mask(ring) & ~classify.element_flags(ring, "delta")
    if bad.any():
        return FAIL, _witness(ring, [np.argmax(bad)], "delta member with empty spectral set"), None
    return PASS, None, None


@check("C09", "jacobson-spectral idempotents are delta-spectral idempotents, elementwise")
def _c09_j_spectral_subset(ring: FiniteRing, ctx: SuiteContext):
    bad = classify.spectral_grid(ring, "jacobson") & ~classify.spectral_grid(ring, "delta")
    if bad.any():
        a, j = np.argwhere(bad)[0]
        p = analysis.idempotent_indices(ring)[j]
        return FAIL, _witness(ring, [a, p], "jacobson-spectral p not delta-spectral"), None
    return PASS, None, None


@check("C10", "if a is delta-quasipolar then so is -1-a")
def _c10_negated_shift(ring: FiniteRing, ctx: SuiteContext):
    flags = classify.element_flags(ring, "delta")
    image = ring.neg_rows()[ring.block("add", [ring.one])[0]]
    bad = flags & ~flags[image]
    if bad.any():
        a = int(np.argmax(bad))
        return FAIL, _witness(ring, [a, image[a]], "-1-a loses delta-quasipolarity"), None
    return PASS, None, None


def _swept_dqp(ring: FiniteRing) -> tuple[bool, int | None]:
    return classify.verdict(classify.spectral_sweep_flags(ring, "delta"))


def _swept_clean(ring: FiniteRing, target: str, **kind) -> tuple[bool, int | None]:
    return classify.verdict(classify.clean_sweep_flags(ring, target, **kind))


_dqp_or_abelian_sdc = _hypothesis(
    "neither delta-quasipolar nor abelian strongly delta-clean",
    lambda ring: _swept_dqp(ring)[0]
    or (classify.is_abelian(ring)[0] and _swept_clean(ring, "delta", commuting=True)[0]),
)


@check("C11", "delta-quasipolar implies strongly delta-clean; abelian strongly delta-clean implies back",
       requires=_dqp_or_abelian_sdc)
def _c11_strongly_delta_clean(ring: FiniteRing, ctx: SuiteContext):
    dqp, dqp_witness = _swept_dqp(ring)
    sdc, sdc_witness = _swept_clean(ring, "delta", commuting=True)
    if dqp and not sdc:
        return FAIL, _witness(ring, [sdc_witness], "delta-quasipolar but not strongly delta-clean"), None
    if not dqp:  # so the hypothesis holds through the abelian leg
        detail = "abelian strongly delta-clean but not delta-quasipolar"
        return FAIL, _witness(ring, [dqp_witness], detail), None
    return PASS, None, None


@check("C12", "on abelian rings: delta-quasipolar, strongly delta-clean, uniquely clean coincide",
       requires=abelian_ring)
def _c12_abelian_equivalences(ring: FiniteRing, ctx: SuiteContext):
    dqp, a = _swept_dqp(ring)
    sdc, b = _swept_clean(ring, "delta", commuting=True)
    uc, c = _swept_clean(ring, "unit", unique=True)
    if dqp == sdc == uc:
        return PASS, None, f"all three {'hold' if dqp else 'fail'}"
    pieces = f"delta-quasipolar={dqp}, strongly delta-clean={sdc}, uniquely clean={uc}"
    witness_elt = next(w for w in (a, b, c) if w is not None)
    return FAIL, _witness(ring, [witness_elt], pieces), None


@check("C13", "T(2, Z2) is delta-quasipolar yet neither abelian nor uniquely clean", requires=t2z2_ring)
def _c13_t2z2_profile(ring: FiniteRing, ctx: SuiteContext):
    dqp, w1 = classify.is_delta_quasipolar(ring)
    abelian, w2 = classify.is_abelian(ring)
    uc, w3 = classify.is_uniquely_clean(ring)
    if dqp and not abelian and not uc:
        return PASS, None, "delta-quasipolar, not abelian, not uniquely clean"
    bad = w1 if not dqp else (w2 if abelian else w3)
    profile = f"delta-quasipolar={dqp}, abelian={abelian}, uniquely clean={uc}"
    return FAIL, _witness(ring, [bad if bad is not None else ring.zero], profile), None


def _uniquely_clean_premises(ring: FiniteRing, ctx: SuiteContext) -> list[str]:
    uc = _swept_clean(ring, "unit", unique=True)[0]
    udc = _swept_clean(ring, "delta", commuting=ctx.strict_commuting, unique=True)[0]
    return [name for name, held in (("uniquely clean", uc), ("uniquely delta-clean", udc)) if held]


def _some_uniquely_clean_premise(ring: FiniteRing, ctx: SuiteContext):
    if not _uniquely_clean_premises(ring, ctx):
        return "neither uniquely clean nor uniquely delta-clean"
    return None


@check("C14", "uniquely clean implies delta-quasipolar; uniquely delta-clean implies it too",
       requires=_some_uniquely_clean_premise)
def _c14_uniquely_clean_implications(ring: FiniteRing, ctx: SuiteContext):
    premises = _uniquely_clean_premises(ring, ctx)
    dqp, witness = _swept_dqp(ring)
    if dqp:
        return PASS, None, f"premises: {', '.join(premises)}"
    return FAIL, _witness(ring, [witness], f"{premises[0]} ring fails delta-quasipolarity"), None


@check("C15", "in a delta-quasipolar ring, 2 lies in delta", requires=delta_quasipolar_ring)
def _c15_two_in_delta(ring: FiniteRing, ctx: SuiteContext):
    two = ring.add(ring.one, ring.one)
    if analysis.delta_mask(ring)[two]:
        return PASS, None, f"2 is element {two}"
    return FAIL, _witness(ring, [two], "1+1 escapes delta"), None


@check("C16", "full matrix rings: delta equals the radical yet a quasinilpotent escapes delta",
       requires=full_matrix_ring)
def _c16_matrix_qnil_gap(ring: FiniteRing, ctx: SuiteContext):
    detail = "delta differs from the radical"
    swept = analysis.delta_sweep_mask(ring)
    failed = _first_mismatch(ring, analysis.jacobson_mask(ring), swept, detail)
    if failed:
        return failed
    e12 = constructions.matrix_unit_index(ring, 0, 1)
    if not analysis.qnil_sweep_mask(ring)[e12]:
        return FAIL, _witness(ring, [e12], "expected quasinilpotent is not"), None
    if swept[e12]:
        return FAIL, _witness(ring, [e12], "expected escapee lies in delta"), None
    return PASS, None, "delta = radical; a quasinilpotent stays outside"


@check("C17", "delta-quasipolarity of elements survives conjugation by units")
def _c17_conjugation(ring: FiniteRing, ctx: SuiteContext):
    """Conjugates u^-1 * x * u for a block of units at a time: the rows
    u^-1 * x, then one flat gather of (u^-1 * x) * u, whose intp index
    sizes the blocks at ``kernel._SWEEP_BLOCK_CELLS`` cells.  The witness
    is the first element that the first offending unit moves out of the
    flagged set, then that unit.

    On a ring that passed C00, the generators g of U
    (``analysis.unit_generators``) decide it first, 2 n cells each.
    Conjugation by g is a bijection, so if it maps the flagged set F
    into F, it maps F onto F; conjugation by a product of generators is
    the composite of theirs, and every unit is such a product.  The
    sweep below runs, over 2 n |U| cells, only when that fails or on
    any other table."""
    flags = classify.element_flags(ring, "delta")
    inv = ring.inverse_table()

    def moved(units, left):  # row i: flagged x with u_i^-1 * x * u_i unflagged
        return flags & ~flags.take(ring.apply("mul", left, units[:, None]))

    gens = analysis.unit_generators(ring)
    if gens is not None and not moved(gens, ring.block("mul", inv[gens])).any():
        return PASS, None, None
    ul = analysis.unit_indices(ring)
    for start, left in row_block_reads(ring, "mul", inv[ul], cells=kernel._SWEEP_BLOCK_CELLS):
        units = ul[start : start + len(left)]
        bad = moved(units, left)
        if bad.any():
            i, x = np.argwhere(bad)[0]
            detail = "conjugate loses delta-quasipolarity"
            return FAIL, _witness(ring, [x, units[i]], detail), None
    return PASS, None, None


def _sole_spectral_idempotent(ring: FiniteRing, members: np.ndarray, p: int, detail: str):
    """Every member's delta-spectral set is {p}.

    The witness is the first member whose set differs, then its set.
    """
    idl = analysis.idempotent_indices(ring)
    grid = classify.spectral_grid(ring, "delta")
    bad = members & (grid != (idl == p)).any(axis=1)
    if bad.any():
        a = int(np.argmax(bad))
        return FAIL, _witness(ring, [a, *idl[grid[a]]], detail), None
    return PASS, None, None


@check("C18", "in a delta-quasipolar ring, a unit's only spectral idempotent is 1",
       requires=delta_quasipolar_ring)
def _c18_unit_spectral(ring: FiniteRing, ctx: SuiteContext):
    return _sole_spectral_idempotent(
        ring, analysis.unit_mask(ring), ring.one, "unit spectral set differs from {1}"
    )


@check("C19", "in a delta-quasipolar ring, a nilpotent's only spectral idempotent is 0",
       requires=delta_quasipolar_ring)
def _c19_nilpotent_spectral(ring: FiniteRing, ctx: SuiteContext):
    return _sole_spectral_idempotent(
        ring, analysis.nilpotent_mask(ring), ring.zero, "nilpotent spectral set differs from {0}"
    )


@check("C20", "in a delta-quasipolar ring, nilpotents lie in delta", requires=delta_quasipolar_ring)
def _c20_nil_in_delta(ring: FiniteRing, ctx: SuiteContext):
    escaped = analysis.nilpotent_mask(ring) & ~analysis.delta_mask(ring)
    if escaped.any():
        return FAIL, _witness(ring, [np.argmax(escaped)], "nilpotent outside delta"), None
    return PASS, None, None


@check("C21", "in a delta-quasipolar ring, every a has idempotent p in comm2(a) with a+p a unit",
       requires=delta_quasipolar_ring)
def _c21_unit_variant(ring: FiniteRing, ctx: SuiteContext):
    flags = classify.element_flags(ring, "unit")
    if flags.all():
        return PASS, None, None
    return FAIL, _witness(ring, [np.argmax(~flags)], "no idempotent p in comm2(a) with a+p a unit"), None


@check("C22", "a delta-quasipolar ring with 2 a unit has delta as an ideal (vacuity tracked)",
       requires=delta_quasipolar_ring)
def _c22_ideal_when_two_unit(ring: FiniteRing, ctx: SuiteContext):
    """The ideal test is C04's, ``analysis.is_two_sided_ideal``: on a
    ring that passed C00, the walk inside delta and 2 k l products with
    R's l generators; |delta|^2 + 2 n |delta| cells otherwise."""
    two = ring.add(ring.one, ring.one)
    if not analysis.unit_mask(ring)[two]:
        in_delta = bool(analysis.delta_mask(ring)[two])
        return VACUOUS, None, f"2 (element {two}) is not a unit; 2 in delta(R): {in_delta}"
    is_ideal, pair, why = analysis.is_two_sided_ideal(ring, analysis.delta_mask(ring))
    if is_ideal:
        return PASS, None, "2 is a unit and delta is an ideal"
    return FAIL, _witness(ring, pair, f"2 is a unit yet delta is {why}"), None


@check("C23", "local+delta-quasipolar, delta-quasipolar+trivial idempotents, and radical index 2 coincide")
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
        return PASS, None, f"all three legs {'hold' if values.pop() else 'fail'}"
    return FAIL, _witness(ring, [ring.one], "; ".join(f"{k}={v}" for k, v in legs.items())), None


@check("C24", "annihilators of an element embed in those of each of its spectral idempotents")
def _c24_annihilators(ring: FiniteRing, ctx: SuiteContext):
    """Tested only at the true cells (a, p) of the delta spectral grid,
    in row-major order.  Cost: two n^2 packed comparisons plus
    |cells|*n/8 byte operations for each side."""
    zero = ring.zero
    a, j = np.nonzero(classify.spectral_grid(ring, "delta"))
    p = analysis.idempotent_indices(ring)[j]
    # row a of mul.T == zero is ann_left(a), row a of mul == zero ann_right(a)
    left_ok = analysis.row_subset_pairs(analysis.packed_equal_rows(ring, "mul", zero, True), a, p)
    right_ok = analysis.row_subset_pairs(analysis.packed_equal_rows(ring, "mul", zero), a, p)
    bad = ~(left_ok & right_ok)
    if not bad.any():
        return PASS, None, None
    k = np.argmax(bad)
    a, p, left = a[k], p[k], not left_ok[k]
    # the first x in ann_left(a) or ann_right(a) but not in that of p
    ann_a, ann_p = (ring.block("mul", None, [a, p]).T if left else ring.block("mul", [a, p])) == zero
    detail = "x*a = 0 but x*p != 0" if left else "a*x = 0 but p*x != 0"
    return FAIL, _witness(ring, [a, p, np.argmax(ann_a & ~ann_p)], detail), None


_abelian_j_clean = _hypothesis(
    "applies to abelian rings with idempotent + radical decompositions",
    lambda ring: classify.is_abelian(ring)[0] and _swept_clean(ring, "jacobson")[0],
)


@check("C25", "abelian rings with idempotent+radical decompositions are delta-quasipolar",
       requires=_abelian_j_clean)
def _c25_abelian_j_clean(ring: FiniteRing, ctx: SuiteContext):
    dqp, witness = _swept_dqp(ring)
    if dqp:
        return PASS, None, None
    return FAIL, _witness(ring, [witness], "abelian j-clean ring fails delta-quasipolarity"), None


_dqp_delta_is_radical = _hypothesis(
    "applies to delta-quasipolar rings with delta equal to the radical",
    lambda ring: _swept_dqp(ring)[0]
    and bool((analysis.delta_sweep_mask(ring) == analysis.jacobson_mask(ring)).all()),
)


@check("C26", "with delta equal to the radical: strong pi-regularity iff radical=qnil=nil=delta",
       requires=_dqp_delta_is_radical)
def _c26_pi_regular_equivalence(ring: FiniteRing, ctx: SuiteContext):
    """Every finite ring is strongly pi-regular (see
    `classify.is_strongly_pi_regular`), so the equivalence asserts that
    the radical (here equal to delta) is both qnil and nil."""
    radical = analysis.jacobson_mask(ring)
    for other in (analysis.qnil_sweep_mask(ring), analysis.nilpotent_sweep_mask(ring)):
        failed = _first_mismatch(ring, radical, other, "strongly pi-regular yet the four sets differ")
        if failed:
            return failed
    return PASS, None, "both sides True"


@check("C27", "a direct product is delta-quasipolar exactly when both factors are", requires=direct_product)
def _c27_product_biconditional(ring: FiniteRing, ctx: SuiteContext):
    prov = ring.provenance
    whole, whole_witness = classify.is_delta_quasipolar(ring)
    left, left_witness = classify.is_delta_quasipolar(prov.left)
    right, right_witness = classify.is_delta_quasipolar(prov.right)
    if whole == (left and right):
        return PASS, None, f"product={whole}, factors=({left}, {right})"
    if whole:
        factor, bad = (prov.left, left_witness) if not left else (prov.right, right_witness)
        detail = f"product is delta-quasipolar but factor {factor.spell()} is not"
        return FAIL, _witness(factor, [bad], detail), None
    detail = "factors are delta-quasipolar but the product is not"
    return FAIL, _witness(ring, [whole_witness], detail), None


@check("C28", "corners of a delta-quasipolar ring at nonzero idempotents stay delta-quasipolar",
       requires=delta_quasipolar_ring)
def _c28_corners(ring: FiniteRing, ctx: SuiteContext):
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
                "names": ring.names_of([e]) + sub.names_of([witness]),
                "detail": f"corner at idempotent {e} is not delta-quasipolar",
            }
            return FAIL, corner_witness, None
    return PASS, None, f"{checked} corners checked"


def _dorroh_conditions(base: FiniteRing, action: constructions.BimoduleRingAction):
    base_dqp, _ = classify.is_delta_quasipolar(base)
    v = action.v
    idl = np.flatnonzero(analysis.idempotent_mask(base))
    idempotents_commute = bool(
        (action.left[idl, :] == action.right[:, idl].T).all()
    )
    # every x has a y with x + y + xy = 0
    quasi_inverses = bool((v.add_table[v.add_table, v.mul_table] == v.zero).any(axis=1).all())
    return base_dqp, idempotents_commute, quasi_inverses


@check("C29", "extension rings: delta-quasipolar only if the base is; three conditions force the converse",
       requires=extension_ring)
def _c29_dorroh(ring: FiniteRing, ctx: SuiteContext):
    prov = ring.provenance
    ext_dqp, ext_witness = classify.is_delta_quasipolar(ring)
    base_dqp, commute, quasi = _dorroh_conditions(prov.base, prov.action)
    profile = (
        f"base delta-quasipolar={base_dqp}, idempotents commute with V={commute}, "
        f"quasi-inverses in V={quasi}, extension delta-quasipolar={ext_dqp}"
    )
    if ext_dqp and not base_dqp:
        _, base_witness = classify.is_delta_quasipolar(prov.base)
        detail = "extension is delta-quasipolar but the base is not"
        return FAIL, _witness(prov.base, [base_witness], detail), profile
    if base_dqp and commute and quasi and not ext_dqp:
        return FAIL, _witness(ring, [ext_witness], "all conditions hold but the extension fails"), profile
    return PASS, None, profile


@check("C30", "constrained 3x3 subrings: units and delta follow the (a,d,f) formulas; quasipolarity matches the base",
       requires=h_subring)
def _c30_h_ring(ring: FiniteRing, ctx: SuiteContext):
    prov = ring.provenance
    base = prov.base
    for label, mask_of in (("unit set", analysis.unit_mask), ("delta", analysis.delta_mask)):
        expected = _diagonal_in(mask_of(base), prov.grid)
        detail = f"{label} differs from the (a,d,f) formula"
        failed = _first_mismatch(ring, expected, mask_of(ring), detail)
        if failed:
            return failed
    ring_dqp, ring_witness = classify.is_delta_quasipolar(ring)
    base_dqp, base_witness = classify.is_delta_quasipolar(base)
    if ring_dqp == base_dqp:
        return PASS, None, f"both sides delta-quasipolar={ring_dqp}"
    if ring_dqp:
        return FAIL, _witness(base, [base_witness], "subring is delta-quasipolar but the base is not"), None
    return FAIL, _witness(ring, [ring_witness], "base is delta-quasipolar but the subring is not"), None


def reverify_not_dqp_witness(ring: FiniteRing, a: int) -> bool:
    """Scalar re-verification that element a has no spectral idempotent.

    Recomputes units, idempotents, the double commutant of a, and delta
    membership of a+p with plain Python loops over table entries,
    avoiding the vectorized sweeps used everywhere else.  True when no
    idempotent qualifies (the witness is genuine).

    u is a unit when some v with u*v = 1 also has v*u = 1.  Every such
    pair (u, v) is tried, found by comparing each row block of the table
    with 1, so a table that is not a ring gets the same answer as a scan
    of every pair.  Cost: one n^2 comparison in row blocks, |C(a)|
    Python steps per idempotent for the double commutant, and |units|
    steps per candidate idempotent.
    """
    n, one = ring.size, ring.one
    mul = functools.partial(ring.block, "mul")
    units = {
        start + int(u)
        for start, block in row_block_reads(ring, "mul")
        for u, v in np.argwhere(block == one)
        if ring.mul(int(v), start + int(u)) == one
    }
    row_a, col_a = mul([a])[0].tolist(), mul(None, [a])[:, 0].tolist()
    comm_a = [x for x in range(n) if col_a[x] == row_a[x]]
    squares = ring.apply("mul", np.arange(n), np.arange(n)).tolist()
    idempotents = [p for p in range(n) if squares[p] == p]
    candidates = [p for p in idempotents if (mul([p], comm_a) == mul(comm_a, [p]).T).all()]
    one_plus = ring.block("add", [one])[0].tolist()
    neg = ring.neg_rows().tolist()
    for p in candidates:
        products = mul([ring.add(a, p)])[0].tolist()
        if all(one_plus[neg[products[u]]] in units for u in units):
            return False
    return True


@check("C31", "full matrix rings of dimension >= 2 are not delta-quasipolar (witness re-verified)",
       requires=full_matrix_ring)
def _c31_matrix_not_dqp(ring: FiniteRing, ctx: SuiteContext):
    dqp, witness = classify.is_delta_quasipolar(ring)
    if dqp:
        return FAIL, _witness(ring, [ring.one], "matrix ring unexpectedly delta-quasipolar"), None
    if not reverify_not_dqp_witness(ring, witness):
        return FAIL, _witness(ring, [witness], "witness failed scalar re-verification"), None
    detail = "element with no spectral idempotent, re-verified"
    return PASS, _witness(ring, [witness], detail), "not delta-quasipolar"


CHECK_IDS = tuple(CHECKS)


def run_check(check_id: str, ring: FiniteRing, ctx: SuiteContext | None = None) -> CheckResult:
    """Evaluate one check on one ring, timing its hypothesis and body together.

    A ring outside the hypothesis is NOT-APPLICABLE with the hypothesis's
    note, and the body does not run.  A RingError escaping either
    (possible on deliberately corrupted rings, e.g. a corner
    construction finding unclosed tables) is reported as a FAIL with the
    error message, never as a crash.
    """
    if check_id not in CHECKS:
        raise KeyError(f"unknown check id {check_id!r}")
    entry = CHECKS[check_id]
    if ctx is None:
        ctx = SuiteContext()
    started = time.perf_counter()
    try:
        note = entry.requires(ring, ctx) if entry.requires else None
        if note is None:
            verdict, witness, note = entry.body(ring, ctx)
        else:
            verdict, witness = NOT_APPLICABLE, None
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

    Blank lines and lines starting with # are skipped.  A manifest that
    is not UTF-8 text is a spec error naming the file.
    """
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ringspec.RingSpecError(f"manifest {path} is not UTF-8 text: {exc}") from None
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

    The rings run one after another on the calling thread unless
    ``jobs`` >= 2 asks for that many worker threads (one ring per task,
    at most one worker per ring).  Workers split by ring, so each ring's
    caches are touched by one worker only, and the report is assembled
    in corpus order: output is identical whatever ``jobs`` is.  ``jobs``
    below 1 raises ValueError, as ``verify --jobs`` rejects it.
    """
    if check_ids is None:
        selected = CHECK_IDS
    else:
        for check_id in check_ids:
            if check_id not in CHECKS:
                raise KeyError(f"unknown check id {check_id!r}")
        selected = tuple(check_ids)
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    ctx = SuiteContext(strict_commuting=strict_commuting)
    report = SuiteReport(corpus=[(e.spec_text, e.ring.size) for e in entries])
    if not entries:
        return report
    workers = min(jobs or 1, len(entries))
    if workers <= 1:
        batches = [_ring_results(entry, selected, ctx) for entry in entries]
    else:
        # imported here, so that the serial default loads no pool machinery
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(lambda e: _ring_results(e, selected, ctx), entries))
    for batch in batches:
        report.results.extend(batch)
    return report
