import gc
import random
import tracemalloc

import numpy as np
import pytest

from deltaring import FiniteRing, analysis, build_ring, classify, kernel, zn
from deltaring.harness import run_check

import oracles

FLAVORS = ("delta", "jacobson", "unit", "quasipolar")


# -- spectral idempotents ----------------------------------------------------------


def test_spectral_sets_match_oracle_on_probe_rings(corpus_rings):
    # M(2, Z2) has six non-central idempotents for the comm2 test to
    # prune; every element of H(1, 1, Z2) is idempotent, so its grid is square
    probes = ("Z4", "T(2, Z2)", "table:f4.json", "M(2, Z2)", "H(1, 1, Z2)", "corner(M(2, Z2), 8)")
    for spell in probes:
        ring = corpus_rings[spell]
        for a in ring.elements():
            for flavor in FLAVORS:
                got = set(classify.spectral_idempotents(ring, a, flavor).indices())
                assert got == oracles.spectral_of(ring, a, flavor), (spell, a, flavor)


def _dense_spectral_grid(ring, flavor):
    """The target alone, and the target with C(a) a subset of C(p), at
    every cell (a, p), read from whole tables."""
    idl = analysis.idempotent_indices(ring)
    add, mul = ring.fill().add_table, ring.mul_table
    comm = mul == mul.T
    target = classify._sweep_target(flavor)(ring)[add[:, idl]]
    if flavor == "quasipolar":
        target &= analysis.qnil_sweep_mask(ring)[mul[:, idl]]
    comm2 = np.stack([~(comm & ~comm[p]).any(axis=1) for p in idl], axis=1)
    return target, target & comm2


def test_spectral_grid_equals_the_dense_reference(corpus_rings):
    # unmarked copies, so the sweeps answer, and seeded single-entry
    # corruptions; M(2, Z2) and the ladder's product have cells where the
    # target holds and comm2 fails, so the comm2 test must prune there
    probes = ("Z4", "T(2, Z2)", "table:f4.json", "M(2, Z2)", "H(1, 1, Z2)", "corner(M(2, Z2), 8)")
    rings = [corpus_rings[spell] for spell in probes] + [build_ring("prod(M(2, Z2), T(2, Z4))")]
    rng = random.Random(26)
    cases, pruned = [], 0
    for ring in rings:
        cases.append(oracles.mutate_mul_entry(ring, 1, 1, ring.mul(1, 1)))
        if ring.size <= 16:
            for _ in range(3):
                x, y, value = (rng.randrange(ring.size) for _ in range(3))
                cases.append(oracles.mutate_mul_entry(ring, x, y, value))
    for case in cases:
        assert not case.certified
        for flavor in FLAVORS:
            target, want = _dense_spectral_grid(case, flavor)
            assert np.array_equal(classify.spectral_grid(case, flavor), want), (case.spell(), flavor)
            pruned += int((target & ~want).sum())
    assert pruned


def test_c09_sweeps_the_radical_grids_only_where_their_targets_differ(corpus_rings):
    # an unmarked copy, so the sweeps answer: its delta and jacobson
    # targets agree, so its two grids are one and C09 sweeps neither
    ring = corpus_rings["M(2, Z2)"]
    copy = oracles.mutate_mul_entry(ring, 1, 1, ring.mul(1, 1))
    assert run_check("C09", copy).verdict == "PASS"
    assert not {("spectral_grid", flavor) for flavor in FLAVORS} & set(copy._cache)
    # Z4 with 3 * 0 = 1: delta is {0} and J is empty, so C09 compares both
    bad = oracles.mutate_mul_entry(corpus_rings["Z4"], 3, 0, 1)
    assert not np.array_equal(analysis.delta_sweep_mask(bad), analysis.jacobson_mask(bad))
    result = run_check("C09", bad)
    for flavor in ("delta", "jacobson"):
        grid = bad._cache[("spectral_grid", flavor)]
        assert np.array_equal(grid, _dense_spectral_grid(bad, flavor)[1]), flavor
    escaped = bad._cache[("spectral_grid", "jacobson")] & ~bad._cache[("spectral_grid", "delta")]
    assert result.verdict == ("FAIL" if escaped.any() else "PASS")


def test_idempotent_with_idempotent_residual_in_triangular_ring(t2z2):
    # a = the idempotent with a one in both upper cells; its spectral set
    # is the singleton {a}: a + a = 0 lands in delta and a commutes with
    # its own commutant.
    a = 6
    assert t2z2.mul(a, a) == a
    assert set(classify.spectral_idempotents(t2z2, a, "delta").indices()) == {6}
    assert oracles.spectral_of(t2z2, a, "delta") == {6}


def test_double_commutant_filter_is_what_prunes_the_second_idempotent(t2z2):
    # dropping the double-commutant requirement admits exactly one more
    # idempotent, the diagonal one; it fails comm2 on a concrete witness
    a, extra = 6, 4
    delta = oracles.delta_of(t2z2)
    relaxed = {
        p
        for p in oracles.idempotents_of(t2z2)
        if t2z2.add(a, p) in delta
    }
    assert relaxed == {4, 6}
    assert extra not in oracles.comm2_of(t2z2, a)
    witnesses = [
        x
        for x in oracles.comm_of(t2z2, a)
        if t2z2.mul(extra, x) != t2z2.mul(x, extra)
    ]
    assert witnesses, "the extra idempotent should fail against some commuting element"


def test_spectral_idempotents_are_unique_when_they_exist(corpus):
    # brute-force verification that no element of any corpus ring has
    # two distinct spectral idempotents, in any flavor that demands the
    # double commutant
    for entry in corpus:
        ring = entry.ring
        if ring.size <= 64:
            for a in ring.elements():
                assert len(oracles.spectral_of(ring, a, "delta")) <= 1, (entry.spec_text, a)
        else:
            # the sweep, as a certified ring's spectral_mask holds one
            # idempotent at most by construction
            assert classify.spectral_grid(ring, "delta").sum(axis=1).max() <= 1


# -- ring-level quasipolarity ------------------------------------------------------


def test_ring_verdicts_match_oracle(corpus_rings):
    probes = ["Z4", "Z3", "Z6", "table:f4.json", "T(2, Z2)", "prod(Z2, Z3)"]
    for spell in probes:
        ring = corpus_rings[spell]
        for flavor in FLAVORS:
            expected = oracles.first_non_quasipolar(ring, flavor)
            assert classify.ring_quasipolar(ring, flavor) == expected, (spell, flavor)


def test_frozen_ring_verdicts(z2, z4, t2z2, m2z2, f4):
    assert classify.is_delta_quasipolar(z2) == (True, None)
    assert classify.is_delta_quasipolar(z4) == (True, None)
    assert classify.is_delta_quasipolar(t2z2) == (True, None)
    assert classify.is_delta_quasipolar(zn(3)) == (False, 1)
    assert classify.is_delta_quasipolar(m2z2) == (False, 2)
    assert classify.is_delta_quasipolar(f4) == (False, 2)
    # element 1 of the four-element field is fine (1 + 1 = 0 lands in
    # delta); the first element with no spectral idempotent is a
    # generator, not 1
    assert bool(classify.element_flags(f4, "delta")[1])
    assert oracles.spectral_of(f4, 1, "delta") == {1}
    assert oracles.spectral_of(f4, 2, "delta") == set()


def test_corpus_delta_quasipolar_census(corpus):
    verdicts = {e.spec_text: classify.is_delta_quasipolar(e.ring)[0] for e in corpus}
    expected_true = {
        "Z2", "Z4", "Z8", "Z16",
        "T(2, Z2)", "T(2, Z4)", "T(3, Z2)",
        "prod(Z2, Z2)", "prod(Z2, Z4)",
        "corner(T(2, Z2), 4)", "corner(M(2, Z2), 8)",
        "H(1, 1, Z2)", "H(1, 1, Z4)",
        "dorroh(Z2, self)", "dorroh(Z4, ideal(2))",
        "quot(Z4, 2)",
    }
    assert {spell for spell, good in verdicts.items() if good} == expected_true


# -- clean decompositions ----------------------------------------------------------


def test_clean_family_matches_oracle(corpus):
    targets = {
        "unit": oracles.units_of,
        "jacobson": oracles.jacobson_of,
        "delta": oracles.delta_sum_form,
    }
    for entry in corpus:
        ring = entry.ring
        if ring.size > 64:
            continue
        for target_name, target_fn in targets.items():
            target = target_fn(ring)
            for commuting in (False, True):
                flags = classify.clean_flags(ring, target_name, commuting=commuting)
                unique = classify.clean_flags(
                    ring, target_name, commuting=commuting, unique=True
                )
                for a in ring.elements():
                    decomps = oracles.clean_decomps_of(ring, a, target, commuting)
                    assert bool(flags[a]) == (len(decomps) >= 1)
                    assert bool(unique[a]) == (len(decomps) == 1)


def test_clean_decompositions_certificates(z4, t2z2):
    units = oracles.units_of(z4)
    got = classify.clean_decompositions(z4, 2, "unit")
    assert [(e, w) for e, w, _ in got] == oracles.clean_decomps_of(z4, 2, units)
    for e, w, commuting in got:
        assert z4.add(e, w) == 2
        assert z4.mul(e, e) == e and w in units
        assert commuting == (z4.mul(e, w) == z4.mul(w, e))
    # noncommutative probe: certificates must mark which pairs commute
    flagged = classify.clean_decompositions(t2z2, 3, "unit")
    assert any(not c for _, _, c in flagged) or all(c for _, _, c in flagged)
    for e, w, commuting in flagged:
        assert t2z2.add(e, w) == 3
        assert commuting == (t2z2.mul(e, w) == t2z2.mul(w, e))


@pytest.mark.parametrize("marked", [True, False], ids=["certified", "unmarked"])
def test_an_unknown_flavor_or_target_raises_before_any_fill(marked):
    ring = build_ring("Z16")
    if not marked:  # the same builder's arithmetic, unfilled, without the mark
        ring = FiniteRing(ring.size, None, None, zero=ring.zero, one=ring.one,
                          arithmetic=ring._arithmetic, pointwise=ring._pointwise)
    assert ring.certified == marked
    calls = [
        (lambda: classify.spectral_mask(ring, 3, "bogus"), "unknown spectral flavor 'bogus'"),
        (lambda: classify.element_flags(ring, "bogus"), "unknown spectral flavor 'bogus'"),
        (lambda: classify.clean_flags(ring, "bogus"), "unknown clean target 'bogus'"),
    ]
    # quasipolar is a spectral flavor, not a clean target, at each entry point
    for target in ("bogus", "quasipolar"):
        message = f"unknown clean target '{target}'"
        calls += [
            (lambda t=target: classify.clean_flags(ring, t, unique=True), message),
            (lambda t=target: classify.clean_sweep_flags(ring, t), message),
            (lambda t=target: classify.clean_decompositions(ring, 3, t), message),
        ]
    for call, message in calls:
        with pytest.raises(ValueError, match=message):
            call()
        assert (ring.add_table, ring.mul_table, ring.neg_table) == (None, None, None), message


def test_frozen_clean_verdicts(z2, z4, f4):
    assert classify.is_clean(z4) == (True, None)
    assert classify.is_uniquely_clean(z4) == (True, None)
    assert classify.is_uniquely_clean(z2) == (True, None)
    assert classify.is_clean(f4) == (True, None)
    # 2 = 0 + 2 = 1 + 3 in the four-element field: two decompositions
    assert classify.is_uniquely_clean(f4) == (False, 2)
    assert classify.is_uniquely_delta_clean(z2) == (True, None)


def test_strict_commuting_changes_only_the_commutation_requirement(corpus):
    for entry in corpus:
        ring = entry.ring
        if ring.size > 64:
            continue
        delta = oracles.delta_sum_form(ring)
        relaxed = classify.is_uniquely_delta_clean(ring)
        strict = classify.is_uniquely_delta_clean(ring, strict_commuting=True)
        expect_relaxed = all(
            len(oracles.clean_decomps_of(ring, a, delta, False)) == 1
            for a in ring.elements()
        )
        expect_strict = all(
            len(oracles.clean_decomps_of(ring, a, delta, True)) == 1
            for a in ring.elements()
        )
        assert relaxed[0] == expect_relaxed, entry.spec_text
        assert strict[0] == expect_strict, entry.spec_text


def test_the_idempotent_grids_hold_one_block_beside_their_result(monkeypatch):
    # (Z2)^8: every element is idempotent, so each grid is n x n, and a
    # block of 2^12 cells is a sixteenth of it
    monkeypatch.setattr(kernel, "_BLOCK_CELLS", 1 << 12)
    half = "prod(prod(Z2, Z2), prod(Z2, Z2))"
    ring = build_ring(f"prod({half}, {half})").fill()
    cells = ring.size * len(analysis.idempotent_indices(ring))
    assert ring.certified and cells == 256 * 256
    for layer in (analysis.unit_mask, analysis.jacobson_mask, analysis.delta_sweep_mask,
                  analysis.center_mask, analysis.comm_matrix):
        layer(ring)  # the inputs, outside the trace
    calls = {
        "sweep": lambda: classify.clean_sweep_flags(ring, "unit", False, True),
        "theorem count": lambda: classify.clean_flags(ring, "unit", unique=True),
        "spectral": lambda: classify.spectral_grid(ring, "delta"),
    }
    for name, call in calls.items():
        gc.collect()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the bool result, one temporary of its size, one block at 13 bytes a cell
        assert peak <= 2 * cells + 13 * kernel._BLOCK_CELLS, (name, peak)


# -- structural predicates ---------------------------------------------------------


def test_abelian_verdicts(z4, t2z2, m2z2):
    assert classify.is_abelian(z4) == (True, None)
    ok, witness = classify.is_abelian(t2z2)
    assert not ok and witness == 1
    assert t2z2.mul(witness, witness) == witness
    assert witness not in oracles.center_of(t2z2)
    ok, witness = classify.is_abelian(m2z2)
    assert not ok
    assert witness not in oracles.center_of(m2z2)


def test_local_verdicts(corpus_rings):
    assert classify.is_local(corpus_rings["Z4"]) == (True, None)
    assert classify.is_local(corpus_rings["Z16"]) == (True, None)
    assert classify.is_local(corpus_rings["table:f4.json"]) == (True, None)
    for spell in ("Z6", "prod(Z2, Z2)", "T(2, Z2)", "M(2, Z2)"):
        ring = corpus_rings[spell]
        ok, witness = classify.is_local(ring)
        assert not ok, spell
        x, y = witness
        units = oracles.units_of(ring)
        assert x not in units and y not in units
        assert ring.add(x, y) in units


def test_every_corpus_ring_is_strongly_pi_regular(corpus, ladder_rings):
    # classify answers by the theorem; the oracle searches for the exponent
    rings = [entry.ring for entry in corpus] + list(ladder_rings.values())
    for ring in rings:
        assert oracles.strongly_pi_regular_of(ring) == (True, None), ring.spell()
        assert classify.is_strongly_pi_regular(ring) == (True, None)


# -- reports -----------------------------------------------------------------------


def test_classification_report_shape(t2z2):
    report = classify.classification_report(t2z2)
    d = report.to_dict()
    assert list(d) == [
        "ring",
        "size",
        "delta_quasipolar",
        "j_quasipolar",
        "quasipolar",
        "clean",
        "strongly_clean",
        "uniquely_clean",
        "j_clean",
        "strongly_delta_clean",
        "uniquely_delta_clean",
        "abelian",
        "local",
        "strongly_pi_regular",
        "sizes",
        "witnesses",
    ]
    assert d["ring"] == "T(2, Z2)"
    assert d["size"] == 8
    assert d["delta_quasipolar"] is True
    assert d["abelian"] is False
    assert d["sizes"] == {
        "units": 2,
        "idempotents": 6,
        "nilpotents": 2,
        "jacobson": 2,
        "delta": 2,
        "qnil": 2,
    }
    for payload in d["witnesses"].values():
        assert set(payload) == {"elements", "names", "reason"}
        assert payload["elements"]
        assert len(payload["names"]) == len(payload["elements"])
