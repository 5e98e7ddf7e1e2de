import gc
import json
import random
import weakref

import numpy as np
import pytest

from deltaring import (
    CapacityError,
    FiniteRing,
    build_ring,
    classify,
    constructions as con,
    harness,
    zn,
)
from deltaring.harness import (
    CHECK_IDS,
    CHECKS,
    FAIL,
    NOT_APPLICABLE,
    PASS,
    VACUOUS,
    build_corpus,
    load_manifest,
    reverify_not_dqp_witness,
    run_check,
    run_suite,
)
from deltaring.ringspec import RingSpecError

import oracles

VERDICTS = {PASS, FAIL, NOT_APPLICABLE, VACUOUS}


def test_registry_is_complete_and_ordered():
    assert CHECK_IDS[0] == "C00"
    assert len(CHECK_IDS) == 32
    assert list(CHECK_IDS) == sorted(CHECK_IDS)
    for check_id, check in CHECKS.items():
        assert check.statement, check_id


def test_every_check_returns_a_known_verdict(z4, t2z2):
    for ring in (z4, t2z2):
        for check_id in CHECK_IDS:
            result = run_check(check_id, ring)
            assert result.verdict in VERDICTS, (check_id, ring.spell())
            assert result.ring == ring.spell()
            d = result.to_dict()
            assert d["check"] == check_id
            assert "millis" not in d
            assert "millis" in result.to_dict(timing=True)


def test_unknown_check_id_is_rejected(z4, corpus):
    with pytest.raises(KeyError, match="C99"):
        run_check("C99", z4)
    with pytest.raises(KeyError, match="C99"):
        run_suite(corpus[:1], ("C99",))


def test_full_suite_over_packaged_corpus(corpus):
    report = run_suite(corpus)
    assert len(report.corpus) == 26
    assert len(report.results) == 26 * 32
    summary = report.summary()
    assert summary["fail"] == 0
    # regression pin for the packaged corpus
    assert summary == {"pass": 503, "fail": 0, "na": 313, "vacuous": 16}
    assert report.failures() == []


def test_vacuous_rows_carry_their_evidence(corpus):
    report = run_suite(corpus, ("C22",))
    vacuous = [r for r in report.results if r.verdict == VACUOUS]
    expected_rings = {
        "Z2", "Z4", "Z8", "Z16",
        "T(2, Z2)", "T(2, Z4)", "T(3, Z2)",
        "prod(Z2, Z2)", "prod(Z2, Z4)",
        "corner(T(2, Z2), 4)", "corner(M(2, Z2), 8)",
        "H(1, 1, Z2)", "H(1, 1, Z4)",
        "dorroh(Z2, self)", "dorroh(Z4, ideal(2))",
        "quot(Z4, 2)",
    }
    assert {r.ring for r in vacuous} == expected_rings
    for r in vacuous:
        assert "is not a unit" in r.note
        assert "2 in delta(R): True" in r.note


def test_axiom_failure_gates_all_other_checks(z4, tmp_path):
    bad = oracles.mutate_mul_entry(z4, 2, 3, 1)
    entry = harness.CorpusEntry("mutant", bad)
    report = run_suite([entry])
    gate = report.results[0]
    assert gate.check == "C00" and gate.verdict == FAIL
    assert gate.witness is not None
    assert set(gate.witness) == {"elements", "names", "detail"}
    assert "violated" in gate.note
    rest = report.results[1:]
    assert len(rest) == 31
    assert all(r.verdict == NOT_APPLICABLE for r in rest)
    assert all(r.note == "ring axioms failed; see C00" for r in rest)


def test_gate_row_survives_check_filtering(z4):
    bad = oracles.mutate_mul_entry(z4, 2, 3, 1)
    report = run_suite([harness.CorpusEntry("mutant", bad)], ("C07",))
    assert [r.check for r in report.results] == ["C00", "C07"]
    assert report.results[0].verdict == FAIL
    assert report.results[1].verdict == NOT_APPLICABLE
    # on a sound ring the gate row is omitted unless selected
    report = run_suite([harness.CorpusEntry("Z4", z4)], ("C07",))
    assert [r.check for r in report.results] == ["C07"]


def test_suite_output_is_deterministic_and_parallelism_independent(corpus):
    first = run_suite(corpus).to_dict()
    second = run_suite(corpus).to_dict()
    serial = run_suite(corpus, jobs=1).to_dict()
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    assert json.dumps(first, sort_keys=True) == json.dumps(serial, sort_keys=True)
    assert "millis" not in json.dumps(first)
    timed = run_suite(corpus).to_dict(timing=True)
    assert "total_millis" in timed["summary"]
    assert all("millis" in row for row in timed["results"])


def test_markdown_rendering(corpus):
    report = run_suite(corpus, ("C01", "C22"))
    text = report.to_markdown()
    assert text.startswith("# Verification suite")
    assert "| check | statement |" in text
    assert "## Vacuous" in text
    assert "C22" in text


def test_manifest_loading(tmp_path):
    manifest = tmp_path / "rings.txt"
    manifest.write_text("# comment\n\nZ4\n  T(2, Z2)  \n# tail\nZ6\n")
    assert load_manifest(manifest) == [(3, "Z4"), (4, "T(2, Z2)"), (6, "Z6")]


def test_corpus_build_errors_carry_line_numbers(tmp_path):
    manifest = tmp_path / "rings.txt"
    manifest.write_text("Z4\nZ\n")
    with pytest.raises(RingSpecError, match="rings.txt line 2"):
        build_corpus(manifest)

    manifest.write_text("Z4\n\n# big\nM(2, Z16)\n")
    with pytest.raises(CapacityError, match="rings.txt line 4"):
        build_corpus(manifest)


def test_packaged_corpus_is_the_default(corpus):
    default = build_corpus()
    assert [e.spec_text for e in default] == [e.spec_text for e in corpus]
    assert len(default) >= 20
    assert max(e.ring.size for e in default) <= 4096


def test_extension_and_subring_entry_points(z2, z4):
    result = run_check("C29", con.dorroh(z2, con.self_action(z2)))
    assert result.check == "C29" and result.verdict == PASS
    result = run_check("C29", con.dorroh(z4, con.ideal_action(z4, [2])))
    assert result.check == "C29" and result.verdict == PASS
    result = run_check("C30", con.h_ring(1, 1, z4))
    assert result.check == "C30" and result.verdict == PASS
    result = run_check("C30", con.h_ring(1, 1, zn(3)))
    assert result.check == "C30" and result.verdict in (PASS, NOT_APPLICABLE)


def test_c29_quasi_inverse_condition_matches_a_scalar_search(z2):
    rng = random.Random(29)
    verdicts = set()
    for _ in range(300):
        n = rng.randint(1, 4)
        add = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        mul = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        zero = rng.randrange(n)
        action = con.BimoduleRingAction(
            v=con.NonUnitalRing(n, add, mul, zero), left=[[0] * n] * 2, right=[[0, 0]] * n
        )
        _, _, quasi = harness._dorroh_conditions(z2, action)
        # every x has a y with x + y + xy = 0, on any table
        expect = all(
            any(add[add[x][y]][mul[x][y]] == zero for y in range(n)) for x in range(n)
        )
        assert quasi == expect, (add, mul, zero)
        verdicts.add(quasi)
    assert verdicts == {True, False}


@pytest.mark.parametrize(
    "spec", ["T(2, Z2)", "quot(Z8, 2)", "corner(M(2, Z2), 8)", "dorroh(Z4, ideal(2))"]
)
def test_rings_are_freed_without_the_cyclic_collector(spec):
    gc.disable()
    try:
        ring = build_ring(spec)
        tables = weakref.ref(ring.add_table)
        classify.classification_report(ring)
        for check_id in CHECK_IDS:
            run_check(check_id, ring)
        del ring
        assert tables() is None
    finally:
        gc.enable()


def test_witness_reverification_is_independent(z4, m2z2):
    ok, first_failure = classify.is_delta_quasipolar(m2z2)
    assert not ok
    assert reverify_not_dqp_witness(m2z2, first_failure)
    # elements that do have a spectral idempotent are not witnesses
    assert not reverify_not_dqp_witness(z4, 2)
    assert not reverify_not_dqp_witness(m2z2, 0)


def _false_hits(ring, count):
    """Copies of the table where row u gains u*w = 1 for some w < u^-1
    with w*u != 1: u stays a unit only if every hit in its row is tried."""
    out = []
    for u in sorted(oracles.units_of(ring)):
        w = next((w for w in range(ring.inverse(u)) if ring.mul(w, u) != ring.one), None)
        if w is not None and len(out) < count:
            out.append(oracles.mutate_mul_entry(ring, u, w, ring.one))
    return out


def test_c31_reverifier_matches_scalar_oracle_on_non_rings(m2z2):
    # the golden corruptions that keep provenance run C31 on non-ring
    # M(2, .) tables, so the re-verifier must decide the same predicate
    # as a scan of every pair on any table
    rng = random.Random(31)
    for ring, hits, random_entries in ((m2z2, 8, 8), (build_ring("M(2, Z3)"), 3, 2)):
        tables = [ring] + _false_hits(ring, hits)
        for _ in range(random_entries):
            x, y, value = (rng.randrange(ring.size) for _ in range(3))
            tables.append(oracles.mutate_mul_entry(ring, x, y, value))
        for table in tables:
            accepted = {a for a in range(table.size) if reverify_not_dqp_witness(table, a)}
            assert accepted == oracles.not_dqp_witnesses_of(table), table.spell()


def test_row_search_skips_matches_across_entries():
    # 256 = bytes 00 01 00 00 and 0 = 00 00 00 00: a 1 = 01 00 00 00 at byte 1
    row = np.array([256, 0, 1, 7, 1], dtype=np.int32)
    assert list(harness._positions(row, 1)) == [2, 4]
    assert list(harness._positions(row, 3)) == []


@pytest.mark.parametrize("jobs", [0, -4])
def test_run_suite_rejects_jobs_below_one(corpus, jobs):
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        run_suite(corpus[:2], jobs=jobs)


# Single-entry corruptions that make a spectral check FAIL when run
# without the C00 gate.  Each witness lists the lowest failing element,
# then the lowest offending idempotent (C09, C24) or the element's whole
# spectral set (C18, C19), then for C24 the lowest annihilated x.
SPECTRAL_FAIL_WITNESSES = [
    ("C09", "T(2, Z2)", (3, 3, 5), [3, 5], "jacobson-spectral p not delta-spectral"),
    ("C09", "dorroh(Z4, ideal(2))", (5, 3, 2), [3, 2], "jacobson-spectral p not delta-spectral"),
    ("C18", "prod(Z2, Z4)", (3, 3, 5), [3, 1], "unit spectral set differs from {1}"),
    ("C18", "H(1, 1, Z2)", (2, 1, 0), [1, 1, 3], "unit spectral set differs from {1}"),
    ("C19", "H(1, 1, Z2)", (1, 1, 0), [0, 0, 2, 3, 4, 5, 6, 7], "nilpotent spectral set differs from {0}"),
    ("C19", "dorroh(Z4, ideal(2))", (4, 4, 4), [0, 0, 4], "nilpotent spectral set differs from {0}"),
    ("C19", "prod(Z2, Z4)", (6, 6, 0), [6, 4], "nilpotent spectral set differs from {0}"),
    ("C24", "H(1, 1, Z2)", (2, 1, 0), [4, 6, 5], "x*a = 0 but x*p != 0"),
    ("C24", "T(2, Z2)", (6, 6, 5), [6, 5, 1], "x*a = 0 but x*p != 0"),
    ("C24", "prod(Z2, Z4)", (6, 7, 0), [6, 4, 7], "a*x = 0 but p*x != 0"),
]


@pytest.mark.parametrize(
    "check_id, spell, entry, elements, detail",
    SPECTRAL_FAIL_WITNESSES,
    ids=[f"{check_id}-{spell}" for check_id, spell, *_ in SPECTRAL_FAIL_WITNESSES],
)
def test_spectral_check_fail_witnesses(corpus_rings, check_id, spell, entry, elements, detail):
    ring = oracles.mutate_mul_entry(corpus_rings[spell], *entry)
    result = run_check(check_id, ring)
    assert result.verdict == FAIL
    assert result.witness == {
        "elements": elements,
        "names": [ring.element_name(x) for x in elements],
        "detail": detail,
    }


# Corruptions that C00 must reject with the full triple scan's report:
# one multiplication entry, one diagonal addition entry (the pair axioms
# still hold, so only a triple scan can find the witnesses), and one
# addition entry that breaks a pair axiom and all three triple axioms
# that can involve addition.
C00_FAIL_WITNESSES = [
    (
        "mul",
        "M(2, Z2)",
        (5, 6, 3),
        [1, 5, 6],
        "axiom mul-associativity violated",
        "violated: mul-associativity, left-distributivity, right-distributivity (exhaustive scan)",
    ),
    (
        "add",
        "Z6",
        (4, 4, 1),
        [1, 3, 4],
        "axiom add-associativity violated",
        "violated: add-associativity, left-distributivity, right-distributivity (exhaustive scan)",
    ),
    (
        "add",
        "prod(Z2, Z4)",
        (2, 5, 1),
        [2, 5],
        "axiom add-commutativity violated",
        "violated: add-commutativity, add-associativity, left-distributivity, "
        "right-distributivity (exhaustive scan)",
    ),
]


@pytest.mark.parametrize(
    "table, spell, entry, elements, detail, note",
    C00_FAIL_WITNESSES,
    ids=[f"{table}-{spell}" for table, spell, *_ in C00_FAIL_WITNESSES],
)
def test_c00_fail_witnesses(corpus_rings, table, spell, entry, elements, detail, note):
    ring = corpus_rings[spell]
    x, y, value = entry
    if table == "mul":
        bad = oracles.mutate_mul_entry(ring, x, y, value)
    else:
        add = ring.add_table.copy()
        add[x, y] = value
        bad = FiniteRing(ring.size, add, ring.mul_table, zero=ring.zero, one=ring.one)
    result = run_check("C00", bad)
    assert result.verdict == FAIL
    assert result.witness == {
        "elements": elements,
        "names": [bad.element_name(x) for x in elements],
        "detail": detail,
    }
    assert result.note == note


def test_c00_above_the_scan_limit_notes_what_is_not_checked():
    bad = oracles.mutate_mul_entry(zn(260), 3, 5, 16)
    result = run_check("C00", bad)
    assert result.verdict == FAIL
    assert result.witness["elements"] == [2, 1, 5]
    assert result.note == (
        "violated: right-distributivity; "
        "not checked: mul-associativity, left-distributivity (sampled scan)"
    )
