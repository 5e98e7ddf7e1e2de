import collections
import concurrent.futures
import gc
import inspect
import json
import random
import tracemalloc
import weakref

import numpy as np
import pytest

from deltaring import (
    CapacityError,
    FiniteRing,
    analysis,
    build_ring,
    classify,
    constructions as con,
    harness,
    kernel,
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
    pooled = run_suite(corpus, jobs=2).to_dict()
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    assert json.dumps(first, sort_keys=True) == json.dumps(pooled, sort_keys=True)
    assert "millis" not in json.dumps(first)
    timed = run_suite(corpus).to_dict(timing=True)
    assert "total_millis" in timed["summary"]
    assert all("millis" in row for row in timed["results"])


def test_suite_runs_on_the_calling_thread_unless_jobs_asks_for_a_pool(corpus, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    for jobs in (None, 1):
        report = run_suite(corpus, jobs=jobs)
        assert len(report.results) == len(corpus) * len(CHECK_IDS)
        assert not report.failures()
    assert run_suite(corpus[:1], jobs=2).results  # one ring needs no pool
    with pytest.raises(AssertionError, match="thread pool"):
        run_suite(corpus[:2], jobs=2)


def test_one_suite_run_computes_each_cached_value_once(monkeypatch, tmp_path):
    # each undecorated compute is wrapped with a counter in its
    # decorator's closure, where every caller's name for the layer leads
    calls = collections.Counter()
    for layer in (kernel.FiniteRing.inverse_table, kernel.validation_report,
                  classify.clean_sweep_flags, classify.is_abelian, classify.spectral_grid):
        compute = layer.__wrapped__

        def counted(ring, *args, compute=compute):
            calls[(ring, compute.__name__, *args)] += 1
            return compute(ring, *args)

        cell = next(cell for cell in layer.__closure__ if cell.cell_contents is compute)
        monkeypatch.setattr(cell, "cell_contents", counted)
    manifest = tmp_path / "rings.txt"
    manifest.write_text("M(2, Z2)\nprod(Z2, prod(Z2, Z2))\n")
    entries = build_corpus(manifest)
    assert not run_suite(entries).failures()
    assert max(calls.values()) == 1, calls.most_common(3)
    # (target, commuting, unique): C14's premises on both rings, and on the
    # abelian product also the strongly delta-clean and J-clean flags of
    # C11, C12 and C25.  Spectral flavors: delta for the delta-quasipolar
    # flags of C11 and C12, and unit for C21 on the delta-quasipolar
    # product; no jacobson grid, as C09 sweeps none where the two radical
    # targets agree
    premises = {("unit", False, True), ("delta", False, True)}
    clean = [premises, premises | {("delta", True, False), ("jacobson", False, False)}]
    for entry, flags, grids in zip(entries, clean, [{"delta"}, {"delta", "unit"}]):
        keys = {key[1:] for key in calls if key[0] is entry.ring}
        assert keys == {("inverse_table",), ("validation_report",), ("is_abelian",),
                        *(("spectral_grid", flavor) for flavor in grids),
                        *(("clean_sweep_flags", *key) for key in flags)}, entry.spec_text


def test_a_suite_run_binds_no_cached_layer_arguments(monkeypatch):
    # a cached layer called with keywords binds them through its signature
    # on every call, a cache hit included; the checks pass them by position
    binds = collections.Counter()
    bind = inspect.Signature.bind

    def counted(self, *args, **kwargs):
        binds[str(self)] += 1
        return bind(self, *args, **kwargs)

    monkeypatch.setattr(inspect.Signature, "bind", counted)
    for strict in (False, True):
        assert not run_suite(build_corpus(), strict_commuting=strict).failures()
        assert not binds, (strict, binds.most_common(3))


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
        tables = weakref.ref(ring.fill().add_table)
        classify.classification_report(ring)
        for check_id in CHECK_IDS:
            run_check(check_id, ring)
        del ring
        assert tables() is None
    finally:
        gc.enable()


def test_no_check_peaks_far_above_what_its_ring_holds():
    # every check of one verify on a fresh 1024-element ring, in suite
    # order, each bounded over the larger of what the ring held before
    # it and after it: C00's tables count as held, its blocks do not
    ring = build_ring("prod(M(2, Z2), T(2, Z4))")
    over = {}
    gc.collect()
    tracemalloc.start()
    try:
        for check_id in CHECK_IDS:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            assert run_check(check_id, ring).verdict != FAIL, check_id
            held, peak = tracemalloc.get_traced_memory()
            over[check_id] = (peak - max(before, held)) / 2**20
    finally:
        tracemalloc.stop()
    assert max(over.values()) <= 1.25, over


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


CLOSURE_CHECKS = ("C02", "C03", "C04", "C17", "C22")
# the rings of the benchmark's point_queries workload, and rings at the cap
POINT_SPECS = ("T(3, Z2)", "M(2, Z3)", "T(2, Z8)", "H(1, 1, Z8)", "Z1024", "prod(M(2, Z2), T(2, Z4))")
CAP_SPECS = ("Z4096", "M(2, Z8)", "T(3, Z4)", "dorroh(Z64, self)")


def _closure_rows(ring):
    """The rows of C00, which a verify runs first, then of the closure checks."""
    return [run_check(check_id, ring).to_dict() for check_id in ("C00", *CLOSURE_CHECKS)]


def _non_rings(rings, seed, count):
    """Single-entry corruptions of each ring's multiplication table, and
    each table with its one moved to another element: that table fails
    only the one-identity axiom, so the prover proves the triple axioms."""
    rng = random.Random(seed)
    for ring in rings:
        for _ in range(count):
            x, y, value = (rng.randrange(ring.size) for _ in range(3))
            yield oracles.mutate_mul_entry(ring, x, y, value)
        others = [x for x in range(ring.size) if x not in (ring.zero, ring.one)]
        if others:
            one = rng.choice(others)
            yield FiniteRing(ring.size, ring.add_table, ring.mul_table, zero=ring.zero, one=one)


def test_closure_checks_answer_as_their_sweeps(corpus, ladder_rings, monkeypatch):
    # generators decide on the rings that pass C00; without them every
    # row comes from the sweep, and each verdict and witness is the same
    rings = [entry.ring for entry in corpus] + list(ladder_rings.values())
    rings += [build_ring(spec) for spec in POINT_SPECS + CAP_SPECS]
    rings += _non_rings([entry.ring.fill() for entry in corpus if entry.ring.size <= 64], 36, 6)
    decided = [_closure_rows(ring) for ring in rings]
    for ring, rows in zip(rings, decided):
        # the generators exist exactly on the tables that passed C00
        assert (kernel.proven_generators(ring) is None) == (rows[0]["verdict"] == FAIL)
    # unit_generators is cached once C17 has run, so it is patched too
    monkeypatch.setattr(analysis, "proven_generators", lambda ring: None)
    monkeypatch.setattr(analysis, "unit_generators", lambda ring: None)
    for ring, rows in zip(rings, decided):
        assert _closure_rows(ring) == rows, ring.spell()
    fails = {row["check"] for rows in decided for row in rows[1:] if row["verdict"] == FAIL}
    assert fails == set(CLOSURE_CHECKS) - {"C22"}


@pytest.mark.parametrize("spec", ["M(2, Z2)", "M(2, Z3)", "T(3, Z2)"])
def test_c17_reads_every_unit_generator(spec, monkeypatch):
    # flag sets that conjugation by all the unit generators but one maps
    # into themselves: only the left-out generator moves them
    ring = build_ring(spec)
    run_check("C00", ring)
    generators = analysis.unit_generators(ring).tolist()
    assert len(generators) >= 2
    inverse = ring.inverse_table()
    flag_sets = []
    for left_out in generators:
        kept = [g for g in generators if g != left_out]
        for x in range(0, ring.size, 3):
            orbit, frontier = {x}, {x}
            while frontier:
                frontier = {
                    ring.mul(ring.mul(int(inverse[g]), y), g) for y in frontier for g in kept
                } - orbit
                orbit |= frontier
            flags = np.zeros(ring.size, dtype=bool)
            flags[list(orbit)] = True
            flag_sets.append(flags)
    verdicts = []
    for flags in flag_sets:
        monkeypatch.setattr(classify, "element_flags", lambda ring, flavor: flags)
        decided = run_check("C17", ring).to_dict()
        with monkeypatch.context() as sweep_only:  # unit_generators is cached after C00
            sweep_only.setattr(analysis, "unit_generators", lambda ring: None)
            assert run_check("C17", ring).to_dict() == decided
        verdicts.append(decided["verdict"])
    assert verdicts.count(FAIL) > 0 and verdicts.count(PASS) > 0


def _closed_under_conjugation(ring, x, generators):
    """The flags of x's orbit under conjugation by the generators."""
    inverse = ring.inverse_table()
    orbit, frontier = {x}, {x}
    while frontier:
        frontier = {
            ring.mul(ring.mul(int(inverse[g]), y), g) for y in frontier for g in generators
        } - orbit
        orbit |= frontier
    flags = np.zeros(ring.size, dtype=bool)
    flags[list(orbit)] = True
    return flags


@pytest.mark.parametrize("spec", ["M(2, Z2)", "M(2, Z3)", "T(3, Z2)"])
@pytest.mark.parametrize("which", [0, -1], ids=["first", "last"])
def test_c17_fails_where_only_one_unit_generator_moves_the_flags(spec, which, monkeypatch):
    # orbits under every unit generator but one: C17 must read that one
    # to fail as its sweep does.  unit_generators is cached once C00 has
    # run, so the sweep's row is taken with it patched to None.
    ring = build_ring(spec)
    run_check("C00", ring)
    generators = analysis.unit_generators(ring).tolist()
    kept = [g for g in generators if g != generators[which]]
    fails = 0
    for x in range(ring.size):
        flags = _closed_under_conjugation(ring, x, kept)
        monkeypatch.setattr(classify, "element_flags", lambda ring, flavor: flags)
        decided = run_check("C17", ring).to_dict()
        with monkeypatch.context() as sweep_only:
            sweep_only.setattr(analysis, "unit_generators", lambda ring: None)
            assert run_check("C17", ring).to_dict() == decided, x
        fails += decided["verdict"] == FAIL
    assert fails > 0


def test_a_passing_ring_reaches_no_closure_sweep(corpus, ladder_rings, monkeypatch):
    sweeps = []
    escape, reads = analysis.first_escape, harness.row_block_reads

    def counted_escape(*args, **kwargs):
        sweeps.append("first_escape")
        return escape(*args, **kwargs)

    def counted_reads(*args, **kwargs):  # C17's sweep over every unit
        sweeps.append("row_block_reads")
        return reads(*args, **kwargs)

    monkeypatch.setattr(analysis, "first_escape", counted_escape)
    monkeypatch.setattr(harness, "row_block_reads", counted_reads)
    rings = [entry.ring for entry in corpus] + list(ladder_rings.values())
    for ring in rings + [build_ring(spec) for spec in POINT_SPECS]:
        assert all(row["verdict"] != FAIL for row in _closure_rows(ring)), ring.spell()
    assert sweeps == []
    # a table that fails C00 sweeps
    _closure_rows(oracles.mutate_mul_entry(build_ring("M(2, Z2)"), 5, 6, 3))
    assert "first_escape" in sweeps and "row_block_reads" in sweeps


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
        add = ring.fill().add_table.copy()
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
    assert result.witness["elements"] == [3, 4, 1]
    assert result.note == (
        "violated: left-distributivity; "
        "not checked: mul-associativity, right-distributivity (sampled scan)"
    )


# -- FAIL branches that no ring of the corpus reaches ---------------------------------
#
# Each test patches the layer its check reads, so the check sees an
# answer that contradicts the theorem it states, and asserts the row.


def _assert_fail(check_id, ring, elements, detail, named_by=None):
    result = run_check(check_id, ring)
    named_by = ring if named_by is None else named_by
    assert result.verdict == FAIL, result.to_dict()
    assert result.witness == {
        "elements": elements,
        "names": named_by.names_of(elements),
        "detail": detail,
    }


def test_c15_fails_when_two_escapes_delta(monkeypatch):
    ring = build_ring("Z4")
    assert classify.is_delta_quasipolar(ring)[0]
    without_two = analysis.delta_mask(ring).copy()
    without_two[2] = False
    monkeypatch.setattr(analysis, "delta_mask", lambda ring: without_two)
    _assert_fail("C15", ring, [2], "1+1 escapes delta")


def test_c16_fails_when_e12_is_not_quasinilpotent(monkeypatch):
    ring = build_ring("M(2, Z2)")
    e12 = con.matrix_unit_index(ring, 0, 1)
    qnil = analysis.qnil_sweep_mask(ring).copy()
    qnil[e12] = False
    monkeypatch.setattr(analysis, "qnil_sweep_mask", lambda ring: qnil)
    _assert_fail("C16", ring, [e12], "expected quasinilpotent is not")


def test_c16_fails_when_e12_lies_in_delta(monkeypatch):
    # delta and the radical both take e12, so they still agree
    ring = build_ring("M(2, Z2)")
    e12 = con.matrix_unit_index(ring, 0, 1)
    grown = analysis.jacobson_mask(ring).copy()
    grown[e12] = True
    monkeypatch.setattr(analysis, "delta_sweep_mask", lambda ring: grown)
    monkeypatch.setattr(analysis, "jacobson_mask", lambda ring: grown)
    _assert_fail("C16", ring, [e12], "expected escapee lies in delta")


def _answers_true_for(monkeypatch, ring):
    """``classify.is_delta_quasipolar`` patched to call ``ring`` delta-quasipolar."""
    real = classify.is_delta_quasipolar
    monkeypatch.setattr(
        classify, "is_delta_quasipolar", lambda r: (True, None) if r is ring else real(r)
    )


def test_c27_fails_when_the_product_holds_but_a_factor_does_not(monkeypatch):
    ring = build_ring("prod(Z2, Z3)")
    factor = ring.provenance.right
    assert classify.is_delta_quasipolar(factor) == (False, 1)
    _answers_true_for(monkeypatch, ring)
    detail = "product is delta-quasipolar but factor Z3 is not"
    _assert_fail("C27", ring, [1], detail, named_by=factor)


def test_c29_fails_when_the_extension_holds_but_the_base_does_not(monkeypatch):
    ring = build_ring("dorroh(Z3, self)")
    base = ring.provenance.base
    assert classify.is_delta_quasipolar(base) == (False, 1)
    _answers_true_for(monkeypatch, ring)
    _assert_fail("C29", ring, [1], "extension is delta-quasipolar but the base is not", named_by=base)


def test_c30_fails_when_the_subring_holds_but_the_base_does_not(monkeypatch):
    ring = build_ring("H(1, 1, Z3)")
    base = ring.provenance.base
    assert classify.is_delta_quasipolar(base) == (False, 1)
    _answers_true_for(monkeypatch, ring)
    _assert_fail("C30", ring, [1], "subring is delta-quasipolar but the base is not", named_by=base)


def test_c31_fails_when_the_matrix_ring_reads_delta_quasipolar(monkeypatch):
    ring = build_ring("M(2, Z2)")
    _answers_true_for(monkeypatch, ring)
    _assert_fail("C31", ring, [ring.one], "matrix ring unexpectedly delta-quasipolar")


def test_c31_fails_when_the_witness_fails_reverification(monkeypatch):
    ring = build_ring("M(2, Z2)")
    _, witness = classify.is_delta_quasipolar(ring)
    monkeypatch.setattr(harness, "reverify_not_dqp_witness", lambda ring, a: False)
    _assert_fail("C31", ring, [witness], "witness failed scalar re-verification")
