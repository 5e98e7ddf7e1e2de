"""End-to-end acceptance gate.

Each test prints exactly one line of the form

    ACCEPTANCE n: PASS|FAIL - <label>

directly to the terminal (bypassing capture), then asserts.  Test 3 is
marked xfail(strict=True): the claimed two-element spectral set cannot
occur, because the double-commutant requirement forces spectral
idempotents to be unique, so the test prints an honest FAIL line and is
expected to fail.  See the repository notes for the analysis.
"""

import json
import subprocess
import sys
import time

import pytest

from deltaring import analysis, classify, constructions as con, harness
from deltaring.ringspec import build_ring, parse_ring_spec

import oracles


def _report(capsys, number, label, ok):
    with capsys.disabled():
        print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {label}")


def _run_module(*argv):
    return subprocess.run(
        [sys.executable, "-m", "deltaring", *argv],
        capture_output=True,
        timeout=600,
    )


def test_acceptance_1_triangular_classification_triple(capsys):
    started = time.perf_counter()
    ring = build_ring("T(2, Z2)")  # fresh build: timing includes everything
    dqp = classify.is_delta_quasipolar(ring)[0]
    abelian = classify.is_abelian(ring)[0]
    uniquely_clean = classify.is_uniquely_clean(ring)[0]
    elapsed = time.perf_counter() - started
    ok = dqp is True and abelian is False and uniquely_clean is False and elapsed < 1.0
    _report(capsys, 1, "2x2 triangular ring over Z2: quasipolar, not abelian, not uniquely clean, under 1 s", ok)
    assert (dqp, abelian, uniquely_clean) == (True, False, False)
    assert elapsed < 1.0


def test_acceptance_2_triangular_delta_formula(capsys):
    started = time.perf_counter()
    ring = build_ring("T(2, Z2)")
    base = build_ring("Z2")
    got = set(analysis.delta(ring).indices())
    upper_unit = con.matrix_unit_index(ring, 0, 1)
    # independent reconstruction: diagonal entries from delta of the
    # base (computed by loops), strictly upper entries arbitrary
    base_delta = oracles.delta_of(base)
    formula = {
        x
        for x in ring.elements()
        if all(con.matrix_entries(ring, x)[i][i] in base_delta for i in range(2))
    }
    elapsed = time.perf_counter() - started
    ok = got == {ring.zero, upper_unit} == formula and elapsed < 1.0
    _report(capsys, 2, "delta of the triangular ring is {0, E12} and matches the diagonal formula", ok)
    assert got == {ring.zero, upper_unit}
    assert got == formula
    assert elapsed < 1.0


@pytest.mark.xfail(
    strict=True,
    reason="spectral idempotents are provably unique; the claimed "
    "two-element set contains an idempotent outside the double "
    "commutant and cannot be reproduced",
)
def test_acceptance_3_claimed_two_element_spectral_set(capsys):
    ring = build_ring("T(2, Z2)")
    a = con.matrix_encode(ring, [[1, 1], [0, 0]])
    claimed = {
        con.matrix_encode(ring, [[1, 1], [0, 0]]),
        con.matrix_encode(ring, [[1, 0], [0, 0]]),
    }
    actual = set(classify.spectral_idempotents(ring, a, "delta").indices())
    ok = actual == claimed
    _report(capsys, 3, "element [[1,1],[0,0]] has the claimed two spectral idempotents", ok)
    assert actual == claimed


def test_acceptance_4_full_matrix_ring_witness(capsys):
    ring = build_ring("M(2, Z2)")
    verdict, witness = classify.is_delta_quasipolar(ring)
    reverified = witness is not None and harness.reverify_not_dqp_witness(ring, witness)
    ok = verdict is False and reverified
    _report(capsys, 4, "2x2 full matrix ring is not quasipolar; witness re-verified independently", ok)
    assert verdict is False
    assert reverified


def test_acceptance_5_full_suite(capsys):
    started = time.perf_counter()
    corpus = harness.build_corpus()
    report = harness.run_suite(corpus)
    elapsed = time.perf_counter() - started
    summary = report.summary()
    quasipolar_rings = {
        e.spec_text for e in corpus if classify.is_delta_quasipolar(e.ring)[0]
    }
    c22 = {r.ring: r for r in report.results if r.check == "C22"}
    vacuous_ok = all(
        c22[spell].verdict == "VACUOUS" and "2 in delta(R): True" in c22[spell].note
        for spell in quasipolar_rings
    )
    ok = (
        len(corpus) >= 20
        and max(e.ring.size for e in corpus) <= 4096
        and summary["fail"] == 0
        and vacuous_ok
        and elapsed <= 300.0
    )
    _report(capsys, 5, "full check suite: zero failures, vacuity evidence present, within budget", ok)
    assert len(corpus) >= 20
    assert summary["fail"] == 0, report.failures()
    assert vacuous_ok
    assert elapsed <= 300.0


def test_acceptance_6_characterizations_and_products(capsys, corpus):
    forms_agree = True
    for entry in corpus:
        primary = analysis.delta(entry.ring)
        if any(v != primary for v in analysis.delta_alternative_forms(entry.ring)):
            forms_agree = False
    products_agree = True
    for entry in corpus:
        spec = parse_ring_spec(entry.spec_text)
        if spec.head != "prod":
            continue
        left = build_ring(spec.args[0].canonical())
        right = build_ring(spec.args[1].canonical())
        expected = {
            con.product_encode(entry.ring, r, s)
            for r in analysis.delta(left)
            for s in analysis.delta(right)
        }
        if set(analysis.delta(entry.ring).indices()) != expected:
            products_agree = False
    ok = forms_agree and products_agree
    _report(capsys, 6, "all delta characterizations agree; products decompose componentwise", ok)
    assert forms_agree
    assert products_agree


def test_acceptance_7_radical_index_two_equivalence(capsys, corpus_rings):
    outcomes = {}
    for spell in ("Z2", "Z4", "table:f4.json"):
        ring = corpus_rings[spell]
        radical_index = con.quotient(ring, analysis.jacobson_radical(ring)).size
        local = classify.is_local(ring)[0]
        dqp, first_failure = classify.is_delta_quasipolar(ring)
        outcomes[spell] = (radical_index, local, dqp, first_failure)
    equivalence = all(
        (radical_index == 2) == (local and dqp)
        for radical_index, local, dqp, _ in outcomes.values()
    )
    z2_ok = outcomes["Z2"][:3] == (2, True, True)
    z4_ok = outcomes["Z4"][:3] == (2, True, True)
    f4_index, f4_local, f4_dqp, f4_first = outcomes["table:f4.json"]
    f4 = corpus_rings["table:f4.json"]
    # 1 + 1 = 0 lands in delta, so element 1 does have a spectral
    # idempotent; the first element without one is a generator
    f4_ok = (
        f4_index == 4
        and f4_local
        and f4_dqp is False
        and bool(classify.element_flags(f4, "delta")[1])
        and f4_first == 2
    )
    ok = equivalence and z2_ok and z4_ok and f4_ok
    _report(capsys, 7, "radical-index-2 equivalence on Z2, Z4; four-element field correctly rejected", ok)
    assert equivalence
    assert z2_ok and z4_ok and f4_ok


def test_acceptance_8_mutation_flips_to_failure(capsys, tmp_path):
    table = {
        "size": 4,
        "add": [[(x + y) % 4 for y in range(4)] for x in range(4)],
        "mul": [[(x * y) % 4 for y in range(4)] for x in range(4)],
        "zero": 0,
        "one": 1,
    }
    table["mul"][2][3] = 1  # single corrupted entry
    path = tmp_path / "mutant.json"
    path.write_text(json.dumps(table))
    validate = _run_module("validate", f"table:{path}")
    manifest = tmp_path / "rings.txt"
    manifest.write_text(f"table:{path}\n")
    verify = _run_module("verify", "--manifest", str(manifest))
    ok = validate.returncode == 1 and verify.returncode == 1
    _report(capsys, 8, "one corrupted table entry drives validate and verify to exit 1", ok)
    assert validate.returncode == 1
    report = json.loads(validate.stdout)
    assert report["ok"] is False and report["violations"]
    assert verify.returncode == 1
    suite = json.loads(verify.stdout)
    assert suite["summary"]["fail"] >= 1


def test_acceptance_9_byte_identical_verify(capsys):
    first = _run_module("verify")
    second = _run_module("verify")
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and b"millis" not in first.stdout
    )
    _report(capsys, 9, "consecutive verify runs emit byte-identical reports", ok)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    assert b"millis" not in first.stdout
