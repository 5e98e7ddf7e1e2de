"""The theorem paths of certified rings against the sweeps they replace.

On a ring that carries the ``certified`` mark, ``analysis`` and
``classify`` answer from theorems about finite rings (T1-T8, proved in
their docstrings).  Here every theorem path is compared with its named
sweep on every element of the corpus, the benchmark's ladder rings and
its point rings; mutations of the theorem paths must be caught by that
comparison; unmarked rings must keep the sweeps; and the verbs that
answer from theorems must leave no sweep in a certified ring's cache.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import numpy as np
import pytest

import deltaring
from deltaring import FiniteRing, analysis, build_ring, classify, cli
from deltaring import constructions as con

import oracles

# the rings of the benchmark's point_queries workload
POINT_SPECS = (
    "T(3, Z2)", "M(2, Z3)", "T(2, Z8)", "H(1, 1, Z8)", "Z1024", "prod(M(2, Z2), T(2, Z4))",
)
SPECTRAL_FLAVORS = ("delta", "jacobson", "quasipolar")
CLEAN_KINDS = [
    (target, commuting, unique)
    for target in ("unit", "jacobson", "delta")
    for commuting in (False, True)
    for unique in (False, True)
]
# small certified rings on which every theorem path has work to do:
# T(2, Z2) has an element whose lift does not commute with J, Z9 and
# H(1, 1, Z3) lifts in odd characteristic, M(2, Z2) non-central
# idempotents, Z8 nilpotents with long power tails, and Z25 a lift that
# a sign slip in the polynomial still settles, wrongly
MUTATION_SPECS = (
    "Z9", "Z8", "Z25", "T(2, Z2)", "T(2, Z4)", "M(2, Z2)", "H(1, 1, Z3)", "prod(Z3, Z4)",
)


def _twin(ring: FiniteRing) -> FiniteRing:
    """The same tables without the certified mark, so every verdict sweeps."""
    return FiniteRing(
        ring.size, ring.add_table, ring.mul_table, zero=ring.zero, one=ring.one,
        provenance=ring.provenance, element_names=ring.element_names,
    )


def _mismatches(ring: FiniteRing) -> list[str]:
    """Where a theorem path of a certified ring differs from its sweep."""
    assert ring.certified, ring.spell()
    found = []

    def compare(label, theorem, sweep):
        if not np.array_equal(theorem, sweep):
            found.append(f"{ring.spell()}: {label}")

    compare("delta", analysis.delta_mask(ring), analysis.delta_sweep_mask(ring))
    compare("qnil", analysis.qnil_mask(ring), analysis.qnil_sweep_mask(ring))
    idl = analysis.idempotent_indices(ring)
    every = np.arange(ring.size)
    for flavor in SPECTRAL_FLAVORS:
        compare(f"{flavor} flags", classify.element_flags(ring, flavor),
                classify.spectral_sweep_flags(ring, flavor))
        # the spectral idempotent of every element, as a row of the grid
        p = classify._theorem_spectral(ring, every, flavor)
        compare(f"{flavor} spectral sets", idl == p[:, None], classify.spectral_grid(ring, flavor))
    for target, commuting, unique in CLEAN_KINDS:
        kind = dict(commuting=commuting, unique=unique)
        compare(f"clean {target} {kind}", classify.clean_flags(ring, target, **kind),
                classify.clean_sweep_flags(ring, target, **kind))
    twin = _twin(ring)
    for strict in (False, True):
        got = classify.classification_report(ring, strict_commuting=strict).to_dict()
        want = classify.classification_report(twin, strict_commuting=strict).to_dict()
        if got != want:
            found.append(f"{ring.spell()}: classification report, strict={strict}")
    return found


def _caught(specs) -> bool:
    """Whether the comparison, on freshly built rings, sees a mismatch or
    an error."""
    try:
        return any(_mismatches(build_ring(spec)) for spec in specs)
    except AssertionError:
        return True


def test_theorem_paths_match_the_sweeps_on_the_corpus(corpus):
    assert all(e.ring.certified for e in corpus)
    found = [m for e in corpus for m in _mismatches(e.ring)]
    assert not found, found


def test_theorem_paths_match_the_sweeps_on_the_benchmark_rings(ladder_rings):
    rings = dict(ladder_rings)
    rings.update((spec, build_ring(spec)) for spec in POINT_SPECS if spec not in rings)
    assert len(rings) == 8  # five ladder rings and six point rings, three shared
    found = [m for ring in rings.values() for m in _mismatches(ring)]
    assert not found, found


def test_one_element_spectral_answers_match_the_grid(corpus_rings, ladder_rings):
    rings = list(corpus_rings.values()) + [ladder_rings["T(2, Z8)"], build_ring("M(2, Z3)")]
    for ring in rings:
        idl = analysis.idempotent_indices(ring)
        for a in sorted({0, 1, ring.size // 3, ring.size - 1}):
            for flavor in SPECTRAL_FLAVORS:
                got = classify.spectral_idempotents(ring, a, flavor).indices()
                assert got == tuple(idl[classify.spectral_grid(ring, flavor)[a]].tolist())


def test_the_radical_divides_the_units(corpus, ladder_rings):
    # |U| = |U(R/J)| |J| (T3), so |U| >= |J| on every ring, and the
    # mutation |U| <= |J| of T5's |U| = |J| changes no answer
    for ring in [e.ring for e in corpus] + list(ladder_rings.values()):
        units = np.count_nonzero(analysis.unit_mask(ring))
        assert units % np.count_nonzero(analysis.jacobson_mask(ring)) == 0, ring.spell()


# -- mutations of the theorem paths are caught ----------------------------------------


def test_the_comparison_passes_the_unmutated_mutation_rings():
    assert not _caught(MUTATION_SPECS)


def _sign_slip(ring, p, square):
    """3p^2 + 2p^3."""
    cube = ring.apply("mul", square, p)
    three = ring.apply("add", ring.apply("add", square, square), square)
    return ring.apply("add", three, ring.apply("add", cube, cube))


@pytest.mark.parametrize("step", [lambda ring, p, square: square, _sign_slip], ids=["p^2", "3p^2+2p^3"])
def test_a_wrong_lift_polynomial_is_caught(monkeypatch, step):
    # in place of p <- 3p^2 - 2p^3
    monkeypatch.setattr(classify, "_lift_step", step)
    assert _caught(MUTATION_SPECS)


def test_t7_without_its_commutation_test_is_caught(monkeypatch):
    monkeypatch.setattr(
        classify, "_commute_with_radical", lambda ring, lifts: np.ones(len(lifts), dtype=bool)
    )
    assert _caught(MUTATION_SPECS)


def test_t8_with_an_idempotent_outside_the_cycle_is_caught(monkeypatch):
    # 1 = a^0 is idempotent, but a power in the cycle only for units
    monkeypatch.setattr(
        classify, "_power_idempotents", lambda ring, a: np.full(len(a), ring.one)
    )
    assert _caught(MUTATION_SPECS)


def test_t5_without_its_abelian_leg_is_caught(monkeypatch):
    # T(2, Z2) has |U| = |J| = 2 and a non-central idempotent
    monkeypatch.setattr(classify, "is_abelian", lambda ring: (True, None))
    assert _caught(MUTATION_SPECS)


# -- unmarked rings sweep ------------------------------------------------------------------


def test_unmarked_rings_take_the_sweeps(z4, t2z2):
    for ring in (z4, t2z2):
        # one entry rewritten with its own value: the same ring, unmarked
        copy = oracles.mutate_mul_entry(ring, 1, 1, ring.mul(1, 1))
        assert ring.certified and not copy.certified
        report = classify.classification_report(copy)
        assert report.booleans == classify.classification_report(ring).booleans
        assert analysis.delta_mask(copy) is analysis.delta_sweep_mask(copy)
        assert analysis.qnil_mask(copy) is analysis.qnil_sweep_mask(copy)
        for key in ("comm_matrix", ("spectral_grid", "delta"), ("spectral_grid", "quasipolar"),
                    "decomposition_grid"):
            assert key in copy._cache, key


def test_constructions_carry_the_mark_from_their_inputs(f4):
    assert f4.certified and build_ring("corner(M(2, Z2), 8)").certified
    bad = oracles.mutate_mul_entry(f4, 1, 2, 3)
    assert not bad.certified
    assert not FiniteRing(2, [[0, 1], [1, 0]], [[0, 0], [0, 1]], zero=0, one=1).certified
    for ring in (con.product(bad, con.zn(2)), con.matrix_ring(2, bad),
                 con.upper_triangular(2, bad), con.dorroh(bad, con.zero_action(bad))):
        assert not ring.certified, ring.spell()


# -- verbs that answer from theorems fill no sweep --------------------------------------

SWEEP_KEYS = ("comm_matrix", "comm2_grid", "decomposition_grid", "delta_sweep_mask",
              "qnil_sweep_mask")
F4 = Path(deltaring.__file__).parent / "data" / "f4.json"


@pytest.mark.parametrize("spec", ["T(3, Z2)", "M(2, Z3)", "H(1, 1, Z4)", "quot(Z16, 4)",
                                  "dorroh(Z4, ideal(2))", "corner(M(2, Z2), 8)", f"table:{F4}"])
def test_verbs_on_certified_rings_fill_no_sweep(monkeypatch, spec):
    built = []

    def build(text):
        built.append(cli.ringspec.build_ring(text, cli.ringspec.BuildContext()))
        return built[-1]

    monkeypatch.setattr(cli, "_build_ring", build)
    calls = [["classify", spec], ["delta", spec]]
    calls += [["spectral", spec, "--element", "1", "--flavor", f] for f in ("delta", "quasipolar")]
    for argv in calls:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, argv
        ring = built[-1]
        assert ring.certified
        swept = [k for k in ring._cache if k in SWEEP_KEYS or (
            isinstance(k, tuple) and k[0] in ("spectral_grid", "spectral_sweep_flags"))]
        assert not swept, (argv, swept)
