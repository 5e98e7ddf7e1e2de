"""The theorem paths of certified rings against the sweeps they replace.

On a ring that carries the ``certified`` mark, ``analysis`` and
``classify`` answer from theorems about finite rings (T1-T9, proved in
their docstrings).  Here every theorem path of ``analysis.LAYERS`` is
compared with its sweep on every element of the corpus, the benchmark's
ladder rings and its point rings; mutations of the theorem paths must be
caught by that comparison; unmarked rings must keep the sweeps; the
verbs that answer from theorems must leave no sweep in a certified
ring's cache; and the one-element answers must fill no table.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import numpy as np
import pytest

import deltaring
from deltaring import FiniteRing, analysis, build_ring, classify, cli, harness
from deltaring import constructions as con

import oracles
import sources

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
    ring.fill()
    return FiniteRing(
        ring.size, ring.add_table, ring.mul_table, zero=ring.zero, one=ring.one,
        provenance=ring.provenance, element_names=ring.element_names,
    )


def _layer_calls(ring: FiniteRing) -> dict:
    """The (args, kwargs) at which each entry of ``analysis.LAYERS`` is
    compared on a ring: every element, flavor and clean kind."""
    every = np.arange(ring.size)
    return {
        "nilpotent_mask": [((), {})],
        "jacobson_mask": [((), {})],
        "in_radical": [((every,), {})],
        "delta_mask": [((), {})],
        "qnil_mask": [((), {})],
        "spectral_mask": [((a, f), {}) for f in classify.FLAVORS for a in range(ring.size)],
        "element_flags": [((f,), {}) for f in classify.FLAVORS],
        "clean_flags": [((t,), dict(commuting=c, unique=u)) for t, c, u in CLEAN_KINDS],
        "is_local": [((), {})],
    }


def _mismatches(ring: FiniteRing) -> list[str]:
    """Where a theorem path of a certified ring differs from its sweep."""
    assert ring.certified, ring.spell()
    found = []

    def compare(label, theorem, sweep):
        same = theorem == sweep if isinstance(theorem, tuple) else np.array_equal(theorem, sweep)
        if not same:
            found.append(f"{ring.spell()}: {label}")

    calls = _layer_calls(ring)
    assert calls.keys() == analysis.LAYERS.keys()
    for name, (theorem, sweep) in analysis.LAYERS.items():
        for args, kwargs in calls[name]:
            got = theorem(ring, *args, **kwargs)
            if got is not None:  # None: no theorem settles these arguments
                compare(f"{name} {args} {kwargs}", got, sweep(ring, *args, **kwargs))
    twin = _twin(ring)
    compare("negation", ring.neg_rows(), twin.neg_rows())  # (-1)*x against the scan
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


# rings at the 4096-element cap
CAP_SPECS = ("Z4096", "M(2, Z8)", "T(3, Z4)", "dorroh(Z64, self)")


def test_is_local_takes_the_sweeps_witness_from_u_and_j(corpus_rings, ladder_rings):
    # the first non-unit outside J and the first non-unit that it adds to
    # a unit, against the first escape of the non-unit square
    rings = [*corpus_rings.values(), *ladder_rings.values()]
    rings += [build_ring(spec) for spec in dict.fromkeys(POINT_SPECS + CAP_SPECS)]
    non_local = 0
    for ring in rings:
        assert ring.certified, ring.spell()
        got = classify.is_local(ring)
        assert got == classify.is_local(_twin(ring)), ring.spell()
        non_local += not got[0]
    assert non_local == 25


def test_one_element_spectral_answers_match_the_grid(corpus_rings, ladder_rings):
    rings = list(corpus_rings.values()) + [ladder_rings["T(2, Z8)"], build_ring("M(2, Z3)")]
    for ring in rings:
        idl = analysis.idempotent_indices(ring)
        for a in sorted({0, 1, ring.size // 3, ring.size - 1}):
            for flavor in SPECTRAL_FLAVORS:
                got = classify.spectral_idempotents(ring, a, flavor).indices()
                assert got == tuple(idl[classify.spectral_grid(ring, flavor)[a]].tolist())


def test_the_radical_divides_the_units(corpus, ladder_rings):
    # |U| = |U(R/J)| |J| (T3), so |U| >= |J| on every ring
    for ring in [e.ring for e in corpus] + list(ladder_rings.values()):
        units = np.count_nonzero(analysis.unit_mask(ring))
        assert units % np.count_nonzero(analysis.jacobson_sweep_mask(ring)) == 0, ring.spell()


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


@pytest.mark.parametrize("targets", [("unit",), ("jacobson", "delta")], ids=["unit", "radical"])
def test_a_unique_kind_answered_by_existence_is_caught(monkeypatch, targets):
    # the unique kinds of these targets take the flags of their
    # non-unique twins: T(2, Z2) is not uniquely clean, and has an
    # element with two decompositions a = e + j
    theorem, sweep = analysis.LAYERS["clean_flags"]

    def existence(ring, target="unit", *, commuting=False, unique=False):
        return theorem(ring, target, commuting=commuting, unique=unique and target not in targets)

    monkeypatch.setitem(analysis.LAYERS, "clean_flags", (existence, sweep))
    assert _caught(MUTATION_SPECS)


def test_t8_with_an_idempotent_outside_the_cycle_is_caught(monkeypatch):
    # 1 = a^0 is idempotent, but a power in the cycle only for units
    monkeypatch.setattr(
        classify, "_power_idempotents", lambda ring, a: np.full(len(a), ring.one)
    )
    assert _caught(MUTATION_SPECS)


def test_the_nil_test_matches_the_radical_sweep(corpus, ladder_rings):
    # T9 on every element of the corpus, the ladder rings and the point rings
    rings = [e.ring for e in corpus] + list(ladder_rings.values())
    rings += [build_ring(spec) for spec in POINT_SPECS if spec not in ladder_rings]
    assert len(rings) == 34 and all(ring.certified for ring in rings)
    for ring in rings:
        want = analysis.jacobson_sweep_mask(ring)
        assert np.array_equal(analysis.in_radical(ring, np.arange(ring.size)), want), ring.spell()
        assert np.array_equal(analysis.jacobson_mask(ring), want), ring.spell()


def test_t9_on_the_element_alone_is_caught(monkeypatch):
    # x's own nilpotency in place of that of its column R x
    monkeypatch.setitem(analysis.LAYERS, "in_radical", (
        lambda ring, xs: analysis.nilpotent_mask(ring)[np.asarray(xs)], analysis.in_radical_sweep
    ))
    assert _caught(MUTATION_SPECS)


def test_the_nil_test_reads_the_column_not_the_element(m2z2):
    e12 = con.matrix_unit_index(m2z2, 0, 1)
    assert analysis.nilpotent_mask(m2z2)[e12] and not analysis.jacobson_sweep_mask(m2z2)[e12]
    assert not analysis.in_radical(m2z2, [e12])[0] and not analysis.jacobson_mask(m2z2)[e12]


def test_j_as_the_nil_mask_alone_is_caught(monkeypatch):
    # e12 of M(2, Z2) is nilpotent, but e21 * e12 is a nonzero idempotent
    nil, _ = analysis.LAYERS["nilpotent_mask"]
    monkeypatch.setitem(analysis.LAYERS, "jacobson_mask", (nil, analysis.jacobson_sweep_mask))
    assert _caught(["M(2, Z2)"])


def test_one_squaring_fewer_is_caught(monkeypatch):
    # 2 has index 3 in Z8, the largest floor(log2 8) allows, so it needs
    # both of the bound's two squarings
    bound = analysis._nil_squarings
    assert bound(8) == 2
    monkeypatch.setattr(analysis, "_nil_squarings", lambda n: bound(n) - 1)
    assert _caught(["Z8"])


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
        assert analysis.jacobson_mask(copy) is analysis.jacobson_sweep_mask(copy)
        assert analysis.nilpotent_mask(copy) is analysis.nilpotent_sweep_mask(copy)
        for key in ("comm_matrix", ("spectral_grid", "delta"), ("spectral_grid", "quasipolar"),
                    ("clean_sweep_flags", "unit", False, True)):
            assert key in copy._cache, key


def test_unmarked_rings_keep_the_column_scan(z4, t2z2):
    for ring in (z4, t2z2):
        copy = oracles.mutate_mul_entry(ring, 1, 1, ring.mul(1, 1))
        every = np.arange(copy.size)
        assert np.array_equal(analysis.in_radical(copy, every), analysis.jacobson_mask(ring))
        assert "unit_mask" in copy._cache
        for flavor in SPECTRAL_FLAVORS:
            for a in every.tolist():
                got = classify.spectral_idempotents(copy, a, flavor).indices()
                assert got == classify.spectral_idempotents(ring, a, flavor).indices()
            assert ("spectral_grid", flavor) in copy._cache


def test_constructions_carry_the_mark_from_their_inputs(f4):
    assert f4.certified and build_ring("corner(M(2, Z2), 8)").certified
    bad = oracles.mutate_mul_entry(f4, 1, 2, 3)
    assert not bad.certified
    assert not FiniteRing(2, [[0, 1], [1, 0]], [[0, 0], [0, 1]], zero=0, one=1).certified
    for ring in (con.product(bad, con.zn(2)), con.matrix_ring(2, bad),
                 con.upper_triangular(2, bad), con.dorroh(bad, con.zero_action(bad))):
        assert not ring.certified, ring.spell()


# -- verbs that answer from theorems fill no sweep --------------------------------------


def _cached_reach(names) -> set:
    """The cache keys of the cached layers that the named functions are
    or reach (``sources.reached``), by the first part of a key."""
    reach = sources.reached([root for name in names for root in sources.definition(*name)])
    cached = sources.cached_layers()
    return {name for module, name in reach | set(names) if (module, name) in cached}


# the cached layers that only the sweeps of analysis.LAYERS reach, and no
# theorem path: comm_matrix, spectral_grid, the *_sweep_* masks and more
SWEEP_KEYS = _cached_reach(sources.layer_names().values()) - _cached_reach(sources.layer_names())

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
        swept = [k for k in ring._cache if (k[0] if isinstance(k, tuple) else k) in SWEEP_KEYS]
        assert not swept, (argv, swept)


def test_the_sweep_keys_hold_every_sweep_of_the_table():
    sweeps = {name for _, name in sources.layer_names().values()}
    cached = {name for _, name in sources.cached_layers()}
    assert sweeps & cached <= SWEEP_KEYS
    assert {"comm_matrix", "spectral_grid", "nilpotent_sweep_mask"} <= SWEEP_KEYS
    kept = {"nilpotent_mask", "jacobson_mask", "unit_mask"}
    assert kept <= cached and not SWEEP_KEYS & kept


# -- one-element answers, and delta, fill no table ------------------------------------

TABLES = ("add_table", "mul_table", "neg_table")


def _cli(monkeypatch, argv, fill=False):
    """The output of one CLI call, the ring it built, filled before the
    call when ``fill`` is set, and that ring with the parent of a corner
    or a quotient."""
    built = []

    def build(text):
        ctx = cli.ringspec.BuildContext()
        spec = cli.ringspec.parse_ring_spec(text)
        ring = cli.ringspec.build(spec, ctx)
        parents = [ctx.cache[spec.args[0].canonical()]] if spec.head in ("corner", "quot") else []
        built.append((ring.fill() if fill else ring, [ring, *parents]))
        return ring

    monkeypatch.setattr(cli, "_build_ring", build)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0, argv
    return out.getvalue(), *built[-1]


def _unfilled(rings) -> bool:
    return all(getattr(ring, name) is None for ring in rings for name in TABLES)


def _one_element_calls(spec, flavors):
    return [["--describe", spec]] + [
        ["spectral", spec, "--element", str(a), "--flavor", f] for f in flavors for a in (0, 5, 13)
    ]


# the point rings, the cap, and a quotient and a corner, which read
# their unfilled parents through their own reads
NO_FILL_SPECS = POINT_SPECS + ("Z4096", "quot(Z2048, 512)", "corner(prod(Z1024, Z4), 4)")


@pytest.mark.parametrize("spec", NO_FILL_SPECS)
def test_one_element_answers_fill_no_table(monkeypatch, spec):
    for argv in _one_element_calls(spec, SPECTRAL_FLAVORS):
        out, ring, rings = _cli(monkeypatch, argv)
        assert _unfilled(rings), argv
        # the nil mask that the nil test reads, n*ceil(log2 floor(log2 n)) products
        assert set(ring._cache) <= {"nilpotent_mask"}, (argv, list(ring._cache))
        assert out == _cli(monkeypatch, argv, fill=True)[0], argv


@pytest.mark.parametrize("spec", NO_FILL_SPECS)
def test_delta_on_a_certified_ring_fills_no_table(monkeypatch, spec):
    argv = ["delta", spec]
    out, ring, rings = _cli(monkeypatch, argv)
    assert _unfilled(rings)
    assert set(ring._cache) == {"nilpotent_mask", "jacobson_mask"}
    assert out == _cli(monkeypatch, argv, fill=True)[0]


@pytest.mark.parametrize("spec", ["T(3, Z2)", "M(2, Z3)", "dorroh(Z4, self)"])
def test_whole_ring_answers_fill_every_table(monkeypatch, spec):
    calls = [["classify", spec], ["validate", spec]]
    calls += _one_element_calls(spec, ["unit"])[1:]
    for argv in calls:
        out, ring, _ = _cli(monkeypatch, argv)
        assert all(getattr(ring, name) is not None for name in TABLES), argv
        assert out == _cli(monkeypatch, argv, fill=True)[0], argv
        if argv[0] == "spectral":
            assert ("spectral_grid", "unit") in ring._cache, argv
    ring = build_ring(spec)
    assert harness.run_check("C00", ring, harness.SuiteContext()).verdict == harness.PASS
    assert all(getattr(ring, name) is not None for name in TABLES)


def test_the_nil_test_reads_an_unfilled_ring_pointwise(ladder_rings):
    # every element up to 512, and on larger rings a seeded sample that
    # holds the first members of J
    for spec in dict.fromkeys(POINT_SPECS + tuple(ladder_rings)):
        ring, filled = build_ring(spec), build_ring(spec).fill()
        radical = analysis.jacobson_sweep_mask(filled)
        xs = np.arange(ring.size)
        if ring.size > 512:
            sample = np.random.default_rng(ring.size).choice(ring.size, 48, replace=False)
            xs = np.union1d(sample, np.flatnonzero(radical)[:16])
        lazy = ring.mul_table is None
        assert np.array_equal(analysis.in_radical(ring, xs), radical[xs]), spec
        assert (ring.mul_table is None) == lazy, spec
