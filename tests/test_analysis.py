import ast
import gc
import inspect
import random
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from deltaring import FiniteRing, analysis, build_ring, classify, kernel, zn

import oracles
import sources


def _indices(element_set):
    return set(element_set.indices())


def test_units_idempotents_nilpotents_center_match_oracle(corpus):
    for entry in corpus:
        ring = entry.ring
        assert _indices(analysis.units(ring)) == oracles.units_of(ring), entry.spec_text
        assert _indices(analysis.idempotents(ring)) == oracles.idempotents_of(ring)
        assert _indices(analysis.nilpotents(ring)) == oracles.nilpotents_of(ring)
        assert _indices(analysis.center(ring)) == oracles.center_of(ring)


def test_delta_and_alternative_forms_match_oracle(corpus):
    for entry in corpus:
        ring = entry.ring
        expected = oracles.delta_of(ring)  # asserts all four loop forms agree
        assert _indices(analysis.delta(ring)) == expected, entry.spec_text
        for form in analysis.delta_alternative_forms(ring):
            assert _indices(form) == expected, entry.spec_text


def test_jacobson_and_qnil_match_oracle(corpus):
    for entry in corpus:
        ring = entry.ring
        assert _indices(analysis.jacobson_radical(ring)) == oracles.jacobson_of(ring)
        assert _indices(analysis.qnil(ring)) == oracles.qnil_of(ring), entry.spec_text


# -- the packed commutation relation -------------------------------------------------

# sizes that are not a multiple of 8, so the last byte of each row is padded
ODD_SIZE_SPECS = ("Z3", "Z5", "Z6", "Z9", "Z12", "H(1, 1, Z3)")


def _relation_rings(corpus):
    """Uncached copies of the corpus rings, the odd-sized rings, and one
    single-entry corruption of each, where x*y moves off y*x."""
    rings = [oracles.mutate_mul_entry(e.ring, 0, 0, e.ring.mul(0, 0)) for e in corpus]
    rings += [build_ring(spec) for spec in ODD_SIZE_SPECS]
    return rings + [oracles.mutate_mul_entry(r, 1, r.size - 1, (r.mul(1, r.size - 1) + 1) % r.size)
                    for r in rings]


@pytest.mark.parametrize("cells", [None, 40])
def test_the_packed_relation_matches_its_definition(monkeypatch, corpus, cells):
    # at 40 cells the tiles are 8 wide, so rings of 9 or more elements
    # pack their rows from several tiles and mirrors
    if cells is not None:
        monkeypatch.setattr(kernel, "_BLOCK_CELLS", cells)
        monkeypatch.setattr(kernel, "_SWEEP_BLOCK_CELLS", cells)
    for ring in _relation_rings(corpus):
        tables, n = oracles.read_tables(ring), ring.size
        every = range(n)
        want = np.array([[tables.mul(x, y) == tables.mul(y, x) for y in every] for x in every])
        packed = analysis.comm_matrix(ring)
        assert packed.dtype == np.uint8 and packed.shape == (n, -(-n // 8)), ring.spell()
        assert np.array_equal(packed, np.packbits(want, axis=1)), ring.spell()
        assert _indices(analysis.center(ring)) == oracles.center_of(tables), ring.spell()
        assert set(np.flatnonzero(analysis.qnil_sweep_mask(ring))) == oracles.qnil_of(tables)
        for a in every if n <= 16 else (0, 1, n // 3, n // 2, n - 1):
            assert _indices(analysis.comm2(ring, a)) == oracles.comm2_of(tables, a), (ring, a)


def test_the_packed_relation_keeps_an_eighth_at_the_cap():
    ring = build_ring("M(2, Z8)").fill()
    gc.collect()
    tracemalloc.start()
    try:
        packed = analysis.comm_matrix(ring)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert packed.nbytes == 4096 * 512
    assert peak / ring.size**2 < 0.15


def test_only_analysis_reads_the_bit_format():
    # the packed relation's layout is known to analysis alone
    for path in sorted(Path(analysis.__file__).parent.glob("*.py")):
        if path.name == "analysis.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            # an import's names are aliases, a global or nonlocal's plain strings
            names = [name] + [getattr(alias, "name", alias) for alias in getattr(node, "names", ())]
            assert not {"packbits", "unpackbits"} & set(names), path.name


def test_radical_of_zn_is_generated_by_squarefree_kernel(corpus_rings):
    # For Z_n the radical has a closed form: multiples of the product of
    # the distinct primes dividing n.
    cases = {"Z2": 2, "Z3": 3, "Z4": 2, "Z5": 5, "Z6": 6, "Z8": 2, "Z9": 3, "Z16": 2}
    for spell, radical_generator in cases.items():
        ring = corpus_rings[spell]
        expected = {x for x in range(ring.size) if x % radical_generator == 0}
        assert _indices(analysis.jacobson_radical(ring)) == expected, spell


def test_frozen_small_ring_facts(z4, t2z2, m2z2, f4):
    assert _indices(analysis.units(z4)) == {1, 3}
    assert _indices(analysis.jacobson_radical(z4)) == {0, 2}
    assert _indices(analysis.delta(z4)) == {0, 2}
    assert _indices(analysis.nilpotents(z4)) == {0, 2}
    assert _indices(analysis.qnil(z4)) == {0, 2}

    assert _indices(analysis.units(t2z2)) == {5, 7}
    assert _indices(analysis.delta(t2z2)) == {0, 2}
    assert _indices(analysis.jacobson_radical(t2z2)) == {0, 2}
    assert len(analysis.idempotents(t2z2)) == 6

    assert len(analysis.units(m2z2)) == 6
    assert len(analysis.nilpotents(m2z2)) == 4
    assert _indices(analysis.center(m2z2)) == {0, 9}
    assert _indices(analysis.jacobson_radical(m2z2)) == {0}

    assert _indices(analysis.units(f4)) == {1, 2, 3}
    assert _indices(analysis.jacobson_radical(f4)) == {0}
    assert _indices(analysis.delta(f4)) == {0}
    assert _indices(analysis.idempotents(f4)) == {0, 1}


def test_commutant_and_double_commutant_match_oracle(z4, t2z2, m2z2):
    probes = [(z4, 3), (t2z2, 2), (t2z2, 6), (m2z2, 2), (m2z2, 9)]
    for ring, a in probes:
        assert _indices(analysis.comm(ring, a)) == oracles.comm_of(ring, a)
        assert _indices(analysis.comm2(ring, a)) == oracles.comm2_of(ring, a)
    # the strictly-upper matrix unit of the 2x2 triangular ring
    assert _indices(analysis.comm2(t2z2, 2)) == {0, 2, 5, 7}


def test_annihilators_match_oracle(t2z2, m2z2):
    for ring in (t2z2, m2z2):
        for a in ring.elements():
            assert _indices(analysis.ann_left(ring, a)) == oracles.ann_left_of(ring, a)
            assert _indices(analysis.ann_right(ring, a)) == oracles.ann_right_of(ring, a)


def test_delta_contains_radical_and_absorbs_units(corpus):
    for entry in corpus:
        ring = entry.ring
        delta = analysis.delta(ring)
        assert analysis.jacobson_radical(ring).issubset(delta), entry.spec_text
        for u in analysis.units(ring):
            for d in delta:
                assert ring.mul(u, d) in delta
                assert ring.mul(d, u) in delta


def test_delta_is_ideal_exactly_when_it_equals_radical(corpus):
    for entry in corpus:
        ring = entry.ring
        delta = _indices(analysis.delta(ring))
        radical = _indices(analysis.jacobson_radical(ring))
        assert oracles.is_ideal_of(ring, delta) == (delta == radical), entry.spec_text


def test_results_are_cached_and_masks_frozen(z4, t2z2):
    layers = sorted(sources.cached_layers())
    assert len(layers) == 18
    # copies with one entry rewritten with its own value: the same rings, unmarked
    copies = [oracles.mutate_mul_entry(ring, 1, 1, ring.mul(1, 1)) for ring in (z4, t2z2)]
    assert not any(copy.certified for copy in copies)
    for ring in (z4, t2z2, *copies):
        assert kernel.validation_report(ring).ok
        for module, name in layers:
            layer = getattr(sources.MODULES[module], name)
            flavored = len(inspect.signature(layer).parameters) > 1
            for args in [(f,) for f in classify.FLAVORS] if flavored else [()]:
                value = layer(ring, *args)
                assert layer(ring, *args) is value, (name, args)
                for part in value if isinstance(value, tuple) else (value,):
                    assert not part.flags.writeable, (name, args)
            if flavored:  # the default flavor is keyed as if it were passed
                assert layer(ring) is layer(ring, "delta"), name
        assert analysis.delta_mask(ring) is analysis.delta_mask(ring)
        assert analysis.delta(ring) == analysis.delta(ring)
        assert analysis.units(ring) == analysis.units(ring)


# -- closure by generators -------------------------------------------------------------

# the rings of the benchmark's point_queries workload
POINT_SPECS = ("T(3, Z2)", "M(2, Z3)", "T(2, Z8)", "H(1, 1, Z8)", "Z1024", "prod(M(2, Z2), T(2, Z4))")


def _group_of(ring, generators):
    """{1} closed under right multiplication by the generators."""
    reached, frontier = {ring.one}, {ring.one}
    while frontier:
        frontier = {ring.mul(x, int(g)) for x in frontier for g in generators} - reached
        reached |= frontier
    return reached


def test_unit_generators_generate_the_unit_group(corpus, ladder_rings):
    rings = [entry.ring for entry in corpus] + list(ladder_rings.values())
    rings += [build_ring(spec) for spec in POINT_SPECS]
    most = 0
    for ring in rings:
        if "unit_generators" not in ring._cache and "validation_report" not in ring._cache:
            assert analysis.unit_generators(ring) is None, ring.spell()
        assert kernel.validation_report(ring).ok
        generators = analysis.unit_generators(ring).tolist()
        units = set(analysis.unit_indices(ring).tolist())
        assert _group_of(ring, generators) == units, ring.spell()
        # each pick is the least unit outside the group of those before it
        for j, g in enumerate(generators):
            assert g == min(units - _group_of(ring, generators[:j])), ring.spell()
        assert 2 ** len(generators) <= len(units)
        most = max(most, len(generators))
    assert most >= 4
    bad = oracles.mutate_mul_entry(build_ring("M(2, Z2)"), 1, 2, 3)
    assert not kernel.validation_report(bad).ok
    assert analysis.unit_generators(bad) is None and "unit_generators" not in bad._cache


def _inside(ring, mask, left, right):
    """Whether every product of a member of ``left`` with one of
    ``right``, both masks, lies in ``mask``."""
    ring.fill()
    return bool(mask[ring.mul_table[np.ix_(np.flatnonzero(left), np.flatnonzero(right))]].all())


def _subgroup(ring, mask):
    """Whether the masked set holds zero and its sums."""
    members = np.flatnonzero(mask)
    return bool(mask[ring.zero] and mask[ring.add_table[np.ix_(members, members)]].all())


def _additive_span(ring, seeds):
    """The subgroup of (R, +) that the seeds generate, as a mask."""
    reached, frontier = {ring.zero}, {ring.zero}
    while frontier:
        frontier = {ring.add(x, s) for x in frontier for s in seeds} - reached
        reached |= frontier
    mask = np.zeros(ring.size, dtype=bool)
    mask[list(reached)] = True
    return mask


def _subring_span(ring, seeds):
    """The subring (without 1) that the seeds generate, as a mask."""
    mask = _additive_span(ring, seeds)
    while not _inside(ring, mask, mask, mask):
        members = np.flatnonzero(mask).tolist()
        mask = _additive_span(ring, members + [ring.mul(x, y) for x in members for y in members])
    return mask


@pytest.mark.parametrize("spec", ["M(2, Z2)", "T(2, Z4)", "T(3, Z2)", "prod(Z2, Z4)", "H(1, 1, Z3)"])
def test_closure_holds_exactly_when_the_products_stay_inside(spec):
    # closure_holds against the definition of a two-sided ideal: a
    # subgroup with R*S and S*R inside S
    ring = build_ring(spec)
    mask = analysis.delta_mask(ring)
    assert not analysis.closure_holds(ring, mask), "decided before C00"
    assert kernel.validation_report(ring).ok
    everything = np.ones_like(mask)
    units = analysis.unit_mask(ring)
    ul = np.flatnonzero(units).tolist()
    rng = random.Random(35)
    masks = [mask, ~mask, everything, _additive_span(ring, ul)]
    for _ in range(60):
        grown = _additive_span(ring, rng.sample(range(ring.size), rng.randrange(1, 4)))
        masks += [grown, grown.copy()]
        masks[-1][rng.randrange(ring.size)] = True
    for e in np.flatnonzero(analysis.idempotent_mask(ring)).tolist():
        masks.append(np.isin(np.arange(ring.size), [ring.zero, e]))  # {0, e}: the walk may break down
    for x in rng.sample(range(ring.size), min(12, ring.size)):
        # the left and right ideals R*x and x*R, the subring x generates
        # with 1, and the subgroup spanned by x's products with units on
        # both sides
        masks.append(_additive_span(ring, [ring.mul(r, x) for r in range(ring.size)]))
        masks.append(_additive_span(ring, [ring.mul(x, r) for r in range(ring.size)]))
        masks.append(_subring_span(ring, [x, ring.one]))
        masks.append(_additive_span(ring, {ring.mul(ring.mul(u, x), v) for u in ul for v in ul}))
    one_sided = subrings = unit_stable = 0
    for mask in masks:
        subgroup = _subgroup(ring, mask)
        left, right = _inside(ring, mask, everything, mask), _inside(ring, mask, mask, everything)
        ideal = subgroup and left and right
        assert analysis.closure_holds(ring, mask) == ideal
        one_sided += subgroup and left != right
        subrings += subgroup and _inside(ring, mask, mask, mask) and not ideal
        unit_stable += _inside(ring, mask, units, mask) and _inside(ring, mask, mask, units) and not ideal
    # a left ideal that is no right ideal, or the reverse, where R is not commutative
    assert (one_sided > 0) == (not analysis.center_mask(ring).all())
    assert subrings > 0 and unit_stable > 0
    # a table whose C00 failed decides nothing, even for the whole table
    bad = oracles.mutate_mul_entry(ring, 1, 2, 3)
    assert not kernel.validation_report(bad).ok
    assert not analysis.closure_holds(bad, np.ones(bad.size, dtype=bool))


# -- exact early-exit power orbits -----------------------------------------------------


def _fresh(ring):
    """The same tables as a new ring object, so no cached sweep carries over."""
    ring.fill()
    return FiniteRing(
        ring.size, ring.add_table, ring.mul_table, zero=ring.zero, one=ring.one,
        provenance=ring.provenance, element_names=ring.element_names,
    )


def _corruptions(ring, seed, count):
    """Single-entry corruptions of the multiplication table, alternately
    on the diagonal, rewriting the square of some a (the second step of
    a's power orbit), and anywhere."""
    rng = random.Random(seed)
    for k in range(count):
        x, y, value = (rng.randrange(ring.size) for _ in range(3))
        yield oracles.mutate_mul_entry(ring, x, y if k % 2 else x, value)


def test_nilpotent_orbits_match_the_n_step_oracle_on_rings_and_non_rings(corpus):
    # Z1024's units cycle with orders up to 256; in T(2, Z8) powers such
    # as those of diag(1, 2) run a tail into a nonzero cycle
    cases = [(entry.ring, 6) for entry in corpus]
    cases += [(build_ring("Z1024"), 0), (build_ring("T(2, Z8)"), 2)]
    for seed, (ring, count) in enumerate(cases):
        for case in (ring, *_corruptions(ring, seed, count)):
            got = set(np.flatnonzero(analysis.nilpotent_mask(case)).tolist())
            assert got == oracles.nilpotents_of(case), case.spell()


# -- row blocks ------------------------------------------------------------------------


def test_sweeps_match_the_oracle_across_many_blocks(corpus, monkeypatch):
    monkeypatch.setattr(kernel, "_BLOCK_CELLS", 40)
    for entry in corpus:
        ring = _fresh(entry.ring)
        delta = oracles.delta_of(ring)
        assert _indices(analysis.delta(ring)) == delta, entry.spec_text
        for form in analysis.delta_alternative_forms(ring):
            assert _indices(form) == delta, entry.spec_text
        assert _indices(analysis.jacobson_radical(ring)) == oracles.jacobson_of(ring)
        assert _indices(analysis.qnil(ring)) == oracles.qnil_of(ring), entry.spec_text
        for a in range(0, ring.size, 7):
            assert _indices(analysis.comm(ring, a)) == oracles.comm_of(ring, a)


def test_first_escape_is_the_first_cell_in_row_major_order(monkeypatch):
    monkeypatch.setattr(kernel, "_BLOCK_CELLS", 40)
    rng = np.random.default_rng(11)
    table = rng.integers(0, 30, (30, 30)).astype(np.int32)
    ring = FiniteRing(30, table, table, zero=0, one=1)
    for _ in range(200):
        mask = rng.random(30) < 0.97
        rows = None if rng.random() < 0.3 else rng.choice(30, rng.integers(0, 30), replace=False)
        cols = None if rng.random() < 0.3 else rng.choice(30, rng.integers(0, 30), replace=False)
        row_ids = range(30) if rows is None else rows
        col_ids = range(30) if cols is None else cols
        want = next(
            (
                (i, j)
                for i, r in enumerate(row_ids)
                for j, c in enumerate(col_ids)
                if not mask[table[r, c]]
            ),
            None,
        )
        assert analysis.first_escape(mask, ring, "mul", rows, cols) == want


# -- stated peaks ----------------------------------------------------------------------

# jacobson_mask, nilpotent_mask, delta_mask and qnil_mask measure their
# theorem paths, as Z1024 is certified, and the four sweeps their own
PEAK_LAYERS = {
    "comm_matrix": analysis.comm_matrix,
    "jacobson_mask": analysis.jacobson_mask,
    "jacobson_sweep_mask": analysis.jacobson_sweep_mask,
    "nilpotent_mask": analysis.nilpotent_mask,
    "nilpotent_sweep_mask": analysis.nilpotent_sweep_mask,
    "delta_mask": analysis.delta_mask,
    "delta_sweep_mask": analysis.delta_sweep_mask,
    "qnil_mask": analysis.qnil_mask,
    "qnil_sweep_mask": analysis.qnil_sweep_mask,
    "delta_alternative_forms": analysis.delta_alternative_forms,
}


@pytest.mark.parametrize("name", PEAK_LAYERS)
def test_sweep_peaks_stay_within_the_docstring_figures(name):
    layer = PEAK_LAYERS[name]
    stated = re.search(r"Tracemalloc peak: ([\d.]+) bytes\s+per n\^2", layer.__doc__)
    assert stated, f"{name} states no peak per n^2"
    # the tables and the inputs a layer reads, filled outside the trace
    ring = zn(1024).fill()
    analysis.unit_indices(ring)
    if layer is not analysis.comm_matrix:
        analysis.comm_matrix(ring)
    gc.collect()
    tracemalloc.start()
    try:
        layer(ring)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / ring.size**2 <= float(stated.group(1))


@pytest.mark.parametrize("spec", ["Z4096", "M(2, Z8)"])
def test_one_commutant_fills_no_table(spec):
    # row a and column a of the multiplication table, not the relation
    ring, filled = build_ring(spec), build_ring(spec).fill()
    relation = np.unpackbits(analysis.comm_matrix(filled), axis=1, count=ring.size).view(bool)
    for a in (0, 5, ring.size - 1):
        assert np.array_equal(analysis.comm(ring, a).bool_array(), relation[a]), (spec, a)
    assert all(getattr(ring, name) is None for name in ("add_table", "mul_table", "neg_table"))
    assert "comm_matrix" not in ring._cache
