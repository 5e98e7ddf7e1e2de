from deltaring import analysis

import oracles


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


def test_results_are_cached_and_masks_frozen(z4):
    assert analysis.delta_mask(z4) is analysis.delta_mask(z4)
    assert analysis.unit_mask(z4) is analysis.unit_mask(z4)
    assert analysis.delta(z4) == analysis.delta(z4)
    assert analysis.units(z4) == analysis.units(z4)
    assert not analysis.unit_mask(z4).flags.writeable
    assert not analysis.delta_mask(z4).flags.writeable
