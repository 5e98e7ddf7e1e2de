import gc
import json
import random
import re
import tracemalloc

import numpy as np
import pytest

from deltaring import (
    CapacityError,
    ConstructionError,
    MalformedTableError,
    analysis,
    constructions as con,
    zn,
)

import oracles


# -- modular and table rings ------------------------------------------------------


def test_zn_rejects_degenerate_sizes():
    with pytest.raises(ConstructionError):
        zn(1)
    with pytest.raises(ConstructionError):
        zn(0)
    with pytest.raises(ConstructionError):
        zn(-3)


def test_zn_tables_match_python_arithmetic():
    for n in [*range(2, 41), 97, 255, 1000]:
        ring = zn(n)
        assert ring.add_table.dtype == ring.mul_table.dtype == np.int32
        assert ring.add_table.tolist() == [[(x + y) % n for y in range(n)] for x in range(n)]
        assert ring.mul_table.tolist() == [[(x * y) % n for y in range(n)] for x in range(n)]
    n = 4096
    ring = zn(n)
    assert ring.add_table.dtype == ring.mul_table.dtype == np.int32
    for x in (0, 1, 2047, 4095):  # 4095 * 4095 is the largest product
        assert ring.add_table[x].tolist() == [(x + y) % n for y in range(n)]
        assert ring.mul_table[x].tolist() == [(x * y) % n for y in range(n)]


def _z3_dict():
    return {
        "size": 3,
        "add": [[(x + y) % 3 for y in range(3)] for x in range(3)],
        "mul": [[(x * y) % 3 for y in range(3)] for x in range(3)],
        "zero": 0,
        "one": 1,
    }


def test_table_ring_from_dict_and_file(tmp_path):
    ring = con.table_ring(_z3_dict(), label="z3")
    assert ring.size == 3
    assert ring.mul(2, 2) == 1
    assert ring.spell() == "table:z3"

    path = tmp_path / "z3.json"
    path.write_text(json.dumps(_z3_dict()))
    ring2 = con.table_ring(path)
    assert np.array_equal(ring2.mul_table, ring.mul_table)
    assert ring2.spell() == "table:z3.json"


def test_table_ring_structural_errors(tmp_path):
    data = _z3_dict()
    del data["one"]
    with pytest.raises(MalformedTableError, match="missing keys"):
        con.table_ring(data)

    data = _z3_dict()
    data["add"] = [[0, 1], [1, 0]]
    with pytest.raises(MalformedTableError, match="3x3"):
        con.table_ring(data)

    data = _z3_dict()
    data["mul"][1][1] = 9
    with pytest.raises(MalformedTableError, match="outside"):
        con.table_ring(data)

    data = _z3_dict()
    data["size"] = "three"
    with pytest.raises(MalformedTableError, match="positive integer"):
        con.table_ring(data)

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    with pytest.raises(MalformedTableError, match="not valid JSON"):
        con.table_ring(bad_json)

    with pytest.raises(MalformedTableError, match="cannot read"):
        con.table_ring(tmp_path / "missing.json")


def test_packaged_field_of_four_is_a_field(f4):
    assert f4.size == 4
    assert oracles.units_of(f4) == {1, 2, 3}
    assert f4.add(1, 1) == 0  # characteristic 2
    assert f4.mul(2, 3) == 1  # the two generators are mutually inverse


# -- products ----------------------------------------------------------------------


def test_product_encodes_componentwise():
    left, right = zn(2), zn(3)
    ring = con.product(left, right)
    assert ring.size == 6
    assert ring.spell() == "prod(Z2, Z3)"
    for r in range(2):
        for s in range(3):
            x = con.product_encode(ring, r, s)
            assert con.product_components(ring, x) == (r, s)
    assert con.product_components(ring, ring.one) == (1, 1)
    assert con.product_components(ring, ring.zero) == (0, 0)
    for x in ring.elements():
        for y in ring.elements():
            xr, xs = con.product_components(ring, x)
            yr, ys = con.product_components(ring, y)
            assert con.product_components(ring, ring.add(x, y)) == (
                left.add(xr, yr),
                right.add(xs, ys),
            )
            assert con.product_components(ring, ring.mul(x, y)) == (
                left.mul(xr, yr),
                right.mul(xs, ys),
            )


# -- matrix-shaped rings -----------------------------------------------------------


def test_full_matrix_ring_multiplies_like_matrices(m2z2):
    assert m2z2.size == 16
    base = zn(2)
    identity = con.matrix_encode(m2z2, [[1, 0], [0, 1]])
    assert m2z2.one == identity == 9
    assert con.matrix_unit_index(m2z2, 0, 0) == 8
    for x in m2z2.elements():
        grid = con.matrix_entries(m2z2, x)
        assert con.matrix_encode(m2z2, grid) == x
        for y in m2z2.elements():
            expected = oracles.matmul_of(base, grid, con.matrix_entries(m2z2, y))
            assert con.matrix_entries(m2z2, m2z2.mul(x, y)) == expected


def test_triangular_ring_multiplies_like_matrices(t2z2):
    assert t2z2.size == 8
    base = zn(2)
    for x in t2z2.elements():
        grid = con.matrix_entries(t2z2, x)
        assert grid[1][0] == 0  # strictly lower entries forced to zero
        assert con.matrix_encode(t2z2, grid) == x
        for y in t2z2.elements():
            expected = oracles.matmul_of(base, grid, con.matrix_entries(t2z2, y))
            assert con.matrix_entries(t2z2, t2z2.mul(x, y)) == expected
            added = oracles.matadd_of(base, grid, con.matrix_entries(t2z2, y))
            assert con.matrix_entries(t2z2, t2z2.add(x, y)) == added


def test_triangular_encode_rejects_lower_entries(t2z2):
    with pytest.raises(ConstructionError, match="must be the base zero"):
        con.matrix_encode(t2z2, [[1, 0], [1, 1]])


def test_three_by_three_triangular_against_oracle(corpus_rings):
    ring = corpus_rings["T(3, Z2)"]
    base = zn(2)
    assert ring.size == 64
    for x in range(0, ring.size, 7):
        for y in range(0, ring.size, 5):
            expected = oracles.matmul_of(
                base, con.matrix_entries(ring, x), con.matrix_entries(ring, y)
            )
            assert con.matrix_entries(ring, ring.mul(x, y)) == expected


def test_one_by_one_matrix_ring_is_the_base():
    base = zn(6)
    ring = con.matrix_ring(1, base)
    assert ring.size == 6
    assert np.array_equal(ring.add_table, base.add_table)
    assert np.array_equal(ring.mul_table, base.mul_table)


def _relabelled_z3():
    """Z3 with residue v at index label[v]: zero is index 2 and one is index 0."""
    label = [2, 0, 1]

    def table(op):
        out = [[None] * 3 for _ in range(3)]
        for x in range(3):
            for y in range(3):
                out[label[x]][label[y]] = label[op(x, y) % 3]
        return out

    data = {"size": 3, "add": table(int.__add__), "mul": table(int.__mul__), "zero": 2, "one": 0}
    return con.table_ring(data, label="z3-relabelled")


@pytest.mark.parametrize("build, y_step", [
    pytest.param(lambda base: con.upper_triangular(3, base), 29, id="T(3, R)"),  # 729 elements
    pytest.param(lambda base: con.matrix_ring(2, base), 1, id="M(2, R)"),
    pytest.param(lambda base: con.h_ring(base.one, base.one, base), 1, id="H(1, 1, R)"),
])
def test_matrix_shaped_rings_over_a_base_whose_zero_is_not_index_0(build, y_step):
    base = _relabelled_z3()
    ring = build(base)
    entries = con.h_matrix if ring.provenance.kind == "h" else con.matrix_entries
    k = len(entries(ring, ring.zero))
    assert entries(ring, ring.zero) == tuple((2,) * k for _ in range(k))
    assert entries(ring, ring.one) == tuple(
        tuple(0 if i == j else 2 for j in range(k)) for i in range(k)
    )
    grids = [entries(ring, x) for x in ring.elements()]
    for x in ring.elements():
        for y in range(0, ring.size, y_step):
            assert grids[ring.mul(x, y)] == oracles.matmul_of(base, grids[x], grids[y])
            assert grids[ring.add(x, y)] == oracles.matadd_of(base, grids[x], grids[y])


def test_matrix_ring_respects_capacity():
    with pytest.raises(CapacityError):
        con.matrix_ring(2, zn(16))  # 16^4 elements


# -- the constrained 3 x 3 subring -------------------------------------------------


def test_h_ring_embeds_in_three_by_three_matrices(corpus_rings):
    ring = corpus_rings["H(1, 1, Z4)"]
    base = zn(4)
    assert ring.size == 64
    for x in ring.elements():
        a, c, d, e, f = con.h_components(ring, x)
        assert con.h_encode(ring, c, e, f) == x
        # defining constraints: a - d = s*c and d - f = t*e with s = t = 1
        assert base.sub(a, d) == base.mul(1, c)
        assert base.sub(d, f) == base.mul(1, e)
    for x in range(0, ring.size, 5):
        for y in range(0, ring.size, 7):
            expected = oracles.matmul_of(
                base, con.h_matrix(ring, x), con.h_matrix(ring, y)
            )
            assert con.h_matrix(ring, ring.mul(x, y)) == expected
            added = oracles.matadd_of(base, con.h_matrix(ring, x), con.h_matrix(ring, y))
            assert con.h_matrix(ring, ring.add(x, y)) == added


def test_h_ring_requires_central_units(t2z2):
    with pytest.raises(ConstructionError, match="unit"):
        con.h_ring(0, 1, zn(4))
    with pytest.raises(ConstructionError, match="unit"):
        con.h_ring(2, 1, zn(4))
    # 7 is a unit of the triangular ring but not central
    with pytest.raises(ConstructionError, match="central"):
        con.h_ring(7, 5, t2z2)


def test_h_ring_identity_is_the_identity_matrix(corpus_rings):
    ring = corpus_rings["H(1, 1, Z2)"]
    assert con.h_matrix(ring, ring.one) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert con.h_matrix(ring, ring.zero) == ((0, 0, 0), (0, 0, 0), (0, 0, 0))


# -- corners -----------------------------------------------------------------------


def test_corner_at_matrix_unit_is_a_copy_of_the_base(t2z2, m2z2):
    for parent in (t2z2, m2z2):
        e = con.matrix_unit_index(parent, 0, 0)
        ring = con.corner(parent, e)
        assert ring.size == 2
        prov = ring.provenance
        assert list(prov.members) == [parent.zero, e]
        assert ring.one == 1  # compressed index of e


def test_corner_at_one_is_the_whole_ring(z4):
    ring = con.corner(z4, z4.one)
    assert ring.size == 4
    assert np.array_equal(ring.mul_table, z4.mul_table)


def test_corner_rejects_non_idempotents_and_zero(z4, t2z2):
    with pytest.raises(ConstructionError, match="not idempotent"):
        con.corner(z4, 2)
    with pytest.raises(ConstructionError, match="zero"):
        con.corner(t2z2, t2z2.zero)


# -- ideals and quotients ----------------------------------------------------------


def test_ideal_generated_saturates(z4, t2z2, m2z2):
    assert set(con.ideal_generated(z4, [2]).indices()) == {0, 2}
    # the strictly-upper matrix unit generates the radical of the triangular ring
    assert set(con.ideal_generated(t2z2, [2]).indices()) == {0, 2}
    # the full matrix ring is simple: any nonzero element generates everything
    assert len(con.ideal_generated(m2z2, [2])) == 16
    assert set(con.ideal_generated(z4, []).indices()) == {0}
    for subset in (con.ideal_generated(t2z2, [2]), con.ideal_generated(z4, [2])):
        assert oracles.is_ideal_of(subset.ring, set(subset.indices()))


def test_quotient_is_a_ring_homomorphism_image(z4):
    ideal = con.ideal_generated(z4, [2])
    ring = con.quotient(z4, ideal)
    assert ring.size == 2
    for x in z4.elements():
        for y in z4.elements():
            px, py = con.quotient_project(ring, x), con.quotient_project(ring, y)
            assert con.quotient_project(ring, z4.add(x, y)) == ring.add(px, py)
            assert con.quotient_project(ring, z4.mul(x, y)) == ring.mul(px, py)


def test_quotient_by_radical_of_triangular_ring(t2z2):
    ring = con.quotient(t2z2, analysis.jacobson_radical(t2z2))
    assert ring.size == 4
    # T_2(Z_2) / J is Z_2 x Z_2: every element is idempotent
    assert all(ring.mul(x, x) == x for x in ring.elements())


def test_quotient_rejects_non_ideals(z4):
    from deltaring import ElementSet

    with pytest.raises(ConstructionError):
        con.quotient(z4, ElementSet.from_indices(z4, [0, 3]))
    with pytest.raises(ConstructionError):
        con.quotient(z4, ElementSet.from_indices(z4, [0, 1, 2, 3]))


def test_quotient_by_generators_spells_its_generators(z4):
    ring = con.quotient_by_generators(z4, [2])
    assert ring.spell() == "quot(Z4, 2)"
    assert ring.size == 2


# -- extensions by a bimodule-ring -------------------------------------------------


def test_self_extension_multiplication_formula(z2):
    ring = con.dorroh(z2, con.self_action(z2), v_spell="self")
    assert ring.size == 4
    assert ring.one == 2  # the pair (1, 0)
    assert ring.spell() == "dorroh(Z2, self)"
    for x in ring.elements():
        r, v = con.dorroh_components(ring, x)
        for y in ring.elements():
            s, w = con.dorroh_components(ring, y)
            expect_mul = (
                z2.mul(r, s),
                z2.add(z2.add(z2.mul(r, w), z2.mul(v, s)), z2.mul(v, w)),
            )
            assert con.dorroh_components(ring, ring.mul(x, y)) == expect_mul
            expect_add = (z2.add(r, s), z2.add(v, w))
            assert con.dorroh_components(ring, ring.add(x, y)) == expect_add


def test_ideal_extension_multiplication_formula(z4):
    action = con.ideal_action(z4, [2])
    v = action.v
    assert v.size == 2  # the ideal {0, 2}
    ring = con.dorroh(z4, action, v_spell="ideal(2)")
    assert ring.size == 8
    members = [0, 2]  # parent elements of V in compressed order
    for x in ring.elements():
        r, vi = con.dorroh_components(ring, x)
        for y in ring.elements():
            s, wi = con.dorroh_components(ring, y)
            prod = z4.add(
                z4.add(z4.mul(r, members[wi]), z4.mul(members[vi], s)),
                z4.mul(members[vi], members[wi]),
            )
            got_r, got_v = con.dorroh_components(ring, ring.mul(x, y))
            assert got_r == z4.mul(r, s)
            assert members[got_v] == prod


def test_zero_extension_is_a_copy_of_the_base(z4):
    ring = con.dorroh(z4, con.zero_action(z4), v_spell="zero")
    assert ring.size == 4
    assert np.array_equal(ring.add_table, z4.add_table)
    assert np.array_equal(ring.mul_table, z4.mul_table)


def test_broken_action_is_rejected(z4):
    action = con.ideal_action(z4, [2])
    left = action.left.copy()
    left[1, 1] = 0  # 1 . 2 should stay 2; break module unitality
    bad = con.BimoduleRingAction(v=action.v, left=left, right=action.right)
    errors = con.validate_bimodule_action(z4, bad)
    assert errors
    with pytest.raises(ConstructionError, match="invalid bimodule action"):
        con.dorroh(z4, bad)


def _rows(text):
    """A table written as space-separated rows of one-digit entries."""
    return [[int(c) for c in row] for row in text.split()]


_XOR4 = "0123 1032 2301 3210"
_XOR8 = " ".join("".join(str(x ^ y) for y in range(8)) for x in range(8))
# the bilinear Z2-algebra of test_kernel's "mul-associativity only" case
_NONASSOCIATIVE_MUL_8 = "00000000 01234567 02461357 03655630 04040404 05274163 06421753 07615234"
# Tables that only the named axiom, of those checked, rejects first; V
# acts through Z2 as 0.v = 0 and 1.v = v, so only V can be at fault.
_V_FAULTS = [
    ("add-commutativity", "01 01", "00 00"),
    ("zero-identity", "10 01", "00 00"),
    ("add-inverse", "01 11", "00 00"),
    ("add-associativity", "0123 1000 2000 3000", "0000 0123 0213 0333"),
    ("mul-associativity", _XOR8, _NONASSOCIATIVE_MUL_8),
    ("left-distributivity", _XOR4, "0000 0123 0200 0323"),
    ("right-distributivity", _XOR4, "0000 0123 0202 0303"),
]


@pytest.mark.parametrize("axiom, add, mul", _V_FAULTS, ids=[case[0] for case in _V_FAULTS])
def test_broken_v_is_rejected_naming_its_axiom(z2, axiom, add, mul):
    add, mul = _rows(add), _rows(mul)
    n = len(add)
    action = con.BimoduleRingAction(
        v=con.NonUnitalRing(n, add, mul, 0),
        left=[[0] * n, list(range(n))],
        right=[[0, x] for x in range(n)],
    )
    with pytest.raises(ConstructionError, match=rf"^invalid bimodule action: V {axiom} at \("):
        con.dorroh(z2, action)


def test_broken_v_above_the_scan_limit_gets_every_triple(z2):
    # every triple is decided by the certificate, whose failing step
    # names one genuine witness
    ring = zn(260)
    n = ring.size
    mul = ring.mul_table.copy()
    mul[3, 5] = 16  # 3 * 5 is 15
    action = con.BimoduleRingAction(
        v=con.NonUnitalRing(n, ring.add_table, mul, 0),
        left=[[0] * n, list(range(n))],
        right=[[0, x] for x in range(n)],
    )
    errors = con.validate_bimodule_action(z2, action)
    assert [e for e in errors if e.startswith("V ")] == ["V right-distributivity at (2, 1, 5)"]
    y, g, x = 2, 1, 5
    assert mul[ring.add(y, g), x] != ring.add(mul[y, x], mul[g, x])


# Actions of prod(Z2, Z2) (one = 3) on V = Z2^2 under XOR, each given by
# V's multiplication, left[r][v] = r.v and right[v][r] = v.r, whose
# first failing law, in the order they are checked, is the named one.
_ACTION_FAULTS = [
    ("1.v == v", "0000 0000 0000 0000", "0000 0101 0303 0330", "0000 0011 0202 0213"),
    ("v.1 == v", "0000 0000 0000 0000", "0000 0000 0123 0123", "0000 0022 0030 0012"),
    ("r.(v+w) == r.v + r.w", "0000 0000 0000 0000", "0000 0202 0222 0123", "0000 0011 0022 0033"),
    ("(r+s).v == r.v + s.v", "0000 0000 0000 0000", "0000 0000 0110 0123", "0000 0101 0202 0303"),
    ("(v+w).r == v.r + w.r", "0000 0123 0000 0123", "0000 0123 0000 0123", "0000 0201 0202 0303"),
    ("v.(r+s) == v.r + v.s", "0000 0000 0000 0000", "0000 0303 0220 0123", "0000 0301 0002 0303"),
    ("(r*s).v == r.(s.v)", "0000 0000 0000 0000", "0000 0231 0312 0123", "0000 0101 0202 0303"),
    ("v.(r*s) == (v.r).s", "0000 0330 0330 0000", "0000 0000 0123 0123", "0000 0321 0312 0033"),
    ("(r.v).s == r.(v.s)", "0000 0000 0000 0000", "0000 0110 0033 0123", "0000 0231 0202 0033"),
    ("(v*w).r == v*(w.r)", "0000 0330 0330 0000", "0000 0000 0123 0123", "0000 0321 0022 0303"),
    ("(v.r)*w == v*(r.w)", "0000 0011 0022 0033", "0000 0123 0000 0123", "0000 0011 0022 0033"),
    ("(r.v)*w == r.(v*w)", "0000 0000 0033 0033", "0000 0022 0101 0123", "0000 0101 0202 0303"),
]


def _xor4_action(mul, left, right):
    v = con.NonUnitalRing(4, _rows(_XOR4), _rows(mul), 0)
    return con.BimoduleRingAction(v=v, left=_rows(left), right=_rows(right))


def _law_messages(base, action):
    return [
        f"{law} fails ({', '.join(f'{k}={x}' for k, x in witness.items())})"
        for law, witness in oracles.action_law_failures(base, action)
    ]


@pytest.mark.parametrize(
    "law, mul, left, right", _ACTION_FAULTS, ids=[case[0] for case in _ACTION_FAULTS]
)
def test_broken_action_is_rejected_naming_its_law(law, mul, left, right):
    base = con.product(zn(2), zn(2))
    action = _xor4_action(mul, left, right)
    errors = con.validate_bimodule_action(base, action)
    assert errors == _law_messages(base, action)
    assert errors[0].startswith(f"{law} fails (")
    with pytest.raises(ConstructionError, match=re.escape(f"invalid bimodule action: {errors[0]}")):
        con.dorroh(base, action)


def test_action_laws_match_the_scalar_oracle(corpus_rings, z4):
    base = con.product(zn(2), zn(2))
    rng = random.Random(7)
    muls = sorted({case[1] for case in _ACTION_FAULTS})
    additive = [[0, a, b, a ^ b] for a in range(4) for b in range(4)]

    def some_map(usual):
        if rng.random() < 0.9:
            return usual
        return rng.choice(additive) if rng.random() < 0.8 else [rng.randrange(4) for _ in range(4)]

    failing = 0
    for _ in range(300):
        # the maps of r = 0, 1, 2, 3: mostly zero, a projection, its
        # complement and the identity, so that many actions hold
        maps = [
            [some_map(usual) for usual in ([0] * 4, [0, 1, 0, 1], [0, 0, 2, 2], [0, 1, 2, 3])]
            for _side in range(2)
        ]
        mul = rng.choice(muls) if rng.random() < 0.5 else "0000 0000 0000 0000"
        v = con.NonUnitalRing(4, _rows(_XOR4), _rows(mul), 0)
        action = con.BimoduleRingAction(v=v, left=maps[0], right=np.array(maps[1]).T)
        errors = con.validate_bimodule_action(base, action)
        assert errors == _law_messages(base, action), (maps, v.mul_table.tolist())
        failing += bool(errors)
    assert 50 < failing < 250
    for ring in (*(corpus_rings[spec] for spec in ("Z4", "T(2, Z2)", "M(2, Z2)")), base):
        for action in (con.self_action(ring), con.zero_action(ring)):
            assert con.validate_bimodule_action(ring, action) == [], ring.spell()
            assert _law_messages(ring, action) == [], ring.spell()
    assert con.validate_bimodule_action(z4, con.ideal_action(z4, [2])) == []


def test_nonunital_component_is_structurally_validated(z4):
    with pytest.raises(MalformedTableError, match=r"\(1, 1\) is outside 0..1"):
        con.NonUnitalRing(2, [[0, 1], [1, 0]], [[0, 0], [0, 5]], 0)
    with pytest.raises(MalformedTableError, match="2x2"):
        con.NonUnitalRing(2, [[0, 1]], [[0, 0], [0, 0]], 0)


# entries that an int32 cast before the range check would wrap into
# range, truncate, or fail to convert
_BAD_ENTRIES = [
    ("wraps", np.array([[0, 1], [1, 2**32 + 1]]), "outside 0..1"),
    ("truncates", [[0, 1], [1, 0.5]], "not integer data"),
    ("overflows", [[0, 1], [1, 2**40]], "outside 0..1"),
]


@pytest.mark.parametrize(
    "mul, match", [case[1:] for case in _BAD_ENTRIES], ids=[case[0] for case in _BAD_ENTRIES]
)
def test_v_and_action_tables_are_range_checked_before_the_cast(mul, match):
    xor = [[0, 1], [1, 0]]
    with pytest.raises(MalformedTableError, match="V mul table .*" + match):
        con.NonUnitalRing(2, xor, mul, 0)
    v = con.NonUnitalRing(2, xor, [[0, 0], [0, 0]], 0)
    with pytest.raises(MalformedTableError, match="left action table .*" + match):
        con.BimoduleRingAction(v=v, left=mul, right=xor)
    with pytest.raises(MalformedTableError, match="right action table .*" + match):
        con.BimoduleRingAction(v=v, left=xor, right=mul)


# -- stated build peaks --------------------------------------------------------------

# each builder at about 1024 elements, its arguments built outside the trace
PEAK_BUILDS = {
    "zn": lambda: (con.zn, 1024),
    "product": lambda: (con.product, zn(32), zn(32)),
    "matrix_ring": lambda: (con.matrix_ring, 2, zn(6)),
    "upper_triangular": lambda: (con.upper_triangular, 4, zn(2)),
    "h_ring": lambda: (con.h_ring, 1, 1, zn(10)),
    "dorroh": lambda: (con.dorroh, zn(32), con.self_action(zn(32))),
}


@pytest.mark.parametrize("name", PEAK_BUILDS)
def test_build_peaks_stay_within_the_docstring_figures(name):
    builder, *args = PEAK_BUILDS[name]()
    stated = re.search(r"Tracemalloc peak: ([\d.]+) bytes\s+per n\^2", builder.__doc__)
    assert stated, f"{name} states no peak per n^2"
    gc.collect()
    tracemalloc.start()
    try:
        ring = builder(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ring.size in range(1000, 1300)
    assert peak / ring.size**2 <= float(stated.group(1))
