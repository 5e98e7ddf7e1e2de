import dataclasses
import gc
import json
import random
import re
import tracemalloc

import numpy as np
import pytest

from deltaring import (
    BuildContext,
    CapacityError,
    ConstructionError,
    ElementSet,
    FiniteRing,
    MalformedTableError,
    analysis,
    build_ring,
    constructions as con,
    harness,
    kernel,
    parse_ring_spec,
    ringspec,
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
        ring = zn(n).fill()
        assert ring.add_table.dtype == ring.mul_table.dtype == np.uint16
        assert ring.add_table.tolist() == [[(x + y) % n for y in range(n)] for x in range(n)]
        assert ring.mul_table.tolist() == [[(x * y) % n for y in range(n)] for x in range(n)]
    n = 4096
    ring = zn(n).fill()
    assert ring.add_table.dtype == ring.mul_table.dtype == np.uint16
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
    base = zn(6).fill()
    ring = con.matrix_ring(1, base).fill()
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
    k = len(con.matrix_entries(ring, ring.zero))
    assert con.matrix_entries(ring, ring.zero) == tuple((2,) * k for _ in range(k))
    assert con.matrix_entries(ring, ring.one) == tuple(
        tuple(0 if i == j else 2 for j in range(k)) for i in range(k)
    )
    grids = [con.matrix_entries(ring, x) for x in ring.elements()]
    tables, base = oracles.read_tables(ring), oracles.read_tables(base)
    for x in ring.elements():
        for y in range(0, ring.size, y_step):
            assert grids[tables.mul(x, y)] == oracles.matmul_of(base, grids[x], grids[y])
            assert grids[tables.add(x, y)] == oracles.matadd_of(base, grids[x], grids[y])
    # the scalar ops' pointwise form reads the same cells as the blocks
    xs, ys = np.arange(ring.size)[:, None], np.arange(0, ring.size, y_step)
    for op in ("add", "mul"):
        assert np.array_equal(ring.apply(op, xs, ys), ring.block(op, None, ys))


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
                base, con.matrix_entries(ring, x), con.matrix_entries(ring, y)
            )
            assert con.matrix_entries(ring, ring.mul(x, y)) == expected
            added = oracles.matadd_of(base, con.matrix_entries(ring, x), con.matrix_entries(ring, y))
            assert con.matrix_entries(ring, ring.add(x, y)) == added


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
    assert con.matrix_entries(ring, ring.one) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert con.matrix_entries(ring, ring.zero) == ((0, 0, 0), (0, 0, 0), (0, 0, 0))


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
    ring = con.corner(z4, z4.one).fill()
    assert ring.size == 4
    assert np.array_equal(ring.mul_table, z4.fill().mul_table)


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


@pytest.mark.parametrize("escape", [(2, 3), (3, 2)])
def test_ideal_generated_reads_both_orders_of_a_new_members_sums(escape):
    # not a ring: 0 is the additive identity, every other sum is 0 but
    # ``escape``, a sum of the old member 2 and the new member 3 in one
    # order only, and 2 * 2 = 3 is the only nonzero product; so 3 joins
    # the ideal of 2 in the first round, and 4 joins it only through
    # ``escape``, non-commutatively
    n = 5
    add = [[y if x == 0 else x if y == 0 else 0 for y in range(n)] for x in range(n)]
    add[escape[0]][escape[1]] = 4
    mul = [[0] * n for _ in range(n)]
    mul[2][2] = 3
    ring = FiniteRing(n, add, mul, zero=0, one=1)
    assert set(con.ideal_generated(ring, [2]).indices()) == {0, 2, 3, 4}


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


def test_quotient_rejects_non_ideals(z4, m2z2):
    from deltaring import ElementSet

    with pytest.raises(ConstructionError):
        con.quotient(z4, ElementSet.from_indices(z4, [0, 3]))
    with pytest.raises(ConstructionError):
        con.quotient(z4, ElementSet.from_indices(z4, [0, 1, 2, 3]))
    # closed under negation, but not under sums or products
    z8 = zn(8)
    with pytest.raises(ConstructionError, match="not closed under addition"):
        con.quotient(z8, ElementSet.from_indices(z8, [0, 2, 6]))
    e11, e21 = (con.matrix_unit_index(m2z2, i, 0) for i in (0, 1))
    # e21 e11 = e21, and the first column is a left ideal, but e11 e12 = e12
    first_column = [0, e11, e21, m2z2.add(e11, e21)]
    for members, side in (([0, e11], "left"), (first_column, "right")):
        with pytest.raises(ConstructionError, match=f"not closed under {side} multiplication"):
            con.quotient(m2z2, ElementSet.from_indices(m2z2, members))


def test_quotient_by_generators_spells_its_generators(z4):
    ring = con.quotient_by_generators(z4, [2])
    assert ring.spell() == "quot(Z4, 2)"
    assert ring.size == 2


# -- provenance records ------------------------------------------------------------


TABLES = ("add_table", "mul_table", "neg_table")


# the parents of the last four would fill 32, 128, 64 and 64 MB of tables
@pytest.mark.parametrize("spec", [
    "corner(M(2, Z4), 1)", "quot(Z16, 4)", "quot(Z2048, 512)", "corner(M(2, Z8), 1)",
    "corner(dorroh(Z64, self), 1)", "quot(dorroh(Z64, self), 1)",
])
def test_corners_and_quotients_keep_no_ring_of_their_parent(spec):
    # the provenance record holds no ring, and the build fills no table,
    # neither the parent's nor its own; the corner or quotient itself
    # reads its parent, so it keeps the parent alive through its reads
    ctx = BuildContext()
    gc.collect()
    tracemalloc.start()
    try:
        ring = ringspec.build(parse_ring_spec(spec), ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for field in dataclasses.fields(ring.provenance):
        value = getattr(ring.provenance, field.name)
        assert not isinstance(value, (FiniteRing, ElementSet)), field.name
    parent = ctx.cache[parse_ring_spec(spec).args[0].canonical()]
    for built in (parent, ring):
        assert [getattr(built, name) for name in TABLES] == [None] * 3
    assert peak < 10 * 2**20


@pytest.mark.parametrize("spec, filled", [
    *((spec, False) for spec in ("Z8", "prod(Z2, Z3)", "M(2, Z2)", "T(2, Z2)", "H(1, 1, Z3)")),
    ("dorroh(Z4, ideal(2))", False),
    ("corner(T(2, Z2), 1)", False), ("quot(Z8, 2)", False), ("table:f4.json", True),
])
def test_only_table_leaves_start_filled(spec, filled):
    ctx = BuildContext(base_dir=harness.default_corpus_path().parent)
    ring = ringspec._build(parse_ring_spec(spec), ctx)
    assert [getattr(ring, name) is not None for name in TABLES] == [filled] * 3


def _sub_construction_peak(spec, filled):
    """The tracemalloc peak of building ``spec``, a corner or a quotient,
    its parent built outside the window, with its tables filled or not."""
    ctx = BuildContext()
    parent = ringspec._build(parse_ring_spec(spec).args[0], ctx)
    if filled:
        parent.fill()
    gc.collect()
    tracemalloc.start()
    try:
        ringspec._build(parse_ring_spec(spec), ctx)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("spec", ["corner(H(1, 1, Z16), 16)", "quot(prod(Z64, Z32), 256)"])
def test_a_filled_parent_costs_its_corner_or_quotient_no_more_memory(spec):
    # the build's blocks of a filled table (the ideal check and the coset
    # table) are one gather each, with no whole rows of the parent
    assert _sub_construction_peak(spec, True) <= _sub_construction_peak(spec, False) + 2**20


def test_a_quotient_reads_the_n_by_ideal_blocks_in_row_blocks():
    # the ideal closure and the coset table read 4096 x 2048 cells each
    assert _sub_construction_peak("quot(Z4096, 2)", False) < 8 * 2**20


# -- block reads ---------------------------------------------------------------------

# the benchmark's ladder rings (conftest.LADDER_SPECS), then products,
# grids and H over nested unfilled rings, then Dorroh extensions, the
# first with a V-part of 16 row blocks
BLOCK_SPECS = (
    "Z512", "T(2, Z8)", "H(1, 1, Z8)", "prod(M(2, Z2), T(2, Z4))", "quot(Z2048, 512)",
    "prod(Z6, M(2, Z2))", "H(5, 7, prod(Z2, Z4))", "T(2, prod(Z2, Z3))",
    "dorroh(Z32, self)", "dorroh(T(2, Z2), ideal(2))",
)


def _index_arrays(rng, n):
    """Seeded index arrays into a ring of n: None (every index), empty,
    unsorted with and without repeats, and runs of one repeated index."""
    return [
        None,
        np.array([], dtype=np.intp),
        rng.integers(0, n, 1),
        rng.permutation(n)[:40],
        rng.integers(0, n, 40),
        np.repeat(rng.integers(0, n, 3), 4),
    ]


def test_blocks_of_an_unfilled_ring_equal_the_filled_tables(corpus):
    rng = np.random.default_rng(23)
    base_dir = harness.default_corpus_path().parent
    for spec in [e.spec_text for e in corpus] + list(BLOCK_SPECS):
        filled = build_ring(spec, BuildContext(base_dir=base_dir)).fill()
        # the node as a parent sees it, its tables filled only if it is
        # a table leaf
        ring = ringspec._build(parse_ring_spec(spec), BuildContext(base_dir=base_dir))
        lazy = ring._arithmetic is not None
        every = np.arange(ring.size)
        arrays = _index_arrays(rng, ring.size)
        for op in ("add", "mul"):
            table = getattr(filled, f"{op}_table")
            for rows in arrays:
                for cols in arrays:
                    at = [every if ids is None else ids for ids in (rows, cols)]
                    want = table[np.ix_(*at)]
                    for source in (ring, filled):
                        got = source.block(op, rows, cols)
                        assert got.dtype == np.uint16, spec
                        assert np.array_equal(got, want), (spec, op, rows, cols)
        for rows in arrays[1:]:
            assert np.array_equal(ring.neg_rows(rows), filled.neg_table[rows]), spec
        assert [getattr(ring, name) is None for name in TABLES] == [lazy] * 3, spec


# an unfilled ring of each builder that fills from its arithmetic, a
# corner and a quotient among them
READ_SPECS = (
    "Z37", "prod(Z3, T(2, Z2))", "M(2, Z2)", "T(2, Z3)", "H(1, 1, Z3)",
    "dorroh(Z4, ideal(2))", "dorroh(Z4, self)", "dorroh(T(2, Z2), ideal(1))",
    "corner(M(2, Z2), 3)", "quot(T(2, Z4), 2)",
)


def _every(ids, n):
    """The indices that None (every index), a slice or an index array names."""
    return np.arange(n) if ids is None else np.arange(n)[ids]


@pytest.mark.parametrize("spec", READ_SPECS)
def test_the_read_seams_agree_with_the_filled_tables(spec, monkeypatch):
    # blocks of 40 cells, so that the blocked reader splits every read
    monkeypatch.setattr(kernel, "_BLOCK_CELLS", 40)
    rng = np.random.default_rng(len(spec))
    filled = build_ring(spec).fill()
    ring = ringspec._build(parse_ring_spec(spec), BuildContext())
    lazy = ring._arithmetic is not None
    n = ring.size
    arrays = _index_arrays(rng, n)
    slices = [slice(None), slice(3, None), slice(2, n - 3), slice(5, 5), slice(n - 4, None)]
    for op in ("add", "mul"):
        table = getattr(filled, f"{op}_table")
        for rows in arrays + slices:
            for cols in arrays + slices:
                want = table[np.ix_(_every(rows, n), _every(cols, n))]
                for source in (ring, filled):
                    got = source.block(op, rows, cols)
                    assert got.dtype == np.uint16, spec
                    assert np.array_equal(got, want), (spec, op, rows, cols)
                if not any(isinstance(ids, np.ndarray) for ids in (rows, cols)):
                    view = filled.block(op, rows, cols)
                    assert not view.size or np.shares_memory(view, table), (spec, rows, cols)
        for rows in arrays:
            for cols in arrays:
                want = table[np.ix_(_every(rows, n), _every(cols, n))]
                width = want.shape[1]
                for source in (ring, filled):
                    reads = list(kernel.row_block_reads(source, op, rows, cols))
                    blocks = [block for _, block in reads]
                    starts = [start for start, _ in reads]
                    assert starts == np.cumsum([0] + [len(b) for b in blocks])[:-1].tolist()
                    assert all(b.size <= max(40, width) for b in blocks), (spec, op)
                    got = np.concatenate(blocks) if blocks else np.empty((0, width), np.uint16)
                    assert np.array_equal(got, want), (spec, op, rows, cols)
                    if source is filled and rows is None:
                        assert all(np.shares_memory(b, table) for b in blocks) == (cols is None)
    assert [getattr(ring, name) is None for name in TABLES] == [lazy] * 3, spec
    for op in ("add", "mul"):
        table = getattr(filled, f"{op}_table")
        x, y = rng.integers(0, n, (6, 1)), rng.permutation(n)[:9]
        repeats = np.repeat(y, 3), np.repeat(y[::-1], 3)
        for left, right in ((x, y), (x, x.T), (int(y[0]), y), (int(x[0, 0]), int(y[1])), repeats):
            want = table.ravel().take(np.multiply(left, n, dtype=np.intp) + right)
            assert np.array_equal(want, table[left, right]), spec
            for source in (ring, filled):
                got = source.apply(op, left, right)
                assert type(got) is type(want) and got.dtype == want.dtype, (spec, op)
                assert got.shape == want.shape and np.array_equal(got, want), (spec, op)
    # an elementwise read leaves an unfilled table unfilled
    assert [getattr(ring, name) is None for name in TABLES] == [lazy] * 3, spec
    with pytest.raises(ValueError):
        ring.block("neg")
    with pytest.raises(ValueError):
        ring.apply("neg", 0, 0)


@pytest.mark.parametrize("spec", READ_SPECS)
def test_scalar_ops_leave_an_unfilled_ring_unfilled(spec):
    # each op reads one cell through apply or neg_rows, never a whole table
    rng = random.Random(spec)
    filled = build_ring(spec).fill()
    ring = ringspec._build(parse_ring_spec(spec), BuildContext())
    lazy = ring._arithmetic is not None
    add, mul, neg = filled.add_table, filled.mul_table, filled.neg_table
    for _ in range(12):
        x, y, k = rng.randrange(ring.size), rng.randrange(ring.size), rng.randrange(6)
        power = ring.one
        for _ in range(k):
            power = int(mul[power, x])
        assert ring.add(x, y) == add[x, y] and ring.mul(x, y) == mul[x, y], (spec, x, y)
        assert ring.neg(x) == neg[x] and ring.sub(x, y) == add[x, neg[y]], (spec, x, y)
        assert ring.pow(x, k) == power, (spec, x, k)
    assert [getattr(ring, name) is None for name in TABLES] == [lazy] * 3, spec


def _xor_extension(bits):
    """Z2 extended by the ring (Z2)^bits with zero multiplication, whose
    2^bits elements outnumber the base's two."""
    arange = np.arange(2**bits)
    zeros = np.zeros((len(arange), len(arange)), dtype=int)
    v = con.NonUnitalRing(len(arange), arange[:, None] ^ arange, zeros, 0)
    left = np.stack([np.zeros_like(arange), arange])  # 0.v = 0 and 1.v = v
    return con.dorroh(zn(2), con.BimoduleRingAction(v=v, left=left, right=left.T))


@pytest.mark.parametrize("build", [
    lambda: ringspec._build(parse_ring_spec("dorroh(Z1024, zero)"), BuildContext()),
    lambda: _xor_extension(10),
], ids=["large base", "large V"])
def test_a_dorroh_block_of_few_rows_reads_only_the_rows_it_needs(build):
    ring = build()
    gc.collect()
    tracemalloc.start()
    try:
        blocks = [ring.block(op, [3, 5, 3]) for op in ("add", "mul")]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # all rows of the base's block, or of V's tables, would take 2 to 4 MB
    assert peak < 2**19
    for block, table in zip(blocks, (ring.fill().add_table, ring.mul_table)):
        assert np.array_equal(block, table[[3, 5, 3]])


# a construction over an unfilled base of 4096, 8, 8, 8 and 64 elements,
# Z4096's tables alone 32 MB; H also tests s and t for centrality
@pytest.mark.parametrize(
    "spec", ["M(1, Z4096)", "M(2, Z8)", "T(2, Z8)", "H(1, 1, Z8)", "dorroh(Z64, self)"]
)
def test_a_construction_reads_its_base_without_filling_it(spec):
    ctx = BuildContext()
    ring = ringspec.build(parse_ring_spec(spec), ctx)
    # a table slot reads None until fill, and reading it fills nothing
    assert ring.add_table is None
    rows, cols = np.array([3, ring.size - 1]), np.array([5])
    gc.collect()
    tracemalloc.start()
    try:
        block = ring.block("mul", rows, cols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    sums = ring.apply("add", rows, rows[::-1])
    for built in ctx.cache.values():
        assert [getattr(built, name) for name in TABLES] == [None] * 3, (spec, built.spell())
    filled = build_ring(spec).fill()
    assert np.array_equal(block, filled.block("mul", rows, cols)), spec
    assert np.array_equal(sums, filled.apply("add", rows, rows[::-1])), spec


def test_a_small_block_of_m1_reads_only_its_cells_of_the_base():
    # element x of M(1, Z4096) is the matrix [[x]], so an r x c block
    # needs r x c cells of Z4096, not whole columns of it
    ctx = BuildContext()
    ring = ringspec.build(parse_ring_spec("M(1, Z4096)"), ctx)
    base, cells = ctx.cache["Z4096"], []
    arithmetic = base._arithmetic

    def counted(op, rows, cols):
        out = arithmetic(op, rows, cols)
        cells.append(out.size)
        return out

    base._arithmetic = counted
    assert ring.block("add", [3, 4095], [5]).tolist() == [[8], [4]]
    assert sum(cells) == 2
    cells.clear()
    assert [ring.block(op, [7], [9]).tolist() for op in ("add", "mul")] == [[[16]], [[63]]]
    assert sum(cells) == 2
    assert [getattr(base, name) for name in TABLES] == [None] * 3


def _digits(x, radix, count):
    """x as ``count`` digits of ``radix``, most significant first."""
    return [x // radix ** (count - 1 - p) % radix for p in range(count)]


def _number(digits, radix):
    return sum(d * radix ** (len(digits) - 1 - p) for p, d in enumerate(digits))


def _digitwise(radix, count, op):
    """Python arithmetic on elements read as ``count`` digits of
    ``radix``, applying ``op`` digit by digit."""

    def apply(x, y):
        pairs = zip(_digits(x, radix, count), _digits(y, radix, count))
        return _number([op(a, b) % radix for a, b in pairs], radix)

    return apply


def _matrix_product_z16(x, y):
    a, b = _digits(x, 16, 4), _digits(y, 16, 4)  # [[a0, a1], [a2, a3]], row-major
    return _number([(a[2 * i] * b[j] + a[2 * i + 1] * b[2 + j]) % 16 for i in (0, 1) for j in (0, 1)], 16)


# rings of up to 65536 elements, the hard cap, with Python's (add, mul);
# at 65536 a uint16 wrap is itself mod 65536, so 65521 and 65535 also
# catch a sum or a product that wraps
TOP_RINGS = {
    "Z65536": (lambda x, y: (x + y) % 65536, lambda x, y: x * y % 65536),
    "Z65521": (lambda x, y: (x + y) % 65521, lambda x, y: x * y % 65521),
    "prod(Z256, Z256)": (_digitwise(256, 2, int.__add__), _digitwise(256, 2, int.__mul__)),
    "prod(Z257, Z255)": (
        lambda x, y: (x // 255 + y // 255) % 257 * 255 + (x + y) % 255,
        lambda x, y: (x // 255) * (y // 255) % 257 * 255 + (x % 255) * (y % 255) % 255,
    ),
    "M(2, Z16)": (_digitwise(16, 4, int.__add__), _matrix_product_z16),
}


@pytest.mark.parametrize("spec", TOP_RINGS)
def test_blocks_at_the_hard_cap_match_python_arithmetic(spec, monkeypatch):
    monkeypatch.setenv("DELTARING_CAPACITY", "65536")
    ring = ringspec._build(parse_ring_spec(spec), BuildContext())
    n = ring.size
    assert n in (65521, 65535, 65536)
    # the top indices, then seeded random ones
    ids = np.concatenate([np.arange(n - 6, n), np.random.default_rng(n).integers(0, n, 40)])
    for op, python in zip(("add", "mul"), TOP_RINGS[spec]):
        got = ring.block(op, ids, ids)
        assert got.dtype == np.uint16
        assert got.tolist() == [[python(int(x), int(y)) for y in ids] for x in ids], op
    # no table of 65536^2 cells was built
    assert [getattr(ring, name) for name in TABLES] == [None] * 3


@pytest.mark.parametrize("spec", [
    "Z65", "prod(Z8,Z9)", "M(2, Z3)", "T(2, Z5)", "H( 1, 1, Z5 )", "dorroh(Z9, self)",
])
def test_capacity_errors_start_with_the_canonical_spelling(spec, monkeypatch):
    monkeypatch.setenv("DELTARING_CAPACITY", "64")
    with pytest.raises(CapacityError) as info:
        build_ring(spec)
    assert str(info.value).startswith(parse_ring_spec(spec).canonical() + " would have ")


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
    ring = con.dorroh(z4, con.zero_action(z4), v_spell="zero").fill()
    assert ring.size == 4
    assert np.array_equal(ring.add_table, z4.fill().add_table)
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
    # the triple axioms are decided by the prover, whose failing gate
    # names one genuine witness
    ring = zn(260).fill()
    n = ring.size
    mul = ring.mul_table.copy()
    mul[3, 5] = 16  # 3 * 5 is 15
    action = con.BimoduleRingAction(
        v=con.NonUnitalRing(n, ring.add_table, mul, 0),
        left=[[0] * n, list(range(n))],
        right=[[0, x] for x in range(n)],
    )
    errors = con.validate_bimodule_action(z2, action)
    assert [e for e in errors if e.startswith("V ")] == ["V left-distributivity at (3, 4, 1)"]
    x, y, z = 3, 4, 1
    assert mul[x, ring.add(y, z)] != ring.add(mul[x, y], mul[x, z])


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


def test_action_law_witnesses_do_not_depend_on_the_row_blocks(monkeypatch):
    # each r takes 16 cells: blocks of two r, then of one r with its v
    # split in two or four; some witnesses lie in a later block, and some
    # laws fail in several blocks, in another order than (r, s, v, w)
    base = con.product(zn(2), zn(2))
    for cells, r_blocks, v_blocks in ((40, 2, 1), (8, 4, 2), (4, 4, 4)):
        monkeypatch.setattr(kernel, "_BLOCK_CELLS", cells)
        assert len(kernel._row_blocks(base.size, 16)) == r_blocks
        assert len(kernel._row_blocks(4, 4)) == v_blocks
        for _, mul, left, right in _ACTION_FAULTS:
            action = _xor4_action(mul, left, right)
            assert con.validate_bimodule_action(base, action) == _law_messages(base, action)
        for action in _random_actions(100):
            assert con.validate_bimodule_action(base, action) == _law_messages(base, action)


@pytest.mark.parametrize("bits", [10, 11])
def test_action_law_peak_stays_within_the_docstring_figure(bits):
    # a V of 1024 or 2048 elements over Z2: one r of the laws alone
    # would take 7.1 or 28.1 MB
    stated = re.search(r"Tracemalloc peak: ([\d.]+) MB", con.validate_bimodule_action.__doc__)
    assert stated, "validate_bimodule_action states no peak"
    prov = _xor_extension(bits).provenance
    gc.collect()
    tracemalloc.start()
    try:
        assert con.validate_bimodule_action(prov.base, prov.action) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= float(stated.group(1)) * 2**20


def test_a_dorroh_extension_reads_its_base_only_by_blocks():
    # the action laws read the base's rows of r + s and r * s, so the Z1024
    # under a quotient of its extension never fills its tables
    ctx = BuildContext()
    ringspec.build(parse_ring_spec("quot(dorroh(Z1024, zero), 2)"), ctx)
    assert [getattr(ctx.cache["Z1024"], name) for name in TABLES] == [None] * 3


def _random_actions(count):
    """Seeded actions of prod(Z2, Z2) on V = Z2^2 under XOR.  The maps of
    r = 0, 1, 2, 3 are mostly zero, a projection, its complement and the
    identity, so that many actions hold."""
    rng = random.Random(7)
    muls = sorted({case[1] for case in _ACTION_FAULTS})
    additive = [[0, a, b, a ^ b] for a in range(4) for b in range(4)]

    def some_map(usual):
        if rng.random() < 0.9:
            return usual
        return rng.choice(additive) if rng.random() < 0.8 else [rng.randrange(4) for _ in range(4)]

    for _ in range(count):
        maps = [
            [some_map(usual) for usual in ([0] * 4, [0, 1, 0, 1], [0, 0, 2, 2], [0, 1, 2, 3])]
            for _side in range(2)
        ]
        mul = rng.choice(muls) if rng.random() < 0.5 else "0000 0000 0000 0000"
        v = con.NonUnitalRing(4, _rows(_XOR4), _rows(mul), 0)
        yield con.BimoduleRingAction(v=v, left=maps[0], right=np.array(maps[1]).T)


def test_action_laws_match_the_scalar_oracle(corpus_rings, z4):
    base = con.product(zn(2), zn(2))
    failing = 0
    for action in _random_actions(300):
        errors = con.validate_bimodule_action(base, action)
        assert errors == _law_messages(base, action), (action.left, action.v.mul_table.tolist())
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
    # views of an unfilled parent, which their fill reads by blocks
    "corner": lambda: (con.corner, con.product(zn(1024), zn(4)), 4),
    "quotient": lambda: (con.quotient, (z := zn(2048)), con.ideal_generated(z, [1024])),
}


@pytest.mark.parametrize("name", PEAK_BUILDS)
def test_build_peaks_stay_within_the_docstring_figures(name):
    builder, *args = PEAK_BUILDS[name]()
    stated = re.search(r"Tracemalloc peak: ([\d.]+) bytes\s+per n\^2", builder.__doc__)
    assert stated, f"{name} states no peak per n^2"
    gc.collect()
    tracemalloc.start()
    try:
        # a ring built from its arithmetic fills its tables only by fill()
        ring = builder(*args).fill()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ring.size in range(1000, 1300)
    assert peak / ring.size**2 <= float(stated.group(1))
