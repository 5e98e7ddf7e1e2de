import ast
import gc
import itertools
import math
import pathlib
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import deltaring
from deltaring import (
    CapacityError,
    ElementSet,
    FiniteRing,
    MalformedTableError,
    build_ring,
    element_capacity,
    kernel,
    validate_ring,
    zn,
)

import oracles


def test_zn_arithmetic_matches_modular_arithmetic():
    ring = zn(6)
    for x in range(6):
        for y in range(6):
            assert ring.add(x, y) == (x + y) % 6
            assert ring.mul(x, y) == (x * y) % 6
            assert ring.sub(x, y) == (x - y) % 6
        assert ring.neg(x) == (-x) % 6
        assert ring.pow(x, 3) == pow(x, 3, 6)
        assert ring.pow(x, 0) == 1
    assert ring.zero == 0 and ring.one == 1
    assert ring.spell() == "Z6"


def test_inverse_and_unit_queries_match_scan(z4, t2z2, ladder_rings):
    # T(2, Z8)'s 512 rows span several row blocks of the inverse scan
    for ring in (z4, t2z2, ladder_rings["T(2, Z8)"]):
        expected = oracles.units_of(ring)
        table = ring.inverse_table()
        for x in ring.elements():
            inv = oracles.inverse_of(ring, x)
            assert ring.inverse(x) == inv
            assert ring.is_unit(x) == (x in expected)
            assert table[x] == (-1 if inv is None else inv)


def test_out_of_range_index_raises():
    ring = zn(4)
    with pytest.raises(IndexError):
        ring.add(4, 0)
    with pytest.raises(IndexError):
        ring.mul(0, -1)
    with pytest.raises(IndexError):
        ring.neg(17)


def test_element_names_default_to_indices():
    ring = zn(3)
    assert [ring.element_name(x) for x in ring.elements()] == ["0", "1", "2"]


def test_element_set_round_trips():
    ring = zn(8)
    s = ElementSet.from_indices(ring, [5, 1, 3])
    assert s.indices() == (1, 3, 5)
    assert list(s) == [1, 3, 5]
    assert len(s) == 3
    assert 3 in s and 4 not in s
    mask = s.bool_array()
    assert mask.dtype == np.bool_ and mask.sum() == 3
    assert ElementSet.from_bool_array(ring, mask) == s
    assert ElementSet.singleton(ring, 2).indices() == (2,)
    assert not ElementSet.empty(ring)
    assert len(ElementSet.full(ring)) == 8


@given(
    left=st.sets(st.integers(0, 9)),
    right=st.sets(st.integers(0, 9)),
)
def test_element_set_algebra_matches_python_sets(left, right):
    ring = zn(10)
    a = ElementSet.from_indices(ring, left)
    b = ElementSet.from_indices(ring, right)
    assert set((a & b).indices()) == left & right
    assert set((a | b).indices()) == left | right
    assert set((a ^ b).indices()) == left ^ right
    assert set((a - b).indices()) == left - right
    assert set(a.complement().indices()) == set(range(10)) - left
    assert a.issubset(b) == left.issubset(right)
    assert (a <= b) == (left <= right)
    assert (a == b) == (left == right)
    assert len(a) == len(left) and bool(a) == bool(left)
    for x in range(-1, 11):
        assert (x in a) == (x in left)
    if a == b:
        assert hash(a) == hash(b)


def test_element_set_rejects_mixed_rings():
    a = ElementSet.from_indices(zn(4), [1])
    b = ElementSet.from_indices(zn(4), [1])
    with pytest.raises(ValueError):
        a & b


def test_capacity_defaults_and_env_override(monkeypatch):
    assert element_capacity() == 4096
    monkeypatch.setenv("DELTARING_CAPACITY", "10")
    assert element_capacity() == 10
    with pytest.raises(CapacityError):
        zn(11)
    assert zn(10).size == 10


def test_capacity_has_a_hard_ceiling(monkeypatch):
    monkeypatch.setenv("DELTARING_CAPACITY", "65536")
    assert element_capacity() == 65536
    monkeypatch.setenv("DELTARING_CAPACITY", "65537")
    with pytest.raises(CapacityError, match="between 2 and 65536"):
        element_capacity()
    with pytest.raises(CapacityError):
        zn(2)


def test_ring_keeps_a_fresh_int32_table_and_freezes_it(z4):
    add = z4.add_table.copy()
    mul = z4.mul_table.copy()
    ring = FiniteRing(4, add, mul, zero=0, one=1)
    assert np.shares_memory(ring.add_table, add)
    assert np.shares_memory(ring.mul_table, mul)
    with pytest.raises(ValueError):
        add[0, 0] = 1
    with pytest.raises(ValueError):
        mul[0, 0] = 1
    # another ring's read-only tables are shared as they are
    twin = FiniteRing(4, ring.add_table, z4.mul_table, zero=0, one=1)
    assert twin.add_table is ring.add_table and twin.mul_table is z4.mul_table


def test_ring_converts_and_range_checks_other_table_data(z4):
    lists = FiniteRing(4, z4.add_table.tolist(), z4.mul_table.tolist(), zero=0, one=1)
    wide = FiniteRing(
        4, z4.add_table.astype(np.int64), z4.mul_table.astype(np.uint8), zero=0, one=1
    )
    strided = np.asfortranarray(z4.add_table)
    fortran = FiniteRing(4, strided, z4.mul_table, zero=0, one=1)
    for ring in (lists, wide, fortran):
        assert ring.add_table.dtype == ring.mul_table.dtype == np.int32
        assert ring.add_table.flags.c_contiguous and not ring.add_table.flags.writeable
        assert (ring.add_table == z4.add_table).all() and (ring.mul_table == z4.mul_table).all()
    assert not np.shares_memory(fortran.add_table, strided)

    wrapping = z4.add_table.astype(np.int64)
    wrapping[1, 2] += 2**32  # would read as 3 after an unchecked int32 cast
    with pytest.raises(MalformedTableError, match=r"\(1, 2\) is outside 0..3"):
        FiniteRing(4, wrapping, z4.mul_table, zero=0, one=1)
    for entry in (4, 2**40):
        with pytest.raises(MalformedTableError, match="outside 0..3"):
            FiniteRing(4, [[0, 1, 2, entry]] * 4, z4.mul_table, zero=0, one=1)
    with pytest.raises(MalformedTableError, match="not integer data"):
        FiniteRing(4, z4.add_table / 1, z4.mul_table, zero=0, one=1)
    with pytest.raises(MalformedTableError, match="not integer data"):
        FiniteRing(4, [[0, 1, 2, 2**70]] * 4, z4.mul_table, zero=0, one=1)
    with pytest.raises(MalformedTableError, match="rectangular"):
        FiniteRing(4, [[0, 1, 2, 3]] * 3 + [[0]], z4.mul_table, zero=0, one=1)


def test_validate_ring_accepts_sound_rings(corpus):
    for entry in corpus:
        report = validate_ring(entry.ring)
        assert report.ok, f"{entry.spec_text}: {report.violations}"
        assert report.mode == "exhaustive"
        d = report.to_dict()
        assert d["ok"] is True and d["violations"] == []
        assert "sampled_triples" not in d


def test_validate_ring_samples_large_rings():
    ring = zn(300)
    report = validate_ring(ring)
    assert report.ok
    assert report.mode == "sampled"
    d = report.to_dict()
    assert d["sampled_triples"] >= 300 * 300
    assert d["sample_seed"] is not None


def test_validate_ring_above_the_scan_limit_reports_the_sample(ladder_rings):
    for ring in [zn(300), *ladder_rings.values()]:
        n = ring.size
        assert n > kernel.FULL_SCAN_LIMIT
        assert validate_ring(ring).to_dict() == {
            "ring": ring.spell(),
            "size": n,
            "mode": "sampled",
            "ok": True,
            "violations": [],
            "sampled_triples": n * n,
            "sample_seed": 24301,
        }, ring.spell()


def test_no_module_draws_random_numbers():
    # every verdict is exact, so no module may fall back on a sample
    for path in sorted(pathlib.Path(deltaring.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [f"{node.value.id}.{node.attr}"]
            else:
                continue
            drawn = [n for n in names if n in ("random", "np.random", "numpy.random")]
            assert not drawn, f"{path.name}:{node.lineno} uses {drawn[0]}"


def _replay(ring, axiom, w):
    """Re-check a reported violation witness with direct table lookups."""
    if axiom == "mul-associativity":
        x, y, z = w
        return ring.mul(ring.mul(x, y), z) != ring.mul(x, ring.mul(y, z))
    if axiom == "left-distributivity":
        x, y, z = w
        return ring.mul(x, ring.add(y, z)) != ring.add(ring.mul(x, y), ring.mul(x, z))
    if axiom == "right-distributivity":
        x, y, z = w
        return ring.mul(ring.add(x, y), z) != ring.add(ring.mul(x, z), ring.mul(y, z))
    if axiom == "add-associativity":
        x, y, z = w
        return ring.add(ring.add(x, y), z) != ring.add(x, ring.add(y, z))
    if axiom == "add-commutativity":
        x, y = w
        return ring.add(x, y) != ring.add(y, x)
    if axiom == "one-identity":
        (x,) = w
        return ring.mul(ring.one, x) != x or ring.mul(x, ring.one) != x
    if axiom == "zero-identity":
        (x,) = w
        return ring.add(ring.zero, x) != x or ring.add(x, ring.zero) != x
    if axiom == "add-inverse":
        (x,) = w
        return all(ring.add(x, y) != ring.zero for y in ring.elements())
    raise AssertionError(f"unexpected axiom {axiom}")


def test_validate_ring_catches_mutation_with_genuine_witnesses(z4):
    bad = oracles.mutate_mul_entry(z4, 2, 3, 1)
    report = validate_ring(bad)
    assert not report.ok
    axioms = {v.axiom for v in report.violations}
    assert "mul-associativity" in axioms
    assert "left-distributivity" in axioms or "right-distributivity" in axioms
    for violation in report.violations:
        assert _replay(bad, violation.axiom, violation.witness)
        assert violation.describe(bad)


def test_validate_ring_catches_broken_addition():
    add = np.array([[0, 1], [1, 1]])  # 1 has no additive inverse
    mul = np.array([[0, 0], [0, 1]])
    ring = FiniteRing(2, add, mul, zero=0, one=1)
    report = validate_ring(ring)
    axioms = {v.axiom for v in report.violations}
    assert "add-inverse" in axioms


def test_mutation_leaves_original_untouched(z4):
    before = z4.mul(2, 3)
    mutated = oracles.mutate_mul_entry(z4, 2, 3, 1)
    assert mutated.mul(2, 3) == 1
    assert z4.mul(2, 3) == before
    assert mutated.spell() == "table:mutated:Z4"


def test_tables_are_read_only(z4):
    with pytest.raises(ValueError):
        z4.mul_table[0, 0] = 1
    with pytest.raises(ValueError):
        z4.add_table[0, 0] = 1


def _mutate_add_entry(ring, x, y, value):
    add = ring.add_table.copy()
    add[x, y] = value
    return FiniteRing(ring.size, add, ring.mul_table, zero=ring.zero, one=ring.one)


def test_pair_axiom_witnesses_past_the_first_row_block():
    bad = _mutate_add_entry(zn(1024), 500, 524, 1)  # row 500 loses its inverse 524
    assert kernel._row_blocks(1024, 1024)[1].start <= 500
    # a later row, but in a square tile on the diagonal, which the
    # commutativity check reads before the tile of (500, 524)
    bad = _mutate_add_entry(bad, 505, 510, 1)
    pairs = [(v.axiom, v.witness) for v in validate_ring(bad).violations if len(v.witness) < 3]
    assert pairs == [("add-commutativity", (500, 524)), ("add-inverse", (500,))]


def test_validate_ring_agrees_with_scalar_oracle_on_corruptions(corpus):
    rng = random.Random(20240)
    rejected = passed = triple_only = 0
    for entry in corpus:
        ring = entry.ring
        if ring.size > 16:
            continue
        for i in range(12):
            x, y, value = (rng.randrange(ring.size) for _ in range(3))
            # every fourth add corruption sits on the diagonal, where the
            # pair axioms can survive and only the triple axioms fail
            if i % 4 == 0:
                y = x
            for bad in (
                oracles.mutate_mul_entry(ring, x, y, value),
                _mutate_add_entry(ring, x, y, value),
            ):
                report = validate_ring(bad)
                assert report.ok == oracles.axioms_hold(bad), (entry.spec_text, x, y, value)
                assert report.mode == "exhaustive"
                for violation in report.violations:
                    assert _replay(bad, violation.axiom, violation.witness)
                rejected += not report.ok
                passed += report.ok
                triple_only += not report.ok and all(
                    v.axiom in kernel._TRIPLE_AXIOMS for v in report.violations
                )
    assert rejected > 300 and passed > 10 and triple_only > 100


def test_certificate_covers_the_most_generators_under_the_limit():
    ring = build_ring("prod(M(2, Z2), M(2, Z2))")
    assert ring.size == kernel.FULL_SCAN_LIMIT
    picks, tree = kernel._additive_tree(ring.add_table, ring.zero)
    assert tree is not None and len(picks) == 8
    report = validate_ring(ring)
    assert report.ok and report.mode == "exhaustive"


_XOR4 = [[x ^ y for y in range(4)] for x in range(4)]
# the near-ring x*y = L_x(y) for the endomorphisms L_x of Z2^2 that form a
# monoid but not an additive group: every axiom but right-distributivity
_NEAR_RING = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 0, 2], [0, 3, 0, 3]]
# the bilinear unital Z2-algebra on 1 = 1, a = 2, b = 4 with aa = b,
# ab = 1 and ba = bb = 0: every axiom but (aa)a = 0 != 1 = a(aa)
_NONASSOCIATIVE_ALGEBRA = [
    [0, 0, 0, 0, 0, 0, 0, 0],
    [0, 1, 2, 3, 4, 5, 6, 7],
    [0, 2, 4, 6, 1, 3, 5, 7],
    [0, 3, 6, 5, 5, 6, 3, 0],
    [0, 4, 0, 4, 0, 4, 0, 4],
    [0, 5, 2, 7, 4, 1, 6, 3],
    [0, 6, 4, 2, 1, 7, 5, 3],
    [0, 7, 6, 1, 5, 2, 3, 4],
]

# Hand-built faulty tables, each with the full triple scan's report.
FAULTY_TABLE_REPORTS = [
    (
        # commutative addition, two-sided zero and inverses, but any two
        # nonzero elements sum to 0
        "add-associativity only",
        [[0, 1, 2, 3], [1, 0, 0, 0], [2, 0, 0, 0], [3, 0, 0, 0]],
        [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 1, 3], [0, 3, 3, 3]],
        [("add-associativity", [1, 1, 2])],
    ),
    (
        "Z4 but 2*0 = 2",
        [[(x + y) % 4 for y in range(4)] for x in range(4)],
        [[0, 0, 0, 0], [0, 1, 2, 3], [2, 2, 0, 2], [0, 3, 2, 1]],
        [
            ("mul-associativity", [2, 0, 2]),
            ("left-distributivity", [2, 0, 0]),
            ("right-distributivity", [1, 1, 0]),
        ],
    ),
    ("right-distributivity only", _XOR4, _NEAR_RING, [("right-distributivity", [1, 2, 2])]),
    (
        "left-distributivity only",
        _XOR4,
        [list(col) for col in zip(*_NEAR_RING)],
        [("left-distributivity", [2, 1, 2])],
    ),
    (
        "mul-associativity only",
        [[x ^ y for y in range(8)] for x in range(8)],
        _NONASSOCIATIVE_ALGEBRA,
        [("mul-associativity", [2, 2, 2])],
    ),
    (
        # the prover is sound only once the pair axioms hold: here 1 and
        # 2 have no additive inverse, so the triple scan runs
        "missing inverses hide a triple fault",
        [[0, 1, 2], [1, 1, 2], [2, 2, 2]],
        [[0, 0, 1], [0, 1, 2], [1, 2, 2]],
        [("add-inverse", [1]), ("mul-associativity", [0, 0, 2])],
    ),
    (
        # 0 + x = x holds, x + 0 = x fails at 1
        "zero is only a left identity",
        [[0, 1], [0, 0]],
        [[0, 0], [0, 1]],
        [
            ("add-commutativity", [0, 1]),
            ("zero-identity", [1]),
            ("add-associativity", [1, 0, 1]),
        ],
    ),
    (
        # x * y = y: 1 * x = x holds, x * 1 = x fails at 0
        "one is only a left identity",
        [[0, 1], [1, 0]],
        [[0, 1], [0, 1]],
        [("one-identity", [0]), ("right-distributivity", [0, 0, 1])],
    ),
    (
        # every pair axiom on addition fails; the triple scan runs
        "pair faults hide triple faults",
        [[0, 0, 0], [1, 1, 2], [1, 1, 2]],
        [[(x * y) % 3 for y in range(3)] for x in range(3)],
        [
            ("add-commutativity", [0, 1]),
            ("zero-identity", [1]),
            ("add-inverse", [1]),
            ("add-associativity", [1, 0, 2]),
            ("left-distributivity", [2, 1, 0]),
            ("right-distributivity", [1, 0, 2]),
        ],
    ),
]


@pytest.mark.parametrize(
    "add, mul, violations",
    [case[1:] for case in FAULTY_TABLE_REPORTS],
    ids=[case[0] for case in FAULTY_TABLE_REPORTS],
)
def test_faulty_tables_get_the_scan_report(add, mul, violations):
    n = len(add)
    report = validate_ring(FiniteRing(n, add, mul, zero=0, one=1))
    assert report.to_dict() == {
        "ring": f"ring<{n}>",
        "size": n,
        "mode": "exhaustive",
        "ok": False,
        "violations": [{"axiom": axiom, "witness": w} for axiom, w in violations],
    }


def _zero_table(n):
    return [[0] * n for _ in range(n)]


# Z4 numbered 0, 2, 1, 3: the prover's first pick has order 2, so the
# second one meets the relation 2 * 1 = 2 in these labels
_Z4_RENUMBERED = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 1, 0], [3, 2, 0, 1]]

_ADDITIVE_UNDECIDED = ["mul-associativity", "left-distributivity", "right-distributivity"]
_LEFT_UNDECIDED = ["mul-associativity", "right-distributivity"]

# Tables that satisfy the additive pair axioms but not the triple axioms,
# each rejected by exactly one gate of the prover, which it names, with
# that gate's witness and the triple axioms it leaves undecided
ONE_GATE_TABLES = {
    # 1 + 1 = 0 and 2 + 1 = 0: the second pick's layer meets the first's,
    # and Light's test names (1 + 1) + 2 != 1 + (1 + 2)
    "bijective enumeration": (
        FAULTY_TABLE_REPORTS[0][1],
        _zero_table(4),
        ("add-associativity", (1, 1, 2), _ADDITIVE_UNDECIDED),
    ),
    "commuting translations": (
        [[0, 1, 2, 3], [1, 0, 3, 0], [2, 3, 0, 1], [3, 0, 1, 0]],
        _zero_table(4),
        ("add-associativity", (2, 1, 1), _ADDITIVE_UNDECIDED),
    ),
    # a commutative loop of order 6 that is not associative
    "additive tree": (
        [
            [0, 1, 2, 3, 4, 5],
            [1, 0, 3, 2, 5, 4],
            [2, 3, 4, 5, 0, 1],
            [3, 2, 5, 4, 1, 0],
            [4, 5, 0, 1, 3, 2],
            [5, 4, 1, 0, 2, 3],
        ],
        _zero_table(6),
        ("add-associativity", (2, 2, 4), _ADDITIVE_UNDECIDED),
    ),
    "left-distributive tree": (
        _XOR4,
        [list(col) for col in zip(*_NEAR_RING)],
        ("left-distributivity", (2, 1, 2), _LEFT_UNDECIDED),
    ),
    # x * y = x when y is an odd element of Z4 and 0 otherwise: additive in
    # the picks' coordinates, but 2 (x * 1) = 0 != x * 2 for odd x
    "multiplicative relations": (
        _Z4_RENUMBERED,
        [[0, 0, 0, 0], [0, 0, 1, 1], [0, 0, 2, 2], [0, 0, 3, 3]],
        ("left-distributivity", (2, 2, 2), _LEFT_UNDECIDED),
    ),
    "right distributivity on G": (
        _XOR4,
        _NEAR_RING,
        ("right-distributivity", (2, 1, 2), ["mul-associativity"]),
    ),
    "G^3": (
        [[x ^ y for y in range(8)] for x in range(8)],
        _NONASSOCIATIVE_ALGEBRA,
        ("mul-associativity", (2, 2, 2), []),
    ),
}


@pytest.mark.parametrize("gate", ONE_GATE_TABLES)
def test_prover_rejects_what_only_one_gate_catches(gate):
    add, mul = (np.array(t, dtype=np.int32) for t in ONE_GATE_TABLES[gate][:2])
    pair_faults, _ = kernel._axiom_violations(add, mul, 0)
    assert {v.axiom for v in pair_faults} <= set(kernel._TRIPLE_AXIOMS)
    violation, not_checked = kernel._prove_triple_axioms(add, mul, 0)
    assert (violation.axiom, violation.witness, list(not_checked)) == ONE_GATE_TABLES[gate][2]
    assert _prover_agrees_with_the_scan(add, mul, 0) is False


def test_the_walk_stops_where_an_orbit_closes_outside_the_earlier_picks():
    # 1 + 1 = 2 and 1 + 2 = 1: the orbit 0, 1, 2 of the first pick closes
    # on its own layer 1, not on {0}, before any layer meets another
    add = np.array([[0, 1, 2, 3], [1, 2, 1, 0], [2, 1, 0, 3], [3, 0, 3, 2]], dtype=np.int32)
    assert _additive_pair_axioms_hold(add, 0)
    picks, tree = kernel._additive_tree(add, 0)
    assert tree is None and picks.tolist() == [1]
    mul = np.zeros((4, 4), dtype=np.int32)
    violation, not_checked = kernel._prove_triple_axioms(add, mul, 0)
    assert (violation.axiom, violation.witness, list(not_checked)) == (
        "add-associativity",
        (1, 1, 2),
        _ADDITIVE_UNDECIDED,
    )
    assert _prover_agrees_with_the_scan(add, mul, 0) is False


def _additive_pair_axioms_hold(add, zero):
    arange = np.arange(add.shape[0])
    return (
        (add == add.T).all()
        and (add[zero] == arange).all()
        and (add[:, zero] == arange).all()
        and (add == zero).any(axis=1).all()
    )


# the rings of the benchmark's point_queries workload
POINT_SPECS = (
    "T(3, Z2)",
    "M(2, Z3)",
    "T(2, Z8)",
    "H(1, 1, Z8)",
    "Z1024",
    "prod(M(2, Z2), T(2, Z4))",
)


def _prover_agrees_with_the_scan(add, mul, zero):
    """Whether the prover proves the triple axioms of the tables, after
    checking its verdict against the n^3 scan: a rejected table's
    witness must replay, and no axiom the prover reports as decided may
    be among the scan's violations."""
    failure = kernel._prove_triple_axioms(add, mul, zero)
    scanned = {v.axiom for v in kernel._scan_triple_axioms(add, mul)}
    if failure is None:
        assert not scanned
        return True
    violation, not_checked = failure
    n = len(add)
    # a triple axiom's replay reads no one, but the ring needs one
    tables = FiniteRing(n, add, mul, zero=zero, one=(zero + 1) % n)
    assert _replay(tables, violation.axiom, violation.witness)
    assert scanned - set(not_checked) == {violation.axiom}, (violation, not_checked, scanned)
    return False


def test_prover_never_passes_what_the_scan_rejects(corpus, ladder_rings):
    prove = kernel._prove_triple_axioms
    for ring in [*ladder_rings.values(), *map(build_ring, POINT_SPECS)]:
        assert prove(ring.add_table, ring.mul_table, ring.zero) is None, ring.spell()
    rng = random.Random(13)
    rejected = 0
    for entry in corpus:
        ring = entry.ring
        add, mul, zero = ring.add_table, ring.mul_table, ring.zero
        assert prove(add, mul, zero) is None, entry.spec_text
        tables = []
        for i in range(8 if ring.size < 256 else 2):
            x, y, value = (rng.randrange(ring.size) for _ in range(3))
            tables.append((add, oracles.mutate_mul_entry(ring, x, y, value).mul_table))
            # a diagonal entry or a symmetric pair keeps add commutative
            y = x if i % 2 else y
            bad = add.copy()
            bad[x, y] = bad[y, x] = value
            if _additive_pair_axioms_hold(bad, zero):
                tables.append((bad, mul))
        for bad_add, bad_mul in tables:
            rejected += not _prover_agrees_with_the_scan(bad_add, bad_mul, zero)
    assert rejected > 150


def test_certificate_never_passes_what_the_scan_rejects(corpus_rings):
    # many single-entry corruptions of one 256-element ring: an n^3 scan
    # takes 0.5 s here, so it runs only on the tables the prover passes,
    # and the witness of every other one replays
    prove = kernel._prove_triple_axioms
    ring = corpus_rings["M(2, Z4)"]
    rng = random.Random(150)
    proved = 0
    for i in range(150):
        x, y, value = (rng.randrange(ring.size) for _ in range(3))
        if i == 0:
            value = ring.mul(x, y)  # an unchanged table must be proved
        bad = oracles.mutate_mul_entry(ring, x, y, value)
        failure = prove(bad.add_table, bad.mul_table, bad.zero)
        if failure is None:
            proved += 1
            assert kernel._scan_triple_axioms(bad.add_table, bad.mul_table) == []
        else:
            assert _replay(bad, failure[0].axiom, failure[0].witness)
    assert proved >= 1


def test_a_gate_four_failure_scans_only_the_axioms_it_left_open(monkeypatch):
    ring = build_ring("M(2, Z2)")
    bad = oracles.mutate_mul_entry(ring, 0, 0, 1)  # 0 * 0 = 1 fails x0 = x0 + x0
    violation, not_checked = kernel._prove_triple_axioms(bad.add_table, bad.mul_table, bad.zero)
    assert violation.axiom == "left-distributivity"
    scan = kernel._scan_triple_axioms
    scanned = []

    def recording_scan(add, mul, axioms=kernel._TRIPLE_AXIOMS):
        scanned.append(axioms)
        return scan(add, mul, axioms)

    monkeypatch.setattr(kernel, "_scan_triple_axioms", recording_scan)
    report = validate_ring(bad)
    assert scanned == [("left-distributivity", *not_checked)]
    assert "add-associativity" not in scanned[0]
    # the proved axioms have no violation, so the report is the full scan's
    assert report.violations == scan(bad.add_table, bad.mul_table)


@st.composite
def shuffled_bilinear_tables(draw):
    """A product of cyclic groups, its elements numbered in a shuffled
    order, with a bilinear product of the standard basis vectors and one
    product entry then overwritten."""
    orders = draw(st.lists(st.integers(2, 4), min_size=1, max_size=3))
    n = math.prod(orders)
    modulus = np.array(orders)
    coords = np.array(list(itertools.product(*map(range, orders))))
    # e_a e_b may be any vector of order dividing gcd(m_a, m_b)
    basis = np.array(
        [
            [
                [
                    draw(st.integers(0, m - 1)) * (m // math.gcd(m, math.gcd(a, b)))
                    for m in orders
                ]
                for b in orders
            ]
            for a in orders
        ]
    )
    label = np.array(draw(st.permutations(range(n))))
    number = dict(zip(map(tuple, coords), label))

    def table(values):
        out = np.empty((n, n), dtype=np.int32)
        for u in range(n):
            for v in range(n):
                out[label[u], label[v]] = number[tuple(values[u, v] % modulus)]
        return out

    add = table(coords[:, None, :] + coords[None, :, :])
    mul = table(np.einsum("ua,vb,abi->uvi", coords, coords, basis))
    x, y, value = (draw(st.integers(0, n - 1)) for _ in range(3))
    mul[x, y] = value
    return add, mul, int(label[0])


@settings(derandomize=True)
@given(shuffled_bilinear_tables())
def test_prover_agrees_with_the_scan_on_shuffled_groups(tables):
    _prover_agrees_with_the_scan(*tables)


def _with_factor(ring, add, mul):
    """The table of ring x T for a 4- or 8-element table T with zero 0 and
    one 1, its pairs (r, t) numbered r * |T| + t."""
    t = len(add)

    def combine(big, small):
        return (big[:, None, :, None] * t + np.array(small)[None, :, None, :]).reshape(
            ring.size * t, ring.size * t
        )

    return FiniteRing(
        ring.size * t,
        combine(ring.add_table, add),
        combine(ring.mul_table, mul),
        zero=ring.zero * t,
        one=ring.one * t + 1,
    )


def _stranded_z512():
    """Z512 with every sum of two nonzero elements that lands in 1..11
    replaced by 0: the pair axioms hold, but each of 1..11 is reached
    only by picking it, one pick more than a group of 512 needs."""
    ring = zn(512)
    add = ring.add_table.copy()
    stranded = (add >= 1) & (add <= 11)
    stranded[0, :] = stranded[:, 0] = False
    add[stranded] = 0
    return FiniteRing(512, add, ring.mul_table, zero=0, one=1)


def _step_corruption(step):
    """A table above the scan limit with the one fault the step names: a
    stranded additive closure, a fault that Light's test finds, right or
    left distributivity failing on additive generators, or G^3."""
    faulty = {case[0]: case[1:3] for case in FAULTY_TABLE_REPORTS}
    if step == "generator-closure":
        return _stranded_z512()
    if step == "g-cubed":
        return _with_factor(build_ring("prod(Z4, M(2, Z2))"), *faulty["mul-associativity only"])
    factor = {
        "light": "add-associativity only",
        "right-distributivity": "right-distributivity only",
        "left-distributivity-on-generators": "left-distributivity only",
    }[step]
    return _with_factor(build_ring("prod(Z8, M(2, Z2))"), *faulty[factor])


# The prover's witness on each step's corruption, and the triple axioms
# its failing gate leaves unchecked.
CERTIFICATE_STEPS = {
    "generator-closure": ("add-associativity", (1, 1, 2), _ADDITIVE_UNDECIDED),
    "light": ("add-associativity", (1, 1, 2), _ADDITIVE_UNDECIDED),
    "right-distributivity": ("right-distributivity", (2, 1, 2), ["mul-associativity"]),
    "left-distributivity-on-generators": ("left-distributivity", (2, 1, 2), _LEFT_UNDECIDED),
    "g-cubed": ("mul-associativity", (2, 2, 2), []),
}


def _step_report(bad, axiom, witness, not_checked):
    report = {
        "ring": bad.spell(),
        "size": bad.size,
        "mode": "sampled",
        "ok": False,
        "violations": [{"axiom": axiom, "witness": list(witness)}],
        "sampled_triples": bad.size**2,
        "sample_seed": 24301,
    }
    if not_checked:
        report["not_checked"] = not_checked
    return report


@pytest.mark.parametrize("step", CERTIFICATE_STEPS)
def test_certificate_rejects_each_step_above_the_scan_limit(step):
    bad = _step_corruption(step)
    assert bad.size > kernel.FULL_SCAN_LIMIT
    add, mul = bad.add_table, bad.mul_table
    picks, tree = kernel._additive_tree(add, bad.zero)
    if step == "generator-closure":
        # 1 + 1 = 0 and 2 + 1 = 0 in the stranded Z512: the second
        # pick's first layer meets the first pick's
        assert tree is None and picks.tolist() == [1, 2]
    expected = CERTIFICATE_STEPS[step]
    violation, not_checked = kernel._prove_triple_axioms(add, mul, bad.zero)
    assert (violation.axiom, violation.witness, list(not_checked)) == expected
    assert _replay(bad, violation.axiom, violation.witness)
    assert validate_ring(bad).to_dict() == _step_report(bad, *expected)


@pytest.mark.parametrize("step", CERTIFICATE_STEPS)
def test_certificate_witnesses_do_not_depend_on_the_row_blocks(step, monkeypatch):
    bad = _step_corruption(step)
    expected = validate_ring(bad).to_dict()
    rows_of = kernel._row_blocks
    # one row per block, so a witness in row x comes from block x and
    # needs that block's offset; the default cell count is bound when
    # _row_blocks is defined, so the function itself is replaced
    monkeypatch.setattr(
        kernel, "_row_blocks", lambda count, width, cells=None: rows_of(count, width, width)
    )
    assert len(kernel._row_blocks(bad.size, bad.size)) == bad.size
    assert validate_ring(bad).to_dict() == expected


@pytest.mark.parametrize("spec", ["Z1024", "T(4, Z2)", "H(1, 1, Z10)"])
def test_validate_ring_peak_stays_within_the_docstring_figure(spec):
    ring = build_ring(spec)
    stated = re.search(r"Tracemalloc peak: ([\d.]+) bytes\s+per n\^2", validate_ring.__doc__)
    assert stated, "validate_ring states no peak per n^2"
    gc.collect()
    tracemalloc.start()
    try:
        report = validate_ring(ring)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok and ring.size in range(1000, 1300)
    assert peak / ring.size**2 <= float(stated.group(1))
