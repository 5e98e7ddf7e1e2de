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
from hypothesis import assume, given, settings
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
import sources


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
        tables = oracles.read_tables(ring)
        expected = oracles.units_of(tables)
        table = ring.inverse_table()
        for x in ring.elements():
            inv = oracles.inverse_of(tables, x)
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


def test_ring_keeps_a_fresh_uint16_table_and_freezes_it(z4):
    z4.fill()
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
    z4.fill()
    lists = FiniteRing(4, z4.add_table.tolist(), z4.mul_table.tolist(), zero=0, one=1)
    wide = FiniteRing(
        4, z4.add_table.astype(np.int64), z4.mul_table.astype(np.uint8), zero=0, one=1
    )
    strided = np.asfortranarray(z4.add_table)
    fortran = FiniteRing(4, strided, z4.mul_table, zero=0, one=1)
    for ring in (lists, wide, fortran):
        assert ring.add_table.dtype == ring.mul_table.dtype == np.uint16
        assert ring.add_table.flags.c_contiguous and not ring.add_table.flags.writeable
        assert (ring.add_table == z4.add_table).all() and (ring.mul_table == z4.mul_table).all()
    assert not np.shares_memory(fortran.add_table, strided)

    wrapping = z4.add_table.astype(np.int64)
    wrapping[1, 2] += 2**32  # would read as 3 after an unchecked uint16 cast
    with pytest.raises(MalformedTableError, match=r"\(1, 2\) is outside 0..3"):
        FiniteRing(4, wrapping, z4.mul_table, zero=0, one=1)
    wrapping = np.full((1, 1), 2**16 + 2, dtype=np.int64)  # would read as 2
    with pytest.raises(MalformedTableError, match=r"\(0, 0\) is outside 0..3"):
        kernel._as_table("add", wrapping, None, 4)
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


def test_only_the_kernel_defines_a_block_budget():
    # one owner for the cell budgets, read when a pass runs, so that one
    # monkeypatch shrinks every pass: no other module assigns one, or
    # imports one by value
    for path in sorted(pathlib.Path(deltaring.__file__).parent.glob("*.py")):
        if path.name == "kernel.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                name = node.id
            elif isinstance(node, ast.alias):
                name = node.asname or node.name
            else:
                continue
            assert not name.endswith("_CELLS"), f"{path.name}:{node.lineno} binds {name}"


# the tables of a Dorroh extension's V, a NonUnitalRing and not a
# FiniteRing: C29 reads them, and the constructions build, check and
# extend by them
TABLE_READ_EXEMPTIONS = {
    ("harness.py", "_dorroh_conditions"),
    ("constructions.py", "NonUnitalRing"),
    ("constructions.py", "validate_bimodule_action"),
    ("constructions.py", "dorroh"),
}
SCALAR_OPS = ("add", "mul", "neg", "sub", "pow", "inverse", "is_unit")


def test_only_the_kernel_and_the_constructions_read_a_table():
    # every other module, and every builder over a base, reads a ring by
    # FiniteRing.block, kernel.row_block_reads, FiniteRing.neg_rows and
    # FiniteRing.apply, and fills it by FiniteRing.fill, so that only the
    # kernel knows how a ring's tables are stored, when they are filled
    # and what serves them until then
    tables = ("add_table", "mul_table", "neg_table")
    private = ("_pointwise", "_arithmetic")
    exempted = set()
    for path in sorted(pathlib.Path(deltaring.__file__).parent.glob("*.py")):
        if path.name == "kernel.py":
            continue
        tree = ast.parse(path.read_text())
        skipped = set()
        for node in ast.walk(tree):
            where = (path.name, getattr(node, "name", None))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and where in TABLE_READ_EXEMPTIONS:
                exempted.add(where)
                skipped.update(id(inner) for inner in ast.walk(node))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Constant):  # getattr(ring, "add_table")
                name = node.value
            else:
                continue
            read = name in tables and id(node) not in skipped
            assert not read, f"{path.name}:{node.lineno} reads {name}"
            assert name not in private, f"{path.name}:{node.lineno} names {name}"
    assert exempted == TABLE_READ_EXEMPTIONS
    # inside the kernel, the scalar ops read through apply and neg_rows,
    # so that one ring.mul(x, y) fills no table
    kernel_tree = ast.parse(pathlib.Path(kernel.__file__).read_text())
    ring_class = next(
        node for node in kernel_tree.body
        if isinstance(node, ast.ClassDef) and node.name == "FiniteRing"
    )
    methods = {node.name: node for node in ring_class.body if isinstance(node, ast.FunctionDef)}
    for method in SCALAR_OPS:
        nodes = list(ast.walk(methods[method]))
        names = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
        names |= {node.value for node in nodes if isinstance(node, ast.Constant)}
        assert not names & set(tables), f"FiniteRing.{method} reads {names & set(tables)}"


def test_negation_on_a_certified_ring_scans_only_the_row_of_one(monkeypatch):
    # -1 comes from the row of one alone, and every -x is then (-1)*x,
    # however many rows the first call asks for
    specs = ("M(2, Z4)", "T(2, Z8)", "quot(Z2048, 512)")
    wants = [build_ring(spec).fill().neg_table for spec in specs]
    rings = [build_ring(spec) for spec in specs]
    scanned = []
    scan = FiniteRing._negation_scan

    def counted(ring, rows):
        scanned.append(len(rows))
        return scan(ring, rows)

    monkeypatch.setattr(FiniteRing, "_negation_scan", counted)
    for ring, want in zip(rings, wants):
        assert ring.certified and ring.neg_table is None
        assert np.array_equal(ring.neg_rows(np.arange(ring.size)), want), ring.spell()
        assert np.array_equal(ring.neg_rows(), want), ring.spell()
        assert ring.neg_table is None
    assert scanned == [1] * len(rings)


# the checks that state a theorem that analysis or classify answers from
# on a certified ring; none may reach a theorem path of analysis.LAYERS
THEOREM_CHECKS = ("C01", "C04", "C06", "C09", "C11", "C12", "C14", "C16", "C25", "C26")
# T9's theorem path, which C04, C16 and C26 compare with
# delta_sweep_mask, qnil_sweep_mask or nilpotent_sweep_mask: sweeps, so
# they still compare a sweep with a theorem path
T9_COMPARED = ("analysis", "jacobson_mask")
THEOREM_PATHS = set(sources.layer_names()) - {T9_COMPARED}


def _check_roots(tree) -> dict:
    """Each check's body and hypothesis in a tree of the harness source."""
    roots = {}
    for node in tree.body:
        for deco in getattr(node, "decorator_list", ()):
            if isinstance(deco, ast.Call) and getattr(deco.func, "id", None) == "check":
                parts = [node] + [k.value for k in deco.keywords]
                roots[deco.args[0].value] = [("harness", part) for part in parts]
    return roots


def _theorem_paths_read(tree) -> dict:
    """The theorem paths each theorem-stating check reaches, following
    calls through the harness, analysis and classify."""
    roots = _check_roots(tree)
    reads = {c: sources.reached(roots[c], stop={T9_COMPARED}) & THEOREM_PATHS
             for c in THEOREM_CHECKS}
    return {check_id: read for check_id, read in reads.items() if read}


def test_theorem_stating_checks_read_only_the_sweeps():
    # a check that states T1-T8 compares a sweep with a theorem path, so
    # neither its body nor its hypothesis, nor anything either calls,
    # may reach a theorem path
    assert T9_COMPARED in sources.layer_names() and THEOREM_PATHS
    assert not _theorem_paths_read(sources.TREES["harness"])
    roots = _check_roots(sources.TREES["harness"])
    reached = sources.reached([root for c in THEOREM_CHECKS for root in roots[c]])
    assert {("harness", "_swept_dqp"), ("harness", "_swept_clean"),
            ("harness", "_uniquely_clean_premises"), ("classify", "spectral_grid")} <= reached


def test_only_c17_reaches_the_unit_generators():
    # C02 and C03 read the ideal test, which needs R's generators alone
    roots = _check_roots(sources.TREES["harness"])
    reach = {c: ("analysis", "unit_generators") in sources.reached(parts) for c, parts in roots.items()}
    assert roots.keys() == set(deltaring.harness.CHECK_IDS)
    assert [c for c, reads in reach.items() if reads] == ["C17"]
    assert all(("analysis", "closure_holds") in sources.reached(roots[c]) for c in ("C02", "C03"))


def test_no_module_keeps_a_dead_import_or_private_name():
    assert sources.unused_imports() == set()
    assert sources.unreferenced_private() == set()
    # the scanners themselves, on a module with one of each
    dead = {"mod": ast.parse(
        "import os\nfrom . import x as _x\n_LIMIT = 3\n_USED = 4\n"
        "def _helper():\n    pass\n\n@cache\ndef _kept():\n    return _USED\n"
    )}
    assert sources.unused_imports(dead) == {("mod", "os"), ("mod", "_x")}
    assert sources.unreferenced_private(dead) == {("mod", "_LIMIT"), ("mod", "_helper")}


def test_a_check_rewired_to_a_theorem_path_fails_the_guard():
    # C06 reading analysis.delta, which answers by delta_mask's theorem path
    text = pathlib.Path(deltaring.harness.__file__).read_text()
    swept = "~analysis.delta_sweep_mask(ring)\n"
    assert text.count(swept) == 1
    rewired = ast.parse(text.replace(swept, "~analysis.delta(ring).bool_array()\n"))
    assert _theorem_paths_read(rewired) == {"C06": {("analysis", "delta_mask")}}


def test_only_the_dispatcher_reads_the_certified_mark():
    # the builders, kernel and the CLI's verb gate keep their own reads
    for module in ("analysis", "classify"):
        for node in sources.TREES[module].body:
            reads = [sub for sub in ast.walk(node)
                     if isinstance(sub, ast.Attribute) and sub.attr == "certified"]
            assert not reads or getattr(node, "name", None) == "answered", (module, node.lineno)


def test_only_the_kernel_touches_the_ring_cache():
    # kernel._cached is the one writer, and no other module reads an entry
    for module, tree in sources.PACKAGE.items():
        touches = [node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr == "_cache"]
        assert not touches or module == "kernel", (module, touches)


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
    z4.fill()
    with pytest.raises(ValueError):
        z4.mul_table[0, 0] = 1
    with pytest.raises(ValueError):
        z4.add_table[0, 0] = 1


def _mutate_add_entry(ring, x, y, value):
    add = ring.fill().add_table.copy()
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
    picks, tree = kernel._additive_tree(ring.fill().add_table, ring.zero)
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
    pair_faults = kernel._axiom_violations(add, mul, 0)[0]
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


def test_the_walk_ends_where_a_stage_adds_nothing():
    # 1 + 0 = 0 on Z4's table: the zero is not a right identity, so the
    # stage of pick 1 reaches no new element, and the walk breaks down
    # there instead of picking 1 again and again
    add = np.add.outer(np.arange(4), np.arange(4)) % 4
    add[1, 0] = 0
    picks, tree = kernel._additive_tree(add, 0)
    assert tree is None and picks.tolist() == [1]


def _span(add, zero, picks):
    """The elements that sums of the picks reach from zero."""
    reached = {zero}
    frontier = [zero]
    while frontier:
        frontier = [y for x in frontier for y in add[x, picks].tolist() if y not in reached]
        reached.update(frontier)
    return reached


@pytest.mark.parametrize("spec", ["prod(Z2, Z4)", "T(2, Z2)", "M(2, Z2)", "H(1, 1, Z2)"])
def test_the_masked_walk_reaches_a_set_exactly_when_it_is_a_subgroup(spec):
    ring = build_ring(spec).fill()
    add, zero, n = ring.add_table, ring.zero, ring.size
    rng = random.Random(34)
    masks = []
    for _ in range(300):
        mask = np.array([rng.random() < 0.4 for _ in range(n)])
        mask[zero] = True
        masks.append(mask)
        # the subgroup a few of its elements generate, and that less one
        grown = np.zeros(n, dtype=bool)
        grown[list(_span(add, zero, np.flatnonzero(mask)[:3]))] = True
        masks.append(grown)
        shrunk = grown.copy()
        shrunk[np.flatnonzero(grown)[-1]] = len(np.flatnonzero(grown)) == 1
        masks.append(shrunk)
    subgroups = 0
    for mask in masks:
        members = np.flatnonzero(mask)
        closed = bool(mask[add[np.ix_(members, members)]].all())
        picks, tree = kernel._additive_tree(add, zero, mask)
        assert (tree is not None) == closed, (spec, members.tolist())
        assert mask[picks].all()
        if closed:
            subgroups += 1
            assert _span(add, zero, picks) == set(members.tolist())
            assert len(picks) <= math.log2(len(members))
    assert subgroups > 300


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
        ring.fill()
        assert prove(ring.add_table, ring.mul_table, ring.zero) is None, ring.spell()
    rng = random.Random(13)
    rejected = 0
    for entry in corpus:
        ring = entry.ring.fill()
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


def _twisted_translations(m0, m1, pi):
    """The addition y + z = P^a Q^b (z) on Z_m0 x Z_m1, (a, b) numbered
    a + m0 b, for y = (a, b): P adds 1 to a, and Q adds 1 to b below
    m1 - 1 and sends (a, m1 - 1) to (pi(a), 0).  Its zero is 0, every
    row is a permutation, and gates 1 and 3 hold; P and Q commute, and
    so does +, exactly when pi is the identity."""
    n = m0 * m1

    def shift(z, times, step):
        for _ in range(times):
            z = step(z)
        return z

    def p_step(z):
        return (z % m0 + 1) % m0 + m0 * (z // m0)

    def q_step(z):
        return z + m0 if z // m0 < m1 - 1 else pi[z % m0]

    return np.array(
        [[shift(shift(z, y // m0, q_step), y % m0, p_step) for z in range(n)] for y in range(n)]
    )


def _permutation_group(points):
    """The symmetric group on ``points`` points under composition, the
    identity numbered 0."""
    perms = list(itertools.permutations(range(points)))
    number = {p: i for i, p in enumerate(perms)}
    return np.array([[number[tuple(p[i] for i in q)] for q in perms] for p in perms])


@st.composite
def noncommutative_additions(draw):
    """An addition table with a two-sided zero and additive inverses that
    is not commutative, its elements numbered in a shuffled order: the
    twisted translations, a symmetric group, or a product of cyclic
    groups with one off-diagonal entry overwritten."""
    kind = draw(st.sampled_from(["twisted", "symmetric", "perturbed"]))
    if kind == "twisted":
        m0 = draw(st.integers(3, 5))
        pi = [0] + draw(st.permutations(range(1, m0)))
        assume(pi != sorted(pi))
        add = _twisted_translations(m0, draw(st.integers(2, 3)), pi)
    elif kind == "symmetric":
        add = _permutation_group(draw(st.integers(3, 4)))
    else:
        orders = draw(st.lists(st.integers(2, 4), min_size=2, max_size=3))
        coords = np.array(list(itertools.product(*map(range, orders))))
        sums = (coords[:, None, :] + coords[None, :, :]) % np.array(orders)
        add = np.ravel_multi_index(tuple(np.moveaxis(sums, -1, 0)), orders)
        n = len(add)
        x, y, value = (draw(st.integers(1, n - 1)) for _ in range(3))
        assume(x != y and add[x, y] != 0 and value != add[x, y])
        add[x, y] = value
    n = len(add)
    label = np.array(draw(st.permutations(range(n))))
    shuffled = np.empty_like(add)
    shuffled[label[:, None], label[None, :]] = label[add]
    zero = int(label[0])
    arange = np.arange(n)
    assert (shuffled[zero] == arange).all() and (shuffled[:, zero] == arange).all()
    assert (shuffled == zero).any(axis=1).all() and (shuffled != shuffled.T).any()
    return shuffled, zero


@settings(derandomize=True)
@given(noncommutative_additions())
def test_no_noncommutative_addition_passes_the_prover(tables):
    # gates 1-3 and the zero make + commutative, so the prover fails, and
    # the report names the first asymmetric pair, as the scan finds it
    add, zero = tables
    mul = np.full_like(add, zero)
    assert kernel._prove_triple_axioms(add, mul, zero) is not None
    first = tuple(int(c) for c in np.argwhere(add != add.T)[0])
    violations = kernel._axiom_violations(add, mul, zero)[0]
    assert violations[0] == kernel.AxiomViolation("add-commutativity", first)


def test_only_gate_two_sees_the_twisted_translations():
    # the walk numbers every element by its index and gate 3 holds, so
    # only the commuting translations of gate 2 stand between this table
    # and a proof, which would make it commutative
    add = _twisted_translations(3, 2, [0, 2, 1])
    mul = np.zeros_like(add)
    picks, (orders, _, order) = kernel._additive_tree(add, 0)
    assert picks.tolist() == [1, 3] and orders == [3, 2] and order.tolist() == list(range(6))
    violation, not_checked = kernel._prove_triple_axioms(add, mul, 0)
    assert (violation.axiom, violation.witness, list(not_checked)) == (
        "add-associativity",
        (3, 1, 3),
        _ADDITIVE_UNDECIDED,
    )
    violations = kernel._axiom_violations(add, mul, 0)[0]
    assert violations[0] == kernel.AxiomViolation("add-commutativity", (3, 4))


# validate_ring's reports on one asymmetric sum above the scan limit,
# with the zero and the inverses intact, as the commutativity scan gave
# them when it ran before the prover on every table
ASYMMETRIC_SUM_REPORTS = {
    ("Z512", 5, 7, 13): [{"axiom": "add-commutativity", "witness": [5, 7]}],
    ("T(2, Z8)", 300, 9, 310): [{"axiom": "add-commutativity", "witness": [9, 300]}],
}


@pytest.mark.parametrize("case", ASYMMETRIC_SUM_REPORTS)
def test_an_asymmetric_sum_above_the_scan_limit_keeps_its_report(case):
    spec, x, y, value = case
    bad = _mutate_add_entry(build_ring(spec), x, y, value)
    add = bad.add_table
    assert (add == bad.zero).any(axis=1).all() and (add != add.T).sum() == 2
    assert validate_ring(bad).to_dict() == {
        "ring": "ring<512>",
        "size": 512,
        "mode": "sampled",
        "ok": False,
        "violations": ASYMMETRIC_SUM_REPORTS[case],
        "not_checked": list(kernel._TRIPLE_AXIOMS),
        "sampled_triples": 512**2,
        "sample_seed": 24301,
    }


def test_a_passing_ring_pays_no_commutativity_scan(corpus, ladder_rings, monkeypatch):
    scans = []
    scan = kernel._asymmetric_pair

    def counted(add):
        scans.append(len(add))
        return scan(add)

    monkeypatch.setattr(kernel, "_asymmetric_pair", counted)
    rings = [entry.ring for entry in corpus] + list(ladder_rings.values())
    for ring in rings + [build_ring(spec) for spec in POINT_SPECS]:
        assert validate_ring(ring).ok, ring.spell()
    assert scans == []
    # a table the prover rejects pays for one scan
    assert not validate_ring(_mutate_add_entry(zn(512), 5, 7, 13)).ok
    assert scans == [512]


def _with_factor(ring, add, mul):
    """The table of ring x T for a 4- or 8-element table T with zero 0 and
    one 1, its pairs (r, t) numbered r * |T| + t."""
    t = len(add)
    ring.fill()

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
    ring = zn(512).fill()
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
    # one row per block in both budgets, the prover's among them, so a
    # witness in row x comes from block x and needs that block's offset
    monkeypatch.setattr(kernel, "_BLOCK_CELLS", 1)
    monkeypatch.setattr(kernel, "_SWEEP_BLOCK_CELLS", 1)
    assert len(kernel._row_blocks(bad.size, bad.size, kernel._SWEEP_BLOCK_CELLS)) == bad.size
    assert validate_ring(bad).to_dict() == expected


@pytest.mark.parametrize("spec", ["Z1024", "T(4, Z2)", "H(1, 1, Z10)"])
def test_validate_ring_peak_stays_within_the_docstring_figure(spec):
    # filled first, so that the window holds the prover's own peak
    ring = build_ring(spec).fill()
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
