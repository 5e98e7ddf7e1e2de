import pytest
from hypothesis import given
from hypothesis import strategies as st

from deltaring import ConstructionError, harness
from deltaring.ringspec import (
    BuildContext,
    RingSpecError,
    build_ring,
    parse_ring_spec,
)

CANONICAL = [
    "Z2",
    "Z16",
    "table:f4.json",
    "prod(Z2, Z3)",
    "prod(Z2, quot(Z4, 2))",
    "M(2, Z2)",
    "T(3, Z2)",
    "H(1, 1, Z4)",
    "corner(T(2, Z2), 4)",
    "dorroh(Z2, self)",
    "dorroh(Z2, zero)",
    "dorroh(Z4, ideal(2))",
    "quot(Z4, 2)",
]


def test_canonical_spellings_are_fixed_points():
    for text in CANONICAL:
        spec = parse_ring_spec(text)
        assert spec.canonical() == text
        assert parse_ring_spec(spec.canonical()).canonical() == text


def test_whitespace_and_leading_zeros_normalize():
    cases = {
        "  Z4 ": "Z4",
        "Z04": "Z4",
        "prod(Z2,Z3)": "prod(Z2, Z3)",
        "T( 2 ,  Z2 )": "T(2, Z2)",
        "dorroh( Z4 , ideal( 2 ) )": "dorroh(Z4, ideal(2))",
        "quot(Z8,2, 4)": "quot(Z8, 2, 4)",
        "corner(M(2,Z2),8)": "corner(M(2, Z2), 8)",
    }
    for text, expected in cases.items():
        assert parse_ring_spec(text).canonical() == expected


def test_parse_errors_carry_columns():
    cases = {
        "frob(Z4)": (1, "unknown construction"),
        "Z": (2, "modulus"),
        "Z4 junk": (4, "trailing characters"),
        "prod(Z2": (8, "expected ','"),
        "T(2 Z2)": (5, "expected ','"),
        "quot(Z4)": (8, "expected ','"),
        "quot(Z4, )": (10, "expected an integer"),
        "corner(Z4, -1)": (12, "expected an integer"),
        "dorroh(Z2, banana)": (18, "expected self, zero, or ideal"),
        "table:": (7, "needs a file path"),
        "Z" + "9" * 5000: (2, "at most 100 digits"),
        "corner(Z4, " + "1" * 5000 + ")": (12, "at most 100 digits"),
        "M(1, " * 500 + "Z2" + ")" * 500: (501, "nest at most 100 deep"),
        "M(1, " * 1000 + "Z2" + ")" * 1000: (501, "nest at most 100 deep"),
        "Z\u00b2": (1, "unknown construction"),
        "M(\u00b2, Z2)": (3, "expected an integer"),
    }
    for text, (column, fragment) in cases.items():
        with pytest.raises(RingSpecError) as exc_info:
            parse_ring_spec(text)
        assert exc_info.value.column == column, text
        assert fragment in str(exc_info.value), text


def test_empty_spec_is_rejected():
    for text in ("", "   "):
        with pytest.raises(RingSpecError, match="empty ring spec"):
            parse_ring_spec(text)


def test_construction_stage_rejections():
    with pytest.raises(ConstructionError, match="at least 1"):
        build_ring("M(0, Z2)")
    with pytest.raises(ConstructionError, match="not a unital ring"):
        build_ring("Z1")
    with pytest.raises(ConstructionError, match="out of range"):
        build_ring("corner(Z4, 7)")
    with pytest.raises(ConstructionError, match="out of range"):
        build_ring("dorroh(Z3, ideal(5))")
    with pytest.raises(ConstructionError, match="not idempotent"):
        build_ring("corner(Z4, 2)")


def test_build_context_caches_by_canonical_spelling():
    ctx = BuildContext()
    assert build_ring("Z4", ctx) is build_ring("Z4", ctx)
    assert build_ring("Z4", ctx) is build_ring(" Z04 ", ctx)
    product = build_ring("prod(Z4, Z4)", ctx)
    assert product.size == 16
    assert build_ring("Z4") is not build_ring("Z4")  # fresh contexts don't share


def test_table_paths_resolve_against_context_base_dir(tmp_path):
    manifest_dir = harness.default_corpus_path().parent
    ring = build_ring("table:f4.json", BuildContext(base_dir=manifest_dir))
    assert ring.size == 4
    with pytest.raises(Exception):
        build_ring("table:f4.json", BuildContext(base_dir=tmp_path))


def test_built_rings_spell_their_spec(corpus):
    for entry in corpus:
        canonical = parse_ring_spec(entry.spec_text).canonical()
        assert entry.ring.spell() == canonical, entry.spec_text


_spec_texts = st.recursive(
    st.integers(2, 9).map(lambda n: f"Z{n}"),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda p: f"prod({p[0]}, {p[1]})"),
        st.tuples(st.integers(1, 3), inner).map(lambda p: f"T({p[0]}, {p[1]})"),
        st.tuples(st.integers(1, 2), inner).map(lambda p: f"M({p[0]}, {p[1]})"),
        inner.map(lambda s: f"H(1, 1, {s})"),
        st.tuples(inner, st.integers(0, 8)).map(lambda p: f"corner({p[0]}, {p[1]})"),
        inner.map(lambda s: f"dorroh({s}, self)"),
        inner.map(lambda s: f"dorroh({s}, zero)"),
        st.tuples(inner, st.lists(st.integers(0, 8), min_size=1, max_size=2)).map(
            lambda p: f"dorroh({p[0]}, ideal({', '.join(map(str, p[1]))}))"
        ),
        st.tuples(inner, st.lists(st.integers(0, 8), min_size=1, max_size=2)).map(
            lambda p: f"quot({p[0]}, {', '.join(map(str, p[1]))})"
        ),
    ),
    max_leaves=4,
)


@given(text=_spec_texts)
def test_canonicalization_is_idempotent(text):
    once = parse_ring_spec(text).canonical()
    assert parse_ring_spec(once).canonical() == once


@given(text=_spec_texts)
def test_parsing_survives_whitespace_mangling(text):
    mangled = " " + text.replace("(", "( ").replace(",", " ,") + " "
    assert parse_ring_spec(mangled).canonical() == parse_ring_spec(text).canonical()
