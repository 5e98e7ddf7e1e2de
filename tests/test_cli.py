import contextlib
import importlib.util
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import deltaring
from deltaring import cli, constructions, harness, kernel

from test_ringspec import _spec_texts


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


# -- classify ----------------------------------------------------------------------


def test_classify_json(capsys):
    code, data = run_json(capsys, "classify", "T(2, Z2)")
    assert code == 0
    assert data["ring"] == "T(2, Z2)"
    assert data["delta_quasipolar"] is True
    assert data["abelian"] is False
    assert data["uniquely_clean"] is False
    assert data["sizes"]["units"] == 2


def test_classify_markdown(capsys):
    code, out, err = run_cli(capsys, "classify", "Z4", "--format", "md")
    assert code == 0 and err == ""
    assert out.startswith("# Classification: Z4")
    assert "delta_quasipolar" in out


def test_classify_markdown_lists_the_witnesses_of_false_predicates(capsys):
    code, data = run_json(capsys, "classify", "T(2, Z2)")
    assert code == 0 and data["abelian"] is False
    code, out, err = run_cli(capsys, "classify", "T(2, Z2)", "--format", "md")
    assert code == 0 and err == ""
    section = out.split("## Witnesses for false predicates\n", 1)[1]
    assert section.splitlines() == [
        f"- {pred}: elements [{', '.join(w['names'])}] ({w['reason']})"
        for pred, w in data["witnesses"].items()
    ]
    assert "- abelian: elements [[[0,0],[0,1]]] (idempotent is not central)" in section


def test_classify_strict_commuting_flag(capsys):
    code, loose = run_json(capsys, "classify", "T(2, Z4)")
    assert code == 0
    code, strict = run_json(capsys, "classify", "T(2, Z4)", "--strict-commuting")
    assert code == 0
    assert set(loose) == set(strict)


# -- delta and spectral ------------------------------------------------------------


def test_delta_json(capsys):
    code, data = run_json(capsys, "delta", "Z4")
    assert code == 0
    assert data["delta"]["indices"] == [0, 2]
    assert data["jacobson"]["indices"] == [0, 2]
    assert data["delta_equals_jacobson"] is True
    assert data["delta"]["names"] == ["0", "2"]


def test_delta_markdown(capsys):
    code, out, _ = run_cli(capsys, "delta", "T(2, Z2)", "--format", "md")
    assert code == 0
    assert "delta equals radical: True" in out


def test_spectral_json(capsys):
    code, data = run_json(capsys, "spectral", "T(2, Z2)", "--element", "6")
    assert code == 0
    assert data["flavor"] == "delta"
    assert data["spectral_idempotents"]["indices"] == [6]
    assert data["element_quasipolar"] is True
    assert data["name"] == "[[1,1],[0,0]]"


def test_spectral_markdown(capsys):
    code, out, err = run_cli(capsys, "spectral", "T(2, Z2)", "--element", "6", "--format", "md")
    assert code == 0 and err == ""
    assert out == (
        "# Spectral idempotents: T(2, Z2)\n\n"
        "- element: 6 ([[1,1],[0,0]])\n"
        "- flavor: delta\n"
        "- spectral idempotents (1): {[[1,1],[0,0]]}\n"
        "- element quasipolar for this flavor: True\n"
    )


def test_spectral_flavors(capsys):
    for flavor in ("delta", "jacobson", "unit", "quasipolar"):
        code, data = run_json(capsys, "spectral", "Z4", "--element", "2", "--flavor", flavor)
        assert code == 0
        assert data["flavor"] == flavor
        assert data["element_quasipolar"] is True


def test_spectral_rejects_out_of_range_element(capsys):
    code, out, err = run_cli(capsys, "spectral", "Z4", "--element", "9")
    assert code == 2
    assert out == ""
    assert err.startswith("error: usage:")
    assert err.count("\n") == 1


# -- verify and corpus -------------------------------------------------------------


def test_verify_default_corpus(capsys):
    code, data = run_json(capsys, "verify")
    assert code == 0
    assert data["summary"] == {"pass": 503, "fail": 0, "na": 313, "vacuous": 16}
    assert len(data["corpus"]) == 26
    assert all("millis" not in row for row in data["results"])


def test_verify_check_filter_and_timing(capsys):
    code, data = run_json(capsys, "verify", "--check", "C07,C22", "--timing")
    assert code == 0
    assert {row["check"] for row in data["results"]} == {"C07", "C22"}
    assert all("millis" in row for row in data["results"])
    assert "total_millis" in data["summary"]


def test_verify_markdown(capsys):
    code, out, _ = run_cli(capsys, "verify", "--format", "md", "--check", "C01")
    assert code == 0
    assert out.startswith("# Verification suite")


def test_verify_markdown_with_timing_lists_failures_and_the_total(capsys, tmp_path):
    table = {"size": 2, "add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 0]], "zero": 0, "one": 1}
    table_path = tmp_path / "broken.json"
    table_path.write_text(json.dumps(table))
    manifest = tmp_path / "rings.txt"
    manifest.write_text(f"Z4\ntable:{table_path}\n")
    code, data = run_json(capsys, "verify", "--manifest", str(manifest), "--check", "C01")
    assert code == 1
    [failed] = [row for row in data["results"] if row["verdict"] == "FAIL"]
    code, out, err = run_cli(
        capsys, "verify", "--manifest", str(manifest), "--check", "C01", "--format", "md", "--timing"
    )
    assert code == 1 and err == ""
    assert re.search(r"^Total check time: \d+\.\d ms\.$", out, re.MULTILINE)
    failures = out.split("## Failures\n", 1)[1].split("\n\n", 1)[0]
    assert failures.splitlines() == [
        f"- C00 on {failed['ring']}: witness: {failed['witness']} note: {failed['note']}"
    ]


def test_verify_rejects_unknown_check(capsys):
    code, out, err = run_cli(capsys, "verify", "--check", "C99")
    assert code == 2
    assert err.startswith("error: usage: unknown check id")


def test_verify_rejects_repeated_check(capsys):
    code, out, err = run_cli(capsys, "verify", "--check", "C01,C07,C01")
    assert code == 2 and out == ""
    assert err == "error: usage: check id 'C01' given more than once\n"


def test_verify_rejects_a_check_filter_without_ids(capsys):
    code, out, err = run_cli(capsys, "verify", "--check", ",")
    assert code == 2 and out == ""
    assert err == "error: usage: --check given but no check ids found\n"


@pytest.mark.parametrize("jobs", ["0", "-4"])
def test_verify_rejects_jobs_below_one(capsys, jobs):
    code, out, err = run_cli(capsys, "verify", "--jobs", jobs)
    assert code == 2 and out == ""
    assert err == f"error: usage: --jobs must be at least 1, got {jobs}\n"


def test_verify_custom_manifest_failure_exit(capsys, tmp_path):
    table = {
        "size": 2,
        "add": [[0, 1], [1, 0]],
        "mul": [[0, 0], [0, 0]],  # no identity: axiom failure
        "zero": 0,
        "one": 1,
    }
    table_path = tmp_path / "broken.json"
    table_path.write_text(json.dumps(table))
    manifest = tmp_path / "rings.txt"
    manifest.write_text(f"Z4\ntable:{table_path}\n")
    code, out, err = run_cli(capsys, "verify", "--manifest", str(manifest))
    assert code == 1
    data = json.loads(out)
    assert data["summary"]["fail"] == 1
    gates = [r for r in data["results"] if r["check"] == "C00"]
    assert any(r["verdict"] == "FAIL" for r in gates)


def test_corpus_listing(capsys):
    code, data = run_json(capsys, "corpus")
    assert code == 0
    assert data["manifest"] == "default"
    assert len(data["rings"]) == 26
    assert data["rings"][0] == {"spec": "Z2", "spell": "Z2", "size": 2}
    specs = [row["spec"] for row in data["rings"]]
    assert "M(2, Z4)" in specs and "dorroh(Z4, ideal(2))" in specs


def test_corpus_markdown(capsys):
    code, out, _ = run_cli(capsys, "corpus", "--format", "md")
    assert code == 0
    assert "| spec |" in out


# -- validate ----------------------------------------------------------------------


def test_validate_sound_ring(capsys):
    code, data = run_json(capsys, "validate", "M(2, Z2)")
    assert code == 0
    assert data["ok"] is True and data["mode"] == "exhaustive"


def test_validate_broken_table_exits_one(capsys, tmp_path):
    table = {
        "size": 4,
        "add": [[(x + y) % 4 for y in range(4)] for x in range(4)],
        "mul": [[(x * y) % 4 for y in range(4)] for x in range(4)],
        "zero": 0,
        "one": 1,
    }
    table["mul"][2][3] = 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(table))
    code, out, err = run_cli(capsys, "validate", f"table:{path}")
    assert code == 1
    data = json.loads(out)
    assert data["ok"] is False
    axioms = {v["axiom"] for v in data["violations"]}
    assert "mul-associativity" in axioms


def test_validate_broken_table_above_the_scan_limit_lists_what_is_not_checked(capsys, tmp_path):
    n = 260
    table = {
        "size": n,
        "add": [[(x + y) % n for y in range(n)] for x in range(n)],
        "mul": [[(x * y) % n for y in range(n)] for x in range(n)],
        "zero": 0,
        "one": 1,
    }
    table["mul"][3][5] = 16
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(table))
    code, data = run_json(capsys, "validate", f"table:{path}")
    assert code == 1
    assert data["violations"] == [{"axiom": "left-distributivity", "witness": [3, 4, 1]}]
    assert data["not_checked"] == ["mul-associativity", "right-distributivity"]
    code, out, err = run_cli(capsys, "validate", f"table:{path}", "--format", "md")
    assert code == 1 and err == ""
    assert "- left-distributivity at [3, 4, 1]" in out
    assert "## Not checked\n- mul-associativity\n- right-distributivity\n" in out


def test_validate_markdown(capsys):
    code, out, _ = run_cli(capsys, "validate", "Z6", "--format", "md")
    assert code == 0
    assert "ok: True" in out


# -- the gate of the verbs that answer about rings ---------------------------------


def _corrupted_f4(tmp_path):
    """A copy of the packaged f4.json with mul[1][2] changed: 1 stops
    being the identity."""
    data = json.loads((harness.default_corpus_path().parent / "f4.json").read_text())
    data["mul"][1][2] = 3
    (tmp_path / "bad.json").write_text(json.dumps(data))


@pytest.mark.parametrize("spec", ["table:bad.json", "prod(table:bad.json, Z2)"])
@pytest.mark.parametrize("verb", [["classify"], ["delta"], ["spectral", "--element", "1"]])
def test_verbs_that_answer_about_rings_refuse_a_table_that_is_not_one(
    capsys, tmp_path, monkeypatch, verb, spec
):
    _corrupted_f4(tmp_path)
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, verb[0], spec, *verb[1:])
    assert code == 1 and out == ""
    # the first violation, as validate lists it
    assert re.fullmatch(rf"error: axioms: {re.escape(spec)} fails one-identity at \([^\n]*\)\n", err)


def test_validate_and_verify_still_report_a_table_that_is_not_a_ring(capsys, tmp_path, monkeypatch):
    _corrupted_f4(tmp_path)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.txt").write_text("table:bad.json\n")
    code, data = run_json(capsys, "validate", "table:bad.json")
    assert code == 1 and data["violations"][0]["axiom"] == "one-identity"
    code, data = run_json(capsys, "verify", "--manifest", "bad.txt")
    assert code == 1 and data["summary"]["fail"] == 1


def test_the_gate_scans_a_ring_without_the_mark_once(capsys, tmp_path, monkeypatch):
    # the corrupted leaf is scanned when it is built, and its product once
    # more, by the gate; a certified ring is never scanned
    _corrupted_f4(tmp_path)
    monkeypatch.chdir(tmp_path)
    scanned = []
    real = kernel.validate_ring
    monkeypatch.setattr(
        kernel, "validate_ring", lambda ring: scanned.append(ring.spell()) or real(ring)
    )
    assert run_cli(capsys, "classify", "prod(table:bad.json, Z2)")[0] == 1
    assert scanned == ["table:bad.json", "prod(table:bad.json, Z2)"]
    scanned.clear()
    assert run_cli(capsys, "classify", "prod(Z2, Z3)")[0] == 0
    assert scanned == []


# -- describe and version ----------------------------------------------------------


def test_describe(capsys):
    code, data = run_json(capsys, "--describe", "T(2, Z2)")
    assert code == 0
    assert data["size"] == 8 and data["zero"] == 0 and data["one"] == 5
    assert data["elements"][6] == {"index": 6, "name": "[[1,1],[0,0]]"}


def test_describe_cannot_combine_with_verb(capsys):
    code, out, err = run_cli(capsys, "--describe", "Z4", "classify", "Z4")
    assert code == 2
    assert "cannot be combined" in err


def test_version(capsys):
    code, out, err = run_cli(capsys, "--version")
    assert code == 0
    assert out.strip().startswith("deltaring ")


def test_the_parser_built_once_still_reports_usage_errors_and_the_version(capsys):
    assert cli._build_parser() is cli._build_parser()
    assert run_cli(capsys, "classify", "Z4")[0] == 0
    code, out, err = run_cli(capsys, "classify")
    assert code == 2 and err.startswith("error: usage:")
    code, out, err = run_cli(capsys, "--version")
    assert code == 0 and out.startswith("deltaring ")
    assert run_cli(capsys, "delta", "Z4")[0] == 0


# -- error mapping ------------------------------------------------------------------


def test_error_exit_codes(capsys):
    cases = {
        ("classify", "frob(Z4)"): (2, "error: spec:"),
        ("classify", "Z"): (2, "error: spec:"),
        ("classify", "M(2, Z16)"): (3, "error: capacity:"),
        ("classify", "table:/nope/missing.json"): (2, "error: table:"),
        ("classify", "corner(Z4, 2)"): (2, "error: construction:"),
        ("classify", "Z1"): (2, "error: construction:"),
    }
    for argv, (want_code, prefix) in cases.items():
        code, out, err = run_cli(capsys, *argv)
        assert code == want_code, argv
        assert out == ""
        assert err.startswith(prefix)
        assert err.count("\n") == 1  # single-line errors


def test_dorroh_checks_capacity_before_validating_the_action(capsys, monkeypatch):
    def no_validation(*args):
        raise AssertionError("the action was validated before the capacity check")

    monkeypatch.setattr(constructions, "validate_bimodule_action", no_validation)
    code, out, err = run_cli(capsys, "classify", "dorroh(Z1024, self)")
    assert code == 3
    assert out == ""
    assert err.startswith("error: capacity: dorroh(Z1024, self) would have 1048576 elements")


def test_running_out_of_memory_is_a_capacity_error(capsys, monkeypatch):
    def no_memory(n):
        raise MemoryError(f"Unable to allocate the tables of Z{n}")

    monkeypatch.setattr(constructions, "zn", no_memory)
    code, out, err = run_cli(capsys, "classify", "M(2, Z16)")
    assert code == 3
    assert out == ""
    assert err == "error: capacity: Unable to allocate the tables of Z16\n"


def test_oversized_grids_are_capacity_errors_before_any_allocation(capsys):
    # M(100000, Z2) would have 10^10 matrix positions to lay out
    cases = {"M(120, Z2)": "2^14400", "T(170, Z2)": "2^14535", "M(100000, Z2)": "2^10000000000"}
    for spec, size in cases.items():
        code, out, err = run_cli(capsys, "classify", spec)
        assert code == 3 and out == ""
        assert err == f"error: capacity: {spec} would have {size} elements, exceeding the cap 4096\n"


_DIGITS = st.integers(1, 5000).map(lambda digits: "7" * digits)  # int() stops at 4300
_NEST = st.sampled_from(
    [("M(1, ", ")"), ("T(1, ", ")"), ("corner(", ", 1)"), ("quot(", ", 0)"), ("dorroh(", ", zero)")]
)
_hostile_specs = st.one_of(
    _spec_texts,
    st.tuples(_spec_texts, st.integers(0, 40)).map(lambda p: p[0][: p[1]]),
    st.tuples(
        st.sampled_from(["Z{}", "corner(Z4, {})", "H(1, {}, Z3)", "dorroh(Z4, ideal({}))"]),
        _DIGITS,
    ).map(lambda p: p[0].format(p[1])),
    # grid dimensions stay small or past int()'s limit: should the capacity
    # check ever fall behind the position list again, a dimension in
    # between would exhaust memory rather than fail this test
    st.tuples(
        st.sampled_from(["M({}, Z2)", "T({}, Z2)"]),
        st.one_of(st.integers(0, 300).map(str), st.integers(4301, 5000).map(lambda d: "7" * d)),
    ).map(lambda p: p[0].format(p[1])),
    st.tuples(_NEST, st.integers(1, 400)).map(lambda p: p[0][0] * p[1] + "Z2" + p[0][1] * p[1]),
    st.from_regex(r"\A[A-Za-z_]\w{0,7}\(Z2\)\Z"),
    st.text(max_size=20),
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(spec=_hostile_specs)
@example(spec="Z" + "9" * 5000)
@example(spec="M(1, " * 1000 + "Z2" + ")" * 1000)
def test_hostile_specs_exit_cleanly_with_one_error_line(spec):
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("DELTARING_CAPACITY", "64")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["--describe", spec])
    assert code in (0, 2, 3), spec[:80]
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert out.getvalue() == ""
        assert re.fullmatch(r"error: [a-z]+: [^\n]*\n", err.getvalue()), err.getvalue()[:200]


_BOOL_INDICES = b'{"size": 2, "add": [[0,1],[1,0]], "mul": [[0,0],[0,1]], "zero": false, "one": true}'


@pytest.mark.parametrize("content, names_file", [
    pytest.param(b'{"size": 2\xff}', True, id="byte 0xff"),
    pytest.param(b"[" * 100_000, True, id="100000 nested ["),
    pytest.param(_BOOL_INDICES, False, id="boolean zero and one"),
])
def test_hostile_files_exit_cleanly_with_one_error_line(content, names_file, tmp_path, monkeypatch, capsys):
    """Each file is read as a table by the single-ring verbs and as a
    manifest by verify, and named as a table in a manifest of its own."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "hostile.json").write_bytes(content)
    (tmp_path / "wrapper.txt").write_text("table:hostile.json\n")
    spec = "table:hostile.json"
    runs = [["validate", spec], ["classify", spec], ["delta", spec], ["--describe", spec]]
    runs += [[verb, "--manifest", manifest] for verb in ("verify", "corpus")
             for manifest in ("hostile.json", "wrapper.txt")]
    for argv in runs:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert re.fullmatch(r"error: [a-z]+: [^\n]*\n", err), (argv, err[:200])
        if names_file:
            assert "hostile.json" in err, (argv, err[:200])


def test_missing_verb_is_usage_error(capsys):
    code, out, err = run_cli(capsys)
    assert code == 2
    assert err.startswith("error: usage:")


# -- the JSON writer ---------------------------------------------------------------

_awkward_text = st.text(
    st.sampled_from('"\\\n\r\t\x00\x1f\x7f%s é€😀\u2028\ud800\udfff')
    | st.characters(exclude_categories=()),
    max_size=6,
)
_json_scalars = (
    st.none() | st.booleans() | st.integers() | st.floats() | _awkward_text
)
_json_keys = _awkward_text | st.integers() | st.floats() | st.booleans() | st.none()
_json_values = st.recursive(
    _json_scalars,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(_json_keys, inner, max_size=4)
    ),
    max_leaves=20,
)
_rows = st.lists(
    st.fixed_dictionaries({"index": st.integers(), "name": _awkward_text})
    | st.fixed_dictionaries({"name": _awkward_text, "index": st.integers()}),
    max_size=6,
)
_mixed_rows = st.lists(
    st.dictionaries(_awkward_text, _json_scalars, max_size=3)
    | st.dictionaries(_awkward_text, _json_values, max_size=3),
    max_size=6,
)


@given(value=_json_values | _rows | _mixed_rows)
@example(value=[])
@example(value={})
@example(value=[[], {}])
@example(value={"a": [], "b": {}})
@example(value=[[[]], {"b": [{}], "c": {"d": {}}}])
@example(value=[{"index": 0, "name": "0"}, {"name": "1", "index": 1}, {"index": 2, "name": "2"}])
@example(value=[{"a": 1}, {"a": [1]}, {"a": {}}, {}, 3, {"a": "x"}])
@example(value=[{1: "a"}, {True: "b"}, {1.0: "c"}, {None: 0}])
@example(value=[{"%s": "%d", "a%": 1}, {"%s": "%%", "a%": 2}])
@example(value={"nan": float("nan"), "inf": [float("inf"), float("-inf")], "t": (1, (2,))})
def test_the_writer_emits_exactly_what_json_dumps_with_indent_emits(value):
    assert cli._dumps(value) == json.dumps(value, indent=2)


def test_the_writer_emits_the_same_text_without_the_c_encoder(monkeypatch):
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    cli._encoder.cache_clear()
    try:
        for value in (
            [{"index": 0, "name": "a"}, {"index": 1, "name": "\u00e9"}],
            {"a": [1, 2.5, None], "b": {"c": True}, "d": [], "e": [[{}]]},
            "x\n",
        ):
            assert cli._dumps(value) == json.dumps(value, indent=2)
    finally:
        cli._encoder.cache_clear()


def _ringbench_module(name, monkeypatch):
    """A module of the benchmark, loaded from its source file without
    writing bytecode next to it."""
    path = Path(__file__).resolve().parent.parent / "ringbench" / f"{name}.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"_ringbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_call_prints_its_reference_bytes(tmp_path, monkeypatch):
    common = _ringbench_module("common", monkeypatch)
    workloads = _ringbench_module("workloads", monkeypatch)
    workloads.write_manifests(tmp_path)
    for workload in workloads.WORKLOADS:
        refs = common.load_refs(workload)
        calls = {
            call.key: call
            for seed in (1, 2, 3)
            for call in workloads.job_calls(workload, seed, tmp_path)
        }
        for key, call in calls.items():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(list(call.argv))
            assert common.diff_output(key, refs.get(key), code, out.getvalue()) is None


# -- element names are built when first read ---------------------------------------


def _name_list_reads(monkeypatch) -> list[str]:
    """The spelling of each ring whose whole name list is read from now on."""
    reads = []
    names = kernel.FiniteRing.element_names
    spy = property(lambda ring: reads.append(ring.spell()) or names.fget(ring))
    monkeypatch.setattr(kernel.FiniteRing, "element_names", spy)
    return reads


@pytest.mark.parametrize(
    "spec", ["T(2, Z8)", "H(1, 1, Z8)", "Z1024", "prod(M(2, Z2), T(2, Z4))"]
)
def test_answers_about_a_few_elements_build_no_name_list(spec, capsys, monkeypatch):
    reads = _name_list_reads(monkeypatch)
    named = {}
    for element, flavor in ((5, "delta"), (6, "quasipolar")):
        code, data = run_json(capsys, "spectral", spec, "--element", str(element), "--flavor", flavor)
        assert code == 0
        named[element] = data["name"]
        found = data["spectral_idempotents"]
        named.update(zip(found["indices"], found["names"]))
    assert run_json(capsys, "validate", spec)[0] == 0
    assert reads == []
    # the names read one by one are the names of the whole list
    elements = run_json(capsys, "--describe", spec)[1]["elements"]
    assert named == {x: elements[x]["name"] for x in named}


@pytest.mark.parametrize("spec", ["T(2, Z8)", "H(1, 1, Z8)", "prod(T(2, Z2), Z4)"])
def test_corners_that_pass_build_no_name_list(spec, capsys, monkeypatch, tmp_path):
    reads = _name_list_reads(monkeypatch)
    manifest = tmp_path / "ring.txt"
    manifest.write_text(spec + "\n")
    code, data = run_json(capsys, "verify", "--manifest", str(manifest), "--check", "C28")
    assert code == 0
    [result] = data["results"]
    assert result["verdict"] == "PASS" and result["note"].endswith("corners checked")
    assert reads == []


# -- end-to-end through the console entry point ------------------------------------


def _run_module(*argv):
    return subprocess.run(
        [sys.executable, "-m", "deltaring", *argv],
        capture_output=True,
        timeout=300,
    )


def test_module_invocation_byte_identical_verify():
    first = _run_module("verify")
    second = _run_module("verify")
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert first.stderr == b"" and second.stderr == b""
    pooled = _run_module("verify", "--jobs", "2")
    assert pooled.stdout == first.stdout


def test_importing_the_cli_starts_no_thread_pool_machinery():
    code = (
        "import sys, deltaring.cli; "
        "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == b"[]\n"


def test_module_invocation_capacity_exit():
    result = _run_module("classify", "M(2, Z16)")
    assert result.returncode == 3
    assert result.stdout == b""
    assert result.stderr.decode().startswith("error: capacity:")


def test_module_invocation_version():
    result = _run_module("--version")
    assert result.returncode == 0 and result.stderr == b""
    assert result.stdout.decode() == f"deltaring {deltaring.__version__}\n"
