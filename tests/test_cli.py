import contextlib
import io
import json
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deltaring import cli, constructions, harness

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


def test_verify_rejects_unknown_check(capsys):
    code, out, err = run_cli(capsys, "verify", "--check", "C99")
    assert code == 2
    assert err.startswith("error: usage: unknown check id")


def test_verify_rejects_repeated_check(capsys):
    code, out, err = run_cli(capsys, "verify", "--check", "C01,C07,C01")
    assert code == 2 and out == ""
    assert err == "error: usage: check id 'C01' given more than once\n"


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


def test_missing_verb_is_usage_error(capsys):
    code, out, err = run_cli(capsys)
    assert code == 2
    assert err.startswith("error: usage:")


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
    jobs1 = _run_module("verify", "--jobs", "1")
    assert jobs1.stdout == first.stdout


def test_module_invocation_capacity_exit():
    result = _run_module("classify", "M(2, Z16)")
    assert result.returncode == 3
    assert result.stdout == b""
    assert result.stderr.decode().startswith("error: capacity:")
