"""Tests for the benchmark's own helpers.

    python3 -m pytest ringbench/tests -q
"""

import io
import json
from collections import Counter
from contextlib import redirect_stdout

import pytest

import common
import replay
import run
import workloads
from deltaring import cli


def test_tail_is_the_sample_with_ten_above_it():
    values = list(range(100, 0, -1))  # 100 .. 1, unsorted on purpose
    assert common.tail(values) == (90.0, 90.0)
    assert common.tail(range(20)) == (9.0, 50.0)
    value, pct = common.tail(range(11))
    assert value == 0.0 and pct == pytest.approx(100 / 11)


def test_tail_needs_eleven_samples():
    with pytest.raises(ValueError):
        common.tail(range(10))


def test_diff_output_accepts_only_identical_bytes():
    ref = {"exit": 0, "stdout": '{\n  "a": 1\n}\n'}
    assert common.diff_output("k", ref, 0, ref["stdout"]) is None
    assert "exit 1, expected 0" in common.diff_output("k", ref, 1, ref["stdout"])
    problem = common.diff_output("k", ref, 0, '{\n  "a": 2\n}\n')
    assert "byte 9 (line 2)" in problem
    assert "at byte 13" in common.diff_output("k", ref, 0, ref["stdout"] + "\n")
    assert "no reference" in common.diff_output("k", None, 0, "")


def test_references_cover_every_call_of_every_seed(tmp_path):
    for workload in workloads.WORKLOADS:
        refs = common.load_refs(workload)
        keys = {c.key for c in workloads.all_calls(workload, tmp_path)}
        assert keys == set(refs), workload
        for seed in range(5):
            assert {c.key for c in workloads.job_calls(workload, seed, tmp_path)} <= keys


def test_seeds_change_elements_but_not_the_mix_or_order(tmp_path):
    def mix(seed):
        return Counter(c.argv[:2] for c in workloads.job_calls("point_queries", seed, tmp_path))

    first = workloads.job_calls("point_queries", 1, tmp_path)
    assert first == workloads.job_calls("point_queries", 1, tmp_path)
    assert first != workloads.job_calls("point_queries", 2, tmp_path)
    assert mix(1) == mix(2) and sum(mix(1).values()) == 28
    assert [c.argv[:2] for c in first] == [
        c.argv[:2] for c in workloads.job_calls("point_queries", 2, tmp_path)
    ]
    ladder = workloads.job_calls("ring_ladder", 1, tmp_path)
    assert ladder == workloads.job_calls("ring_ladder", 2, tmp_path)


def _cli(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("workload, spec", [
    ("ring_ladder", "T(2, Z8)"),
    ("point_queries", "T(3, Z2)"),
])
def test_staged_replay_answers_like_the_cli(workload, spec):
    workdir = common.WORK_DIR / "manifests"
    workloads.write_manifests(workdir)
    calls = [c for c in workloads.all_calls(workload, workdir) if spec in c.key][:6]
    refs = common.load_refs(workload)
    tracer = replay.Tracer()
    tracer.job = 1
    for call in calls:
        with tracer.span("job"):
            got = replay.replay(call.argv, tracer)
        assert got == _cli(call.argv), call.key
        assert common.diff_output(call.key, refs[call.key], *got) is None
    names = {row[0] for row in tracer.spans}
    assert names <= set(run.LAYER_SPANS) | set(replay.FRAME_SPANS)
    jobs = [row for row in tracer.spans if row[0] == "job"]
    total = sum(replay.self_times(tracer.spans, 1).values())
    assert total == pytest.approx(sum(end - start for _, start, end, _, _ in jobs))


def test_self_times_subtract_children():
    spans = [
        ["job", 0.0, 10.0, None, 1],
        ["cli", 1.0, 9.0, 0, 1],
        ["a", 2.0, 5.0, 1, 1],
        ["a", 6.0, 7.0, 1, 1],
        ["job", 0.0, 3.0, None, 2],
    ]
    assert replay.self_times(spans, 1) == {"job": 2.0, "cli": 4.0, "a": 4.0}


def test_benchmark_json_declares_the_metrics_the_run_prints():
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
