"""Record the reference outputs the benchmark compares every call with.

    python3 ringbench/record.py [WORKLOAD ...]

For each workload, runs every call any seed's job can make (for
point_queries, `spectral` on every element of every ring, in both
flavors) through ``deltaring.cli.main`` and stores the exit code and
byte-exact stdout in refs/<workload>.json.gz.  Before writing, the
point_queries answers (delta, J and spectral sets) are cross-checked
against the independent scalar loops in tests/oracles.py; a
disagreement aborts the recording.

Record only from a commit whose outputs are known good: a later commit
is judged against these files.
"""

from __future__ import annotations

import json
import sys
import time

import common
import workloads
from run import cli_job


def _oracle_pieces(ring, oracles) -> dict:
    """Per-ring sets computed once by the scalar oracles."""
    units = oracles.units_of(ring)
    return {
        "units": units,
        "delta": oracles.delta_of(ring),
        "jacobson": oracles.jacobson_of(ring),
        "qnil": oracles.qnil_of(ring),
        "idempotents": oracles.idempotents_of(ring),
    }


def _oracle_spectral(ring, oracles, pieces: dict, a: int, flavor: str) -> set:
    """oracles.spectral_of with the per-ring sets computed once: idempotents
    p commuting with every element of comm(a), with a + p in the target
    (and a*p quasinilpotent for the quasipolar flavor)."""
    commutant = oracles.comm_of(ring, a)
    target = pieces["delta"] if flavor == "delta" else pieces["units"]
    out = set()
    for p in pieces["idempotents"]:
        if ring.add(a, p) not in target:
            continue
        if flavor == "quasipolar" and ring.mul(a, p) not in pieces["qnil"]:
            continue
        if all(ring.mul(p, y) == ring.mul(y, p) for y in commutant):
            out.add(p)
    return out


def cross_check(calls, outputs) -> int:
    """Compare point_queries answers with tests/oracles.py; returns the
    number of answers checked and raises on the first disagreement."""
    sys.path.insert(0, str(common.ROOT / "tests"))
    import oracles
    from deltaring import build_ring

    pieces: dict[str, dict] = {}
    rings: dict[str, object] = {}
    checked = 0
    for call, (code, stdout) in zip(calls, outputs, strict=True):
        verb, spec = call.argv[0], call.argv[1]
        if verb not in ("delta", "spectral"):
            continue
        if spec not in pieces:
            rings[spec] = build_ring(spec)
            pieces[spec] = _oracle_pieces(rings[spec], oracles)
        ring, got = rings[spec], json.loads(stdout)
        if verb == "delta":
            expected = {"delta": pieces[spec]["delta"], "jacobson": pieces[spec]["jacobson"]}
            answers = {key: set(got[key]["indices"]) for key in expected}
        else:
            element, flavor = int(call.argv[3]), call.argv[5]
            expected = {"spectral": _oracle_spectral(ring, oracles, pieces[spec], element, flavor)}
            answers = {"spectral": set(got["spectral_idempotents"]["indices"])}
        if answers != expected:
            raise SystemExit(f"{call.key}: CLI {answers} but oracles {expected}")
        checked += 1
    return checked


def record(workload: str) -> None:
    from deltaring import cli

    workdir = common.WORK_DIR / "manifests"
    workloads.write_manifests(workdir)
    calls = workloads.all_calls(workload, workdir)
    started = time.perf_counter()
    outputs = cli_job(cli, calls)
    for call, (code, stdout) in zip(calls, outputs, strict=True):
        if code != 0:
            raise SystemExit(f"{call.key}: exit {code}: {stdout.strip()[-300:]}")
    note = ""
    if workload == "point_queries":
        note = f", {cross_check(calls, outputs)} answers agree with tests/oracles.py"
    refs = {c.key: {"exit": code, "stdout": out} for c, (code, out) in zip(calls, outputs)}
    path = common.save_refs(workload, refs, common.git_sha())
    print(f"{workload}: {len(calls)} calls in {time.perf_counter() - started:.0f} s{note}"
          f" -> {path.relative_to(common.ROOT)}")


def main(argv) -> int:
    common.use_source_tree()
    for workload in argv or workloads.WORKLOADS:
        record(workload)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
