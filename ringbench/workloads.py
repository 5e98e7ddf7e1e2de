"""The three workloads, as the CLI calls one job makes.

Every job of a run makes the same calls, so a run bounded by time never
samples a different mix.  The seed only draws the element indices of
point_queries, so every seed costs about the same.  Ring order is fixed:
calls in one process share allocator state, so order moves the peak RSS
(179 against 194 MB for two orders of the ladder).  README.md says why
each workload was chosen.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("corpus_verify", "ring_ladder", "point_queries")

# Above the 256-element exhaustive axiom-scan limit: the per-element
# spectral loop, the sampled scan, C28's corner rebuilds and table
# construction dominate here, not C00's n^3 scan.
LADDER_RINGS = (
    "Z512",
    "T(2, Z8)",
    "H(1, 1, Z8)",
    "prod(M(2, Z2), T(2, Z4))",
    "quot(Z2048, 512)",
)

# Ring spec -> element count, for drawing element indices.
POINT_RINGS = {
    "T(3, Z2)": 64,
    "M(2, Z3)": 81,
    "T(2, Z8)": 512,
    "H(1, 1, Z8)": 512,
    "Z1024": 1024,
    "prod(M(2, Z2), T(2, Z4))": 1024,
}
POINT_VALIDATE_MAX = 512  # `validate` only on rings of at most this size
SPECTRAL_FLAVORS = ("delta", "quasipolar")


@dataclass(frozen=True)
class Call:
    """One CLI invocation.  ``key`` names its reference output and does not
    depend on where the benchmark's files live."""

    key: str
    argv: tuple[str, ...]


def _call(*argv: str) -> Call:
    return Call(" ".join(argv), tuple(argv))


def manifest_path(workdir: Path, spec: str) -> Path:
    return workdir / f"ladder-{LADDER_RINGS.index(spec)}.txt"


def write_manifests(workdir: Path) -> None:
    """One-ring manifests for the ladder's `verify` calls (set-up work)."""
    workdir.mkdir(parents=True, exist_ok=True)
    for spec in LADDER_RINGS:
        manifest_path(workdir, spec).write_text(spec + "\n")


def _verify_one(workdir: Path, spec: str) -> Call:
    return Call(
        f"verify --manifest <{spec}>",
        ("verify", "--manifest", str(manifest_path(workdir, spec))),
    )


def _spectral(spec: str, element: int, flavor: str) -> Call:
    return _call("spectral", spec, "--element", str(element), "--flavor", flavor)


def _point_calls(spec: str, elements: dict) -> list[Call]:
    calls = [_call("delta", spec)]
    calls += [_spectral(spec, elements[flavor], flavor) for flavor in SPECTRAL_FLAVORS]
    calls.append(_call("--describe", spec))
    if POINT_RINGS[spec] <= POINT_VALIDATE_MAX:
        calls.append(_call("validate", spec))
    return calls


def job_calls(workload: str, seed: int, workdir: Path) -> list[Call]:
    """The calls of one job of the workload, for this seed."""
    draw = random.Random(seed)
    if workload == "corpus_verify":
        return [_call("verify")]
    if workload == "ring_ladder":
        calls = []
        for spec in LADDER_RINGS:
            calls += [_call("classify", spec), _verify_one(workdir, spec)]
        return calls
    if workload == "point_queries":
        calls = []
        for spec in POINT_RINGS:
            elements = {f: draw.randrange(POINT_RINGS[spec]) for f in SPECTRAL_FLAVORS}
            calls += _point_calls(spec, elements)
        return calls
    raise ValueError(f"unknown workload {workload!r}")


def all_calls(workload: str, workdir: Path) -> list[Call]:
    """Every call any seed's job can make, each once: what the references
    must cover."""
    if workload == "point_queries":
        calls = []
        for spec, size in POINT_RINGS.items():
            calls += _point_calls(spec, dict.fromkeys(SPECTRAL_FLAVORS, 0))
            calls += [
                _spectral(spec, element, flavor)
                for flavor in SPECTRAL_FLAVORS
                for element in range(1, size)
            ]
        return calls
    return job_calls(workload, 0, workdir)
