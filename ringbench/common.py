"""Paths, statistics, reference outputs and run context for the benchmark.

Nothing here imports deltaring, so the helpers can be tested and the
run context read without the program on the path.
"""

from __future__ import annotations

import gzip
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFS_DIR = BENCH_DIR / "refs"
WORK_DIR = ROOT / ".ringbench_work"

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail


class BenchError(Exception):
    """The benchmark cannot run here (missing program or references)."""


def use_source_tree() -> None:
    """Put the checkout's ``src`` first on the path, so the program under
    test is the one in this checkout and never an installed copy."""
    if not (SRC / "deltaring" / "__init__.py").is_file():
        raise BenchError(f"no deltaring package under {SRC}")
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))


# -- statistics -----------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``.  With n samples sorted ascending,
    the sample at 1-based rank n - 10 has exactly ten samples above it,
    so its percentile is 100 * (n - 10) / n.  Fewer than eleven samples
    support no such percentile, and that raises ValueError.
    """
    ordered = sorted(values)
    rank = len(ordered) - TAIL_BEYOND
    if rank < 1:
        raise ValueError(
            f"{len(ordered)} samples: a tail needs at least {TAIL_BEYOND + 1}"
        )
    return float(ordered[rank - 1]), 100.0 * rank / len(ordered)


# -- reference outputs -------------------------------------------------------------


def refs_path(workload: str) -> Path:
    return REFS_DIR / f"{workload}.json.gz"


def load_refs(workload: str) -> dict:
    """Reference outputs of one workload: call key -> {"exit", "stdout"}."""
    path = refs_path(workload)
    if not path.is_file():
        raise BenchError(f"no reference outputs at {path}")
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)["calls"]


def save_refs(workload: str, calls: dict, recorded_at: str) -> Path:
    path = refs_path(workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"recorded_at": recorded_at, "calls": dict(sorted(calls.items()))}
    data = json.dumps(payload, indent=0, sort_keys=False).encode("utf-8")
    # mtime=0 keeps the compressed bytes a pure function of the content
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(data)
    return path


def diff_output(key: str, ref: dict | None, code: int, stdout: str) -> str | None:
    """None when the call matched its reference byte for byte, else a
    one-line description of the first difference."""
    if ref is None:
        return f"{key}: no reference output"
    if code != ref["exit"]:
        return f"{key}: exit {code}, expected {ref['exit']}"
    expected = ref["stdout"]
    if stdout == expected:
        return None
    at = next(
        (i for i, (a, b) in enumerate(zip(stdout, expected)) if a != b),
        min(len(stdout), len(expected)),
    )
    line = expected.count("\n", 0, at) + 1
    return (
        f"{key}: output differs at byte {at} (line {line}): "
        f"got {stdout[at:at + 40]!r}, expected {expected[at:at + 40]!r}"
    )


# -- run context ----------------------------------------------------------------------
# Context only: nothing here is used to drop, filter or rescale samples.


def git_sha() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies of all CPUs from /proc/stat, if readable."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu":
        return None
    values = [int(v) for v in fields[1:9]]  # user .. steal; guest is inside user
    return values[7] if len(values) > 7 else 0, sum(values)


def steal_share(before, after) -> float | None:
    if before is None or after is None or after[1] <= before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def gather_probe_ms(repeats: int = 5) -> float:
    """Median time of a fixed numpy gather: 4M lookups in a 256 x 256 int32
    table, the access pattern of the axiom scan.  Shows how fast memory
    was on the host during the run."""
    import numpy as np

    table = np.arange(256 * 256, dtype=np.int32).reshape(256, 256)
    rows = np.random.default_rng(0).integers(0, 256, size=(2, 4_000_000))
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        table[rows[0], rows[1]].sum()
        times.append((time.perf_counter() - started) * 1000.0)
    return median(times)


def run_context() -> dict:
    import numpy as np

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "git_sha": git_sha(),
        "cpu_model": cpu_model(),
        "nproc": usable,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
