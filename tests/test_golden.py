"""Byte-for-byte pins of `verify`, `classify` and `run_check` output,
and of the tables the constructions build.

The gzipped files under tests/golden/ hold the exact bytes these
payloads produced before the check registry was rewritten as declared
hypotheses (tables.json: before M, T and H shared one grid builder).  A
refactor of the checks, the classifier or the constructions must leave
every one of them unchanged; a deliberate output change re-records them with

    PYTHONPATH=src python tests/test_golden.py

and says so in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import io
import json
import random
from pathlib import Path

import pytest

from deltaring import FiniteRing, build_ring, classify, cli, harness, kernel

import oracles

GOLDEN = Path(__file__).parent / "golden"
CORRUPTION_SEED = 5
CORRUPTIONS_PER_RING = 12
CORRUPTION_MAX_SIZE = 16
# the benchmark's ladder rings (conftest.LADDER_SPECS), then matrix-shaped
# rings beyond the corpus and the ladder, H over a product base, then
# corners and quotients of every parent kind
TABLE_SPECS = (
    "Z512", "T(2, Z8)", "H(1, 1, Z8)", "prod(M(2, Z2), T(2, Z4))", "quot(Z2048, 512)",
    "M(2, Z3)", "T(3, Z2)", "H(5, 7, prod(Z2, Z4))",
    "corner(M(2, Z8), 1)", "corner(T(3, Z4), 1)", "corner(H(1, 1, Z8), 8)",
    "quot(M(2, Z8), 1026)", "quot(T(2, Z16), 2)", "quot(prod(Z64, Z32), 256)",
    "corner(dorroh(Z16, self), 1)", "quot(dorroh(Z16, self), 1)",
)


def _cli_stdout(*argv: str) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(list(argv))
    return out.getvalue().encode()


def _classify_corpus(corpus) -> bytes:
    reports = [classify.classification_report(e.ring).to_dict() for e in corpus]
    return json.dumps(reports, indent=2).encode()


def _corruptions(corpus):
    """(spec, table, entry, ring) for a fixed, seeded list of single-entry
    corruptions: the multiplication entry (as a plain table, and keeping
    the construction provenance so provenance hypotheses apply) and the
    addition entry."""
    rng = random.Random(CORRUPTION_SEED)
    for e in corpus:
        ring = e.ring
        if ring.size > CORRUPTION_MAX_SIZE:
            continue
        for _ in range(CORRUPTIONS_PER_RING):
            x, y, value = (rng.randrange(ring.size) for _ in range(3))
            bad = oracles.mutate_mul_entry(ring, x, y, value)
            yield e.spec_text, "mul", (x, y, value), bad
            yield e.spec_text, "mul-provenance", (x, y, value), FiniteRing(
                ring.size, ring.add_table, bad.mul_table, zero=ring.zero, one=ring.one,
                provenance=ring.provenance, element_names=ring.element_names,
            )
            add = ring.add_table.copy()
            add[x, y] = value
            yield e.spec_text, "add", (x, y, value), FiniteRing(
                ring.size, add, ring.mul_table, zero=ring.zero, one=ring.one
            )


def _corruption_rows(corpus) -> bytes:
    out = [
        {
            "ring": spec,
            "table": table,
            "entry": list(entry),
            "rows": [harness.run_check(c, bad).to_dict() for c in harness.CHECK_IDS],
        }
        for spec, table, entry, bad in _corruptions(corpus)
    ]
    return json.dumps(out, indent=1).encode()


def _digest(table) -> str:
    # hashed as little-endian int32, the dtype the digests were recorded in
    table = table.astype("<i4")
    return hashlib.sha256(str(table.dtype).encode() + table.tobytes()).hexdigest()


def _table_digests(corpus) -> bytes:
    rings = [(e.spec_text, e.ring) for e in corpus]
    rings += [(spec, build_ring(spec)) for spec in TABLE_SPECS]
    rings = [(spec, ring.fill()) for spec, ring in rings]
    out = [
        {
            "ring": spec,
            "add": _digest(ring.add_table),
            "mul": _digest(ring.mul_table),
            "zero": ring.zero,
            "one": ring.one,
            "names": ring.element_names,
        }
        for spec, ring in rings
    ]
    return json.dumps(out, indent=1).encode()


PAYLOADS = {
    "verify.json": lambda corpus: _cli_stdout("verify"),
    "verify_strict.json": lambda corpus: _cli_stdout("verify", "--strict-commuting"),
    "verify.md": lambda corpus: _cli_stdout("verify", "--format", "md"),
    "classify.json": _classify_corpus,
    "corruptions.json": _corruption_rows,
    "tables.json": _table_digests,
}


def _first_difference(want: bytes, got: bytes) -> str:
    for lineno, (a, b) in enumerate(zip(want.splitlines(), got.splitlines()), start=1):
        if a != b:
            return f"line {lineno}: expected {a!r}, got {b!r}"
    return f"lengths differ: expected {len(want)} bytes, got {len(got)}"


@pytest.mark.parametrize("name", sorted(PAYLOADS))
def test_output_matches_golden(corpus, name):
    want = gzip.decompress((GOLDEN / f"{name}.gz").read_bytes())
    got = PAYLOADS[name](corpus)
    assert got == want, _first_difference(want, got)


# Under blocks of a few dozen cells, every blocked pass (the analysis
# sweeps, is_local, C17's sweep and first_escape in C02, C03, C04 and
# C22 on the corruptions, which fail C00, the axiom checks, the
# builders' fills and the sub-constructions' reads)
# spans many blocks on the corpus, its corruptions and the table specs;
# no table, verdict or first witness may move.
@pytest.mark.parametrize("name", sorted(PAYLOADS))
def test_output_matches_golden_across_many_row_blocks(monkeypatch, name):
    monkeypatch.setattr(kernel, "_BLOCK_CELLS", 40)
    monkeypatch.setattr(kernel, "_SWEEP_BLOCK_CELLS", 40)
    want = gzip.decompress((GOLDEN / f"{name}.gz").read_bytes())
    got = PAYLOADS[name](harness.build_corpus())
    assert got == want, _first_difference(want, got)


def record() -> None:
    corpus = harness.build_corpus()
    GOLDEN.mkdir(exist_ok=True)
    for name, payload in PAYLOADS.items():
        (GOLDEN / f"{name}.gz").write_bytes(gzip.compress(payload(corpus), mtime=0))


if __name__ == "__main__":
    record()
