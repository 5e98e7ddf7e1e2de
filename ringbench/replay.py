"""Staged replay of CLI calls, with spans around each layer's public function.

The replay does what ``deltaring.cli.main`` does for the same argv, but
calls the layers one at a time in dependency order on a cold ring.  A
stage fills the caches later stages read, so each stage's span holds
only that layer's own work: its self time.  The replay renders the same
bytes as the CLI, and the benchmark checks them against the same
references, so a replay that drifts from the CLI shows as a failed
operation.

Layers that cache nothing (clean flags, ``is_local``,
``is_strongly_pi_regular``) are staged only where their result is used
once, in ``classify``; staging them before ``verify``'s checks would
make the checks compute them a second time.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

from deltaring import analysis, classify, cli, harness, kernel, ringspec

VERIFY_ANALYSIS = (
    "units",
    "idempotents",
    "nilpotents",
    "center",
    "jacobson_radical",
    "delta",
    "qnil",
    "delta_alternative_forms",
)
CLASSIFY_ANALYSIS = VERIFY_ANALYSIS[:-1]
VERIFY_FLAVORS = ("delta", "unit")  # the element flags verify's checks read
NAMED_CHECKS = ("C08", "C09", "C18", "C19", "C21", "C24", "C28", "C31")
MEMORY_SPANS = ("constructions.build", "kernel.validate_ring", "classify.element_flags.delta")

# Spans that are not a layer's stage: the job and the CLI call around stages.
FRAME_SPANS = ("job", "cli")


class ReplayError(Exception):
    """The replay met a state the CLI would not have produced output for."""


class CountingCache(dict):
    """A BuildContext cache that counts lookups and hits."""

    def __init__(self):
        super().__init__()
        self.lookups = 0
        self.hits = 0

    def get(self, key, default=None):
        self.lookups += 1
        if key in self:
            self.hits += 1
        return super().get(key, default)


class Tracer:
    """Spans as (name, start, end, parent, job) rows kept in memory.

    With ``memory`` on, the spans named in MEMORY_SPANS also run under
    tracemalloc, and the highest peak of each is kept in ``peaks``.
    That slows them, so memory passes are never timed.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[list] = []
        self.peaks: dict[str, int] = {}
        self.caches: list[CountingCache] = []
        self.job: int | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        row = [name, 0.0, 0.0, parent, self.job]
        self._open.append(len(self.spans))
        self.spans.append(row)
        watch = self.memory and name in MEMORY_SPANS
        if watch:
            tracemalloc.start()
        row[1] = time.perf_counter()
        try:
            yield
        finally:
            row[2] = time.perf_counter()
            if watch:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.peaks[name] = max(self.peaks.get(name, 0), peak)
            self._open.pop()

    def context(self, base_dir: Path) -> ringspec.BuildContext:
        cache = CountingCache()
        self.caches.append(cache)
        return ringspec.BuildContext(base_dir=base_dir, cache=cache)


def self_times(spans, job: int) -> dict[str, float]:
    """Seconds of self time per span name within one job: each span's
    duration minus the part its child spans cover."""
    totals: dict[str, float] = {}
    child_time: dict[int, float] = {}
    rows = [(i, row) for i, row in enumerate(spans) if row[4] == job]
    for _, (name, start, end, parent, _) in rows:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    for i, (name, start, end, _, _) in rows:
        totals[name] = totals.get(name, 0.0) + (end - start) - child_time.get(i, 0.0)
    return totals


# -- stages ---------------------------------------------------------------------------


def _ring(text: str, tracer: Tracer, ctx: ringspec.BuildContext):
    with tracer.span("ringspec.parse"):
        spec = ringspec.parse_ring_spec(text)
    with tracer.span("constructions.build"):
        return ringspec.build(spec, ctx)


def _analysis(ring, tracer: Tracer, names) -> None:
    for name in names:
        with tracer.span(f"analysis.{name}"):
            getattr(analysis, name)(ring)


def _element_flags(ring, tracer: Tracer, flavor: str):
    with tracer.span(f"classify.element_flags.{flavor}"):
        return classify.ring_quasipolar(ring, flavor)


def _render(tracer: Tracer, make_obj) -> str:
    """JSON text of ``make_obj()``, as the CLI prints it."""
    with tracer.span("cli.render"):
        return json.dumps(make_obj(), indent=2) + "\n"


def _set_view(ring, elements) -> dict:
    indices = [int(x) for x in elements]
    return {
        "size": len(indices),
        "indices": indices,
        "names": [ring.element_name(x) for x in indices],
    }


# -- verbs ----------------------------------------------------------------------------


def _classify(args, tracer: Tracer) -> tuple[int, str]:
    ring = _ring(args.spec, tracer, tracer.context(Path.cwd()))
    _analysis(ring, tracer, CLASSIFY_ANALYSIS)
    flags = {
        "delta_quasipolar": _element_flags(ring, tracer, "delta"),
        "j_quasipolar": _element_flags(ring, tracer, "jacobson"),
        "quasipolar": _element_flags(ring, tracer, "quasipolar"),
    }
    with tracer.span("classify.clean_flags"):
        clean = {
            "clean": classify.is_clean(ring),
            "strongly_clean": classify.is_strongly_clean(ring),
            "uniquely_clean": classify.is_uniquely_clean(ring),
            "j_clean": classify.is_j_clean(ring),
            "strongly_delta_clean": classify.is_strongly_delta_clean(ring),
            "uniquely_delta_clean": classify.is_uniquely_delta_clean(
                ring, args.strict_commuting
            ),
        }
    with tracer.span("classify.is_local"):
        local = classify.is_local(ring)
    with tracer.span("classify.is_strongly_pi_regular"):
        pi_regular = classify.is_strongly_pi_regular(ring)
    with tracer.span("classify.classification_report"):
        # the rest of classify.classification_report, in its field order
        results = {
            **flags,
            **clean,
            "abelian": classify.is_abelian(ring),
            "local": local,
            "strongly_pi_regular": pi_regular,
        }
        report = classify.ClassificationReport(ring=ring.spell(), size=ring.size)
        for name, (ok, witness) in results.items():
            report.booleans[name] = bool(ok)
            if not ok:
                elements = list(witness) if isinstance(witness, tuple) else [witness]
                report.witnesses[name] = {
                    "elements": [int(x) for x in elements],
                    "names": [ring.element_name(int(x)) for x in elements],
                    "reason": classify._WITNESS_REASONS[name],
                }
        report.sizes = {
            "units": len(analysis.units(ring)),
            "idempotents": len(analysis.idempotents(ring)),
            "nilpotents": len(analysis.nilpotents(ring)),
            "jacobson": len(analysis.jacobson_radical(ring)),
            "delta": len(analysis.delta(ring)),
            "qnil": len(analysis.qnil(ring)),
        }
    return 0, _render(tracer, report.to_dict)


def _ring_checks(ring, tracer: Tracer) -> list:
    with tracer.span("kernel.validate_ring"):
        gate = harness.run_check("C00", ring)
    if gate.verdict == harness.FAIL:
        raise ReplayError(f"{ring.spell()} failed the axiom scan: {gate.note}")
    _analysis(ring, tracer, VERIFY_ANALYSIS)
    for flavor in VERIFY_FLAVORS:
        _element_flags(ring, tracer, flavor)
    results = [gate]
    for check_id in harness.CHECK_IDS:
        if check_id == "C00":
            continue
        name = f"harness.{check_id}" if check_id in NAMED_CHECKS else "harness.other_checks"
        with tracer.span(name):
            results.append(harness.run_check(check_id, ring))
    return results


def _verify(args, tracer: Tracer) -> tuple[int, str]:
    if args.check or args.jobs or args.timing or args.strict_commuting or args.format != "json":
        raise ReplayError("the replay covers `verify` with default flags only")
    manifest = Path(args.manifest) if args.manifest else harness.default_corpus_path()
    ctx = tracer.context(manifest.parent)
    entries = [
        harness.CorpusEntry(line, _ring(line, tracer, ctx))
        for _, line in harness.load_manifest(manifest)
    ]
    report = harness.SuiteReport(corpus=[(e.spec_text, e.ring.size) for e in entries])
    for entry in entries:
        report.results.extend(_ring_checks(entry.ring, tracer))
    return (1 if report.summary()["fail"] else 0), _render(tracer, report.to_dict)


def _delta(args, tracer: Tracer) -> tuple[int, str]:
    ring = _ring(args.spec, tracer, tracer.context(Path.cwd()))
    _analysis(ring, tracer, ("units", "delta", "jacobson_radical"))
    delta = analysis.delta(ring)
    radical = analysis.jacobson_radical(ring)
    return 0, _render(
        tracer,
        lambda: {
            "ring": ring.spell(),
            "size": ring.size,
            "delta": _set_view(ring, delta.indices()),
            "jacobson": _set_view(ring, radical.indices()),
            "delta_equals_jacobson": delta == radical,
        },
    )


def _spectral(args, tracer: Tracer) -> tuple[int, str]:
    ring = _ring(args.spec, tracer, tracer.context(Path.cwd()))
    if not 0 <= args.element < ring.size:
        raise ReplayError(f"--element {args.element} out of range")
    target = "qnil" if args.flavor == "quasipolar" else args.flavor
    _analysis(ring, tracer, ("units", "idempotents", target))
    with tracer.span("classify.spectral_idempotents"):
        idempotents = classify.spectral_idempotents(ring, args.element, args.flavor)
    return 0, _render(
        tracer,
        lambda: {
            "ring": ring.spell(),
            "size": ring.size,
            "element": args.element,
            "name": ring.element_name(args.element),
            "flavor": args.flavor,
            "spectral_idempotents": _set_view(ring, idempotents.indices()),
            "element_quasipolar": bool(idempotents),
        },
    )


def _validate(args, tracer: Tracer) -> tuple[int, str]:
    ring = _ring(args.spec, tracer, tracer.context(Path.cwd()))
    with tracer.span("kernel.validate_ring"):
        report = kernel.validate_ring(ring)
    return (0 if report.ok else 1), _render(tracer, report.to_dict)


def _describe(spec_text: str, tracer: Tracer) -> tuple[int, str]:
    ring = _ring(spec_text, tracer, tracer.context(Path.cwd()))
    return 0, _render(
        tracer,
        lambda: {
            "ring": ring.spell(),
            "size": ring.size,
            "zero": ring.zero,
            "one": ring.one,
            "elements": [{"index": x, "name": ring.element_name(x)} for x in ring.elements()],
        },
    )


_VERBS = {
    "classify": _classify,
    "verify": _verify,
    "delta": _delta,
    "spectral": _spectral,
    "validate": _validate,
}


def replay(argv, tracer: Tracer) -> tuple[int, str]:
    """Exit code and stdout of ``deltaring <argv>``, computed stage by stage."""
    with tracer.span("cli"):
        args = cli._build_parser().parse_args(list(argv))
        if args.describe is not None:
            return _describe(args.describe, tracer)
        if args.verb not in _VERBS or getattr(args, "format", "json") != "json":
            raise ReplayError(f"no staged replay for {' '.join(argv)!r}")
        return _VERBS[args.verb](args, tracer)
