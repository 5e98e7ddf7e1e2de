"""Command-line interface.

Verbs:

    classify SPEC    all taxonomy predicates for one ring, with witnesses
    delta SPEC       delta(R) and J(R) side by side
    spectral SPEC --element I   spectral idempotents of one element
    verify           run the check suite over a corpus manifest
    corpus           list the corpus rings and their sizes
    validate SPEC    ring-axiom scan

plus `--describe SPEC` at the top level, which prints the index-to-name
table of a ring so element indices in other commands can be chosen.

Exit codes: 0 success / all checks pass; 1 FAIL verdicts or axiom
violations; 2 usage, parse, or malformed-input errors; 3 capacity
exceeded or out of memory.  Every error path prints a single line
`error: <category>: <message>` to stderr.  `classify`, `delta` and
`spectral` answer only about rings: on tables that fail the axioms
they print the first violation as `error: axioms: ...` and exit 1.
JSON output is byte-stable for identical inputs; timing figures appear
only under --timing.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import __version__, analysis, classify, harness, ringspec
from .kernel import (
    CapacityError,
    ConstructionError,
    FiniteRing,
    MalformedTableError,
    RingError,
    validation_report,
)
from .ringspec import RingSpecError


class _UsageError(Exception):
    pass


class _NotARingError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # single-line errors instead of usage dumps
        raise _UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(prog="deltaring", add_help=True)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument(
        "--describe",
        metavar="SPEC",
        help="print the element index/name table of a ring and exit",
    )
    sub = parser.add_subparsers(dest="verb")

    def add_format(p):
        p.add_argument("--format", choices=["json", "md"], default="json")

    p = sub.add_parser("classify", help="taxonomy predicates for one ring")
    p.add_argument("spec")
    add_format(p)
    p.add_argument(
        "--strict-commuting",
        action="store_true",
        help="require commuting parts in uniquely-delta-clean decompositions",
    )

    p = sub.add_parser("delta", help="delta(R) and J(R) for one ring")
    p.add_argument("spec")
    add_format(p)

    p = sub.add_parser("spectral", help="spectral idempotents of one element")
    p.add_argument("spec")
    p.add_argument("--element", type=int, required=True, help="element index")
    p.add_argument("--flavor", choices=list(classify.FLAVORS), default="delta")
    add_format(p)

    p = sub.add_parser("verify", help="run the check suite over a corpus")
    p.add_argument("--manifest", help="corpus manifest path (default: packaged corpus)")
    p.add_argument("--check", help="comma-separated check ids, e.g. C07 or C01,C02")
    p.add_argument("--jobs", type=int, help="worker threads (default 1: the calling thread)")
    p.add_argument("--timing", action="store_true", help="include millisecond timings")
    p.add_argument(
        "--strict-commuting",
        action="store_true",
        help="require commuting parts in uniquely-delta-clean decompositions",
    )
    add_format(p)

    p = sub.add_parser("corpus", help="list corpus rings and sizes")
    p.add_argument("--manifest", help="corpus manifest path (default: packaged corpus)")
    add_format(p)

    p = sub.add_parser("validate", help="ring-axiom scan for one ring")
    p.add_argument("spec")
    add_format(p)

    return parser


def _build_ring(spec_text: str) -> FiniteRing:
    return ringspec.build_ring(spec_text, ringspec.BuildContext(base_dir=Path.cwd()))


def _ring_for_answers(spec_text: str) -> FiniteRing:
    """The ring a verb that answers about rings reads.  A certified ring
    passes at no cost; any other, one with a table leaf, gets the cached
    axiom scan, and a table that fails it ends the verb."""
    ring = _build_ring(spec_text)
    if not ring.certified:
        report = validation_report(ring)
        if not report.ok:
            raise _NotARingError(f"{ring.spell()} fails {report.violations[0].describe(ring)}")
    return ring


# -- JSON output -----------------------------------------------------------------
# With ``indent``, ``json.dumps`` runs json's pure-Python encoder.  The
# writer lays out the same text itself and encodes the values with
# json's C encoder, many values to a call.  It makes the C encoder once
# per separator: ``JSONEncoder.encode`` would make one per call, which
# costs more than encoding a small value.


@functools.cache
def _encoder(separator: str):
    """value -> its JSON text, as ``json.dumps`` writes it without
    ``indent``, with ``separator`` between items and ": " after keys."""
    plain = json.JSONEncoder(separators=(separator, ": "))
    make = json.encoder.c_make_encoder
    if make is None:  # an interpreter without json's C accelerator
        return plain.encode
    encode = make(None, plain.default, json.encoder.encode_basestring_ascii, None,
                  ": ", separator, False, False, True)
    return lambda value: "".join(encode(value, 0))


def _key(key) -> str:
    """A dict key's JSON text, converted as json converts it (1, 1.0,
    True and None are keys too), read off a one-item dict."""
    return _encoder(",")({key: 0})[1:-4]


def _flat(values) -> bool:
    """True when no value is a list, tuple or dict."""
    return not any(issubclass(t, (list, tuple, dict)) for t in set(map(type, values)))


def _dumps(value, nl: str = "\n") -> str:
    """Exactly ``json.dumps(value, indent=2)``, for every value it
    accepts, laid out at the depth whose line break and indent is ``nl``.

    A scalar is one encoder call, and so is a list or dict of scalars:
    its item separator is "," and the next depth's line break, and the
    line breaks after the opening bracket and before the closing one are
    added.  A list's items go through :func:`_list_items`; anything else
    recurses.
    """
    if isinstance(value, dict):
        brackets, values = "{}", value.values()
    elif isinstance(value, (list, tuple)):
        brackets, values = "[]", value
    else:
        return _encoder(",")(value)
    if not value:
        return brackets
    inner = nl + "  "
    if _flat(values):
        body = _encoder("," + inner)(value)[1:-1]
    elif brackets == "{}":
        body = ("," + inner).join(f"{_key(k)}: {_dumps(v, inner)}" for k, v in value.items())
    else:
        body = ("," + inner).join(_list_items(value, inner))
    return brackets[0] + inner + body + nl + brackets[1]


def _list_items(items, nl: str) -> list[str]:
    """The text of each item of a list, at the depth of ``nl``.

    The non-empty dicts are grouped by key tuple.  A group whose keys
    are strings and whose values are all scalars (``--describe``'s rows,
    ``verify``'s results) is encoded by columns, one call per key with a
    line break between values: with ``ensure_ascii`` no encoded scalar
    holds a raw line break, so splitting on it recovers each value.  Each
    row is then one template filled in.  Other items go through
    :func:`_dumps`.
    """
    texts = [None] * len(items)
    rows: dict[tuple, list[int]] = {}
    for i, item in enumerate(items):
        if isinstance(item, dict) and item:
            rows.setdefault(tuple(item), []).append(i)
        else:
            texts[i] = _dumps(item, nl)
    inner = nl + "  "
    for keys, at in rows.items():
        columns = [[items[i][k] for i in at] for k in keys]
        # 1, 1.0 and True are one key of a tuple, but not one JSON key
        if not (all(isinstance(k, str) for k in keys) and all(map(_flat, columns))):
            for i in at:
                texts[i] = _dumps(items[i], nl)
            continue
        fields = ",".join(inner + _key(k).replace("%", "%%") + ": %s" for k in keys)
        template = "{" + fields + nl + "}"
        cells = [_encoder("\n")(column)[1:-1].split("\n") for column in columns]
        for i, row in zip(at, zip(*cells)):
            texts[i] = template % row
    return texts


def _print(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _emit(obj: dict, fmt: str, renderer) -> None:
    if fmt == "json":
        _print(_dumps(obj))
    else:
        _print(renderer(obj))


def _set_view(ring: FiniteRing, elements) -> dict:
    indices = [int(x) for x in elements]
    return {
        "size": len(indices),
        "indices": indices,
        "names": ring.names_of(indices),
    }


# -- markdown renderers --------------------------------------------------------


def _md_kv_block(obj: dict, skip=()) -> list[str]:
    lines = []
    for key, value in obj.items():
        if key in skip or isinstance(value, (dict, list)):
            continue
        lines.append(f"- {key}: {value}")
    return lines


def _md_classify(obj: dict) -> str:
    lines = [f"# Classification: {obj['ring']}", ""]
    lines += _md_kv_block(obj, skip=("ring",))
    lines.append("")
    lines.append("## Set sizes")
    for key, value in obj["sizes"].items():
        lines.append(f"- {key}: {value}")
    if obj["witnesses"]:
        lines.append("")
        lines.append("## Witnesses for false predicates")
        for pred, w in obj["witnesses"].items():
            names = ", ".join(w["names"])
            lines.append(f"- {pred}: elements [{names}] ({w['reason']})")
    lines.append("")
    return "\n".join(lines)


def _md_delta(obj: dict) -> str:
    lines = [f"# delta and radical: {obj['ring']}", ""]
    lines.append(f"- size: {obj['size']}")
    for key in ("delta", "jacobson"):
        names = ", ".join(obj[key]["names"])
        lines.append(f"- {key} ({obj[key]['size']} elements): {{{names}}}")
    lines.append(f"- delta equals radical: {obj['delta_equals_jacobson']}")
    lines.append("")
    return "\n".join(lines)


def _md_spectral(obj: dict) -> str:
    lines = [f"# Spectral idempotents: {obj['ring']}", ""]
    lines.append(f"- element: {obj['element']} ({obj['name']})")
    lines.append(f"- flavor: {obj['flavor']}")
    names = ", ".join(obj["spectral_idempotents"]["names"])
    lines.append(
        f"- spectral idempotents ({obj['spectral_idempotents']['size']}): {{{names}}}"
    )
    lines.append(f"- element quasipolar for this flavor: {obj['element_quasipolar']}")
    lines.append("")
    return "\n".join(lines)


def _md_validate(obj: dict) -> str:
    lines = [f"# Axiom scan: {obj['ring']}", ""]
    lines += _md_kv_block(obj, skip=("ring",))
    if obj["violations"]:
        lines.append("")
        lines.append("## Violations")
        for violation in obj["violations"]:
            lines.append(f"- {violation['axiom']} at {violation['witness']}")
    if obj.get("not_checked"):
        lines += ["", "## Not checked"] + [f"- {axiom}" for axiom in obj["not_checked"]]
    lines.append("")
    return "\n".join(lines)


def _md_corpus(obj: dict) -> str:
    lines = [f"# Corpus: {obj['manifest']}", ""]
    lines.append("| spec | spell | size |")
    lines.append("|------|-------|------|")
    for row in obj["rings"]:
        lines.append(f"| {row['spec']} | {row['spell']} | {row['size']} |")
    lines.append("")
    lines.append(f"{obj['count']} rings.")
    lines.append("")
    return "\n".join(lines)


# -- verb implementations ---------------------------------------------------------


def _cmd_describe(spec_text: str) -> int:
    ring = _build_ring(spec_text)
    obj = {
        "ring": ring.spell(),
        "size": ring.size,
        "zero": ring.zero,
        "one": ring.one,
        "elements": [
            {"index": x, "name": name} for x, name in enumerate(ring.names_of(ring.elements()))
        ],
    }
    _print(_dumps(obj))
    return 0


def _cmd_classify(args) -> int:
    ring = _ring_for_answers(args.spec)
    report = classify.classification_report(ring, strict_commuting=args.strict_commuting)
    _emit(report.to_dict(), args.format, _md_classify)
    return 0


def _cmd_delta(args) -> int:
    ring = _ring_for_answers(args.spec)
    delta = analysis.delta(ring)
    radical = analysis.jacobson_radical(ring)
    obj = {
        "ring": ring.spell(),
        "size": ring.size,
        "delta": _set_view(ring, delta.indices()),
        "jacobson": _set_view(ring, radical.indices()),
        "delta_equals_jacobson": delta == radical,
    }
    _emit(obj, args.format, _md_delta)
    return 0


def _cmd_spectral(args) -> int:
    ring = _ring_for_answers(args.spec)
    if not (0 <= args.element < ring.size):
        raise _UsageError(
            f"--element {args.element} out of range for a ring of size {ring.size}"
        )
    idempotents = classify.spectral_idempotents(ring, args.element, args.flavor)
    obj = {
        "ring": ring.spell(),
        "size": ring.size,
        "element": args.element,
        "name": ring.names_of([args.element])[0],
        "flavor": args.flavor,
        "spectral_idempotents": _set_view(ring, idempotents.indices()),
        "element_quasipolar": bool(idempotents),
    }
    _emit(obj, args.format, _md_spectral)
    return 0


def _parse_check_filter(raw: str | None) -> tuple[str, ...] | None:
    if raw is None:
        return None
    ids = tuple(part.strip() for part in raw.split(",") if part.strip())
    if not ids:
        raise _UsageError("--check given but no check ids found")
    for i, check_id in enumerate(ids):
        if check_id not in harness.CHECKS:
            known = ", ".join(harness.CHECK_IDS)
            raise _UsageError(f"unknown check id {check_id!r} (known: {known})")
        if check_id in ids[:i]:
            raise _UsageError(f"check id {check_id!r} given more than once")
    return ids


def _cmd_verify(args) -> int:
    check_ids = _parse_check_filter(args.check)
    if args.jobs is not None and args.jobs < 1:
        raise _UsageError(f"--jobs must be at least 1, got {args.jobs}")
    entries = harness.build_corpus(args.manifest)
    report = harness.run_suite(
        entries,
        check_ids=check_ids,
        jobs=args.jobs,
        strict_commuting=args.strict_commuting,
    )
    if args.format == "json":
        _print(_dumps(report.to_dict(timing=args.timing)))
    else:
        _print(report.to_markdown(timing=args.timing))
    return 1 if report.summary()["fail"] > 0 else 0


def _cmd_corpus(args) -> int:
    entries = harness.build_corpus(args.manifest)
    obj = {
        "manifest": args.manifest if args.manifest else "default",
        "rings": [
            {"spec": e.spec_text, "spell": e.ring.spell(), "size": e.ring.size}
            for e in entries
        ],
        "count": len(entries),
    }
    _emit(obj, args.format, _md_corpus)
    return 0


def _cmd_validate(args) -> int:
    ring = _build_ring(args.spec)
    report = validation_report(ring)
    _emit(report.to_dict(), args.format, _md_validate)
    return 0 if report.ok else 1


def _error_line(category: str, message) -> None:
    text = str(message).replace("\n", " ")
    sys.stderr.write(f"error: {category}: {text}\n")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            # argparse exits directly for --version and --help
            return int(exc.code or 0)
        if args.describe is not None:
            if args.verb is not None:
                raise _UsageError("--describe cannot be combined with a verb")
            return _cmd_describe(args.describe)
        if args.verb is None:
            raise _UsageError("a verb is required (or --describe SPEC); see --help")
        dispatch = {
            "classify": _cmd_classify,
            "delta": _cmd_delta,
            "spectral": _cmd_spectral,
            "verify": _cmd_verify,
            "corpus": _cmd_corpus,
            "validate": _cmd_validate,
        }
        return dispatch[args.verb](args)
    except _UsageError as exc:
        _error_line("usage", exc)
        return 2
    except _NotARingError as exc:
        _error_line("axioms", exc)
        return 1
    except RingSpecError as exc:
        _error_line("spec", exc)
        return 2
    except CapacityError as exc:
        _error_line("capacity", exc)
        return 3
    except MemoryError as exc:
        _error_line("capacity", str(exc) or "out of memory")
        return 3
    except MalformedTableError as exc:
        _error_line("table", exc)
        return 2
    except ConstructionError as exc:
        _error_line("construction", exc)
        return 2
    except RingError as exc:
        _error_line("ring", exc)
        return 2
    except OSError as exc:
        _error_line("io", exc)
        return 2


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
