"""A tiny spec language for naming rings on the command line.

Grammar (whitespace is free between tokens):

    spec := "Z" INT | "table:" PATH | HEAD "(" arg ("," arg)* ")"

``GRAMMAR`` maps each HEAD to its argument kinds, one letter per
argument, and to the builder that takes the arguments in that order:
``s`` a nested spec, ``i`` an INT, ``+`` one or more INTs, and ``v`` a
Dorroh V, ``self | zero | ideal(INT, ...)``.  So ``M`` is ``is``, and
a new construction is one row.  Bare INTs after a spec are element
indices of that ring; H's two are the indices of s and t in the base
ring.  A PATH extends to the next comma, closing parenthesis, or
whitespace.

Specs are outside input, so constructions nest at most ``MAX_DEPTH``
deep and an INT has at most ``MAX_DIGITS`` digits after its leading
zeros.  Both are far beyond any ring under the element cap, and they
keep the recursive parse and build, and the printing of INTs in
messages, within Python's limits.  Parse errors carry 1-based column
positions.  Building is cached per canonical spelling, so a corpus
that mentions Z4 five times constructs it once.  A build fills no
table, of the ring or of what it is built from: every ring but a table
leaf is returned with its tables unfilled, and a table is filled only
by a pass that reads the whole ring (``FiniteRing.fill``).  So
``--describe`` and a one-element answer read a few cells of the
builder's arithmetic, through a base's or parent's reads.
``quot(Z2048, 512)`` keeps no table until such a pass, and the Z2048
inside it none at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from . import constructions
from .kernel import ConstructionError, FiniteRing, RingError

MAX_DEPTH = 100
MAX_DIGITS = 100


class RingSpecError(RingError):
    """Ring-spec text failed to parse."""

    def __init__(self, message: str, column: int | None = None):
        if column is not None:
            message = f"column {column}: {message}"
        super().__init__(message)
        self.column = column


@dataclass
class BuildContext:
    """Where table paths resolve from, plus a shared construction cache."""

    base_dir: Path | None = None
    cache: dict = field(default_factory=dict)


def _spell(kind: str, arg) -> str:
    if kind == "s":
        return arg.canonical()
    if kind == "+":
        return ", ".join(str(g) for g in arg)
    if kind == "v" and not isinstance(arg, str):
        return constructions.spelling("ideal", *arg)
    return str(arg)


def _dorroh(base: FiniteRing, v) -> FiniteRing:
    actions = {"self": constructions.self_action, "zero": constructions.zero_action}
    action = actions[v](base) if v in actions else constructions.ideal_action(base, v)
    return constructions.dorroh(base, action, v_spell=_spell("v", v))


GRAMMAR = {
    "prod": ("ss", constructions.product),
    "M": ("is", constructions.matrix_ring),
    "T": ("is", constructions.upper_triangular),
    "H": ("iis", constructions.h_ring),
    "corner": ("si", constructions.corner),
    "dorroh": ("sv", _dorroh),
    "quot": ("s+", constructions.quotient_by_generators),
}


@dataclass(frozen=True)
class Spec:
    """A parsed spec: ``head`` is ``"Z"``, ``"table:"`` or a key of
    ``GRAMMAR``, and ``args`` holds one value per argument kind: a Spec,
    an int, a tuple of ints, or a Dorroh V (``"self"``, ``"zero"`` or
    the tuple of ideal generators).  ``Z`` and ``table:`` hold their
    modulus or path."""

    head: str
    args: tuple

    def canonical(self) -> str:
        kinds = GRAMMAR[self.head][0] if self.head in GRAMMAR else "i"
        return constructions.spelling(self.head, *map(_spell, kinds, self.args))


_PATH_STOPPERS = set(",) \t\r\n")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0  # constructions open around the current position
        self.readers = {
            "s": self.parse_spec,
            "i": self.parse_int,
            "+": self.parse_int_list,
            "v": self.parse_dorroh_v,
        }

    def error(self, message: str) -> RingSpecError:
        return RingSpecError(message, column=self.pos + 1)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def found(self) -> str:
        return repr(self.peek()) if self.peek() else "end of input"

    def expect(self, ch: str) -> None:
        self.skip_ws()
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}, found {self.found()}")
        self.pos += 1

    def to_int(self, digits: str, start: int) -> int:
        significant = digits.lstrip("0")
        if len(significant) > MAX_DIGITS:
            self.pos = start
            raise self.error(f"integers have at most {MAX_DIGITS} digits")
        return int(significant or "0")

    def parse_int(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            raise self.error(f"expected an integer, found {self.found()}")
        return self.to_int(self.text[start : self.pos], start)

    def parse_word(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start : self.pos]

    def parse_int_list(self) -> tuple[int, ...]:
        values = [self.parse_int()]
        while True:
            self.skip_ws()
            if self.peek() == ",":
                self.pos += 1
                values.append(self.parse_int())
            else:
                return tuple(values)

    def parse_dorroh_v(self):
        word = self.parse_word()
        if word in ("self", "zero"):
            return word
        if word == "ideal":
            self.expect("(")
            gens = self.parse_int_list()
            self.expect(")")
            return gens
        raise self.error(
            f"expected self, zero, or ideal(...), found {repr(word) if word else self.found()}"
        )

    def parse_args(self, kinds: str) -> tuple:
        args = []
        for kind in kinds:
            if args:
                self.expect(",")
            args.append(self.readers[kind]())
        return tuple(args)

    def parse_spec(self) -> Spec:
        self.skip_ws()
        start = self.pos
        head = self.parse_word()
        if not head:
            raise self.error(f"expected a ring spec, found {self.found()}")
        if head[0] == "Z" and head[1:].isdecimal():
            return Spec("Z", (self.to_int(head[1:], start + 1),))
        if head == "Z":
            self.pos = start + 1
            raise self.error("Z must be followed by a modulus, e.g. Z4")
        if head == "table":
            self.expect(":")
            pstart = self.pos
            while self.pos < len(self.text) and self.text[self.pos] not in _PATH_STOPPERS:
                self.pos += 1
            if self.pos == pstart:
                raise self.error("table: needs a file path")
            return Spec("table:", (self.text[pstart : self.pos],))
        if head not in GRAMMAR:
            self.pos = start
            raise self.error(f"unknown construction {head!r}")
        if self.depth == MAX_DEPTH:
            self.pos = start
            raise self.error(f"constructions nest at most {MAX_DEPTH} deep")
        self.depth += 1
        self.expect("(")
        args = self.parse_args(GRAMMAR[head][0])
        self.expect(")")
        self.depth -= 1
        return Spec(head, args)


def parse_ring_spec(text: str) -> Spec:
    """Parse a ring-spec string into a Spec tree."""
    if not text or not text.strip():
        raise RingSpecError("empty ring spec")
    parser = _Parser(text)
    spec = parser.parse_spec()
    parser.skip_ws()
    if parser.pos != len(text):
        raise RingSpecError(
            f"trailing characters after spec: {text[parser.pos:]!r}", column=parser.pos + 1
        )
    return spec


def _construct(spec: Spec, ctx: BuildContext) -> FiniteRing:
    if spec.head == "Z":
        return constructions.zn(spec.args[0])
    if spec.head == "table:":
        path = Path(spec.args[0])
        if not path.is_absolute() and ctx.base_dir is not None:
            path = ctx.base_dir / path
        return constructions.table_ring(path, label=spec.args[0])
    kinds, builder = GRAMMAR[spec.head]
    return builder(*(_build(a, ctx) if k == "s" else a for k, a in zip(kinds, spec.args)))


def build(spec: Spec, ctx: BuildContext | None = None) -> FiniteRing:
    """Construct the ring a Spec names, caching every node by canonical
    spelling, and return it as its builder left it: a table leaf with
    its tables, any other ring with none filled until a pass that
    reads the whole ring fills them.
    """
    return _build(spec, BuildContext() if ctx is None else ctx)


def _build(spec: Spec, ctx: BuildContext) -> FiniteRing:
    key = spec.canonical()
    ring = ctx.cache.get(key)
    if ring is None:
        try:
            ring = _construct(spec, ctx)
        except IndexError as exc:
            # element arguments (corner idempotent, ideal generators,
            # subring parameters) validated against the built component
            raise ConstructionError(f"{key}: {exc}") from exc
        ctx.cache[key] = ring
    return ring


def build_ring(text: str, ctx: BuildContext | None = None) -> FiniteRing:
    """Parse and construct in one step."""
    return build(parse_ring_spec(text), ctx)
