"""Meaning representation language for simulated soccer events.

An MR is a single atomic formula such as ``pass ( pink1 , pink2 )``: one
predicate applied to sorted constants.  The grammar is a small fixed CFG
embedded below; every well-formed MR has a unique top-down left-most
derivation, which downstream alignment code treats as the MR's production
sequence.  A sentence template names argument i by the slot marker ``<i>``;
template_items and check_template hold the one rule for those markers.
"""

from __future__ import annotations

import operator
import re
import unicodedata
from dataclasses import dataclass
from functools import cached_property, lru_cache

PLAYER = "PLAYER"
PLAYMODE = "PLAYMODE"


@dataclass(frozen=True)
class Predicate:
    """An event type: name plus the sorts of its argument positions."""

    name: str
    argument_sorts: tuple[str, ...]

    @property
    def arity(self) -> int:
        return len(self.argument_sorts)


@dataclass(frozen=True)
class Constant:
    """A sorted ground term (a player or a play mode)."""

    token: str
    sort: str


@dataclass(frozen=True)
class Production:
    """One CFG rule.  ``key`` is a unique short handle used by model tables."""

    lhs: str
    rhs: tuple[str, ...]
    key: str


@dataclass(frozen=True)
class MeaningRepresentation:
    predicate: Predicate
    args: tuple[Constant, ...]

    def __post_init__(self) -> None:
        if len(self.args) != self.predicate.arity:
            raise ValueError(
                f"{self.predicate.name} takes {self.predicate.arity} args, "
                f"got {len(self.args)}"
            )
        for position, (arg, sort) in enumerate(
            zip(self.args, self.predicate.argument_sorts)
        ):
            if arg.sort != sort:
                raise ValueError(
                    f"arg {position + 1} of {self.predicate.name} must be "
                    f"{sort}, got {arg.sort} ({arg.token})"
                )

    @cached_property
    def surface(self) -> str:
        """Canonical surface form: ``pred ( a1 , a2 )``, or bare ``pred`` at
        arity 0.  Built on first use and kept in the instance ``__dict__``;
        equality and hashing stay on the fields."""
        if not self.args:
            return self.predicate.name
        inner = " , ".join(a.token for a in self.args)
        return f"{self.predicate.name} ( {inner} )"


class MalformedMR(ValueError):
    """Raised by parse_mr; ``position`` is a character offset into the input."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


PREDICATES: tuple[Predicate, ...] = (
    Predicate("playmode", (PLAYMODE,)),
    Predicate("ballstopped", ()),
    Predicate("turnover", (PLAYER, PLAYER)),
    Predicate("kick", (PLAYER,)),
    Predicate("pass", (PLAYER, PLAYER)),
    Predicate("badPass", (PLAYER, PLAYER)),
    Predicate("defense", (PLAYER, PLAYER)),
    Predicate("steal", (PLAYER,)),
    Predicate("block", (PLAYER,)),
)

PLAYMODE_TOKENS: tuple[str, ...] = (
    "kick_off_l",
    "kick_off_r",
    "kick_in_l",
    "kick_in_r",
    "play_on",
    "offside_l",
    "offside_r",
    "free_kick_l",
    "free_kick_r",
    "corner_kick_l",
    "corner_kick_r",
    "goal_kick_l",
    "goal_kick_r",
    "goal_l",
    "goal_r",
)

PLAYER_TOKENS: tuple[str, ...] = tuple(
    f"{team}{i}" for team in ("pink", "purple") for i in range(1, 12)
)

CONSTANTS: tuple[Constant, ...] = tuple(
    Constant(token, PLAYMODE) for token in PLAYMODE_TOKENS
) + tuple(Constant(token, PLAYER) for token in PLAYER_TOKENS)

_PREDICATE_BY_NAME = {p.name: p for p in PREDICATES}
_CONSTANT_BY_TOKEN = {c.token: c for c in CONSTANTS}


def _build_productions() -> tuple[Production, ...]:
    rules = []
    for p in PREDICATES:
        if p.arity == 0:
            rhs: tuple[str, ...] = (p.name,)
        else:
            inner: list[str] = []
            for i, sort in enumerate(p.argument_sorts):
                if i:
                    inner.append(",")
                inner.append(f"*{sort}")
            rhs = (p.name, "(", *inner, ")")
        rules.append(Production("*S", rhs, p.name))
    for c in CONSTANTS:
        rules.append(Production(f"*{c.sort}", (c.token,), c.token))
    return tuple(rules)


PRODUCTIONS: tuple[Production, ...] = _build_productions()
_PRODUCTION_BY_KEY = {prod.key: prod for prod in PRODUCTIONS}


# Canonical surface form of an MR: ``pred ( a1 , a2 )``, or bare ``pred`` at
# arity 0.  It reads MeaningRepresentation.surface, built once per MR object,
# so the shared enumerate_mrs() objects pay for it once per process; a C-level
# getter, so mapping it over all MRs runs no Python frame per MR.
serialize_mr = operator.attrgetter("surface")


# A token is one of "(),", or a maximal run of other characters that are not
# whitespace (\s is str.isspace).
_TOKEN_RE = re.compile(r"[(),]|[^\s(),]+")


def parse_mr(text: str) -> MeaningRepresentation:
    """Parse an MR surface string, accepting arbitrary whitespace between tokens."""
    normalized = unicodedata.normalize("NFC", text)
    tokens = [(m.group(), m.start()) for m in _TOKEN_RE.finditer(normalized)]

    if not tokens:
        raise MalformedMR("empty MR", 0)

    name, pos = tokens[0]
    predicate = _PREDICATE_BY_NAME.get(name)
    if predicate is None:
        raise MalformedMR(f"unknown predicate {name!r}", pos)

    if predicate.arity == 0:
        if len(tokens) > 1:
            raise MalformedMR(
                f"{name} takes no arguments but found {tokens[1][0]!r}", tokens[1][1]
            )
        return MeaningRepresentation(predicate, ())

    cursor = 1

    def expect(symbol: str) -> None:
        nonlocal cursor
        if cursor >= len(tokens):
            raise MalformedMR(f"expected {symbol!r} but input ended", len(normalized))
        tok, at = tokens[cursor]
        if tok != symbol:
            raise MalformedMR(f"expected {symbol!r}, found {tok!r}", at)
        cursor += 1

    expect("(")
    args: list[Constant] = []
    for position, sort in enumerate(predicate.argument_sorts):
        if position:
            expect(",")
        if cursor >= len(tokens):
            raise MalformedMR("expected an argument but input ended", len(normalized))
        tok, at = tokens[cursor]
        constant = _CONSTANT_BY_TOKEN.get(tok)
        if constant is None:
            raise MalformedMR(f"unknown constant {tok!r}", at)
        if constant.sort != sort:
            raise MalformedMR(
                f"arg {position + 1} of {name} must be {sort}, got {constant.sort}",
                at,
            )
        args.append(constant)
        cursor += 1
    expect(")")
    if cursor != len(tokens):
        tok, at = tokens[cursor]
        raise MalformedMR(f"unexpected trailing {tok!r}", at)
    return MeaningRepresentation(predicate, tuple(args))


_SLOT_RE = re.compile(r"<(\d+)>\Z")


@lru_cache(maxsize=1 << 16)
def template_items(
    template: tuple[str, ...],
) -> tuple[tuple[str | int, ...], tuple[int, ...]]:
    """The template with each "<i>" slot marker replaced by the int i, and
    its slot positions in order."""
    items = tuple(
        int(match.group(1)) if (match := _SLOT_RE.match(item)) else item
        for item in template
    )
    return items, tuple(item for item in items if isinstance(item, int))


def check_template(predicate: str, template: tuple[str, ...]) -> None:
    """Raise ValueError unless the template belongs to a grammar predicate and
    names each of its slots <1>..<arity> exactly once.  Every template the
    package learns, loads or simulates from obeys this rule."""
    if predicate not in _PREDICATE_BY_NAME:
        raise ValueError(f"unknown predicate {predicate!r}")
    arity = _PREDICATE_BY_NAME[predicate].arity
    _, slots = template_items(template)
    for slot in slots:
        if not 1 <= slot <= arity:
            raise ValueError(f"slot <{slot}> outside 1..{arity} for {predicate}")
        if slots.count(slot) > 1:
            raise ValueError(f"slot <{slot}> named twice")
    for slot in range(1, arity + 1):
        if slot not in slots:
            raise ValueError(f"missing slot <{slot}>")


def derivation(mr: MeaningRepresentation) -> tuple[Production, ...]:
    """Top-down left-most derivation: the *S rule, then one rule per argument."""
    head = _PRODUCTION_BY_KEY[mr.predicate.name]
    return (head,) + tuple(_PRODUCTION_BY_KEY[a.token] for a in mr.args)


@lru_cache(maxsize=1)
def enumerate_mrs() -> tuple[MeaningRepresentation, ...]:
    """All grammar-valid MRs, in canonical serialization order."""
    by_sort: dict[str, list[Constant]] = {PLAYER: [], PLAYMODE: []}
    for c in CONSTANTS:
        by_sort[c.sort].append(c)

    out: list[MeaningRepresentation] = []
    for p in PREDICATES:
        pools = [by_sort[s] for s in p.argument_sorts]
        stack: list[tuple[Constant, ...]] = [()]
        for pool in pools:
            stack = [args + (c,) for args in stack for c in pool]
        out.extend(MeaningRepresentation(p, args) for args in stack)
    out.sort(key=serialize_mr)
    return tuple(out)
