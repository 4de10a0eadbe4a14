"""Synthetic game and commentary generator with known gold matchings.

Everything stochastic flows through one splitmix64 stream per generator so a
(config, profile) pair yields byte-identical corpora on every run and
platform.  The draw order is part of the contract:

  simulate_events: per event, one uniform for the gap, one for the predicate,
  then one per argument.

  commentate: per event, one uniform for the comment decision, then (only if
  commented) one for the lag, one for the template, and one per argument
  position for its surface form.  After the event pass, one uniform per
  normal comment decides whether to add a superfluous comment; each addition
  draws one uniform for its time, one for its length, and one per word.

splitmix64 is counter-based: draw k of a stream depends only on its seed and
k.  So Prng computes its floats a block at a time in one numpy pass and
serves them in order; the draws, their order and the bytes written are the
ones a one-draw-at-a-time generator gives.  A caller that draws once from
a fresh stream (derive_seed, learner.validation_split) reads next(), which
builds no block.  Each call works out its per-game constants (weight
totals, constant lists, the gap's log rate) once.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import mrl
from .corpus import (
    DEFAULT_WINDOW_MS,
    Comment,
    Corpus,
    Game,
    GameEvent,
    GoldMatch,
    at_line,
    event_window,
    key_values,
    make_comment,
    ordered_sum,
    resolve_gold_event,
)

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_BLOCK = 256
# golden * k mod 2**64 for k = 1.._BLOCK: a block's counters past its origin
_BLOCK_STEPS = np.arange(1, _BLOCK + 1, dtype=np.uint64) * np.uint64(_GOLDEN)


class EmptyLexicon(ValueError):
    """A commentable predicate has no usable template."""


class InvalidSetting(ValueError):
    """A WorldConfig or CommentatorProfile value that its check rejects;
    settings are the load_config keys whose values the check read."""

    def __init__(self, message: str, *settings: str) -> None:
        super().__init__(message)
        self.settings = settings


class Prng:
    """splitmix64: tiny, fast, and identical across implementations.

    The stream is counter-based: draw k (1-based) of seed s is
    mix((s + k * golden) mod 2**64), and state is the sum after the draws
    taken.  next() and uniform() advance one counter, so they mix freely.
    uniform() serves its floats from blocks of _BLOCK draws, each computed in
    one numpy uint64 pass that rounds exactly as next() / 2**64 does.
    """

    __slots__ = ("_origin", "_pos", "_end", "_floats")

    def __init__(self, seed: int) -> None:
        # state = _origin + golden * _pos; for i < _end, _floats[i] is the
        # float of draw i + 1 past _origin (unset until the first block)
        self._origin = seed & _MASK
        self._pos = self._end = 0

    @property
    def state(self) -> int:
        return (self._origin + _GOLDEN * self._pos) & _MASK

    def next(self) -> int:
        self._pos = pos = self._pos + 1
        z = (self._origin + _GOLDEN * pos) & _MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        pos = self._pos
        if pos < self._end:
            self._pos = pos + 1
            return self._floats[pos]
        self._origin = origin = self.state
        z = _BLOCK_STEPS + np.uint64(origin)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        self._floats = (z.astype(np.float64) * 2.0**-64).tolist()
        self._end = _BLOCK
        self._pos = 1
        return self._floats[0]

    def uniform_int(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], both ends inclusive."""
        return lo + int(self.uniform() * (hi - lo + 1))

    def weighted_index(self, weights: list[float]) -> int:
        """An index drawn in proportion to its weight (weights >= 0), by
        cumulative_index over the running totals, added left to right as
        corpus.ordered_sum adds them."""
        return self.cumulative_index(list(itertools.accumulate(weights)))

    def cumulative_index(self, totals: list[float]) -> int:
        """The first index whose running total exceeds one uniform draw times
        the last total, or the last index.  totals must not decrease.  A
        caller that draws from one weight list many times adds it up once."""
        return bisect.bisect_right(totals, self.uniform() * totals[-1], 0, len(totals) - 1)


def derive_seed(base: int, index: int, stream: int) -> int:
    """Decorrelated per-game seed for a numbered stream (0 world, 1 commentary)."""
    mixed = (base + _GOLDEN * index + 0x632BE59BD9B4E019 * stream) & _MASK
    return Prng(mixed).next()


@dataclass(frozen=True)
class WorldConfig:
    duration_ms: int
    mean_event_gap_ms: int
    event_type_weights: dict[str, float]
    seed: int

    def __post_init__(self) -> None:
        if self.duration_ms <= 0:
            raise InvalidSetting("duration_ms must be positive", "duration_ms")
        _check_weights(
            [(f"weight.{name}", w) for name, w in self.event_type_weights.items()], "event"
        )


def _check_weights(weights: list[tuple[str, float]], what: str) -> None:
    """(setting, weight) pairs that one weighted draw reads: each weight must
    be finite and nonnegative, and their total, added left to right as
    Prng.weighted_index adds it, positive and finite."""
    for setting, weight in weights:
        if not math.isfinite(weight):
            raise InvalidSetting(f"{what} weights must be finite, got {weight}", setting)
        if weight < 0:
            raise InvalidSetting(f"{what} weights must be nonnegative", setting)
    total = ordered_sum(weight for _, weight in weights)
    settings = [setting for setting, _ in weights]
    if total <= 0:
        raise InvalidSetting(f"at least one {what} weight must be positive", *settings)
    if total == math.inf:
        raise InvalidSetting(f"{what} weights must have a finite total", *settings)


Template = tuple[tuple[str, ...], float]


@dataclass(frozen=True)
class CommentatorProfile:
    comment_prob: dict[str, float]
    lexicon: dict[str, list[Template]]
    superfluous_rate: float
    lag_ms_range: tuple[int, int]
    superfluous_vocabulary: tuple[str, ...]
    seed: int
    language: str = "en"

    def __post_init__(self) -> None:
        for name, p in self.comment_prob.items():
            if not 0.0 <= p <= 1.0:
                raise InvalidSetting(
                    f"comment_prob[{name}] out of [0,1]", f"comment_prob.{name}"
                )
        if not 0.0 <= self.superfluous_rate:
            raise InvalidSetting("superfluous_rate must be nonnegative", "superfluous_rate")
        lo, hi = self.lag_ms_range
        if not 0 <= lo <= hi <= DEFAULT_WINDOW_MS:
            raise InvalidSetting(
                f"lag_ms_range ({lo}, {hi}) must satisfy 0 <= lag_ms_min <= "
                f"lag_ms_max <= {DEFAULT_WINDOW_MS} ms, the pairing window",
                "lag_ms_min", "lag_ms_max",
            )
        predicates = {p.name for p in mrl.PREDICATES}
        for name, options in self.lexicon.items():
            kind = "template" if name in predicates else "surface"
            _check_weights([(f"{kind}.{name}", w) for _, w in options], f"{name} {kind}")


def _validate_templates(profile: CommentatorProfile) -> None:
    for predicate in mrl.PREDICATES:
        if profile.comment_prob.get(predicate.name, 0.0) <= 0.0:
            continue
        templates = profile.lexicon.get(predicate.name, [])
        if not templates:
            raise EmptyLexicon(f"no template for commentable predicate {predicate.name}")
        for words, _ in templates:
            try:
                mrl.check_template(predicate.name, words)
            except ValueError as err:
                raise ValueError(
                    f"template for {predicate.name} {' '.join(words)!r}: {err}"
                ) from None


def simulate_events(config: WorldConfig) -> list[GameEvent]:
    """Event trace with geometric gaps and weight-proportional predicates.

    Events that draw the same predicate and arguments share one MR object."""
    prng = Prng(config.seed)
    gap = config.mean_event_gap_ms
    log_keep = math.log(1.0 - 1.0 / gap) if gap > 1 else None
    by_sort = {
        sort: [c for c in mrl.CONSTANTS if c.sort == sort] for sort in (mrl.PLAYER, mrl.PLAYMODE)
    }
    drawn = [p for p in mrl.PREDICATES if config.event_type_weights.get(p.name, 0.0) > 0]
    totals = list(itertools.accumulate(config.event_type_weights[p.name] for p in drawn))
    choices = [(p, [by_sort[sort] for sort in p.argument_sorts]) for p in drawn]
    interned: dict[tuple[int, ...], mrl.MeaningRepresentation] = {}

    events: list[GameEvent] = []
    t = 0
    while True:
        t += _geometric_gap(prng.uniform(), log_keep)
        if t >= config.duration_ms:
            break
        index = prng.cumulative_index(totals)
        predicate, constants = choices[index]
        picks = [prng.uniform_int(0, len(options) - 1) for options in constants]
        key = (index, *picks)
        mr = interned.get(key)
        if mr is None:
            args = tuple(options[i] for options, i in zip(constants, picks))
            mr = interned[key] = mrl.MeaningRepresentation(predicate, args)
        events.append(GameEvent(t, mr, len(events)))
    return events


def _geometric_gap(u: float, log_keep: float | None) -> int:
    """Geometric gap for the uniform draw u, where log_keep is
    log(1 - 1/mean gap), or None when every gap is 1 ms.  math.log, not
    np.log: a last-bit difference would move a gap by 1 ms."""
    if log_keep is None:
        return 1
    return 1 + int(math.log(1.0 - u) / log_keep)


def _realize(
    prng: Prng,
    template: tuple[str, ...],
    mr: mrl.MeaningRepresentation,
    lexicon: dict[str, tuple[list[tuple[str, ...]], list[float]]],
) -> list[str]:
    """The template with each slot filled by a surface drawn for its
    argument, one draw per argument in argument order; a token without a
    surface list is its own surface."""
    surfaces = []
    for arg in mr.args:
        phrases, totals = lexicon.get(arg.token, ([(arg.token,)], [1.0]))
        surfaces.append(phrases[prng.cumulative_index(totals)])
    words: list[str] = []
    for item in mrl.template_items(template)[0]:
        if isinstance(item, int):
            words.extend(surfaces[item - 1])
        else:
            words.append(item)
    return words


def commentate(
    events: list[GameEvent], profile: CommentatorProfile
) -> tuple[tuple[Comment, ...], GoldMatch]:
    """Comment stream plus the gold matching that produced it.

    Gold entries are canonicalized through corpus.resolve_gold_event at the
    default window, the rule the corpus loader applies, so writing and
    reloading a generated corpus reproduces the matching exactly.  The
    profile keeps every lag within that window, so the described event is
    always in the comment's window.
    """
    _validate_templates(profile)
    prng = Prng(profile.seed)
    lag_lo, lag_hi = profile.lag_ms_range
    duration_ms = events[-1].time_ms + 1 if events else 1
    # each template and surface list as its phrases and the running totals
    # of their weights, added left to right as Prng.weighted_index adds them
    lexicon = {
        name: ([words for words, _ in options], list(itertools.accumulate(w for _, w in options)))
        for name, options in profile.lexicon.items()
    }

    drafted: list[tuple[int, list[str], mrl.MeaningRepresentation | None]] = []
    for event in events:
        name = event.mr.predicate.name
        if prng.uniform() >= profile.comment_prob.get(name, 0.0):
            continue
        lag = prng.uniform_int(lag_lo, lag_hi)
        templates, totals = lexicon[name]
        words = _realize(prng, templates[prng.cumulative_index(totals)], event.mr, lexicon)
        drafted.append((event.time_ms + lag, words, event.mr))

    n_normal = len(drafted)
    vocabulary = profile.superfluous_vocabulary
    for _ in range(n_normal):
        if prng.uniform() >= profile.superfluous_rate:
            continue
        if not vocabulary:
            raise EmptyLexicon("superfluous_rate > 0 needs a superfluous vocabulary")
        time_ms = int(prng.uniform() * duration_ms)
        length = prng.uniform_int(3, 7)
        words = [
            vocabulary[prng.uniform_int(0, len(vocabulary) - 1)] for _ in range(length)
        ]
        drafted.append((time_ms, words, None))

    drafted.sort(key=lambda item: item[0])
    window = event_window(events, DEFAULT_WINDOW_MS)
    comments: list[Comment] = []
    matches: dict[int, int | None] = {}
    for comment_id, (time_ms, words, mr) in enumerate(drafted):
        comments.append(
            make_comment(time_ms, " ".join(words), profile.language, comment_id)
        )
        matches[comment_id] = (
            None if mr is None else resolve_gold_event(window, time_ms, mr).id
        )
    return tuple(comments), GoldMatch(matches)


def simulate_corpus(
    world: WorldConfig,
    profile: CommentatorProfile,
    games: int,
    name_prefix: str = "game",
) -> Corpus:
    """Generate `games` independent games with per-game derived seeds."""
    if games < 1:
        raise ValueError(f"games must be at least 1, got {games}")
    out = []
    for i in range(games):
        game_world = replace(world, seed=derive_seed(world.seed, i, 0))
        game_profile = replace(profile, seed=derive_seed(profile.seed, i, 1))
        events = simulate_events(game_world)
        comments, gold = commentate(events, game_profile)
        out.append(Game(f"{name_prefix}{i + 1}", tuple(events), comments, gold))
    return Corpus(tuple(out))


def default_world(seed: int = 0) -> WorldConfig:
    """Event mix weighted like the observed frequencies of the dominant event types."""
    # A 3500 ms mean gap yields ~2.3 candidates per comment under the 5 s
    # pairing window, the ambiguity regime the learners are designed for.
    return WorldConfig(
        duration_ms=600_000,
        mean_event_gap_ms=3500,
        event_type_weights={
            "ballstopped": 5817,
            "kick": 2122,
            "pass": 1069,
            "turnover": 566,
            "badPass": 371,
            "playmode": 240,
            "defense": 130,
            "steal": 160,
            "block": 90,
        },
        seed=seed,
    )


def default_profile(seed: int = 1) -> CommentatorProfile:
    return CommentatorProfile(
        comment_prob={
            "ballstopped": 1.72e-4,
            "kick": 0.033,
            "pass": 0.999,
            "turnover": 0.214,
            "badPass": 0.429,
            "playmode": 0.12,
            "defense": 0.35,
            "steal": 0.42,
            "block": 0.5,
        },
        lexicon={
            "playmode": [
                (("the", "play", "mode", "is", "now", "<1>"), 3.0),
                (("<1>", "is", "called"), 1.0),
            ],
            "ballstopped": [
                (("the", "ball", "has", "stopped"), 3.0),
                (("the", "ball", "is", "loose"), 1.0),
            ],
            "turnover": [
                (("<2>", "takes", "the", "ball", "away", "from", "<1>"), 3.0),
                (("<1>", "loses", "the", "ball", "to", "<2>"), 2.0),
            ],
            "kick": [
                (("<1>", "kicks", "the", "ball"), 3.0),
                (("a", "long", "kick", "by", "<1>"), 1.0),
            ],
            "pass": [
                (("<1>", "passes", "to", "<2>"), 3.0),
                (("<1>", "kicks", "the", "ball", "out", "to", "<2>"), 1.0),
            ],
            "badPass": [
                (("<1>", "makes", "a", "bad", "pass", "picked", "off", "by", "<2>"), 3.0),
                (("<1>", "gives", "the", "ball", "away", "to", "<2>"), 1.0),
            ],
            "defense": [
                (("<2>", "holds", "off", "the", "attack", "from", "<1>"), 2.0),
                (("<2>", "defends", "against", "<1>"), 1.0),
            ],
            "steal": [
                (("<1>", "steals", "the", "ball"), 3.0),
                (("what", "a", "steal", "by", "<1>"), 1.0),
            ],
            "block": [
                (("<1>", "blocks", "the", "shot"), 2.0),
                (("a", "big", "block", "by", "<1>"), 1.0),
            ],
        },
        superfluous_rate=0.22,
        lag_ms_range=(200, 4800),
        superfluous_vocabulary=(
            "what", "a", "great", "game", "folks", "the", "crowd", "is",
            "loving", "this", "an", "amazing", "day", "for", "soccer",
            "fans", "are", "cheering",
        ),
        seed=seed,
    )


@dataclass(frozen=True)
class SimulationSpec:
    world: WorldConfig
    profile: CommentatorProfile
    games: int = 4
    name_prefix: str = "game"


def load_config(path: str | Path) -> SimulationSpec:
    """Read a `key = value` configuration file; later lines override earlier
    ones.

    `template.<pred>` and `surface.<token>` lines accumulate; the first such
    line for a key replaces that key's default list.  Template and surface
    values are word sequences, optionally followed by `| weight`; a template
    must name each slot <1>..<arity> once (mrl.check_template).  A bad line
    raises FormatError naming the file and line; a value that only the
    WorldConfig or CommentatorProfile check rejects is reported at the
    last line that set one of the keys the check read.
    """
    world = default_world()
    profile = default_profile()
    games = 4
    name_prefix = "game"

    weights = dict(world.event_type_weights)
    comment_prob = dict(profile.comment_prob)
    lexicon = {k: list(v) for k, v in profile.lexicon.items()}
    replaced_lexicon_keys: set[str] = set()
    world_fields: dict[str, int] = {}
    profile_fields: dict[str, object] = {}
    predicate_names = {p.name for p in mrl.PREDICATES}
    constant_tokens = {c.token for c in mrl.CONSTANTS}
    lines: dict[str, int] = {}

    for lineno, key, value in key_values(path):
        lines[key] = lineno
        with at_line(path, lineno):
            if key == "seed":
                world_fields["seed"] = int(value)
            elif key == "duration_ms":
                world_fields["duration_ms"] = int(value)
            elif key == "mean_event_gap_ms":
                world_fields["mean_event_gap_ms"] = int(value)
            elif key.startswith("weight."):
                name = key[len("weight."):]
                if name not in predicate_names:
                    raise ValueError(f"unknown predicate {name!r}")
                weights[name] = float(value)
            elif key == "commentator_seed":
                profile_fields["seed"] = int(value)
            elif key == "language":
                profile_fields["language"] = value
            elif key == "superfluous_rate":
                profile_fields["superfluous_rate"] = float(value)
            elif key == "lag_ms_min":
                lo, hi = profile_fields.get("lag_ms_range", profile.lag_ms_range)
                profile_fields["lag_ms_range"] = (int(value), hi)
            elif key == "lag_ms_max":
                lo, hi = profile_fields.get("lag_ms_range", profile.lag_ms_range)
                profile_fields["lag_ms_range"] = (lo, int(value))
            elif key == "superfluous_words":
                profile_fields["superfluous_vocabulary"] = tuple(value.split())
            elif key.startswith("comment_prob."):
                name = key[len("comment_prob."):]
                if name not in predicate_names:
                    raise ValueError(f"unknown predicate {name!r}")
                comment_prob[name] = float(value)
            elif key.startswith("template.") or key.startswith("surface."):
                prefix, name = key.split(".", 1)
                valid = predicate_names if prefix == "template" else constant_tokens
                if name not in valid:
                    raise ValueError(f"unknown {prefix} key {name!r}")
                words, weight = _parse_weighted_words(value)
                if prefix == "template":
                    mrl.check_template(name, words)
                if name not in replaced_lexicon_keys:
                    lexicon[name] = []
                    replaced_lexicon_keys.add(name)
                lexicon[name].append((words, weight))
            elif key == "games":
                games = int(value)
                if games < 1:
                    raise ValueError(f"games must be at least 1, got {games}")
            elif key == "name_prefix":
                name_prefix = value
            else:
                raise ValueError(f"unknown key {key!r}")

    try:
        world = replace(world, event_type_weights=weights, **world_fields)
        profile = replace(
            profile, comment_prob=comment_prob, lexicon=lexicon, **profile_fields
        )
    except InvalidSetting as err:
        with at_line(path, max(lines[key] for key in err.settings if key in lines)):
            raise
    return SimulationSpec(world, profile, games, name_prefix)


def _parse_weighted_words(value: str) -> Template:
    if "|" in value:
        words_part, weight_part = value.rsplit("|", 1)
        try:
            weight = float(weight_part)
        except ValueError:
            raise ValueError(f"bad weight {weight_part!r}") from None
    else:
        words_part, weight = value, 1.0
    words = tuple(words_part.split())
    if not words:
        raise ValueError("empty phrase")
    return words, weight

