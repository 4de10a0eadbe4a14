"""Timestamped game events and commentary, ambiguous pairing, and corpus files.

A corpus holds one or more games.  Each game is an event trace plus a comment
stream; supervision is ambiguous because a comment is paired with every event
in the preceding window rather than with a single annotated meaning.  When a
gold matching is available it maps each comment to the event that actually
prompted it (or to nothing, for superfluous chatter), an event of that same
window.  event_window is the one window rule: pairing and gold resolution
both read it, and it sorts a game's events once.

The file helpers here (fmt, write_lines, read_text, read_lines,
read_records) are shared by every module that reads or writes files, and
at_line is the one rule for reporting a bad line: every reader wraps the
work on a line in it, so an error there reads `<file>:<line>: <reason>`.
"""

from __future__ import annotations

import bisect
import unicodedata
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import mrl
from .mrl import MeaningRepresentation

DEFAULT_WINDOW_MS = 5000


class FormatError(ValueError):
    """A bad line: `<file>:<line>: <reason>`, or `line <line>: <reason>` for
    text that came from no file."""

    def __init__(self, file: str | Path | None, line: int, reason: str) -> None:
        where = f"line {line}" if file is None else f"{file}:{line}"
        super().__init__(f"{where}: {reason}")
        self.file = file
        self.line = line
        self.reason = reason


class DanglingGoldReference(FormatError):
    """A gold entry that names a missing comment or an unmatchable event."""


# ---------------------------------------------------------------------------
# line files: UTF-8 text, one record per `\n`-terminated line, fields
# separated by tabs; whitespace-only lines are skipped on reading


def fmt(value) -> str:
    """A value as written to files: floats to 12 significant digits,
    booleans as true/false."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def lines_text(lines: Iterable[str]) -> str:
    return "".join(line + "\n" for line in lines)


def write_lines(path, lines: Iterable[str]) -> None:
    Path(path).write_text(lines_text(lines), encoding="utf-8", newline="\n")


def read_text(path) -> str:
    """The file decoded as UTF-8, each line break (LF, CRLF or CR) made LF;
    a byte that is not UTF-8 raises FormatError naming its line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as err:
        before = data[: err.start]
        lineno = before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n") + 1
        raise FormatError(
            str(path), lineno, f"byte 0x{data[err.start]:02x} is not valid UTF-8"
        ) from None


def read_lines(path) -> list[tuple[int, str]]:
    """(line number, text) for each line that is not whitespace-only; the
    numbers count physical lines, so errors point at the right one."""
    return [
        (lineno, line)
        for lineno, line in enumerate(read_text(path).split("\n"), start=1)
        if line.strip()
    ]


def split_fields(path, lineno: int, line: str, n: int) -> list[str]:
    fields = line.split("\t")
    if len(fields) != n:
        raise FormatError(str(path), lineno, f"expected {n} fields, got {len(fields)}")
    return fields


def read_records(path, n: int) -> list[tuple[int, list[str]]]:
    """(line number, fields) for each non-blank line of an n-field file."""
    return [
        (lineno, split_fields(path, lineno, line, n))
        for lineno, line in read_lines(path)
    ]


@contextmanager
def at_line(
    path: str | Path | None, lineno: int, reason: Callable[[Exception], str] = str
) -> Iterator[None]:
    """Report a ValueError or OSError raised in the block as
    FormatError(path, lineno, reason(error)); a FormatError passes through
    unchanged."""
    try:
        yield
    except FormatError:
        raise
    except (ValueError, OSError) as err:
        raise FormatError(path if path is None else str(path), lineno, reason(err)) from None


def check_unique(first_at: dict, key, path, lineno: int, what: str) -> None:
    """Record that key was read at lineno, or raise FormatError(path, lineno)
    naming `what` and the line that first gave key: a reader whose lines are
    keyed takes no key twice."""
    if key in first_at:
        raise FormatError(
            str(path), lineno, f"duplicate {what} (first at line {first_at[key]})"
        )
    first_at[key] = lineno


def key_values(
    lines: Iterable[tuple[int, str]], path: str | Path | None = None
) -> Iterator[tuple[int, str, str]]:
    """(line number, key, value) for each `key = value` line of a settings
    file; `#` starts a comment, and lines left empty are skipped."""
    for lineno, line in lines:
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(path, lineno, "expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        yield lineno, key, value


@dataclass(frozen=True)
class GameEvent:
    time_ms: int
    mr: MeaningRepresentation
    id: int


@dataclass(frozen=True)
class Comment:
    time_ms: int
    tokens: tuple[str, ...]
    raw: str
    language: str
    id: int


def tokenize(raw: str, language: str) -> tuple[str, ...]:
    """NFC-normalize and whitespace-split; English text is case-folded."""
    text = unicodedata.normalize("NFC", raw)
    if language == "en":
        text = text.lower()
    return tuple(text.split())


def make_comment(time_ms: int, raw: str, language: str, id: int) -> Comment:
    # Canonical raw form collapses whitespace runs so the text is TSV-safe.
    canonical = " ".join(unicodedata.normalize("NFC", raw).split())
    tokens = tokenize(canonical, language)
    if not tokens:
        raise ValueError("comment text must contain at least one token")
    return Comment(time_ms, tokens, canonical, language, id)


@dataclass(frozen=True)
class AmbiguousExample:
    comment: Comment
    candidates: tuple[GameEvent, ...]


@dataclass(frozen=True)
class GoldMatch:
    """Maps comment id to the id of its true event; None marks superfluous."""

    matches: dict[int, int | None] = field(default_factory=dict)


@dataclass(frozen=True)
class Game:
    name: str
    events: tuple[GameEvent, ...]
    comments: tuple[Comment, ...]
    gold: GoldMatch | None = None


@dataclass(frozen=True)
class Corpus:
    games: tuple[Game, ...]


class GameExample(NamedTuple):
    """An ambiguous example tagged with its game, for multi-game training."""

    game: str
    example: AmbiguousExample

    @property
    def key(self) -> tuple[str, int]:
        return (self.game, self.example.comment.id)


EventWindow = Callable[[int], tuple[GameEvent, ...]]


def event_window(events: Iterable[GameEvent], window_ms: int) -> EventWindow:
    """The one pairing-window rule, for one game's events.

    Sorts the events once by (time, id); the returned function gives the
    events at most window_ms before a time, in that order.  Both bounds are
    inclusive: an event at the comment's own timestamp and one exactly
    window_ms earlier are both in the comment's window.
    """
    ordered = sorted(events, key=lambda e: (e.time_ms, e.id))
    times = [e.time_ms for e in ordered]

    def window(time_ms: int) -> tuple[GameEvent, ...]:
        lo = bisect.bisect_left(times, time_ms - window_ms)
        return tuple(ordered[lo : bisect.bisect_right(times, time_ms, lo)])

    return window


def pair_with_window(
    events: Iterable[GameEvent],
    comments: Iterable[Comment],
    window_ms: int = DEFAULT_WINDOW_MS,
) -> list[AmbiguousExample]:
    """Each comment whose window (see event_window) holds an event, paired
    with every event in it.  Comments with no candidate are omitted: they
    cannot supervise anything."""
    window = event_window(events, window_ms)
    examples = (AmbiguousExample(c, window(c.time_ms)) for c in comments)
    return [ex for ex in examples if ex.candidates]


def candidate_stats(counts: Sequence[int]) -> dict:
    """Summary of per-comment candidate counts (population stddev)."""
    n = len(counts)
    mean = sum(counts) / n if n else 0.0
    # Added left to right on every Python version (from 3.12 builtin sum
    # compensates its rounding).
    squares = 0.0
    for c in counts:
        squares += (c - mean) ** 2
    var = squares / n if n else 0.0
    return {
        "with_candidates": n,
        "max_candidates": max(counts, default=0),
        "mean_candidates": mean,
        "stddev_candidates": var**0.5,
    }


def resolve_gold_event(
    window: EventWindow, comment_time_ms: int, mr: MeaningRepresentation
) -> GameEvent | None:
    """The first event of the comment's window (see event_window) that bears
    the given MR, or None.

    Gold files store an MR surface rather than an event id, so two identical
    events inside one window are indistinguishable there.  Resolution always
    picks the earliest, the same preference the disambiguation loop uses for
    score ties, so a matcher that recovers the right MR is never penalized.
    """
    return next((e for e in window(comment_time_ms) if e.mr == mr), None)


def pooled_examples(
    games: Iterable[Game], window_ms: int = DEFAULT_WINDOW_MS
) -> list[GameExample]:
    out = []
    for game in games:
        for ex in pair_with_window(game.events, game.comments, window_ms):
            out.append(GameExample(game.name, ex))
    return out


def gold_event_mrs(game: Game) -> dict[int, mrl.MeaningRepresentation | None]:
    """Each gold-annotated comment id, ascending, with the MR of the event it
    describes (None for chatter); empty for a game without gold."""
    if game.gold is None:
        return {}
    by_id = {e.id: e for e in game.events}
    return {
        comment_id: None if event_id is None else by_id[event_id].mr
        for comment_id, event_id in sorted(game.gold.matches.items())
    }


def pooled_gold(games: Iterable[Game]) -> dict[tuple[str, int], int | None]:
    gold: dict[tuple[str, int], int | None] = {}
    for game in games:
        if game.gold is None:
            continue
        for comment_id, event_id in game.gold.matches.items():
            gold[(game.name, comment_id)] = event_id
    return gold


def _load_events(path: Path) -> tuple[GameEvent, ...]:
    events = []
    last_time = -1
    for lineno, parts in read_records(path, 2):
        with at_line(path, lineno, lambda _: f"bad timestamp {parts[0]!r}"):
            time_ms = int(parts[0])
        if time_ms < 0:
            raise FormatError(str(path), lineno, "negative timestamp")
        if time_ms < last_time:
            raise FormatError(str(path), lineno, "event times must be non-decreasing")
        with at_line(path, lineno, lambda err: f"bad MR: {err}"):
            mr = mrl.parse_mr(parts[1])
        events.append(GameEvent(time_ms, mr, len(events)))
        last_time = time_ms
    return tuple(events)


def _load_comments(path: Path) -> tuple[Comment, ...]:
    comments = []
    for lineno, parts in read_records(path, 3):
        with at_line(path, lineno, lambda _: f"bad timestamp {parts[0]!r}"):
            time_ms = int(parts[0])
        with at_line(path, lineno):
            comments.append(make_comment(time_ms, parts[2], parts[1], len(comments)))
    return tuple(comments)


def _load_gold(
    path: Path,
    events: tuple[GameEvent, ...],
    comments: tuple[Comment, ...],
    window_ms: int,
) -> GoldMatch:
    window = event_window(events, window_ms)
    matches: dict[int, int | None] = {}
    for lineno, parts in read_records(path, 2):
        with at_line(path, lineno, lambda _: f"bad comment id {parts[0]!r}"):
            comment_id = int(parts[0])
        if not 0 <= comment_id < len(comments):
            raise DanglingGoldReference(
                str(path), lineno, f"comment id {comment_id} not in corpus"
            )
        if parts[1] == "NONE":
            matches[comment_id] = None
            continue
        with at_line(path, lineno, lambda err: f"bad MR: {err}"):
            mr = mrl.parse_mr(parts[1])
        event = resolve_gold_event(window, comments[comment_id].time_ms, mr)
        if event is None:
            raise DanglingGoldReference(
                str(path),
                lineno,
                f"no event {parts[1]!r} within {window_ms} ms of comment {comment_id}",
            )
        matches[comment_id] = event.id
    return GoldMatch(matches)


def load_corpus(manifest_path: str | Path, window_ms: int = DEFAULT_WINDOW_MS) -> Corpus:
    if window_ms < 0:
        raise ValueError(f"window_ms must not be negative, got {window_ms}")
    manifest = Path(manifest_path)
    base = manifest.parent
    games = []
    first_at: dict[str, int] = {}
    for lineno, (name, events_rel, comments_rel, gold_rel) in read_records(manifest, 4):
        if not name.strip():
            raise FormatError(str(manifest), lineno, "empty game name")
        check_unique(first_at, name, manifest, lineno, f"game {name!r}")
        # a file the row names that cannot be opened is reported at the row
        with at_line(manifest, lineno):
            events = _load_events(base / events_rel)
            comments = _load_comments(base / comments_rel)
            gold = None
            if gold_rel != "-":
                gold = _load_gold(base / gold_rel, events, comments, window_ms)
        games.append(Game(name, events, comments, gold))
    return Corpus(tuple(games))


def write_corpus(corpus: Corpus, out_dir: str | Path) -> Path:
    """Write canonical corpus files plus a manifest; returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest_lines = []
    for game in corpus.games:
        events_name = f"{game.name}.events.tsv"
        comments_name = f"{game.name}.comments.tsv"
        gold_name = f"{game.name}.gold.tsv" if game.gold is not None else "-"

        write_lines(
            out / events_name,
            (f"{e.time_ms}\t{mrl.serialize_mr(e.mr)}" for e in game.events),
        )
        write_lines(
            out / comments_name,
            (f"{c.time_ms}\t{c.language}\t{c.raw}" for c in game.comments),
        )

        if game.gold is not None:
            write_lines(out / gold_name, (
                f"{comment_id}\t{'NONE' if mr is None else mrl.serialize_mr(mr)}"
                for comment_id, mr in gold_event_mrs(game).items()
            ))

        manifest_lines.append(
            f"{game.name}\t{events_name}\t{comments_name}\t{gold_name}"
        )

    manifest = out / "manifest.tsv"
    write_lines(manifest, manifest_lines)
    return manifest
