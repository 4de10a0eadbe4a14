"""Strategic generation: which event types are worth talking about.

igsl estimates a per-predicate probability of being commented on without
any matching: it distributes each sentence's single match over its
candidate event types in proportion to the current probabilities and
iterates to a fixed point (synchronous updates, min(.,1) clamp).  A
sentence's shares depend only on its candidate types in candidate order and
on the current probabilities, so each iteration splits every distinct type
sequence in one (sequences x types) array pass and adds the shares sentence
by sentence, in corpus order, with a running sum down the sentence axis.
Each sum adds the same terms in the same order as a per-sentence split
would, so every probability is the same to the last bit.

select_event and assemble_sportscast turn a strategic model into an actual
transcript: stage 1 picks among co-occurring events by normalized
probability, stage 2 keeps the pick with its own probability, and the
tactical generator verbalizes it.

save_strategic and load_strategic keep the model in `strategic.tsv`, one
`predicate TAB probability TAB events` line per event type.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import mrl, translator
from .corpus import (
    AmbiguousExample, GameEvent, at_line, check_unique, fmt, read_records, write_lines,
)
from .simgen import Prng

DEFAULT_MAX_ITER = 50
_TOLERANCE = 1e-9
TICK_MS = 1000
_PREDICATE_NAMES = frozenset(p.name for p in mrl.PREDICATES)


class EmptyCandidates(ValueError):
    pass


@dataclass
class StrategicModel:
    prob: dict[str, float]
    total_count: dict[str, int] = field(default_factory=dict)

    def probability(self, predicate: str) -> float:
        return self.prob.get(predicate, 0.0)


def count_event_types(events: Iterable[GameEvent]) -> dict[str, int]:
    counts: Counter = Counter(e.mr.predicate.name for e in events)
    return dict(counts)


def _split(weighted: np.ndarray) -> np.ndarray:
    """Each row's entries over the row's total, added left to right; a row
    whose total is not positive gets zeros."""
    totals = np.cumsum(weighted, axis=1)[:, -1:]
    # not (total <= 0), as a scalar test reads it: a NaN total still divides
    divides = ~(totals <= 0.0)
    return np.divide(weighted, totals, out=np.zeros_like(weighted), where=divides)


def igsl(
    examples: Sequence[AmbiguousExample],
    total_count: Mapping[str, int],
    max_iter: int = DEFAULT_MAX_ITER,
) -> StrategicModel:
    """Iterative strategy learning over ambiguous examples.

    All probabilities start at 1, so the first iteration hands each sentence's
    match out inversely proportional to its ambiguity; updates are synchronous
    (every share in an iteration uses the previous iteration's probabilities).
    With no example every probability is 0, and with no event type either
    the model is empty.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    sentences: list[tuple[str, ...]] = []
    for example in examples:
        if not example.candidates:
            raise EmptyCandidates(
                f"comment {example.comment.id} has no candidate events"
            )
        sentences.append(tuple(e.mr.predicate.name for e in example.candidates))
    predicates = sorted({p for names in sentences for p in names} | set(total_count))
    if not sentences:
        # no sentence describes anything: every type's probability is 0
        return StrategicModel(
            prob=dict.fromkeys(predicates, 0.0), total_count=dict(total_count)
        )
    column = {p: i for i, p in enumerate(predicates)}
    # One row per distinct sequence: its types in first-reach order, then
    # pads that point at an extra always-zero column and add 0.0.
    rows = {names: i for i, names in enumerate(dict.fromkeys(sentences))}
    weights = [Counter(names) for names in rows]
    width = max(len(counts) for counts in weights)
    types = np.full((len(rows), width), len(predicates), dtype=np.intp)
    multiplicity = np.zeros((len(rows), width))
    for row, counts in enumerate(weights):
        types[row, : len(counts)] = [column[p] for p in counts]
        multiplicity[row, : len(counts)] = list(counts.values())
    sentence_rows = np.array([rows[names] for names in sentences], dtype=np.intp)
    totals = np.array([total_count.get(p, 0) for p in predicates], dtype=np.float64)
    counted = totals != 0
    prob = np.ones(len(predicates) + 1)
    prob[-1] = 0.0
    for _ in range(max_iter):
        shares = np.zeros((len(rows), len(predicates) + 1))
        np.put_along_axis(shares, types, _split(prob[types] * multiplicity), axis=1)
        # a running sum adds each type's shares one sentence at a time
        match_count = np.cumsum(shares[sentence_rows], axis=0)[-1, :-1]
        ratio = np.divide(match_count, totals, out=np.zeros_like(totals), where=counted)
        updated = np.minimum(ratio, 1.0)
        delta = np.abs(updated - prob[:-1]).max()
        prob[:-1] = updated
        if delta < _TOLERANCE:
            break
    return StrategicModel(
        prob=dict(zip(predicates, prob[:-1].tolist())), total_count=dict(total_count)
    )


def select_event(
    events: Sequence[GameEvent], model: StrategicModel, prng: Prng
) -> GameEvent | None:
    """Two-stage stochastic pick: normalized choice, then a keep/drop coin.

    Draw order: one uniform for stage 1 (skipped when the normalizer is 0),
    one uniform for stage 2.
    """
    if not events:
        raise EmptyCandidates("no co-occurring events to select from")
    weights = [model.probability(e.mr.predicate.name) for e in events]
    # Added left to right on every Python version (from 3.12 builtin sum
    # compensates its rounding), as Prng.weighted_index adds them.
    normalizer = 0.0
    for weight in weights:
        normalizer += weight
    if normalizer <= 0.0:
        return None
    pick = prng.weighted_index(weights)
    if prng.uniform() < weights[pick]:
        return events[pick]
    return None


def assemble_sportscast(
    events: Sequence[GameEvent],
    model: StrategicModel,
    translation: translator.TranslationModel,
    k: int = translator.DEFAULT_TOPK,
    *,
    prng: Prng,
) -> tuple[list[tuple[int, mrl.MeaningRepresentation, tuple[str, ...]]], list[str]]:
    """Walk the timeline in ticks, verbalizing stochastically chosen events;
    prng makes every draw.

    Returns (transcript, skipped): transcript entries are (tick time, MR,
    sentence); skipped collects the predicates that had no learned template,
    one entry per skipped event.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    transcript = []
    skipped: list[str] = []
    by_tick: dict[int, list[GameEvent]] = defaultdict(list)
    for event in events:
        by_tick[event.time_ms // TICK_MS].append(event)
    for tick in sorted(by_tick):
        chosen = select_event(by_tick[tick], model, prng)
        if chosen is None:
            continue
        try:
            candidates = translator.generate_topk(chosen.mr, translation, k)
        except translator.NoTemplate:
            skipped.append(chosen.mr.predicate.name)
            continue
        scores = [score for _, score in candidates]
        total = 0.0
        for score in scores:
            total += score
        if total > 0.0:
            sentence = candidates[prng.weighted_index(scores)][0]
        else:
            sentence = candidates[0][0]
        transcript.append((tick * TICK_MS, chosen.mr, sentence))
    return transcript, skipped


def predicate_order(model: StrategicModel) -> list[str]:
    """The model's event types in grammar order, then any others sorted."""
    grammar_order = [p.name for p in mrl.PREDICATES if p.name in model.prob]
    return grammar_order + sorted(set(model.prob) - set(grammar_order))


def save_strategic(model: StrategicModel, path) -> None:
    write_lines(path, (
        f"{predicate}\t{fmt(model.prob[predicate])}\t{model.total_count.get(predicate, 0)}"
        for predicate in predicate_order(model)
    ))


def load_strategic(path) -> StrategicModel:
    """Inverse of save_strategic; a malformed line raises FormatError naming
    its file and line.  A predicate must be one of the grammar's, on one line
    only: select_event looks events up by their grammar name, so a misspelt
    one would silently never be spoken.  A probability must be a number in
    [0, 1] and a count must not be negative: a NaN would poison every
    select_event draw."""
    prob: dict[str, float] = {}
    total: dict[str, int] = {}
    first_at: dict[str, int] = {}
    for lineno, (predicate, p, count) in read_records(path, 3):
        check_unique(first_at, predicate, path, lineno, f"predicate {predicate!r}")
        with at_line(path, lineno):
            if predicate not in _PREDICATE_NAMES:
                raise ValueError(f"unknown predicate {predicate!r}")
            prob[predicate] = float(p)
            total[predicate] = int(count)
            if not 0.0 <= prob[predicate] <= 1.0:
                raise ValueError(f"probability {p!r} not in [0, 1]")
            if total[predicate] < 0:
                raise ValueError(f"negative count {count!r}")
    return StrategicModel(prob=prob, total_count=total)
