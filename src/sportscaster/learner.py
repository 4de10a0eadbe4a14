"""Disambiguation by retraining: turn ambiguous supervision into a model.

One loop serves every strategy.  Each iteration picks one candidate per
sentence, prunes the lowest-scoring fraction of the picks, and retrains
from scratch on the rest, until an iteration picks what the one before it
did or max_iter iterations have run.  A scored strategy first trains on
every (sentence, candidate) pair, or on external seed pairs, and then picks
each sentence's best candidate under the current model:

  parse_score  Model-1 parse likelihood of the pair
  nist_gen     NIST between the sentence and the MR's best generation
  meteor_gen   METEOR between the sentence and the MR's best generation
  nist_igsl    nist_gen times the IGSL probability of the MR's type
  meteor_igsl  meteor_gen times the IGSL probability of the MR's type

The generation-scored strategies read the whole translation model, so
each training builds all of it, but for the LM when the loop's previous
training fit one on the same sentences: without pruning, every training
from the third on takes its predecessor's.  A candidate's best generation
comes from translator.generate_topk, which keeps each result for the
model's life: an iteration searches each distinct candidate MR once, and
the next iteration's retrained model starts with none kept.  A
candidate's cap is the metric's ceiling times its IGSL weight, and IGSL
runs once per loop, so each loop puts every comment's candidates in
descending cap order once; an iteration scores them in that order and
stops once no candidate left can win or tie (_generation_scores).  Each of
their loops also keeps two caches.
The metric cache maps (comment tokens, generated tokens) to the metric's
raw value, before the IGSL weight.  The metric is a pure function of the
two token tuples, so an iteration that meets a pair again (the same
sentence and the same best generation under a retrained model) reads the
value an earlier one computed.  The NIST profiles (metrics.NistProfiles)
keep each sentence's n-gram counts, so a comment met in a new pair, or a
generation best for several candidates, is counted once.  Both caches,
and the LM a training lends the next, live only as long as their loop:
they are not global, so each superfluous_cv threshold run starts fresh
ones and their memory ends with the run.

Each loop indexes its examples once (_index_examples, a
translator.CorpusIndex): the sorted vocabulary, each comment's word ids,
each candidate's derivation columns, the per-length scoring groups, and
each comment's candidates in tie order (time, surface form, id).  Every
scored strategy picks by one rule: each comment's first maximum in tie
order of one score per (comment, candidate) position (CorpusIndex.best).
An iteration's picks are one position per picked comment, in comment
order, with its score.  A training is an ordered selection of the index's
positions: every candidate first, then the kept picks, or the external
seed picks in file order.  translator.train_alignment maps a selection to
its own sorted vocabulary, so each model is the one the selected pairs
would train.  Python (tokens, MR) pairs are built only for what reads
them, the template lexicon and the LM.  superfluous_cv indexes each of
its two folds once, for every threshold run and validation score.

parse_score reads only the alignment, so each of its trainings runs
alignment EM alone, and the template lexicon and LM are built once, from
the last training pairs, for the returned model.  Its scores are the
index's (CorpusIndex.scores), the one scoring path score_corpus and the
validation scorer also take; a generation-scored strategy's are
evaluate_candidate's, -inf where a candidate cannot win.  The baselines,
random (one uniform pick per sentence) and gold (the gold matching), fix
their picks up front, each scoring 1, and train on them once.

superfluous_cv picks the pruning fraction by internal cross-validation, so
sentences that describe nothing (superfluous commentary) stop polluting the
training set.  Its validation scorer reads only the alignment, so under
parse_score only the final run's model is completed.
"""

from __future__ import annotations

import math
import zlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from . import metrics, mrl, strategic, translator
from .corpus import GameExample, at_line, ordered_sum, read_records
from .simgen import Prng

Key = tuple[str, int]
# (comment tokens, generated tokens) -> the metric's value between them
MetricCache = dict[tuple[tuple[str, ...], tuple[str, ...]], float]

# scored kind -> (name of the `metrics` function comparing the sentence with
# the MR's best generation, None to score the parse likelihood instead;
# whether the score is weighted by the IGSL probability of the MR's type)
_SCORED_KINDS: dict[str, tuple[str | None, bool]] = {
    "parse_score": (None, False),
    "nist_gen": ("nist", False),
    "meteor_gen": ("meteor", False),
    "nist_igsl": ("nist", True),
    "meteor_igsl": ("meteor", True),
}
STRATEGY_KINDS = ("random", *_SCORED_KINDS, "gold")
DEFAULT_MAX_ITER = 10
VALIDATION_FRACTION = 0.2


class MissingStrategicModel(ValueError):
    pass


EmptyTrainingSet = translator.EmptyTrainingSet


@dataclass(frozen=True)
class ScoringStrategy:
    kind: str
    seed: int = 0

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}")


@dataclass
class Matching:
    """Comment key -> (assigned event id, score)."""

    assignments: dict[Key, tuple[int, float]] = field(default_factory=dict)

    def event_ids(self) -> dict[Key, int]:
        return {key: event_id for key, (event_id, _) in self.assignments.items()}


@dataclass
class IterationRecord:
    iteration: int
    changed: int
    matching_f1: float | None = None


@dataclass
class DisambiguationResult:
    matching: Matching
    model: translator.TranslationModel
    strategic: strategic.StrategicModel | None
    history: list[IterationRecord]
    trained_on: frozenset[Key] = frozenset()

    @property
    def iterations_run(self) -> int:
        return len(self.history)

    def trained_matching(self) -> Matching:
        """The matching restricted to the pairs the final model trained on."""
        return Matching({
            key: value
            for key, value in self.matching.assignments.items()
            if key in self.trained_on
        })


@dataclass(frozen=True)
class _LoopIndex:
    """A loop's examples and the translator.CorpusIndex over them, built
    once by _index_examples: a position is one (example, candidate) pair,
    numbered example by example, candidates in time order, and each
    example's positions are in tie order (time, surface form, id) in
    index.order.  event_ids holds each position's event id."""

    examples: Sequence[GameExample]
    index: translator.CorpusIndex
    event_ids: list[int]

    def position(self, number: int, event_id: int | None) -> int | None:
        """The first position of example number's event event_id, None if
        it is not one of the example's candidates."""
        start, end = self.index.starts[number:number + 2].tolist()
        ids = self.event_ids[start:end]
        return start + ids.index(event_id) if event_id in ids else None


def _index_examples(examples: Sequence[GameExample]) -> _LoopIndex:
    if not examples:
        raise EmptyTrainingSet("no ambiguous examples")
    candidates = [c for ex in examples for c in ex.example.candidates]
    counts = [len(ex.example.candidates) for ex in examples]
    # the tie order: by example, then time, surface form and id
    order = np.lexsort((
        np.array([c.id for c in candidates]),
        np.array([mrl.serialize_mr(c.mr) for c in candidates]),
        np.array([c.time_ms for c in candidates]),
        np.repeat(np.arange(len(examples)), counts),
    ))
    index = translator.CorpusIndex(
        [ex.example.comment.tokens for ex in examples],
        [[c.mr for c in ex.example.candidates] for ex in examples],
        order,
    )
    return _LoopIndex(examples, index, [c.id for c in candidates])


def evaluate_candidate(
    tokens: Sequence[str],
    mr: mrl.MeaningRepresentation,
    model: translator.TranslationModel,
    strategy: ScoringStrategy,
    strategic_model: strategic.StrategicModel | None,
    metric_cache: MetricCache,
    profiles: metrics.NistProfiles | None = None,
) -> float:
    """A generation-scored strategy's score of one candidate: 0 for an MR
    with no template.  metric_cache keeps the metric's value, before the
    IGSL weight, across calls, and profiles each sentence's NIST profile."""
    kind = strategy.kind
    metric, weighted = _SCORED_KINDS.get(kind, (None, False))
    if metric is None:
        raise ValueError(f"strategy {kind!r} has no generation metric")
    if weighted and strategic_model is None:
        raise MissingStrategicModel(f"{kind} needs a strategic model")
    try:
        generated = translator.generate_topk(mr, model, 1)[0][0]
    except translator.NoTemplate:
        return 0.0
    pair = (tuple(tokens), generated)
    if pair not in metric_cache:
        if metric == "nist":
            metric_cache[pair] = metrics.nist(*pair, profiles)
        else:
            metric_cache[pair] = metrics.meteor(*pair)
    score = metric_cache[pair]
    if weighted:
        score *= strategic_model.probability(mr.predicate.name)
    return score


def _generation_scores(
    loop: _LoopIndex,
    strategy: ScoringStrategy,
    strategic_model: strategic.StrategicModel | None,
) -> Callable[[translator.TranslationModel], np.ndarray]:
    """A generation-scored strategy's scorer for one loop: each position's
    score under a model, by evaluate_candidate with the loop's metric cache
    and NIST profiles, and -inf where the candidate cannot win.

    A candidate's score is at most its cap: the metric's ceiling for the
    comment times the candidate's IGSL weight (1 unweighted).  Each
    comment's candidates are put in descending cap order once, and scored
    in that order until the next cap is strictly below the best score so
    far: no candidate left can win or tie, so none is scored.  Unweighted,
    all caps are equal and every candidate is."""
    metric, weighted = _SCORED_KINDS[strategy.kind]
    weight = strategic_model.probability if weighted else (lambda name: 1.0)
    index = loop.index
    starts = index.starts.tolist()
    capped = []
    for tokens, start, end in zip(index.sentences, starts, starts[1:]):
        ceiling = metrics.nist_ceiling(tokens) if metric == "nist" else metrics.METEOR_CEILING
        capped.append(sorted(
            ((ceiling * weight(index.mrs[p].predicate.name), p) for p in range(start, end)),
            key=lambda item: -item[0],
        ))
    metric_cache: MetricCache = {}
    profiles = metrics.NistProfiles()

    def scores(model: translator.TranslationModel) -> np.ndarray:
        scored = np.full(len(index.mrs), -math.inf)
        for tokens, candidates in zip(index.sentences, capped):
            best = -math.inf
            for cap, position in candidates:
                if cap < best:
                    break
                scored[position] = score = evaluate_candidate(
                    tokens, index.mrs[position], model, strategy, strategic_model,
                    metric_cache, profiles,
                )
                best = max(best, score)
        return scored

    return scores


def _prune_keys(matching: Matching, prune_fraction: float) -> frozenset[Key]:
    """Keys that survive dropping pairs scoring below the fraction quantile."""
    if prune_fraction <= 0.0:
        return frozenset(matching.assignments)
    scores = sorted(score for _, score in matching.assignments.values())
    cut = scores[min(int(prune_fraction * len(scores)), len(scores) - 1)]
    return frozenset(
        key for key, (_, score) in matching.assignments.items() if score >= cut
    )


def _fixed_picks(
    loop: _LoopIndex, strategy: ScoringStrategy, gold: Mapping[Key, int | None] | None
) -> tuple[np.ndarray, np.ndarray]:
    """A baseline's picks, each scoring 1: under random one uniform draw per
    example, in example order; under gold each example's gold event, where
    it is one of the candidates."""
    if strategy.kind == "random":
        prng = Prng(strategy.seed)
        starts = loop.index.starts.tolist()
        positions = [
            start + prng.uniform_int(0, end - start - 1)
            for start, end in zip(starts, starts[1:])
        ]
    else:
        if gold is None:
            raise ValueError("gold strategy requires the gold matching")
        picks = (loop.position(n, gold.get(ex.key)) for n, ex in enumerate(loop.examples))
        positions = [p for p in picks if p is not None]
        if not positions:
            raise EmptyTrainingSet("gold matching covers no example")
    return np.array(positions, dtype=np.intp), np.ones(len(positions))


def retrain_loop(
    examples: Sequence[GameExample],
    strategy: ScoringStrategy,
    max_iter: int = DEFAULT_MAX_ITER,
    *,
    total_count: Mapping[str, int] | None = None,
    gold: Mapping[Key, int | None] | None = None,
    initial_picks: Mapping[Key, int] | None = None,
    prune_fraction: float = 0.0,
) -> DisambiguationResult:
    """The retraining disambiguation loop (see module docstring).

    gold serves two roles: the `gold` strategy trains on it directly, and for
    all strategies it fills the per-iteration F1 column of the history.
    initial_picks (comment key -> candidate event id, as init_from_external
    reads them) replaces the all-candidates first training of a scored
    strategy with one on those pairs, in their order; the baselines never
    read it.
    """
    result, training = _retrain(
        _index_examples(examples), strategy, max_iter, total_count, gold, initial_picks,
        prune_fraction,
    )
    if isinstance(result.model, translator.AlignmentModel):
        result.model = translator.complete(training.pairs(), result.model)
    return result


def _retrain(
    loop: _LoopIndex,
    strategy: ScoringStrategy,
    max_iter: int,
    total_count: Mapping[str, int] | None,
    gold: Mapping[Key, int | None] | None,
    initial_picks: Mapping[Key, int] | None,
    prune_fraction: float,
) -> tuple[DisambiguationResult, translator.Selection]:
    """retrain_loop up to its last training: the result and the pairs its
    model trained on.  Under a strategy whose picks read only the alignment
    that model is the AlignmentModel, not yet completed."""
    strategic.check_max_iter(max_iter)
    index, examples = loop.index, loop.examples
    fixed: tuple[np.ndarray, np.ndarray] | None = None
    model = strategic_model = None
    if strategy.kind not in _SCORED_KINDS:
        fixed = _fixed_picks(loop, strategy, gold)
    elif _SCORED_KINDS[strategy.kind][1]:
        if total_count is None:
            raise MissingStrategicModel(
                f"{strategy.kind} needs per-predicate event totals"
            )
        # IGSL reads only the candidate sets, so one run serves every iteration
        strategic_model = strategic.igsl(
            [ex.example for ex in examples], total_count
        )
    # Picks that read only the alignment train only the alignment.
    alignment_only = fixed is None and _SCORED_KINDS[strategy.kind][0] is None
    if fixed is None:
        if initial_picks is None:
            training = index.select(range(len(index.mrs)))
        else:
            numbers = {ex.key: n for n, ex in enumerate(examples)}
            training = index.select(
                loop.position(numbers[key], event_id) for key, event_id in initial_picks.items()
            )
        model = _fit(training, alignment_only)
        scores = index.scores if alignment_only else (
            _generation_scores(loop, strategy, strategic_model)
        )

    matching = Matching()
    kept: frozenset[Key] = frozenset()
    previous: dict[Key, int] = {}
    history: list[IterationRecord] = []
    for iteration in range(1, max_iter + 1):
        # one pick rule: each example's first maximum in tie order
        positions, picked_scores = fixed if fixed is not None else index.best(scores(model))
        keys = [examples[n].key for n in index.owners[positions].tolist()]
        picked = Matching(dict(zip(
            keys, zip([loop.event_ids[p] for p in positions.tolist()], picked_scores.tolist())
        )))
        event_ids = picked.event_ids()
        changed = sum(
            1 for key, event_id in event_ids.items() if previous.get(key) != event_id
        )
        f1 = None if gold is None else metrics.matching_f1(event_ids, gold).f1
        history.append(IterationRecord(iteration, changed, f1))
        if changed == 0:
            break
        matching, previous = picked, event_ids
        kept = _prune_keys(matching, prune_fraction)
        earlier = None if model is None else (training, model)
        training = index.select(
            p for p, key in zip(positions.tolist(), keys) if key in kept
        )
        model = _fit(training, alignment_only, earlier)
        if fixed is not None:
            break
    result = DisambiguationResult(matching, model, strategic_model, history, trained_on=kept)
    return result, training


def _fit(
    training: translator.Selection,
    alignment_only: bool,
    earlier: tuple[translator.Selection, translator.TranslationModel] | None = None,
) -> translator.AlignmentModel | translator.TranslationModel:
    """A training of the loop: the alignment alone, or the whole model.
    earlier, the loop's previous training (its pairs and model), lends the
    new model its LM when it trained on the same sentences in the same
    order: the LM reads nothing else."""
    if alignment_only:
        return translator.train_alignment(training)
    lm = None
    if earlier is not None and earlier[0].sentences() == training.sentences():
        lm = earlier[1].lm
    return translator.train(training, lm)


def init_from_external(examples: Sequence[GameExample], path) -> tuple[dict[Key, int], int]:
    """Externally disambiguated picks for iteration 0, plus a warning count.

    File lines: `<game>\t<comment-id>\t<mr-surface>`.  Lines naming an
    unknown comment, or an MR that is not among the comment's candidates,
    are skipped and counted.  Later lines override earlier ones.  The picks
    map each comment key, in the order of its first line, to the id of its
    first candidate event with the MR.  Raises EmptyTrainingSet, naming
    the file, when no line is left.
    """
    wanted: dict[Key, mrl.MeaningRepresentation] = {}
    warnings = 0
    for number, (game, comment_id, surface) in read_records(path, 3):
        with at_line(path, number):
            key: Key = (game, int(comment_id))
            wanted[key] = mrl.parse_mr(surface)
    by_key = {ex.key: ex.example for ex in examples}
    picks: dict[Key, int] = {}
    for key, mr in wanted.items():
        example = by_key.get(key)
        event = None if example is None else next(
            (c for c in example.candidates if c.mr == mr), None
        )
        if event is None:
            warnings += 1
            continue
        picks[key] = event.id
    if not picks:
        raise EmptyTrainingSet(
            f"{path}: no line names a corpus comment and one of its candidate MRs "
            f"({warnings} skipped)"
        )
    return picks, warnings


def validation_split(examples: Sequence[GameExample]) -> tuple[list[GameExample], list[GameExample]]:
    """Deterministic 80/20 split keyed on a hash of (game, comment id)."""
    train: list[GameExample] = []
    validation: list[GameExample] = []
    for ex in examples:
        game, comment_id = ex.key
        seed = (zlib.crc32(game.encode("utf-8")) << 32) ^ comment_id
        if Prng(seed).next() / 2**64 < VALIDATION_FRACTION:
            validation.append(ex)
        else:
            train.append(ex)
    return train, validation


def _validation_score(
    result: DisambiguationResult,
    train: Sequence[GameExample],
    validation: _LoopIndex,
) -> float:
    """Held-out log-likelihood of the validation sentences under a mixture.

    Every sentence is modelled as either described or chatter.  The chatter
    weight is the share of the training fold's assigned pairs that pruning
    dropped.  The described component is the pruned run's Model-1
    likelihood of the sentence under its best-scoring candidate (the
    per-token score raised to the sentence length), read from the
    validation fold's index.  The chatter component
    is an add-k unigram model (k = translator.SMOOTHING_K) fit on the pruned
    training sentences.  Pruning real descriptions costs described
    likelihood and fits the chatter component to event vocabulary; pruning
    chatter sharpens the translation model and gives off-topic validation
    sentences a component that explains them.  With nothing pruned the
    score is the described log-likelihood alone.  Only the alignment of
    result.model is read, so it may be a run that _retrain left uncompleted.
    """
    alignment = result.model
    if isinstance(alignment, translator.TranslationModel):
        alignment = alignment.alignment
    tokens_of = {ex.key: ex.example.comment.tokens for ex in train}
    assigned = result.matching.assignments
    pruned = [tokens_of[key] for key in assigned if key not in result.trained_on]
    counts = Counter(word for tokens in pruned for word in tokens)
    denominator = sum(counts.values()) + translator.SMOOTHING_K * (len(counts) + 1)
    share = len(pruned) / len(assigned)
    terms = []
    index = validation.index
    positions, scores = index.best(index.scores(alignment))
    for number, best in zip(index.owners[positions].tolist(), scores.tolist()):
        tokens = index.sentences[number]
        # a very long sentence can underflow the per-token score to 0
        described = len(tokens) * math.log(best) if best > 0.0 else -math.inf
        if pruned:
            chatter = ordered_sum(
                math.log((counts[word] + translator.SMOOTHING_K) / denominator)
                for word in tokens
            )
            described = float(
                np.logaddexp(math.log1p(-share) + described, math.log(share) + chatter)
            )
        terms.append(described)
    return ordered_sum(terms)


def superfluous_cv(
    examples: Sequence[GameExample],
    thresholds: Sequence[float],
    strategy: ScoringStrategy,
    *,
    total_count: Mapping[str, int] | None = None,
    gold: Mapping[Key, int | None] | None = None,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[float, DisambiguationResult]:
    """Choose a pruning fraction by internal CV, then retrain on everything.

    Each threshold runs the loop on the training fold of validation_split
    and is scored by _validation_score on the held-out fold; on equal
    scores the smallest threshold wins.  Returns (best threshold, the
    full-run result): its matching still covers every sentence, and
    trained_matching() keeps the pairs that survived pruning.  Raises
    EmptyTrainingSet when either fold is empty: with no validation example
    every threshold would score 0.0.  Raises ValueError for random and gold:
    their picks are fixed, so no threshold prunes any pair.
    """
    if not thresholds:
        raise ValueError("need at least one threshold")
    if strategy.kind not in _SCORED_KINDS:
        raise ValueError(f"{strategy.kind} fixes its picks: no pruning fraction to choose")
    train, validation = validation_split(examples)
    if examples and not (train and validation):
        empty = "validation" if train else "training"
        raise EmptyTrainingSet(
            f"the cross-validation {empty} fold is empty ({len(train)} training, "
            f"{len(validation)} validation examples)"
        )
    grid = sorted(thresholds)
    best_theta, best_score = grid[0], -math.inf
    # Each fold is indexed once, for every threshold.
    fold, held_out = _index_examples(train), _index_examples(validation)
    for theta in grid:
        # The scorer reads only the alignment, so the run is not completed.
        result, _ = _retrain(fold, strategy, max_iter, total_count, None, None, theta)
        score = _validation_score(result, train, held_out)
        if score > best_score:
            best_theta, best_score = theta, score
    final = retrain_loop(
        examples,
        strategy,
        max_iter,
        total_count=total_count,
        gold=gold,
        prune_fraction=best_theta,
    )
    return best_theta, final
