"""Tactical translation between sentences and meaning representations.

The model is a bundle of three independently trained parts:

  * AlignmentModel: IBM-Model-1 word/production translation table, one
    (production x word) array trained by EM over (sentence, MR) pairs.  Words
    align to the productions of the MR's derivation plus a NULL production
    that absorbs function words.  The array is stored framed by a zero pad
    row and a zero unknown-word column, the layout every reader indexes.
  * TemplateLexicon: per-predicate sentence templates with numbered argument
    slots, plus per-constant surface realizations, both read off the trained
    alignment by argmax assignment.
  * LanguageModel: an add-k trigram model over the training sentences.  Its
    vocabulary is every word its counts predict but </s>, so a fit model
    and its reload agree.  It is built once, from its counts, by one pass
    that tabulates the probability of every seen n-gram, one floor per seen
    context and one for unseen contexts, and the bound tables generation
    reads (ceilings and pair_ceilings).  No method changes it after.

train builds all three; complete adds the lexicon and LM to an alignment
that train_alignment built, for a caller that reads only the alignment
until its last training.

Parsing ranks candidate MRs by the per-token-normalized Model-1 likelihood,
ties broken by canonical surface form (serialize_mr, built once per MR);
generation instantiates templates and ranks by the noisy-channel product
(LM probability times template and realization weights).  It searches the
template/realization combinations best-first under an upper bound that
factors into a template part and one part per argument, each exact for
every trigram window whose context it knows, and scores only those that
can still reach the top k.  It reaches the templates in the order of a
looser bound, which needs no realization's context, and builds a
template's argument options only once that bound could reach the top k.

What does not depend on the request is built once per model, on first
use, and kept: the alignment's add-k smoothed table
(AlignmentModel.smoothed) and full-space table of per-word scores
(AlignmentModel.full_space), the generation plans with their template
parts (TranslationModel.generation), each constant's options with their
bound parts per slot context (SlotOptions), and each constant's part of
the looser bound (TranslationModel.argument_ceilings).  So is each
generate_topk result, per (MR, k) (TranslationModel.generated): the event
space is closed, so serving one model asks the same question again and
again.  The alignment and the LM cannot change under what is kept: t is
read-only, and the LM is built once with all its tables, including the
pair ceilings SlotOptions read (LanguageModel.pair_ceilings).  The
lexicon must not change after the model's first generation; nothing
enforces that.

Scoring reads only the alignment and has two rules: a word's score under
an MR (_word_scores) and a sentence's score from its words' scores
(_sentence_scores).  score_corpus scores candidate sets: many sentences,
each with its own candidate MRs, grouped by sentence length, each group
in whole-array passes.  score_candidates (one sentence) and the learner's
parse-scored loop and validation scorer (the corpus) are views of it.
parse_sentence gathers the sentence's rows of the full-space table, which
_word_scores fills, so its scores can never disagree with score_corpus's.
It ranks all of enumerate_mrs() in passes that run no Python frame per MR:
one object array of the surfaces, mapped through serialize_mr (a C getter
of the cached surface), and its stable argsort, by Python's <; one stable
argsort of the negated scores in that order; and one gather each of a
cached object array of the MRs and of the scores.  The result is a
Ranking, a sequence view over those two arrays: it makes no (mr, score)
pair until one is read.  Each parse still serializes and sorts every MR,
because the tie order is defined by serialize_mr and the benchmark's
serve workload checks that a full-space parse makes one serialize_mr call
per MR.
"""

from __future__ import annotations

import collections.abc
import heapq
import itertools
import math
import operator
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import mrl
from .corpus import (
    FormatError,
    at_line,
    check_unique,
    fmt,
    ordered_sum,
    read_lines,
    split_fields,
    write_lines,
)

Tokens = Sequence[str]
Pair = tuple[Tokens, mrl.MeaningRepresentation]

NULL_KEY = "<NULL>"
SMOOTHING_K = 1e-3
LM_ORDER = 3
LM_K = 0.01
DEFAULT_TOPK = 5
_START = "<s>"
_END = "</s>"

# Fixed column layout for vectorized scoring: 46 grammar productions, NULL,
# and a zero pad column so every derivation indexes exactly 4 columns.
_COLUMN_KEYS = tuple(p.key for p in mrl.PRODUCTIONS) + (NULL_KEY,)
_COLUMN_INDEX = {key: i for i, key in enumerate(_COLUMN_KEYS)}
_PAD_COLUMN = len(_COLUMN_KEYS)


class EmptyTrainingSet(ValueError):
    pass


class NoTemplate(LookupError):
    def __init__(self, predicate: str):
        super().__init__(f"no template learned for predicate {predicate!r}")
        self.predicate = predicate


@dataclass
class AlignmentModel:
    """t[row, column] = Pr(word | production): rows follow _COLUMN_KEYS, then
    a zero pad row (_PAD_COLUMN); columns follow the sorted vocabulary, then
    a zero unknown-word column.  A production absent from training has a
    zero row.

    t is made read-only when the model is built, so smoothed and
    full_space, built from it on first use and kept (smoothed by the first
    scoring, full_space, (|V|+1) x 2,018 float64, by the first full-space
    parse), always agree with it."""

    t: np.ndarray
    vocabulary: tuple[str, ...]
    log_likelihoods: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        self.t.flags.writeable = False

    @cached_property
    def columns(self) -> dict[str, int]:
        """Vocabulary word -> its column in t."""
        return {word: i for i, word in enumerate(self.vocabulary)}

    @cached_property
    def smoothed(self) -> np.ndarray:
        """t in the same layout with add-k t values; the pad row stays zero."""
        smoothed = (self.t + SMOOTHING_K) / (1.0 + SMOOTHING_K * len(self.vocabulary))
        smoothed[_PAD_COLUMN] = 0.0
        return smoothed

    @cached_property
    def full_space(self) -> np.ndarray:
        """Per-word scores of the full space: row w, column m is word column
        w's score under enumerate_mrs()[m] (_word_scores), the unknown-word
        row last.  Filled one word row at a time, so no second full-size
        array is made."""
        smoothed = self.smoothed
        index, widths = _full_space_arrays()
        table = np.empty((smoothed.shape[1], len(widths)), dtype=np.float64)
        for word in range(len(table)):
            table[word] = _word_scores(smoothed, word, index, widths)
        return table


@dataclass
class TemplateLexicon:
    # predicate name -> template (tokens and "<i>" slot markers, each slot
    # named once, as mrl.check_template requires) -> weight
    templates: dict[str, dict[tuple[str, ...], float]]
    # constant token -> surface realization tokens -> weight
    realizations: dict[str, dict[tuple[str, ...], float]]


@dataclass
class LanguageModel:
    counts: dict[tuple[str, ...], Counter] = field(default_factory=dict)
    # Derived from counts by __post_init__, the one construction pass: the
    # vocabulary (every predicted word but </s>); the tables probability()
    # reads: one probability per seen (context..., word) n-gram, one floor
    # per seen context for its unseen words, and unseen for a context with
    # no counts; and the bound tables generation reads: each word's largest
    # probability over all contexts (ceilings), and each seen n-gram
    # without its first word -> the largest probability of its last word
    # over every first word (pair_ceilings).  A bound table keeps only
    # values above unseen, so a missing key reads unseen.
    vocabulary: frozenset[str] = field(init=False, repr=False, compare=False)
    unseen: float = field(init=False, repr=False, compare=False)
    grams: dict[tuple[str, ...], float] = field(init=False, repr=False, compare=False)
    floors: dict[tuple[str, ...], float] = field(init=False, repr=False, compare=False)
    ceilings: dict[str, float] = field(init=False, repr=False, compare=False)
    pair_ceilings: dict[tuple[str, ...], float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.vocabulary = frozenset(
            word for bucket in self.counts.values() for word in bucket
        ) - {_END}
        smoothing = LM_K * (len(self.vocabulary) + 1)
        # The add-k estimate (seen + LM_K) / (total + smoothing): of any
        # word in a context with no counts, of a word a context has not
        # seen, and of each seen n-gram.
        unseen = self.unseen = LM_K / smoothing
        self.grams, self.floors, self.ceilings, self.pair_ceilings = {}, {}, {}, {}
        for context, bucket in self.counts.items():
            denominator = sum(bucket.values()) + smoothing
            self.floors[context] = LM_K / denominator
            for word, seen in bucket.items():
                p = self.grams[context + (word,)] = (seen + LM_K) / denominator
                if p > self.ceilings.get(word, unseen):
                    self.ceilings[word] = p
                pair = context[1:] + (word,)
                if p > self.pair_ceilings.get(pair, unseen):
                    self.pair_ceilings[pair] = p

    @classmethod
    def fit(cls, sentences: Iterable[Tokens]) -> "LanguageModel":
        """The model of the sentences' n-gram counts.  A run of equal
        consecutive sentences is counted once, times the run's length: the
        counts, and the order each dict reaches its keys in, are those of
        counting every sentence."""
        counts: dict[tuple[str, ...], Counter] = {}
        for sentence, run in itertools.groupby(sentences):
            repeats = sum(1 for _ in run)
            padded = [_START] * (LM_ORDER - 1) + list(sentence) + [_END]
            for i in range(LM_ORDER - 1, len(padded)):
                context = tuple(padded[i - LM_ORDER + 1 : i])
                bucket = counts.get(context)
                if bucket is None:
                    bucket = counts[context] = Counter()
                bucket[padded[i]] += repeats
        return cls(counts)

    def probability(self, word: str, context: tuple[str, ...]) -> float:
        p = self.grams.get(context + (word,))
        return self.floors.get(context, self.unseen) if p is None else p

    def sentence_logprob(self, tokens: Tokens) -> float:
        """The ordered_sum of log probability() over the padded sentence,
        read from its tables."""
        padded = [_START] * (LM_ORDER - 1) + list(tokens) + [_END]
        grams, floors, unseen = self.grams, self.floors, self.unseen
        return ordered_sum(map(math.log, [
            floors.get(gram[:-1], unseen) if (p := grams.get(gram)) is None else p
            for gram in zip(*(padded[i:] for i in range(LM_ORDER)))
        ]))

    def sentence_prob(self, tokens: Tokens) -> float:
        return math.exp(self.sentence_logprob(tokens))


# A realization option of one constant in one slot context:
# (bound part, tokens, weight).
Option = tuple[float, tuple[str, ...], float]
# The items around a slot that its options' bound parts read: the
# LM_ORDER - 1 items before it, with None for an item another slot fills
# and for every item before that one, then the literals and </s> after it
# up to the next slot, at most LM_ORDER - 1 of them.
SlotContext = tuple[tuple[str | None, ...], tuple[str, ...]]


def _realizations_of(
    realizations: dict[str, dict[tuple[str, ...], float]], token: str
) -> dict[tuple[str, ...], float]:
    """A constant's realizations; an unseen constant is its own token, with
    weight 1."""
    return realizations.get(token) or {(token,): 1.0}


class SlotOptions(dict):
    """The option lists of one slot context: constant token -> its
    realizations (or the unseen fallback) as options, best part first, each
    list built on first use and kept.

    An option's part is its weight times one factor per LM window (an
    n-gram of the realized sentence) that holds a realization token and no
    other slot's: the windows that predict its tokens and the literals or
    </s> after the slot.  A window whose context is all known takes its
    exact LM probability.  One whose farthest context item alone belongs
    to another slot takes its pair ceiling (LanguageModel.pair_ceilings),
    and any other its word's ceiling (LanguageModel.ceilings)."""

    def __init__(self, context: SlotContext, model: "TranslationModel") -> None:
        super().__init__()
        self.context = context
        self.realizations = model.lexicon.realizations
        self.lm = model.lm

    def __missing__(self, token: str) -> list[Option]:
        before, after = self.context
        lm = self.lm
        grams, floors, unseen = lm.grams, lm.floors, lm.unseen
        ceilings, pairs = lm.ceilings, lm.pair_ceilings
        options = []
        for tokens, weight in _realizations_of(self.realizations, token).items():
            sequence = before + tokens + after
            part = weight
            for end in range(LM_ORDER, len(sequence) + 1):
                window = sequence[end - LM_ORDER : end]
                if window[0] is not None:  # probability(), read from its tables
                    p = grams.get(window)
                    part *= floors.get(window[:-1], unseen) if p is None else p
                elif None not in window[1:]:
                    part *= pairs.get(window[1:], unseen)
                else:
                    part *= ceilings.get(window[-1], unseen)
            options.append((part, tokens, weight))
        options.sort(key=lambda option: (-option[0], option[1]))
        self[token] = options
        return options


class ArgumentCeilings(dict):
    """Constant token -> its largest realization weight times the LM
    ceilings of the realization's tokens, over its realizations (or the
    unseen fallback), built on first use and kept."""

    def __init__(self, model: "TranslationModel") -> None:
        super().__init__()
        self.realizations = model.lexicon.realizations
        self.ceilings, self.unseen = model.lm.ceilings, model.lm.unseen

    def __missing__(self, token: str) -> float:
        best = 0.0
        for tokens, weight in _realizations_of(self.realizations, token).items():
            for word in tokens:
                weight *= self.ceilings.get(word, self.unseen)
            best = max(best, weight)
        self[token] = best
        return best


# A template's generation plan: its items with each maximal run of literal
# tokens as one tuple and each slot as its 0-based argument index, its
# weight, its template part, its loose part (TranslationModel.generation),
# and each argument's slot options.
Plan = tuple[
    tuple[tuple[str, ...] | int, ...], float, float, float, tuple[SlotOptions, ...]
]
# generate_topk's combinations, as (sentence tokens, score), best first.
Ranked = tuple[tuple[tuple[str, ...], float], ...]


def _slot_context(padded: tuple[str | int, ...], i: int) -> SlotContext:
    """The SlotContext of the slot padded[i], in a template's items padded
    with <s> and </s>, each slot an int."""
    before = padded[i - LM_ORDER + 1 : i]
    cut = max((n + 1 for n, item in enumerate(before) if isinstance(item, int)), default=0)
    after = itertools.takewhile(
        lambda item: not isinstance(item, int), padded[i + 1 : i + LM_ORDER]
    )
    return (None,) * cut + before[cut:], tuple(after)


@dataclass
class TranslationModel:
    """The three trained parts.

    generation is built on the first generate_topk and kept: one plan per
    template of the lexicon, each slot pointing at the SlotOptions of its
    slot context, which build one constant's options on first use and keep
    them.  A search builds a plan's lists only when it reaches the plan
    (_search_topk).  generated holds each generate_topk result, keyed on
    (MR surface form, k): the ranked combinations, or () for a predicate
    with no template.  The lexicon must not change after the model's first
    generation: the tables and the results read it."""

    alignment: AlignmentModel
    lexicon: TemplateLexicon
    lm: LanguageModel
    generated: dict[tuple[str, int], Ranked] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @cached_property
    def argument_ceilings(self) -> ArgumentCeilings:
        return ArgumentCeilings(self)

    @cached_property
    def generation(self) -> dict[str, list[Plan]]:
        """Predicate name -> plans of its templates, by descending loose
        part, lexicon order among equal ones.

        A combination's upper bound is its template part times its
        arguments' option parts.  A template part is its weight times the
        exact LM probability of each literal token and </s> whose
        LM_ORDER - 1 items before are all literals or <s> padding.  Every
        other trigram window of a combination holds a realization token, and
        falls in the option part of the nearest slot before its last token
        (SlotOptions).  So each LM factor of a combination's score is in
        one part, and each part's factor is at least that factor.  An
        unseen constant is realized as its own token, with weight 1.

        A plan's loose part is its template part times the LM ceiling of
        each literal and </s> that follows a slot in its slot context.  No
        window factor exceeds its last word's ceiling, so an option part is
        at most those ceilings of its slot times its constant's
        argument_ceilings entry, and every bound of the plan at most the
        loose part times the product of its arguments' entries.  Each
        template names each slot once, so that product is the same for
        every plan of an MR, and one order of the plans serves every MR."""
        lm = self.lm
        ceilings, unseen = lm.ceilings, lm.unseen
        contexts: dict[SlotContext, SlotOptions] = {}
        plans = {}
        for predicate, templates in self.lexicon.templates.items():
            plans[predicate] = []
            for template, weight in templates.items():
                items, _ = mrl.template_items(template)
                padded = (_START,) * (LM_ORDER - 1) + items + (_END,)
                part = weight
                after = 1.0  # the ceilings of the literals after each slot
                slots = {}
                for i in range(LM_ORDER - 1, len(padded)):
                    token, context = padded[i], padded[i - LM_ORDER + 1 : i]
                    if isinstance(token, int):
                        key = _slot_context(padded, i)
                        if key not in contexts:
                            contexts[key] = SlotOptions(key, self)
                        slots[token - 1] = contexts[key]
                        for literal in key[1]:
                            after *= ceilings.get(literal, unseen)
                    elif not any(isinstance(item, int) for item in context):
                        part *= lm.probability(token, context)
                runs: list[tuple[str, ...] | int] = []
                for is_slot, group in itertools.groupby(
                    items, key=lambda item: isinstance(item, int)
                ):
                    if is_slot:
                        runs.extend(slot - 1 for slot in group)
                    else:
                        runs.append(tuple(group))
                arguments = tuple(slots[argument] for argument in range(len(slots)))
                plans[predicate].append((tuple(runs), weight, part, part * after, arguments))
            plans[predicate].sort(key=lambda plan: -plan[3])
        return plans


def train_alignment(pairs: Sequence[Pair], iterations: int = 25) -> AlignmentModel:
    """Model-1 EM: uniform init, then expected-count renormalization.

    The corpus is flattened once into (token, production slot) cells of the
    table.  Each E-step gathers them and adds each token's four slot values
    into its denominator column by column, left to right: the order an
    (N, 4) sum(axis=1) takes, written out because numpy reduces so short an
    axis slowly.  One np.bincount adds the expected counts into the table
    from 0.0 in corpus order.  A second np.bincount takes each production's
    row total from 0.0, adding its cells' expected counts in first-reach
    order, the order a dict per row would hold them in.  Both add as
    corpus.ordered_sum does.
    """
    if not pairs:
        raise EmptyTrainingSet("no (sentence, mr) pairs to train on")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    vocabulary = tuple(sorted({w for tokens, _ in pairs for w in tokens}))
    if not vocabulary:
        raise EmptyTrainingSet("training pairs contain no words")
    size = len(vocabulary)
    stride = size + 1  # t's row stride: the vocabulary, then unknown words
    column = {word: i for i, word in enumerate(vocabulary)}
    index, widths = _candidate_arrays([mr for _, mr in pairs])
    lengths = [len(tokens) for tokens, _ in pairs]
    words = np.array([column[w] for tokens, _ in pairs for w in tokens], dtype=np.intp)
    rows = np.repeat(index, lengths, axis=0)
    width = np.repeat(widths, lengths)
    cells = rows * stride + words[:, None]  # flat (row, word) cell per token slot
    # Trained rows' cells in first-reach order and each cell's row.  A stable
    # sort and bincount, not np.unique, kept peak RSS 0.7 MB lower.
    reached, first = np.unique(cells[rows != _PAD_COLUMN], return_index=True)
    reached = reached[np.argsort(first, kind="stable")]
    owners = reached // stride
    trained = np.flatnonzero(np.bincount(owners))
    # The pad row stays zero, so padded slots add nothing, and no token
    # reaches the unknown-word column, so it stays zero too.
    t = np.zeros((_PAD_COLUMN + 1, stride), dtype=np.float64)
    t[trained, :size] = 1.0 / size
    history = []
    for step in range(iterations + 1):
        gathered = t.take(cells)
        denominators = gathered[:, 0] + gathered[:, 1]
        denominators += gathered[:, 2]
        denominators += gathered[:, 3]
        history.append(float(np.log(denominators / width).sum()))
        if step == iterations:
            break
        gathered /= denominators[:, None]
        expected = np.bincount(cells.ravel(), weights=gathered.ravel(), minlength=t.size)
        totals = np.bincount(owners, weights=expected.take(reached), minlength=len(t))
        t[trained] = expected.reshape(t.shape)[trained] / totals[trained, None]
    return AlignmentModel(t=t, vocabulary=vocabulary, log_likelihoods=tuple(history))


def extract_templates(pairs: Sequence[Pair], alignment: AlignmentModel) -> TemplateLexicon:
    """Argmax-assign each token to a production, then cut out constant runs.

    A maximal contiguous run of tokens owned by one constant production is
    recorded as that constant's surface realization.  Runs are matched to
    argument positions in order (so pass(pink1,pink1) consumes its two slots
    left to right); a run with no remaining slot stays in the template as
    literal text.  A template that fails mrl.check_template is discarded:
    one missing an argument slot cannot generate the full MR, and one with a
    literal word that reads as a slot marker could not be loaded back.
    Each distinct MR is set up once, and each distinct template checked once.
    """
    template_counts: dict[str, Counter] = defaultdict(Counter)
    realization_counts: dict[str, Counter] = defaultdict(Counter)
    # Per distinct MR, once: its keys in tie order and, per argument key,
    # the slot markers its runs fill in turn.  Ties favor argument
    # productions (in argument order) over the head, and NULL never wins a
    # tie: a fully symmetric table, as on a single-pair corpus, must still
    # yield a slotted, usable template.
    shape_of: dict[str, int] = {}
    tie_keys: list[list[str]] = []
    markers: list[dict[str, list[str]]] = []
    for _, mr in pairs:
        if mr.surface in shape_of:
            continue
        shape_of[mr.surface] = len(tie_keys)
        deriv = mrl.derivation(mr)
        tie_keys.append([p.key for p in deriv[1:]] + [deriv[0].key, NULL_KEY])
        slots: dict[str, list[str]] = defaultdict(list)
        for position, production in enumerate(deriv[1:], start=1):
            slots[production.key].append(f"<{position}>")
        markers.append(slots)
    tie_columns = np.full((len(tie_keys), 4), _PAD_COLUMN, dtype=np.intp)
    for row, keys in enumerate(tie_keys):
        tie_columns[row, : len(keys)] = [_COLUMN_INDEX[key] for key in keys]
    shapes = [shape_of[mr.surface] for _, mr in pairs]
    # One gather for the corpus: each token's t values under its pair's
    # productions in tie order, 0 for an unknown word or a pad column.
    lengths = [len(tokens) for tokens, _ in pairs]
    token_columns = np.repeat(tie_columns[np.array(shapes, dtype=np.intp)], lengths, axis=0)
    flat = [w for tokens, _ in pairs for w in tokens]
    t = alignment.t
    raw = t.take(token_columns * t.shape[1] + _word_columns(flat, alignment)[:, None])
    # argmax takes the first maximum, i.e. the tie order of keys.  A run
    # starts at each sentence's first token and where the winner changes.
    owners = np.take_along_axis(token_columns, raw.argmax(axis=1)[:, None], axis=1)[:, 0]
    firsts = np.ones(len(owners), dtype=bool)
    firsts[1:] = owners[1:] != owners[:-1]
    ends = np.cumsum(lengths, dtype=np.intp)
    # each later sentence starts where one ends; empty last ones start past the end
    firsts[ends[:-1][ends[:-1] < len(owners)]] = True
    starts = np.flatnonzero(firsts).tolist() + [len(owners)]
    owners = owners.tolist()
    checked: dict[tuple[str, tuple[str, ...]], bool] = {}
    run = 0
    for (_, mr), shape, end in zip(pairs, shapes, ends.tolist()):
        slots, filled = markers[shape], {}
        items: list[str] = []
        while starts[run] < end:
            first, last = starts[run], starts[run + 1]
            run += 1
            key, words = _COLUMN_KEYS[owners[first]], tuple(flat[first:last])
            if key in slots:
                realization_counts[key][words] += 1
                taken = filled.get(key, 0)
                if taken < len(slots[key]):
                    items.append(slots[key][taken])
                    filled[key] = taken + 1
                    continue
            items.extend(words)
        template = (mr.predicate.name, tuple(items))
        if template not in checked:
            try:
                mrl.check_template(*template)
                checked[template] = True
            except ValueError:
                checked[template] = False
        if checked[template]:
            template_counts[template[0]][template[1]] += 1

    def normalize(counts: Counter) -> dict:
        total = sum(counts.values())
        return {item: c / total for item, c in sorted(counts.items())}

    return TemplateLexicon(
        templates={k: normalize(c) for k, c in sorted(template_counts.items())},
        realizations={k: normalize(c) for k, c in sorted(realization_counts.items())},
    )


def complete(
    pairs: Sequence[Pair], alignment: AlignmentModel, lm: LanguageModel | None = None
) -> TranslationModel:
    """The model of pairs around an alignment trained on them: the template
    lexicon read off the alignment and the LM fit on the sentences, or lm
    when given, which must have been fit on the same sentences."""
    lexicon = extract_templates(pairs, alignment)
    if lm is None:
        lm = LanguageModel.fit([tokens for tokens, _ in pairs])
    return TranslationModel(alignment=alignment, lexicon=lexicon, lm=lm)


def train(pairs: Sequence[Pair], lm: LanguageModel | None = None) -> TranslationModel:
    """Alignment EM, template extraction, and LM fit (unless lm is given,
    as complete takes it) in one call."""
    return complete(pairs, train_alignment(pairs), lm)


def null_floor(alignment: AlignmentModel) -> float:
    """Per-word score of a sentence with no vocabulary overlap at all."""
    size = len(alignment.vocabulary)
    return SMOOTHING_K / (1.0 + SMOOTHING_K * size)


# MR surface form -> the columns of its derivation, then NULL, then pads to
# 4: each MR's columns are built once, the first time they are needed.
_DERIVATION_COLUMNS: dict[str, tuple[int, int, int, int]] = {}


def _derivation_columns(mr: mrl.MeaningRepresentation) -> tuple[int, int, int, int]:
    keys = [p.key for p in mrl.derivation(mr)] + [NULL_KEY]
    columns = tuple(_COLUMN_INDEX[key] for key in keys) + (_PAD_COLUMN,) * (4 - len(keys))
    _DERIVATION_COLUMNS[mr.surface] = columns
    return columns


def _candidate_arrays(
    mrs: Sequence[mrl.MeaningRepresentation],
) -> tuple[np.ndarray, np.ndarray]:
    """An (MR, 4) column index and each MR's count of non-pad columns."""
    cached = _DERIVATION_COLUMNS.get
    columns = (cached(mr.surface) or _derivation_columns(mr) for mr in mrs)
    index = np.fromiter(
        itertools.chain.from_iterable(columns), dtype=np.intp, count=4 * len(mrs)
    ).reshape(len(mrs), 4)
    return index, (index != _PAD_COLUMN).sum(axis=1).astype(np.float64)


@lru_cache(maxsize=1)
def _full_space_arrays() -> tuple[np.ndarray, np.ndarray]:
    return _candidate_arrays(mrl.enumerate_mrs())


@lru_cache(maxsize=1)
def _full_space_mrs() -> np.ndarray:
    """enumerate_mrs() as one object array, the same objects in its order."""
    mrs = mrl.enumerate_mrs()
    out = np.empty(len(mrs), dtype=object)
    out[:] = mrs
    return out


def _word_scores(
    smoothed: np.ndarray, words, index: np.ndarray, widths: np.ndarray
) -> np.ndarray:
    """A word's score under an MR: the smoothed t values of the word's
    column at the MR's four index columns, added in slot order, then
    divided by the MR's width.  words (a column of smoothed, or an array of
    them) broadcasts against the MRs' rows of index and widths."""
    rows = index * smoothed.shape[1]
    scores = smoothed.take(words + rows[:, 0])
    for slot in range(1, 4):
        scores += smoothed.take(words + rows[:, slot])
    scores /= widths
    return scores


def _word_columns(tokens: Tokens, alignment: AlignmentModel) -> np.ndarray:
    """Each token's column in t, or t's last column, that of unknown words."""
    columns, unknown = alignment.columns, len(alignment.vocabulary)
    return np.array([columns.get(w, unknown) for w in tokens], dtype=np.intp)


def _sentence_scores(per_word: np.ndarray) -> np.ndarray:
    """Each MR's sentence score from (words x MRs) per-word scores: product, then root."""
    return per_word.prod(axis=0) ** (1.0 / len(per_word))


def score_corpus(
    sentences: Sequence[Tokens],
    candidates: Sequence[Sequence[mrl.MeaningRepresentation]],
    alignment: AlignmentModel,
) -> list[list[float]]:
    """Per-token-normalized Model-1 likelihood of each sentence under each of
    its candidate MRs.

    A word's score under an MR (_word_scores) is the mean of its add-k t
    values over the derivation's productions and NULL, added in derivation
    order; a sentence's score (_sentence_scores) is the product of its
    words' scores raised to one over its length, and an empty sentence
    scores null_floor.  The (sentence, candidate) pairs are grouped by
    sentence length, and each group is one (tokens x pairs) array pass with
    a scalar root.
    """
    smoothed = alignment.smoothed
    counts = [len(mrs) for mrs in candidates]
    floor = null_floor(alignment)
    scores = [[] if tokens else [floor] * count for tokens, count in zip(sentences, counts)]
    by_length: dict[int, list[int]] = defaultdict(list)
    for number, (tokens, count) in enumerate(zip(sentences, counts)):
        if tokens and count:
            by_length[len(tokens)].append(number)
    for length, numbers in by_length.items():
        # (length, sentences) word columns, then one column per pair.
        words = _word_columns([w for n in numbers for w in sentences[n]], alignment)
        words = words.reshape(len(numbers), length).T
        words = np.repeat(words, [counts[n] for n in numbers], axis=1)
        index, widths = _candidate_arrays([mr for n in numbers for mr in candidates[n]])
        group = _sentence_scores(_word_scores(smoothed, words, index, widths)).tolist()
        start = 0
        for n in numbers:
            scores[n] = group[start : start + counts[n]]
            start += counts[n]
    return scores


def score_candidates(
    tokens: Tokens,
    mrs: Sequence[mrl.MeaningRepresentation],
    alignment: AlignmentModel,
) -> list[float]:
    """score_corpus for one sentence and its candidates."""
    return score_corpus([tokens], [mrs], alignment)[0]


class Ranking(collections.abc.Sequence):
    """parse_sentence's result: the MRs in rank order, as an object array of
    the enumerate_mrs() objects, and their scores, a float64 array in the
    same order.  ranking[i] is (mrs[i], float(scores[i])) for an int i,
    negative counting from the end; iteration zips the two arrays' lists."""

    __slots__ = ("mrs", "scores")

    def __init__(self, mrs: np.ndarray, scores: np.ndarray) -> None:
        self.mrs = mrs
        self.scores = scores

    def __len__(self) -> int:
        return len(self.mrs)

    def __getitem__(self, i: int) -> tuple[mrl.MeaningRepresentation, float]:
        i = operator.index(i)  # no slices
        return self.mrs[i], float(self.scores[i])

    def __iter__(self) -> Iterator[tuple[mrl.MeaningRepresentation, float]]:
        return zip(self.mrs.tolist(), self.scores.tolist())


def parse_sentence(tokens: Tokens, model: TranslationModel) -> Ranking:
    """Rank every grammar-valid MR by (-score, serialize_mr), or abstain:
    score_corpus's scores over enumerate_mrs(), read from the sentence's
    rows of alignment.full_space.  Abstention: an empty ranking for an empty
    sentence, or when even the best MR scores at the all-NULL floor, i.e.
    the sentence shares nothing with the model."""
    if not tokens:
        return Ranking(np.empty(0, dtype=object), np.empty(0))
    per_word = model.alignment.full_space.take(_word_columns(tokens, model.alignment), axis=0)
    values = _sentence_scores(per_word)
    if values.max() <= null_floor(model.alignment) * (1.0 + 1e-9):
        return Ranking(np.empty(0, dtype=object), np.empty(0))
    # Two stable sorts, the secondary key first: the surface forms (an
    # object array sorts by Python's <; the surfaces are unique), then the
    # negated scores taken in that order.
    mrs = mrl.enumerate_mrs()
    surfaces = np.fromiter(map(mrl.serialize_mr, mrs), dtype=object, count=len(mrs))
    order = surfaces.argsort(kind="stable")
    order = order[np.argsort(-values[order], kind="stable")]
    return Ranking(_full_space_mrs()[order], values[order])


# Relative slack on the generation bound.  The bound is a product of
# probabilities and ceilings, the score exp(sum of logs) times a product of
# weights; the two
# roundings differ by about 1e-12 relative at most (eps times the number of
# terms and the size of the log sum), far inside this.
_BOUND_SLACK = 1.0 + 1e-9
# Below the smallest normal float rounding is no longer relative, so a k-th
# best score under this prunes nothing.
_PRUNE_FLOOR = sys.float_info.min


def generate_topk(
    mr: mrl.MeaningRepresentation, model: TranslationModel, k: int = DEFAULT_TOPK
) -> list[tuple[tuple[str, ...], float]]:
    """Noisy-channel generation: the k best template/realization combinations.

    Every template must name each argument slot <1>..<arity> exactly once
    (mrl.check_template): extract_templates keeps only such templates and
    load_model rejects any other.  A combination is one template plus one
    realization per argument; it scores LM probability x template weight x
    realization weights, ranked by (-score, tokens); two combinations that
    realize the same sentence are both kept.  Its upper bound is the product
    of a template part and one part per argument (TranslationModel.generation
    and SlotOptions build them once per model).  A best-first search over
    each template's argument choices, sorted by their part in the slot's
    context (Huang & Chiang, 2005), pops
    combinations in bound order and scores them until the best bound left,
    with _BOUND_SLACK, is below the k-th best score: no combination left can
    then reach the top k, so the result is that of scoring all.

    Each (MR, k) is searched once per model: model.generated keeps the
    result, a repeat returns a fresh list of it, and a predicate with no
    template raises NoTemplate on every call.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    key = (mr.surface, k)
    ranked = model.generated.get(key)
    if ranked is None:
        ranked = model.generated[key] = _search_topk(mr, model, k)
    if not ranked:
        raise NoTemplate(mr.predicate.name)
    return list(ranked)


def _search_topk(
    mr: mrl.MeaningRepresentation, model: TranslationModel, k: int
) -> Ranked:
    """generate_topk's best-first search; () for a predicate with no template.

    The frontier starts with the first plan's loose entry, its loose part
    times the product of the arguments' argument_ceilings: no bound of that
    plan or of any later one is above it.  Popping a loose entry reaches its
    plan, building the plan's option lists, and pushes the plan's start and
    the next plan's loose entry.  So a plan whose loose entry is never
    popped builds no option list, and the stop test is the same as if every
    plan's start had been pushed up front (a loose and an exact product
    round apart by far less than _BOUND_SLACK)."""
    plans = model.generation.get(mr.predicate.name)
    if not plans:
        return ()
    tokens = [arg.token for arg in mr.args]
    scale = 1.0
    for token in tokens:
        scale *= model.argument_ceilings[token]
    # Per reached plan, each argument's options in its slot's context.
    # Plans are reached in order, so choices[number] is plan number's.
    choices: list[list[list[Option]]] = []

    def bound(number: int, indices: tuple[int, ...]) -> float:
        part = plans[number][2]
        for argument, i in zip(choices[number], indices):
            part *= argument[i][0]
        return part

    start = (0,) * len(tokens)
    # (-bound, plan number, choice index per argument, last incremented
    # one), last -1 on a loose entry
    frontier = [(-plans[0][3] * scale, 0, start, -1)]

    scored: list[tuple[tuple[str, ...], float]] = []
    best: list[float] = []  # min-heap of the k best scores so far
    while frontier:
        negated, number, indices, last = frontier[0]
        if len(best) == k and best[0] >= _PRUNE_FLOOR and -negated * _BOUND_SLACK < best[0]:
            break
        heapq.heappop(frontier)
        if last < 0:
            choices.append([slot[token] for slot, token in zip(plans[number][4], tokens)])
            heapq.heappush(frontier, (-bound(number, start), number, start, 0))
            following = number + 1
            if following < len(plans):
                heapq.heappush(frontier, (-plans[following][3] * scale, following, start, -1))
            continue
        runs, weight, *_ = plans[number]
        arguments = choices[number]
        realized: list[str] = []
        for run in runs:
            if isinstance(run, int):
                _, realization, realization_weight = arguments[run][indices[run]]
                realized.extend(realization)
                weight *= realization_weight
            else:
                realized.extend(run)
        score = model.lm.sentence_prob(realized) * weight
        scored.append((tuple(realized), score))
        if len(best) < k:
            heapq.heappush(best, score)
        else:
            heapq.heappushpop(best, score)
        # Successors increment one index at or after the last incremented
        # one, so each index vector is reached from exactly one parent.
        for a in range(last, len(indices)):
            if indices[a] + 1 < len(arguments[a]):
                successor = indices[:a] + (indices[a] + 1,) + indices[a + 1 :]
                heapq.heappush(frontier, (-bound(number, successor), number, successor, a))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return tuple(scored[:k])


_SECTION_FIELDS = {"alignment": 3, "templates": 4, "lm": 3}
_CONSTANT_TOKENS = frozenset(c.token for c in mrl.CONSTANTS)


def _words(text: str) -> tuple[str, ...]:
    """A model-file field's space-separated words, none of them empty."""
    words = tuple(text.split(" "))
    if "" in words:
        raise ValueError(f"empty word in {text!r}")
    return words


def _probability(text: str) -> float:
    """A model-file probability or weight: a finite number in (0, 1]."""
    value = float(text)
    if not 0.0 < value <= 1.0:  # NaN fails the comparison too
        raise ValueError(f"{text!r} is not a number in (0, 1]")
    return value


def save_model(model: TranslationModel, path) -> None:
    lines = ["[alignment]"]
    alignment = model.alignment
    size = len(alignment.vocabulary)
    for key in sorted(_COLUMN_KEYS):
        probs = alignment.t[_COLUMN_INDEX[key], :size].tolist()
        for word, prob in zip(alignment.vocabulary, probs):
            if prob > 0.0:
                lines.append(f"{key}\t{word}\t{fmt(prob)}")
    lines.append("[templates]")
    lexicon = model.lexicon
    for kind, table in (("S", lexicon.templates), ("C", lexicon.realizations)):
        for name in sorted(table):
            for items, weight in sorted(table[name].items()):
                lines.append(f"{kind}\t{name}\t{fmt(weight)}\t{' '.join(items)}")
    lines.append("[lm]")
    for context in sorted(model.lm.counts):
        for word, count in sorted(model.lm.counts[context].items()):
            lines.append(f"{' '.join(context)}\t{word}\t{count}")
    write_lines(path, lines)


def load_model(path) -> TranslationModel:
    """Inverse of save_model (alignment LL history is not persisted); a
    malformed line raises FormatError naming its file and line, and so does a
    section header or an entry key read twice."""
    first_at: dict = {}
    entries: list[tuple[int, str, float]] = []
    templates: dict[str, dict[tuple[str, ...], float]] = {}
    realizations: dict[str, dict[tuple[str, ...], float]] = {}
    counts: dict[tuple[str, ...], Counter] = {}
    section = None
    for lineno, line in read_lines(path):
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
            if section not in _SECTION_FIELDS:
                raise FormatError(str(path), lineno, f"unknown section {section!r}")
            check_unique(first_at, section, path, lineno, f"section [{section}]")
            continue
        if section is None:
            raise FormatError(str(path), lineno, "line outside any section")
        fields = split_fields(path, lineno, line, _SECTION_FIELDS[section])
        with at_line(path, lineno):
            if section == "alignment":
                key, word, prob = fields
                if key not in _COLUMN_INDEX:
                    raise ValueError(f"unknown production key {key!r}")
                _words(word)
                check_unique(first_at, (section, key, word), path, lineno,
                             f"alignment entry {key} {word!r}")
                entries.append((_COLUMN_INDEX[key], word, _probability(prob)))
            elif section == "templates":
                kind, name, weight, body = fields
                items = _words(body)
                if kind == "S":
                    mrl.check_template(name, items)
                elif kind != "C":
                    raise ValueError(f"unknown line kind {kind!r}, expected S or C")
                elif name not in _CONSTANT_TOKENS:
                    raise ValueError(f"unknown constant {name!r}")
                check_unique(first_at, (section, kind, name, items), path, lineno,
                             f"{kind} line for {name} {body!r}")
                target = templates if kind == "S" else realizations
                target.setdefault(name, {})[items] = _probability(weight)
            else:
                text, word, count = fields
                _words(word)
                context = _words(text)
                check_unique(first_at, (section, context, word), path, lineno,
                             f"LM count for {word!r} after {text!r}")
                bucket = counts.setdefault(context, Counter())
                bucket[word] = int(count)
                if bucket[word] < 1:
                    raise ValueError(f"LM count {count!r} below 1")
                if len(context) != LM_ORDER - 1:
                    raise ValueError(f"LM context {text!r} is not {LM_ORDER - 1} words")
    vocabulary = tuple(sorted({word for _, word, _ in entries}))
    columns = {word: i for i, word in enumerate(vocabulary)}
    t = np.zeros((_PAD_COLUMN + 1, len(vocabulary) + 1), dtype=np.float64)
    for row, word, prob in entries:
        t[row, columns[word]] = prob
    return TranslationModel(
        alignment=AlignmentModel(t=t, vocabulary=vocabulary),
        lexicon=TemplateLexicon(templates=templates, realizations=realizations),
        lm=LanguageModel(counts=counts),
    )
