"""Tactical translation between sentences and meaning representations.

The model is a bundle of three independently trained parts:

  * AlignmentModel: IBM-Model-1 word/production translation table, one
    (production x word) array trained by EM over (sentence, MR) pairs.  Words
    align to the productions of the MR's derivation plus a NULL production
    that absorbs function words.
  * TemplateLexicon: per-predicate sentence templates with numbered argument
    slots, plus per-constant surface realizations, both read off the trained
    alignment by argmax assignment.
  * LanguageModel: an add-k trigram model over the training sentences.  When
    it is fit or loaded it tabulates the log-probability of every seen
    n-gram, one floor per seen context and one for unseen contexts, so
    scoring a sentence adds up table entries.

Parsing ranks candidate MRs by the per-token-normalized Model-1 likelihood,
ties broken by canonical surface form (serialize_mr, built once per MR);
generation instantiates templates and ranks by the noisy-channel product
(LM probability times template and realization weights).  It searches the
template/realization combinations best-first under an upper bound that
factors per argument, and scores only those that can still reach the top k.

Scoring is implemented once, vectorized over candidates; score_pair is the
single-candidate view of the same arithmetic, so restricted and full-space
rankings can never disagree.
"""

from __future__ import annotations

import heapq
import math
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

from . import mrl
from .corpus import FormatError, fmt, read_lines, split_fields, write_lines

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
    """t[row, column] = Pr(word | production): rows follow _COLUMN_KEYS, columns
    the sorted vocabulary; a production absent from training has a zero row."""

    t: np.ndarray
    vocabulary: tuple[str, ...]
    log_likelihoods: tuple[float, ...] = ()

    @cached_property
    def columns(self) -> dict[str, int]:
        """Vocabulary word -> its column in t."""
        return {word: i for i, word in enumerate(self.vocabulary)}


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
    vocabulary: frozenset[str] = frozenset()
    # Derived from counts and vocabulary by _index: the count total of each
    # context, each word's largest probability over all contexts, and the
    # log-probability tables sentence_logprob reads: one entry per seen
    # (context..., word) n-gram, one floor per seen context for its unseen
    # words, and log_unseen for a context with no counts.
    totals: dict[tuple[str, ...], int] = field(init=False, repr=False, compare=False)
    ceilings: dict[str, float] = field(init=False, repr=False, compare=False)
    unseen: float = field(init=False, repr=False, compare=False)
    log_grams: dict[tuple[str, ...], float] = field(init=False, repr=False, compare=False)
    log_floors: dict[tuple[str, ...], float] = field(init=False, repr=False, compare=False)
    log_unseen: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._index()

    def fit(self, sentences: Iterable[Tokens]) -> "LanguageModel":
        """Add the sentences' n-gram counts; the vocabulary grows by their words."""
        words: set[str] = set()
        for sentence in sentences:
            words.update(sentence)
            padded = [_START] * (LM_ORDER - 1) + list(sentence) + [_END]
            for i in range(LM_ORDER - 1, len(padded)):
                context = tuple(padded[i - LM_ORDER + 1 : i])
                self.counts.setdefault(context, Counter())[padded[i]] += 1
        self.vocabulary = self.vocabulary | words
        self._index()
        return self

    def _index(self) -> None:
        self.totals = {context: sum(bucket.values()) for context, bucket in self.counts.items()}
        smoothing = LM_K * (len(self.vocabulary) + 1)
        # probability() of any word in a context with no counts.
        self.unseen = LM_K / smoothing
        self.log_unseen = math.log(self.unseen)
        self.ceilings, self.log_grams, self.log_floors = {}, {}, {}
        for context, bucket in self.counts.items():
            # probability() of a word this context has not seen.
            self.log_floors[context] = math.log(LM_K / (self.totals[context] + smoothing))
            for word in bucket:
                p = self.probability(word, context)
                self.log_grams[context + (word,)] = math.log(p)
                if p > self.ceilings.get(word, self.unseen):
                    self.ceilings[word] = p

    def probability(self, word: str, context: tuple[str, ...]) -> float:
        bucket = self.counts.get(context)
        seen = bucket[word] if bucket else 0
        total = self.totals.get(context, 0)
        return (seen + LM_K) / (total + LM_K * (len(self.vocabulary) + 1))

    def sentence_logprob(self, tokens: Tokens) -> float:
        """Sum of log probability() over the padded sentence, read from the
        tables _index builds and added left to right."""
        padded = [_START] * (LM_ORDER - 1) + list(tokens) + [_END]
        grams, floors, unseen = self.log_grams, self.log_floors, self.log_unseen
        return sum(
            grams[gram] if gram in grams else floors.get(gram[:-1], unseen)
            for gram in zip(*(padded[i:] for i in range(LM_ORDER)))
        )

    def sentence_prob(self, tokens: Tokens) -> float:
        return math.exp(self.sentence_logprob(tokens))


@dataclass
class TranslationModel:
    alignment: AlignmentModel
    lexicon: TemplateLexicon
    lm: LanguageModel


def train_alignment(pairs: Sequence[Pair], iterations: int = 25) -> AlignmentModel:
    """Model-1 EM: uniform init, then expected-count renormalization.

    The corpus is flattened once into (token, production slot) cells of the
    table; each E-step gathers them and np.add.at adds in corpus order.
    """
    if not pairs:
        raise EmptyTrainingSet("no (sentence, mr) pairs to align")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    vocabulary = tuple(sorted({w for tokens, _ in pairs for w in tokens}))
    if not vocabulary:
        raise EmptyTrainingSet("training pairs contain no words")
    size = len(vocabulary)
    column = {word: i for i, word in enumerate(vocabulary)}
    index, widths = _candidate_arrays([mr for _, mr in pairs])
    lengths = [len(tokens) for tokens, _ in pairs]
    words = np.array([column[w] for tokens, _ in pairs for w in tokens], dtype=np.intp)
    rows = np.repeat(index, lengths, axis=0)
    width = np.repeat(widths, lengths)
    cells = rows * size + words[:, None]  # flat (row, word) cell per token slot
    # Builtin sum in first-reach order: the same row totals a dict per row gives.
    reached, first = np.unique(cells[rows != _PAD_COLUMN], return_index=True)
    reached = reached[np.lexsort((first, reached // size))]
    trained, starts = np.unique(reached // size, return_index=True)
    groups = np.split(reached, starts[1:])
    # The pad row stays zero, so padded slots add nothing.
    t = np.zeros((_PAD_COLUMN + 1, size), dtype=np.float64)
    t[trained] = 1.0 / size
    history = []
    for step in range(iterations + 1):
        gathered = t.take(cells)
        denominators = gathered.sum(axis=1)
        history.append(float(np.log(denominators / width).sum()))
        if step == iterations:
            break
        expected = np.zeros(t.size, dtype=np.float64)
        np.add.at(expected, cells, gathered / denominators[:, None])
        totals = np.array([sum(expected[group].tolist()) for group in groups])
        t[trained] = expected.reshape(t.shape)[trained] / totals[:, None]
    return AlignmentModel(
        t=t[:_PAD_COLUMN], vocabulary=vocabulary, log_likelihoods=tuple(history)
    )


def extract_templates(pairs: Sequence[Pair], alignment: AlignmentModel) -> TemplateLexicon:
    """Argmax-assign each token to a production, then cut out constant runs.

    A maximal contiguous run of tokens owned by one constant production is
    recorded as that constant's surface realization.  Runs are matched to
    argument positions in order (so pass(pink1,pink1) consumes its two slots
    left to right); a run with no remaining slot stays in the template as
    literal text.  A template that fails mrl.check_template is discarded:
    one missing an argument slot cannot generate the full MR, and one with a
    literal word that reads as a slot marker could not be loaded back.
    """
    template_counts: dict[str, Counter] = defaultdict(Counter)
    realization_counts: dict[str, Counter] = defaultdict(Counter)
    for tokens, mr in pairs:
        tokens = tuple(tokens)
        deriv = mrl.derivation(mr)
        # Ties favor argument productions (in argument order) over the head,
        # and NULL never wins a tie: a fully symmetric table, as on a
        # single-pair corpus, must still yield a slotted, usable template.
        keys = [p.key for p in deriv[1:]] + [deriv[0].key, NULL_KEY]
        raw = _raw_table(tokens, alignment)[:, [_COLUMN_INDEX[key] for key in keys]]
        # argmax takes the first maximum, i.e. the tie order of keys.
        assigned = [keys[i] for i in raw.argmax(axis=1).tolist()]
        # Argument positions still wanting a slot, queued per constant key.
        open_slots: dict[str, list[int]] = defaultdict(list)
        for position, production in enumerate(deriv[1:], start=1):
            open_slots[production.key].append(position)
        items: list[str] = []
        i = 0
        while i < len(tokens):
            key = assigned[i]
            if key in open_slots:
                j = i
                while j < len(tokens) and assigned[j] == key:
                    j += 1
                realization_counts[key][tokens[i:j]] += 1
                if open_slots[key]:
                    items.append(f"<{open_slots[key].pop(0)}>")
                else:
                    items.extend(tokens[i:j])
                i = j
            else:
                items.append(tokens[i])
                i += 1
        template = tuple(items)
        try:
            mrl.check_template(mr.predicate.name, template)
        except ValueError:
            continue
        template_counts[mr.predicate.name][template] += 1

    def normalize(counts: Counter) -> dict:
        total = sum(counts.values())
        return {item: c / total for item, c in sorted(counts.items())}

    return TemplateLexicon(
        templates={k: normalize(c) for k, c in sorted(template_counts.items())},
        realizations={k: normalize(c) for k, c in sorted(realization_counts.items())},
    )


def train(pairs: Sequence[Pair], iterations: int = 25) -> TranslationModel:
    """Alignment EM, template extraction, and LM fit in one call."""
    if not pairs:
        raise EmptyTrainingSet("no (sentence, mr) pairs to train on")
    alignment = train_alignment(pairs, iterations)
    lexicon = extract_templates(pairs, alignment)
    lm = LanguageModel().fit([tokens for tokens, _ in pairs])
    return TranslationModel(alignment=alignment, lexicon=lexicon, lm=lm)


def null_floor(model: TranslationModel) -> float:
    """Per-word score of a sentence with no vocabulary overlap at all."""
    size = len(model.alignment.vocabulary)
    return SMOOTHING_K / (1.0 + SMOOTHING_K * size)


def _candidate_arrays(
    mrs: Sequence[mrl.MeaningRepresentation],
) -> tuple[np.ndarray, np.ndarray]:
    index = np.full((len(mrs), 4), _PAD_COLUMN, dtype=np.intp)
    widths = np.empty(len(mrs), dtype=np.float64)
    for row, mr in enumerate(mrs):
        keys = [p.key for p in mrl.derivation(mr)] + [NULL_KEY]
        for col, key in enumerate(keys):
            index[row, col] = _COLUMN_INDEX[key]
        widths[row] = len(keys)
    return index, widths


@lru_cache(maxsize=1)
def _full_space_arrays() -> tuple[np.ndarray, np.ndarray]:
    return _candidate_arrays(mrl.enumerate_mrs())


def _raw_table(tokens: Tokens, alignment: AlignmentModel) -> np.ndarray:
    """(word, production column) t values; unknown words and the pad col 0."""
    columns = np.array([alignment.columns.get(w, -1) for w in tokens], dtype=np.intp)
    known = columns >= 0
    raw = np.zeros((len(tokens), _PAD_COLUMN + 1), dtype=np.float64)
    raw[known, :_PAD_COLUMN] = alignment.t[:, columns[known]].T
    return raw


def _smoothed_table(tokens: Tokens, model: TranslationModel) -> np.ndarray:
    """(word, production column) add-k translation probabilities, pad col 0."""
    denominator = 1.0 + SMOOTHING_K * len(model.alignment.vocabulary)
    table = (_raw_table(tokens, model.alignment) + SMOOTHING_K) / denominator
    table[:, _PAD_COLUMN] = 0.0
    return table


def score_candidates(
    tokens: Tokens,
    mrs: Sequence[mrl.MeaningRepresentation],
    model: TranslationModel,
) -> list[float]:
    """Per-token-normalized Model-1 likelihood of the sentence for each MR."""
    if not mrs:
        return []
    if not tokens:
        return [null_floor(model)] * len(mrs)
    if mrs is mrl.enumerate_mrs():
        index, widths = _full_space_arrays()
    else:
        index, widths = _candidate_arrays(mrs)
    table = _smoothed_table(tokens, model)
    # (words, mrs): sum production columns in derivation order, NULL, pads.
    per_word = table[:, index].sum(axis=2) / widths
    scores = per_word.prod(axis=0) ** (1.0 / len(tokens))
    return scores.tolist()


def score_pair(
    tokens: Tokens, mr: mrl.MeaningRepresentation, model: TranslationModel
) -> float:
    return score_candidates(tokens, (mr,), model)[0]


def parse_sentence(
    tokens: Tokens,
    model: TranslationModel,
    candidates: Sequence[mrl.MeaningRepresentation] | None = None,
) -> list[tuple[mrl.MeaningRepresentation, float]]:
    """Rank candidate MRs (the full space when none are given), or abstain.

    The order is (-score, serialize_mr); candidates equal on both, such as
    a repeated MR, keep their input order.

    Abstention: an empty result whenever even the best candidate scores at
    the all-NULL floor, i.e. the sentence shares nothing with the model.
    """
    mrs = mrl.enumerate_mrs() if candidates is None else tuple(candidates)
    if not mrs:
        return []
    scores = score_candidates(tokens, mrs, model)
    if max(scores) <= null_floor(model) * (1.0 + 1e-9):
        return []
    # Two stable sorts, the secondary key first, each keyed by a C-level
    # list lookup.
    surfaces = [mrl.serialize_mr(mr) for mr in mrs]
    order = sorted(range(len(mrs)), key=surfaces.__getitem__)
    order.sort(key=scores.__getitem__, reverse=True)
    return [(mrs[i], scores[i]) for i in order]


# Relative slack on the generation bound.  The bound is a product of
# ceilings, the score exp(sum of logs) times a product of weights; the two
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
    realize the same sentence are both kept.  Its upper bound takes each
    token's LM probability at the token's ceiling over all contexts, so it
    factors into a template part (weight, literal tokens, </s>) and one part
    per argument (realization weight, realization tokens).  A best-first
    search over each template's argument choices, sorted by their part
    (Huang & Chiang, 2005), pops combinations in bound order and scores them
    until the best bound left, with _BOUND_SLACK, is below the k-th best
    score: no combination left can then reach the top k, so the result is
    that of scoring all.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    templates = model.lexicon.templates.get(mr.predicate.name)
    if not templates:
        raise NoTemplate(mr.predicate.name)
    lm = model.lm
    ceilings, unseen = lm.ceilings, lm.unseen
    # (bound part, tokens, weight) per realization of each argument, best
    # part first; an unseen constant is realized as its own token.
    choices = []
    for arg in mr.args:
        options = []
        realizations = model.lexicon.realizations.get(arg.token) or {(arg.token,): 1.0}
        for tokens, weight in realizations.items():
            part = weight
            for token in tokens:
                part *= ceilings.get(token, unseen)
            options.append((part, tokens, weight))
        options.sort(key=lambda option: (-option[0], option[1]))
        choices.append(options)

    def bound(part: float, indices: tuple[int, ...]) -> float:
        for options, i in zip(choices, indices):
            part *= options[i][0]
        return part

    plans = []  # (items, template weight, template part) per template
    frontier = []  # (-bound, plan number, choice index per argument)
    start = (0,) * len(choices)
    for template, weight in templates.items():
        items, _, literals = mrl.template_items(template)
        part = weight
        for token in literals + (_END,):
            part *= ceilings.get(token, unseen)
        frontier.append((-bound(part, start), len(plans), start))
        plans.append((items, weight, part))
    heapq.heapify(frontier)

    scored: list[tuple[tuple[str, ...], float]] = []
    best: list[float] = []  # min-heap of the k best scores so far
    while frontier:
        negated, number, indices = frontier[0]
        if len(best) == k and best[0] >= _PRUNE_FLOOR and -negated * _BOUND_SLACK < best[0]:
            break
        heapq.heappop(frontier)
        items, weight, part = plans[number]
        realized: list[str] = []
        for item in items:
            if isinstance(item, int):
                _, tokens, realization_weight = choices[item - 1][indices[item - 1]]
                realized.extend(tokens)
                weight *= realization_weight
            else:
                realized.append(item)
        score = lm.sentence_prob(realized) * weight
        scored.append((tuple(realized), score))
        if len(best) < k:
            heapq.heappush(best, score)
        else:
            heapq.heappushpop(best, score)
        # Successors increment one index at or after the last incremented
        # one, so each index vector is reached from exactly one parent.
        last = max((a for a, i in enumerate(indices) if i), default=0)
        for a in range(last, len(indices)):
            if indices[a] + 1 < len(choices[a]):
                successor = indices[:a] + (indices[a] + 1,) + indices[a + 1 :]
                heapq.heappush(frontier, (-bound(part, successor), number, successor))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored[:k]


_SECTION_FIELDS = {"alignment": 3, "templates": 4, "lm": 3}
_CONSTANT_TOKENS = frozenset(c.token for c in mrl.CONSTANTS)


def _probability(text: str) -> float:
    """A model-file probability or weight: a finite number in (0, 1]."""
    value = float(text)
    if not 0.0 < value <= 1.0:  # NaN fails the comparison too
        raise ValueError(f"{text!r} is not a number in (0, 1]")
    return value


def save_model(model: TranslationModel, path) -> None:
    lines = ["[alignment]"]
    for key in sorted(_COLUMN_KEYS):
        probs = model.alignment.t[_COLUMN_INDEX[key]].tolist()
        for word, prob in zip(model.alignment.vocabulary, probs):
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
    malformed line raises FormatError naming its file and line."""
    entries: list[tuple[int, str, float]] = []
    templates: dict[str, dict[tuple[str, ...], float]] = {}
    realizations: dict[str, dict[tuple[str, ...], float]] = {}
    counts: dict[tuple[str, ...], Counter] = {}
    section = None
    for lineno, line in read_lines(path):
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
            continue
        if section not in _SECTION_FIELDS:
            raise FormatError(str(path), lineno, "line outside any section")
        fields = split_fields(path, lineno, line, _SECTION_FIELDS[section])
        try:
            if section == "alignment":
                key, word, prob = fields
                if key not in _COLUMN_INDEX:
                    raise ValueError(f"unknown production key {key!r}")
                entries.append((_COLUMN_INDEX[key], word, _probability(prob)))
            elif section == "templates":
                kind, name, weight, body = fields
                items = tuple(body.split(" "))
                if kind == "S":
                    mrl.check_template(name, items)
                elif kind != "C":
                    raise ValueError(f"unknown line kind {kind!r}, expected S or C")
                elif name not in _CONSTANT_TOKENS:
                    raise ValueError(f"unknown constant {name!r}")
                target = templates if kind == "S" else realizations
                target.setdefault(name, {})[items] = _probability(weight)
            else:
                context, word, count = fields
                bucket = counts.setdefault(tuple(context.split(" ")), Counter())
                bucket[word] = int(count)
                if bucket[word] < 1:
                    raise ValueError(f"LM count {count!r} below 1")
        except ValueError as err:
            raise FormatError(str(path), lineno, str(err)) from None
    vocabulary = tuple(sorted({word for _, word, _ in entries}))
    t = np.zeros((len(_COLUMN_KEYS), len(vocabulary)), dtype=np.float64)
    alignment = AlignmentModel(t=t, vocabulary=vocabulary)
    for row, word, prob in entries:
        alignment.t[row, alignment.columns[word]] = prob
    lm_words = {word for bucket in counts.values() for word in bucket}
    lm = LanguageModel(counts=counts, vocabulary=frozenset(lm_words - {_END}))
    return TranslationModel(
        alignment=alignment,
        lexicon=TemplateLexicon(templates=templates, realizations=realizations),
        lm=lm,
    )
