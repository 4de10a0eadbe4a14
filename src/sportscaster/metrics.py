"""Evaluation: matching/parsing F1, document BLEU, additive NIST, METEOR.

The n-gram metrics are self-contained implementations of the exact variants
used by the learning loops and reports:

  * BLEU is corpus-level only (clipped counts pooled over all segments before
    the geometric mean), never sentence-level, with the standard brevity
    penalty against the closest-length reference.
  * NIST is the additive n-gram precision sum with uniform information
    weights and the quadratic-log brevity factor pinned to 0.5 at a 2/3
    length ratio.  Unlike BLEU it rewards partial matches, so two sentences
    sharing any unigram score above zero.  A caller scoring many pairs
    can keep each sentence's n-gram counts across calls (NistProfiles).
  * METEOR uses exact unigram alignment (most matches, then fewest chunks),
    recall-weighted harmonic mean 10PR/(R+9P), and the 0.5*(chunks/matches)^3
    fragmentation penalty.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping, Sequence

from . import mrl
from .corpus import Game, fmt, gold_event_mrs, lines_text

Tokens = Sequence[str]

_NIST_MAX_N = 5
# Brevity exponent: exp(beta * ln^2(2/3)) = 0.5.
_NIST_BETA = math.log(0.5) / math.log(2 / 3) ** 2


class EmptyReferences(ValueError):
    pass


@dataclass
class EvalReport:
    task: str
    precision: float | None = None
    recall: float | None = None
    f1: float | None = None
    bleu: float | None = None
    nist: float | None = None
    counts: dict[str, int] = field(default_factory=dict)
    breakdown: dict[str, dict[str, float]] = field(default_factory=dict)


def _prf(correct: int, predicted: int, gold_total: int) -> tuple[float, float, float]:
    p = correct / predicted if predicted else 0.0
    r = correct / gold_total if gold_total else 0.0
    return p, r, (2 * p * r / (p + r) if p + r > 0 else 0.0)


def matching_f1(
    predicted: Mapping[Hashable, int],
    gold: Mapping[Hashable, int | None],
) -> EvalReport:
    """Score a comment-to-event assignment against the gold matching."""
    gold_bearing = {k for k, v in gold.items() if v is not None}
    correct = sum(1 for k, e in predicted.items() if gold.get(k) == e)
    p, r, f = _prf(correct, len(predicted), len(gold_bearing))
    report = EvalReport(
        task="matching",
        precision=p,
        recall=r,
        f1=f,
        counts={
            "correct": correct,
            "predicted": len(predicted),
            "gold": len(gold_bearing),
        },
    )
    games = {k[0] for k in predicted if isinstance(k, tuple) and len(k) == 2}
    if games and all(isinstance(k, tuple) and len(k) == 2 for k in gold):
        for game in sorted(games):
            sub_pred = {k: v for k, v in predicted.items() if k[0] == game}
            sub_gold = {k: v for k, v in gold.items() if k[0] == game}
            c = sum(1 for k, e in sub_pred.items() if sub_gold.get(k) == e)
            gp, gr, gf = _prf(
                c, len(sub_pred), sum(1 for v in sub_gold.values() if v is not None)
            )
            report.breakdown[game] = {"precision": gp, "recall": gr, "f1": gf}
    return report


def parsing_f1(
    parses: Mapping[Hashable, mrl.MeaningRepresentation | None],
    gold_mrs: Mapping[Hashable, mrl.MeaningRepresentation | None],
) -> EvalReport:
    """Exact-match parse accuracy over gold-bearing comments.

    Precision counts only emitted (non-abstaining) parses; recall counts all
    gold-bearing comments, so abstentions cost recall but not precision.
    The counts also sort every gold-bearing comment into exactly one of
    correct, argument_permutation (the gold's predicate and arguments in
    another order), wrong_arguments (the gold's predicate), wrong_predicate
    and abstained, and count chatter_parsed: comments whose gold is None
    that still got a parse.
    """
    gold = {k: v for k, v in gold_mrs.items() if v is not None}
    emitted = {k: v for k, v in parses.items() if k in gold and v is not None}
    outcomes = Counter(_parse_outcome(v, gold[k]) for k, v in emitted.items())
    p, r, f = _prf(outcomes["correct"], len(emitted), len(gold))
    counts = {name: outcomes[name] for name in _EMITTED_OUTCOMES}
    counts.update(
        abstained=len(gold) - len(emitted),
        chatter_parsed=sum(
            1 for k, v in gold_mrs.items() if v is None and parses.get(k) is not None
        ),
        emitted=len(emitted),
        gold=len(gold),
    )
    return EvalReport(task="parsing", precision=p, recall=r, f1=f, counts=counts)


_EMITTED_OUTCOMES = ("correct", "argument_permutation", "wrong_arguments", "wrong_predicate")


def _parse_outcome(parse: mrl.MeaningRepresentation, gold: mrl.MeaningRepresentation) -> str:
    if parse == gold:
        return "correct"
    if parse.predicate != gold.predicate:
        return "wrong_predicate"
    if sorted(a.token for a in parse.args) == sorted(a.token for a in gold.args):
        return "argument_permutation"
    return "wrong_arguments"


def _ngram_counts(tokens: Tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu_document(
    segments: Iterable[tuple[Tokens, Sequence[Tokens]]],
    max_n: int = 4,
) -> float:
    """Corpus BLEU over (candidate, references) segments pooled as one document.

    Segments often share one reference list (every segment of an MR), so the
    lengths and clip tables of each distinct list are built once
    (_clip_tables)."""
    matched = [0] * max_n
    total = [0] * max_n
    candidate_len = 0
    reference_len = 0
    tables: dict[tuple[tuple[str, ...], ...], tuple[set[int], list[dict]]] = {}
    for candidate, references in segments:
        key = tuple(map(tuple, references))
        if not key:
            raise EmptyReferences("segment has no reference sentences")
        if key not in tables:
            tables[key] = _clip_tables(key, max_n)
        lengths, clips = tables[key]
        candidate_len += len(candidate)
        # Closest reference length; ties prefer the shorter reference.
        reference_len += min((abs(length - len(candidate)), length) for length in lengths)[1]
        for n, clip in enumerate(clips, start=1):
            cand_counts = _ngram_counts(candidate, n)
            if not cand_counts:
                continue
            total[n - 1] += sum(cand_counts.values())
            matched[n - 1] += sum(
                min(count, clip.get(gram, 0)) for gram, count in cand_counts.items()
            )
    if candidate_len == 0 or any(m == 0 for m in matched) or any(t == 0 for t in total):
        return 0.0
    log_precision = sum(math.log(m / t) for m, t in zip(matched, total)) / max_n
    brevity = math.exp(min(0.0, 1.0 - reference_len / candidate_len))
    return brevity * math.exp(log_precision)


def _clip_tables(
    references: Sequence[tuple[str, ...]], max_n: int
) -> tuple[set[int], list[dict]]:
    """A reference list's distinct sentence lengths, and for n = 1..max_n its
    clip table: each n-gram's largest count in any one sentence.  A maximum
    ignores repeats, so each distinct sentence is counted once."""
    distinct = set(references)
    clips = []
    for n in range(1, max_n + 1):
        clip: dict[tuple[str, ...], int] = {}
        for reference in distinct:
            for gram, count in _ngram_counts(reference, n).items():
                if count > clip.get(gram, 0):
                    clip[gram] = count
        clips.append(clip)
    return {len(reference) for reference in distinct}, clips


class NistProfiles(dict):
    """Token tuple -> its NIST profile: its length and the count of each
    of its n-grams, n = 1..5, in one Counter.  Each profile is built on
    first use and kept."""

    def __missing__(self, tokens: tuple[str, ...]) -> tuple[int, Counter]:
        sizes = range(1, min(len(tokens), _NIST_MAX_N) + 1)
        counts = Counter(tokens[i : i + n] for n in sizes for i in range(len(tokens) - n + 1))
        profile = self[tokens] = (len(tokens), counts)
        return profile


def nist(candidate: Tokens, reference: Tokens, profiles: NistProfiles | None = None) -> float:
    """Additive n-gram precision with uniform weights and quadratic-log brevity.

    profiles, when given, keeps each sentence's n-gram counts across calls."""
    if not candidate or not reference:
        raise ValueError("candidate and reference must be nonempty")
    if profiles is None:
        profiles = NistProfiles()
    length, candidate_counts = profiles[tuple(candidate)]
    reference_length, reference_counts = profiles[tuple(reference)]
    matched = [0] * min(length, _NIST_MAX_N)  # clipped matches per n
    get = reference_counts.get
    for gram, count in candidate_counts.items():
        matched[len(gram) - 1] += min(count, get(gram, 0))
    score = 0.0
    for n, m in enumerate(matched, start=1):
        score += m / (length - n + 1)
    ratio = min(1.0, length / reference_length)
    return score * math.exp(_NIST_BETA * math.log(ratio) ** 2)


def nist_ceiling(candidate: Tokens) -> float:
    """The largest value nist(candidate, reference) can take, for any
    reference: each of its at most min(len(candidate), 5) precision terms
    is at most 1 and the brevity factor is at most 1.  Rounding is
    monotone, so the computed value keeps under it too."""
    return float(min(len(candidate), _NIST_MAX_N))


# meteor never exceeds 1: its F-mean and its (1 - penalty) are each at most 1
METEOR_CEILING = 1.0


def _meteor_alignment(candidate: Tokens, reference: Tokens) -> tuple[int, int]:
    """(matches, chunks) of the alignment with most matches, then fewest chunks."""
    ref_positions: dict[str, list[int]] = {}
    for j, word in enumerate(reference):
        ref_positions.setdefault(word, []).append(j)

    memo: dict[tuple[int, int, frozenset[int]], tuple[int, int]] = {}

    def best(i: int, prev_ref: int, used: frozenset[int]) -> tuple[int, int]:
        if i == len(candidate):
            return (0, 0)
        key = (i, prev_ref, used)
        if key in memo:
            return memo[key]
        # Skip this candidate token.
        matches, neg_chunks = best(i + 1, -2, used)
        value = (matches, neg_chunks)
        for j in ref_positions.get(candidate[i], ()):
            if j in used:
                continue
            sub_matches, sub_neg = best(i + 1, j, used | {j})
            new_chunk = 0 if j == prev_ref + 1 else 1
            cand_value = (sub_matches + 1, sub_neg - new_chunk)
            if cand_value > value:
                value = cand_value
        memo[key] = value
        return value

    matches, neg_chunks = best(0, -2, frozenset())
    return matches, -neg_chunks


def meteor(candidate: Tokens, reference: Tokens) -> float:
    if not candidate or not reference:
        raise ValueError("candidate and reference must be nonempty")
    matches, chunks = _meteor_alignment(candidate, reference)
    if matches == 0:
        return 0.0
    precision = matches / len(candidate)
    recall = matches / len(reference)
    f_mean = 10 * precision * recall / (recall + 9 * precision)
    penalty = 0.5 * (chunks / matches) ** 3
    return f_mean * (1.0 - penalty)


def expand_references(
    games: Iterable[Game],
) -> dict[str, list[tuple[str, ...]]]:
    """All gold-matched sentences per MR surface form, pooled across games.

    Generation for an MR is scored against every sentence any commentator
    produced for an identical MR anywhere in the test data.
    """
    refs: dict[str, list[tuple[str, ...]]] = {}
    for game in games:
        comments = {c.id: c for c in game.comments}
        for comment_id, mr in gold_event_mrs(game).items():
            if mr is not None:
                key = mrl.serialize_mr(mr)
                refs.setdefault(key, []).append(comments[comment_id].tokens)
    return refs


_SCALARS = ("precision", "recall", "f1", "bleu", "nist")


def _scalars(report: EvalReport) -> list[tuple[str, float]]:
    """(name, value) of each scalar score the report sets, in _SCALARS order."""
    values = ((name, getattr(report, name)) for name in _SCALARS)
    return [(name, value) for name, value in values if value is not None]


def report_to_tsv(report: EvalReport) -> str:
    lines = [f"task\t{report.task}"]
    lines.extend(f"{name}\t{fmt(value)}" for name, value in _scalars(report))
    for name in sorted(report.counts):
        lines.append(f"count.{name}\t{report.counts[name]}")
    for split in sorted(report.breakdown):
        for name in sorted(report.breakdown[split]):
            lines.append(f"{split}.{name}\t{fmt(report.breakdown[split][name])}")
    return lines_text(lines)


def report_to_text(report: EvalReport) -> str:
    parts = [f"== {report.task} =="]
    parts.extend(f"  {name:<9} {fmt(value)}" for name, value in _scalars(report))
    if report.counts:
        counts = ", ".join(f"{k}={report.counts[k]}" for k in sorted(report.counts))
        parts.append(f"  counts    {counts}")
    for split in sorted(report.breakdown):
        values = report.breakdown[split]
        inner = ", ".join(f"{k}={fmt(values[k])}" for k in sorted(values))
        parts.append(f"  {split}: {inner}")
    return lines_text(parts)


def report_to_json(report: EvalReport) -> str:
    payload: dict = {"task": report.task, **dict(_scalars(report))}
    if report.counts:
        payload["counts"] = dict(sorted(report.counts.items()))
    if report.breakdown:
        payload["breakdown"] = {
            k: dict(sorted(v.items())) for k, v in sorted(report.breakdown.items())
        }
    return json.dumps(payload, sort_keys=True) + "\n"
