"""Hand-computed oracles for the evaluation metrics.

Every expected number here was derived by hand (n-gram counting, the metric
formulas) before the implementation existed, then frozen.
"""

import json
import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from sportscaster import metrics, mrl
from sportscaster.corpus import Comment, Game, GameEvent, GoldMatch


def test_matching_f1_identity():
    gold = {("g", 0): 3, ("g", 1): 7}
    report = metrics.matching_f1(gold, gold)
    assert report.f1 == 1.0
    assert report.precision == 1.0 and report.recall == 1.0


def test_matching_f1_superfluous_ceiling():
    # 100 comments, 82 gold-bearing; a matcher that assigns every comment and
    # gets every gold-bearing one right tops out at P=0.82, R=1.0.
    gold = {("g", i): (i if i < 82 else None) for i in range(100)}
    predicted = {("g", i): i for i in range(100)}
    report = metrics.matching_f1(predicted, gold)
    assert report.precision == pytest.approx(0.82)
    assert report.recall == pytest.approx(1.0)
    assert report.f1 == pytest.approx(1.64 / 1.82)  # 0.901099...


def test_matching_f1_empty_predicted():
    gold = {("g", 0): 1}
    report = metrics.matching_f1({}, gold)
    assert report.f1 == 0.0


def test_matching_f1_per_game_breakdown():
    gold = {("a", 0): 1, ("a", 1): 2, ("b", 0): 5}
    predicted = {("a", 0): 1, ("a", 1): 9, ("b", 0): 5}
    report = metrics.matching_f1(predicted, gold)
    assert report.breakdown["a"]["f1"] == pytest.approx(0.5)
    assert report.breakdown["b"]["f1"] == pytest.approx(1.0)


def test_parsing_f1_oracle():
    # 12 gold comments, parser emits on 10 of them, 8 correct.
    gold = {i: mrl.parse_mr(f"kick(pink{1 + i % 11})") for i in range(12)}
    parses = {}
    for i in range(12):
        if i < 8:
            parses[i] = gold[i]
        elif i < 10:
            parses[i] = mrl.parse_mr("ballstopped")
        else:
            parses[i] = None
    report = metrics.parsing_f1(parses, gold)
    assert report.precision == pytest.approx(0.8)
    assert report.recall == pytest.approx(8 / 12)
    assert report.f1 == pytest.approx(8 / 11)  # 0.727...


def test_parsing_near_miss_is_wrong():
    gold = {0: mrl.parse_mr("pass(pink1,pink2)")}
    parses = {0: mrl.parse_mr("pass(pink1,pink3)")}
    report = metrics.parsing_f1(parses, gold)
    assert report.f1 == 0.0


def test_parsing_ignores_comments_without_gold():
    gold = {0: mrl.parse_mr("ballstopped"), 7: None}
    parses = {0: gold[0], 7: mrl.parse_mr("kick(pink1)"), 99: mrl.parse_mr("ballstopped")}
    report = metrics.parsing_f1(parses, gold)
    assert report.f1 == 1.0


def test_parsing_error_breakdown_counts_every_category():
    mr = mrl.parse_mr
    gold = {
        0: mr("pass(pink1,pink2)"),   # correct
        1: mr("pass(pink1,pink2)"),   # argument permutation
        2: mr("turnover(pink1,purple2)"),  # wrong arguments, reordered too
        3: mr("kick(pink3)"),         # wrong arguments
        4: mr("kick(pink3)"),         # wrong predicate
        5: mr("ballstopped"),         # abstained
        6: mr("steal(pink4)"),        # abstained: no entry at all
        7: None,                      # chatter parsed
        8: None,                      # chatter, abstained
    }
    parses = {
        0: mr("pass(pink1,pink2)"),
        1: mr("pass(pink2,pink1)"),
        2: mr("turnover(purple2,pink2)"),
        3: mr("kick(pink4)"),
        4: mr("block(pink3)"),
        5: None,
        7: mr("kick(pink1)"),
        8: None,
        99: mr("ballstopped"),        # not a comment of the gold set
    }
    counts = metrics.parsing_f1(parses, gold).counts
    assert counts == {
        "correct": 1,
        "argument_permutation": 1,
        "wrong_arguments": 2,
        "wrong_predicate": 1,
        "abstained": 2,
        "chatter_parsed": 1,
        "emitted": 5,
        "gold": 7,
    }
    tsv = metrics.report_to_tsv(metrics.parsing_f1(parses, gold))
    assert "count.argument_permutation\t1\n" in tsv
    assert "count.chatter_parsed\t1\n" in tsv


def test_bleu_identity():
    segments = [("a b c d e".split(), ["a b c d e".split()])]
    assert metrics.bleu_document(segments) == pytest.approx(1.0)


def test_bleu_hand_fixture():
    # p1..p4 = 4/5, 3/4, 2/3, 1/2; equal lengths so BP = 1.
    segments = [("a b c d e".split(), ["a b c d f".split()])]
    expected = (4 / 5 * 3 / 4 * 2 / 3 * 1 / 2) ** 0.25
    assert expected == pytest.approx(0.668740304976, abs=1e-12)
    assert metrics.bleu_document(segments) == pytest.approx(expected, abs=1e-9)


def test_bleu_disjoint_vocab_is_zero():
    segments = [("a b c d".split(), ["x y z w".split()])]
    assert metrics.bleu_document(segments) == 0.0


def test_bleu_brevity_penalty():
    # Candidate "a b c" against reference "a b c d": perfect precisions,
    # BP = exp(1 - 4/3).
    segments = [("a b c".split(), ["a b c d".split()])]
    assert metrics.bleu_document(segments, max_n=3) == pytest.approx(
        math.exp(1 - 4 / 3)
    )


def test_bleu_closest_reference_length_prefers_shorter_tie():
    # len-4 candidate, refs of len 3 and 5: both are 1 away, tie broken to
    # r = 3, so BP = 1.  (Choosing r = 5 would give BP = exp(-1/4).)
    segments = [("a b c d".split(), ["a b c".split(), "a b c d e".split()])]
    assert metrics.bleu_document(segments, max_n=2) == pytest.approx(1.0)


def test_bleu_empty_references_raises():
    with pytest.raises(metrics.EmptyReferences):
        metrics.bleu_document([("a b".split(), [])])


def test_nist_identity_five_tokens():
    tokens = "a b c d e".split()
    assert metrics.nist(tokens, tokens) == pytest.approx(5.0)


def test_nist_hand_fixture():
    # unigrams 2/3, bigrams 1/2, trigrams 0; equal length so BP = 1.
    assert metrics.nist("a b c".split(), "a b d".split()) == pytest.approx(7 / 6)


def test_nist_brevity_half_at_two_thirds():
    # Doddington convention pins the factor to exactly 0.5 at c/r = 2/3.
    assert metrics.nist("a b".split(), "a b c".split()) == pytest.approx(1.0)
    assert metrics.nist("a b".split(), "a b".split()) == pytest.approx(2.0)


def test_bleu_zero_nist_positive_discrimination():
    # No common 4-gram kills BLEU outright; NIST still rewards the overlap.
    cand, ref = "a b c".split(), "a b d".split()
    assert metrics.bleu_document([(cand, [ref])]) == 0.0
    assert metrics.nist(cand, ref) > 0.0


def test_meteor_identity_len4():
    tokens = "a b c d".split()
    assert metrics.meteor(tokens, tokens) == pytest.approx(1 - 0.5 / 64)  # 0.9921875


def test_meteor_two_chunk_fixture():
    score = metrics.meteor("c d a b".split(), "a b c d".split())
    assert score == pytest.approx(0.9375)


def test_meteor_no_overlap():
    assert metrics.meteor("a b".split(), "x y".split()) == 0.0


def test_meteor_prefers_more_matches_over_fewer_chunks():
    # "a a" vs "a": only one match possible; P = 1/2, R = 1, penalty = 0.5.
    score = metrics.meteor("a a".split(), "a".split())
    f_mean = 10 * 0.5 * 1.0 / (1.0 + 9 * 0.5)
    assert score == pytest.approx(f_mean * 0.5)


def test_meteor_minimizes_chunks_among_max_alignments():
    # "a b a" vs "a a b": aligning a0->a1, b1->b2 keeps one contiguous chunk,
    # so the optimum is 2 chunks, not the 3 a greedy left-most match gives.
    score = metrics.meteor("a b a".split(), "a a b".split())
    assert score == pytest.approx(1 - 0.5 * (2 / 3) ** 3)  # 0.851851...


def test_meteor_shuffle_never_beats_identity():
    reference = "a b c d e".split()
    identity = metrics.meteor(reference, reference)
    for candidate in ("b a c d e", "e d c b a", "c d e a b"):
        assert metrics.meteor(candidate.split(), reference) <= identity


def _tiny_game():
    events = (
        GameEvent(1000, mrl.parse_mr("kick(pink1)"), 0),
        GameEvent(2000, mrl.parse_mr("kick(pink1)"), 1),
        GameEvent(3000, mrl.parse_mr("ballstopped"), 2),
    )
    comments = (
        Comment(1500, ("pink1", "kicks"), "pink1 kicks", "en", 0),
        Comment(2500, ("pink1", "boots", "it"), "pink1 boots it", "en", 1),
        Comment(3500, ("dead", "ball"), "dead ball", "en", 2),
        Comment(4000, ("nice", "weather"), "nice weather", "en", 3),
    )
    gold = GoldMatch({0: 0, 1: 1, 2: 2, 3: None})
    return Game("g1", events, comments, gold)


def test_expand_references_pools_identical_mrs():
    refs = metrics.expand_references([_tiny_game()])
    assert refs["kick ( pink1 )"] == [("pink1", "kicks"), ("pink1", "boots", "it")]
    assert refs["ballstopped"] == [("dead", "ball")]


def test_expand_references_partition():
    game = _tiny_game()
    refs = metrics.expand_references([game])
    pooled = sorted(s for group in refs.values() for s in group)
    matched = sorted(
        c.tokens for c in game.comments if game.gold.matches[c.id] is not None
    )
    assert pooled == matched


def test_report_tsv_deterministic_and_terminated():
    report = metrics.matching_f1({("g", 0): 1}, {("g", 0): 1, ("g", 1): None})
    first = metrics.report_to_tsv(report)
    assert first == metrics.report_to_tsv(report)
    assert first.endswith("\n")
    assert "task\tmatching" in first


def test_report_tsv_twelve_significant_digits():
    gold = {("g", i): (i if i < 82 else None) for i in range(100)}
    predicted = {("g", i): i for i in range(100)}
    tsv = metrics.report_to_tsv(metrics.matching_f1(predicted, gold))
    assert "f1\t0.901098901099\n" in tsv


def test_report_json_round_trips():
    report = metrics.parsing_f1(
        {0: mrl.parse_mr("ballstopped")}, {0: mrl.parse_mr("ballstopped")}
    )
    payload = json.loads(metrics.report_to_json(report))
    assert payload["task"] == "parsing"
    assert payload["f1"] == 1.0


_words = st.lists(st.sampled_from("abcx"), min_size=1, max_size=8)


@given(_words, _words)
def test_meteor_range(candidate, reference):
    assert 0.0 <= metrics.meteor(candidate, reference) <= 1.0


@given(_words, _words)
def test_nist_nonnegative(candidate, reference):
    assert metrics.nist(candidate, reference) >= 0.0


@settings(max_examples=300)
@given(st.lists(st.sampled_from("aab"), min_size=1, max_size=9),
       st.lists(st.sampled_from("aabc"), min_size=1, max_size=9))
def test_metric_ceilings_bound_every_reference(candidate, reference):
    """The learner skips a candidate whose ceiling cannot reach the best
    score so far, so no computed value may pass its ceiling.  A sentence
    scores the NIST ceiling against itself, so that one is tight."""
    assert metrics.nist(candidate, reference) <= metrics.nist_ceiling(candidate)
    assert metrics.nist(candidate, candidate) == metrics.nist_ceiling(candidate)
    assert metrics.meteor(candidate, reference) <= metrics.METEOR_CEILING


@given(_words, st.lists(_words, min_size=1, max_size=3))
def test_bleu_range(candidate, references):
    assert 0.0 <= metrics.bleu_document([(candidate, references)]) <= 1.0


def _reference_bleu_document(segments, max_n=4):
    """bleu_document as it was first written: each segment's clip table built
    from every one of its references."""
    matched = [0] * max_n
    total = [0] * max_n
    candidate_len = 0
    reference_len = 0
    for candidate, references in segments:
        references = list(references)
        if not references:
            raise metrics.EmptyReferences("segment has no reference sentences")
        candidate_len += len(candidate)
        reference_len += min(
            (abs(len(r) - len(candidate)), len(r)) for r in references
        )[1]
        for n in range(1, max_n + 1):
            cand_counts = metrics._ngram_counts(candidate, n)
            if not cand_counts:
                continue
            clip = Counter()
            for r in references:
                for gram, count in metrics._ngram_counts(r, n).items():
                    clip[gram] = max(clip[gram], count)
            total[n - 1] += sum(cand_counts.values())
            matched[n - 1] += sum(
                min(count, clip[gram]) for gram, count in cand_counts.items()
            )
    if candidate_len == 0 or any(m == 0 for m in matched) or any(t == 0 for t in total):
        return 0.0
    log_precision = sum(math.log(m / t) for m, t in zip(matched, total)) / max_n
    brevity = math.exp(min(0.0, 1.0 - reference_len / candidate_len))
    return brevity * math.exp(log_precision)


# Reference lists drawn from a few shared lists, with repeated sentences and
# copies that are equal but not the same list object.
_reference_lists = st.lists(st.lists(_words, min_size=1, max_size=4), min_size=1, max_size=3)


@settings(max_examples=200)
@given(
    _reference_lists,
    st.lists(st.tuples(st.lists(st.sampled_from("abcx"), max_size=8),
                       st.integers(0, 2), st.booleans(), st.integers(0, 3)),
             min_size=1, max_size=8),
    st.integers(1, 4),
)
def test_bleu_document_matches_reference(shared, picks, max_n):
    segments = []
    for candidate, which, copy, repeat in picks:
        references = shared[which % len(shared)]
        if copy:
            references = [list(r) for r in references] + references[:repeat]
        segments.append((candidate, references))
    assert metrics.bleu_document(segments, max_n) == _reference_bleu_document(segments, max_n)


def _reference_nist(candidate, reference):
    """nist as it was first written: both sides' n-gram counts built on
    every call."""
    if not candidate or not reference:
        raise ValueError("candidate and reference must be nonempty")
    score = 0.0
    for n in range(1, metrics._NIST_MAX_N + 1):
        cand_counts = metrics._ngram_counts(candidate, n)
        n_cand = sum(cand_counts.values())
        if n_cand == 0:
            continue
        ref_counts = metrics._ngram_counts(reference, n)
        matched = sum(min(c, ref_counts[g]) for g, c in cand_counts.items())
        score += matched / n_cand
    ratio = min(1.0, len(candidate) / len(reference))
    return score * math.exp(metrics._NIST_BETA * math.log(ratio) ** 2)


# Sentences over two words, one of them twice as likely: n-grams repeat
# within a sentence and across sentences.
_repetitive = st.lists(st.sampled_from("aab"), min_size=1, max_size=12)


@settings(max_examples=200)
@given(st.lists(_repetitive, min_size=1, max_size=4),
       st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=8))
def test_nist_matches_reference(sentences, picks):
    """With and without kept profiles, on sentences met again as candidate
    and as reference, as lists and as tuples."""
    profiles = metrics.NistProfiles()
    for i, j in picks:
        candidate, reference = sentences[i % len(sentences)], sentences[j % len(sentences)]
        expected = _reference_nist(candidate, reference)
        assert metrics.nist(candidate, reference) == expected
        assert metrics.nist(candidate, reference, profiles) == expected
        assert metrics.nist(tuple(candidate), tuple(reference), profiles) == expected
    assert set(profiles) <= {tuple(sentence) for sentence in sentences}


def test_nist_rejects_an_empty_side_with_profiles():
    profiles = metrics.NistProfiles()
    for candidate, reference in ((), ("a",)), (("a",), ()):
        with pytest.raises(ValueError):
            metrics.nist(candidate, reference, profiles)
    assert profiles == {}
