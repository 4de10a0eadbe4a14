"""Strategy estimation, IGSL fixed points, and stochastic sportscasting."""

from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sportscaster import corpus, mrl, simgen, strategic, translator
from sportscaster.corpus import AmbiguousExample, Comment, FormatError, GameEvent
from sportscaster.simgen import Prng


def _event(time_ms, text, event_id):
    return GameEvent(time_ms, mrl.parse_mr(text), event_id)


def _example(comment_id, *events):
    comment = Comment(
        events[-1].time_ms + 500 if events else 0,
        ("word",),
        "word",
        "en",
        comment_id,
    )
    return AmbiguousExample(comment, tuple(events))


def test_igsl_unambiguous_exact_frequencies():
    kicks = [_event(t * 1000, f"kick(pink{t})", t) for t in range(1, 4)]
    passes = [_event(t * 1000, "pass(pink1,pink2)", t) for t in range(4, 6)]
    examples = [
        _example(0, kicks[0]),
        _example(1, kicks[1]),
        _example(2, passes[0]),
    ]
    total = {"kick": 3, "pass": 2, "ballstopped": 5}
    one = strategic.igsl(examples, total, max_iter=1)
    assert one.prob["kick"] == pytest.approx(2 / 3, abs=1e-9)
    assert one.prob["pass"] == pytest.approx(0.5, abs=1e-9)
    assert one.prob["ballstopped"] == 0.0
    fifty = strategic.igsl(examples, total, max_iter=50)
    for predicate in total:
        assert abs(fifty.prob[predicate] - one.prob[predicate]) < 1e-9


def test_igsl_empty_candidates_raises():
    with pytest.raises(strategic.EmptyCandidates):
        strategic.igsl([_example(0)], {"kick": 1})


def test_igsl_clamps_to_one():
    kick = _event(1000, "kick(pink1)", 0)
    examples = [_example(i, kick) for i in range(5)]
    model = strategic.igsl(examples, {"kick": 2})
    assert model.prob["kick"] == 1.0


def test_igsl_zero_total_count_is_zero():
    model = strategic.igsl([_example(0, _event(1000, "kick(pink1)", 0))], {"kick": 1, "block": 0})
    assert model.prob["block"] == 0.0


def _reference_igsl_match_shares(candidate_predicates, prob):
    """One sentence's match probability split over its candidate types, by
    igsl's own split (strategic._split), sorted by type.

    share(type) = multiplicity(type) * Pr(type) / sum of Pr over candidates;
    a zero denominator contributes nothing.  Scale-invariant: multiplying
    every Pr by a common positive factor leaves all shares unchanged.
    """
    weights = Counter(candidate_predicates)
    row = np.array([[prob.get(p, 0.0) * n for p, n in weights.items()]])
    return dict(sorted(zip(weights, strategic._split(row)[0].tolist())))


def test_igsl_match_shares_inverse_ambiguity():
    shares = _reference_igsl_match_shares(
        ["kick", "kick", "pass", "pass", "pass"], {"kick": 1.0, "pass": 1.0}
    )
    assert shares == {"kick": pytest.approx(2 / 5), "pass": pytest.approx(3 / 5)}


def test_igsl_match_shares_scale_invariant():
    prob = {"kick": 0.4, "pass": 0.07, "ballstopped": 0.002}
    candidates = ["kick", "pass", "pass", "ballstopped"]
    base = _reference_igsl_match_shares(candidates, prob)
    scaled = _reference_igsl_match_shares(
        candidates, {p: 3.7 * v for p, v in prob.items()}
    )
    for predicate, share in base.items():
        assert scaled[predicate] == pytest.approx(share, rel=1e-12)


def test_igsl_match_shares_zero_denominator():
    shares = _reference_igsl_match_shares(["kick"], {"kick": 0.0})
    assert shares == {"kick": 0.0}


def _reference_match_shares(counts, prob):
    """igsl's split of one sentence before it ran in array passes: the
    denominator added left to right in Counter order, as builtin sum did up
    to Python 3.11, and the shares in sorted type order."""
    denominator = 0.0
    for p, n in counts.items():
        denominator += prob.get(p, 0.0) * n
    if denominator <= 0.0:
        return {p: 0.0 for p in counts}
    return {p: prob.get(p, 0.0) * n / denominator for p, n in sorted(counts.items())}


def _reference_igsl(examples, total_count, max_iter=strategic.DEFAULT_MAX_ITER):
    """igsl's probabilities as it computed them with dicts: every sentence's
    split computed afresh in every iteration and added in corpus order."""
    sentences = [[e.mr.predicate.name for e in ex.candidates] for ex in examples]
    predicates = sorted({p for names in sentences for p in names} | set(total_count))
    prob = {p: 1.0 for p in predicates}
    for _ in range(max_iter):
        match_count = defaultdict(float)
        for names in sentences:
            for p, share in _reference_match_shares(Counter(names), prob).items():
                match_count[p] += share
        updated = {}
        for p in predicates:
            count = total_count.get(p, 0)
            updated[p] = min(match_count[p] / count, 1.0) if count else 0.0
        delta = max(abs(updated[p] - prob[p]) for p in predicates)
        prob = updated
        if delta < strategic._TOLERANCE:
            break
    return prob


_SURFACES = {
    "kick": "kick ( pink1 )",
    "pass": "pass ( pink1 , pink2 )",
    "ballstopped": "ballstopped",
    "turnover": "turnover ( pink3 , purple1 )",
    "steal": "steal ( purple2 )",
}


@st.composite
def _candidate_corpora(draw):
    """Sentences drawn from a few candidate-type sequences, each reordered at
    will, so sequences repeat both in and out of order; totals may omit a
    candidate type or give it zero."""
    sequences = draw(st.lists(
        st.lists(st.sampled_from(sorted(_SURFACES)), min_size=1, max_size=4),
        min_size=1, max_size=4,
    ))
    sentences = draw(st.lists(
        st.sampled_from(sequences).flatmap(st.permutations), min_size=1, max_size=20
    ))
    totals = draw(st.dictionaries(
        st.sampled_from([*sorted(_SURFACES), "block"]), st.integers(0, 8), min_size=3
    ))
    examples = [
        _example(i, *(_event(t * 1000, _SURFACES[name], t) for t, name in enumerate(names)))
        for i, names in enumerate(sentences)
    ]
    return examples, totals


@settings(max_examples=150, deadline=None)
@given(_candidate_corpora(), st.integers(1, strategic.DEFAULT_MAX_ITER))
def test_igsl_matches_per_sentence_reference(corpus_and_totals, max_iter):
    examples, totals = corpus_and_totals
    prob = strategic.igsl(examples, totals, max_iter).prob
    reference = _reference_igsl(examples, totals, max_iter)
    assert prob == reference
    assert list(prob) == list(reference)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.sampled_from(sorted(_SURFACES)), min_size=1, max_size=6),
    st.dictionaries(
        st.sampled_from(sorted(_SURFACES)),
        st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(1e-300, 1e-290)),
    ),
)
def test_igsl_match_shares_matches_reference(candidates, prob):
    shares = _reference_igsl_match_shares(candidates, prob)
    assert shares == _reference_match_shares(Counter(candidates), prob)
    assert list(shares) == sorted(set(candidates))


def test_igsl_without_examples():
    assert strategic.igsl([], {}) == strategic.StrategicModel(prob={}, total_count={})
    totals = {"pass": 2, "kick": 0}
    model = strategic.igsl([], totals, max_iter=1)
    assert model.prob == _reference_igsl([], totals, max_iter=1) == {"kick": 0.0, "pass": 0.0}
    assert list(model.prob) == ["kick", "pass"]
    assert model.total_count == totals


def test_igsl_recovers_rank_order_on_synthetic_corpus():
    # The frequent-but-ignored type (ballstopped) must fall below the rare
    # but reliably commented ones.
    c = simgen.simulate_corpus(
        simgen.default_world(seed=11), simgen.default_profile(seed=12), 12
    )
    examples = [ex.example for ex in corpus.pooled_examples(c.games)]
    total = strategic.count_event_types(e for g in c.games for e in g.events)
    model = strategic.igsl(examples, total)
    p = model.prob
    assert p["pass"] > p["badPass"] > p["turnover"] > p["kick"] > p["ballstopped"]
    assert p["pass"] == pytest.approx(0.999, abs=0.1)
    assert p["kick"] == pytest.approx(0.033, abs=0.1)
    assert p["ballstopped"] == pytest.approx(1.72e-4, abs=0.1)


def _figure6_model():
    return strategic.StrategicModel(
        prob={"badPass": 0.970, "turnover": 0.909, "ballstopped": 1.09e-5},
        total_count={"badPass": 1, "turnover": 1, "ballstopped": 1},
    )


def test_stage_one_normalization_fixture():
    weights = [0.970, 0.909, 1.09e-5]
    total = sum(weights)
    normalized = [w / total for w in weights]
    for got, want in zip(normalized, (0.516, 0.484, 5.80e-6)):
        assert got == pytest.approx(want, abs=5e-4)


def test_stage_one_monte_carlo_frequencies():
    weights = [0.970, 0.909, 1.09e-5]
    total = sum(weights)
    prng = Prng(2024)
    draws = 100_000
    counts = [0, 0, 0]
    for _ in range(draws):
        counts[prng.weighted_index(weights)] += 1
    for count, weight in zip(counts, weights):
        assert count / draws == pytest.approx(weight / total, abs=0.01)


def test_stage_one_chi_square():
    # Comparable cell sizes so the chi-square approximation is sound.
    weights = [0.4, 0.3, 0.2, 0.1]
    prng = Prng(7)
    draws = 100_000
    counts = [0] * 4
    for _ in range(draws):
        counts[prng.weighted_index(weights)] += 1
    chi2 = sum(
        (c - w * draws) ** 2 / (w * draws) for c, w in zip(counts, weights)
    )
    assert chi2 < 16.266  # df=3 critical value at p = 0.001


def test_select_event_single_certain_candidate():
    model = strategic.StrategicModel(prob={"pass": 1.0}, total_count={"pass": 1})
    event = _event(1000, "pass(pink1,pink2)", 0)
    prng = Prng(3)
    for _ in range(10):
        assert strategic.select_event([event], model, prng) is event


def test_select_event_zero_normalizer_returns_none():
    model = strategic.StrategicModel(prob={}, total_count={})
    event = _event(1000, "kick(pink1)", 0)
    assert strategic.select_event([event], model, Prng(0)) is None


def test_select_event_empty_raises():
    with pytest.raises(strategic.EmptyCandidates):
        strategic.select_event([], _figure6_model(), Prng(0))


def _reference_select_event(events, model, prng):
    """select_event with builtin sum for the normalizer."""
    if not events:
        raise strategic.EmptyCandidates("no co-occurring events to select from")
    weights = [model.probability(e.mr.predicate.name) for e in events]
    normalizer = sum(weights)
    if normalizer <= 0.0:
        return None
    pick = prng.weighted_index(weights)
    if prng.uniform() < weights[pick]:
        return events[pick]
    return None


_NAMES = ["pass", "kick", "ballstopped", "steal", "badPass"]
_MRS = ["pass(pink1,pink2)", "kick(pink1)", "ballstopped", "steal(purple4)",
        "badPass(pink3,purple1)"]
# Probabilities and generation scores as the library makes them: zeros,
# subnormal and tiny values, and sums that round.
_weight = st.one_of(
    st.just(0.0),
    st.floats(0.0, 1.0),
    st.sampled_from([5e-324, 1e-300, 0.1, 0.2, 0.3]),
)
_strategic_models = st.dictionaries(st.sampled_from(_NAMES), _weight).map(
    lambda prob: strategic.StrategicModel(prob=prob, total_count={p: 1 for p in prob})
)


@settings(max_examples=300)
@given(
    st.lists(st.integers(0, len(_MRS) - 1), min_size=1, max_size=8),
    _strategic_models,
    st.integers(0, 2**64 - 1),
)
def test_select_event_matches_reference(picks, model, seed):
    events = [_event(1000, _MRS[i], number) for number, i in enumerate(picks)]
    prng, reference = Prng(seed), Prng(seed)
    assert strategic.select_event(events, model, prng) is (
        _reference_select_event(events, model, reference)
    )
    assert prng.state == reference.state


def _reference_assemble_sportscast(events, model, translation, k=translator.DEFAULT_TOPK,
                                   *, prng):
    """assemble_sportscast with builtin sum over the candidate scores."""
    if k < 1:
        raise ValueError("k must be >= 1")
    transcript = []
    skipped = []
    by_tick = defaultdict(list)
    for event in events:
        by_tick[event.time_ms // strategic.TICK_MS].append(event)
    for tick in sorted(by_tick):
        chosen = strategic.select_event(by_tick[tick], model, prng)
        if chosen is None:
            continue
        try:
            candidates = translator.generate_topk(chosen.mr, translation, k)
        except translator.NoTemplate:
            skipped.append(chosen.mr.predicate.name)
            continue
        scores = [score for _, score in candidates]
        if sum(scores) > 0.0:
            sentence = candidates[prng.weighted_index(scores)][0]
        else:
            sentence = candidates[0][0]
        transcript.append((tick * strategic.TICK_MS, chosen.mr, sentence))
    return transcript, skipped


@settings(max_examples=200)
@given(
    st.lists(st.tuples(st.integers(0, 5000), st.integers(0, len(_MRS) - 1)), max_size=12),
    _strategic_models,
    st.dictionaries(st.sampled_from(_NAMES), st.lists(_weight, min_size=1, max_size=6)),
    st.integers(1, 6),
    st.integers(0, 2**64 - 1),
)
def test_assemble_sportscast_matches_reference(timeline, model, scores, k, seed):
    events = [_event(t, _MRS[i], number) for number, (t, i) in enumerate(timeline)]

    def generate_topk(mr, translation, k):
        name = mr.predicate.name
        if name not in scores:
            raise translator.NoTemplate(name)
        return [((name, str(i)), score) for i, score in enumerate(scores[name])][:k]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(translator, "generate_topk", generate_topk)
        prng, reference = Prng(seed), Prng(seed)
        assert strategic.assemble_sportscast(events, model, None, k, prng=prng) == (
            _reference_assemble_sportscast(events, model, None, k, prng=reference)
        )
        assert prng.state == reference.state


def _trained_model():
    pairs = [
        ("pink1 kicks to pink2".split(), mrl.parse_mr("pass(pink1,pink2)")),
        ("pink2 kicks to pink1".split(), mrl.parse_mr("pass(pink2,pink1)")),
        ("pink1 boots it".split(), mrl.parse_mr("kick(pink1)")),
        ("pink2 boots it".split(), mrl.parse_mr("kick(pink2)")),
    ]
    return translator.train(pairs)


def test_sportscast_all_zero_strategy_is_silent():
    model = strategic.StrategicModel(prob={"pass": 0.0}, total_count={"pass": 4})
    events = [_event(t * 2000, "pass(pink1,pink2)", t) for t in range(3)]
    transcript, skipped = strategic.assemble_sportscast(
        events, model, _trained_model(), prng=Prng(5)
    )
    assert transcript == [] and skipped == []


def test_sportscast_certain_pass_speaks_every_event():
    translation = _trained_model()
    model = strategic.StrategicModel(
        prob={"pass": 1.0, "kick": 0.0}, total_count={"pass": 2, "kick": 2}
    )
    events = [
        _event(0, "pass(pink1,pink2)", 0),
        _event(1500, "kick(pink1)", 1),
        _event(4000, "pass(pink2,pink1)", 2),
    ]
    transcript, skipped = strategic.assemble_sportscast(
        events, model, translation, k=1, prng=Prng(9)
    )
    assert skipped == []
    assert [(t, mrl.serialize_mr(mr)) for t, mr, _ in transcript] == [
        (0, "pass ( pink1 , pink2 )"),
        (4000, "pass ( pink2 , pink1 )"),
    ]
    assert transcript[0][2] == ("pink1", "kicks", "to", "pink2")


def test_sportscast_timestamps_sorted_and_deterministic():
    translation = _trained_model()
    model = strategic.StrategicModel(
        prob={"pass": 0.7, "kick": 0.4}, total_count={"pass": 2, "kick": 2}
    )
    events = [
        _event(100, "pass(pink1,pink2)", 0),
        _event(1100, "kick(pink2)", 1),
        _event(2600, "kick(pink1)", 2),
        _event(5200, "pass(pink2,pink1)", 3),
    ]
    first = strategic.assemble_sportscast(events, model, translation, prng=Prng(21))
    second = strategic.assemble_sportscast(events, model, translation, prng=Prng(21))
    assert first == second
    times = [t for t, _, _ in first[0]]
    assert times == sorted(times)
    assert all(0 <= t <= 5200 for t in times)


def test_sportscast_skips_and_logs_no_template():
    translation = _trained_model()
    model = strategic.StrategicModel(prob={"steal": 1.0}, total_count={"steal": 1})
    events = [_event(1000, "steal(purple3)", 0)]
    transcript, skipped = strategic.assemble_sportscast(
        events, model, translation, prng=Prng(2)
    )
    assert transcript == []
    assert skipped == ["steal"]


def test_strategic_serialization_round_trip(tmp_path):
    model = strategic.StrategicModel(
        prob={"pass": 0.8, "kick": 1 / 3, "ballstopped": 0.0},
        total_count={"pass": 10, "kick": 30, "ballstopped": 500},
    )
    path = tmp_path / "strategic.tsv"
    strategic.save_strategic(model, path)
    lines = path.read_text().splitlines()
    # Grammar order, not alphabetical.
    assert [line.split("\t")[0] for line in lines] == ["ballstopped", "kick", "pass"]
    loaded = strategic.load_strategic(path)
    assert loaded.total_count == model.total_count
    for predicate, value in model.prob.items():
        assert loaded.prob[predicate] == pytest.approx(value, rel=1e-12)


@pytest.mark.parametrize(
    "text, reason",
    [
        ("kick\t0.5\t3\nxyz\t0.5\t3\n", "2: unknown predicate 'xyz'"),
        ("\t0.5\t3\n", "1: unknown predicate ''"),
        ("kick\t0.5\t3\npass\t0.25\t4\nkick\t0.25\t4\n",
         "3: duplicate predicate 'kick' (first at line 1)"),
    ],
)
def test_load_strategic_rejects_unknown_and_repeated_predicates(tmp_path, text, reason):
    path = tmp_path / "strategic.tsv"
    path.write_text(text)
    with pytest.raises(FormatError) as err:
        strategic.load_strategic(path)
    assert str(err.value) == f"{path}:{reason}"
