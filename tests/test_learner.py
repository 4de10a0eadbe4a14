import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sportscaster import corpus, learner, metrics, mrl, simgen, strategic, translator
from sportscaster.learner import Matching, ScoringStrategy


def _mr(surface):
    return mrl.parse_mr(surface)


# Players recur across couples in different roles so alignment can tell the
# name tokens apart; a disjoint pool per couple would leave EM symmetric.
_COUPLES = {
    "game1": [
        ("pink1", ("pink2", "pink3")),
        ("pink2", ("pink3", "pink4")),
        ("pink3", ("pink4", "pink1")),
        ("pink4", ("pink1", "pink2")),
    ],
    "game2": [
        ("pink2", ("pink1", "pink4")),
        ("pink4", ("pink3", "pink2")),
        ("pink1", ("pink4", "pink3")),
        ("pink3", ("pink2", "pink1")),
    ],
}


def _build_games(noise=False):
    games = []
    for name, game_couples in _COUPLES.items():
        events, comments, gold = [], [], {}
        t, eid, cid = 0, 1, 1
        for kicker, (src, dst) in game_couples:
            kick = corpus.GameEvent(t, _mr(f"kick ( {kicker} )"), eid)
            pas = corpus.GameEvent(t + 1000, _mr(f"pass ( {src} , {dst} )"), eid + 1)
            events += [kick, pas]
            comments += [
                corpus.make_comment(t + 1500, f"{kicker} boots it", "en", cid),
                corpus.make_comment(t + 2500, f"{src} passes to {dst}", "en", cid + 1),
            ]
            gold[cid] = kick.id
            gold[cid + 1] = pas.id
            cid += 2
            if noise and name == "game1":
                comments.append(
                    corpus.make_comment(t + 3000, "zorp blee grum nak", "en", cid)
                )
                gold[cid] = None
                cid += 1
            t += 20000
            eid += 2
        games.append(
            corpus.Game(name, tuple(events), tuple(comments), corpus.GoldMatch(gold))
        )
    return games


@pytest.fixture(scope="module")
def clean():
    games = _build_games()
    examples = corpus.pooled_examples(games)
    gold = corpus.pooled_gold(games)
    total = strategic.count_event_types(e for g in games for e in g.events)
    return games, examples, gold, total


@pytest.fixture(scope="module")
def noisy():
    games = _build_games(noise=True)
    return games, corpus.pooled_examples(games), corpus.pooled_gold(games)


def _score_f1(matching, gold):
    return None if gold is None else metrics.matching_f1(matching.event_ids(), gold).f1


def _reference_retrain_loop(
    examples, strategy, max_iter=learner.DEFAULT_MAX_ITER, *,
    total_count=None, gold=None, initial_pairs=None, prune_fraction=0.0,
):
    """The loop as it was written with one branch per baseline, kept to pin
    the shared loop to it: (matching, model, strategic model, iterations,
    history, trained-on keys)."""
    if strategy.kind == "random":
        matching = learner._random_matching(examples, strategy.seed)
        kept = learner._prune_keys(matching, prune_fraction)
        model = translator.train(learner._pairs_from_matching(examples, matching, kept))
        record = learner.IterationRecord(
            1, len(matching.assignments), _score_f1(matching, gold)
        )
        return matching, model, None, 1, [record], kept
    if strategy.kind == "gold":
        matching = learner._gold_matching(examples, gold)
        kept = frozenset(matching.assignments)
        model = translator.train(learner._pairs_from_matching(examples, matching, kept))
        record = learner.IterationRecord(
            1, len(matching.assignments), _score_f1(matching, gold)
        )
        return matching, model, None, 1, [record], kept

    strategic_model = None
    if strategy.kind in ("nist_igsl", "meteor_igsl"):
        strategic_model = strategic.igsl([ex.example for ex in examples], total_count)
    pairs = (
        list(initial_pairs) if initial_pairs is not None
        else learner.initial_training_set(examples)
    )
    model = translator.train(pairs)
    matching = None
    kept = frozenset()
    history = []
    iterations = 0
    for iteration in range(1, max_iter + 1):
        new_matching = learner._assign_best(
            examples, model.alignment if strategy.kind == "parse_score" else model,
            strategy, strategic_model, {},
        )
        iterations = iteration
        if matching is None:
            changed = len(new_matching.assignments)
        else:
            previous = matching.event_ids()
            changed = sum(
                1
                for key, event_id in new_matching.event_ids().items()
                if previous.get(key) != event_id
            )
        history.append(learner.IterationRecord(
            iteration, changed, _score_f1(new_matching, gold)
        ))
        if matching is not None and new_matching.event_ids() == matching.event_ids():
            break
        matching = new_matching
        kept = learner._prune_keys(matching, prune_fraction)
        model = translator.train(learner._pairs_from_matching(examples, matching, kept))
    return matching, model, strategic_model, iterations, history, kept


def _model_text(model, path):
    translator.save_model(model, path)
    return path.read_text(encoding="utf-8")


@pytest.mark.parametrize("max_iter", [1, learner.DEFAULT_MAX_ITER])
@pytest.mark.parametrize("prune_fraction", [0.0, 0.2])
@pytest.mark.parametrize("fixture", ["clean", "noisy"])
@pytest.mark.parametrize("kind", learner.STRATEGY_KINDS)
def test_retrain_loop_matches_reference(
    request, tmp_path, kind, fixture, prune_fraction, max_iter
):
    games, examples, gold = request.getfixturevalue(fixture)[:3]
    total = strategic.count_event_types(e for g in games for e in g.events)
    kwargs = dict(total_count=total, gold=gold, prune_fraction=prune_fraction)
    strategy = ScoringStrategy(kind, seed=5)
    result = learner.retrain_loop(examples, strategy, max_iter, **kwargs)
    matching, model, strategic_model, iterations, history, kept = (
        _reference_retrain_loop(examples, strategy, max_iter, **kwargs)
    )
    assert result.matching.assignments == matching.assignments
    assert result.history == history
    assert result.trained_on == kept
    assert result.iterations_run == iterations
    assert result.strategic == strategic_model
    assert _model_text(result.model, tmp_path / "a.tsv") == _model_text(
        model, tmp_path / "b.tsv"
    )


@pytest.fixture(scope="module")
def sharp_model(clean):
    _, examples, gold, _ = clean
    pairs = [
        (ex.example.comment.tokens, cand.mr)
        for ex in examples
        for cand in ex.example.candidates
        if cand.id == gold[ex.key]
    ]
    return translator.train(pairs)


def test_strategy_kind_validated():
    with pytest.raises(ValueError):
        ScoringStrategy("bogus")


def test_initial_training_set_is_cartesian_sentence_major():
    def ev(t, s, i):
        return corpus.GameEvent(t, _mr(s), i)

    e1, e2, e3 = ev(0, "kick ( pink1 )", 1), ev(5, "kick ( pink2 )", 2), ev(9, "kick ( pink3 )", 3)
    c = [corpus.make_comment(10 + i, f"s{i}", "en", i) for i in range(3)]
    examples = [
        corpus.GameExample("g", corpus.AmbiguousExample(c[0], (e1, e2))),
        corpus.GameExample("g", corpus.AmbiguousExample(c[1], (e1, e2, e3))),
        corpus.GameExample("g", corpus.AmbiguousExample(c[2], (e3,))),
    ]
    pairs = learner.initial_training_set(examples)
    assert len(pairs) == 6
    assert [tokens for tokens, _ in pairs] == [
        c[0].tokens, c[0].tokens, c[1].tokens, c[1].tokens, c[1].tokens, c[2].tokens
    ]
    assert [mr for _, mr in pairs[:2]] == [e1.mr, e2.mr]
    assert pairs[5][1] == e3.mr


def test_initial_training_set_empty_raises():
    with pytest.raises(learner.EmptyTrainingSet):
        learner.initial_training_set([])


def test_evaluate_nist_gen_matches_manual(sharp_model):
    tokens = ("pink1", "boots", "it")
    mr = _mr("kick ( pink1 )")
    generated = translator.generate_topk(mr, sharp_model, 1)[0][0]
    expected = metrics.nist(list(tokens), list(generated))
    got = learner.evaluate_candidate(
        tokens, mr, sharp_model, ScoringStrategy("nist_gen"), None, {}
    )
    assert got == pytest.approx(expected, rel=1e-12)
    assert got > 0


def test_evaluate_meteor_gen_matches_manual(sharp_model):
    tokens = ("pink2", "passes", "to", "pink3")
    mr = _mr("pass ( pink2 , pink3 )")
    generated = translator.generate_topk(mr, sharp_model, 1)[0][0]
    expected = metrics.meteor(list(tokens), list(generated))
    got = learner.evaluate_candidate(
        tokens, mr, sharp_model, ScoringStrategy("meteor_gen"), None, {}
    )
    assert got == pytest.approx(expected, rel=1e-12)


def test_evaluate_missing_template_scores_zero(sharp_model):
    got = learner.evaluate_candidate(
        ("pink1", "boots", "it"), _mr("steal ( pink5 )"), sharp_model,
        ScoringStrategy("nist_gen"), None, {},
    )
    assert got == 0.0


def test_evaluate_igsl_needs_strategic_model(sharp_model):
    with pytest.raises(learner.MissingStrategicModel):
        learner.evaluate_candidate(
            ("pink1", "boots", "it"), _mr("kick ( pink1 )"), sharp_model,
            ScoringStrategy("nist_igsl"), None, {},
        )


def test_evaluate_igsl_multiplies_event_probability(sharp_model):
    tokens = ("pink1", "boots", "it")
    mr = _mr("kick ( pink1 )")
    model = strategic.StrategicModel(prob={"kick": 0.25}, total_count={"kick": 4})
    base = learner.evaluate_candidate(
        tokens, mr, sharp_model, ScoringStrategy("nist_gen"), None, {}
    )
    got = learner.evaluate_candidate(
        tokens, mr, sharp_model, ScoringStrategy("nist_igsl"), model, {}
    )
    assert got == pytest.approx(0.25 * base, rel=1e-12)
    # an event type the strategic model has never seen contributes nothing
    assert learner.evaluate_candidate(
        ("pink2", "passes", "to", "pink3"), _mr("pass ( pink2 , pink3 )"),
        sharp_model, ScoringStrategy("meteor_igsl"), model, {},
    ) == 0.0


def test_evaluate_rejects_non_scoring_kinds(sharp_model):
    for kind in ("random", "parse_score", "gold"):
        with pytest.raises(ValueError, match="no generation metric"):
            learner.evaluate_candidate(
                ("pink1",), _mr("kick ( pink1 )"), sharp_model, ScoringStrategy(kind),
                None, {},
            )


def _pair_score(tokens, mr, model):
    """The kernel's score of one sentence under one candidate."""
    [[score]] = translator.score_corpus([tokens], [[mr]], model.alignment)
    return score


def _reference_parse_matching(examples, model):
    """parse_score picks scored one candidate at a time, ranked by (-score,
    time, surface form, id): {key: (event id, score)}."""
    picks = {}
    for ex in examples:
        tokens = ex.example.comment.tokens
        ranked = sorted(
            (-_pair_score(tokens, c.mr, model),
             c.time_ms, mrl.serialize_mr(c.mr), c.id)
            for c in ex.example.candidates
        )
        picks[ex.key] = (ranked[0][3], -ranked[0][0])
    return picks


def _reference_validation_score(result, train, validation):
    """_validation_score with each validation sentence's best candidate found
    by scoring one candidate at a time."""
    tokens_of = {ex.key: ex.example.comment.tokens for ex in train}
    assigned = result.matching.assignments
    pruned = [tokens_of[key] for key in assigned if key not in result.trained_on]
    counts = Counter(word for tokens in pruned for word in tokens)
    denominator = sum(counts.values()) + translator.SMOOTHING_K * (len(counts) + 1)
    share = len(pruned) / len(assigned)
    total = 0.0
    for ex in validation:
        tokens = ex.example.comment.tokens
        best = max(
            _pair_score(tokens, c.mr, result.model)
            for c in ex.example.candidates
        )
        described = len(tokens) * math.log(best) if best > 0.0 else -math.inf
        if not pruned:
            total += described
            continue
        chatter = sum(
            math.log((counts[word] + translator.SMOOTHING_K) / denominator)
            for word in tokens
        )
        total += float(
            np.logaddexp(math.log1p(-share) + described, math.log(share) + chatter)
        )
    return total


@pytest.mark.parametrize("fixture", ["clean", "noisy"])
def test_parse_score_kernel_matches_per_candidate_scores(request, fixture):
    examples = request.getfixturevalue(fixture)[1]
    strategy = ScoringStrategy("parse_score")
    model = translator.train(learner.initial_training_set(examples))
    for current in (model, learner.retrain_loop(examples, strategy).model):
        matching = learner._assign_best(examples, current.alignment, strategy, None, {})
        assert matching.assignments == _reference_parse_matching(examples, current)
    train, validation = learner.validation_split(examples)
    for prune_fraction in (0.0, 0.2):
        result = learner.retrain_loop(train, strategy, prune_fraction=prune_fraction)
        assert learner._validation_score(result, train, validation) == (
            _reference_validation_score(result, train, validation)
        )


@pytest.fixture(scope="module")
def pruned_run(noisy):
    train, validation = learner.validation_split(noisy[1])
    result = learner.retrain_loop(train, ScoringStrategy("parse_score"), prune_fraction=0.2)
    return result, train, validation


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_validation_score_matches_reference_for_any_pruned_set(pruned_run, data):
    result, train, validation = pruned_run
    # A loop always trains on something, so at least one sentence is kept.
    kept = data.draw(st.sets(st.sampled_from(sorted(result.matching.assignments)), min_size=1))
    result = replace(result, trained_on=frozenset(kept))
    words = sorted({w for ex in train for w in ex.example.comment.tokens}) + ["unseen"]
    sentences = st.lists(st.sampled_from(words), min_size=1, max_size=30).map(tuple)
    validation = [
        corpus.GameExample(ex.game, replace(
            ex.example, comment=replace(ex.example.comment, tokens=data.draw(sentences))
        ))
        for ex in validation
    ]
    assert learner._validation_score(result, train, validation) == (
        _reference_validation_score(result, train, validation)
    )


def _reference_assign_best(examples, model, strategy, strategic_model, metric_cache):
    """_assign_best of the generation-scored strategies as it was written
    before it skipped candidates: every candidate scored."""
    assignments = {}
    for ex in examples:
        candidates = ex.example.candidates
        scores = [
            learner.evaluate_candidate(
                ex.example.comment.tokens, c.mr, model, strategy, strategic_model,
                metric_cache,
            )
            for c in candidates
        ]
        score, candidate = min(
            zip(scores, candidates),
            key=lambda scored: (
                -scored[0], scored[1].time_ms, mrl.serialize_mr(scored[1].mr), scored[1].id,
            ),
        )
        assignments[ex.key] = (candidate.id, score)
    return Matching(assignments)


_GENERATION_KINDS = ("nist_gen", "meteor_gen", "nist_igsl", "meteor_igsl")


def _assert_assign_best_matches_reference(examples, total, model):
    """The same picks with the same scores, key by key, in the same order."""
    strategic_model = strategic.igsl([ex.example for ex in examples], total)
    for kind in _GENERATION_KINDS:
        strategy = ScoringStrategy(kind)
        picked = learner._assign_best(
            examples, model, strategy, strategic_model, {}, metrics.NistProfiles()
        )
        reference = _reference_assign_best(examples, model, strategy, strategic_model, {})
        assert list(picked.assignments.items()) == list(reference.assignments.items())


@pytest.mark.parametrize("fixture", ["clean", "noisy"])
def test_assign_best_matches_reference(request, fixture, sharp_model):
    games, examples = request.getfixturevalue(fixture)[:2]
    total = strategic.count_event_types(e for g in games for e in g.events)
    iteration0 = translator.train(learner.initial_training_set(examples))
    for model in (iteration0, sharp_model):
        _assert_assign_best_matches_reference(examples, total, model)


@pytest.fixture(scope="module")
def simulated():
    """A 2-game simulated corpus whose nist_igsl loop trains four times."""
    games = simgen.simulate_corpus(
        simgen.default_world(seed=2), simgen.default_profile(seed=2), 2
    ).games
    total = strategic.count_event_types(e for g in games for e in g.events)
    return games, corpus.pooled_examples(games), corpus.pooled_gold(games), total


def test_assign_best_skips_candidates_that_cannot_win(simulated, monkeypatch):
    """On a simulated corpus the IGSL weight leaves many candidates unable
    to reach their comment's best score: they are never scored, and the
    picks and scores are those of scoring them all."""
    _, examples, _, total = simulated
    model = translator.train(learner.initial_training_set(examples))
    _assert_assign_best_matches_reference(examples, total, model)
    calls = []
    real = learner.evaluate_candidate

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(learner, "evaluate_candidate", counting)
    strategic_model = strategic.igsl([ex.example for ex in examples], total)
    for kind, pruned in (("nist_igsl", True), ("nist_gen", False)):
        calls.clear()
        learner._assign_best(examples, model, ScoringStrategy(kind), strategic_model, {})
        candidates = sum(len(ex.example.candidates) for ex in examples)
        assert (len(calls) < candidates) if pruned else (len(calls) == candidates)


@pytest.mark.parametrize("prune_fraction, fits_per_loop", [(0.0, 2), (0.2, 3)])
def test_retrain_loop_fits_one_lm_per_sentence_list(
    simulated, monkeypatch, tmp_path, prune_fraction, fits_per_loop
):
    """Without pruning every training after the first keeps every comment,
    so from the third on each meets the previous training's sentences again
    and takes its LM.  Pruning 0.2 keeps as many comments twice, but not
    the same ones, so each training fits its own.  The reuse ends with the
    loop: a second loop fits its own."""
    _, examples, gold, total = simulated
    fits = []
    real_fit = translator.LanguageModel.fit

    def counting(sentences):
        fits.append(real_fit(sentences))
        return fits[-1]

    monkeypatch.setattr(translator.LanguageModel, "fit", counting)
    strategy = ScoringStrategy("nist_igsl")
    results = [
        learner.retrain_loop(
            examples, strategy, total_count=total, gold=gold, prune_fraction=prune_fraction
        )
        for _ in range(2)
    ]
    monkeypatch.undo()
    assert len(fits) == 2 * fits_per_loop
    assert results[1].model.lm is fits[-1] is not results[0].model.lm
    pairs = learner._pairs_from_matching(examples, results[1].matching, results[1].trained_on)
    assert _model_text(results[1].model, tmp_path / "loop.tsv") == _model_text(
        translator.train(pairs), tmp_path / "train.tsv"
    )


@pytest.mark.parametrize("kind", ["parse_score", "nist_gen", "meteor_gen"])
def test_retrain_recovers_gold_matching(clean, kind):
    _, examples, gold, _ = clean
    result = learner.retrain_loop(examples, ScoringStrategy(kind), gold=gold)
    assert metrics.matching_f1(result.matching.event_ids(), gold).f1 == 1.0
    assert result.history[-1].changed == 0
    assert result.history[-1].matching_f1 == 1.0
    assert result.iterations_run == len(result.history)
    assert result.trained_on == frozenset(result.matching.assignments)


@pytest.mark.parametrize("kind", ["nist_igsl", "meteor_igsl"])
def test_retrain_igsl_strategies(clean, kind):
    _, examples, gold, total = clean
    result = learner.retrain_loop(
        examples, ScoringStrategy(kind), total_count=total, gold=gold
    )
    assert result.strategic is not None
    assert metrics.matching_f1(result.matching.event_ids(), gold).f1 == 1.0


def test_retrain_runs_igsl_once_per_loop(clean, monkeypatch):
    _, examples, gold, total = clean
    calls = []
    real_igsl = strategic.igsl

    def counting_igsl(*args, **kwargs):
        calls.append(args)
        return real_igsl(*args, **kwargs)

    monkeypatch.setattr(strategic, "igsl", counting_igsl)
    result = learner.retrain_loop(
        examples, ScoringStrategy("nist_igsl"), total_count=total, gold=gold
    )
    assert result.iterations_run > 1
    assert len(calls) == 1
    assert result.strategic == real_igsl([ex.example for ex in examples], total)


@pytest.mark.parametrize("kind", ["parse_score", "nist_igsl"])
def test_retrain_loop_builds_only_what_it_reads(noisy, monkeypatch, tmp_path, kind):
    """parse_score trains the alignment alone and completes the model once;
    nist_igsl builds the whole model at every training."""
    games, examples, gold = noisy
    total = strategic.count_event_types(e for g in games for e in g.events)
    calls = Counter()
    for owner, name in ((translator, "train_alignment"), (translator, "extract_templates"),
                        (translator.LanguageModel, "fit")):
        def counting(*args, _real=getattr(owner, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    result = learner.retrain_loop(
        examples, ScoringStrategy(kind), total_count=total, gold=gold, prune_fraction=0.2
    )
    monkeypatch.undo()
    # the first training, then one per iteration that changed the picks
    trainings = 1 + sum(1 for record in result.history if record.changed)
    assert calls["train_alignment"] == trainings
    built = 1 if kind == "parse_score" else trainings
    assert calls["extract_templates"] == calls["fit"] == built
    pairs = learner._pairs_from_matching(examples, result.matching, result.trained_on)
    assert _model_text(result.model, tmp_path / "loop.tsv") == _model_text(
        translator.train(pairs), tmp_path / "train.tsv"
    )


@pytest.mark.parametrize("kind", ["nist_igsl", "meteor_gen"])
def test_retrain_loop_scores_each_pair_once(noisy, monkeypatch, tmp_path, kind):
    """One metric call per distinct (comment tokens, generation) pair of the
    loop, with the matching and model of the loop that scores every pick."""
    games, examples, gold = noisy
    total = strategic.count_event_types(e for g in games for e in g.events)
    strategy = ScoringStrategy(kind)
    scored = []
    for name in ("nist", "meteor"):
        def counting(candidate, reference, *profiles, _real=getattr(metrics, name)):
            scored.append((tuple(candidate), tuple(reference)))
            return _real(candidate, reference, *profiles)

        monkeypatch.setattr(metrics, name, counting)
    result = learner.retrain_loop(examples, strategy, total_count=total, gold=gold)
    loop_pairs, scored[:] = list(scored), []
    matching, model, *_ = _reference_retrain_loop(
        examples, strategy, total_count=total, gold=gold
    )
    monkeypatch.undo()
    assert len(set(scored)) < len(scored)  # the reference meets pairs again
    assert sorted(loop_pairs) == sorted(set(scored))
    assert result.matching.assignments == matching.assignments
    assert _model_text(result.model, tmp_path / "a.tsv") == _model_text(
        model, tmp_path / "b.tsv"
    )


def test_retrain_igsl_requires_totals(clean):
    _, examples, _, _ = clean
    with pytest.raises(learner.MissingStrategicModel):
        learner.retrain_loop(examples, ScoringStrategy("nist_igsl"))


def test_retrain_stops_on_stable_matching(clean):
    _, examples, gold, _ = clean
    result = learner.retrain_loop(examples, ScoringStrategy("parse_score"), gold=gold)
    assert result.iterations_run < learner.DEFAULT_MAX_ITER
    assert result.history[-1].changed == 0
    # the final model was trained on the matching it agreed with
    truncated = learner.retrain_loop(
        examples, ScoringStrategy("parse_score"), max_iter=result.iterations_run
    )
    assert truncated.matching.event_ids() == result.matching.event_ids()


def test_retrain_is_deterministic(clean, tmp_path):
    _, examples, _, total = clean
    dumps = []
    for n in range(2):
        result = learner.retrain_loop(
            examples, ScoringStrategy("nist_igsl"), total_count=total
        )
        path = tmp_path / f"model{n}.tsv"
        translator.save_model(result.model, path)
        dumps.append((result.matching, path.read_text(encoding="utf-8")))
    assert dumps[0][0] == dumps[1][0]
    assert dumps[0][1] == dumps[1][1]


def test_retrain_empty_examples_raise():
    with pytest.raises(learner.EmptyTrainingSet):
        learner.retrain_loop([], ScoringStrategy("parse_score"))
    with pytest.raises(learner.EmptyTrainingSet, match="no ambiguous examples"):
        learner.superfluous_cv([], [0.0], ScoringStrategy("parse_score"))


@pytest.mark.parametrize("kind", ["random", "gold"])
def test_superfluous_cv_rejects_fixed_picks(kind):
    games = simgen.simulate_corpus(simgen.default_world(5), simgen.default_profile(5), 1).games
    with pytest.raises(ValueError, match=f"{kind} fixes its picks"):
        learner.superfluous_cv(
            corpus.pooled_examples(games), [0.0, 0.2], ScoringStrategy(kind),
            gold=corpus.pooled_gold(games),
        )


def test_superfluous_cv_names_an_empty_training_fold():
    games = simgen.simulate_corpus(simgen.default_world(5), simgen.default_profile(5), 1).games
    examples = [ex for ex in corpus.pooled_examples(games) if ex.key == ("game1", 2)]
    assert learner.validation_split(examples) == ([], examples)
    with pytest.raises(
        learner.EmptyTrainingSet,
        match=r"training fold is empty \(0 training, 1 validation examples\)",
    ):
        learner.superfluous_cv(examples, [0.0], ScoringStrategy("parse_score"))


def test_superfluous_cv_names_an_empty_validation_fold():
    # With no held-out example every threshold would score 0.0 and the
    # smallest would win unseen.
    games = simgen.simulate_corpus(simgen.default_world(5), simgen.default_profile(5), 1).games
    keys = {("game1", 0), ("game1", 1), ("game1", 3)}
    examples = [ex for ex in corpus.pooled_examples(games) if ex.key in keys]
    assert learner.validation_split(examples) == (examples, [])
    with pytest.raises(
        learner.EmptyTrainingSet,
        match=r"validation fold is empty \(3 training, 0 validation examples\)",
    ):
        learner.superfluous_cv(examples, [0.0, 0.2, 0.4], ScoringStrategy("parse_score"))


@pytest.mark.parametrize("kind", ["random", "parse_score", "gold"])
def test_retrain_rejects_max_iter_below_one(clean, kind):
    _, examples, gold, _ = clean
    with pytest.raises(ValueError, match="max_iter"):
        learner.retrain_loop(examples, ScoringStrategy(kind), max_iter=0, gold=gold)


def test_retrain_assignments_stay_within_candidates(clean):
    _, examples, _, _ = clean
    result = learner.retrain_loop(examples, ScoringStrategy("parse_score"), max_iter=1)
    by_key = {ex.key: ex for ex in examples}
    assert set(result.matching.assignments) == set(by_key)
    for key, (event_id, score) in result.matching.assignments.items():
        assert event_id in {c.id for c in by_key[key].example.candidates}
        assert score >= 0.0


def test_random_strategy_is_one_shot_and_seeded(clean):
    _, examples, gold, _ = clean
    a = learner.retrain_loop(examples, ScoringStrategy("random", seed=3), gold=gold)
    b = learner.retrain_loop(examples, ScoringStrategy("random", seed=3))
    assert a.iterations_run == 1
    assert len(a.history) == 1
    assert a.matching.event_ids() == b.matching.event_ids()
    by_key = {ex.key: ex for ex in examples}
    for key, (event_id, _) in a.matching.assignments.items():
        assert event_id in {c.id for c in by_key[key].example.candidates}
    matchings = {
        tuple(sorted(
            learner.retrain_loop(examples, ScoringStrategy("random", seed=s))
            .matching.event_ids().items()
        ))
        for s in range(6)
    }
    assert len(matchings) > 1


def test_gold_strategy_trains_on_gold(clean):
    _, examples, gold, _ = clean
    result = learner.retrain_loop(examples, ScoringStrategy("gold"), gold=gold)
    assert metrics.matching_f1(result.matching.event_ids(), gold).f1 == 1.0
    assert result.iterations_run == 1
    parsed = translator.parse_sentence(("pink1", "boots", "it"), result.model)
    assert parsed and parsed[0][0] == _mr("kick ( pink1 )")


def test_gold_strategy_without_gold_raises(clean):
    _, examples, _, _ = clean
    with pytest.raises(ValueError):
        learner.retrain_loop(examples, ScoringStrategy("gold"))


def test_external_pairs_seed_first_iteration(clean, tmp_path):
    _, examples, gold, _ = clean
    by_key = {ex.key: ex for ex in examples}
    lines = []
    for key, event_id in gold.items():
        ex = by_key[key]
        event = next(c for c in ex.example.candidates if c.id == event_id)
        lines.append(f"{key[0]}\t{key[1]}\t{mrl.serialize_mr(event.mr)}\n")
    path = tmp_path / "seed.tsv"
    path.write_text("".join(lines), encoding="utf-8")
    pairs, warnings = learner.init_from_external(examples, path)
    assert warnings == 0
    assert len(pairs) == len(examples)
    result = learner.retrain_loop(
        examples, ScoringStrategy("parse_score"), gold=gold, initial_pairs=pairs
    )
    assert result.history[0].matching_f1 == 1.0


def test_external_skips_bad_lines_with_warnings(clean, tmp_path):
    _, examples, _, _ = clean
    ex = examples[0]
    good = ex.example.candidates[0]
    path = tmp_path / "seed.tsv"
    path.write_text(
        f"game1\t999\t{mrl.serialize_mr(good.mr)}\n"      # unknown comment
        f"game1\t{ex.example.comment.id}\tsteal ( purple9 )\n"  # not a candidate
        f"game1\t{ex.example.comment.id}\t{mrl.serialize_mr(good.mr)}\n",
        encoding="utf-8",
    )
    pairs, warnings = learner.init_from_external(examples, path)
    assert warnings == 1          # later line overrides the rejected middle one
    assert pairs == [(ex.example.comment.tokens, good.mr)]


def test_external_rejects_malformed_lines(clean, tmp_path):
    _, examples, _, _ = clean
    path = tmp_path / "seed.tsv"
    path.write_text("game1\t1\n", encoding="utf-8")
    with pytest.raises(corpus.FormatError) as err:
        learner.init_from_external(examples, path)
    assert err.value.line == 1
    path.write_text("game1\tone\tkick ( pink1 )\n", encoding="utf-8")
    with pytest.raises(corpus.FormatError):
        learner.init_from_external(examples, path)
    path.write_text("game1\t1\tkick ( pink1\n", encoding="utf-8")
    with pytest.raises(corpus.FormatError):
        learner.init_from_external(examples, path)


def test_prune_keys_quantile_behaviour():
    matching = Matching({
        ("g", 1): (1, 0.1), ("g", 2): (2, 0.2),
        ("g", 3): (3, 0.3), ("g", 4): (4, 0.4),
    })
    assert learner._prune_keys(matching, 0.0) == frozenset(matching.assignments)
    kept = learner._prune_keys(matching, 0.5)
    assert kept == frozenset({("g", 3), ("g", 4)})
    # ties at the cut survive
    tied = Matching({("g", i): (i, 0.1) for i in range(4)})
    assert learner._prune_keys(tied, 0.5) == frozenset(tied.assignments)


def test_pruning_drops_superfluous_comments(noisy):
    _, examples, gold = noisy
    result = learner.retrain_loop(
        examples, ScoringStrategy("parse_score"), prune_fraction=0.2, gold=gold
    )
    pruned = set(result.matching.assignments) - set(result.trained_on)
    assert pruned
    assert all(gold[key] is None for key in pruned)
    kept_ids = {
        key: event_id
        for key, (event_id, _) in result.matching.assignments.items()
        if key in result.trained_on
    }
    assert metrics.matching_f1(kept_ids, gold).f1 == 1.0


def test_validation_split_is_deterministic(clean):
    _, examples, _, _ = clean
    many = examples * 40  # same keys repeat; split must be keyed, not positional
    a_train, a_val = learner.validation_split(many)
    b_train, b_val = learner.validation_split(list(reversed(many)))
    assert {e.key for e in a_train}.isdisjoint({e.key for e in a_val})
    assert {e.key for e in a_train} == {e.key for e in b_train}
    assert len(a_train) + len(a_val) == len(many)


def test_validation_split_fraction():
    def ev(i):
        return corpus.GameEvent(0, _mr("kick ( pink1 )"), 1)

    examples = [
        corpus.GameExample(
            f"g{i % 7}",
            corpus.AmbiguousExample(
                corpus.make_comment(10, "x", "en", i), (ev(i),)
            ),
        )
        for i in range(500)
    ]
    _, val = learner.validation_split(examples)
    assert 0.12 < len(val) / 500 < 0.28


def test_superfluous_cv_clean_corpus_prefers_no_pruning(clean):
    _, examples, gold, _ = clean
    theta, result = learner.superfluous_cv(
        examples, [0.0, 0.2], ScoringStrategy("parse_score"), gold=gold
    )
    assert theta == 0.0
    filtered = result.trained_matching()
    assert filtered.assignments == result.matching.assignments
    assert metrics.matching_f1(filtered.event_ids(), gold).f1 == 1.0


def test_superfluous_cv_returns_grid_member_and_subset(noisy):
    _, examples, gold = noisy
    grid = [0.0, 0.1, 0.2, 0.3]
    theta, result = learner.superfluous_cv(
        examples, grid, ScoringStrategy("parse_score"), gold=gold
    )
    assert theta in grid
    filtered = result.trained_matching()
    assert set(filtered.assignments) <= set(result.matching.assignments)
    assert set(result.matching.assignments) == {ex.key for ex in examples}
    assert filtered.assignments == {
        k: v for k, v in result.matching.assignments.items() if k in result.trained_on
    }


def test_superfluous_cv_noisy_corpus_prunes_only_chatter(noisy):
    # 20 paired comments, 4 of them chatter: the held-out score must pick a
    # pruning fraction, and everything pruned must be the chatter.
    _, examples, gold = noisy
    theta, result = learner.superfluous_cv(
        examples, [0.0, 0.1, 0.2, 0.3], ScoringStrategy("parse_score"), gold=gold
    )
    assert theta > 0.0
    pruned = {ex.key for ex in examples} - set(result.trained_on)
    assert pruned
    assert all(gold[key] is None for key in pruned)


def test_superfluous_cv_completes_only_the_final_parse_score_model(noisy, monkeypatch, tmp_path):
    """The threshold runs are scored on their alignment alone: one
    translator.complete per parse_score run, and the same threshold and
    model as a search that completes every run."""
    _, examples, gold = noisy
    grid = [0.0, 0.1, 0.2, 0.3]
    strategy = ScoringStrategy("parse_score")
    train, validation = learner.validation_split(examples)
    scores = [
        learner._validation_score(
            learner.retrain_loop(train, strategy, prune_fraction=theta), train, validation
        )
        for theta in grid
    ]
    expected = grid[scores.index(max(scores))]
    calls = []
    complete = translator.complete

    def counting(pairs, alignment):
        calls.append(len(pairs))
        return complete(pairs, alignment)

    monkeypatch.setattr(translator, "complete", counting)
    theta, result = learner.superfluous_cv(examples, grid, strategy, gold=gold)
    monkeypatch.undo()
    assert len(calls) == 1
    assert theta == expected
    final = learner.retrain_loop(examples, strategy, gold=gold, prune_fraction=theta)
    assert _model_text(result.model, tmp_path / "cv.tsv") == _model_text(
        final.model, tmp_path / "final.tsv"
    )
