"""Alignment EM, template extraction, scoring, generation, serialization."""

import copy
import heapq
import itertools
import math
import tempfile
from collections import Counter, defaultdict
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sportscaster import cli, corpus, learner, mrl, simgen, translator


def _mr(text):
    return mrl.parse_mr(text)


def _sharp_pairs():
    # Enough repetition to pin every content word to its production.
    return [
        ("pink1 kicks to pink2".split(), _mr("pass(pink1,pink2)")),
        ("pink2 kicks to pink3".split(), _mr("pass(pink2,pink3)")),
        ("pink3 kicks to pink1".split(), _mr("pass(pink3,pink1)")),
        ("pink1 boots it".split(), _mr("kick(pink1)")),
        ("pink2 boots it".split(), _mr("kick(pink2)")),
        ("pink3 boots it".split(), _mr("kick(pink3)")),
        ("the ball is dead".split(), _mr("ballstopped")),
    ]


def _train_briefly(pairs):
    """translator.train with 3 EM iterations: a model far from converged."""
    return translator.complete(pairs, translator.train_alignment(pairs, 3))


def _table(model):
    """The array as a dict of dicts: trained productions, nonzero cells."""
    table = {}
    for key, row in zip(translator._COLUMN_KEYS, model.t.tolist()):
        dist = {word: p for word, p in zip(model.vocabulary, row) if p > 0.0}
        if dist:
            table[key] = dist
    return table


def _sum_left_to_right(values):
    """The sum EM takes: train_alignment adds each token's slots column by
    column and np.bincount adds in corpus order, both left to right, while
    builtin sum compensates rounding from Python 3.12, which would break the
    exact comparison below."""
    total = 0.0
    for value in values:
        total += value
    return total


def _reference_train_alignment(pairs, iterations):
    """Model-1 EM over a dict of dicts, one loop per token and production."""
    prepared = [
        (tuple(tokens), [p.key for p in mrl.derivation(mr)] + [translator.NULL_KEY])
        for tokens, mr in pairs
    ]
    vocabulary = tuple(sorted({w for tokens, _ in prepared for w in tokens}))
    keys = sorted({key for _, ks in prepared for key in ks})
    t = {key: dict.fromkeys(vocabulary, 1.0 / len(vocabulary)) for key in keys}

    def log_likelihood():
        return sum(
            math.log(sum(t[key].get(word, 0.0) for key in ks) / len(ks))
            for tokens, ks in prepared
            for word in tokens
        )

    history = [log_likelihood()]
    for _ in range(iterations):
        expected = {key: defaultdict(float) for key in keys}
        for tokens, ks in prepared:
            for word in tokens:
                denom = _sum_left_to_right(t[key].get(word, 0.0) for key in ks)
                for key in ks:
                    expected[key][word] += t[key].get(word, 0.0) / denom
        for key in keys:
            total = _sum_left_to_right(expected[key].values())
            t[key] = {word: c / total for word, c in sorted(expected[key].items())}
        history.append(log_likelihood())
    return t, vocabulary, history


def _reference_train_alignment_numpy(pairs, iterations):
    """The array EM with numpy's own row sum for each token's denominator,
    and a fresh array of weights per step."""
    vocabulary = tuple(sorted({w for tokens, _ in pairs for w in tokens}))
    size = len(vocabulary)
    stride = size + 1
    column = {word: i for i, word in enumerate(vocabulary)}
    index, widths = translator._candidate_arrays([mr for _, mr in pairs])
    lengths = [len(tokens) for tokens, _ in pairs]
    words = np.array([column[w] for tokens, _ in pairs for w in tokens], dtype=np.intp)
    rows = np.repeat(index, lengths, axis=0)
    width = np.repeat(widths, lengths)
    cells = rows * stride + words[:, None]
    reached, first = np.unique(cells[rows != translator._PAD_COLUMN], return_index=True)
    reached = reached[np.argsort(first, kind="stable")]
    owners = reached // stride
    trained = np.flatnonzero(np.bincount(owners))
    t = np.zeros((translator._PAD_COLUMN + 1, stride), dtype=np.float64)
    t[trained, :size] = 1.0 / size
    history = []
    for step in range(iterations + 1):
        gathered = t.take(cells)
        denominators = gathered.sum(axis=1)
        history.append(float(np.log(denominators / width).sum()))
        if step == iterations:
            break
        weights = gathered / denominators[:, None]
        expected = np.bincount(cells.ravel(), weights=weights.ravel(), minlength=t.size)
        totals = np.bincount(owners, weights=expected.take(reached), minlength=len(t))
        t[trained] = expected.reshape(t.shape)[trained] / totals[trained, None]
    return t, vocabulary, tuple(history)


def _assert_matches_references(pairs, iterations):
    """Bit for bit against the numpy-sum reference, and cell for cell
    against the dict reference."""
    model = translator.train_alignment(pairs, iterations=iterations)
    t, vocabulary, history = _reference_train_alignment_numpy(pairs, iterations)
    assert model.t.tobytes() == t.tobytes()
    assert model.vocabulary == vocabulary
    assert model.log_likelihoods == history
    t, vocabulary, history = _reference_train_alignment(pairs, iterations)
    assert model.vocabulary == vocabulary
    assert model.t.shape == (translator._PAD_COLUMN + 1, len(vocabulary) + 1)
    for row, key in enumerate(translator._COLUMN_KEYS):
        for column, word in enumerate(vocabulary):
            assert model.t[row, column] == t.get(key, {}).get(word, 0.0), (key, word)
    assert model.log_likelihoods == pytest.approx(history, rel=1e-12)


def test_train_alignment_matches_dict_reference():
    _assert_matches_references(_sharp_pairs(), 25)


def test_train_alignment_matches_both_references_on_a_simulated_corpus():
    """Every candidate pair of a 2-game simulated corpus: the all-candidates
    EM of a first loop iteration."""
    world = replace(simgen.default_world(), seed=3)
    profile = replace(simgen.default_profile(), seed=1003, superfluous_rate=1 / 9)
    games = simgen.simulate_corpus(world, profile, 2).games
    pairs = learner.initial_training_set(corpus.pooled_examples(games))
    assert len({len(mrl.derivation(mr)) for _, mr in pairs}) == 3  # arity 0, 1 and 2
    _assert_matches_references(pairs, 25)


def _assert_framed(alignment):
    """t holds the production and NULL rows, then a zero pad row; the
    vocabulary columns, then a zero unknown-word column."""
    pad, size = translator._PAD_COLUMN, len(alignment.vocabulary)
    assert alignment.t.shape == (pad + 1, size + 1)
    assert not alignment.t[pad].any()
    assert not alignment.t[:, size].any()
    assert alignment.t[:pad, :size].any()


def test_trained_and_loaded_tables_share_the_framed_layout(tmp_path):
    model = translator.train(_sharp_pairs())
    _assert_framed(model.alignment)
    first, second = tmp_path / "first.tsv", tmp_path / "second.tsv"
    translator.save_model(model, first)
    loaded = translator.load_model(first)
    _assert_framed(loaded.alignment)
    translator.save_model(loaded, second)
    reloaded = translator.load_model(second)
    assert first.read_bytes() == second.read_bytes()
    assert loaded.alignment.t.tobytes() == reloaded.alignment.t.tobytes()


def test_train_alignment_empty_raises():
    with pytest.raises(translator.EmptyTrainingSet):
        translator.train_alignment([])


def test_train_alignment_rejects_zero_iterations():
    with pytest.raises(ValueError):
        translator.train_alignment(_sharp_pairs(), iterations=0)


def test_alignment_distributions_normalized():
    model = translator.train_alignment(_sharp_pairs(), iterations=5)
    for key, dist in _table(model).items():
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9), key


def test_alignment_log_likelihood_monotone():
    model = translator.train_alignment(_sharp_pairs(), iterations=25)
    lls = model.log_likelihoods
    assert len(lls) == 26
    assert all(b >= a - 1e-9 for a, b in zip(lls, lls[1:]))


def test_em_disambiguates_two_pair_kick_fixture():
    pairs = [
        ("kick pink1".split(), _mr("kick(pink1)")),
        ("kick pink2".split(), _mr("kick(pink2)")),
    ]
    model = translator.train_alignment(pairs, iterations=20)
    value = _table(model)["pink1"]["pink1"]
    assert value > 0.9
    assert value == pytest.approx(0.9999456036782062, abs=1e-12)


def test_em_single_pair_single_production_split():
    # One word, one production + NULL: the posterior splits evenly, so both
    # normalized distributions put all mass on the word.
    model = translator.train_alignment([(["whistle"], _mr("ballstopped"))], 1)
    assert _table(model)["ballstopped"] == {"whistle": 1.0}
    assert _table(model)[translator.NULL_KEY] == {"whistle": 1.0}


def test_extract_templates_sharp_pass():
    pairs = _sharp_pairs()
    alignment = translator.train_alignment(pairs)
    lexicon = translator.extract_templates(pairs, alignment)
    assert ("<1>", "kicks", "to", "<2>") in lexicon.templates["pass"]
    assert lexicon.realizations["pink1"] == {("pink1",): 1.0}


def test_extract_templates_arity_zero():
    pairs = _sharp_pairs()
    lexicon = translator.extract_templates(pairs, translator.train_alignment(pairs))
    (template,) = lexicon.templates["ballstopped"]
    assert template == ("the", "ball", "is", "dead")


def test_template_weights_normalized():
    pairs = _sharp_pairs()
    lexicon = translator.extract_templates(pairs, translator.train_alignment(pairs))
    for predicate, templates in lexicon.templates.items():
        assert sum(templates.values()) == pytest.approx(1.0, abs=1e-9), predicate
    for constant, realizations in lexicon.realizations.items():
        assert sum(realizations.values()) == pytest.approx(1.0, abs=1e-9), constant


def test_extract_templates_argument_order_inversion():
    pairs = [
        ("pink2 takes it from pink1".split(), _mr("turnover(pink1,pink2)")),
        ("pink1 takes it from pink2".split(), _mr("turnover(pink2,pink1)")),
        ("pink1 boots it".split(), _mr("kick(pink1)")),
        ("pink2 boots it".split(), _mr("kick(pink2)")),
    ]
    lexicon = translator.extract_templates(pairs, translator.train_alignment(pairs))
    assert ("<2>", "takes", "it", "from", "<1>") in lexicon.templates["turnover"]


def test_extract_templates_self_referential_arguments():
    # Both argument positions share one production; runs consume the slots
    # left to right.
    pairs = [
        ("pink1 passes to pink1".split(), _mr("pass(pink1,pink1)")),
        ("pink1 boots it".split(), _mr("kick(pink1)")),
        ("passes to the middle".split(), _mr("ballstopped")),
    ]
    lexicon = translator.extract_templates(pairs, translator.train_alignment(pairs))
    assert ("<1>", "passes", "to", "<2>") in lexicon.templates["pass"]


@pytest.mark.parametrize("marker", ["<1>", "<2>"])
def test_slot_like_words_train_a_model_that_loads_and_generates(tmp_path, marker):
    """A template whose literal word reads as a slot marker is dropped, so
    the saved model loads back and every template names each slot once."""
    pairs = [(f"pink{i} kicks {marker}".split(), _mr(f"kick(pink{i})")) for i in range(1, 8)]
    pairs += [(f"pink{i} kicks".split(), _mr(f"kick(pink{i})")) for i in range(1, 8)]
    model = translator.train(pairs)
    path = tmp_path / "model.tsv"
    translator.save_model(model, path)
    loaded = translator.load_model(path)
    assert loaded.lexicon.templates == model.lexicon.templates == {"kick": {("<1>", "kicks"): 1.0}}
    for candidate in (model, loaded):
        assert translator.generate_topk(_mr("kick(pink1)"), candidate, 5)


def test_train_single_pair_memorizes():
    model = translator.train([("pink1 kicks".split(), _mr("kick(pink1)"))])
    top = translator.generate_topk(_mr("kick(pink1)"), model, 1)
    assert top[0][0] == ("pink1", "kicks")


def test_lm_context_distribution_sums_to_one():
    lm = translator.LanguageModel.fit([["a", "b"], ["a", "c"]])
    words = set(lm.vocabulary) | {"</s>"}
    for context in lm.counts:
        assert sum(lm.probability(w, context) for w in words) == pytest.approx(
            1.0, abs=1e-9
        )


def test_lm_known_probability():
    lm = translator.LanguageModel.fit([["a", "b"]])
    # Every step: count 1 of 1 with |V|+1 = 3 smoothing slots.
    step = 1.01 / 1.03
    assert lm.sentence_prob(["a", "b"]) == pytest.approx(step**3)


def test_lm_scores_with_the_order_it_was_fit_with(monkeypatch):
    monkeypatch.setattr(translator, "LM_ORDER", 2)
    lm = translator.LanguageModel.fit([["a", "b"], ["a", "a"]])
    # Bigram counts: <s> -> a 2 of 2; a -> a and a -> </s> 1 of 3 each (the
    # third is a -> b); |V|+1 = 3 smoothing slots.
    expected = (2.01 / 2.03) * (1.01 / 3.03) * (1.01 / 3.03)
    assert lm.sentence_prob(["a", "a"]) == pytest.approx(expected, rel=1e-12)


def test_score_floor_for_no_overlap():
    model = translator.train(_sharp_pairs())
    [[score]] = translator.score_corpus(
        [["sunny", "day"]], [[_mr("kick(pink1)")]], model.alignment
    )
    assert score == pytest.approx(translator.null_floor(model.alignment), rel=1e-12)
    assert len(translator.parse_sentence(["sunny", "day"], model)) == 0


def test_score_invariant_to_candidate_list_order():
    model = translator.train(_sharp_pairs())
    tokens = "pink1 kicks to pink2".split()
    mrs = [_mr("pass(pink1,pink2)"), _mr("kick(pink1)"), _mr("ballstopped")]
    forward = translator.score_candidates(tokens, mrs, model.alignment)
    backward = translator.score_candidates(tokens, list(reversed(mrs)), model.alignment)
    assert forward == list(reversed(backward))


def test_sharp_parse_beats_full_space():
    model = translator.train(_sharp_pairs())
    # Arity-1 gold: strictly above every other MR in the whole space.
    ranked = translator.parse_sentence("pink1 boots it".split(), model)
    assert ranked[0][0] == _mr("kick(pink1)")
    assert ranked[0][1] > ranked[1][1]
    # Arity-2 gold: the bag-of-productions score cannot see argument order,
    # so the swapped MR ties exactly and canonical order breaks the tie.
    tokens = "pink1 kicks to pink2".split()
    ranked = translator.parse_sentence(tokens, model)
    assert ranked[0][0] == _mr("pass(pink1,pink2)")
    assert ranked[1][0] == _mr("pass(pink2,pink1)")
    assert ranked[0][1] == ranked[1][1] > ranked[2][1]  # strict against every non-permutation
    # Scoring the one MR is the same arithmetic: bit-identical, not merely close.
    assert translator.score_corpus([tokens], [[ranked[0][0]]], model.alignment) == [
        [ranked[0][1]]
    ]


def _uniform_model():
    """Every production translates "left" and "right" alike: every MR of a
    sentence of those words ties."""
    vocabulary = ("left", "right")
    pad = translator._PAD_COLUMN
    t = np.zeros((pad + 1, len(vocabulary) + 1))
    t[:pad, : len(vocabulary)] = 0.5
    return translator.TranslationModel(
        alignment=translator.AlignmentModel(t=t, vocabulary=vocabulary),
        lexicon=translator.TemplateLexicon(templates={}, realizations={}),
        lm=translator.LanguageModel.fit([["left", "right"]]),
    )


def test_uniform_model_ties_break_canonically():
    ranked = translator.parse_sentence(["left", "right"], _uniform_model())
    assert len(ranked) == 2018
    assert ranked[0][0] == mrl.enumerate_mrs()[0]
    assert ranked[0][1] == ranked[-1][1]


def test_generate_topk_truncation_and_order():
    model = translator.train(_sharp_pairs())
    results = translator.generate_topk(_mr("pass(pink3,pink2)"), model, k=50)
    assert 1 <= len(results) <= 50
    scores = [score for _, score in results]
    assert scores == sorted(scores, reverse=True)
    assert results[0][0] == ("pink3", "kicks", "to", "pink2")


def test_generate_unseen_predicate_raises():
    model = translator.train(_sharp_pairs())
    with pytest.raises(translator.NoTemplate):
        translator.generate_topk(_mr("steal(purple4)"), model)


def test_generate_unseen_constant_falls_back_to_token():
    model = translator.train(_sharp_pairs())
    top = translator.generate_topk(_mr("kick(purple7)"), model, 1)
    assert top[0][0] == ("purple7", "boots", "it")


def test_template_weight_rescale_keeps_rankings():
    model = translator.train(_sharp_pairs())
    scaled = translator.TranslationModel(
        alignment=model.alignment,
        lexicon=translator.TemplateLexicon(
            templates={
                k: {t: 7.5 * w for t, w in v.items()}
                for k, v in model.lexicon.templates.items()
            },
            realizations=model.lexicon.realizations,
        ),
        lm=model.lm,
    )
    mr = _mr("pass(pink1,pink3)")
    base = [tokens for tokens, _ in translator.generate_topk(mr, model, 10)]
    rescaled = [tokens for tokens, _ in translator.generate_topk(mr, scaled, 10)]
    assert base == rescaled


def test_lm_context_totals_follow_a_second_fit():
    """A model is fit once, so the sentences a second fit would add come in
    the same fit; every context's total is over all of them."""
    lm = translator.LanguageModel.fit([["a", "b"], ["a", "c"], ["b"]])
    assert sum(lm.counts[(translator._START, "a")].values()) == 2
    smoothing = translator.LM_K * (len(lm.vocabulary) + 1)
    for context, bucket in lm.counts.items():
        for word in set(lm.vocabulary) | {"</s>"}:
            expected = (bucket[word] + translator.LM_K) / (sum(bucket.values()) + smoothing)
            assert lm.probability(word, context) == expected


def test_lm_probability_survives_save_load(tmp_path):
    model = translator.train(_sharp_pairs())
    path = tmp_path / "model.tsv"
    translator.save_model(model, path)
    loaded = translator.load_model(path).lm
    words = set(model.lm.vocabulary) | {"</s>", "unseen"}
    contexts = list(model.lm.counts) + [("never", "seen")]
    for context in contexts:
        for word in words:
            assert loaded.probability(word, context) == model.lm.probability(word, context)
    assert loaded.ceilings == model.lm.ceilings
    assert loaded.unseen == model.lm.unseen


def test_lm_refit_survives_save_load(tmp_path):
    lm = translator.LanguageModel.fit([["a", "b"], ["c"]])
    assert lm.vocabulary == {"a", "b", "c"}
    model = replace(translator.train(_sharp_pairs()), lm=lm)
    path = tmp_path / "model.tsv"
    translator.save_model(model, path)
    loaded = translator.load_model(path).lm
    assert loaded.vocabulary == lm.vocabulary
    words = set(lm.vocabulary) | {"</s>", "unseen"}
    for context in list(lm.counts) + [("never", "seen")]:
        for word in words:
            assert loaded.probability(word, context) == lm.probability(word, context)
    assert loaded.grams == lm.grams
    assert loaded.floors == lm.floors
    assert loaded.unseen == lm.unseen
    assert loaded.ceilings == lm.ceilings
    assert loaded.pair_ceilings == lm.pair_ceilings


def test_a_sentence_holding_the_end_token_survives_save_load(tmp_path):
    """The LM vocabulary is every word the counts predict but </s>, so a
    training sentence holding the token </s> gives the same LM in memory
    and reloaded."""
    mr = _mr("kick ( pink1 )")
    model = translator.train([(("pink1", "kicks", "</s>"), mr)])
    path = tmp_path / "model.tsv"
    translator.save_model(model, path)
    loaded = translator.load_model(path)
    assert loaded.lm.vocabulary == model.lm.vocabulary == {"pink1", "kicks"}
    for tokens in (["pink1", "kicks"], ["pink1", "kicks", "</s>"], ["unseen"]):
        assert loaded.lm.sentence_prob(tokens) == model.lm.sentence_prob(tokens)
    assert translator.generate_topk(mr, loaded) == translator.generate_topk(mr, model)


@pytest.fixture(scope="module")
def quick_start_path(tmp_path_factory):
    """model.tsv of the README quick start: 3 games at seed 5, nist_igsl."""
    root = tmp_path_factory.mktemp("quick-start")
    assert cli.run(["simulate", "--seed", "5", "--games", "3",
                    "--out", str(root / "corpus")]) == 0
    assert cli.run(["train", "--manifest", str(root / "corpus" / "manifest.tsv"),
                    "--strategy", "nist_igsl", "--out", str(root / "model")]) == 0
    return root / "model" / "model.tsv"


def test_fit_through_a_used_model_leaves_it_unchanged(quick_start_path):
    """fit builds a new model: the LM a model holds, and so what its
    generation memo kept, stays that of its own counts."""
    model = translator.load_model(quick_start_path)
    mr = _mr("pass(purple5,purple2)")
    top = translator.generate_topk(mr, model, 1)
    counts = copy.deepcopy(model.lm.counts)
    refit = model.lm.fit([["purple5", "passes", "to", "purple2"], ["purple2", "kicks"]])
    assert model.lm.counts == counts
    assert translator.generate_topk(mr, model, 1) == top
    fresh = translator.TranslationModel(model.alignment, model.lexicon, model.lm)
    assert translator.generate_topk(mr, fresh, 1) == top
    assert refit.counts != counts


def test_the_alignment_table_is_read_only(sharp_model, quick_start_path):
    for model in (sharp_model, translator.load_model(quick_start_path)):
        with pytest.raises(ValueError):
            model.alignment.t[0, 0] = 1.0


def test_lm_ceilings_bound_every_context():
    lm = translator.train(_sharp_pairs()).lm
    words = set(lm.vocabulary) | {"</s>", "unseen"}
    for context in list(lm.counts) + [("never", "seen")]:
        for word in words:
            assert lm.probability(word, context) <= lm.ceilings.get(word, lm.unseen)


def test_save_load_round_trip(tmp_path):
    model = translator.train(_sharp_pairs())
    path = tmp_path / "model.tsv"
    translator.save_model(model, path)
    loaded = translator.load_model(path)
    again = tmp_path / "model2.tsv"
    translator.save_model(loaded, again)
    assert path.read_bytes() == again.read_bytes()
    tokens = "pink1 kicks to pink2".split()
    mr = _mr("pass(pink1,pink2)")
    [[original]] = translator.score_corpus([tokens], [[mr]], model.alignment)
    [[reloaded]] = translator.score_corpus([tokens], [[mr]], loaded.alignment)
    assert reloaded == pytest.approx(original, rel=1e-12)
    assert loaded.alignment.vocabulary == model.alignment.vocabulary
    assert set(loaded.lexicon.templates) == set(model.lexicon.templates)
    for predicate, templates in model.lexicon.templates.items():
        for template, weight in templates.items():
            assert loaded.lexicon.templates[predicate][template] == pytest.approx(
                weight, rel=1e-12
            )


@pytest.mark.parametrize("tail", [["[bogus]"], ["[lmx]", "<s> <s>\tpink1\t1"]])
def test_load_model_rejects_an_unknown_section_at_its_header(tmp_path, tail):
    path = tmp_path / "model.tsv"
    translator.save_model(translator.train(_sharp_pairs()), path)
    header = len(path.read_text().splitlines()) + 1
    with path.open("a") as handle:
        handle.write("".join(line + "\n" for line in tail))
    with pytest.raises(corpus.FormatError) as info:
        translator.load_model(path)
    assert str(info.value) == f"{path}:{header}: unknown section {tail[0][1:-1]!r}"


def test_saved_model_sections_in_order(tmp_path):
    model = translator.train(_sharp_pairs())
    path = tmp_path / "model.tsv"
    translator.save_model(model, path)
    text = path.read_text()
    assert text.index("[alignment]") < text.index("[templates]") < text.index("[lm]")
    assert text.endswith("\n")


# "<1>" and "<2>" are words that read as slot markers.
_word = st.sampled_from(["red", "blue", "runs", "fast", "goal", "<1>", "<2>"])
_mr_text = st.sampled_from(
    ["kick(pink1)", "ballstopped", "pass(pink1,pink2)", "playmode(goal_l)",
     "pass(pink1,pink1)"]
)
_corpora = st.lists(
    st.tuples(st.lists(_word, min_size=1, max_size=4), _mr_text),
    min_size=1,
    max_size=6,
)


@settings(max_examples=25, deadline=None)
@given(_corpora)
def test_alignment_properties_hold_on_random_corpora(raw_pairs):
    pairs = [(tokens, _mr(text)) for tokens, text in raw_pairs]
    model = translator.train_alignment(pairs, iterations=3)
    for dist in _table(model).values():
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)
    lls = model.log_likelihoods
    assert all(b >= a - 1e-9 for a, b in zip(lls, lls[1:]))


@settings(max_examples=50, deadline=None)
@given(_corpora)
def test_every_extracted_template_passes_the_shared_check(raw_pairs):
    pairs = [(tokens, _mr(text)) for tokens, text in raw_pairs]
    lexicon = translator.extract_templates(pairs, translator.train_alignment(pairs, 3))
    for predicate, templates in lexicon.templates.items():
        for template in templates:
            mrl.check_template(predicate, template)


# A few distinct pairs, drawn again and again: arity-0, 1 and 2 MRs (one, two
# and no pad slots), a production named twice, repeated pairs and one-token
# sentences.
_repeating_corpora = st.lists(
    st.tuples(st.lists(_word, min_size=1, max_size=4), _mr_text), min_size=1, max_size=6
).flatmap(lambda distinct: st.lists(st.sampled_from(distinct), min_size=1, max_size=8))


@settings(max_examples=40, deadline=None)
@given(_repeating_corpora, st.integers(1, 25))
def test_train_alignment_matches_dict_reference_on_random_corpora(raw_pairs, iterations):
    pairs = [(tokens, _mr(text)) for tokens, text in raw_pairs]
    _assert_matches_references(pairs, iterations)


@settings(max_examples=25, deadline=None)
@given(_corpora)
def test_train_is_complete_after_train_alignment(raw_pairs):
    pairs = [(tokens, _mr(text)) for tokens, text in raw_pairs]
    with tempfile.TemporaryDirectory() as tmp:
        trained, completed = Path(tmp) / "train.tsv", Path(tmp) / "complete.tsv"
        translator.save_model(translator.train(pairs), trained)
        translator.save_model(
            translator.complete(pairs, translator.train_alignment(pairs)), completed
        )
        assert trained.read_bytes() == completed.read_bytes()


def _reference_sentence_logprob(lm, tokens):
    """The per-token formula: log probability() of each padded token, added
    left to right one at a time, as sentence_logprob adds them (builtin sum
    compensates its rounding from Python 3.12, so it would not give the same
    bits)."""
    order = translator.LM_ORDER
    padded = [translator._START] * (order - 1) + list(tokens) + [translator._END]
    total = 0.0
    for i in range(order - 1, len(padded)):
        total += math.log(lm.probability(padded[i], tuple(padded[i - order + 1 : i])))
    return total


# Includes words no corpus has, so queries reach unseen words and contexts.
_query = st.lists(st.sampled_from(["red", "blue", "runs", "fast", "goal", "offside"]),
                  max_size=6)


def _reference_pair_ceilings(lm):
    """The pair ceilings built in a second pass over lm.grams, in its order:
    a seen n-gram without its first word -> the largest probability of its
    last word over every first word, only values above lm.unseen kept."""
    table = {}
    for gram, p in lm.grams.items():
        if p > table.get(gram[1:], lm.unseen):
            table[gram[1:]] = p
    return table


def _assert_lm_tables_match_reference(first, second, queries):
    model = translator.train([(tokens, _mr(text)) for tokens, text in first])
    sentences = [tokens for tokens, _ in first + second]
    model = replace(model, lm=translator.LanguageModel.fit(sentences))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.tsv"
        translator.save_model(model, path)
        loaded = translator.load_model(path).lm
    for lm in (model.lm, loaded):
        for tokens in queries + [tokens for tokens, _ in first + second]:
            assert lm.sentence_logprob(tokens) == _reference_sentence_logprob(lm, tokens)
    assert loaded == model.lm
    assert loaded.grams == model.lm.grams
    assert loaded.floors == model.lm.floors
    assert loaded.unseen == model.lm.unseen
    assert loaded.pair_ceilings == model.lm.pair_ceilings
    reference = _reference_pair_ceilings(model.lm)
    assert model.lm.pair_ceilings == reference
    assert list(model.lm.pair_ceilings) == list(reference)


@settings(max_examples=25, deadline=None)
@given(_corpora, _corpora, st.lists(_query, min_size=1, max_size=5))
def test_sentence_logprob_matches_reference(first, second, queries):
    _assert_lm_tables_match_reference(first, second, queries)


@settings(max_examples=10, deadline=None)
@given(_corpora, _corpora, st.lists(_query, min_size=1, max_size=5))
def test_sentence_logprob_matches_reference_as_a_bigram_model(first, second, queries):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(translator, "LM_ORDER", 2)
        _assert_lm_tables_match_reference(first, second, queries)


def _reference_parse_sentence(tokens, model):
    """Ranking with one (-score, serialize_mr) sort key."""
    mrs = mrl.enumerate_mrs()
    scores = translator.score_candidates(tokens, mrs, model.alignment)
    if max(scores) <= translator.null_floor(model.alignment) * (1.0 + 1e-9):
        return []
    order = sorted(range(len(mrs)), key=lambda i: (-scores[i], mrl.serialize_mr(mrs[i])))
    return [(mrs[i], scores[i]) for i in order]


_PARSE_SENTENCES = ["pink1 kicks to pink2", "pink2 boots it", "the ball is dead",
                    "pink3 kicks to pink1 it", "sunny day", ""]


@pytest.fixture(scope="module")
def sharp_model():
    return translator.train(_sharp_pairs())


def test_parse_sentence_matches_reference_on_the_full_space(sharp_model, noisy_model):
    for model in (sharp_model, noisy_model[0]):
        for text in _PARSE_SENTENCES:
            tokens = text.split()
            ranked = translator.parse_sentence(tokens, model)
            reference = _reference_parse_sentence(tokens, model)
            assert list(ranked) == reference
            # the enumerate_mrs() objects themselves, and Python floats
            assert all(mr is want for (mr, _), (want, _) in zip(ranked, reference))
            assert all(type(score) is float for _, score in ranked)


def test_a_ranking_indexes_as_it_iterates(sharp_model, noisy_model):
    for model in (sharp_model, noisy_model[0]):
        for text in _PARSE_SENTENCES[:-2]:
            tokens = text.split()
            ranked = translator.parse_sentence(tokens, model)
            walked = list(ranked)
            for i in (0, 1, -1, len(ranked) - 1):
                assert ranked[i] == walked[i]
                assert ranked[i][0] is walked[i][0] and type(ranked[i][1]) is float
            with pytest.raises(IndexError):
                ranked[len(ranked)]
            with pytest.raises(TypeError):
                ranked[:2]
            assert dict(ranked) == dict(_reference_parse_sentence(tokens, model))


def test_a_parse_serializes_every_mr_once(sharp_model, noisy_model):
    mrs = mrl.enumerate_mrs()
    calls = []
    serialize = mrl.serialize_mr

    def counted(mr):
        calls.append(mr)
        return serialize(mr)

    for model in (sharp_model, noisy_model[0]):
        translator.parse_sentence(["pink1"], model)  # build the tables first
        calls.clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mrl, "serialize_mr", counted)
            ranked = translator.parse_sentence("pink1 kicks to pink2".split(), model)
            assert len(ranked) == len(calls) == len(mrs)
            assert {id(mr) for mr, _ in ranked} == {id(mr) for mr in mrs}
            assert all(type(score) is float for _, score in ranked)
            calls.clear()
            assert len(translator.parse_sentence([], model)) == 0 and calls == []


def _assert_rank_zero_reads_before_the_rank_order(tokens, model):
    """ranking[0], read first on a fresh parse, is the reference's best
    parse, and builds no rank order; the ranking then reads as the
    reference does."""
    reference = _reference_parse_sentence(tokens, model)
    ranked = translator.parse_sentence(tokens, model)
    if not reference:
        with pytest.raises(IndexError):
            ranked[0]
        assert len(ranked) == 0 and list(ranked) == []
        return
    mr, score = ranked[0]
    assert mr is reference[0][0] and type(score) is float and score == reference[0][1]
    assert ranked._ranked is None
    assert list(ranked) == reference
    assert all(mr is want for (mr, _), (want, _) in zip(ranked, reference))
    assert ranked[0] == reference[0] and ranked[1] == reference[1]
    assert ranked[-1] == reference[-1] and len(ranked) == len(reference)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=999), max_size=6))
@example([])
def test_rank_zero_read_first_is_the_best_parse(sharp_model, noisy_model, picks):
    """Sentences of vocabulary words, unknown words and repeats, and the
    empty one: each pick is a word of the model's vocabulary or one of two
    unknown words."""
    for model in (sharp_model, noisy_model[0]):
        words = model.alignment.vocabulary + ("zorp", "blee")
        tokens = [words[pick % len(words)] for pick in picks]
        _assert_rank_zero_reads_before_the_rank_order(tokens, model)


def test_rank_zero_read_first_breaks_ties_canonically(sharp_model):
    ties = [
        ("pink1 kicks to pink2".split(), sharp_model, 2),  # an argument permutation
        (["left", "right"], _uniform_model(), len(mrl.enumerate_mrs())),  # all tie
    ]
    for tokens, model, tied in ties:
        _assert_rank_zero_reads_before_the_rank_order(tokens, model)
        ranked = translator.parse_sentence(tokens, model)
        assert sum(score == ranked[0][1] for _, score in ranked) == tied


_TIE_POOL = ["pass(pink1,pink2)", "pass(pink2,pink1)", "pass(pink1,pink1)",
             "kick(pink1)", "kick(pink2)", "badPass(pink3,pink1)",
             "badPass(pink1,pink3)", "ballstopped", "playmode(goal_l)"]


def _reference_generate_topk(mr, model, k=5):
    """Exhaustive generation: score every template/realization combination."""
    templates = model.lexicon.templates.get(mr.predicate.name)
    if not templates:
        raise translator.NoTemplate(mr.predicate.name)
    scored = []
    for template, template_weight in sorted(templates.items()):
        slots = [int(item[1:-1]) for item in template if mrl._SLOT_RE.match(item)]
        choices = []
        for position in slots:
            constant = mr.args[position - 1].token
            realizations = model.lexicon.realizations.get(constant)
            if not realizations:
                realizations = {(constant,): 1.0}
            choices.append(sorted(realizations.items()))
        for combo in itertools.product(*choices):
            by_position = dict(zip(slots, combo))
            realized = []
            for item in template:
                if mrl._SLOT_RE.match(item):
                    realized.extend(by_position[int(item[1:-1])][0])
                else:
                    realized.append(item)
            weight = template_weight
            for _, realization_weight in combo:
                weight *= realization_weight
            score = model.lm.sentence_prob(realized) * weight
            scored.append((tuple(realized), score))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored[:k]


_KS = (1, 2, 5, 50)


def _assert_generation_matches_reference(mr, model):
    try:
        every = _reference_generate_topk(mr, model, k=10**9)
    except translator.NoTemplate:
        with pytest.raises(translator.NoTemplate):
            translator.generate_topk(mr, model, 1)
        return
    for k in _KS:
        assert translator.generate_topk(mr, model, k) == every[:k], (mr, k)


_POOL = ["kick(pink1)", "ballstopped", "pass(pink1,pink2)", "playmode(goal_l)",
         "pass(pink1,pink1)", "pass(pink2,pink1)", "kick(purple7)", "steal(purple4)"]


@settings(max_examples=25, deadline=None)
@given(_corpora)
def test_generate_topk_matches_exhaustive_reference_on_random_corpora(raw_pairs):
    model = _train_briefly([(tokens, _mr(text)) for tokens, text in raw_pairs])
    for text in _POOL:
        _assert_generation_matches_reference(_mr(text), model)


@pytest.fixture(scope="module")
def noisy_model():
    """The iteration-0 model of an 8-game simulated family: trained on every
    (comment, candidate event) pair, 112 ballstopped templates; with the MRs
    of its candidate events."""
    world = replace(simgen.default_world(), seed=0)
    profile = replace(simgen.default_profile(), seed=1000, superfluous_rate=1 / 9)
    games = simgen.simulate_corpus(world, profile, 8).games
    examples = corpus.pooled_examples(games)
    model = translator.train(learner.initial_training_set(examples))
    mrs = {c.mr for ex in examples for c in ex.example.candidates}
    return model, sorted(mrs, key=mrl.serialize_mr)


def test_generate_topk_matches_exhaustive_reference_on_noisy_model(noisy_model):
    model, mrs = noisy_model
    assert max(len(t) for t in model.lexicon.templates.values()) >= 100
    for mr in mrs:
        _assert_generation_matches_reference(mr, model)


def _lexicon_model(templates, realizations, lm):
    return translator.TranslationModel(
        alignment=translator.AlignmentModel(
            t=np.zeros((translator._PAD_COLUMN + 1, 1)), vocabulary=()
        ),
        lexicon=translator.TemplateLexicon(templates, realizations),
        lm=lm,
    )


def _tied_model(lm):
    """Templates and realizations whose combinations tie in score, and two
    combinations that realize the same sentence with the same score."""
    return _lexicon_model(
        {
            "kick": {
                ("<1>", "keeper", "kicks"): 0.25,
                ("<1>", "kicks"): 0.25,
                ("<1>", "boots"): 0.25,
            },
            "pass": {
                ("<1>", "to", "<2>"): 0.5,
                ("<2>", "from", "<1>"): 0.5,
            },
            "ballstopped": {("the", "ball", "stops"): 0.5, ("ball", "stops"): 0.5},
        },
        {
            "pink1": {("the",): 0.5, ("the", "keeper"): 0.5},
            "pink2": {("a",): 0.5, ("b",): 0.5},
        },
        lm,
    )


@pytest.mark.parametrize(
    "lm",
    [
        translator.LanguageModel(),  # every probability is 1: scores are weights
        translator.LanguageModel.fit([["the", "keeper", "kicks"], ["a", "to", "b"]]),
    ],
    ids=["flat", "fitted"],
)
def test_generate_topk_keeps_ties_and_duplicates(lm):
    model = _tied_model(lm)
    for text in ["kick(pink1)", "kick(purple7)", "pass(pink1,pink2)",
                 "pass(pink2,pink2)", "ballstopped"]:
        _assert_generation_matches_reference(_mr(text), model)
    top = translator.generate_topk(_mr("kick(pink1)"), model, 50)
    assert [tokens for tokens, _ in top].count(("the", "keeper", "kicks")) == 2
    assert len({score for _, score in top}) < len(top)


def _reference_ceiling_bound(lm, items, weight, arguments):
    """The all-ceilings bound of one combination: the template weight times
    one factor per literal and </s>, exact when its LM_ORDER - 1 items
    before are literals or <s> padding and its ceiling otherwise, times
    each argument's realization weight and the ceilings of its tokens.
    arguments holds one (tokens, weight) realization per argument."""
    def ceiling(token):
        return lm.ceilings.get(token, lm.unseen)

    order = translator.LM_ORDER
    padded = ("<s>",) * (order - 1) + items + ("</s>",)
    bound = weight
    for i in range(order - 1, len(padded)):
        token, context = padded[i], padded[i - order + 1 : i]
        if isinstance(token, int):
            continue
        if any(isinstance(item, int) for item in context):
            bound *= ceiling(token)
        else:
            bound *= lm.probability(token, context)
    for tokens, realization_weight in arguments:
        bound *= realization_weight
        for token in tokens:
            bound *= ceiling(token)
    return bound


def _spelled(runs):
    """A plan's runs as template items, each slot its 1-based number."""
    spelled = []
    for run in runs:
        spelled.extend([run + 1] if isinstance(run, int) else run)
    return tuple(spelled)


def _loose_scale(model, mr):
    """The product of the MR's arguments' argument_ceilings."""
    scale = 1.0
    for arg in mr.args:
        scale *= model.argument_ceilings[arg.token]
    return scale


def _assert_generation_bound_is_admissible(model, mrs):
    """The compiled tables against the lexicon: one plan per template, whose
    runs spell out the template, ordered by descending loose part and then
    lexicon order; each argument's options in its slot's context are its
    realizations (or the unseen fallback), best part first.  Every
    combination then scores at most its bound, both multiplied out in
    generate_topk's order; the bound is at most the all-ceilings bound, and
    the plan's start bound at most its loose bound, which is the largest
    all-ceilings bound of its combinations (each up to the rounding of a
    different product order).  Returns how many of the combinations checked
    have a bound below the all-ceilings one."""
    lm = model.lm
    plans = model.generation
    assert set(plans) == set(model.lexicon.templates)
    tighter = 0
    for mr in mrs:
        templates = model.lexicon.templates.get(mr.predicate.name, {})
        predicate_plans = plans.get(mr.predicate.name, [])
        assert len(predicate_plans) == len(templates)
        lexicon_order = [mrl.template_items(template)[0] for template in templates]
        assert {_spelled(plan[0]) for plan in predicate_plans} == set(lexicon_order)
        positions = [(-plan[3], lexicon_order.index(_spelled(plan[0])))
                     for plan in predicate_plans]
        assert positions == sorted(positions)
        scale = _loose_scale(model, mr)
        for runs, plan_weight, part, loose, slots in predicate_plans:
            items = _spelled(runs)
            template = list(templates)[lexicon_order.index(items)]
            weight = templates[template]
            assert plan_weight == weight
            assert len(slots) == len(mr.args)
            choices = [slot[arg.token] for slot, arg in zip(slots, mr.args)]
            for arg, options in zip(mr.args, choices):
                realizations = model.lexicon.realizations.get(arg.token) or {
                    (arg.token,): 1.0
                }
                assert sorted((t, w) for _, t, w in options) == sorted(realizations.items())
                assert options == sorted(options, key=lambda o: (-o[0], o[1]))
            start = part
            for options in choices:
                start *= options[0][0]
            assert loose * scale >= start * (1 - 1e-12)
            widest = 0.0
            for indices in itertools.product(*(range(len(c)) for c in choices)):
                picked = [argument[i] for argument, i in zip(choices, indices)]
                realized, combined = [], weight
                for item in items:
                    if isinstance(item, int):
                        _, tokens, realization_weight = picked[item - 1]
                        realized.extend(tokens)
                        combined *= realization_weight
                    else:
                        realized.append(item)
                bound = part
                for option_part, _, _ in picked:
                    bound *= option_part
                score = lm.sentence_prob(realized) * combined
                assert score <= bound * translator._BOUND_SLACK
                reference = _reference_ceiling_bound(
                    lm, items, weight, [(t, w) for _, t, w in picked]
                )
                assert bound <= reference * (1 + 1e-12)
                tighter += bound < reference * (1 - 1e-12)
                widest = max(widest, reference)
            assert math.isclose(loose * scale, widest, rel_tol=1e-12)
    return tighter


@settings(max_examples=25, deadline=None)
@given(_corpora)
def test_generation_bound_is_admissible(raw_pairs):
    model = _train_briefly([(tokens, _mr(text)) for tokens, text in raw_pairs])
    _assert_generation_bound_is_admissible(model, [_mr(text) for text in _POOL])


def test_generation_bound_is_admissible_on_noisy_model(noisy_model):
    assert _assert_generation_bound_is_admissible(*noisy_model) > 0


def test_generation_tables_are_built_once_per_model(noisy_model, monkeypatch):
    model, mrs = noisy_model
    model = translator.TranslationModel(model.alignment, model.lexicon, model.lm)
    calls = Counter()
    for owner, name in ((mrl, "template_items"), (translator.LanguageModel, "probability"),
                        (translator.SlotOptions, "__missing__")):
        def counting(*args, _real=getattr(owner, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(owner, name, counting)

    def generate_every_mr():
        for mr in mrs:
            for k in (1, 5):
                try:
                    translator.generate_topk(mr, model, k)
                except translator.NoTemplate:
                    pass

    generate_every_mr()
    tables = model.generation
    assert calls["template_items"] == sum(map(len, model.lexicon.templates.values()))
    assert calls["probability"] > 0 and calls["__missing__"] > 0
    calls.clear()
    model.generated.clear()
    generate_every_mr()
    assert calls == Counter()
    assert model.generation is tables


def _counting_sentence_prob(monkeypatch):
    """The sentences LanguageModel.sentence_prob is called with from now on."""
    calls = []
    sentence_prob = translator.LanguageModel.sentence_prob

    def counting(self, tokens):
        calls.append(tokens)
        return sentence_prob(self, tokens)

    monkeypatch.setattr(translator.LanguageModel, "sentence_prob", counting)
    return calls


def _reference_search_topk(mr, model, k):
    """The eager best-first search: every plan's option lists and start
    bound up front, then the same pops, scores and stop test as
    translator._search_topk."""
    plans = model.generation.get(mr.predicate.name)
    if not plans:
        return ()
    tokens = [arg.token for arg in mr.args]
    choices = [[slot[token] for slot, token in zip(slots, tokens)] for *_, slots in plans]

    def bound(number, indices):
        part = plans[number][2]
        for argument, i in zip(choices[number], indices):
            part *= argument[i][0]
        return part

    start = (0,) * len(tokens)
    frontier = [(-bound(number, start), number, start, 0) for number in range(len(plans))]
    heapq.heapify(frontier)
    scored, best = [], []
    while frontier:
        negated, number, indices, last = frontier[0]
        if (len(best) == k and best[0] >= translator._PRUNE_FLOOR
                and -negated * translator._BOUND_SLACK < best[0]):
            break
        heapq.heappop(frontier)
        runs, weight, *_ = plans[number]
        arguments = choices[number]
        realized = []
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
        for a in range(last, len(indices)):
            if indices[a] + 1 < len(arguments[a]):
                successor = indices[:a] + (indices[a] + 1,) + indices[a + 1 :]
                heapq.heappush(frontier, (-bound(number, successor), number, successor, a))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return tuple(scored[:k])


def _assert_search_matches_eager_reference(model, mrs):
    """The lazy search returns what the eager one does and scores exactly
    as many combinations."""
    with pytest.MonkeyPatch.context() as patch:
        calls = _counting_sentence_prob(patch)
        for mr in mrs:
            for k in _KS:
                calls.clear()
                lazy = translator._search_topk(mr, model, k)
                lazy_calls = len(calls)
                calls.clear()
                assert lazy == _reference_search_topk(mr, model, k), (mr, k)
                assert lazy_calls == len(calls), (mr, k)


@settings(max_examples=25, deadline=None)
@given(_corpora)
def test_search_matches_eager_reference_on_random_corpora(raw_pairs):
    model = _train_briefly([(tokens, _mr(text)) for tokens, text in raw_pairs])
    _assert_search_matches_eager_reference(model, [_mr(text) for text in _POOL])


def test_search_matches_eager_reference_on_noisy_model(noisy_model):
    _assert_search_matches_eager_reference(*noisy_model)


def test_search_reaches_fewer_option_lists_than_eager(noisy_model, monkeypatch):
    """Over the noisy model's candidate MRs at k=1, the lazy search builds
    fewer option lists than the eager one, which builds one per plan
    argument at most."""
    model, mrs = noisy_model
    calls = Counter()
    missing = translator.SlotOptions.__missing__

    def counting(self, token):
        calls[search] += 1
        return missing(self, token)

    monkeypatch.setattr(translator.SlotOptions, "__missing__", counting)
    for search in (translator._search_topk, _reference_search_topk):
        fresh = translator.TranslationModel(model.alignment, model.lexicon, model.lm)
        for mr in mrs:
            search(mr, fresh, 1)
    plan_arguments = sum(
        len(model.generation.get(mr.predicate.name, [])) * len(mr.args) for mr in mrs
    )
    assert 0 < calls[translator._search_topk] < calls[_reference_search_topk] <= plan_arguments


def test_search_skips_a_plan_whose_loose_bound_cannot_reach_the_top_k(monkeypatch):
    """Under the flat LM every probability and ceiling is 1, so a plan's
    loose bound is its weight times the best realization weight: 0.6 x 0.5
    ties the best score, 0.3 x 0.5 does not, and without the argument's 0.5
    the second plan would tie it too."""
    model = _lexicon_model(
        {"kick": {("<1>", "boots"): 0.3, ("<1>", "kicks"): 0.6, ("<1>", "hits"): 0.1}},
        {"pink1": {("pink1",): 0.5, ("the", "keeper"): 0.5}},
        translator.LanguageModel(),
    )
    assert [plan[3] for plan in model.generation["kick"]] == [0.6, 0.3, 0.1]
    lists = []
    missing = translator.SlotOptions.__missing__

    def counting(self, token):
        lists.append(self.context)
        return missing(self, token)

    monkeypatch.setattr(translator.SlotOptions, "__missing__", counting)
    calls = _counting_sentence_prob(monkeypatch)
    assert translator.generate_topk(_mr("kick(pink1)"), model, 1) == [(("pink1", "kicks"), 0.3)]
    assert lists == [(("<s>", "<s>"), ("kicks", "</s>"))]
    assert len(calls) == 2  # both realizations tie


def test_generate_topk_scores_fewer_than_every_combination(noisy_model, monkeypatch):
    model, _ = noisy_model
    model = translator.TranslationModel(model.alignment, model.lexicon, model.lm)
    mr = _mr("ballstopped")
    combinations = len(_reference_generate_topk(mr, model, k=10**9))
    calls = _counting_sentence_prob(monkeypatch)
    translator.generate_topk(mr, model, 1)
    assert 0 < len(calls) < combinations


def test_generate_topk_scores_one_combination_when_every_window_is_exact(monkeypatch):
    """Slots two or more literals apart: every trigram window of a
    combination has a known context, so each bound is its score and the
    best combination is the only one scored."""
    # "the" and "pink" follow some contexts for sure but start few
    # sentences, so their ceilings are far above their probability here.
    lm = translator.LanguageModel.fit([
        ["pink1", "passes", "the", "ball", "to", "pink2"],
        ["the", "pink", "one", "passes", "the", "ball", "to", "pink2"],
        ["pink1", "lobs", "it", "over", "to", "the", "pink", "two"],
        ["ball", "to", "the", "pink", "two"],
        ["over", "the", "pink", "one"],
        ["ball", "to", "the", "pink", "one"],
    ])
    model = _lexicon_model(
        {"pass": {("<1>", "passes", "the", "ball", "to", "<2>"): 0.6,
                  ("<1>", "lobs", "it", "over", "to", "<2>"): 0.3,
                  ("to", "<2>", "from", "the", "<1>"): 0.1}},
        {"pink1": {("pink1",): 0.4, ("the", "pink", "one"): 0.6},
         "pink2": {("pink2",): 0.35, ("the", "pink", "two"): 0.65}},
        lm,
    )
    mr = _mr("pass(pink1,pink2)")
    every = _reference_generate_topk(mr, model, k=10**9)
    assert len({score for _, score in every}) == len(every)
    calls = _counting_sentence_prob(monkeypatch)
    assert translator.generate_topk(mr, model, 1) == every[:1]
    assert len(calls) == 1


def test_generate_topk_answers_a_repeat_from_the_model(noisy_model, monkeypatch):
    model, _ = noisy_model
    model = translator.TranslationModel(model.alignment, model.lexicon, model.lm)
    mr = _mr("pass(pink1,pink2)")
    calls = _counting_sentence_prob(monkeypatch)
    first = translator.generate_topk(mr, model, 5)
    assert calls and len(first) == 5
    calls.clear()
    second = translator.generate_topk(mr, model, 5)
    assert calls == []
    assert second == first and second is not first
    second.clear()
    second.append((("mutated",), 1.0))
    assert translator.generate_topk(mr, model, 5) == first
    assert translator.generate_topk(_mr("pass(pink1, pink2)"), model, 5) == first


def test_generate_topk_keeps_k_apart(noisy_model, monkeypatch):
    model, _ = noisy_model
    model = translator.TranslationModel(model.alignment, model.lexicon, model.lm)
    mr = _mr("ballstopped")
    top5 = translator.generate_topk(mr, model, 5)
    calls = _counting_sentence_prob(monkeypatch)
    top1 = translator.generate_topk(mr, model, 1)
    assert calls  # k=1 is its own search, not a slice of k=5
    assert len(top5) == 5 and top1 == top5[:1]
    assert set(model.generated) == {(mrl.serialize_mr(mr), 1), (mrl.serialize_mr(mr), 5)}


def test_generate_topk_raises_no_template_on_every_call():
    model = translator.train(_sharp_pairs())
    mr = _mr("steal(purple4)")
    for _ in range(2):
        with pytest.raises(translator.NoTemplate) as raised:
            translator.generate_topk(mr, model, 1)
        assert raised.value.predicate == "steal"
    assert model.generated == {(mrl.serialize_mr(mr), 1): ()}


def test_a_rebuilt_model_keeps_no_generated_results():
    model = translator.train(_sharp_pairs())
    ranked = translator.generate_topk(_mr("kick(pink1)"), model, 1)
    rebuilt = translator.TranslationModel(model.alignment, model.lexicon, model.lm)
    assert rebuilt.generated == {}
    assert rebuilt == model
    assert translator.generate_topk(_mr("kick(pink1)"), rebuilt, 1) == ranked


def _reference_score_candidates(tokens, mrs, model):
    """Scoring as it was written per sentence: one (word, production column)
    add-k table per sentence, indexed by each candidate's derivation columns
    and summed over them."""
    if not mrs:
        return []
    if not tokens:
        return [translator.null_floor(model.alignment)] * len(mrs)
    pad = translator._PAD_COLUMN
    alignment = model.alignment
    columns = np.array([alignment.columns.get(w, -1) for w in tokens], dtype=np.intp)
    known = columns >= 0
    raw = np.zeros((len(tokens), pad + 1), dtype=np.float64)
    raw[known, :pad] = alignment.t[:pad, columns[known]].T
    denominator = 1.0 + translator.SMOOTHING_K * len(alignment.vocabulary)
    table = (raw + translator.SMOOTHING_K) / denominator
    table[:, pad] = 0.0
    index = np.full((len(mrs), 4), pad, dtype=np.intp)
    widths = np.empty(len(mrs), dtype=np.float64)
    for row, mr in enumerate(mrs):
        keys = [p.key for p in mrl.derivation(mr)] + [translator.NULL_KEY]
        for col, key in enumerate(keys):
            index[row, col] = translator._COLUMN_INDEX[key]
        widths[row] = len(keys)
    per_word = table[:, index].sum(axis=2) / widths
    return (per_word.prod(axis=0) ** (1.0 / len(tokens))).tolist()


def _reference_extract_templates(pairs, alignment):
    """Template extraction as it was written, one raw table per pair."""
    pad = translator._PAD_COLUMN
    template_counts = defaultdict(Counter)
    realization_counts = defaultdict(Counter)
    for tokens, mr in pairs:
        tokens = tuple(tokens)
        deriv = mrl.derivation(mr)
        keys = [p.key for p in deriv[1:]] + [deriv[0].key, translator.NULL_KEY]
        columns = np.array([alignment.columns.get(w, -1) for w in tokens], dtype=np.intp)
        known = columns >= 0
        raw = np.zeros((len(tokens), pad + 1), dtype=np.float64)
        raw[known, :pad] = alignment.t[:pad, columns[known]].T
        raw = raw[:, [translator._COLUMN_INDEX[key] for key in keys]]
        assigned = [keys[i] for i in raw.argmax(axis=1).tolist()]
        open_slots = defaultdict(list)
        for position, production in enumerate(deriv[1:], start=1):
            open_slots[production.key].append(position)
        items = []
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

    def normalize(counts):
        total = sum(counts.values())
        return {item: c / total for item, c in sorted(counts.items())}

    return translator.TemplateLexicon(
        templates={k: normalize(c) for k, c in sorted(template_counts.items())},
        realizations={k: normalize(c) for k, c in sorted(realization_counts.items())},
    )


def test_extract_templates_matches_the_reference_at_its_edges(monkeypatch):
    alignment = translator.train_alignment(_sharp_pairs())
    empty = translator.TemplateLexicon(templates={}, realizations={})
    assert translator.extract_templates([], alignment) == empty
    assert _reference_extract_templates([], alignment) == empty
    # every MR more than once, and "<1>" as a literal word: the templates
    # that keep it fail mrl.check_template and are dropped
    pairs = _sharp_pairs() * 2 + [
        (f"pink{i} kicks <1>".split(), _mr(f"kick(pink{i})")) for i in (1, 2, 1)
    ] + [("pink1 passes to pink1".split(), _mr("pass(pink1,pink1)"))] * 2
    alignment = translator.train_alignment(pairs)
    checked = []

    def counting(predicate, template, _real=mrl.check_template):
        checked.append((predicate, template))
        return _real(predicate, template)

    monkeypatch.setattr(mrl, "check_template", counting)
    lexicon = translator.extract_templates(pairs, alignment)
    monkeypatch.undo()
    assert lexicon == _reference_extract_templates(pairs, alignment)
    assert len(checked) == len(set(checked)) < len(pairs)
    assert ("kick", ("<1>", "kicks", "<1>")) in checked
    assert all("<1>" not in template[1:] for template in lexicon.templates["kick"])


def _reference_fit(sentences):
    """LanguageModel.fit as it counted one sentence at a time."""
    counts = {}
    order = translator.LM_ORDER
    for sentence in sentences:
        padded = [translator._START] * (order - 1) + list(sentence) + [translator._END]
        for i in range(order - 1, len(padded)):
            context = tuple(padded[i - order + 1 : i])
            counts.setdefault(context, Counter())[padded[i]] += 1
    return translator.LanguageModel(counts=counts)


# Sentences in runs of equal ones, some of them empty, as lists or tuples.
_runs = st.lists(
    st.tuples(st.lists(_word, max_size=4), st.integers(1, 4), st.booleans()),
    min_size=1, max_size=6,
).map(lambda runs: [
    tuple(words) if as_tuple else list(words)
    for words, repeats, as_tuple in runs
    for _ in range(repeats)
])


@settings(max_examples=60, deadline=None)
@given(_runs, _runs, st.sampled_from([2, 3]))
def test_lm_fit_counts_runs_as_every_sentence(first, second, order):
    """Counting a run once, times its length, gives every count and every
    dict's key order of counting each sentence, at the LM_ORDER of the call."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(translator, "LM_ORDER", order)
        lm = translator.LanguageModel.fit(itertools.chain(first, iter(second)))
        reference = _reference_fit(first + second)
        assert lm == reference
        assert list(lm.counts) == list(reference.counts)
        for context, bucket in lm.counts.items():
            assert list(bucket) == list(reference.counts[context])
        assert all(len(context) == order - 1 for context in lm.counts)
        model = translator.train(_sharp_pairs())
        with tempfile.TemporaryDirectory() as tmp:
            paths = Path(tmp) / "fit.tsv", Path(tmp) / "reference.tsv"
            for path, fitted in zip(paths, (lm, reference)):
                translator.save_model(replace(model, lm=fitted), path)
            assert paths[0].read_bytes() == paths[1].read_bytes()


def _full_space_scores(model, sentences):
    """score_corpus with every grammar-valid MR as each sentence's candidates."""
    full = mrl.enumerate_mrs()
    return translator.score_corpus(sentences, [full] * len(sentences), model.alignment)


def _assert_parse_scores(model, sentences, expected):
    """parse_sentence scores every MR as expected (enumerate_mrs() order)
    says, with ==, and abstains only where no MR beats the floor."""
    full = mrl.enumerate_mrs()
    floor = translator.null_floor(model.alignment)
    for tokens, scores in zip(sentences, expected):
        ranked = dict(translator.parse_sentence(tokens, model))
        if ranked:
            assert [ranked[mr] for mr in full] == scores
        else:
            assert max(scores) <= floor * (1.0 + 1e-9)


def _assert_kernel_matches_reference(model, sentences, candidates):
    """score_corpus, its views and parse_sentence against the per-sentence
    reference, with ==; extract_templates against its per-pair reference on
    the same pairs."""
    reference = [_reference_score_candidates(s, mrs, model)
                 for s, mrs in zip(sentences, candidates)]
    assert translator.score_corpus(sentences, candidates, model.alignment) == reference
    for tokens, mrs, scores in zip(sentences, candidates, reference):
        assert translator.score_candidates(tokens, mrs, model.alignment) == scores
    full = mrl.enumerate_mrs()
    full_reference = [_reference_score_candidates(s, full, model) for s in sentences]
    assert _full_space_scores(model, sentences) == full_reference
    _assert_parse_scores(model, sentences, full_reference)
    pairs = [(s, mr) for s, mrs in zip(sentences, candidates) for mr in mrs]
    assert translator.extract_templates(pairs, model.alignment) == (
        _reference_extract_templates(pairs, model.alignment)
    )


# "offside" and "zzz" are in no training corpus: unknown words.
_scored_word = st.sampled_from(["red", "blue", "runs", "fast", "goal", "<1>", "offside", "zzz"])


def _sentence(low, high):
    return st.lists(_scored_word, min_size=low, max_size=high)


# Every batch holds sentences of 0, 1, 2 and more tokens, in any order.  Two
# tokens matter: the root 1/2 is numpy's scalar sqrt fast path.
_batches = st.tuples(
    _sentence(0, 0), _sentence(1, 1), _sentence(2, 2), _sentence(3, 6),
    st.lists(_sentence(0, 6), max_size=4),
).flatmap(lambda drawn: st.permutations([*drawn[:4], *drawn[4]]))
# Repeated and argument-permuted MRs, and one whose productions no corpus trains.
_SCORED_POOL = _TIE_POOL + ["steal(purple9)"]


@settings(max_examples=40, deadline=None)
@given(_corpora, _batches,
       st.lists(st.lists(st.sampled_from(_SCORED_POOL), max_size=5), min_size=8, max_size=8))
def test_score_corpus_matches_the_per_sentence_reference(raw_pairs, sentences, texts):
    model = _train_briefly([(tokens, _mr(text)) for tokens, text in raw_pairs])
    candidates = [[_mr(text) for text in row] for row in texts[: len(sentences)]]
    _assert_kernel_matches_reference(model, sentences, candidates)


def test_score_corpus_matches_the_per_sentence_reference_on_trained_models(
    sharp_model, noisy_model
):
    texts = ["", "pink1", "pink1 passes", "pink2 boots it", "purple5 passes to purple3",
             "the ball is dead", "pink3 kicks to pink1 it", "zorp blee grum",
             "pink1 passes to pink2 and pink2 passes back to pink1 quickly"]
    sentences = [text.split() for text in texts]
    sharp_pool = [_mr(text) for text in _SCORED_POOL]
    for model, pool in ((sharp_model, sharp_pool), noisy_model):
        # overlapping candidate lists, each with the pool's first two again
        candidates = [pool[i:] + pool[:2] for i in range(len(sentences))]
        _assert_kernel_matches_reference(model, sentences, candidates)


@settings(max_examples=15, deadline=None)
@given(_corpora, _batches)
def test_full_space_table_matches_the_candidates_branch(raw_pairs, sentences):
    model = _train_briefly([(tokens, _mr(text)) for tokens, text in raw_pairs])
    _assert_parse_scores(model, sentences, _full_space_scores(model, sentences))


def test_full_space_table_matches_the_candidates_branch_on_trained_models(
    sharp_model, noisy_model, tmp_path
):
    # equal-length sentences, empty ones and unknown words, in one call; the
    # last has one known word among 99 unknown ones, so its best score is
    # just above the floor and it still parses
    texts = ["", "pink1 boots it", "pink2 kicks to", "zorp blee grum", "",
             "pink1 kicks to pink2", "pink3 kicks zorp pink1", "the ball is dead",
             "pink2", "zorp " * 99 + "pink1"]
    sentences = [text.split() for text in texts]
    translator.save_model(sharp_model, tmp_path / "model.tsv")
    loaded = translator.load_model(tmp_path / "model.tsv")
    for model in (sharp_model, noisy_model[0], loaded):
        _assert_parse_scores(model, sentences, _full_space_scores(model, sentences))
        for tokens in sentences:
            assert all(type(score) is float
                       for _, score in translator.parse_sentence(tokens, model))
        assert translator.parse_sentence(sentences[-1], model)
    assert loaded.alignment.full_space.shape == (
        len(loaded.alignment.vocabulary) + 1, len(mrl.enumerate_mrs())
    )
