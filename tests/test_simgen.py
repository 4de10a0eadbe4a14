import math
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sportscaster import corpus, mrl, simgen
from sportscaster.simgen import (
    CommentatorProfile,
    EmptyLexicon,
    Prng,
    SimulationSpec,
    WorldConfig,
    commentate,
    default_profile,
    default_world,
    derive_seed,
    load_config,
    parse_config,
    simulate_corpus,
    simulate_events,
)

# First outputs of the reference generator, recomputed by hand-stepping the
# published recurrence in an independent script before being frozen here.
SEED0_OUTPUTS = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)
SEED42_OUTPUTS = (0xBDD732262FEB6E95, 0x28EFE333B266F103)


def test_prng_matches_reference_outputs():
    g = Prng(0)
    assert tuple(g.next() for _ in range(3)) == SEED0_OUTPUTS
    g = Prng(42)
    assert tuple(g.next() for _ in range(2)) == SEED42_OUTPUTS


def test_prng_uniform_mean_near_half():
    g = Prng(0)
    mean = sum(g.uniform() for _ in range(100_000)) / 100_000
    assert 0.495 <= mean <= 0.505


def test_uniform_int_covers_inclusive_range():
    g = Prng(9)
    seen = Counter(g.uniform_int(3, 7) for _ in range(2000))
    assert set(seen) == {3, 4, 5, 6, 7}
    g = Prng(10)
    assert all(g.uniform_int(5, 5) == 5 for _ in range(20))


def test_weighted_index_respects_weights():
    g = Prng(4)
    picks = Counter(g.weighted_index([1.0, 0.0, 3.0]) for _ in range(4000))
    assert picks[1] == 0
    assert abs(picks[2] / 4000 - 0.75) < 0.03


def _reference_weighted_index(prng, weights):
    """weighted_index as a running-total loop over builtin sum's total."""
    total = sum(weights)
    u = prng.uniform() * total
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if u < acc:
            return i
    return len(weights) - 1


# Every weight list a config can set: finite and nonnegative, with zeros,
# ints and floats mixed, and all-zero lists too.
_weights = st.lists(
    st.one_of(
        st.just(0.0),
        st.integers(0, 5),
        st.floats(0.0, 1e6, allow_nan=False),
        st.sampled_from([1e-300, 5e-324, 0.1, 0.2, 0.3]),
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=500)
@given(_weights, st.integers(0, 2**64 - 1), st.integers(1, 4))
def test_weighted_index_matches_reference(weights, seed, draws):
    prng, reference = Prng(seed), Prng(seed)
    for _ in range(draws):
        assert prng.weighted_index(weights) == _reference_weighted_index(reference, weights)
        assert prng.state == reference.state


def test_derive_seed_is_stable_and_decorrelated():
    base = 1234
    seeds = {derive_seed(base, i, s) for i in range(8) for s in range(3)}
    assert len(seeds) == 24
    assert derive_seed(base, 3, 1) == derive_seed(base, 3, 1)
    assert derive_seed(base, 3, 1) != derive_seed(base + 1, 3, 1)


def _world(**overrides):
    base = dict(
        duration_ms=200_000,
        mean_event_gap_ms=500,
        event_type_weights={"kick": 1.0},
        seed=0,
    )
    base.update(overrides)
    return WorldConfig(**base)


def test_simulate_events_is_deterministic_and_ordered():
    a = simulate_events(_world())
    b = simulate_events(_world())
    assert a == b
    assert all(later.time_ms > earlier.time_ms for earlier, later in zip(a, a[1:]))
    assert a[-1].time_ms < 200_000
    assert [e.id for e in a] == list(range(len(a)))


def test_degenerate_weights_emit_one_predicate():
    events = simulate_events(_world(event_type_weights={"steal": 2.5}))
    assert events
    assert {e.mr.predicate.name for e in events} == {"steal"}


def test_event_mix_tracks_weights_within_two_points():
    weights = {
        "ballstopped": 5817.0,
        "kick": 2122.0,
        "pass": 1069.0,
        "turnover": 566.0,
        "badPass": 371.0,
    }
    events = simulate_events(
        _world(duration_ms=150_000, mean_event_gap_ms=10,
               event_type_weights=weights, seed=3)
    )
    assert len(events) >= 10_000
    counts = Counter(e.mr.predicate.name for e in events)
    total_weight = sum(weights.values())
    for name, w in weights.items():
        assert abs(counts[name] / len(events) - w / total_weight) < 0.02, name


def test_event_arguments_are_well_sorted():
    events = simulate_events(
        _world(event_type_weights={"pass": 1.0, "playmode": 1.0}, seed=7)
    )
    for e in events:
        for arg, sort in zip(e.mr.args, e.mr.predicate.argument_sorts):
            assert arg.sort == sort


def _chatty_profile(**overrides):
    base = default_profile(seed=5)
    fields = dict(
        comment_prob={p.name: 1.0 for p in mrl.PREDICATES},
        superfluous_rate=0.0,
        lag_ms_range=(200, 4800),
    )
    fields.update(overrides)
    return replace(base, **fields)


def test_certain_commentary_is_a_bijection_with_recall_one():
    events = simulate_events(_world(event_type_weights={"kick": 2.0, "pass": 1.0}))
    comments, gold = commentate(events, _chatty_profile())
    assert len(comments) == len(events)
    matched = {gold.matches.get(c.id) for c in comments}
    assert None not in matched
    examples = corpus.pair_with_window(events, list(comments), 5000)
    by_comment = {ex.comment.id: ex for ex in examples}
    hits = sum(
        1
        for c in comments
        if gold.matches.get(c.id) in {e.id for e in by_comment[c.id].candidates}
    )
    assert hits == len(comments)  # recall 1.0 when every lag fits the window


def test_gold_events_always_precede_their_comments():
    events = simulate_events(_world(event_type_weights={"kick": 1.0, "turnover": 1.0}))
    comments, gold = commentate(events, _chatty_profile(superfluous_rate=0.15))
    by_id = {e.id: e for e in events}
    for c in comments:
        ev = gold.matches.get(c.id)
        if ev is not None:
            assert 0 <= c.time_ms - by_id[ev].time_ms <= 5000


def test_selective_commentary_mentions_only_enabled_predicates():
    events = simulate_events(
        _world(event_type_weights={"kick": 1.0, "pass": 1.0}, seed=2)
    )
    prob = {p.name: 0.0 for p in mrl.PREDICATES}
    prob["pass"] = 0.999
    comments, gold = commentate(events, _chatty_profile(comment_prob=prob))
    by_id = {e.id: e for e in events}
    assert comments
    for c in comments:
        assert by_id[gold.matches.get(c.id)].mr.predicate.name == "pass"


def test_superfluous_fraction_matches_binomial_rate():
    events = simulate_events(
        _world(duration_ms=700_000, mean_event_gap_ms=350, seed=11)
    )
    rate = 0.18
    comments, gold = commentate(events, _chatty_profile(superfluous_rate=rate))
    hollow = sum(1 for c in comments if gold.matches.get(c.id) is None)
    normal = len(comments) - hollow
    assert normal >= 1500
    sd = math.sqrt(normal * rate * (1 - rate))
    assert abs(hollow - normal * rate) < 4 * sd
    assert all(len(c.tokens) in range(3, 8) for c in comments if gold.matches.get(c.id) is None)


def test_superfluous_rate_needs_vocabulary():
    events = simulate_events(_world())
    profile = _chatty_profile(superfluous_rate=0.5, superfluous_vocabulary=())
    with pytest.raises(EmptyLexicon):
        commentate(events, profile)


def test_commentable_predicate_without_template_is_rejected():
    lexicon = {k: v for k, v in default_profile().lexicon.items() if k != "steal"}
    profile = _chatty_profile(lexicon=lexicon)
    events = simulate_events(_world(event_type_weights={"steal": 1.0}))
    with pytest.raises(EmptyLexicon):
        commentate(events, profile)


def test_template_slots_must_match_arity():
    lexicon = dict(default_profile().lexicon)
    lexicon["pass"] = [(("<1>", "passes", "the", "ball"), 1.0)]
    events = simulate_events(_world(event_type_weights={"pass": 1.0}))
    with pytest.raises(ValueError):
        commentate(events, _chatty_profile(lexicon=lexicon))


def test_template_slots_follow_the_shared_rule():
    # "<01>" names slot 1; "<x>" is not a slot marker, so it is text.
    lexicon = dict(default_profile().lexicon)
    lexicon["kick"] = [(("<01>", "kicks", "<x>"), 1.0)]
    events = simulate_events(_world(duration_ms=20_000))
    comments, _ = commentate(events, _chatty_profile(lexicon=lexicon))
    assert comments
    for comment in comments:
        assert comment.tokens[0] in mrl.PLAYER_TOKENS
        assert comment.tokens[1:] == ("kicks", "<x>")


def test_ambiguity_grows_with_event_density():
    def mean_candidates(gap):
        events = simulate_events(_world(mean_event_gap_ms=gap, seed=6))
        comments, _ = commentate(events, _chatty_profile())
        examples = corpus.pair_with_window(events, list(comments), 5000)
        counts = [len(ex.candidates) for ex in examples]
        return corpus.candidate_stats(counts)["mean_candidates"]

    assert mean_candidates(1500) > mean_candidates(6000)


def test_simulate_corpus_derives_independent_games():
    sim = simulate_corpus(default_world(3), default_profile(4), 3, name_prefix="m")
    assert [g.name for g in sim.games] == ["m1", "m2", "m3"]
    traces = [tuple(mrl.serialize_mr(e.mr) for e in g.events) for g in sim.games]
    assert traces[0] != traces[1] != traces[2]
    again = simulate_corpus(default_world(3), default_profile(4), 3, name_prefix="m")
    assert sim == again


def test_parse_config_defaults():
    spec = parse_config("")
    assert spec == SimulationSpec(default_world(), default_profile())


def test_parse_config_overrides_and_comments():
    spec = parse_config(
        "\n".join(
            [
                "# world",
                "seed = 99",
                "duration_ms = 30000",
                "mean_event_gap_ms = 700",
                "weight.pass = 5  # inline comment",
                "commentator_seed = 7",
                "superfluous_rate = 0.1",
                "lag_ms_min = 100",
                "lag_ms_max = 900",
                "superfluous_words = foo bar baz",
                "comment_prob.kick = 0.5",
                "games = 2",
                "name_prefix = match",
            ]
        )
    )
    assert spec.world.seed == 99
    assert spec.world.duration_ms == 30000
    assert spec.world.mean_event_gap_ms == 700
    assert spec.world.event_type_weights["pass"] == 5.0
    assert spec.profile.seed == 7
    assert spec.profile.superfluous_rate == 0.1
    assert spec.profile.lag_ms_range == (100, 900)
    assert spec.profile.superfluous_vocabulary == ("foo", "bar", "baz")
    assert spec.profile.comment_prob["kick"] == 0.5
    assert (spec.games, spec.name_prefix) == (2, "match")


def test_parse_config_template_lines_replace_then_accumulate():
    spec = parse_config(
        "template.kick = <1> kicks | 2\ntemplate.kick = <1> boots it\n"
    )
    assert spec.profile.lexicon["kick"] == [
        (("<1>", "kicks"), 2.0),
        (("<1>", "boots", "it"), 1.0),
    ]
    spec = parse_config("surface.pink1 = the pink keeper\n")
    assert spec.profile.lexicon["pink1"] == [(("the", "pink", "keeper"), 1.0)]


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("bogus_key = 1\n", "line 1"),
        ("seed = 1\nweight.dribble = 2\n", "line 2"),
        ("comment_prob.dribble = 1\n", "line 1"),
        ("template.kick = <1> kicks | heavy\n", "bad weight"),
        ("surface.pink1 =\n", "empty phrase"),
        ("seed 5\n", "key = value"),
        ("lag_ms_max = 8000\n", "lag_ms_max <= 5000 ms, the pairing window"),
        # values only the WorldConfig or CommentatorProfile check rejects
        ("seed = 1\ncomment_prob.kick = 1.5\n", r"line 2: comment_prob\[kick\] out of"),
        ("lag_ms_min = 3000\ngames = 2\nlag_ms_max = 2500\n",
         r"line 3: lag_ms_range \(3000, 2500\)"),
        ("lag_ms_max = 2500\nlag_ms_min = 3000\ngames = 2\n",
         r"line 2: lag_ms_range \(3000, 2500\)"),
        ("games = 2\nweight.kick = -1\n", "line 2: event weights must be nonnegative"),
        # every weight zeroed: the last weight line
        ("".join(f"weight.{p.name} = 0\n" for p in mrl.PREDICATES) + "games = 2\n",
         f"line {len(mrl.PREDICATES)}: at least one event weight must be positive"),
    ],
)
def test_parse_config_rejects_bad_lines(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        parse_config(text)


def test_load_config_reads_file(tmp_path):
    path = tmp_path / "sim.cfg"
    path.write_text("games = 7\n", encoding="utf-8")
    assert load_config(path).games == 7


def test_world_config_validation():
    with pytest.raises(ValueError):
        _world(duration_ms=0)
    with pytest.raises(ValueError):
        _world(event_type_weights={"kick": -1.0})
    with pytest.raises(ValueError):
        _world(event_type_weights={"kick": 0.0})
    with pytest.raises(ValueError):
        CommentatorProfile({"kick": 1.5}, {}, 0.0, (0, 100), (), 0)
    with pytest.raises(ValueError):
        CommentatorProfile({}, {}, 0.0, (100, 50), (), 0)
    with pytest.raises(ValueError, match=r"\(5500, 8000\) .* lag_ms_max <= 5000 ms"):
        CommentatorProfile({}, {}, 0.0, (5500, 8000), (), 0)
    CommentatorProfile({}, {}, 0.0, (5000, 5000), (), 0)  # the window is inclusive
