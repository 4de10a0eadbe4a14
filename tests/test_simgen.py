import hashlib
import math
import re
import zlib
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sportscaster import cli, corpus, learner, mrl, simgen
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


class _ReferencePrng:
    """splitmix64 one draw at a time, as Prng drew it before it filled
    blocks: every Prng draw and state is pinned against this."""

    _MASK = (1 << 64) - 1

    def __init__(self, seed):
        self.state = seed & self._MASK

    def next(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & self._MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def uniform(self):
        return self.next() / 2**64

    def uniform_int(self, lo, hi):
        return lo + int(self.uniform() * (hi - lo + 1))

    def weighted_index(self, weights):
        return _reference_weighted_index(self, weights)


# One call of a draw sequence: the method and its arguments.
_calls = st.one_of(
    st.just(("uniform",)),
    st.just(("next",)),
    st.tuples(st.just("uniform_int"), st.integers(-5, 5), st.integers(0, 40)).map(
        lambda c: (c[0], c[1], c[1] + c[2])
    ),
    st.tuples(st.just("weighted_index"), _weights),
)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(st.integers(0, 2**64 - 1), st.sampled_from([0, 2**64 - 1, 0x9E3779B97F4A7C15])),
    # runs of one call, up to about 1,500 draws, so that blocks fill and refill
    st.lists(st.tuples(_calls, st.integers(1, 300)), max_size=5),
)
def test_prng_draws_and_states_match_reference(seed, runs):
    prng, reference = Prng(seed), _ReferencePrng(seed)
    assert prng.state == reference.state
    for (method, *args), repeat in runs:
        for _ in range(repeat):
            assert getattr(prng, method)(*args) == getattr(reference, method)(*args)
            assert prng.state == reference.state


def test_prng_uniform_matches_reference_over_long_streams():
    for seed in (0, 1, 5, 12345, 2**64 - 1, 0x9E3779B97F4A7C15):
        prng, reference = Prng(seed), _ReferencePrng(seed)
        assert [prng.uniform() for _ in range(100_000)] == [
            reference.uniform() for _ in range(100_000)
        ]
        assert prng.state == reference.state


def test_derive_seed_and_validation_split_draw_without_numpy(monkeypatch):
    # both draw once from each fresh stream: a numpy block there would cost
    # more than the draw
    examples = corpus.pooled_examples(simulate_corpus(default_world(), default_profile(), 1).games)
    expected = [
        _ReferencePrng((zlib.crc32(b"game1") << 32) ^ ex.example.comment.id).uniform()
        < learner.VALIDATION_FRACTION
        for ex in examples
    ]
    monkeypatch.setattr(simgen, "np", None)
    assert derive_seed(3, 1, 0) == _ReferencePrng((3 + 0x9E3779B97F4A7C15) & (2**64 - 1)).next()
    train, validation = learner.validation_split(examples)
    assert validation == [ex for ex, held in zip(examples, expected) if held]
    assert train == [ex for ex, held in zip(examples, expected) if not held]
    with pytest.raises(AttributeError):
        Prng(77).uniform()  # uniform() reads numpy blocks


# sha256 of each file `simulate --seed 5 --games 3 --out corpus` writes.
SIMULATE_SEED5_SHA256 = {
    "game1.comments.tsv": "07e7f27ed529cd8e64ea5d3e958163ccdc9543425c9884141a47f8cfd06d33b4",
    "game1.events.tsv": "3dfc0331bfceb0a8e3e9711781110a6803dc457a1dcabf9dfe11177986c7c51b",
    "game1.gold.tsv": "aed4594dea053b74f0c59ecd52aaf7c0e2d5126d39e4beea72e9b4ae5a84eb48",
    "game2.comments.tsv": "aaf648a613808217c41f0c5d10b4ed56b1cf7f1ac01fce1d2de41982051c31ac",
    "game2.events.tsv": "0919b6968fffba4648d4137982176749f0b250de2aa51a6bad2f4bc0f1c59871",
    "game2.gold.tsv": "79c1d45ef48f36da230834987ce677ffcb9124929312bb5c99e9224e2c5d2fd9",
    "game3.comments.tsv": "1d569c682476cf4e1efd3cf222ee4a8ed75bd51887fec3ce5d06367b08976a6e",
    "game3.events.tsv": "d3858772f3b2ae1dde61dc4bfd1da1a13ca52a3639be1875121f9de1fc888f74",
    "game3.gold.tsv": "2a64d6cb271ec8affb430dcb0fbf4f7d92552aaf421cab3edfd4d57f36414e1a",
    "manifest.tsv": "6a18862e7165f47c7e7e1c2b003e1b4aae347d109d35ca83e9cb1209f425119b",
    "run_config.txt": "5642830965303240ff7983737c29e61b66ddafc17638d29a680655637eeaaffa",
}


def test_simulate_writes_frozen_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # run_config.txt echoes --out
    assert cli.run(["simulate", "--seed", "5", "--games", "3", "--out", "corpus"]) == 0
    written = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted((tmp_path / "corpus").iterdir())
    }
    assert written == SIMULATE_SEED5_SHA256


@pytest.mark.parametrize(
    "family, digest",
    [
        (0, "43136add1c3fcb0c157682315b740c35166fac76a3583bbb8e1c93cc7b6f1e56"),
        (7, "d396feb3289b19a20d1dcf3e7abf8549024c601810e4e135c63eca3f388d9cac"),
    ],
)
def test_benchmark_corpora_are_frozen(family, digest):
    """The disambiguation benchmark's corpus: family f is world seed f and
    commentator seed 1000 + f, 8 games, one chatter comment per nine."""
    world = replace(default_world(), seed=family)
    profile = replace(default_profile(), seed=1000 + family, superfluous_rate=1 / 9)
    h = hashlib.sha256()
    for game in simulate_corpus(world, profile, 8).games:
        h.update(f"game\t{game.name}\n".encode())
        for e in game.events:
            h.update(f"e\t{e.time_ms}\t{mrl.serialize_mr(e.mr)}\t{e.id}\n".encode())
        for c in game.comments:
            h.update(f"c\t{c.time_ms}\t{c.raw}\t{c.id}\n".encode())
        for comment_id, event_id in sorted(game.gold.matches.items()):
            h.update(f"g\t{comment_id}\t{event_id}\n".encode())
    assert h.hexdigest() == digest


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


def _config_file(tmp_path, text):
    path = tmp_path / "sim.cfg"
    path.write_text(text, encoding="utf-8")
    return path


def test_parse_config_defaults(tmp_path):
    spec = load_config(_config_file(tmp_path, ""))
    assert spec == SimulationSpec(default_world(), default_profile())


def test_parse_config_overrides_and_comments(tmp_path):
    lines = [
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
    spec = load_config(_config_file(tmp_path, "\n".join(lines)))
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


def test_parse_config_template_lines_replace_then_accumulate(tmp_path):
    spec = load_config(_config_file(
        tmp_path, "template.kick = <1> kicks | 2\ntemplate.kick = <1> boots it\n"
    ))
    assert spec.profile.lexicon["kick"] == [
        (("<1>", "kicks"), 2.0),
        (("<1>", "boots", "it"), 1.0),
    ]
    spec = load_config(_config_file(tmp_path, "surface.pink1 = the pink keeper\n"))
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
def test_parse_config_rejects_bad_lines(tmp_path, text, fragment):
    """The error names the file and line: a fragment's `line N` reads
    `<file>:N` there, and a fragment without a line is on line 1."""
    path = _config_file(tmp_path, text)
    if not fragment.startswith("line "):
        fragment = f"line 1: .*{fragment}"
    with pytest.raises(corpus.FormatError, match=re.escape(f"{path}:") + fragment[5:]):
        load_config(path)


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
