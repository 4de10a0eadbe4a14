import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sportscaster import mrl, simgen
from sportscaster.corpus import (
    AmbiguousExample,
    Comment,
    DanglingGoldReference,
    FormatError,
    Game,
    GameEvent,
    GoldMatch,
    candidate_stats,
    event_window,
    load_corpus,
    make_comment,
    ordered_sum,
    pair_with_window,
    pooled_examples,
    pooled_gold,
    read_lines,
    read_text,
    resolve_gold_event,
    tokenize,
    write_corpus,
)

BALL = mrl.parse_mr("ballstopped")


def _event(t, i, surface="ballstopped"):
    return GameEvent(t, mrl.parse_mr(surface), i)


def _comment(t, i, text="the ball has stopped"):
    return make_comment(t, text, "en", i)


def test_tokenize_folds_case_for_english_only():
    assert tokenize("Purple1 PASSES to Pink2", "en") == ("purple1", "passes", "to", "pink2")
    assert tokenize("Purple1 PASSES", "ko") == ("Purple1", "PASSES")


def test_make_comment_canonicalizes_whitespace():
    c = make_comment(10, "  a\t b \n c ", "en", 0)
    assert c.raw == "a b c"
    assert c.tokens == ("a", "b", "c")
    with pytest.raises(ValueError):
        make_comment(10, "   ", "en", 0)


def test_window_boundaries_are_inclusive():
    events = [_event(10000, 0)]
    for comment_time, included in ((14000, True), (15000, True), (15001, False),
                                   (10000, True), (9999, False)):
        got = pair_with_window(events, [_comment(comment_time, 0)], 5000)
        assert bool(got) == included, comment_time


def test_pairing_matches_brute_force_on_ten_events():
    events = [_event(t * 1300, i) for i, t in enumerate(range(10))]
    comments = [_comment(2500 + 1700 * i, i) for i in range(5)]
    window = 5000
    got = {ex.comment.id: [c.id for c in ex.candidates]
           for ex in pair_with_window(events, comments, window)}
    for comment in comments:
        expected = [e.id for e in events
                    if 0 <= comment.time_ms - e.time_ms <= window]
        assert got.get(comment.id, []) == expected


def test_candidates_are_time_ordered_and_zero_candidate_comments_dropped():
    events = [_event(8000, 0), _event(6000, 1), _event(7000, 2)]
    comments = [_comment(9000, 0), _comment(30000, 1)]
    examples = pair_with_window(events, comments, 5000)
    assert len(examples) == 1
    assert [c.id for c in examples[0].candidates] == [1, 2, 0]
    stats = candidate_stats([len(ex.candidates) for ex in examples])
    assert len(comments) == 2
    assert stats["with_candidates"] == 1
    assert stats["max_candidates"] == 3
    assert stats["mean_candidates"] == 3.0


def _reference_candidate_stats(counts):
    """candidate_stats with builtin sum over the squared deviations."""
    n = len(counts)
    mean = sum(counts) / n if n else 0.0
    var = sum((c - mean) ** 2 for c in counts) / n if n else 0.0
    return {
        "with_candidates": n,
        "max_candidates": max(counts, default=0),
        "mean_candidates": mean,
        "stddev_candidates": var**0.5,
    }


@settings(max_examples=300)
@given(st.lists(st.integers(0, 10**6), max_size=60))
def test_candidate_stats_matches_reference(counts):
    assert candidate_stats(counts) == _reference_candidate_stats(counts)


def test_ordered_sum_adds_left_to_right():
    # from Python 3.12 builtin sum compensates its rounding and gives 1.0
    assert ordered_sum([1e16, 1.0, -1e16]) == 0.0
    assert ordered_sum([]) == 0.0
    assert ordered_sum(iter([1, 2])) == 3.0


@settings(max_examples=300)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False)))
def test_ordered_sum_matches_a_loop(values):
    total = 0.0
    for value in values:
        total += value
    assert ordered_sum(values) == total


_times = st.lists(st.integers(0, 60_000), min_size=1, max_size=25)


@settings(max_examples=60, deadline=None)
@given(event_times=_times, comment_times=_times, window=st.integers(1, 12_000))
def test_window_property_bounds_and_monotonicity(event_times, comment_times, window):
    events = [_event(t, i) for i, t in enumerate(sorted(event_times))]
    comments = [_comment(t, i) for i, t in enumerate(comment_times)]
    narrow = pair_with_window(events, comments, window)
    for ex in narrow:
        for cand in ex.candidates:
            assert 0 <= ex.comment.time_ms - cand.time_ms <= window
    wide = {ex.comment.id: ex for ex in pair_with_window(events, comments, window * 2)}
    for ex in narrow:
        wider = wide[ex.comment.id]
        assert set(c.id for c in ex.candidates) <= set(c.id for c in wider.candidates)


def test_resolve_gold_prefers_earliest_duplicate():
    events = [
        _event(1000, 0, "kick ( pink1 )"),
        _event(2000, 1, "kick ( pink1 )"),
        _event(3000, 2, "kick ( pink2 )"),
    ]
    window = event_window(events, 5000)
    got = resolve_gold_event(window, 4000, mrl.parse_mr("kick ( pink1 )"))
    assert got.id == 0
    assert resolve_gold_event(window, 4000, mrl.parse_mr("steal ( pink1 )")) is None
    assert resolve_gold_event(window, 20000, mrl.parse_mr("kick ( pink1 )")) is None


def _reference_pair_with_window(events, comments, window_ms):
    """Pairing as a scan of every event for each comment."""
    ordered = sorted(events, key=lambda e: (e.time_ms, e.id))
    out = []
    for comment in comments:
        lo = comment.time_ms - window_ms
        cands = tuple(e for e in ordered if lo <= e.time_ms <= comment.time_ms)
        if cands:
            out.append(AmbiguousExample(comment, cands))
    return out


def _reference_resolve_gold_event(events, comment_time_ms, mr, window_ms):
    """Gold resolution as a scan of the sorted events."""
    lo = comment_time_ms - window_ms
    for e in sorted(events, key=lambda e: (e.time_ms, e.id)):
        if lo <= e.time_ms <= comment_time_ms and e.mr == mr:
            return e
    return None


_SURFACES = ("ballstopped", "kick ( pink1 )", "kick ( pink2 )")


@st.composite
def _unsorted_events(draw):
    """Events in no time order, with repeated times and MRs, and ids that
    are not their positions."""
    drawn = draw(st.lists(st.tuples(st.integers(0, 20), st.sampled_from(_SURFACES)),
                          max_size=30))
    ids = draw(st.permutations(range(len(drawn))))
    return [_event(100 * t, i, surface) for i, (t, surface) in zip(ids, drawn)]


@settings(max_examples=100, deadline=None)
@given(events=_unsorted_events(), comment_times=st.lists(st.integers(0, 25), max_size=15),
       window=st.integers(0, 3000))
def test_window_matches_reference_scans(events, comment_times, window):
    comments = [_comment(100 * t, i) for i, t in enumerate(comment_times)]
    assert pair_with_window(events, comments, window) == _reference_pair_with_window(
        events, comments, window
    )
    window_of = event_window(events, window)
    for comment in comments:
        for surface in _SURFACES:
            mr = mrl.parse_mr(surface)
            assert resolve_gold_event(window_of, comment.time_ms, mr) == (
                _reference_resolve_gold_event(events, comment.time_ms, mr, window)
            )


def test_pooled_examples_and_gold_use_composite_keys():
    g1 = Game("alpha", (_event(1000, 0),), (_comment(1500, 0),), GoldMatch({0: 0}))
    g2 = Game("beta", (_event(1000, 0),), (_comment(1500, 0),), GoldMatch({0: None}))
    examples = pooled_examples([g1, g2])
    assert [ex.key for ex in examples] == [("alpha", 0), ("beta", 0)]
    assert pooled_gold([g1, g2]) == {("alpha", 0): 0, ("beta", 0): None}


def _write_game(tmp_path, events_text, comments_text, gold_text=None):
    (tmp_path / "g.events.tsv").write_text(events_text, encoding="utf-8")
    (tmp_path / "g.comments.tsv").write_text(comments_text, encoding="utf-8")
    gold_field = "-"
    if gold_text is not None:
        (tmp_path / "g.gold.tsv").write_text(gold_text, encoding="utf-8")
        gold_field = "g.gold.tsv"
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text(
        f"g\tg.events.tsv\tg.comments.tsv\t{gold_field}\n", encoding="utf-8"
    )
    return manifest


def test_load_corpus_happy_path(tmp_path):
    plain = (
        "10000\tpass ( pink1 , pink2 )\n12000\tballstopped\n",
        "11000\ten\tPink1 passes to Pink2\n12500\ten\twhat a day\n",
    )
    # whitespace-only lines are skipped; ids count records, not lines
    blanks = (
        "\n10000\tpass ( pink1 , pink2 )\n \t\n\n12000\tballstopped\n\n",
        "11000\ten\tPink1 passes to Pink2\n\n  \n12500\ten\twhat a day\n\n",
    )
    games = []
    for events_text, comments_text in (plain, blanks):
        manifest = _write_game(
            tmp_path,
            events_text,
            comments_text,
            "0\tpass ( pink1 , pink2 )\n1\tNONE\n",
        )
        games.append(load_corpus(manifest).games[0])
    assert games[1] == games[0]
    game = games[0]
    assert game.name == "g"
    assert [e.id for e in game.events] == [0, 1]
    assert [c.id for c in game.comments] == [0, 1]
    assert [e.time_ms for e in game.events] == [10000, 12000]
    assert mrl.serialize_mr(game.events[0].mr) == "pass ( pink1 , pink2 )"
    assert game.comments[0].tokens == ("pink1", "passes", "to", "pink2")
    assert game.gold.matches.get(0) == 0
    assert game.gold.matches.get(1) is None


def test_load_errors_name_file_and_line(tmp_path):
    manifest = _write_game(tmp_path, "10000\n", "11000\ten\thi\n")
    with pytest.raises(FormatError) as err:
        load_corpus(manifest)
    assert err.value.line == 1 and "g.events.tsv" in err.value.file

    manifest = _write_game(tmp_path, "10000\tkick ( nobody )\n", "11000\ten\thi\n")
    with pytest.raises(FormatError):
        load_corpus(manifest)

    manifest = _write_game(
        tmp_path, "5000\tballstopped\n1000\tballstopped\n", "11000\ten\thi\n"
    )
    with pytest.raises(FormatError) as err:
        load_corpus(manifest)
    assert err.value.line == 2  # decreasing timestamps

    manifest = _write_game(
        tmp_path, "5000\tballstopped\n\n1000\tballstopped\n", "11000\ten\thi\n"
    )
    with pytest.raises(FormatError) as err:
        load_corpus(manifest)
    assert err.value.line == 3  # physical line, blank line included

    (tmp_path / "manifest.tsv").write_text("g\tonly-two-fields\n", encoding="utf-8")
    with pytest.raises(FormatError):
        load_corpus(tmp_path / "manifest.tsv")


def test_read_lines_splits_on_universal_newlines_only(tmp_path):
    path = tmp_path / "lines.txt"
    # \x0c and \u2028 end a line for str.splitlines, not for a file
    path.write_bytes("a\r\nb\rc\n\n d\x0ce\u2028f\n".encode("utf-8"))
    assert read_lines(path) == [(1, "a"), (2, "b"), (3, "c"), (5, " d\x0ce\u2028f")]
    with open(path, encoding="utf-8") as f:
        assert read_text(path) == f.read()


@pytest.mark.parametrize(
    "data, line",
    [(b"\xff", 1), (b"a\nb\xfe\n", 2), (b"a\r\nb\rc\n\nd\xc3", 5),
     (b"a\r\xe9", 2)],
)
def test_read_text_names_the_line_of_the_first_bad_byte(tmp_path, data, line):
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    with pytest.raises(FormatError) as err:
        read_text(path)
    assert err.value.line == line and err.value.file == str(path)


def test_gold_references_must_resolve(tmp_path):
    manifest = _write_game(
        tmp_path, "10000\tballstopped\n", "11000\ten\thi\n", "7\tNONE\n"
    )
    with pytest.raises(DanglingGoldReference):
        load_corpus(manifest)
    manifest = _write_game(
        tmp_path, "10000\tballstopped\n", "11000\ten\thi\n", "0\tkick ( pink1 )\n"
    )
    with pytest.raises(DanglingGoldReference):
        load_corpus(manifest)


def test_gold_resolution_is_window_sensitive(tmp_path):
    # the gold event sits 6 s before the comment: fine at 7000 ms, dangling at 5000
    manifest = _write_game(
        tmp_path, "4000\tkick ( pink1 )\n", "10000\ten\tboot\n", "0\tkick ( pink1 )\n"
    )
    loaded = load_corpus(manifest, window_ms=7000)
    assert loaded.games[0].gold.matches.get(0) == 0
    with pytest.raises(DanglingGoldReference):
        load_corpus(manifest, window_ms=5000)


def test_write_then_load_round_trips_data_model(tmp_path):
    sim = simgen.simulate_corpus(simgen.default_world(3), simgen.default_profile(4), 2)
    manifest = write_corpus(sim, tmp_path / "c")
    loaded = load_corpus(manifest)
    assert loaded == sim


def test_write_load_write_is_byte_identical(tmp_path):
    sim = simgen.simulate_corpus(simgen.default_world(5), simgen.default_profile(6), 2)
    first_dir, second_dir = tmp_path / "a", tmp_path / "b"
    manifest = write_corpus(sim, first_dir)
    write_corpus(load_corpus(manifest), second_dir)
    first = {p.name: p.read_bytes() for p in sorted(first_dir.iterdir())}
    second = {p.name: p.read_bytes() for p in sorted(second_dir.iterdir())}
    assert first == second


def test_ambiguous_example_shape():
    ex = AmbiguousExample(_comment(5000, 0), (_event(1000, 0), _event(2000, 1)))
    assert ex.comment.id == 0
    assert len(ex.candidates) == 2
    assert isinstance(ex.candidates[0], GameEvent)
    assert isinstance(ex.comment, Comment)
