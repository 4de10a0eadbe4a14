import hashlib
import json
import re
import shutil

import pytest

from sportscaster import cli, corpus, learner, mrl, strategic, translator
from sportscaster.cli import Table, run


def _snapshot(directory):
    return {
        p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()
    }


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "corpus"
    assert run(["simulate", "--seed", "7", "--games", "2", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def train_dir(corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-train") / "run"
    rc = run([
        "train", "--manifest", str(corpus_dir / "manifest.tsv"),
        "--strategy", "parse_score", "--max-iter", "4", "--out", str(out),
    ])
    assert rc == 0
    return out


def test_simulate_is_byte_identical(corpus_dir, tmp_path):
    first = _snapshot(corpus_dir)
    assert run(["simulate", "--seed", "7", "--games", "2", "--out", str(corpus_dir)]) == 0
    assert _snapshot(corpus_dir) == first
    other = tmp_path / "other-seed"
    assert run(["simulate", "--seed", "8", "--games", "2", "--out", str(other)]) == 0
    assert _snapshot(other)["manifest.tsv"] == first["manifest.tsv"]
    assert _snapshot(other)["game1.events.tsv"] != first["game1.events.tsv"]


def test_simulate_requires_out():
    assert run(["simulate", "--seed", "1"]) == 1


def _echoed(out):
    return dict(
        line.split(" = ", 1) for line in (out / "run_config.txt").read_text().splitlines()
    )


def test_simulate_echoes_the_games_written(tmp_path):
    config = tmp_path / "sim.cfg"
    config.write_text("games = 2\n")
    out = tmp_path / "out"
    assert run(["simulate", "--config", str(config), "--out", str(out)]) == 0
    assert len((out / "manifest.tsv").read_text().splitlines()) == 2
    assert _echoed(out)["games"] == "2"


def test_simulate_echoes_a_seed_only_when_given(corpus_dir, tmp_path):
    assert _echoed(corpus_dir)["seed"] == "7"
    unseeded = tmp_path / "unseeded"
    assert run(["simulate", "--games", "1", "--out", str(unseeded)]) == 0
    assert _echoed(unseeded)["seed"] == ""
    # the spec's own seeds are not `--seed 0`: they write another corpus
    seeded = tmp_path / "seed0"
    assert run(["simulate", "--games", "1", "--seed", "0", "--out", str(seeded)]) == 0
    assert _echoed(seeded)["seed"] == "0"
    assert _snapshot(seeded)["game1.comments.tsv"] != _snapshot(unseeded)["game1.comments.tsv"]


def test_pair_table_and_total_row(corpus_dir, tmp_path):
    out = tmp_path / "pair"
    rc = run(["pair", "--manifest", str(corpus_dir / "manifest.tsv"), "--out", str(out)])
    assert rc == 0
    lines = (out / "pairing.tsv").read_text().splitlines()
    assert lines[0] == ("game\tevents\tcomments\twith_candidates\t"
                        "mean_candidates\tstddev_candidates\tmax_candidates")
    body = [line.split("\t") for line in lines[1:]]
    assert body[-1][0] == "TOTAL"
    per_game = body[:-1]
    assert len(per_game) == 2
    assert sum(int(r[3]) for r in per_game) == int(body[-1][3])
    assert float(body[-1][4]) > 1.0  # ambiguous by construction


def test_pair_json_round_trips(corpus_dir, tmp_path):
    out = tmp_path / "pairj"
    rc = run(["pair", "--manifest", str(corpus_dir / "manifest.tsv"),
              "--json", "--out", str(out)])
    assert rc == 0
    rows = json.loads((out / "pairing.json").read_text())
    assert rows[-1]["game"] == "TOTAL"
    assert {"events", "comments", "mean_candidates"} <= set(rows[0])


def test_pair_writes_to_stdout_without_out(corpus_dir, capsys):
    assert run(["pair", "--manifest", str(corpus_dir / "manifest.tsv")]) == 0
    head = capsys.readouterr().out.splitlines()[0]
    assert head.startswith("game\tevents")


def test_train_artifacts(corpus_dir, train_dir):
    names = {p.name for p in train_dir.iterdir()}
    assert {"run_config.txt", "summary.tsv", "matching.tsv",
            "alignment.tsv", "history.tsv", "model.tsv"} <= names
    summary = dict(
        line.split("\t")
        for line in (train_dir / "summary.tsv").read_text().splitlines()[1:]
    )
    assert summary["strategy"] == "parse_score"
    assert 0.0 <= float(summary["matching_f1"]) <= 1.0
    history = (train_dir / "history.tsv").read_text().splitlines()
    assert history[0] == "iter\tmatching_f1\tchanged"
    assert history[1].split("\t")[0] == "1"
    matching = (train_dir / "matching.tsv").read_text().splitlines()
    assert matching[0] == "game\tcomment_id\tevent_id\tscore"
    loaded = corpus.load_corpus(corpus_dir / "manifest.tsv")
    examples = corpus.pooled_examples(loaded.games)
    assert len(matching) - 1 == len(examples)
    # the saved model loads and parses
    model = translator.load_model(train_dir / "model.tsv")
    assert model.alignment.t.any()


def test_history_tsv_has_one_row_per_iteration_and_dash_without_gold(
    corpus_dir, train_dir, tmp_path
):
    loaded = corpus.load_corpus(corpus_dir / "manifest.tsv")
    examples = corpus.pooled_examples(loaded.games)
    result = learner.retrain_loop(
        examples, learner.ScoringStrategy("parse_score"), 4,
        gold=corpus.pooled_gold(loaded.games),
    )
    assert (train_dir / "history.tsv").read_text() == "iter\tmatching_f1\tchanged\n" + "".join(
        f"{r.iteration}\t{r.matching_f1:.12g}\t{r.changed}\n" for r in result.history
    )
    # the same corpus with every gold file dropped from the manifest
    ungold = tmp_path / "corpus"
    shutil.copytree(corpus_dir, ungold)
    manifest = ungold / "manifest.tsv"
    manifest.write_text("".join(
        "\t".join(line.split("\t")[:3] + ["-"]) + "\n"
        for line in manifest.read_text().splitlines()
    ))
    out = tmp_path / "out"
    assert run(["train", "--manifest", str(manifest), "--max-iter", "4",
                "--out", str(out)]) == 0
    rows = [line.split("\t") for line in (out / "history.tsv").read_text().splitlines()]
    assert rows[1:] == [
        [str(r.iteration), "-", str(r.changed)] for r in result.history
    ]


def test_train_config_file_with_flag_override(corpus_dir, tmp_path):
    config = tmp_path / "train.cfg"
    config.write_text(
        f"manifest = {corpus_dir / 'manifest.tsv'}\n"
        "strategy = random\n"
        "max_iter = 2\n"
    )
    out = tmp_path / "out"
    rc = run(["train", "--config", str(config), "--strategy", "gold",
              "--out", str(out)])
    assert rc == 0
    echoed = _echoed(out)
    assert echoed["strategy"] == "gold"      # flag beat the config file
    assert echoed["max_iter"] == "2"         # config beat the default
    assert echoed["manifest"].endswith("manifest.tsv")


def test_train_rejects_max_iter_below_one(corpus_dir, capsys):
    rc = run(["train", "--manifest", str(corpus_dir / "manifest.tsv"),
              "--max-iter", "0"])
    assert rc == 2
    assert "max_iter" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [["--superfluous-cv"], ["--strategy", "random"], ["--strategy", "gold"]],
)
def test_train_refuses_an_init_alignment_it_would_ignore(
    corpus_dir, train_dir, tmp_path, capsys, flags
):
    out = tmp_path / "out"
    rc = run(["train", "--manifest", str(corpus_dir / "manifest.tsv"),
              "--init-alignment", str(train_dir / "alignment.tsv"),
              "--out", str(out), *flags])
    assert rc == 1
    assert "--init-alignment" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("strategy", ["random", "gold"])
def test_train_refuses_superfluous_cv_with_fixed_picks(corpus_dir, tmp_path, capsys, strategy):
    out = tmp_path / "out"
    rc = run(["train", "--manifest", str(corpus_dir / "manifest.tsv"),
              "--strategy", strategy, "--superfluous-cv", "--out", str(out)])
    assert rc == 1
    assert f"--superfluous-cv has no effect on {strategy}" in capsys.readouterr().err
    assert not out.exists()


def test_superfluous_cv_names_an_empty_training_fold(tmp_path, capsys):
    # Comments 0 and 1 have no event in their window, so the one example is
    # ("game1", 2), which validation_split puts in the validation fold.
    (tmp_path / "manifest.tsv").write_text("game1\tevents.tsv\tcomments.tsv\t-\n")
    (tmp_path / "events.tsv").write_text("50554\tkick ( pink11 )\n")
    (tmp_path / "comments.tsv").write_text(
        "0\ten\tzorp\n0\ten\tblee\n53843\ten\tday an soccer fans day a\n"
    )
    out = tmp_path / "out"
    rc = run(["train", "--manifest", str(tmp_path / "manifest.tsv"),
              "--superfluous-cv", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "training fold is empty (0 training, 1 validation examples)" in err
    assert not out.exists()


@pytest.mark.parametrize("row, field, value, reason", [
    (1, 1, "nope.tsv", "No such file or directory: '{games}/nope.tsv'"),
    (0, 2, "nope.tsv", "No such file or directory: '{games}/nope.tsv'"),
    (1, 3, "nope.tsv", "No such file or directory: '{games}/nope.tsv'"),
    (0, 3, ".", "Is a directory"),
    (1, 0, "", "empty game name"),
    (1, 0, " ", "empty game name"),
    (1, 0, "game1", "duplicate game 'game1' (first at line 1)"),
], ids=["events", "comments", "gold", "unreadable", "blank", "spaces", "duplicate"])
def test_a_bad_manifest_row_names_its_line(
    corpus_dir, tmp_path, capsys, row, field, value, reason
):
    games = tmp_path / "corpus"
    shutil.copytree(corpus_dir, games)
    manifest = games / "manifest.tsv"
    rows = [line.split("\t") for line in manifest.read_text().splitlines()]
    rows[row][field] = value
    manifest.write_text("".join("\t".join(fields) + "\n" for fields in rows))
    assert run(["pair", "--manifest", str(manifest)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {manifest}:{row + 1}: ")
    assert reason.format(games=games) in err


def test_a_game_named_again_after_a_blank_line_names_both_lines(corpus_dir, tmp_path, capsys):
    games = tmp_path / "corpus"
    shutil.copytree(corpus_dir, games)
    manifest = games / "manifest.tsv"
    first = manifest.read_text().splitlines()[0]
    manifest.write_text(f"{first}\n\n{first}\n")
    out = tmp_path / "out"
    assert run(["train", "--manifest", str(manifest), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {manifest}:3: duplicate game 'game1' (first at line 1)\n"
    )
    assert not out.exists()


def test_superfluous_cv_names_an_empty_validation_fold(tmp_path, capsys):
    # Comment 2 has no event in its window, so the examples are ("game1", 0),
    # ("game1", 1) and ("game1", 3), which validation_split all trains on.
    (tmp_path / "manifest.tsv").write_text("game1\tevents.tsv\tcomments.tsv\t-\n")
    (tmp_path / "events.tsv").write_text("1000\tkick ( pink1 )\n")
    (tmp_path / "comments.tsv").write_text(
        "1000\ten\tpink1 kicks\n2000\ten\tpink1 shoots\n0\ten\tzorp\n"
        "3000\ten\tpink1 kicks it\n"
    )
    out = tmp_path / "out"
    rc = run(["train", "--manifest", str(tmp_path / "manifest.tsv"),
              "--superfluous-cv", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "validation fold is empty (3 training, 0 validation examples)" in err
    assert not out.exists()


def test_config_file_rejects_unknown_key(corpus_dir, tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("strategyy = gold\n")
    assert run(["train", "--config", str(config)]) == 2


def test_config_value_outside_choices_names_its_line(corpus_dir, tmp_path, capsys):
    config = tmp_path / "train.cfg"
    config.write_text(f"manifest = {corpus_dir / 'manifest.tsv'}\nstrategy = bogus\n")
    out = tmp_path / "out"
    assert run(["train", "--config", str(config), "--out", str(out)]) == 2
    assert f"{config}:2: invalid strategy 'bogus' (choose from " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, setting, reason",
    [
        ("generate", "topk = 0", "--topk must be at least 1, got 0"),
        ("sportscast", "topk = -3", "--topk must be at least 1, got -3"),
        ("pair", "window_ms = -5", "window_ms must not be negative, got -5"),
        ("train", "window_ms = -1", "window_ms must not be negative, got -1"),
        ("train", "max_iter = 0", "max_iter must be at least 1, got 0"),
        ("igsl", "max_iter = 0", "max_iter must be at least 1, got 0"),
    ],
)
def test_config_value_check_names_its_line(
    corpus_dir, train_dir, tmp_path, capsys, command, setting, reason
):
    config = tmp_path / "run.cfg"
    config.write_text(f"json = false\n{setting}\n")
    inputs = {
        "generate": [str(train_dir / "model.tsv"), str(tmp_path / "mrs.txt")],
        "sportscast": [str(train_dir / "model.tsv"), str(tmp_path / "strategic.tsv")],
    }.get(command, [])
    manifest = [] if command == "generate" else ["--manifest", str(corpus_dir / "manifest.tsv")]
    out = tmp_path / "out"
    argv = [command, *inputs, "--config", str(config), *manifest, "--out", str(out)]
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: {config}:2: {reason}\n"
    assert not out.exists()


def test_config_key_set_twice_names_its_second_line(corpus_dir, tmp_path, capsys):
    config = tmp_path / "train.cfg"
    config.write_text("strategy = nist_igsl\njson = false\nstrategy = parse_score\n")
    out = tmp_path / "out"
    argv = ["train", "--config", str(config), "--manifest", str(corpus_dir / "manifest.tsv"),
            "--out", str(out)]
    assert run(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {config}:3: duplicate key 'strategy' (first at line 1)\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "bad, reason",
    [
        ("junk", "could not convert string to float: 'junk'"),
        ("nan", "score 'nan' is not finite"),
        ("-inf", "score '-inf' is not finite"),
        (None, "duplicate comment {comment} of game 'game1' (first at line 2)"),
    ],
)
def test_malformed_matching_names_file_and_line(
    corpus_dir, train_dir, tmp_path, capsys, bad, reason
):
    lines = (train_dir / "matching.tsv").read_text().splitlines()
    fields = lines[1].split("\t")
    if bad is None:  # a second line for line 2's comment, another event
        lines.insert(2, "\t".join(fields[:2] + ["999", fields[3]]))
        reason = reason.format(comment=fields[1])
    else:
        fields[3] = bad
        lines[2] = "\t".join(fields)
    matching = tmp_path / "matching.tsv"
    matching.write_text("".join(line + "\n" for line in lines))
    assert run(["evaluate", str(train_dir / "model.tsv"),
                "--manifest", str(corpus_dir / "manifest.tsv"),
                "--matching", str(matching)]) == 2
    assert capsys.readouterr().err == f"error: {matching}:3: {reason}\n"


@pytest.mark.parametrize(
    "column, value, reason",
    [
        (0, "game9", "comment {comment} of game 'game9' not in corpus"),
        (1, "999", "comment 999 of game 'game1' not in corpus"),
        (2, "999", "event 999 of game 'game1' not in corpus"),
        (2, "-1", "event -1 of game 'game1' not in corpus"),
    ],
    ids=["unknown-game", "unknown-comment", "unknown-event", "negative-event"],
)
def test_matching_row_the_corpus_lacks_names_its_line(
    corpus_dir, train_dir, tmp_path, capsys, column, value, reason
):
    lines = (train_dir / "matching.tsv").read_text().splitlines()
    fields = lines[2].split("\t")
    assert fields[0] == "game1"
    reason = reason.format(comment=fields[1])
    fields[column] = value
    lines[2] = "\t".join(fields)
    matching = tmp_path / "matching.tsv"
    matching.write_text("".join(line + "\n" for line in lines))
    assert run(["evaluate", str(train_dir / "model.tsv"),
                "--manifest", str(corpus_dir / "manifest.tsv"),
                "--matching", str(matching)]) == 2
    assert capsys.readouterr().err == f"error: {matching}:3: {reason}\n"


def test_matching_without_header_keeps_a_first_row_for_a_game_named_game(tmp_path):
    """Line 1 is skipped only when it is the header `train` writes, so a
    header-less file whose first row is for a game named `game` keeps it."""
    games = [corpus.Game(
        "game",
        (corpus.GameEvent(0, mrl.parse_mr("kick ( pink1 )"), 0),),
        tuple(corpus.make_comment(100 * i, "pink1 kicks", "en", i) for i in (1, 2)),
    )]
    rows = "game\t1\t0\t0.5\ngame\t2\t0\t0.25\n"
    matching = tmp_path / "matching.tsv"
    for text in (rows, "game\tcomment_id\tevent_id\tscore\n" + rows):
        matching.write_text(text)
        assert cli._load_matching(matching, games) == {("game", 1): 0, ("game", 2): 0}


def test_matching_with_another_header_names_line_1(corpus_dir, train_dir, tmp_path, capsys):
    lines = (train_dir / "matching.tsv").read_text().splitlines()
    lines[0] = "game\tcomment\tevent\tscore"
    matching = tmp_path / "matching.tsv"
    matching.write_text("".join(line + "\n" for line in lines))
    assert run(["evaluate", str(train_dir / "model.tsv"),
                "--manifest", str(corpus_dir / "manifest.tsv"),
                "--matching", str(matching)]) == 2
    assert capsys.readouterr().err == (
        f"error: {matching}:1: invalid literal for int() with base 10: 'comment'\n"
    )


def test_alignment_output_reingests(corpus_dir, train_dir, tmp_path):
    out = tmp_path / "seeded"
    rc = run([
        "train", "--manifest", str(corpus_dir / "manifest.tsv"),
        "--init-alignment", str(train_dir / "alignment.tsv"),
        "--max-iter", "2", "--out", str(out),
    ])
    assert rc == 0
    summary = dict(
        line.split("\t")
        for line in (out / "summary.tsv").read_text().splitlines()[1:]
    )
    assert summary["alignment_warnings"] == "0"


@pytest.mark.parametrize("lines, skipped", [
    ("game1\t999\tpass ( purple5 , purple3 )\n", 1),  # no such comment
    ("game1\t999\tkick ( pink1 )\ngame1\t0\tsteal ( purple9 )\n", 2),  # nor such an MR
    ("", 0),
])
def test_init_alignment_without_a_usable_line_names_the_file(
    corpus_dir, tmp_path, capsys, lines, skipped
):
    seeds = tmp_path / "seeds.tsv"
    seeds.write_text(lines)
    out = tmp_path / "out"
    assert run(["train", "--manifest", str(corpus_dir / "manifest.tsv"),
                "--init-alignment", str(seeds), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {seeds}: no line names a corpus comment and one of its candidate MRs "
        f"({skipped} skipped)\n"
    )
    assert not out.exists()


def test_igsl_report(corpus_dir, tmp_path):
    out = tmp_path / "igsl"
    rc = run(["igsl", "--manifest", str(corpus_dir / "manifest.tsv"), "--out", str(out)])
    assert rc == 0
    lines = (out / "igsl.tsv").read_text().splitlines()
    assert lines[0] == "predicate\tevents\tprobability"
    probs = {r.split("\t")[0]: float(r.split("\t")[2]) for r in lines[1:]}
    assert all(0.0 <= p <= 1.0 for p in probs.values())
    assert (out / "strategic.tsv").exists()


def test_igsl_on_a_game_without_events(tmp_path, capsys):
    """No comment has a candidate event and there is no event type to
    estimate: a header-only table and an empty strategic.tsv."""
    (tmp_path / "manifest.tsv").write_text("game1\tevents.tsv\tcomments.tsv\t-\n")
    (tmp_path / "events.tsv").write_text("")
    (tmp_path / "comments.tsv").write_text("1000\ten\tpink1 kicks\n")
    assert run(["igsl", "--manifest", str(tmp_path / "manifest.tsv")]) == 0
    assert capsys.readouterr().out == "predicate\tevents\tprobability\n"
    out = tmp_path / "igsl"
    rc = run(["igsl", "--manifest", str(tmp_path / "manifest.tsv"), "--out", str(out)])
    assert rc == 0
    assert (out / "igsl.tsv").read_text() == "predicate\tevents\tprobability\n"
    assert (out / "strategic.tsv").read_text() == ""
    assert strategic.load_strategic(out / "strategic.tsv") == strategic.StrategicModel({}, {})


@pytest.mark.parametrize("max_iter", ["0", "-1"])
def test_igsl_rejects_max_iter_below_one(corpus_dir, tmp_path, capsys, max_iter):
    out = tmp_path / "igsl"
    rc = run(["igsl", "--manifest", str(corpus_dir / "manifest.tsv"),
              "--max-iter", max_iter, "--out", str(out)])
    assert rc == 2
    assert "max_iter" in capsys.readouterr().err
    assert not out.exists()


def test_parse_and_generate_round_trip(train_dir, tmp_path):
    sentences = tmp_path / "s.txt"
    sentences.write_text("pink1 passes to pink2\nzzz qqq vvv\n")
    out = tmp_path / "parse"
    rc = run(["parse", str(train_dir / "model.tsv"), str(sentences), "--out", str(out)])
    assert rc == 0
    rows = [r.split("\t") for r in (out / "parses.tsv").read_text().splitlines()[1:]]
    assert rows[0][0] == "pink1 passes to pink2"
    assert rows[0][1].startswith("pass (")
    assert rows[1][1] == "NONE"  # unseen vocabulary abstains

    mrs = tmp_path / "m.txt"
    mrs.write_text("pass ( pink1 , pink2 )\n")
    gout = tmp_path / "gen"
    rc = run(["generate", str(train_dir / "model.tsv"), str(mrs),
              "--topk", "2", "--out", str(gout)])
    assert rc == 0
    lines = (gout / "generations.tsv").read_text().splitlines()
    assert lines[0] == "mr\trank\tscore\tsentence"
    assert lines[1].split("\t")[0] == "pass ( pink1 , pink2 )"
    assert lines[1].split("\t")[1] == "1"


def test_generate_reports_missing_template(tmp_path):
    pairs = [(("pink1", "boots", "it"), mrl.parse_mr("kick ( pink1 )"))]
    model = translator.train(pairs)
    model_path = tmp_path / "model.tsv"
    translator.save_model(model, model_path)
    mrs = tmp_path / "m.txt"
    mrs.write_text("steal ( purple4 )\n")
    out = tmp_path / "gen"
    rc = run(["generate", str(model_path), str(mrs), "--out", str(out)])
    assert rc == 0
    lines = (out / "generations.tsv").read_text().splitlines()
    assert lines[1].split("\t")[3] == "NO_TEMPLATE"


@pytest.mark.parametrize("topk", ["0", "-3"])
@pytest.mark.parametrize("mrs_text", ["", "kick ( pink1 )\n", None])  # None: no file
def test_generate_rejects_topk_below_one_before_reading_input(
    train_dir, tmp_path, capsys, mrs_text, topk
):
    mrs = tmp_path / "m.txt"
    if mrs_text is not None:
        mrs.write_text(mrs_text)
    out = tmp_path / "gen"
    rc = run(["generate", str(train_dir / "model.tsv"), str(mrs),
              "--topk", topk, "--out", str(out)])
    assert rc == 2
    assert f"--topk must be at least 1, got {topk}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("inputs", ["valid", "missing"])
def test_sportscast_rejects_topk_below_one_before_reading_input(
    corpus_dir, train_dir, tmp_path, capsys, inputs
):
    model, strat, manifest = (tmp_path / "none" / name for name in (
        "model.tsv", "strategic.tsv", "manifest.tsv"))
    if inputs == "valid":
        model, manifest = train_dir / "model.tsv", corpus_dir / "manifest.tsv"
        strat = tmp_path / "igsl" / "strategic.tsv"
        assert run(["igsl", "--manifest", str(manifest), "--out", str(strat.parent)]) == 0
    out = tmp_path / "cast"
    rc = run(["sportscast", str(model), str(strat), "--manifest", str(manifest),
              "--topk", "0", "--out", str(out)])
    assert rc == 2
    assert "--topk must be at least 1, got 0" in capsys.readouterr().err
    assert not out.exists()


def test_sportscast_transcripts(corpus_dir, train_dir, tmp_path):
    igsl_dir = tmp_path / "igsl"
    assert run(["igsl", "--manifest", str(corpus_dir / "manifest.tsv"),
                "--out", str(igsl_dir)]) == 0
    out = tmp_path / "cast"
    argv = ["sportscast", str(train_dir / "model.tsv"),
            str(igsl_dir / "strategic.tsv"),
            "--manifest", str(corpus_dir / "manifest.tsv"),
            "--seed", "5", "--out", str(out)]
    assert run(argv) == 0
    first = _snapshot(out)
    assert set(first) == {"run_config.txt", "transcript.tsv", "sportscast.tsv"}
    lines = (out / "transcript.tsv").read_text().splitlines()
    assert lines[0] == "game\ttime_ms\tmr\tsentence"
    rows = [line.split("\t") for line in lines[1:]]
    games = [row[0] for row in rows]
    assert games == sorted(games) and set(games) == {"game1", "game2"}
    for game in ("game1", "game2"):
        times = [int(row[1]) for row in rows if row[0] == game]
        assert times == sorted(times)
        assert all(t % 1000 == 0 for t in times)
    summary = [line.split("\t") for line in (out / "sportscast.tsv").read_text().splitlines()]
    assert summary[0] == ["game", "comments", "skipped"]
    assert {game: int(n) for game, n, _ in summary[1:]} == {
        game: games.count(game) for game in ("game1", "game2")
    }
    # same seed, same bytes
    assert run(argv) == 0
    assert _snapshot(out) == first


def test_evaluate_reports(corpus_dir, train_dir, tmp_path):
    out = tmp_path / "eval"
    rc = run(["evaluate", str(train_dir / "model.tsv"),
              "--manifest", str(corpus_dir / "manifest.tsv"),
              "--matching", str(train_dir / "matching.tsv"),
              "--out", str(out)])
    assert rc == 0

    def report(path):
        lines = path.read_text().splitlines()
        assert lines[0] == "key\tvalue"
        return dict(line.split("\t") for line in lines[1:])

    matching = report(out / "report_matching.tsv")
    assert matching["task"] == "matching"
    assert 0.0 <= float(matching["f1"]) <= 1.0
    parsing = report(out / "report_parsing.tsv")
    assert parsing["task"] == "parsing"
    for name in ("argument_permutation", "wrong_arguments", "wrong_predicate",
                 "abstained", "chatter_parsed"):
        assert f"count.{name}" in parsing
    generation = report(out / "report_generation.tsv")
    assert {"bleu", "nist", "count.segments"} <= set(generation)
    jout = tmp_path / "evalj"
    rc = run(["evaluate", str(train_dir / "model.tsv"),
              "--manifest", str(corpus_dir / "manifest.tsv"),
              "--json", "--out", str(jout)])
    assert rc == 0
    assert {p.name for p in jout.iterdir()} == {
        "run_config.txt", "report_parsing.json", "report_generation.json"
    }
    records = json.loads((jout / "report_parsing.json").read_text())
    assert {row["key"]: corpus.fmt(row["value"]) for row in records} == parsing


def test_exit_codes():
    assert run(["frobnicate"]) == 1
    assert run(["pair", "--bogus"]) == 1
    assert run(["pair"]) == 1                      # missing --manifest
    assert run(["pair", "--manifest", "/nonexistent/manifest.tsv"]) == 2
    assert run(["--help"]) == 0


@pytest.mark.parametrize(
    "text, where",
    [
        ("seed = abc\n", "sim.cfg:1:"),
        ("games = 2\nduration_ms = 10x\n", "sim.cfg:2:"),
        ("games = 2\ntemplate.pass = <1> passes\n", "sim.cfg:2:"),      # missing slot
        ("template.kick = <1> kicks <1>\n", "sim.cfg:1:"),             # slot named twice
        ("template.kick = <01> kicks <1>\n", "sim.cfg:1:"),            # <01> is slot 1
        ("template.kick = <2> kicks\n", "sim.cfg:1:"),                 # slot outside 1..arity
        ("games = 2\ngames = -2\n", "sim.cfg:2:"),
        ("seed = 1\x0c\ngames = x\n", "sim.cfg:2:"),                  # \x0c ends no line
        # rejected by the CommentatorProfile check, after every line is read
        ("games = 2\nlag_ms_max = 8000\n", "sim.cfg:2: lag_ms_range (200, 8000)"),
        ("comment_prob.kick = 1.5\n", "sim.cfg:1: comment_prob[kick] out of [0,1]"),
        ("lag_ms_min = 3000\nseed = 2\nlag_ms_max = 2500\n", "sim.cfg:3:"),  # the later line
        # weights a draw cannot sample from: rejected by the WorldConfig and
        # CommentatorProfile checks
        ("weight.kick = nan\n", "sim.cfg:1: event weights must be finite, got nan"),
        ("games = 2\nweight.kick = inf\n", "sim.cfg:2: event weights must be finite, got inf"),
        ("weight.pass = 1e308\nweight.kick = 1e308\ngames = 1\n",
         "sim.cfg:2: event weights must have a finite total"),
        ("template.kick = <1> boots | -1\n", "sim.cfg:1: kick template weights must be nonnegative"),
        ("template.kick = <1> boots | 0\ntemplate.kick = <1> kicks | 0\n",
         "sim.cfg:2: at least one kick template weight must be positive"),
        ("surface.pink1 = pinky | nan\n", "sim.cfg:1: pink1 surface weights must be finite"),
    ],
)
def test_simulate_config_value_names_file_and_line(tmp_path, capsys, text, where):
    config = tmp_path / "sim.cfg"
    config.write_text(text)
    rc = run(["simulate", "--config", str(config), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert where in capsys.readouterr().err


def test_simulate_rejects_a_lag_beyond_the_pairing_window(tmp_path, capsys):
    # A comment lagging its event by more than the window could not be
    # paired with it, and the gold file written would not load back.
    config = tmp_path / "sim.cfg"
    config.write_text("lag_ms_min = 5500\nlag_ms_max = 8000\ngames = 1\nseed = 3\n")
    out = tmp_path / "out"
    assert run(["simulate", "--config", str(config), "--out", str(out)]) == 2
    assert "lag_ms_max <= 5000 ms, the pairing window" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("games", ["0", "-2"])
def test_simulate_rejects_games_below_one(tmp_path, capsys, games):
    out = tmp_path / "out"
    assert run(["simulate", "--games", games, "--out", str(out)]) == 2
    assert "games must be at least 1" in capsys.readouterr().err
    assert not (out / "manifest.tsv").exists()


@pytest.mark.parametrize("manifest", ["valid", "missing"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_negative_window_ms_exits_2_before_reading_the_corpus(
    corpus_dir, tmp_path, capsys, source, manifest
):
    path = corpus_dir / "manifest.tsv" if manifest == "valid" else tmp_path / "none.tsv"
    if source == "flag":
        argv = ["pair", "--manifest", str(path), "--window-ms", "-5"]
    else:
        config = tmp_path / "pair.cfg"
        config.write_text(f"manifest = {path}\nwindow_ms = -5\n")
        argv = ["pair", "--config", str(config)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "window_ms must not be negative" in err
    assert ".tsv" not in err


_READERS = ["parse-input", "generate-input", "model", "strategic", "manifest",
            "events", "comments", "gold", "config", "simulate-config",
            "init-alignment", "matching"]


def _reader_files(corpus_dir, train_dir, tmp_path):
    """Reader name -> (a copy under tmp_path of a file the CLI reads, a
    command line that reads it)."""
    games = tmp_path / "corpus"
    shutil.copytree(corpus_dir, games)
    manifest = games / "manifest.tsv"
    model = shutil.copy(train_dir / "model.tsv", tmp_path / "model.tsv")
    alignment = shutil.copy(train_dir / "alignment.tsv", tmp_path / "alignment.tsv")
    matching = shutil.copy(train_dir / "matching.tsv", tmp_path / "matching.tsv")
    sentences = tmp_path / "sentences.txt"
    sentences.write_text("pink1 kicks\npink2 passes to pink1\n")
    mrs = tmp_path / "mrs.txt"
    mrs.write_text("kick ( pink1 )\nballstopped\n")
    strategic_path = tmp_path / "strategic.tsv"
    strategic_path.write_text("kick\t0.5\t3\npass\t0.25\t4\n")
    config = tmp_path / "pair.cfg"
    config.write_text(f"manifest = {manifest}\nwindow_ms = 5000\n")
    sim_config = tmp_path / "sim.cfg"
    sim_config.write_text("games = 1\nseed = 3\n")
    on_corpus = ["pair", "--manifest", str(manifest)]
    return {
        "parse-input": (sentences, ["parse", str(model), str(sentences)]),
        "generate-input": (mrs, ["generate", str(model), str(mrs)]),
        "model": (model, ["parse", str(model), str(sentences)]),
        "strategic": (strategic_path, ["sportscast", str(model), str(strategic_path),
                                       "--manifest", str(manifest)]),
        "manifest": (manifest, on_corpus),
        "events": (games / "game1.events.tsv", on_corpus),
        "comments": (games / "game1.comments.tsv", on_corpus),
        "gold": (games / "game1.gold.tsv", on_corpus),
        "config": (config, ["pair", "--config", str(config)]),
        "simulate-config": (sim_config, ["simulate", "--config", str(sim_config),
                                         "--out", str(tmp_path / "sim")]),
        "init-alignment": (alignment, ["train", "--manifest", str(manifest),
                                       "--init-alignment", str(alignment)]),
        "matching": (matching, ["evaluate", str(model), "--manifest", str(manifest),
                                "--matching", str(matching)]),
    }


@pytest.mark.parametrize("reader", _READERS)
def test_non_utf8_line_names_file_and_line(corpus_dir, train_dir, tmp_path, capsys, reader):
    """Each file the CLI reads, with a byte that is not UTF-8 at the end of
    its second line: exit 2 and `<file>:2:`."""
    file, argv = _reader_files(corpus_dir, train_dir, tmp_path)[reader]
    lines = file.read_bytes().split(b"\n")
    lines[1] += b"\xff"
    file.write_bytes(b"\n".join(lines))
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert f"{file}:2: byte 0xff is not valid UTF-8" in err


# Reader name -> (the field of line 2 made non-numeric, the reason reported).
_NON_NUMERIC = {
    "model": (2, "could not convert string to float: 'x'"),
    "strategic": (1, "could not convert string to float: 'x'"),
    "events": (0, "bad timestamp 'x'"),
    "comments": (0, "bad timestamp 'x'"),
    "gold": (0, "bad comment id 'x'"),
    "config": (1, "invalid literal for int() with base 10: 'x'"),
    "simulate-config": (1, "invalid literal for int() with base 10: 'x'"),
    "init-alignment": (1, "invalid literal for int() with base 10: 'x'"),
    "matching": (2, "invalid literal for int() with base 10: 'x'"),
}


def test_data_error_names_file_and_line(corpus_dir, train_dir, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("kick ( pink1\n")
    pairs = [(("x",), mrl.parse_mr("ballstopped"))]
    model_path = tmp_path / "m.tsv"
    translator.save_model(translator.train(pairs), model_path)
    assert run(["generate", str(model_path), str(bad)]) == 2
    err = capsys.readouterr().err
    assert "bad.txt:1:" in err
    # One non-numeric field on line 2 of each file whose lines hold numbers.
    for reader, (field, reason) in _NON_NUMERIC.items():
        file, argv = _reader_files(corpus_dir, train_dir, tmp_path / reader)[reader]
        lines = file.read_text().split("\n")
        separator = " = " if reader.endswith("config") else "\t"
        fields = lines[1].split(separator)
        fields[field] = "x"
        lines[1] = separator.join(fields)
        file.write_text("\n".join(lines))
        assert run(argv) == 2, reader
        assert capsys.readouterr().err == f"error: {file}:2: {reason}\n"


def _separator(reader):
    return "=" if reader == "config" else "\t"


# Mutation name -> the lines of a file with its line i mutated, given the
# reader's field separator.
_LINE_MUTATIONS = {
    "drop-separator": lambda lines, i, sep: lines[:i] + [lines[i].replace(sep, "", 1)]
    + lines[i + 1:],
    "empty-field": lambda lines, i, sep: lines[:i] + [
        sep.join(field if n != 1 else "" for n, field in enumerate(lines[i].split(sep)))
        if sep in lines[i] else ""
    ] + lines[i + 1:],
    "repeat-line": lambda lines, i, sep: lines[:i + 1] + lines[i:],
    "non-utf8-byte": lambda lines, i, sep: lines[:i] + [lines[i] + b"\xff".decode("latin-1")]
    + lines[i + 1:],
    "empty-line": lambda lines, i, sep: lines[:i] + [""] + lines[i:],
}
_MUTATED_READERS = ["manifest", "events", "comments", "gold", "model", "strategic",
                    "config", "matching", "init-alignment", "parse-input"]


def test_mutated_reader_lines_exit_0_or_name_file_and_line(
    corpus_dir, train_dir, tmp_path, capsys
):
    """Each mutation of line 2 of each file a reader takes: the command
    exits 0, or exits 2 naming `<file>:<line>:` (the mutated file, or one
    whose lines no longer agree with it); it never raises."""
    unexpected = []
    for reader in _MUTATED_READERS:
        for name, mutate in _LINE_MUTATIONS.items():
            copies = tmp_path / f"{reader}-{name}"
            file, argv = _reader_files(corpus_dir, train_dir, copies)[reader]
            lines = file.read_bytes().decode("latin-1").split("\n")
            mutated = mutate(lines, 1, _separator(reader))
            file.write_bytes("\n".join(mutated).encode("latin-1"))
            status = run(argv)
            err = capsys.readouterr().err
            named = re.match(rf"error: {re.escape(str(copies))}/\S+:\d+: ", err)
            if not (status == 0 or status == 2 and named):
                unexpected.append((reader, name, status, err))
    assert unexpected == []


@pytest.mark.parametrize(
    "line, bad",
    [
        (2, "pink1\tpink1"),                # wrong field count
        (2, "<BOGUS>\tpink1\t0.5"),         # unknown production key
        (2, "pink1\tpink1\thalf"),          # non-numeric probability
        (6, "x\tpink1\tmany"),              # non-numeric LM count
        (1, "pink1\tpink1\t0.5"),           # line outside any section
        (5, "[lmx]"),                       # unknown section, at its header
        (4, "S\tkick\t1\t<2> kicks"),       # slot outside 1..arity
        (4, "S\tkick\t1\t<0> kicks"),       # slot outside 1..arity
        (4, "S\tpass\t1\t<1> to <1>"),      # slot named twice
        (4, "S\tpass\t1\t<1> passes"),      # missing slot
        (4, "X\tkick\t1\t<1> kicks"),       # line kind other than S/C
        (4, "S\tdribble\t1\t<1> dribbles"), # predicate not in the grammar
        (4, "S\tkick\tnan\t<1> kicks"),     # weight not a number in (0, 1]
        (4, "S\tkick\t-5\t<1> boots"),
        (4, "S\tkick\t0\t<1> kicks"),
        (4, "S\tkick\t1.5\t<1> kicks"),
        (4, "S\tkick\tinf\t<1> kicks"),
        (4, "C\tpink1\tnan\tpinky"),        # realization weight
        (4, "C\tpink1\t2\tpinky"),
        (4, "C\tpink99\t1\tpinky"),         # constant not in the grammar
        (4, "C\tkick\t1\tkicks"),
        (2, "pink1\tpink1\tnan"),            # alignment probability
        (2, "pink1\tpink1\t0"),
        (2, "pink1\tpink1\t-0.5"),
        (6, "x\tpink1\t0"),                  # LM count below 1
        (6, "x\tpink1\t-3"),
        (4, "S\tkick\t1\t<1>  kicks"),       # empty word in a template
        (4, "S\tballstopped\t1\t"),
        (4, "C\tpink1\t1\t"),                # empty word in a realization
        (4, "C\tpink1\t1\tpinky "),
        (2, "pink1\t\t1"),                  # empty alignment word
        (6, "x  y\tpink1\t1"),              # empty word in an LM context
        (6, "\tpink1\t1"),
        (6, "x\t\t1"),                      # empty LM word
        (6, "x\tpink1\t1"),                 # LM context of one word
        (6, "a b c\tpink1\t1"),             # LM context of three words
    ],
)
def test_malformed_model_names_file_and_line(tmp_path, capsys, line, bad):
    lines = ["[alignment]", "pink1\tpink1\t1", "[templates]",
             "S\tkick\t1\t<1> kicks", "[lm]", "<s> <s>\tpink1\t1"]
    lines[line - 1] = bad
    model_path = tmp_path / "model.tsv"
    model_path.write_text("".join(entry + "\n" for entry in lines))
    sentences = tmp_path / "s.txt"
    sentences.write_text("pink1 kicks\n")
    assert run(["parse", str(model_path), str(sentences)]) == 2
    assert f"model.tsv:{line}:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, repeated, reason",
    [
        (3, "[alignment]", "duplicate section [alignment] (first at line 1)"),
        (3, "pink1\tpink1\t0.5", "duplicate alignment entry pink1 'pink1' (first at line 2)"),
        (5, "S\tkick\t0.5\t<1> kicks", "duplicate S line for kick '<1> kicks' (first at line 4)"),
        (7, "<s> <s>\tpink1\t2",
         "duplicate LM count for 'pink1' after '<s> <s>' (first at line 6)"),
    ],
)
def test_repeated_model_line_names_both_lines(tmp_path, capsys, line, repeated, reason):
    lines = ["[alignment]", "pink1\tpink1\t1", "[templates]",
             "S\tkick\t1\t<1> kicks", "[lm]", "<s> <s>\tpink1\t1"]
    lines.insert(line - 1, repeated)
    model_path = tmp_path / "model.tsv"
    model_path.write_text("".join(entry + "\n" for entry in lines))
    sentences = tmp_path / "s.txt"
    sentences.write_text("pink1 kicks\n")
    assert run(["parse", str(model_path), str(sentences)]) == 2
    assert capsys.readouterr().err == f"error: {model_path}:{line}: {reason}\n"


@pytest.mark.parametrize(
    "line, bad",
    [
        (2, "kick\t0.5"),                  # wrong field count
        (2, "kick\t0.5\t3\t1"),            # wrong field count
        (2, "kick\thalf\t3"),              # non-numeric probability
        (3, "pass\t0.25\tmany"),           # non-numeric count
        (3, "pass\tnan\t4"),              # probability not a number in [0, 1]
        (2, "kick\tinf\t3"),
        (2, "kick\t7\t3"),
        (2, "kick\t-0.5\t3"),
        (3, "pass\t0.25\t-4"),            # negative count
        (2, "xyz\t0.5\t3"),               # predicate not in the grammar
        (2, "\t0.5\t3"),                  # empty predicate
        (3, "kick\t0.25\t4"),             # predicate on a second line
    ],
)
def test_malformed_strategic_names_file_and_line(
    corpus_dir, tmp_path, capsys, line, bad
):
    lines = ["ballstopped\t0\t5", "kick\t0.5\t3", "pass\t0.25\t4"]
    lines[line - 1] = bad
    strategic_path = tmp_path / "strategic.tsv"
    strategic_path.write_text("".join(entry + "\n" for entry in lines))
    model_path = tmp_path / "model.tsv"
    pairs = [(("pink1", "kicks"), mrl.parse_mr("kick ( pink1 )"))]
    translator.save_model(translator.train(pairs), model_path)
    assert run([
        "sportscast", str(model_path), str(strategic_path),
        "--manifest", str(corpus_dir / "manifest.tsv"),
    ]) == 2
    assert f"strategic.tsv:{line}:" in capsys.readouterr().err


def test_write_report_deterministic(tmp_path):
    table = Table(("name", "value"), (("pi", 3.14159265358979), ("flag", True)))
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    cli.write_report(table, a)
    cli.write_report(table, b)
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert text.endswith("\n")
    assert "3.14159265359" in text      # 12 significant digits
    assert "true" in text
    cli.write_report(table, tmp_path / "a.json")
    parsed = json.loads((tmp_path / "a.json").read_text())
    assert parsed[0]["value"] == pytest.approx(3.14159265358979)
    with pytest.raises(ValueError):
        cli.write_report(table, tmp_path / "x.csv")


# each subcommand's declared arguments, in declaration order
_DECLARED = {
    "simulate": ("config", "out", "seed", "games"),
    "pair": ("config", "out", "manifest", "window_ms", "json"),
    "train": ("config", "out", "manifest", "window_ms", "json", "strategy",
              "max_iter", "seed", "init_alignment", "superfluous_cv"),
    "igsl": ("config", "out", "manifest", "window_ms", "json", "max_iter"),
    "parse": ("config", "out", "model", "input", "json"),
    "generate": ("config", "out", "model", "input", "topk", "json"),
    "sportscast": ("config", "out", "model", "strategic", "manifest",
                   "window_ms", "json", "seed", "topk"),
    "evaluate": ("config", "out", "model", "manifest", "window_ms", "json",
                 "matching"),
}


@pytest.mark.parametrize("command", list(_DECLARED))
def test_run_config_echoes_declared_arguments(
    corpus_dir, train_dir, tmp_path, command
):
    manifest = str(corpus_dir / "manifest.tsv")
    model = str(train_dir / "model.tsv")
    sentences = tmp_path / "s.txt"
    sentences.write_text("pink1 passes to pink2\n")
    mrs = tmp_path / "m.txt"
    mrs.write_text("pass ( pink1 , pink2 )\n")
    strategic_path = tmp_path / "strategic.tsv"
    strategic_path.write_text("pass\t0.5\t4\n")
    argv = {
        "simulate": ["--games", "1"],
        "pair": ["--manifest", manifest],
        "train": ["--manifest", manifest, "--strategy", "gold"],
        "igsl": ["--manifest", manifest],
        "parse": [model, str(sentences)],
        "generate": [model, str(mrs)],
        "sportscast": [model, str(strategic_path), "--manifest", manifest],
        "evaluate": [model, "--manifest", manifest],
    }[command]
    out = tmp_path / "out"
    assert run([command, *argv, "--out", str(out)]) == 0
    assert (out / "run_config.txt").read_text().endswith("\n")
    echoed = _echoed(out)
    assert list(echoed) == ["command", *_DECLARED[command]]
    assert echoed["command"] == command
    assert echoed["out"] == str(out)
    for key, default in {"window_ms": "5000", "json": "false",
                         "superfluous_cv": "false", "topk": "5"}.items():
        assert echoed.get(key, default) == default


def test_run_config_echoes_config_values_and_flag_overrides(corpus_dir, tmp_path):
    config = tmp_path / "pair.cfg"
    config.write_text(
        f"manifest = {corpus_dir / 'manifest.tsv'}\n"
        "window_ms = 6000\n"
        "json = true\n"
    )
    out = tmp_path / "out"
    assert run(["pair", "--config", str(config), "--window-ms", "7000",
                "--out", str(out)]) == 0
    echoed = _echoed(out)
    assert echoed["config"] == str(config)
    assert echoed["json"] == "true"          # the config file beat the default
    assert echoed["window_ms"] == "7000"     # the flag beat the config file
    assert (out / "pairing.json").exists()


def test_json_without_out_goes_to_stdout(corpus_dir, train_dir, tmp_path, capsys):
    manifest = str(corpus_dir / "manifest.tsv")
    model = str(train_dir / "model.tsv")
    assert run(["pair", "--manifest", manifest, "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[-1]["game"] == "TOTAL"
    assert run(["train", "--manifest", manifest, "--strategy", "gold", "--json"]) == 0
    assert {"key": "strategy", "value": "gold"} in json.loads(capsys.readouterr().out)
    sentences = tmp_path / "s.txt"
    sentences.write_text("pink1 passes to pink2\n")
    assert run(["parse", model, str(sentences), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)[0]["mr"].startswith("pass (")
    igsl_dir = tmp_path / "igsl"
    assert run(["igsl", "--manifest", manifest, "--out", str(igsl_dir)]) == 0
    capsys.readouterr()
    assert run(["sportscast", model, str(igsl_dir / "strategic.tsv"),
                "--manifest", manifest, "--json"]) == 0
    transcript, summary = map(json.loads, capsys.readouterr().out.splitlines())
    assert {row["game"] for row in transcript} == {"game1", "game2"}
    assert [row["game"] for row in summary] == ["game1", "game2"]
    assert run(["evaluate", model, "--manifest", manifest, "--json"]) == 0
    reports = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [report[0] for report in reports] == [
        {"key": "task", "value": "parsing"}, {"key": "task", "value": "generation"}
    ]


def test_config_supplies_positionals(train_dir, tmp_path, capsys):
    model = str(train_dir / "model.tsv")
    sentences = tmp_path / "s.txt"
    sentences.write_text("pink1 passes to pink2\nzzz qqq vvv\n")
    assert run(["parse", model, str(sentences)]) == 0
    expected = capsys.readouterr().out
    config = tmp_path / "parse.cfg"
    config.write_text(f"model = {model}\ninput = {sentences}\n")
    assert run(["parse", "--config", str(config)]) == 0
    assert capsys.readouterr().out == expected


def test_positional_missing_from_command_line_and_config(train_dir, tmp_path, capsys):
    config = tmp_path / "parse.cfg"
    config.write_text(f"model = {train_dir / 'model.tsv'}\n")
    assert run(["parse", "--config", str(config)]) == 1
    assert capsys.readouterr().err == (
        "parse: the following arguments are required: input\n"
    )
    assert run(["generate"]) == 1
    assert capsys.readouterr().err == (
        "generate: the following arguments are required: model, input\n"
    )


def test_command_line_positionals_override_config(train_dir, tmp_path, capsys):
    model = str(train_dir / "model.tsv")
    sentences = tmp_path / "s.txt"
    sentences.write_text("pink1 passes to pink2\n")
    assert run(["parse", model, str(sentences)]) == 0
    expected = capsys.readouterr().out
    config = tmp_path / "parse.cfg"
    config.write_text(f"model = {tmp_path / 'missing.tsv'}\ninput = {sentences}\n")
    assert run(["parse", "--config", str(config)]) == 2  # the config's model
    capsys.readouterr()
    out = tmp_path / "out"
    assert run(["parse", model, "--config", str(config), "--out", str(out)]) == 0
    assert _echoed(out)["model"] == model
    assert _echoed(out)["input"] == str(sentences)
    assert run(["parse", model, "--config", str(config)]) == 0
    assert capsys.readouterr().out == expected


# The README quick start, every train strategy, and the two --superfluous-cv
# runs: each file's sha256, by path under the run directory.
QUICK_START_SHA256 = {
    "cast/run_config.txt": "951d3e484b6e0a57889337a2f10e139f1a0d2968e892d4efde75e9b5e355be7a",
    "cast/sportscast.tsv": "8491bc5d241f11afde103373bb9175b8133cca81687727ce06645882ea3ed129",
    "cast/transcript.tsv": "1aafeb93d4d0772e0bcd69aba42567d58bfc0d4cd07803ade75739540ab4ebbf",
    "corpus/game1.comments.tsv": "07e7f27ed529cd8e64ea5d3e958163ccdc9543425c9884141a47f8cfd06d33b4",
    "corpus/game1.events.tsv": "3dfc0331bfceb0a8e3e9711781110a6803dc457a1dcabf9dfe11177986c7c51b",
    "corpus/game1.gold.tsv": "aed4594dea053b74f0c59ecd52aaf7c0e2d5126d39e4beea72e9b4ae5a84eb48",
    "corpus/game2.comments.tsv": "aaf648a613808217c41f0c5d10b4ed56b1cf7f1ac01fce1d2de41982051c31ac",
    "corpus/game2.events.tsv": "0919b6968fffba4648d4137982176749f0b250de2aa51a6bad2f4bc0f1c59871",
    "corpus/game2.gold.tsv": "79c1d45ef48f36da230834987ce677ffcb9124929312bb5c99e9224e2c5d2fd9",
    "corpus/game3.comments.tsv": "1d569c682476cf4e1efd3cf222ee4a8ed75bd51887fec3ce5d06367b08976a6e",
    "corpus/game3.events.tsv": "d3858772f3b2ae1dde61dc4bfd1da1a13ca52a3639be1875121f9de1fc888f74",
    "corpus/game3.gold.tsv": "2a64d6cb271ec8affb430dcb0fbf4f7d92552aaf421cab3edfd4d57f36414e1a",
    "corpus/manifest.tsv": "6a18862e7165f47c7e7e1c2b003e1b4aae347d109d35ca83e9cb1209f425119b",
    "corpus/run_config.txt": "5642830965303240ff7983737c29e61b66ddafc17638d29a680655637eeaaffa",
    "parse/parses.tsv": "4650470fd0d513616d9ef1b91576181f49753cca6f2bdb96a65351d46320d843",
    "parse/run_config.txt": "e0aa05179a3f0250526486e20cb2af01fc26c3ef31d91ec9ee2b45318fed1bec",
    "report/report_generation.tsv": "32d32fa0773670f32f118277b027d7be86c7b73f5f6ff71c5d7c2d893af52d5c",
    "report/report_matching.tsv": "0988b1fed0630723b7a17242a21924ad5b8ba36d768320d089952848564b4b4e",
    "report/report_parsing.tsv": "86ebb2b94f3fe4fd1e87844540d8dec31cf0dffe4d5492a88951ecccfa2714de",
    "report/run_config.txt": "943c90b568655bea70413dfc735fe764a92717fac75b54c9b6f6fef00df29306",
    "train/gold/alignment.tsv": "2e4b548fa3a30968f188c407deb3e69e359e15c3c5897b854cfd834bb81287a4",
    "train/gold/history.tsv": "9e038734ae0eaaf84f78e50cdab8b850e5df47556cbc0cb318047625b81f32bf",
    "train/gold/matching.tsv": "3518b68f1dd1aeccf45013355cfad5e5f22b8ddf3f6c6730b1f4be7a7827d37e",
    "train/gold/model.tsv": "2f0921b0b0c4d5ce2ea6f10e60c8561b8244d3795c975be3266ca1ad33b986f4",
    "train/gold/run_config.txt": "eac98ac381e910fa1e906d24b18029efcbee6f6e8f6facd0dc17f7022d1c8bb0",
    "train/gold/summary.tsv": "21f059c52d8ccbe8a17f303bc7afbbaf3546b26a02b29491f2917d823b23e040",
    "train/meteor_gen/alignment.tsv": "d0c5141ed28db5b3211ed48094e834eeadd13d79f58ab3fa4129ad097b78eab0",
    "train/meteor_gen/history.tsv": "f2eddabe9a42cdf6152d01dd1d2b3b580f2472ebd70a033ef51e031ed558b42c",
    "train/meteor_gen/matching.tsv": "768bb0d3dad1724143223d958fee2197fedaa9dc4dc753134f086afa647384d6",
    "train/meteor_gen/model.tsv": "c4cb790cc7be640b4a4bd48b268ba10e07e2035b440f3d679fb5300b003fd6a1",
    "train/meteor_gen/run_config.txt": "c65cd84f861cd9c8703b1ecb661e156547809ef936e806c531964217b655448c",
    "train/meteor_gen/summary.tsv": "073c8e8ef8543b8cac5316f67c168aaa0eb932c10db67c9443ecdf6f2ffefe17",
    "train/meteor_igsl/alignment.tsv": "356d42b97370f03b6810bba13eb55499a8033579c3a95641fbba7d2f1cd0fc10",
    "train/meteor_igsl/history.tsv": "1bf35b684fa910159bec262a08addb22f382170f8225bf30caaa2543a8daaffb",
    "train/meteor_igsl/matching.tsv": "77ff96ade9907f583e3dabc379e936f26ed360e70a9d69c1678eefb1acf19169",
    "train/meteor_igsl/model.tsv": "b9bd56e0a259665feff39574ef4a339fad5513fa52973ee26035b9e1e57b3e3a",
    "train/meteor_igsl/run_config.txt": "b164a0485674da71c1d227ff7df847a798aeb80b168151d50e6e7a9d3210d5b6",
    "train/meteor_igsl/strategic.tsv": "aae715687653322b0c5d466cbf841cb2d97b862b1347a68283b5436eb94024c0",
    "train/meteor_igsl/summary.tsv": "90c2d8386e8079faec5bafb7a3bd92cae1ee052a2236950daade5303296444cd",
    "train/nist_gen/alignment.tsv": "f1520d78cc2c178f70c14e407482c59d839a04ea355c7c03556464ffcdb1804d",
    "train/nist_gen/history.tsv": "81b38d61942e918d394b193f550d20c60c1d329a30ac73a6c073bde87b514bc2",
    "train/nist_gen/matching.tsv": "06e970965050f7a3577d8702b303dda71ad0e1f8028a333a33fdb09440fb1d02",
    "train/nist_gen/model.tsv": "83284b7b5a9f8602b4a26b9b19fba38e6f638d621cfa41284865b4127d1f5cc8",
    "train/nist_gen/run_config.txt": "f1636561a0ba57cc8c9f8950fef9735d91cee7aa997c109483f0cd9dc73f0573",
    "train/nist_gen/summary.tsv": "cb1533af2a48098883b597be471a394d777c74c579e7233f5c1ef692492fd81e",
    "train/nist_igsl-cv/alignment.tsv": "bd789ba6a31c041d2353a6ee98b1ae8c24878daea6daf1067f03639753f44203",
    "train/nist_igsl-cv/history.tsv": "3131fcee6b8019a1f74bc602698adb13ef0c0b48e6f5c800e5f2a5894737163d",
    "train/nist_igsl-cv/matching.tsv": "525f886753dada85e3e82817aecdc994c47df4b4d4b4776b2da70e2f7bcf2664",
    "train/nist_igsl-cv/model.tsv": "49d5c4bf58e6b33fe40a0187cbf286d09890a6786b7007907326275f2643301d",
    "train/nist_igsl-cv/run_config.txt": "af45184c720b881edbd749ce1aff56b98ba6b58945f59bbe5a6bca53cbde9468",
    "train/nist_igsl-cv/strategic.tsv": "aae715687653322b0c5d466cbf841cb2d97b862b1347a68283b5436eb94024c0",
    "train/nist_igsl-cv/summary.tsv": "68680800a439a0b63fdf96e82f07707d3e653b48577d58908c8677b26022c893",
    "train/nist_igsl/alignment.tsv": "356d42b97370f03b6810bba13eb55499a8033579c3a95641fbba7d2f1cd0fc10",
    "train/nist_igsl/history.tsv": "1bf35b684fa910159bec262a08addb22f382170f8225bf30caaa2543a8daaffb",
    "train/nist_igsl/matching.tsv": "7a9404af88559138e57ec1b67fda474a5333bb29a7c89601125a46a07a71fecb",
    "train/nist_igsl/model.tsv": "b9bd56e0a259665feff39574ef4a339fad5513fa52973ee26035b9e1e57b3e3a",
    "train/nist_igsl/run_config.txt": "2670aebff1ea568b79399ee92a7866c49f0444ed42ba90a4f0e1e7326a6d3c2e",
    "train/nist_igsl/strategic.tsv": "aae715687653322b0c5d466cbf841cb2d97b862b1347a68283b5436eb94024c0",
    "train/nist_igsl/summary.tsv": "7eb5b84c331606fa95c3c823c2dbd77a35f2ad2ed4d97dd5eff33f045eb565cc",
    "train/parse_score-cv/alignment.tsv": "19b2ee46f62cd7caaced83cce98a5d2c2d551ca8a64cf2dc55b22bf8aecb3c7f",
    "train/parse_score-cv/history.tsv": "67c37a06e61fa2f1cc4b22cac37419556b3f563173c76ac9fadfd7bb15af1313",
    "train/parse_score-cv/matching.tsv": "8e83d423c51255abb25c59cb95e521dcc53912b68abdbcae3ac60f3d9998c944",
    "train/parse_score-cv/model.tsv": "199a5153f8ddd8272d316cfdb12deb358a7f56de3792e7f4aef27aaa960e0af6",
    "train/parse_score-cv/run_config.txt": "ad9a3f0bbd5963d644fba87c5e1c86eb4a978f10ed67a3ce6bc7d323ee471bff",
    "train/parse_score-cv/summary.tsv": "cbde801db6da01345869881cc317c0e64a07b36389d46a436c27381c4b97b9de",
    "train/parse_score/alignment.tsv": "c8e72219b197cd98158e6672c85240812243799d55663f9bf2c48c7529b90bf4",
    "train/parse_score/history.tsv": "9519dd64454b1c15abf7b04455eee033e1292a3491a6eee3928b478c1f20f66d",
    "train/parse_score/matching.tsv": "618232c97c4e4a783fcee47e3fc8a60b25dc1018e2366a08b590db3f8dac4de5",
    "train/parse_score/model.tsv": "31cddd4d68de399d8fe82998b72d1c694116a59b2869837d3dc72a603ed71574",
    "train/parse_score/run_config.txt": "8b367336c458ad4f48619b75629feb18d780edc8b3e0219ddf444acb64b4a7a6",
    "train/parse_score/summary.tsv": "fffe1f1ffc9748cd1758ac83ad18b3aaa0c2234fa2c30b3ae53faeade6a72b43",
    "train/random/alignment.tsv": "6580b333e2db1c0f19c3fa2c0fb3b33309b5806d5d8a57f9ec88d58934fcc6a9",
    "train/random/history.tsv": "bfca5142630d47bc3f0ea7e367b9d17cb308272abff02e7467ec33481ac16e92",
    "train/random/matching.tsv": "9b1aa85a18482315303f22c8863a1da7a5753f1e0d3937bb3aa947c27facc2c3",
    "train/random/model.tsv": "0f94df1fe175afc01124e8efdf3c421ea549e01f5ab9cf07e8f128915b3a2904",
    "train/random/run_config.txt": "65c1bc01eb7f72fd49315455969d38fe41ee5f94e59a94e52932c922935e74b0",
    "train/random/summary.tsv": "ba4633e5290f66ea7f732cef3e6bbcdba41f7ed47e8d2543f72572b7a4448696",
}


def _run_quick_start(root):
    """Run the quick-start pipeline in root, through cli.run, with paths
    relative to root as run_config.txt echoes them; each written file's
    sha256 by its path."""
    manifest = "corpus/manifest.tsv"
    commands = [["simulate", "--seed", "5", "--games", "3", "--out", "corpus"]]
    for strategy in learner.STRATEGY_KINDS:
        commands.append(["train", "--manifest", manifest, "--strategy", strategy,
                         "--out", f"train/{strategy}"])
    for strategy in ("parse_score", "nist_igsl"):
        commands.append(["train", "--manifest", manifest, "--strategy", strategy,
                         "--superfluous-cv", "--out", f"train/{strategy}-cv"])
    model = "train/nist_igsl"
    commands += [
        ["sportscast", f"{model}/model.tsv", f"{model}/strategic.tsv",
         "--manifest", manifest, "--seed", "9", "--out", "cast"],
        ["evaluate", f"{model}/model.tsv", "--manifest", manifest,
         "--matching", f"{model}/matching.tsv", "--out", "report"],
        ["parse", f"{model}/model.tsv", "sentences.txt", "--out", "parse"],
    ]
    (root / "sentences.txt").write_text(
        "purple5 passes to purple3\npink1 kicks the ball\nzorp blee\n"
    )
    for command in commands:
        assert run(command) == 0, command
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*")) if path.is_file() and path.name != "sentences.txt"
    }


def test_quick_start_pipeline_writes_frozen_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _run_quick_start(tmp_path) == QUICK_START_SHA256
