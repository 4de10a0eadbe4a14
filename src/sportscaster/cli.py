"""One binary, eight subcommands: the full pipeline from simulated games to
evaluated commentary.

    simulate    write a synthetic annotated corpus
    pair        ambiguity statistics of the event/comment pairing
    train       disambiguate and train a translation model
    igsl        estimate per-event-type commentary probabilities
    parse       batch sentence -> MR
    generate    batch MR -> sentence
    sportscast  produce a timed transcript for each game
    evaluate    matching / parsing / generation reports against gold

Exit status: 0 success, 1 usage error, 2 data error.  Every `--out` directory
receives `run_config.txt`: `command = <name>`, then one `key = value` line
per argument that subcommand declares, positionals included, in declaration
order and with its effective value, so any output can be reproduced
bit-exactly from its own provenance.  `simulate` echoes the games it wrote
and leaves `seed` empty when `--seed` was not given.  A `--config` file
holds `key = value` defaults for the arguments, under the same keys,
positionals included; explicit arguments win.  Every report is a `Table`
written by `_emit`: `<name>.tsv`, or `<name>.json` under `--json`, in the
`--out` directory, or on stdout without one, as TSV or one JSON line per
table (`train`'s `matching.tsv` and `history.tsv` are always TSV).  All
output is deterministic: no timestamps, no machine identifiers.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import corpus, learner, metrics, mrl, simgen, strategic, translator

THETA_GRID = (0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40)
# Arguments every subcommand that declares them needs, from the command
# line or a --config file.
_REQUIRED = frozenset({"manifest", "model", "input", "strategic"})


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


@dataclass(frozen=True)
class Table:
    """A rectangular report: header row plus value rows."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]


def table_to_tsv(table: Table) -> str:
    lines = ["\t".join(table.columns)]
    for row in table.rows:
        lines.append("\t".join(corpus.fmt(v) for v in row))
    return corpus.lines_text(lines)


def table_to_json(table: Table) -> str:
    records = [dict(zip(table.columns, row)) for row in table.rows]
    return json.dumps(records, sort_keys=True) + "\n"


def write_report(table: Table, path) -> None:
    """The table as TSV or JSON, as the suffix of path says."""
    suffix = Path(path).suffix
    if suffix not in (".tsv", ".json"):
        raise ValueError(f"unknown report format {suffix!r}")
    text = table_to_tsv(table) if suffix == ".tsv" else table_to_json(table)
    Path(path).write_text(text, encoding="utf-8")


def _settings(sub: _Parser) -> list[argparse.Action]:
    """The arguments `sub` declares, in declaration order: the one list behind
    both `run_config.txt` and the keys a `--config` file may set."""
    return [action for action in sub._actions if action.dest != "help"]


def _prepare_out(args, sub: _Parser, **effective) -> Path | None:
    """Create the `--out` directory and write its `run_config.txt`: `command`,
    then each argument `sub` declares with its effective value; `effective`
    replaces a value the command worked out itself."""
    if not args.out:
        return None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    values = {action.dest: getattr(args, action.dest) for action in _settings(sub)}
    values.update(effective)
    # an optional setting left unset (simulate without --seed) echoes empty
    corpus.write_lines(out / "run_config.txt", [f"command = {args.command}"] + [
        f"{key} = {'' if value is None else corpus.fmt(value)}"
        for key, value in values.items()
    ])
    return out


def _emit(table: Table, out: Path | None, name: str, as_json: bool) -> None:
    """The report as `<name>.tsv` or `<name>.json` under out, or on stdout
    in the same format without --out."""
    if out is None:
        sys.stdout.write(table_to_json(table) if as_json else table_to_tsv(table))
    else:
        write_report(table, out / f"{name}.{'json' if as_json else 'tsv'}")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_simulate(args, sub: _Parser) -> int:
    spec = (
        simgen.load_config(args.config)
        if args.config
        else simgen.SimulationSpec(simgen.default_world(), simgen.default_profile())
    )
    world, profile = spec.world, spec.profile
    if args.seed is not None:
        world = dataclasses.replace(world, seed=args.seed)
        profile = dataclasses.replace(profile, seed=args.seed)
    games = args.games if args.games is not None else spec.games
    if not args.out:
        raise _UsageError("simulate: --out DIR is required")
    result = simgen.simulate_corpus(world, profile, games, spec.name_prefix)
    # without --seed the spec's own world and commentator seeds ran: echo none
    out = _prepare_out(args, sub, games=len(result.games))
    manifest = corpus.write_corpus(result, out)
    total_events = sum(len(g.events) for g in result.games)
    total_comments = sum(len(g.comments) for g in result.games)
    print(f"wrote {len(result.games)} games ({total_events} events, "
          f"{total_comments} comments) to {manifest}")
    return 0


_PAIR_COLUMNS = ("game", "events", "comments", "with_candidates",
                 "mean_candidates", "stddev_candidates", "max_candidates")


def _pair_table(games, window_ms: int) -> Table:
    def row(name, events, comments, counts):
        stats = corpus.candidate_stats(counts)
        return (name, events, comments, *(stats[c] for c in _PAIR_COLUMNS[3:]))

    rows = []
    pooled: list[int] = []
    for game in games:
        counts = [
            len(ex.candidates)
            for ex in corpus.pair_with_window(game.events, game.comments, window_ms)
        ]
        rows.append(row(game.name, len(game.events), len(game.comments), counts))
        pooled += counts
    rows.append(row("TOTAL", sum(len(g.events) for g in games),
                    sum(len(g.comments) for g in games), pooled))
    return Table(_PAIR_COLUMNS, tuple(rows))


def _cmd_pair(args, sub: _Parser) -> int:
    loaded = corpus.load_corpus(args.manifest, args.window_ms)
    table = _pair_table(loaded.games, args.window_ms)
    out = _prepare_out(args, sub)
    _emit(table, out, "pairing", args.json)
    return 0


def _matching_table(matching: learner.Matching) -> Table:
    rows = tuple(
        (game, comment_id, event_id, score)
        for (game, comment_id), (event_id, score) in sorted(
            matching.assignments.items()
        )
    )
    return Table(("game", "comment_id", "event_id", "score"), rows)


def _alignment_lines(examples, matching: learner.Matching) -> list[str]:
    """The matching in the external-alignment format `train` can re-ingest."""
    by_key = {ex.key: ex.example for ex in examples}
    lines = []
    for key in sorted(matching.assignments):
        event_id, _ = matching.assignments[key]
        example = by_key[key]
        event = next(c for c in example.candidates if c.id == event_id)
        lines.append(f"{key[0]}\t{key[1]}\t{mrl.serialize_mr(event.mr)}")
    return lines


def _load_matching(path, games) -> dict[tuple[str, int], int]:
    """(game, comment id) -> event id from a matching TSV that `train` wrote;
    a bad line, or a second line for one comment, raises FormatError naming
    its file and line, and a comment or event that games lack raises
    DanglingGoldReference."""
    event_counts = {(g.name, c.id): len(g.events) for g in games for c in g.comments}
    predicted: dict[tuple[str, int], int] = {}
    first_at: dict[tuple[str, int], int] = {}
    for lineno, (game, comment_id, event_id, score) in corpus.read_records(path, 4):
        if lineno == 1 and game == "game":
            continue
        with corpus.at_line(path, lineno):
            key = (game, int(comment_id))
            predicted[key] = int(event_id)
            if not math.isfinite(float(score)):
                raise ValueError(f"score {score!r} is not finite")
        corpus.check_unique(
            first_at, key, path, lineno, f"comment {key[1]} of game {game!r}"
        )
        if key not in event_counts:
            dangling = f"comment {key[1]} of game {game!r} not in corpus"
        elif not 0 <= predicted[key] < event_counts[key]:
            dangling = f"event {predicted[key]} of game {game!r} not in corpus"
        else:
            continue
        raise corpus.DanglingGoldReference(str(path), lineno, dangling)
    return predicted


def _cmd_train(args, sub: _Parser) -> int:
    # only a scored strategy's own loop has a first iteration to seed
    if args.init_alignment and args.superfluous_cv:
        raise _UsageError("train: --init-alignment has no effect with --superfluous-cv")
    if args.init_alignment and args.strategy in ("random", "gold"):
        raise _UsageError(f"train: --init-alignment has no effect on {args.strategy}")
    if args.superfluous_cv and args.strategy in ("random", "gold"):
        raise _UsageError(f"train: --superfluous-cv has no effect on {args.strategy}")
    loaded = corpus.load_corpus(args.manifest, args.window_ms)
    examples = corpus.pooled_examples(loaded.games, args.window_ms)
    gold = corpus.pooled_gold(loaded.games) or None
    total = strategic.count_event_types(
        e for g in loaded.games for e in g.events
    )
    strategy = learner.ScoringStrategy(args.strategy, seed=args.seed)
    initial_pairs = None
    warnings = 0
    if args.init_alignment:
        initial_pairs, warnings = learner.init_from_external(
            examples, args.init_alignment
        )
    theta = None
    if args.superfluous_cv:
        theta, result = learner.superfluous_cv(
            examples, THETA_GRID, strategy,
            total_count=total, gold=gold, max_iter=args.max_iter,
        )
    else:
        result = learner.retrain_loop(
            examples, strategy, args.max_iter,
            total_count=total, gold=gold, initial_pairs=initial_pairs,
        )
    filtered = result.trained_matching()

    out = _prepare_out(args, sub)
    summary_rows = [("strategy", args.strategy),
                    ("examples", len(examples)),
                    ("iterations", result.iterations_run),
                    ("trained_pairs", len(filtered.assignments))]
    if args.init_alignment:
        summary_rows.append(("alignment_warnings", warnings))
    if theta is not None:
        summary_rows.append(("pruning_fraction", theta))
    if gold is not None:
        f1 = metrics.matching_f1(result.matching.event_ids(), gold).f1
        summary_rows.append(("matching_f1", f1))
    summary = Table(("key", "value"), tuple(summary_rows))
    _emit(summary, out, "summary", args.json)
    if out is None:
        return 0
    write_report(_matching_table(result.matching), out / "matching.tsv")
    corpus.write_lines(out / "alignment.tsv", _alignment_lines(examples, filtered))
    history = tuple(
        (r.iteration, "-" if r.matching_f1 is None else r.matching_f1, r.changed)
        for r in result.history
    )
    write_report(Table(("iter", "matching_f1", "changed"), history), out / "history.tsv")
    translator.save_model(result.model, out / "model.tsv")
    if result.strategic is not None:
        strategic.save_strategic(result.strategic, out / "strategic.tsv")
    print(f"trained {args.strategy} in {result.iterations_run} iterations -> {out}")
    return 0


def _cmd_igsl(args, sub: _Parser) -> int:
    loaded = corpus.load_corpus(args.manifest, args.window_ms)
    examples = corpus.pooled_examples(loaded.games, args.window_ms)
    total = strategic.count_event_types(e for g in loaded.games for e in g.events)
    model = strategic.igsl(
        [ex.example for ex in examples], total, max_iter=args.max_iter
    )
    table = Table(
        ("predicate", "events", "probability"),
        tuple((name, model.total_count.get(name, 0), model.prob[name])
              for name in strategic.predicate_order(model)),
    )
    out = _prepare_out(args, sub)
    _emit(table, out, "igsl", args.json)
    if out is not None:
        strategic.save_strategic(model, out / "strategic.tsv")
    return 0


def _cmd_parse(args, sub: _Parser) -> int:
    model = translator.load_model(args.model)
    rows = []
    for _, raw in corpus.read_lines(args.input):
        tokens = corpus.tokenize(raw, "en")
        ranked = translator.parse_sentence(tokens, model)
        surface = mrl.serialize_mr(ranked[0][0]) if ranked else "NONE"
        rows.append((" ".join(tokens), surface))
    table = Table(("sentence", "mr"), tuple(rows))
    out = _prepare_out(args, sub)
    _emit(table, out, "parses", args.json)
    return 0


def _check_topk(topk: int) -> None:
    """Reject --topk below 1 before any input file is read."""
    if topk < 1:
        raise ValueError(f"--topk must be at least 1, got {topk}")


# Value checks that a --config line gets at its line; a flag's value gets
# the same check where the command reads it.
_VALUE_CHECKS = {"topk": _check_topk, "window_ms": corpus.check_window,
                 "max_iter": strategic.check_max_iter}


def _cmd_generate(args, sub: _Parser) -> int:
    _check_topk(args.topk)
    model = translator.load_model(args.model)
    rows = []
    for lineno, raw in corpus.read_lines(args.input):
        with corpus.at_line(args.input, lineno):
            mr = mrl.parse_mr(raw)
        surface = mrl.serialize_mr(mr)
        try:
            ranked = translator.generate_topk(mr, model, args.topk)
        except translator.NoTemplate:
            rows.append((surface, 0, 0.0, "NO_TEMPLATE"))
            continue
        for rank, (tokens, score) in enumerate(ranked, start=1):
            rows.append((surface, rank, score, " ".join(tokens)))
    table = Table(("mr", "rank", "score", "sentence"), tuple(rows))
    out = _prepare_out(args, sub)
    _emit(table, out, "generations", args.json)
    return 0


def _cmd_sportscast(args, sub: _Parser) -> int:
    _check_topk(args.topk)
    model = translator.load_model(args.model)
    strat = strategic.load_strategic(args.strategic)
    loaded = corpus.load_corpus(args.manifest, args.window_ms)
    out = _prepare_out(args, sub)
    rows = []
    summary_rows = []
    for index, game in enumerate(loaded.games):
        prng = simgen.Prng(simgen.derive_seed(args.seed, index, 2))
        transcript, skipped = strategic.assemble_sportscast(
            game.events, strat, model, k=args.topk, prng=prng
        )
        rows += [(game.name, time_ms, mrl.serialize_mr(mr), " ".join(tokens))
                 for time_ms, mr, tokens in transcript]
        summary_rows.append((game.name, len(transcript), len(skipped)))
    table = Table(("game", "time_ms", "mr", "sentence"), tuple(rows))
    _emit(table, out, "transcript", args.json)
    summary = Table(("game", "comments", "skipped"), tuple(summary_rows))
    _emit(summary, out, "sportscast", args.json)
    return 0


def _cmd_evaluate(args, sub: _Parser) -> int:
    model = translator.load_model(args.model)
    loaded = corpus.load_corpus(args.manifest, args.window_ms)
    for game in loaded.games:
        if game.gold is None:
            raise ValueError(f"game {game.name} has no gold annotations")
    gold = corpus.pooled_gold(loaded.games)

    reports = []
    if args.matching:
        predicted = _load_matching(args.matching, loaded.games)
        reports.append(metrics.matching_f1(predicted, gold))

    parses: dict[tuple[str, int], mrl.MeaningRepresentation | None] = {}
    gold_mrs: dict[tuple[str, int], mrl.MeaningRepresentation | None] = {}
    for game in loaded.games:
        game_gold = corpus.gold_event_mrs(game)
        for comment in game.comments:
            key = (game.name, comment.id)
            gold_mrs[key] = game_gold.get(comment.id)
            ranked = translator.parse_sentence(comment.tokens, model)
            parses[key] = ranked[0][0] if ranked else None
    reports.append(metrics.parsing_f1(parses, gold_mrs))

    references = metrics.expand_references(loaded.games)
    segments = []
    no_template = 0
    # Per-segment NIST takes the closest reference; the document score is
    # the mean.  A segment's generation and references are its MR's, so
    # each MR's score is computed once, and each sentence's n-grams counted once.
    closest: dict[str, float] = {}
    profiles = metrics.NistProfiles()
    segment_nist = []
    for key in sorted(gold_mrs):
        mr = gold_mrs[key]
        if mr is None:
            continue
        try:
            generated = translator.generate_topk(mr, model, 1)[0][0]
        except translator.NoTemplate:
            no_template += 1
            continue
        surface = mrl.serialize_mr(mr)
        segments.append((list(generated), references[surface]))
        if surface not in closest:
            closest[surface] = max(
                metrics.nist(generated, ref, profiles) for ref in references[surface]
            )
        segment_nist.append(closest[surface])
    bleu = metrics.bleu_document(segments) if segments else 0.0
    reports.append(metrics.EvalReport(
        task="generation",
        bleu=bleu,
        nist=corpus.ordered_sum(segment_nist) / len(segments) if segments else 0.0,
        counts={"segments": len(segments), "no_template": no_template},
    ))

    out = _prepare_out(args, sub)
    for report in reports:
        table = Table(("key", "value"), tuple(report.rows()))
        _emit(table, out, f"report_{report.task}", args.json)
    return 0


def _build_parser() -> tuple[_Parser, dict[str, tuple[_Parser, Callable]]]:
    parser = _Parser(prog="sportscaster", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    by_name: dict[str, tuple[_Parser, Callable]] = {}

    def sub(name: str, handler: Callable, **kwargs) -> _Parser:
        p = subs.add_parser(name, **kwargs)
        p.add_argument("--config", default="", help="key = value defaults file")
        p.add_argument("--out", default="", help="output directory")
        by_name[name] = (p, handler)
        return p

    # Required inputs are not argparse-required, so a --config file may
    # supply them; run() checks them once the config file is applied.
    def positional(p: _Parser, name: str, **kwargs) -> None:
        p.add_argument(name, nargs="?", default="", **kwargs)

    def common(p: _Parser, *, manifest=True):
        if manifest:
            p.add_argument("--manifest", default="", help="corpus manifest TSV")
            p.add_argument("--window-ms", type=int, default=corpus.DEFAULT_WINDOW_MS,
                           dest="window_ms")
        p.add_argument("--json", action="store_true")

    p = sub("simulate", _cmd_simulate, help="write a synthetic annotated corpus")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--games", type=int, default=None)

    p = sub("pair", _cmd_pair, help="pairing ambiguity statistics")
    common(p)

    p = sub("train", _cmd_train, help="disambiguate and train a translation model")
    common(p)
    p.add_argument("--strategy", choices=learner.STRATEGY_KINDS, default="parse_score")
    p.add_argument("--max-iter", type=int, default=learner.DEFAULT_MAX_ITER,
                   dest="max_iter")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--init-alignment", default="", dest="init_alignment",
                   help="external `game\\tcomment\\tmr` seed pairs")
    p.add_argument("--superfluous-cv", action="store_true", dest="superfluous_cv")

    p = sub("igsl", _cmd_igsl, help="per-event-type commentary probabilities")
    common(p)
    p.add_argument("--max-iter", type=int, default=strategic.DEFAULT_MAX_ITER,
                   dest="max_iter")

    p = sub("parse", _cmd_parse, help="batch sentence -> MR")
    positional(p, "model", help="trained model file")
    positional(p, "input", help="one sentence per line")
    common(p, manifest=False)

    p = sub("generate", _cmd_generate, help="batch MR -> sentence")
    positional(p, "model")
    positional(p, "input", help="one MR per line")
    p.add_argument("--topk", type=int, default=translator.DEFAULT_TOPK)
    common(p, manifest=False)

    p = sub("sportscast", _cmd_sportscast, help="timed transcript for each game")
    positional(p, "model")
    positional(p, "strategic")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--topk", type=int, default=translator.DEFAULT_TOPK)

    p = sub("evaluate", _cmd_evaluate, help="reports against gold annotations")
    positional(p, "model")
    common(p)
    p.add_argument("--matching", default="", help="matching TSV from `train`")

    return parser, by_name


def _coerce(value: str, default) -> object:
    if isinstance(default, bool):
        if value.lower() in ("true", "1", "yes"):
            return True
        if value.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"expected a boolean, got {value!r}")
    if isinstance(default, int):
        return int(value)
    return value


def _load_cli_config(path, sub: _Parser) -> dict:
    """The `key = value` settings of a --config file, each coerced to its
    default's type and held to its argument's choices and value check at
    its line.  A key is set on one line only."""
    actions = {action.dest: action for action in _settings(sub) if action.dest != "config"}
    overrides = {}
    first_at: dict[str, int] = {}
    for lineno, key, value in corpus.key_values(path):
        if key not in actions:
            raise corpus.FormatError(str(path), lineno, f"unknown key {key!r}")
        corpus.check_unique(first_at, key, path, lineno, f"key {key!r}")
        action = actions[key]
        with corpus.at_line(path, lineno):
            overrides[key] = _coerce(value, action.default)
            if action.choices is not None and overrides[key] not in action.choices:
                choices = ", ".join(map(repr, action.choices))
                raise ValueError(f"invalid {key} {value!r} (choose from {choices})")
            if key in _VALUE_CHECKS:
                _VALUE_CHECKS[key](overrides[key])
    return overrides


def run(argv) -> int:
    try:
        parser, subs = _build_parser()
        args = parser.parse_args(argv)
        sub, handler = subs[args.command]
        if args.config and args.command != "simulate":
            sub.set_defaults(**_load_cli_config(args.config, sub))
            args = parser.parse_args(argv)
        missing = [
            (action.option_strings or [action.dest])[0]
            for action in _settings(sub)
            if action.dest in _REQUIRED and getattr(args, action.dest) == ""
        ]
        if missing:
            raise _UsageError(
                f"{args.command}: the following arguments are required: {', '.join(missing)}"
            )
        return handler(args, sub)
    except _UsageError as err:
        print(str(err), file=sys.stderr)
        return 1
    except SystemExit as err:  # argparse --help
        return int(err.code or 0)
    except (ValueError, OSError, translator.NoTemplate) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":  # pragma: no cover
    main()
