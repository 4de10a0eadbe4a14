"""The benchmark's three workloads and the library layers it traces.

Each workload has a set-up, which is timed as `setup_s` and repeated, and a
unit operation (`op`), which the run repeats in a closed loop with one
caller until its time is up.  The library only ever sees generated inputs;
the seed mapping lives here.

  disambiguate_gen    one learner.retrain_loop with nist_igsl
  disambiguate_parse  one learner.retrain_loop with parse_score
  serve               one pass of requests to a model trained in set-up:
                      full-space parses of held-out comments, generate_topk
                      (k=5) on held-out events, assemble_sportscast on
                      held-out games

Every op of a run works on the same input.  Its outputs are hashed outside
the timed region and must hash the same every time; a mismatch is a failed
operation.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from sportscaster import cli, corpus, learner, metrics, mrl, simgen, strategic, translator

# The disambiguation corpus: the first games of a criterion-06 family
# (default world and profile, one chatter comment per nine; family seed f
# means world seed f and commentator seed 1000 + f).
FAMILY_RATE = 1 / 9
SEEDS_PER_FAMILY = 1000
DISAMBIGUATE_GAMES = 8
# The README quick-start: `simulate --seed 5 --games 3`, then
# `train --strategy nist_igsl`, then `sportscast --seed 9`.
QUICKSTART_SEED = 5
QUICKSTART_GAMES = 3
SPORTSCAST_SEED = 9
TOPK = 5
# Requests in one serve pass, and the held-out games they are drawn from.
SERVE_QUOTA = {"games": 24, "parse": 600, "generate": 3000, "sportscast": 16}
SMALL_SERVE_QUOTA = {"games": 1, "parse": 20, "generate": 100, "sportscast": 1}

# Correctness floors, well below what the library reaches today (matching
# F1 0.92-0.96 on the disambiguation corpus, parse F1 about 0.45 on held-out
# games); they catch a broken pipeline, not a small quality change.
MIN_MATCHING_F1 = 0.8
MIN_PARSE_F1 = 0.25


def sha256_text(lines) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Outcome:
    """What one op produced, judged outside the timed region."""

    fingerprint: str
    problems: list[str] = field(default_factory=list)
    stats: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# disambiguate_gen, disambiguate_parse


@dataclass
class DisambiguateState:
    examples: list
    gold: dict
    totals: dict


class Disambiguate:
    """retrain_loop on a criterion-06 corpus; the seed picks family and order.

    Training cost differs far more between corpora than between runs:
    retrain_loop with nist_igsl took 1.9-4.9 s on five independently
    simulated 8-game corpora (2 shared vCPUs).  So seeds do not each draw a
    new corpus.  Seed s trains on family s // 1000 and pools its games in an
    order shuffled by s.  Seeds 0-999 thus share one corpus and differ only
    in training order; the trained model does not depend on that order.  A
    seed from another thousand gives a different corpus, for checking a
    claim on inputs it was not tuned on.
    """

    setup_reps = 15

    def __init__(self, kind: str, seed: int, small: bool, tmp: Path) -> None:
        self.kind = kind
        self.seed = seed
        self.games = 2 if small else DISAMBIGUATE_GAMES
        self.tmp = tmp

    def setup(self) -> DisambiguateState:
        family = self.seed // SEEDS_PER_FAMILY
        world = replace(simgen.default_world(), seed=family)
        profile = replace(
            simgen.default_profile(), seed=1000 + family, superfluous_rate=FAMILY_RATE
        )
        games = list(simgen.simulate_corpus(world, profile, self.games).games)
        random.Random(f"disambiguate-{self.seed}").shuffle(games)
        return DisambiguateState(
            examples=corpus.pooled_examples(games),
            gold=corpus.pooled_gold(games),
            totals=strategic.count_event_types(e for g in games for e in g.events),
        )

    def setup_fingerprint(self, state: DisambiguateState) -> str:
        return sha256_text(
            f"{ex.game}\t{ex.example.comment.id}\t"
            + " ".join(ex.example.comment.tokens)
            + "\t"
            + ",".join(str(c.id) for c in ex.example.candidates)
            for ex in state.examples
        )

    def op(self, state: DisambiguateState):
        return learner.retrain_loop(
            state.examples,
            learner.ScoringStrategy(self.kind),
            total_count=state.totals,
            gold=state.gold,
        )

    def outcome(self, state: DisambiguateState, index: int, result) -> Outcome:
        model_path = self.tmp / "model.tsv"
        translator.save_model(result.model, model_path)
        assigned = result.matching.event_ids()
        problems = []
        for ex in state.examples:
            event_id = assigned.get(ex.key)
            if event_id is None or all(c.id != event_id for c in ex.example.candidates):
                problems.append(f"comment {ex.key} assigned no candidate event")
        f1 = metrics.matching_f1(assigned, state.gold).f1
        if f1 < MIN_MATCHING_F1:
            problems.append(f"matching F1 {f1:.4f} below {MIN_MATCHING_F1}")
        model_sha = sha256_file(model_path)
        fingerprint = sha256_text(
            [model_sha]
            + [f"{g}\t{c}\t{e}" for (g, c), e in sorted(assigned.items())]
        )
        return Outcome(
            fingerprint=fingerprint,
            problems=problems[:5],
            stats={
                "matching_f1": f1,
                "iterations": result.iterations_run,
                "model_sha256": model_sha,
            },
        )

    def record(self, state: DisambiguateState, durations, outcomes) -> tuple[dict, list[str]]:
        first = outcomes[0].stats
        return {
            "train_s": statistics.median(durations),
            "train_samples": len(durations),
            "matching_f1": first["matching_f1"],
            "iterations": first["iterations"],
            "model_sha256": first["model_sha256"],
            "examples": len(state.examples),
            "candidates_per_comment": sum(
                len(ex.example.candidates) for ex in state.examples
            )
            / len(state.examples),
        }, []

    def layer_counts(self, outcomes) -> dict:
        return {"learner.iterations": statistics.mean(o.stats["iterations"] for o in outcomes)}

    def layer_problems(self, per_op: dict) -> list[str]:
        calls = per_op["translator.generate_topk.calls"]
        if self.kind == "parse_score" and calls != 0:
            return [f"parse_score called generate_topk {calls} times per loop"]
        if self.kind != "parse_score" and calls < 1:
            return ["nist_igsl never called generate_topk"]
        return []


# ---------------------------------------------------------------------------
# serve


@dataclass
class ServeState:
    model: object
    strategic_model: object
    model_sha: str
    comments: list  # (gold MR or None, comment) for each parse request
    events: list  # events to verbalize, one generate request each
    games: list  # games to sportscast
    references: dict  # MR surface -> gold-matched held-out sentences


@dataclass
class ServedPass:
    parses: list  # top (MR, score) per comment, None where the parser abstained
    parse_s: list[float]  # wall time of each parse
    generations: list  # top-k (tokens, score) per event, None without a template
    generate_s: float
    transcripts: list  # one assemble_sportscast transcript per game
    sportscast_s: float


def heldout_seeds(seed: int) -> tuple[int, int]:
    """World and commentator seeds of the held-out corpus; never the
    quick-start seed, so held-out games never share a world with training."""
    rng = random.Random(f"serve-{seed}")
    world_seed = QUICKSTART_SEED
    while world_seed == QUICKSTART_SEED:
        world_seed = rng.randrange(2**32)
    return world_seed, rng.randrange(2**32)


class Serve:
    """Train once with the quick-start pipeline, then serve held-out games.

    A pass makes a fixed number of requests of each kind, taken in order from
    the held-out games, so that the work in a pass does not depend on how
    many comments and events the seed's games happen to have.
    """

    setup_reps = 5

    def __init__(self, seed: int, small: bool, tmp: Path) -> None:
        self.seed = seed
        self.quota = SMALL_SERVE_QUOTA if small else SERVE_QUOTA
        self.tmp = tmp
        self._setups = 0

    def _cli(self, argv: list[str]) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.run(argv)
        if status != 0:
            raise RuntimeError(f"cli {argv[0]} exited with status {status}")

    def setup(self) -> ServeState:
        out = self.tmp / f"setup{self._setups}"
        self._setups += 1
        self._cli([
            "simulate", "--seed", str(QUICKSTART_SEED),
            "--games", str(QUICKSTART_GAMES), "--out", str(out / "corpus"),
        ])
        self._cli([
            "train", "--manifest", str(out / "corpus" / "manifest.tsv"),
            "--strategy", "nist_igsl", "--out", str(out / "model"),
        ])
        model = translator.load_model(out / "model" / "model.tsv")
        strategic_model = strategic.load_strategic(out / "model" / "strategic.tsv")
        world_seed, profile_seed = heldout_seeds(self.seed)
        heldout = simgen.simulate_corpus(
            replace(simgen.default_world(), seed=world_seed),
            replace(simgen.default_profile(), seed=profile_seed),
            self.quota["games"],
            name_prefix="heldout",
        )
        comments, events = [], []
        for game in heldout.games:
            by_id = {e.id: e for e in game.events}
            for comment in game.comments:
                event_id = game.gold.matches.get(comment.id)
                comments.append((None if event_id is None else by_id[event_id].mr, comment))
            events.extend(game.events)
        if len(comments) < self.quota["parse"] or len(events) < self.quota["generate"]:
            raise RuntimeError("held-out games too small for the request quotas")
        return ServeState(
            model=model,
            strategic_model=strategic_model,
            model_sha=sha256_file(out / "model" / "model.tsv"),
            comments=comments[: self.quota["parse"]],
            events=events[: self.quota["generate"]],
            games=list(heldout.games[: self.quota["sportscast"]]),
            references=metrics.expand_references(heldout.games),
        )

    def setup_fingerprint(self, state: ServeState) -> str:
        return state.model_sha

    def op(self, state: ServeState) -> ServedPass:
        parses, parse_s = [], []
        for _, comment in state.comments:
            start = time.perf_counter()
            ranked = translator.parse_sentence(comment.tokens, state.model)
            parse_s.append(time.perf_counter() - start)
            parses.append(ranked[0] if ranked else None)
        generations = []
        start = time.perf_counter()
        for event in state.events:
            try:
                generations.append(translator.generate_topk(event.mr, state.model, TOPK))
            except translator.NoTemplate:
                generations.append(None)
        generate_s = time.perf_counter() - start
        transcripts = []
        start = time.perf_counter()
        for game_index, game in enumerate(state.games):
            prng = simgen.Prng(simgen.derive_seed(SPORTSCAST_SEED, game_index, 2))
            transcript, _ = strategic.assemble_sportscast(
                game.events, state.strategic_model, state.model, k=TOPK, prng=prng
            )
            transcripts.append(transcript)
        sportscast_s = time.perf_counter() - start
        return ServedPass(parses, parse_s, generations, generate_s, transcripts, sportscast_s)

    def outcome(self, state: ServeState, index: int, served: ServedPass) -> Outcome:
        lines, problems = [], []
        for parse in served.parses:
            lines.append(
                "NONE" if parse is None else f"{mrl.serialize_mr(parse[0])}\t{parse[1]!r}"
            )
        for ranked in served.generations:
            lines.append(
                "NO_TEMPLATE" if ranked is None
                else "|".join(f"{' '.join(t)}\t{s!r}" for t, s in ranked)
            )
        for game, transcript in zip(state.games, served.transcripts):
            event_mrs = {e.mr for e in game.events}
            for time_ms, mr, tokens in transcript:
                lines.append(f"{time_ms}\t{mrl.serialize_mr(mr)}\t{' '.join(tokens)}")
                if mr not in event_mrs or not tokens:
                    problems.append(f"{game.name}: sportscast line at {time_ms} ms is not a game event")
        stats = {
            "parse_s": served.parse_s,
            "generate_s": served.generate_s,
            "sportscast_s": served.sportscast_s,
            "abstained": sum(1 for parse in served.parses if parse is None),
            "chatter_parsed": sum(
                1 for (gold, _), parse in zip(state.comments, served.parses)
                if gold is None and parse is not None
            ),
        }
        if index == 0:
            stats["quality"], quality_problems = self.quality(state, served)
            problems.extend(quality_problems)
        return Outcome(fingerprint=sha256_text(lines), problems=problems[:5], stats=stats)

    def quality(self, state: ServeState, served: ServedPass) -> tuple[dict, list[str]]:
        """Parse F1 over gold-bearing comments only, and document BLEU of the
        top-1 generation of every event that some held-out comment describes."""
        parses, gold_mrs = {}, {}
        for (gold, comment), parse in zip(state.comments, served.parses):
            if gold is not None:
                gold_mrs[comment] = gold
                parses[comment] = None if parse is None else parse[0]
        segments = []
        for event, ranked in zip(state.events, served.generations):
            references = state.references.get(mrl.serialize_mr(event.mr))
            if ranked is not None and references:
                segments.append((list(ranked[0][0]), references))
        parse_f1 = metrics.parsing_f1(parses, gold_mrs).f1
        bleu = metrics.bleu_document(segments) if segments else 0.0
        problems = []
        if parse_f1 < MIN_PARSE_F1:
            problems.append(f"parse F1 {parse_f1:.4f} below {MIN_PARSE_F1}")
        if bleu <= 0.0:
            problems.append("BLEU of top-1 generations is 0")
        return {
            "parse_f1": parse_f1,
            "bleu": bleu,
            "gold_comments": len(gold_mrs),
            "bleu_segments": len(segments),
            "no_template": sum(1 for g in served.generations if g is None),
        }, problems

    def record(self, state: ServeState, durations, outcomes) -> tuple[dict, list[str]]:
        parse_s = [t for o in outcomes for t in o.stats["parse_s"]]
        twentieths = statistics.quantiles(parse_s, n=20)
        return {
            "pass_s": statistics.median(durations),
            "passes": len(durations),
            "requests_per_pass": dict(self.quota),
            "parse_per_s": len(parse_s) / sum(parse_s),
            "parse_ms_p50": statistics.median(parse_s) * 1000,
            "parse_ms_p95": twentieths[18] * 1000,
            "parse_samples": len(parse_s),
            "generate_per_s": len(state.events) * len(outcomes)
            / sum(o.stats["generate_s"] for o in outcomes),
            "sportscast_s": statistics.median(o.stats["sportscast_s"] for o in outcomes),
            "model_sha256": state.model_sha,
            **outcomes[0].stats["quality"],
        }, []

    def layer_counts(self, outcomes) -> dict:
        return {
            "parse.abstained": statistics.mean(o.stats["abstained"] for o in outcomes),
            "parse.chatter_parsed": statistics.mean(
                o.stats["chatter_parsed"] for o in outcomes
            ),
        }

    def layer_problems(self, per_op: dict) -> list[str]:
        problems = []
        if per_op["translator.generate_topk.calls"] < 1:
            problems.append("serve never called generate_topk")
        if per_op["parse.serialize_per_parse"] < len(mrl.enumerate_mrs()):
            problems.append(
                f"{per_op['parse.serialize_per_parse']:.0f} serialize_mr calls per "
                f"full-space parse, fewer than the {len(mrl.enumerate_mrs())} MRs"
            )
        return problems


def make(name: str, seed: int, small: bool, tmp: Path):
    if name == "disambiguate_gen":
        return Disambiguate("nist_igsl", seed, small, tmp)
    if name == "disambiguate_parse":
        return Disambiguate("parse_score", seed, small, tmp)
    if name == "serve":
        return Serve(seed, small, tmp)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("disambiguate_gen", "disambiguate_parse", "serve")


# ---------------------------------------------------------------------------
# traced layers

# Spans recorded during the timed ops, reported per op.
OP_SPANS = (
    (learner, "retrain_loop", "learner.retrain_loop"),
    (learner, "evaluate_candidate", "learner.evaluate_candidate"),
    (translator, "train", "translator.train"),
    (translator, "train_alignment", "translator.train_alignment"),
    (translator, "extract_templates", "translator.extract_templates"),
    (translator.LanguageModel, "fit", "translator.LanguageModel.fit"),
    (translator, "score_candidates", "translator.score_candidates"),
    (translator, "parse_sentence", "translator.parse_sentence"),
    (translator, "generate_topk", "translator.generate_topk"),
    (strategic, "igsl", "strategic.igsl"),
    (strategic, "assemble_sportscast", "strategic.assemble_sportscast"),
    (metrics, "nist", "metrics.nist"),
)
# Spans recorded during set-up, reported per set-up.
SETUP_SPANS = (
    (simgen, "simulate_corpus", "simgen.simulate_corpus"),
    (corpus, "pooled_examples", "corpus.pooled_examples"),
    (translator, "save_model", "translator.save_model"),
    (translator, "load_model", "translator.load_model"),
    (strategic, "load_strategic", "strategic.load_strategic"),
)
SETUP_CLI_SPANS = ("cli.run.simulate", "cli.run.train")
# Too hot for a span per call: counted only.
COUNTED = (
    (translator.LanguageModel, "sentence_prob", "translator.LanguageModel.sentence_prob"),
    (mrl, "serialize_mr", "mrl.serialize_mr"),
)


def install(tracer) -> None:
    for owner, attr, name in OP_SPANS + SETUP_SPANS:
        tracer.wrap_span(owner, attr, name)
    tracer.wrap_span(cli, "run", lambda argv: f"cli.run.{argv[0]}")
    for owner, attr, name in COUNTED:
        tracer.wrap_count(owner, attr, name)


def layer_metrics(tracer, workload, n_setups, traced, untraced, outcomes) -> dict:
    """Per-layer values: op spans per op, set-up spans per set-up."""
    per_op = {}
    n_ops = len(traced)
    op_summary = tracer.summary("op")
    setup_summary = tracer.summary("setup")
    spans = [(name, op_summary, n_ops) for _, _, name in OP_SPANS]
    spans += [(name, setup_summary, n_setups) for _, _, name in SETUP_SPANS]
    spans += [(name, setup_summary, n_setups) for name in SETUP_CLI_SPANS]
    for name, summary, n in spans:
        entry = summary.get(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        per_op[f"{name}.s"] = entry["s"] / n
        per_op[f"{name}.self_s"] = entry["self_s"] / n
        per_op[f"{name}.calls"] = entry["calls"] / n
    for _, _, name in COUNTED:
        per_op[f"{name}.calls"] = tracer.count("op", name) / n_ops
    generate = per_op["translator.generate_topk.calls"]
    evaluate = per_op["learner.evaluate_candidate.calls"]
    parses = per_op["translator.parse_sentence.calls"]
    per_op["generate.scored_per_call"] = (
        per_op["translator.LanguageModel.sentence_prob.calls"] / generate if generate else 0.0
    )
    per_op["generate.no_template"] = tracer.count("op", "translator.generate_topk.raised") / n_ops
    per_op["learner.generation_cache_hit_rate"] = (
        1.0 - generate / evaluate if generate and evaluate else 0.0
    )
    per_op["parse.serialize_per_parse"] = (
        per_op["mrl.serialize_mr.calls"] / parses if parses else 0.0
    )
    per_op.update({"learner.iterations": 0, "parse.abstained": 0, "parse.chatter_parsed": 0})
    per_op.update(workload.layer_counts(outcomes))
    per_op["trace_overhead"] = statistics.median(traced) / statistics.median(untraced)
    return per_op


def unit_of(name: str) -> str:
    if name.endswith(".s") or name.endswith(".self_s"):
        return "s"
    if name in ("trace_overhead", "learner.generation_cache_hit_rate"):
        return "ratio"
    return "count"
