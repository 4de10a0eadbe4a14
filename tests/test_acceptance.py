"""Acceptance suite: the package's ten headline guarantees.

Each test prints one `criterion NN <label>: PASS/FAIL` line (run pytest with
-s to see them) before asserting, so a red run still reports every verdict.
Corpora are synthetic with known gold matchings; the slower criteria reuse
one cached corpus family.
"""

import math
import shutil
import time
from dataclasses import replace

from sportscaster import cli, corpus, learner, metrics, mrl, simgen, strategic, translator


def _verdict(number: int, label: str, ok: bool, detail: str = "") -> bool:
    state = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"criterion {number:02d} {label}: {state}{suffix}", flush=True)
    return ok


# -- shared corpus family for criteria 6-8 ---------------------------------

FAMILY_GAMES = 20
FAMILY_RATE = 1 / 9  # one superfluous comment per nine normal ones

_family_cache: dict = {}


def _family(seed: int, rate: float = FAMILY_RATE):
    key = (seed, rate)
    if key not in _family_cache:
        world = replace(simgen.default_world(), seed=seed)
        profile = replace(
            simgen.default_profile(), seed=seed + 1000, superfluous_rate=rate
        )
        sim = simgen.simulate_corpus(world, profile, FAMILY_GAMES)
        examples = corpus.pooled_examples(sim.games)
        gold = corpus.pooled_gold(sim.games)
        totals = strategic.count_event_types(e for g in sim.games for e in g.events)
        _family_cache[key] = (sim, examples, gold, totals)
    return _family_cache[key]


def _f1(result: learner.DisambiguationResult, gold) -> float:
    return metrics.matching_f1(result.matching.event_ids(), gold).f1


def test_criterion_01_grammar_round_trip():
    start = time.perf_counter()
    mrs = mrl.enumerate_mrs()
    round_trips = all(mrl.parse_mr(mrl.serialize_mr(mr)) == mr for mr in mrs)
    elapsed = time.perf_counter() - start
    ok = (
        len(mrs) == 2018
        and len(mrl.PRODUCTIONS) == 46
        and round_trips
        and elapsed < 1.0
    )
    assert _verdict(
        1, "grammar-round-trip", ok,
        f"{len(mrs)} MRs, {len(mrl.PRODUCTIONS)} productions, {elapsed:.2f}s",
    )


def test_criterion_02_metric_oracles():
    checks = []

    bleu = metrics.bleu_document([("a b c d e".split(), ["a b c d f".split()])])
    checks.append(abs(bleu - (4 / 5 * 3 / 4 * 2 / 3 * 1 / 2) ** 0.25) < 1e-6)

    checks.append(abs(metrics.nist("a b c".split(), "a b d".split()) - 7 / 6) < 1e-6)

    checks.append(
        abs(metrics.meteor("c d a b".split(), "a b c d".split()) - 0.9375) < 1e-6
    )
    # identity at length 4: one chunk, four matches, penalty 0.5/4^3
    identity4 = metrics.meteor("a b c d".split(), "a b c d".split())
    checks.append(abs(identity4 - (1 - 0.5 / 64)) < 1e-6)

    checks.append(
        abs(
            metrics.bleu_document([("a b c d e".split(), ["a b c d e".split()])]) - 1.0
        )
        < 1e-6
    )
    checks.append(abs(metrics.nist("a b c d e".split(), "a b c d e".split()) - 5.0) < 1e-6)

    # shared unigrams but no shared 4-gram: BLEU collapses, NIST still credits
    cand, ref = "a b c".split(), "a b d".split()
    checks.append(metrics.bleu_document([(cand, [ref])]) == 0.0)
    checks.append(metrics.nist(cand, ref) > 0.0)

    assert _verdict(2, "metric-oracles", all(checks), f"{sum(checks)}/8 checks")


def test_criterion_03_igsl_unambiguous_fixed_point():
    events = []
    for i in range(10):
        events.append(
            corpus.GameEvent(1000 * (i + 1), mrl.parse_mr(f"kick ( pink{i + 1} )"), i)
        )
    for i in range(5):
        events.append(
            corpus.GameEvent(
                20_000 + 1000 * i,
                mrl.parse_mr(f"pass ( pink{i + 1} , purple{i + 1} )"),
                10 + i,
            )
        )
    for i in range(4):
        events.append(
            corpus.GameEvent(
                40_000 + 1000 * i,
                mrl.parse_mr(f"turnover ( pink{i + 1} , purple{i + 1} )"),
                15 + i,
            )
        )
    totals = {"kick": 10, "pass": 5, "turnover": 4}

    examples = []
    for comment_id, event in enumerate(events[:6]):  # 6 of 10 kicks commented
        examples.append(
            corpus.AmbiguousExample(
                corpus.make_comment(event.time_ms + 500, "boots it", "en", comment_id),
                (event,),
            )
        )
    for comment_id, event in enumerate(events[10:15], start=6):  # all 5 passes
        examples.append(
            corpus.AmbiguousExample(
                corpus.make_comment(event.time_ms + 500, "a pass", "en", comment_id),
                (event,),
            )
        )

    expected = {"kick": 0.6, "pass": 1.0, "turnover": 0.0}
    one = strategic.igsl(examples, totals, max_iter=1)
    fifty = strategic.igsl(examples, totals, max_iter=50)
    ok = all(
        abs(one.prob[name] - want) < 1e-9 and abs(fifty.prob[name] - want) < 1e-9
        for name, want in expected.items()
    )
    assert _verdict(
        3, "igsl-fixed-point", ok,
        " ".join(f"{n}={one.prob[n]:.3f}" for n in expected),
    )


def test_criterion_04_selection_normalization_and_monte_carlo():
    weights = [0.970, 0.909, 1.09e-5]
    total = sum(weights)
    wanted = (0.516, 0.484, 5.80e-6)
    norm_ok = all(abs(w / total - want) < 5e-4 for w, want in zip(weights, wanted))

    prng = simgen.Prng(2024)
    draws = 100_000
    counts = [0, 0, 0]
    for _ in range(draws):
        counts[prng.weighted_index(weights)] += 1
    mc_ok = all(
        abs(count / draws - w / total) < 0.01 for count, w in zip(counts, weights)
    )
    assert _verdict(
        4, "selection-frequencies", norm_ok and mc_ok,
        f"mc={counts[0] / draws:.3f}/{counts[1] / draws:.3f}",
    )


def test_criterion_05_em_likelihood_and_concentration():
    sharp = [
        ("pink1 kicks to pink2".split(), mrl.parse_mr("pass ( pink1 , pink2 )")),
        ("pink2 kicks to pink3".split(), mrl.parse_mr("pass ( pink2 , pink3 )")),
        ("pink3 kicks to pink1".split(), mrl.parse_mr("pass ( pink3 , pink1 )")),
        ("pink1 boots it".split(), mrl.parse_mr("kick ( pink1 )")),
        ("pink2 boots it".split(), mrl.parse_mr("kick ( pink2 )")),
        ("the ball is dead".split(), mrl.parse_mr("ballstopped")),
    ]
    kick_pair = [
        ("kick pink1".split(), mrl.parse_mr("kick ( pink1 )")),
        ("kick pink2".split(), mrl.parse_mr("kick ( pink2 )")),
    ]
    sim = simgen.simulate_corpus(simgen.default_world(3), simgen.default_profile(4), 2)
    cartesian = [
        (ex.example.comment.tokens, c.mr)
        for ex in corpus.pooled_examples(sim.games)
        for c in ex.example.candidates
    ]

    monotone = True
    for pairs in (sharp, kick_pair, cartesian):
        lls = translator.train_alignment(pairs, iterations=25).log_likelihoods
        monotone = monotone and len(lls) == 26
        monotone = monotone and all(b >= a - 1e-9 for a, b in zip(lls, lls[1:]))

    alignment = translator.train_alignment(kick_pair, iterations=20)
    row = translator._COLUMN_INDEX["pink1"]
    concentration = float(alignment.t[row, alignment.columns["pink1"]])
    ok = monotone and concentration > 0.9
    assert _verdict(
        5, "em-properties", ok, f"t(pink1|pink1)={concentration:.4f}"
    )


def test_criterion_06_disambiguation_ordering():
    f1s: dict[str, list[float]] = {k: [] for k in ("random", "nist_gen", "nist_igsl", "gold")}
    shape_ok = True
    budget_ok = True
    for seed in range(5):
        start = time.perf_counter()
        sim, examples, gold, totals = _family(seed)
        shape_ok = shape_ok and len(examples) >= 500
        ambiguity = sum(len(ex.example.candidates) for ex in examples) / len(examples)
        shape_ok = shape_ok and 2.0 <= ambiguity <= 2.7
        for kind in f1s:
            result = learner.retrain_loop(
                examples,
                learner.ScoringStrategy(kind, seed=seed),
                total_count=totals,
                gold=gold,
            )
            f1s[kind].append(_f1(result, gold))
        budget_ok = budget_ok and (time.perf_counter() - start) < 300.0

    mean = {kind: sum(values) / len(values) for kind, values in f1s.items()}
    ordering_ok = (
        mean["nist_igsl"] >= mean["nist_gen"] >= mean["random"] + 0.15
    )
    ceiling_ok = all(
        f1s["gold"][i] >= max(f1s[k][i] for k in ("random", "nist_gen", "nist_igsl"))
        for i in range(5)
    )
    ok = shape_ok and budget_ok and ordering_ok and ceiling_ok
    assert _verdict(
        6, "strategy-ordering", ok,
        f"random={mean['random']:.3f} gen={mean['nist_gen']:.3f} "
        f"igsl={mean['nist_igsl']:.3f} gold={mean['gold']:.3f}",
    )


def _external_alignment_lines(examples, gold, seed):
    """A deterministic external matching, correct for ~90% of gold comments."""
    prng = simgen.Prng(seed * 7919 + 13)
    lines = []
    correct = 0
    for ex in examples:
        target = gold.get(ex.key)
        if target is None:
            continue
        candidates = ex.example.candidates
        if prng.uniform() < 0.9:
            chosen = next(c for c in candidates if c.id == target)
        else:
            wrong = [c for c in candidates if c.id != target]
            chosen = (wrong or list(candidates))[
                prng.uniform_int(0, max(len(wrong) - 1, 0))
            ]
        correct += chosen.id == target
        lines.append(f"{ex.key[0]}\t{ex.key[1]}\t{mrl.serialize_mr(chosen.mr)}")
    return lines, correct / len(lines)


def test_criterion_07_external_initialization_benefit(tmp_path):
    strategy = learner.ScoringStrategy("parse_score")
    pairs_ok = True
    deltas = []
    for seed in range(5):
        sim, examples, gold, totals = _family(seed)
        lines, accuracy = _external_alignment_lines(examples, gold, seed)
        pairs_ok = pairs_ok and 0.85 <= accuracy <= 0.95
        path = tmp_path / f"external{seed}.tsv"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        initial_picks, warnings = learner.init_from_external(examples, path)
        pairs_ok = pairs_ok and warnings == 0 and len(initial_picks) == len(lines)

        unseeded = learner.retrain_loop(
            examples, strategy, total_count=totals, gold=gold
        )
        seeded = learner.retrain_loop(
            examples, strategy, total_count=totals, gold=gold,
            initial_picks=initial_picks,
        )
        deltas.append(_f1(seeded, gold) - _f1(unseeded, gold))

    ok = pairs_ok and all(delta >= 0.0 for delta in deltas)
    assert _verdict(
        7, "external-initialization", ok,
        "deltas " + " ".join(f"{d:+.3f}" for d in deltas),
    )


def test_criterion_08_superfluous_rate_cross_validation():
    """superfluous_cv recovers the chatter rate and prunes chatter.

    On family 0 at nominal chatter rates 0, 0.10 and 0.20, the pruning
    fraction chosen by internal cross-validation over cli.THETA_GRID must
    land within 0.10 of the nominal rate, and at the non-zero rates the
    pairs the final run pruned must be enriched for chatter (gold None):
    the odds ratio of chatter among pruned versus kept pairs exceeds 1.
    The odds read inf when only chatter is pruned (or none is kept), and 0
    when no chatter is pruned.
    """
    strategy = learner.ScoringStrategy("parse_score")
    details = []
    theta_ok = True
    odds_ok = True
    for nominal, rate in ((0.0, 0.0), (0.10, 1 / 9), (0.20, 0.25)):
        sim, examples, gold, totals = _family(0, rate=rate)
        theta, result = learner.superfluous_cv(
            examples, cli.THETA_GRID, strategy, total_count=totals, gold=gold
        )
        theta_ok = theta_ok and abs(theta - nominal) <= 0.10 + 1e-9
        detail = f"rate {nominal:.2f}: theta={theta:.2f}"
        if nominal > 0.0:
            pruned = [ex.key for ex in examples if ex.key not in result.trained_on]
            kept = [ex.key for ex in examples if ex.key in result.trained_on]
            pruned_none = sum(1 for k in pruned if gold[k] is None)
            kept_none = sum(1 for k in kept if gold[k] is None)
            # (chatter pruned * described kept) / (described pruned * chatter kept)
            over = pruned_none * (len(kept) - kept_none)
            under = (len(pruned) - pruned_none) * kept_none
            odds = over / under if under else (math.inf if over else 0.0)
            odds_ok = odds_ok and odds > 1.0
            detail += f" odds={odds:.1f}" if odds != math.inf else " odds=inf"
        details.append(detail)
    assert _verdict(
        8, "superfluous-rate-cv", theta_ok and odds_ok, "; ".join(details)
    )


HIDDEN_TEMPLATES = {
    "ballstopped": ("the", "whistle", "halts", "play"),
    "kick": ("<1>", "hammers", "the", "ball"),
    "pass": ("<1>", "slides", "a", "pass", "toward", "<2>"),
    "badPass": ("<1>", "misplaces", "the", "pass", "straight", "at", "<2>"),
    "turnover": ("<2>", "wrestles", "possession", "from", "<1>"),
    "steal": ("<1>", "pilfers", "the", "ball"),
    "block": ("<1>", "walls", "the", "shot"),
    "defense": ("<2>", "smothers", "the", "attack", "from", "<1>"),
    "playmode": ("referee", "signals", "<1>"),
}


def _hidden_realization(mr):
    words = []
    for token in HIDDEN_TEMPLATES[mr.predicate.name]:
        if token.startswith("<") and token.endswith(">"):
            words.append(mr.args[int(token[1:-1]) - 1].token)
        else:
            words.append(token)
    return tuple(words)


def test_criterion_09_generation_recovery():
    world = replace(simgen.default_world(), seed=0)
    profile = replace(
        simgen.default_profile(),
        seed=1000,
        superfluous_rate=0.0,
        comment_prob={name: 1.0 for name in HIDDEN_TEMPLATES},
        lexicon={name: [(words, 1.0)] for name, words in HIDDEN_TEMPLATES.items()},
    )
    sim = simgen.simulate_corpus(world, profile, 6)

    pairs = []
    trained_mrs: dict[str, set[str]] = {}
    for game in sim.games:
        by_id = {e.id: e for e in game.events}
        for comment in game.comments:
            mr = by_id[game.gold.matches[comment.id]].mr
            pairs.append((comment.tokens, mr))
            trained_mrs.setdefault(mr.predicate.name, set()).add(mrl.serialize_mr(mr))
    model = translator.train(pairs)

    learned_types = sorted(set(model.lexicon.templates) & set(HIDDEN_TEMPLATES))
    faithful = 0
    for name in learned_types:
        surfaces = sorted(trained_mrs.get(name, set()))[:3]
        good = bool(surfaces)
        for surface in surfaces:
            mr = mrl.parse_mr(surface)
            top, _score = translator.generate_topk(mr, model, 1)[0]
            good = good and tuple(top) == _hidden_realization(mr)
        faithful += good

    references = metrics.expand_references(sim.games)
    segments = []
    for game in sim.games:
        by_id = {e.id: e for e in game.events}
        for comment in game.comments:
            mr = by_id[game.gold.matches[comment.id]].mr
            top, _score = translator.generate_topk(mr, model, 1)[0]
            segments.append((list(top), references[mrl.serialize_mr(mr)]))
    bleu = metrics.bleu_document(segments)

    ok = (
        bool(learned_types)
        and faithful / len(learned_types) >= 0.8
        and bleu >= 0.6
    )
    assert _verdict(
        9, "generation-recovery", ok,
        f"{faithful}/{len(learned_types)} types faithful, bleu={bleu:.3f}",
    )


def _run_pipeline(root) -> dict:
    corpus_dir = root / "corpus"
    assert cli.run(
        ["simulate", "--seed", "5", "--games", "3", "--out", str(corpus_dir)]
    ) == 0
    manifest = corpus_dir / "manifest.tsv"
    assert cli.run(
        ["pair", "--manifest", str(manifest), "--out", str(root / "pairing")]
    ) == 0
    assert cli.run(
        ["train", "--manifest", str(manifest), "--strategy", "nist_igsl",
         "--max-iter", "3", "--out", str(root / "model")]
    ) == 0
    assert cli.run(
        ["sportscast", str(root / "model" / "model.tsv"),
         str(root / "model" / "strategic.tsv"),
         "--manifest", str(manifest), "--seed", "9", "--out", str(root / "cast")]
    ) == 0
    assert cli.run(
        ["evaluate", str(root / "model" / "model.tsv"),
         "--manifest", str(manifest),
         "--matching", str(root / "model" / "matching.tsv"),
         "--out", str(root / "reports")]
    ) == 0
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_criterion_10_end_to_end_determinism(tmp_path):
    root = tmp_path / "pipeline"
    first = _run_pipeline(root)
    shutil.rmtree(root)
    second = _run_pipeline(root)
    same = set(first) == set(second) and all(
        first[name] == second[name] for name in first
    )
    changed = [name for name in first if first.get(name) != second.get(name)]
    assert _verdict(
        10, "end-to-end-determinism", same,
        f"{len(first)} files" + (f", differs: {changed[:3]}" if changed else ""),
    )
