"""Simulate a commentated game and inspect the ambiguous supervision.

The simulator produces an event trace plus a comment stream with a known
gold matching; the pairing window then turns each comment into an
ambiguous example whose candidates are the events of the preceding five
seconds.  This script prints the ambiguity statistics and a few examples
so the learning problem is visible.

Run: python3 demos/simulate_and_pair.py
"""

from sportscaster import corpus, mrl, simgen


def main() -> None:
    world = simgen.default_world(seed=7)
    profile = simgen.default_profile(seed=8)
    game = simgen.simulate_corpus(world, profile, 1).games[0]

    print(f"{game.name}: {len(game.events)} events, {len(game.comments)} comments")
    examples = corpus.pair_with_window(game.events, game.comments)
    stats = corpus.candidate_stats([len(ex.candidates) for ex in examples])
    print(f"mean candidates per comment: {stats['mean_candidates']:.2f} "
          f"(max {stats['max_candidates']})")
    superfluous = sum(1 for v in game.gold.matches.values() if v is None)
    print(f"superfluous comments (no true event): {superfluous}")

    print("\nFirst four ambiguous examples:")
    by_id = {e.id: e for e in game.events}
    for ex in examples[:4]:
        print(f"  [{ex.comment.time_ms:>6} ms] \"{' '.join(ex.comment.tokens)}\"")
        truth = game.gold.matches.get(ex.comment.id)
        for event in ex.candidates:
            marker = "  <- gold" if truth == event.id else ""
            print(f"      {event.time_ms:>6} ms  {mrl.serialize_mr(event.mr)}{marker}")
        if truth is None:
            print("      (gold: none of the above)")


if __name__ == "__main__":
    main()
