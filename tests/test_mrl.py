import time

import pytest
from hypothesis import given, strategies as st

from sportscaster import mrl
from sportscaster.mrl import MalformedMR, derivation, enumerate_mrs, parse_mr, serialize_mr


def test_grammar_has_exactly_46_productions():
    assert len(mrl.PRODUCTIONS) == 46
    heads = [p for p in mrl.PRODUCTIONS if p.lhs == "*S"]
    players = [p for p in mrl.PRODUCTIONS if p.lhs == "*PLAYER"]
    modes = [p for p in mrl.PRODUCTIONS if p.lhs == "*PLAYMODE"]
    assert (len(heads), len(players), len(modes)) == (9, 22, 15)
    assert len({p.key for p in mrl.PRODUCTIONS}) == 46


def test_predicate_signatures():
    sigs = {p.name: p.argument_sorts for p in mrl.PREDICATES}
    assert sigs == {
        "playmode": ("PLAYMODE",),
        "ballstopped": (),
        "turnover": ("PLAYER", "PLAYER"),
        "kick": ("PLAYER",),
        "pass": ("PLAYER", "PLAYER"),
        "badPass": ("PLAYER", "PLAYER"),
        "defense": ("PLAYER", "PLAYER"),
        "steal": ("PLAYER",),
        "block": ("PLAYER",),
    }
    # stable declaration order: model files are written in it
    assert [p.name for p in mrl.PREDICATES] == [
        "playmode", "ballstopped", "turnover", "kick", "pass",
        "badPass", "defense", "steal", "block",
    ]


def test_constant_inventory():
    players = [c.token for c in mrl.CONSTANTS if c.sort == mrl.PLAYER]
    modes = [c.token for c in mrl.CONSTANTS if c.sort == mrl.PLAYMODE]
    assert len(players) == 22
    assert len(modes) == 15
    assert "pink1" in players and "purple11" in players
    assert "kick_off_l" in modes and "goal_r" in modes


def test_parse_binary_predicate():
    mr = parse_mr("pass ( pink1 , pink2 )")
    assert mr.predicate.name == "pass"
    assert [a.token for a in mr.args] == ["pink1", "pink2"]


def test_parse_zero_arity():
    mr = parse_mr("ballstopped")
    assert mr.predicate.name == "ballstopped"
    assert mr.args == ()


def test_parse_rejects_sort_violation():
    with pytest.raises(MalformedMR):
        parse_mr("pass ( pink1 , kick_off_l )")


def test_parse_accepts_arbitrary_whitespace():
    canonical = parse_mr("pass ( pink1 , pink2 )")
    assert parse_mr("pass(pink1,pink2)") == canonical
    assert parse_mr("  pass  (  pink1 ,pink2 )  ") == canonical


def test_parse_errors_carry_position():
    with pytest.raises(MalformedMR) as err:
        parse_mr("pass ( pink1 , pink2")
    assert err.value.position == len("pass ( pink1 , pink2")
    with pytest.raises(MalformedMR) as err:
        parse_mr("frobnicate ( pink1 )")
    assert err.value.position == 0
    with pytest.raises(MalformedMR) as err:
        parse_mr("kick ( pink1 ) extra")
    assert err.value.position == len("kick ( pink1 ) ")


def _reference_tokens(text):
    """parse_mr's tokens as a character loop: each of "()," alone, or a
    maximal run of other characters for which str.isspace is false."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "(),":
            tokens.append((ch, i))
            i += 1
        else:
            j = i
            while j < len(text) and not text[j].isspace() and text[j] not in "(),":
                j += 1
            tokens.append((text[i:j], i))
            i = j
    return tokens


# ASCII and Unicode spaces, the separators that str.isspace counts
# (\x1c-\x1f), and look-alikes it does not (zero-width space, BOM).
_MR_CHARACTERS = st.one_of(
    st.sampled_from(
        list("(),kick pink1\t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0")
        + ["\u1680", "\u2000", "\u200a", "\u2028", "\u2029", "\u202f",
           "\u205f", "\u3000", "\u200b", "\ufeff"]
    ),
    st.characters(),
)


@given(st.text(_MR_CHARACTERS, max_size=40))
def test_token_pattern_matches_the_reference_loop(text):
    tokens = [(m.group(), m.start()) for m in mrl._TOKEN_RE.finditer(text)]
    assert tokens == _reference_tokens(text)


def test_parse_is_closed_world():
    with pytest.raises(MalformedMR):
        parse_mr("kick ( pink12 )")
    with pytest.raises(MalformedMR):
        parse_mr("Kick ( pink1 )")   # case-sensitive
    with pytest.raises(MalformedMR):
        parse_mr("kick ( Pink1 )")
    with pytest.raises(MalformedMR):
        parse_mr("")
    with pytest.raises(MalformedMR):
        parse_mr("kick")             # missing required argument


def test_serialize_canonical_forms():
    turnover = parse_mr("turnover(purple7,pink5)")
    assert serialize_mr(turnover) == "turnover ( purple7 , pink5 )"
    assert serialize_mr(parse_mr("playmode(goal_l)")) == "playmode ( goal_l )"
    assert serialize_mr(parse_mr(" ballstopped ")) == "ballstopped"


def _reference_serialize_mr(mr):
    """The surface form built from the fields on every call."""
    if not mr.args:
        return mr.predicate.name
    inner = " , ".join(a.token for a in mr.args)
    return f"{mr.predicate.name} ( {inner} )"


def test_cached_surface_equals_the_join_and_leaves_eq_and_hash_alone():
    for mr in enumerate_mrs():
        expected = _reference_serialize_mr(mr)
        assert serialize_mr(mr) == expected
        copy = parse_mr(expected)
        assert copy is not mr and "surface" not in vars(copy)
        hashed = hash(copy)
        assert copy == mr
        assert serialize_mr(copy) == expected
        assert "surface" in vars(copy)
        assert hash(copy) == hashed == hash(mr)
        assert copy == mr and copy == parse_mr(expected)


def test_constructor_validates_arity_and_sort():
    kick = mrl.PREDICATES[3]
    pink1 = next(c for c in mrl.CONSTANTS if c.token == "pink1")
    goal = next(c for c in mrl.CONSTANTS if c.token == "goal_l")
    with pytest.raises(ValueError):
        mrl.MeaningRepresentation(kick, (pink1, pink1))
    with pytest.raises(ValueError):
        mrl.MeaningRepresentation(kick, (goal,))


def test_derivation_shapes():
    mr = parse_mr("pass ( pink1 , pink2 )")
    deriv = derivation(mr)
    assert len(deriv) == 3
    assert deriv[0].lhs == "*S" and deriv[0].key == "pass"
    assert [p.key for p in deriv[1:]] == ["pink1", "pink2"]
    ballstopped = parse_mr("ballstopped")
    head = next(p for p in mrl.PRODUCTIONS if p.key == "ballstopped")
    assert derivation(ballstopped) == (head,)


def test_enumeration_count_matches_arithmetic():
    mrs = enumerate_mrs()
    # 15 playmode + 1 ballstopped + 3 unary player + 4 binary player pairs
    assert len(mrs) == 15 + 1 + 3 * 22 + 4 * 22 * 22 == 2018
    surfaces = {serialize_mr(mr) for mr in mrs}
    assert len(surfaces) == 2018
    assert "steal ( purple10 )" in surfaces
    assert "pass ( pink1 , pink1 )" in surfaces      # self-reference enumerated
    assert not any(" kick_off_l" in s and s.startswith("pass") for s in surfaces)


def test_enumeration_is_sorted_and_cached():
    mrs = enumerate_mrs()
    assert list(mrs) == sorted(mrs, key=serialize_mr)
    assert enumerate_mrs() is mrs


def test_full_round_trip_under_one_second():
    start = time.perf_counter()
    for mr in enumerate_mrs():
        assert parse_mr(serialize_mr(mr)) == mr
    assert time.perf_counter() - start < 1.0


def test_derivations_are_unique_across_the_space():
    seen = {}
    for mr in enumerate_mrs():
        keys = tuple(p.key for p in derivation(mr))
        assert len(keys) == 1 + mr.predicate.arity
        assert keys not in seen
        seen[keys] = mr
    assert len(seen) == 2018
