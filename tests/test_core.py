import random
import re
import sys
from fractions import Fraction

import pytest

from preplay import (
    ArityMismatch,
    DuplicateName,
    DuplicateOutcome,
    Game,
    GameShape,
    IndexOutOfRange,
    MissingOutcome,
    StrategySpace,
    UnknownPlayer,
    UnknownStrategy,
    as_rational,
    make_game,
    payoff_sum,
)
from preplay.cli import parse_game, parse_seed_assignments, serialize_game
from conftest import matching_pennies, pd_game


def test_as_rational_accepts_ints_strings_fractions():
    assert as_rational(7) == Fraction(7)
    assert as_rational("3") == Fraction(3)
    assert as_rational("3/4") == Fraction(3, 4)
    assert as_rational("-3/4") == Fraction(-3, 4)
    assert as_rational("0.5") == Fraction(1, 2)
    assert as_rational("0.1") == Fraction(1, 10)  # exact decimal, not binary float
    assert as_rational(Fraction(2, 6)) == Fraction(1, 3)


def test_as_rational_rejects_floats_bools_garbage():
    with pytest.raises(TypeError):
        as_rational(0.5)
    with pytest.raises(TypeError):
        as_rational(True)
    with pytest.raises(ValueError):
        as_rational("abc")
    with pytest.raises(ValueError):
        as_rational("1/0")
    # outside the documented grammar even though Fraction would take them
    for text in ("1e3", "1e10000000", "1_000", " 3 ", "\u0663"):
        with pytest.raises(ValueError):
            as_rational(text)


def reference_as_rational(value):
    """Reference: the grammar check, then ``Fraction(str)`` parses the
    string a second time."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"not a rational value: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        # Fraction alone also takes exponents ("1e10000000" takes seconds),
        # "_", surrounding whitespace and non-ASCII digits
        if not re.fullmatch(r"[+-]?[0-9]+(?:/[0-9]+|\.[0-9]+)?", value):
            raise ValueError(f"not a rational value: {value!r}")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational value: {value!r}") from exc
    raise TypeError(f"not a rational value: {value!r}")


def random_rational_text(rng):
    def digits():
        length = rng.choice((1, 1, 2, 3, 5, 40, 300))
        return "".join(rng.choice("0000123456789") for _ in range(length))

    sign = rng.choice(("", "+", "-"))
    form = rng.randrange(3)
    if form == 0:
        return sign + digits()
    if form == 1:
        return f"{sign}{digits()}/{rng.randint(1, 9)}{digits()}"
    return f"{sign}{digits()}.{digits()}"


def test_as_rational_matches_fraction_on_valid_strings():
    fixed = ["-0", "+0", "0.000", "-0.000", "+3/4", "-3/4", "007", "-007.0700", "+0/5", "10/4"]
    rng = random.Random(43)
    texts = fixed + [random_rational_text(rng) for _ in range(500)]
    assert any(len(t) > 300 for t in texts) and any(t.startswith("-0") for t in texts)
    for text in texts:
        value = as_rational(text)
        assert type(value) is Fraction
        assert value == Fraction(text) == reference_as_rational(text)


def test_as_rational_rejects_with_the_same_text():
    limit = sys.get_int_max_str_digits()
    long_run = "7" * (limit + 1)
    texts = ["1/0", "1/00", "-0/0", "1.", ".5", "1e3", "\u0663", "", "+", "1/2/3", "1.5/2"]
    if limit:
        texts += [long_run, "-" + long_run, "1/" + long_run, "0." + long_run, long_run + ".5"]
    for text in texts:
        with pytest.raises(ValueError) as raised:
            as_rational(text)
        assert str(raised.value) == f"not a rational value: {text!r}"
        with pytest.raises(ValueError) as expected:
            reference_as_rational(text)
        assert str(raised.value) == str(expected.value)
    if limit:
        # each digit group stays within the limit, as Fraction reads them
        within = "7" * limit
        assert as_rational(within + "." + within) == Fraction(within + "." + within)
        assert as_rational(within + "/" + within) == 1


def test_make_game_pd():
    game = pd_game()
    assert game.players == ("I", "II")
    assert game.strategies == (("C", "D"), ("C", "D"))
    assert game.payoff((0, 0)) == (4, 4)
    assert game.payoff((1, 0)) == (5, 0)
    space = game.space
    assert space.profile_from_names(("D", "C")) == (1, 0)
    assert space.name_profile((1, 1)) == "(D,D)"


def test_make_game_accepts_strategy_mapping():
    game = make_game(
        ("I", "II"),
        {"II": ("C", "D"), "I": ("C", "D")},
        {("C", "C"): (4, 4), ("C", "D"): (0, 5), ("D", "C"): (5, 0), ("D", "D"): (1, 1)},
    )
    assert game == pd_game()


def test_make_game_duplicate_profile():
    entries = [
        (("C", "C"), (4, 4)),
        (("C", "C"), (4, 4)),
        (("C", "D"), (0, 5)),
        (("D", "C"), (5, 0)),
        (("D", "D"), (1, 1)),
    ]
    with pytest.raises(DuplicateOutcome):
        make_game(("I", "II"), (("C", "D"), ("C", "D")), entries)


def test_make_game_missing_profile():
    entries = {("C", "C"): (4, 4), ("C", "D"): (0, 5), ("D", "C"): (5, 0)}
    with pytest.raises(MissingOutcome) as info:
        make_game(("I", "II"), (("C", "D"), ("C", "D")), entries)
    assert "(D,D)" in str(info.value)


def test_make_game_name_validation():
    with pytest.raises(DuplicateName):
        make_game(("I", "I"), (("C",), ("C",)), {("C", "C"): (0, 0)})
    with pytest.raises(DuplicateName):
        make_game(("I", "II"), (("C", "C"), ("C",)), {})
    with pytest.raises(UnknownPlayer):
        make_game(("I", "II"), {"I": ("C",)}, {})
    with pytest.raises(UnknownStrategy):
        make_game(
            ("I", "II"),
            (("C", "D"), ("C", "D")),
            {("C", "X"): (0, 0)},
        )


def test_make_game_wrong_vector_length():
    with pytest.raises(ArityMismatch):
        make_game(
            ("I", "II"),
            (("C", "D"), ("C", "D")),
            {("C", "C"): (4, 4, 4), ("C", "D"): (0, 5), ("D", "C"): (5, 0), ("D", "D"): (1, 1)},
        )


def test_single_player_rejected():
    with pytest.raises(ArityMismatch):
        GameShape((3,))
    with pytest.raises(ArityMismatch):
        make_game(("solo",), (("a", "b"),), {("a",): (1,), ("b",): (2,)})


def test_empty_strategy_list_rejected():
    with pytest.raises(ArityMismatch):
        GameShape((2, 0))


def test_payoff_sum_examples(m0):
    assert payoff_sum(m0, (0, 0)) == 8
    assert payoff_sum(m0, (1, 1)) == 2
    pennies = matching_pennies()
    for profile in pennies.shape.profiles():
        assert payoff_sum(pennies, profile) == 0


def test_profile_validation(m0):
    with pytest.raises(IndexOutOfRange):
        m0.payoff((0, 2))
    with pytest.raises(ArityMismatch):
        m0.payoff((0, 0, 0))
    with pytest.raises(IndexOutOfRange):
        payoff_sum(m0, (-1, 0))


@pytest.mark.parametrize("entry", [0.5, 1.0, "0", None])
def test_payoff_rejects_a_non_integer_entry(m0, entry):
    with pytest.raises(IndexOutOfRange, match="is not a strategy index"):
        m0.payoff((entry, 0))


def test_profile_names_rejects_a_non_integer_entry(m0):
    with pytest.raises(IndexOutOfRange, match="entry 1.0 for player 1 is not a strategy index"):
        m0.space.profile_names((1.0, 0))


def test_flat_index_is_injective():
    shape = GameShape((2, 3, 4))
    flats = {shape.flat_index(p) for p in shape.profiles()}
    assert len(flats) == shape.size == 24
    assert sorted(flats) == list(range(24))


def test_profiles_row_major_order():
    shape = GameShape((2, 2))
    assert list(shape.profiles()) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_star_counts_and_membership():
    shape = GameShape((3, 3, 2))
    base = (1, 1, 0)
    star = list(shape.star(base))
    assert len(star) == (3 - 1) + (3 - 1) + (2 - 1) + 1
    assert star[0] == base
    assert len(set(star)) == len(star)
    for p in star:
        assert sum(1 for a, b in zip(p, base) if a != b) <= 1


def test_game_payoffs_are_fractions():
    game = pd_game()
    for cell in game.payoffs:
        assert all(isinstance(v, Fraction) for v in cell)
    half = Game(("I", "II"), (("a",), ("b",)), (("1/2", "-0.5"),))
    assert half.payoff((0, 0)) == (Fraction(1, 2), Fraction(-1, 2))


def test_game_cell_count_validation():
    with pytest.raises(MissingOutcome):
        Game(("I", "II"), (("a", "b"), ("c",)), ((1, 1),))
    with pytest.raises(DuplicateOutcome):
        Game(("I", "II"), (("a",), ("c",)), ((1, 1), (2, 2)))


def test_game_keeps_the_frame_it_validated(monkeypatch):
    built = []
    validate = StrategySpace.__post_init__

    def counting(space):
        built.append(space)
        validate(space)

    monkeypatch.setattr(StrategySpace, "__post_init__", counting)
    game = Game(("I", "II"), (("C", "D"), ("C", "D")), ((4, 4), (0, 5), (5, 0), (1, 1)))
    assert game.space.players == ("I", "II")
    assert len(built) == 1
    assert game.shape is game.space.shape

    # each way in from names or documents validates its frame exactly once
    document = serialize_game(game)
    seed = document.replace('[\n        "1",\n        "1"\n      ]', "null")
    calls = {
        "make_game": pd_game,
        "parse_game": lambda: parse_game(document),
        "parse_seed_assignments": lambda: parse_seed_assignments(seed, game),
    }
    for name, call in calls.items():
        built.clear()
        result = call()
        assert len(built) == 1, name
        if isinstance(result, Game):
            assert result.space is built[0], name
    assert (1, 1) not in parse_seed_assignments(seed, game)

    # a space given for another frame is not taken for this one
    renamed = Game(("X", "Y"), game.strategies, game.payoffs, _space=game.space)
    assert renamed.players == ("X", "Y") and renamed.space is not game.space


def test_strategy_space_lookup_errors():
    space = StrategySpace(("I", "II"), (("C", "D"), ("C", "D")))
    with pytest.raises(UnknownPlayer):
        space.player_index("III")
    with pytest.raises(UnknownStrategy):
        space.strategy_index("I", "E")
    with pytest.raises(ArityMismatch):
        space.profile_from_names(("C",))
