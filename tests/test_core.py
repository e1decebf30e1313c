import copy
import enum
import json
import math
import pickle
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
    ParseError,
    StrategySpace,
    UnknownPlayer,
    UnknownStrategy,
    apply_offer_set,
    as_rational,
    make_game,
    payoff_sum,
)
from preplay.core import _fraction, _scales
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


def assert_same_fraction(value, reference):
    """``value`` is a Fraction in lowest terms that every public view reads
    as ``reference``."""
    assert type(value) is Fraction
    numerator, denominator = value.numerator, value.denominator
    assert type(numerator) is int and type(denominator) is int
    assert denominator > 0 and math.gcd(numerator, denominator) == 1
    assert (numerator, denominator) == (reference.numerator, reference.denominator)
    assert value == reference and hash(value) == hash(reference)
    assert str(value) == str(reference) and repr(value) == repr(reference)
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value)):
        assert type(twin) is Fraction and twin == reference and hash(twin) == hash(reference)


def test_fraction_fills_the_slots_fraction_would_fill():
    # _fraction and core's direct slot reads rely on this layout
    assert Fraction.__slots__ == ("_numerator", "_denominator")
    rng = random.Random(16)
    big = rng.randrange(10**999, 10**1000)  # 1,000 digits
    numerators = [0, 1, 6, 35, 2**64, big, 6 * big, rng.randrange(10**999, 10**1000)]
    denominators = [1, 2, 9, 10, 2**64 + 2, big, 7 * big, rng.randrange(10**999, 10**1000)]
    for n in numerators + [-n for n in numerators]:
        for d in denominators:
            assert_same_fraction(_fraction(n, d), Fraction(n, d))


def test_computed_payoffs_are_plain_fractions(corpus):
    # raw-int cells go through as_rational, applied ones through _add_separable
    for game, offer_set in corpus[:40]:
        for built in (game, apply_offer_set(game, offer_set)):
            for value in (v for cell in built.payoffs for v in cell):
                assert_same_fraction(value, Fraction(value.numerator, value.denominator))
    for n in (0, 1, -1, 10**999, -(10**999)):
        assert_same_fraction(as_rational(n), Fraction(n))


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


def test_make_game_names_the_first_missing_profile_in_row_major_order():
    entries = {("C", "C"): (4, 4), ("D", "D"): (1, 1)}
    with pytest.raises(MissingOutcome, match=r"^no payoff vector for profile \(C,D\)$"):
        make_game(("I", "II"), (("C", "D"), ("C", "D")), entries)


def test_make_game_rejects_a_strategy_list_for_an_unknown_player():
    with pytest.raises(UnknownPlayer, match=r"^strategy list for unknown player 'III'$"):
        make_game(("I", "II"), {"I": ("C",), "II": ("C",), "III": ("C",)}, {})


def test_strategy_space_needs_one_strategy_list_per_player():
    with pytest.raises(ArityMismatch, match=r"^2 players but 1 strategy lists$"):
        StrategySpace(("I", "II"), (("C", "D"),))


def test_game_rejects_a_payoff_vector_of_the_wrong_length():
    with pytest.raises(ArityMismatch, match=r"^payoff vector of length 3 in a 2-player game$"):
        Game(("I", "II"), (("a",), ("b", "c")), ((1, 2), (1, 2, 3)))


def test_game_reads_any_iterable_of_values_but_a_string_as_a_payoff_vector():
    # a string iterates digit by digit, so "12" once read as (1, 2); the
    # other builders are held to the same rule in test_handoff.py
    with pytest.raises(TypeError, match=r"^not a payoff vector: '12'$"):
        Game(("A", "B"), (("x",), ("y",)), ("12",))
    for cell in ([1, "2"], (v for v in (1, "2")), map(int, "12")):
        assert Game(("A", "B"), (("x",), ("y",)), (cell,)).payoffs == ((1, 2),)


def test_game_coerces_cells_in_row_major_order():
    # the first bad value is reported, before any count or length check
    with pytest.raises(TypeError, match=r"^not a rational value: 0\.5$"):
        Game(("A", "B"), (("x", "y"), ("z",)), ((1, 0.5, 3), (0.25,), "12"))
    with pytest.raises(TypeError, match=r"^not a payoff vector: '12'$"):
        Game(("A", "B"), (("x", "y"), ("z",)), ((1, 2), "12", (0.5,)))


def test_as_rational_reads_a_fraction_subclass_as_its_plain_fraction():
    class Exact(Fraction):
        pass

    for value in (Exact(3, 4), Exact(-7, 2), Exact(5)):
        rational = as_rational(value)
        assert type(rational) is Fraction
        assert rational == value and hash(rational) == hash(value)
        assert (type(rational.numerator), type(rational.denominator)) == (int, int)


def test_as_rational_reads_an_int_subclass_as_its_plain_int():
    class Level(enum.IntEnum):
        LOW = -2
        HIGH = 5

    class Count(int):
        pass

    for value in (Level.LOW, Level.HIGH, Count(7), Count(-3)):
        rational = as_rational(value)
        assert type(rational) is Fraction and rational == int(value)
    # bool is an int subclass too, but True is not a payoff
    with pytest.raises(TypeError):
        as_rational(True)
    subclassed = Game(("I", "II"), (("a", "b"), ("c",)), ((Level.LOW, Count(7)), (Level.HIGH, 0)))
    plain = Game(("I", "II"), (("a", "b"), ("c",)), ((-2, 7), (5, 0)))
    assert subclassed == plain
    assert {type(v) for cell in subclassed.payoffs for v in cell} == {Fraction}


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


@pytest.mark.parametrize("count", [2.7, "2", None, True])
def test_non_int_strategy_count_rejected(count):
    # a count is neither truncated (2.7 -> 2) nor coerced ("2" -> 2, True -> 1)
    with pytest.raises(ArityMismatch):
        GameShape((count, 2))


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


@pytest.mark.parametrize("profile", [(True, False), (0, True), (False, 0)])
def test_payoff_rejects_a_bool_entry(m0, profile):
    # True == 1 and False == 0, but neither is a strategy index
    with pytest.raises(IndexOutOfRange, match="is not a strategy index"):
        m0.payoff(profile)
    with pytest.raises(IndexOutOfRange, match="is not a strategy index"):
        m0.shape.validate_profile(profile)
    with pytest.raises(IndexOutOfRange, match="is not a strategy index"):
        m0.space.name_profile(profile)


def test_profile_at_inverts_flat_index():
    shape = GameShape((2, 3, 4))
    for flat, profile in enumerate(shape.profiles()):
        assert shape._profile_at(flat) == profile


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


# ---------------------------------------------------------------------------
# each player's scale: one lcm tree, and a bound checked as the tree grows


def primes_from(start):
    return (p for p in range(start, 10**6) if all(p % d for d in range(2, math.isqrt(p) + 1)))


def denominator_cells(rng, counts, kind):
    """Cells for ``len(counts)`` players in which player k's payoffs have
    ``counts[k]`` distinct denominators: short, long or prime."""
    primes = primes_from(rng.randrange(2, 5000))
    columns = []
    for count in counts:
        pool = set()
        while len(pool) < count:
            if kind == "short":
                pool.add(rng.randrange(1, 10**4))
            elif kind == "long":
                pool.add(rng.randrange(10**39, 10**40))
            else:
                pool.add(next(primes))
        # Fraction(1, d) keeps d; repeats pad every column to one length
        column = [Fraction(1, d) for d in pool]
        column += [rng.choice(column) for _ in range(max(counts) - count)]
        rng.shuffle(column)
        columns.append(column)
    return list(zip(*columns))


def reference_scales(cells):
    return tuple(math.lcm(*(v.denominator for v in column)) for column in zip(*cells))


# distinct denominators per player: powers of two and not, from 1 to 600
SCALE_COUNTS = [(1, 2), (3, 4, 1), (7, 8, 9, 16), (64, 100), (255, 256, 257), (600, 31, 512)]


@pytest.mark.parametrize("kind", ["short", "long", "prime"])
def test_scales_match_a_per_player_lcm(kind):
    rng = random.Random(f"scales {kind}")
    for counts in SCALE_COUNTS:
        cells = denominator_cells(rng, counts, kind)
        assert {len({v.denominator for v in column}) for column in zip(*cells)} == set(counts)
        assert _scales(cells) == reference_scales(cells)
    # numerators that cancel into the denominators, and integer payoffs
    cells = [(Fraction(6, 4), Fraction(3)), (Fraction(-10, 15), Fraction(5, 10))]
    assert _scales(cells) == (6, 2)
    assert _scales([(Fraction(1), Fraction(-2))] * 5) == (1, 1)


def test_scales_bound_holds_exactly_at_the_sum_of_bit_lengths():
    rng = random.Random("scale bound")
    for kind in ("short", "long", "prime"):
        for counts in SCALE_COUNTS:
            cells = denominator_cells(rng, counts, kind)
            scales = _scales(cells)
            bits = sum(scale.bit_length() for scale in scales)
            assert _scales(cells, bits) == scales
            assert _scales(cells, bits - 1) is None
    # powers of two spread the bits exactly: 2^9, 2^19 and 2^29 take 10, 20
    # and 30 bits, and the bound counts them together
    cells = [(Fraction(1, 2**9), Fraction(1, 2**19), Fraction(1, 2**29))]
    assert _scales(cells, 60) == (2**9, 2**19, 2**29)
    assert _scales(cells, 59) is None
    # the first two players fit in 30 bits, and the third is past them
    assert _scales([cells[0][:2]], 30) == (2**9, 2**19)
    assert _scales(cells, 30) is None


# ---------------------------------------------------------------------------
# the numbers and names a frame's messages give


def test_strategy_count_messages_number_the_player_from_one():
    doc = {"schema": 1, "players": ["I", "II"], "strategies": [["a"], []], "payoffs": []}
    with pytest.raises(ParseError) as raised:
        parse_game(json.dumps(doc))
    assert raised.value.detail == "player 2 has 0 strategies; need at least 1"
    with pytest.raises(ArityMismatch, match=r"^player 1 has 0 strategies; need at least 1$"):
        GameShape((0, 2))
    with pytest.raises(ArityMismatch, match=r"^player 2 has strategy count '2'; need an int$"):
        GameShape((2, "2"))


def test_out_of_range_message_numbers_the_entry_and_player_from_one():
    shape = GameShape((2, 3))
    with pytest.raises(IndexOutOfRange) as raised:
        shape.validate_profile((1, 3))
    assert str(raised.value) == "profile (2,4): entry 4 for player 2 is outside 1..3"
    with pytest.raises(IndexOutOfRange) as raised:
        shape.validate_profile((-1, 0))
    assert str(raised.value) == "profile (0,1): entry 0 for player 1 is outside 1..2"


def test_duplicate_name_message_names_the_duplicated_one():
    with pytest.raises(DuplicateName, match=r"^duplicate player name 'b'$"):
        StrategySpace(("a", "b", "b"), (("x",), ("y",), ("z",)))
    with pytest.raises(DuplicateName, match=r"^duplicate strategy name 'b' for player 'II'$"):
        StrategySpace(("I", "II"), (("x",), ("a", "b", "b")))
