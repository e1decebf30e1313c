"""The package's frozen records against frozen dataclasses with the same
fields: ``repr``, ``==``, ``hash``, pickle and copy, immutability and
construction behave alike on one record of every public record type."""

import copy
import dataclasses
import pickle
import random
import sys
import types

import pytest

from preplay import (
    AnalysisReport,
    DiffTensor,
    EquivalenceVerdict,
    Game,
    GameShape,
    Offer,
    OfferSet,
    Seed,
    StrategySpace,
    SynthesisResult,
    Violation,
    apply_offer_set,
    check_equivalence,
    diff_tensor,
    report,
    synthesize_offers,
    two_person_seed,
)
from conftest import PD_PAYOFFS, cube_game, pd_game, random_offer_set

RECORD_TYPES = (
    GameShape,
    StrategySpace,
    Game,
    Offer,
    OfferSet,
    DiffTensor,
    Violation,
    EquivalenceVerdict,
    SynthesisResult,
    Seed,
    AnalysisReport,
)

# the twins' module, so that pickle finds each twin by its name
TWINS = types.ModuleType("record_twins")


def twin(cls):
    """A frozen dataclass with the name, fields and defaults of ``cls``."""
    fields = [
        (name, object, dataclasses.field(default=vars(cls)[name]))
        if name in vars(cls)
        else (name, object)
        for name in cls.__annotations__
    ]
    made = dataclasses.make_dataclass(cls.__name__, fields, frozen=True)
    made.__module__ = TWINS.__name__
    setattr(TWINS, cls.__name__, made)
    return made


TWIN = {cls: twin(cls) for cls in RECORD_TYPES}


def fields_of(record):
    return {name: getattr(record, name) for name in type(record).__annotations__}


def twin_of(record):
    """The dataclass twin holding ``record``'s field values."""
    return TWIN[type(record)](**fields_of(record))


def build_records():
    """Records of every type, built as the package builds them; two of a
    type where the package builds it in two ways."""
    pd = pd_game()
    # C1 holds and C2 fails; then C1 fails, and the violation takes its defaults
    c2 = check_equivalence(pd, pd_game({**PD_PAYOFFS, ("C", "C"): (5, 3)}))
    c1 = check_equivalence(pd, pd_game({**PD_PAYOFFS, ("C", "C"): (5, 4)}))
    game = cube_game()
    offers = random_offer_set(random.Random(11), game.space, max_offers=6)
    applied = apply_offer_set(game, offers)
    analysis = report(pd)  # builds pd's integer view, which pickle and copy carry along
    return [
        pd.shape,
        game.shape,
        pd.space,
        game.space,
        pd,
        applied,
        offers.offers[0],
        offers.offers[-1],
        offers,
        diff_tensor(game, applied),
        c2.violation,
        c1.violation,
        c2,
        check_equivalence(game, applied),
        synthesize_offers(game, applied),
        two_person_seed(pd, (0, 0), {(0, 0): 3, (1, 0): 5, (0, 1): 0}),
        analysis,
    ]


RECORDS = build_records()


@pytest.fixture(autouse=True)
def twins_importable(monkeypatch):
    monkeypatch.setitem(sys.modules, TWINS.__name__, TWINS)


records = pytest.mark.parametrize("record", RECORDS, ids=[type(r).__name__ for r in RECORDS])


def test_every_record_type_is_covered():
    assert {type(record) for record in RECORDS} == set(RECORD_TYPES)
    # a game whose integer view is built, so its round trips carry the view
    assert any("_scaled" in vars(record) for record in RECORDS if type(record) is Game)
    # the applied game, checked and synthesized as a target, so its round
    # trips carry the check it remembers
    _, applied = (record for record in RECORDS if type(record) is Game)
    assert "_checked" in vars(applied)


@records
def test_repr_matches_the_dataclass(record):
    assert repr(record) == repr(twin_of(record))


@records
def test_equality_matches_the_dataclass(record):
    same, other = type(record)(**fields_of(record)), twin_of(record)
    assert record == same and not record != same
    assert other == twin_of(record)
    # never equal across classes, nor to the fields' tuple
    assert (record == other) is False and (record != other) is True
    assert record.__eq__(other) is NotImplemented and other.__eq__(record) is NotImplemented
    values = tuple(fields_of(record).values())
    assert record != values and other != values
    # nor to a record of another type, or of a subclass holding the same fields
    foreign = next(r for r in RECORDS if type(r) is not type(record))
    assert record.__eq__(foreign) is NotImplemented
    for value in (record, other):
        sub = type("Sub", (type(value),), {})(**fields_of(record))
        assert all(getattr(sub, name) == v for name, v in fields_of(record).items())
        assert value.__eq__(sub) is NotImplemented and value != sub


def test_equality_of_two_records_matches_the_dataclass():
    for a in RECORDS:
        for b in RECORDS:
            if type(a) is type(b):
                assert (a == b) is (twin_of(a) == twin_of(b))
                assert (a != b) is (twin_of(a) != twin_of(b))


@records
def test_hash_matches_the_dataclass(record):
    try:
        expected = hash(twin_of(record))
    except TypeError:
        # a dict field makes both unhashable
        with pytest.raises(TypeError):
            hash(record)
        assert type(record) in (Seed, AnalysisReport)
    else:
        assert hash(record) == expected == hash(type(record)(**fields_of(record)))


def test_a_seed_is_unhashable():
    seed = next(record for record in RECORDS if type(record) is Seed)
    with pytest.raises(TypeError, match="unhashable"):
        hash(seed)


ROUND_TRIPS = {
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
    "pickle protocol 0": lambda value: pickle.loads(pickle.dumps(value, protocol=0)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


class SortedSet(frozenset):
    """A frozenset whose ``repr`` lists its members sorted by their ``repr``."""

    def __repr__(self):
        return f"frozenset({{{', '.join(sorted(map(repr, self)))}}})" if self else "frozenset()"


def sorted_repr(value):
    """``repr(value)``, where an analysis report, the one record holding
    frozensets (in fields, and as a dict field's values), lists each one's
    members sorted.  Two equal frozensets may iterate colliding members in
    different orders (a rebuilt one does under some string hash seeds), and
    ``repr`` lists them as they iterate."""
    if type(value) not in (AnalysisReport, TWIN[AnalysisReport]):
        return repr(value)

    def ordered(v):
        if isinstance(v, frozenset):
            return SortedSet(v)
        if isinstance(v, dict):
            return {key: ordered(x) for key, x in v.items()}
        return v

    return repr(type(value)(**{name: ordered(v) for name, v in fields_of(value).items()}))


def test_sorted_repr_lists_a_frozenset_in_one_order():
    members = [("D", "C", "strict"), ("D", "C", "weak")]
    twin = TWIN[AnalysisReport]
    one, other = (
        twin(frozenset(m), {"I": frozenset(m)}, None, frozenset(), None)
        for m in (members, members[::-1])
    )
    assert sorted_repr(one) == sorted_repr(other)
    assert "frozenset({('D', 'C', 'strict'), ('D', 'C', 'weak')})" in sorted_repr(one)
    assert "pareto_optimal=frozenset()" in sorted_repr(one)


@records
@pytest.mark.parametrize("trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS)
def test_pickle_and_copy_round_trip_as_the_dataclass_does(record, trip):
    for value in (record, twin_of(record)):
        back = trip(value)
        assert type(back) is type(value) and back == value
        # a rebuilt frozenset may list equal members in another order
        assert sorted_repr(back) == sorted_repr(value)
        # every attribute comes back, cached views and the offer table included
        assert vars(back) == vars(value)


@records
def test_assignment_and_deletion_raise_as_on_the_dataclass(record):
    for value in (record, twin_of(record)):
        for name in (*fields_of(value), "extra"):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
    assert record == type(record)(**fields_of(record))


@records
def test_construction_matches_the_dataclass(record):
    fields = fields_of(record)
    first = next(iter(fields))
    for make in (type(record), TWIN[type(record)]):
        assert make(**fields) == make(*fields.values())
        with pytest.raises(TypeError):
            make(**{name: v for name, v in fields.items() if name != first})
        with pytest.raises(TypeError):
            make(**fields, extra=None)
        with pytest.raises(TypeError):
            make(*fields.values(), None)
        with pytest.raises(TypeError):
            make(*fields.values(), **{first: fields[first]})


def test_violation_defaults_match_the_dataclass():
    for make in (Violation, TWIN[Violation]):
        violation = make("C1", ((0, 0),))
        assert (violation.player, violation.axis) == (None, None)
        assert make(kind="C2", profiles=(), axis=1).player is None
    assert repr(Violation("C1", ((0, 0),))) == repr(TWIN[Violation]("C1", ((0, 0),)))
    # the check builds a C1 violation with the defaults
    c1 = next(r for r in RECORDS if type(r) is Violation and r.kind == "C1")
    assert c1 == Violation("C1", c1.profiles)
