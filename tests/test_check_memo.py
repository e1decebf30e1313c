"""The target of a reachability check remembers its last result, keyed by
the source's payoffs tuple (``characterize._check``): a check and a
synthesis on one pair make one C1/C2 pass between them, and nothing else
reads the remembered result."""

import copy
import gc
import pickle
import weakref

import pytest

from preplay import (
    Game,
    NameMismatch,
    NotEquivalent,
    ShapeMismatch,
    StrategySpace,
    apply_offer_set,
    check_equivalence,
    make_profile_dominant,
    synthesize_offers,
)
from preplay import characterize
from conftest import PD_PAYOFFS, pd_game


@pytest.fixture
def scanned(monkeypatch):
    """The (source, target) pairs ``characterize._scan`` runs on, in order."""
    pairs = []
    scan = characterize._scan

    def counting(source, target):
        pairs.append((source, target))
        return scan(source, target)

    monkeypatch.setattr(characterize, "_scan", counting)
    return pairs


def fresh(game):
    """An equal game built from ``game``'s fields: its own payoffs tuple,
    and no view or check cached on it."""
    return Game(game.players, game.strategies, game.payoffs)


def cooperative_pair():
    """The README's pair: the prisoner's dilemma and a reachable target."""
    pd = pd_game()
    return pd, apply_offer_set(pd, make_profile_dominant(pd, (0, 0), 1))


def unreachable_pair():
    # C1 holds and C2 fails
    return pd_game(), pd_game({**PD_PAYOFFS, ("C", "C"): (5, 3)})


def test_check_then_synthesis_scans_a_reachable_pair_once(scanned):
    for check_first in (True, False):
        source, target = cooperative_pair()
        if check_first:
            verdict = check_equivalence(source, target)
            result = synthesize_offers(source, target)
        else:
            result = synthesize_offers(source, target)
            verdict = check_equivalence(source, target)
        assert verdict.equivalent and apply_offer_set(source, result.offers) == target
        assert scanned == [(source, target)]
        scanned.clear()


def test_synthesis_of_a_checked_unreachable_pair_raises_the_verdict_found(scanned):
    for check_first in (True, False):
        source, target = unreachable_pair()
        if check_first:
            verdict = check_equivalence(source, target)
        with pytest.raises(NotEquivalent) as raised:
            synthesize_offers(source, target)
        if not check_first:
            verdict = check_equivalence(source, target)
        assert raised.value.verdict is verdict and not verdict.equivalent
        assert scanned == [(source, target)]
        scanned.clear()


def test_an_equal_but_distinct_source_is_scanned_again(scanned):
    for make_pair in (cooperative_pair, unreachable_pair):
        source, target = make_pair()
        verdict = check_equivalence(source, target)
        twins = [fresh(source), pickle.loads(pickle.dumps(source))]
        for twin in twins:
            assert twin == source and twin.payoffs is not source.payoffs
            assert check_equivalence(twin, target) == verdict
        assert scanned == [(source, target), *((twin, target) for twin in twins)]
        scanned.clear()


def test_a_mismatched_frame_raises_against_a_remembered_check():
    source, target = cooperative_pair()
    check_equivalence(source, target)
    synthesize_offers(source, target)
    # each source holds the very payoffs tuple the target remembers
    renamed = StrategySpace(("I", "III"), source.strategies)
    reshaped = StrategySpace(source.players, (("a", "b", "c", "d"), ("x",)))
    for space, error in ((renamed, NameMismatch), (reshaped, ShapeMismatch)):
        other = Game(space.players, space.strategies, source.payoffs, _space=space)
        assert other.payoffs is source.payoffs
        for call in (check_equivalence, synthesize_offers):
            with pytest.raises(error):
                call(other, target)


def test_a_checked_target_keeps_no_source_alive():
    _, target = cooperative_pair()
    source = fresh(pd_game())
    check_equivalence(source, target)
    synthesize_offers(source, target)
    assert "_checked" in vars(target)
    ref = weakref.ref(source)
    del source
    gc.collect()
    assert ref() is None
    assert check_equivalence(pd_game(), target).equivalent


def test_a_checked_target_pickles_and_copies_with_its_check(scanned):
    source, target = cooperative_pair()
    synthesize_offers(source, target)
    copies = [copy.copy(target), copy.deepcopy(target), pickle.loads(pickle.dumps(target))]
    for back in copies:
        assert back == target and vars(back) == vars(target)
        assert check_equivalence(source, back).equivalent
    # a copy shares the remembered payoffs tuple (a deep copy keeps a tuple of
    # Fractions as it is), and a pickled one holds a rebuilt tuple, so only
    # the pickled target is scanned again
    assert scanned == [(source, target), (source, copies[2])]


def test_remembered_checks_match_fresh_copies_on_the_corpus(corpus, perturbed_corpus):
    kinds = set()
    for (game, offers), (_, perturbed) in zip(corpus, perturbed_corpus):
        source, target = fresh(game), apply_offer_set(fresh(game), offers)
        other = fresh(perturbed)
        # check and synthesize against one source, then against another
        for s in (source, other):
            expected = characterize._check(fresh(s), fresh(target))
            verdict = check_equivalence(s, target)
            assert target._checked == (s.payoffs, expected)
            assert verdict == expected[0] == check_equivalence(fresh(s), fresh(target))
            if verdict.equivalent:
                assert synthesize_offers(s, target) == synthesize_offers(fresh(s), fresh(target))
            else:
                with pytest.raises(NotEquivalent) as raised:
                    synthesize_offers(s, target)
                assert raised.value.verdict is verdict
                kinds.add(verdict.violation.kind)
            assert target._checked == (s.payoffs, expected)
    assert kinds == {"C2"}
