"""``tools/ab.py`` compares the benchmark's end-to-end metrics between two
trees over alternating runs.  A real comparison takes minutes, so its
statistics, verdicts and run order are pinned here on fixed numbers."""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

AB = Path(__file__).resolve().parents[1] / "tools" / "ab.py"


@pytest.fixture
def ab(monkeypatch):
    spec = importlib.util.spec_from_file_location("tools_ab", AB)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_quartiles_interpolate_between_order_statistics(ab):
    assert ab.quartiles([5.0]) == (5.0, 5.0, 5.0)
    assert ab.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert ab.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.25)


def test_relative_change_is_positive_where_the_change_is_worse(ab):
    assert ab.relative(110.0, 100.0, "lower") == pytest.approx(0.1)
    assert ab.relative(110.0, 100.0, "higher") == pytest.approx(-0.1)
    assert ab.relative(90.0, 100.0, "higher") == pytest.approx(0.1)
    assert str(ab.relative(1.0, 1.0, "higher")) == "0.0"
    assert ab.relative(0.0, 0.0, "lower") == 0.0
    assert ab.relative(2.0, 0.0, "lower") == math.inf
    assert ab.relative(2.0, 0.0, "higher") == -math.inf


BASE = [100.0, 101.0, 99.0, 100.5, 99.5]


def test_a_gain_in_every_pair_beyond_the_base_spread_is_claimed(ab):
    row = ab.compare(BASE, [110.0, 111.0, 109.0, 110.5, 109.5], "higher", 0.24)
    assert row["verdict"] == "claimed"
    assert (row["base"], row["change"], row["wins"], row["pairs"]) == (100.0, 110.0, 5, 5)
    assert (row["base_q1"], row["base_q3"]) == (99.5, 100.5)
    assert row["worse"] == pytest.approx(-0.1)
    # the same numbers where lower is better are a loss within the bound
    row = ab.compare(BASE, [110.0, 111.0, 109.0, 110.5, 109.5], "lower", 0.24)
    assert (row["verdict"], row["wins"]) == ("within bound", 0)


def test_a_gain_needs_nine_of_ten_pairs_and_the_base_spread(ab):
    # ahead in 4 of 5 pairs: below nine of ten
    row = ab.compare(BASE, [110.0, 111.0, 109.0, 110.5, 99.0], "higher", 0.24)
    assert (row["wins"], row["verdict"]) == (4, "within bound")
    # ahead in every pair, but by less than the base's interquartile range
    row = ab.compare(BASE, [100.5, 101.5, 99.5, 101.0, 100.0], "higher", 0.24)
    assert (row["wins"], row["verdict"]) == (5, "within bound")


def test_a_loss_past_the_bound_is_worse_than_bound(ab):
    row = ab.compare(BASE, [70.0, 71.0, 69.0, 70.5, 69.5], "higher", 0.24)
    assert row["verdict"] == "worse than bound"
    assert row["worse"] == pytest.approx(0.3)
    row = ab.compare(BASE, [80.0, 81.0, 79.0, 80.5, 79.5], "higher", 0.24)
    assert row["verdict"] == "within bound"


def test_a_spread_wider_than_the_bound_is_unresolved(ab):
    wide = [100.0, 150.0, 60.0, 140.0, 70.0]
    assert ab.compare(wide, BASE, "higher", 0.24)["verdict"] == "unresolved"
    # the change's spread counts too, and a loss past the bound is no verdict there
    assert ab.compare(BASE, [x / 2 for x in wide], "higher", 0.24)["verdict"] == "unresolved"
    assert ab.compare(BASE, BASE, "higher", 0.24)["spread"] == pytest.approx(0.01)


def test_too_few_pairs_are_unresolved(ab):
    assert ab.compare([100.0], [200.0], "higher", 0.24)["verdict"] == "unresolved"
    assert ab.compare([100.0, 100.0], [200.0, 200.0], "higher", 0.24)["verdict"] == "unresolved"
    assert ab.compare([100.0] * 3, [200.0] * 3, "higher", 0.24)["verdict"] == "claimed"
    with pytest.raises(ValueError):
        ab.compare(BASE, BASE[:4], "higher", 0.24)
    with pytest.raises(ValueError):
        ab.compare([], [], "higher", 0.24)


def test_an_unchanged_ratio_of_one_is_within_bound(ab):
    row = ab.compare([1.0] * 5, [1.0] * 5, "higher", 0.05)
    assert (row["verdict"], row["wins"], row["worse"], row["spread"]) == ("within bound", 0, 0, 0)


def test_runs_alternate_in_abba_order(ab):
    assert ab.order(1) == ["base", "change"]
    assert ab.order(3) == ["base", "change", "change", "base", "base", "change"]


def test_the_table_aligns_names_left_and_numbers_right(ab):
    header = ab.line(ab.COLUMNS, "verdict")
    assert header.startswith("metric ") and header.endswith("  bound  verdict")
    assert len(header) == sum(ab.COLUMNS.values()) + len("  verdict")
    row = ab.line(("ok_ratio", "1", "1", "1..1", "0/5", "+0.0%", "5%"), "within bound")
    cells = f"{'1':>12}{'1':>12}{'1..1':>24}{'0/5':>7}{'+0.0%':>9}{'5%':>7}"
    assert row == f"{'ok_ratio':<18}{cells}  within bound"


def test_the_base_is_a_revisions_src_alone(ab, tmp_path):
    git = ["git", "-C", str(ab.REPO)]
    head = ab.subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True)
    if head.returncode != 0:
        pytest.skip("not a git checkout")
    assert ab.extract("HEAD", tmp_path) == head.stdout.strip()
    assert [p.name for p in tmp_path.iterdir()] == ["src"]
    shown = ab.subprocess.run([*git, "show", "HEAD:src/preplay/core.py"], capture_output=True)
    assert (tmp_path / "src" / "preplay" / "core.py").read_bytes() == shown.stdout
