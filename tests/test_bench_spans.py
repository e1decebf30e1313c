"""The benchmark's layer hooks (``bench/spans.py``) must keep naming real
library functions: a layer that is moved or renamed would otherwise only
break a traced benchmark run."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import preplay.cli  # instrument wraps every loaded preplay module
from preplay import Offer, OfferSet, core, offers

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
CLI_CHILD = SPANS.parent / "cli_child.py"


@pytest.fixture
def spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_layer_names_a_callable(spans):
    for name in spans.LAYERS:
        module, attr = name.split(".")
        owner = importlib.import_module(f"preplay.{module}")
        assert callable(getattr(owner, attr, None)), name


def layer_attributes(spans):
    attrs = {name.split(".")[1] for name in spans.LAYERS}
    held = {
        (module_name, attr): getattr(module, attr)
        for module_name, module in sys.modules.items()
        if module_name.split(".")[0] == "preplay"
        for attr in attrs
        if hasattr(module, attr)
    }
    held["Game.__init__"] = core.Game.__dict__["__init__"]
    return held


def test_instrument_records_a_span_and_restores_every_layer(spans, m0):
    before = layer_attributes(spans)
    offer_set = OfferSet(m0.space, (Offer("I", "II", "C", 1),))
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        offers.apply_offer_set(m0, offer_set)
    by_name = {span.name: span for span in tracer.spans}
    apply = by_name["offers.apply_offer_set"]
    assert apply.counts == {"cell_updates": 2}
    assert by_name["core.Game"].parent == apply.id
    after = layer_attributes(spans)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def traced_cli_child(tmp_path, *argv):
    """The names of the spans a traced CLI child records, one per call."""
    spans_path = tmp_path / "spans.jsonl"
    package_root = str(Path(preplay.cli.__file__).resolve().parents[1])
    env = dict(os.environ, BENCH_SPANS=str(spans_path), PYTHONPATH=package_root)
    result = subprocess.run(
        [sys.executable, str(CLI_CHILD), *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return [json.loads(line)["name"] for line in spans_path.read_text().splitlines()]


def test_traced_cli_child_records_the_layers_it_calls(tmp_path, m0):
    # the child imports only preplay.cli, so instrument finds the other layers
    # through the lazily loaded modules the package puts in sys.modules
    game = tmp_path / "m0.json"
    game.write_text(preplay.cli.serialize_game(m0))
    names = set(traced_cli_child(tmp_path, "analyze", str(game)))
    assert {"cli.parse_game", "analyze.pure_nash", "analyze.pareto_optimal"} <= names


def test_traced_demo_child_records_each_apply(tmp_path):
    # demo applies its two offers through apply_offer, which reaches the
    # apply layer through the offers module, so each apply is still a span
    names = traced_cli_child(tmp_path, "demo", "pd")
    assert names.count("offers.apply_offer_set") == 2
