import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_compare_signs_each_metric_by_its_direction():
    # lower is better: a drop is a gain, and each pair is won or lost on its own values
    wall = bench_pairs.compare([4.4, 4.5, 4.3, 4.4, 4.6], [0.5, 0.6, 4.7, 0.5, 0.5], "lower", 0.2)
    assert (wall["wins"], wall["pairs"]) == (4, 5)
    assert wall["base"]["median"] == 4.4 and wall["change"]["median"] == 0.5
    assert (wall["base"]["q1"], wall["base"]["q3"]) == (4.4, 4.5)
    assert wall["worse_by"] == pytest.approx(0.5 / 4.4 - 1) and wall["within_bound"]
    # each pair's change / base, in pair order, with its median and quartiles
    ratio = wall["pair_ratio"]
    assert ratio["values"] == pytest.approx([0.5 / 4.4, 0.6 / 4.5, 4.7 / 4.3, 0.5 / 4.4, 0.5 / 4.6])
    assert ratio["median"] == pytest.approx(0.5 / 4.4)
    assert (ratio["q1"], ratio["q3"]) == pytest.approx((0.5 / 4.4, 0.6 / 4.5))
    # higher is better: a drop is a loss, ties count for neither side
    ops = bench_pairs.compare([100, 100], [90, 100], "higher", 0.01)
    assert ops["wins"] == 0
    assert ops["rel_change"] == pytest.approx(-0.05) and ops["worse_by"] == pytest.approx(0.05)
    assert not ops["within_bound"]
    assert ops["pair_ratio"]["values"] == pytest.approx([0.9, 1.0])
    # a side whose base reads 0 has no ratio
    assert bench_pairs.compare([0, 0], [0, 1], "lower", 0.2)["pair_ratio"] is None
    assert bench_pairs.compare([0, 2], [1, 1], "lower", 0.2)["pair_ratio"]["values"] == [0.5]

