"""The verdict of scripts/bench_pairs.py on synthetic paired runs."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)
verdict = bench_pairs.verdict

# ten runs around 100 with quartiles 99.25 and 100.75
BASE = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]


def test_worse_by_more_than_the_bound():
    assert verdict(BASE, [x * 0.7 for x in BASE], "higher", 0.25) == "worse"
    assert verdict(BASE, [x * 1.3 for x in BASE], "lower", 0.25) == "worse"
    # within the bound and not a clear gain
    assert verdict(BASE, [x * 0.8 for x in BASE], "higher", 0.25) == "flat"


def test_better_needs_nine_wins_in_ten_and_a_gain_past_the_iqr():
    assert verdict(BASE, [x + 5 for x in BASE], "higher", 0.25) == "better"
    assert verdict(BASE, [x - 5 for x in BASE], "lower", 0.25) == "better"
    # nine wins of ten still count
    head = [x + 5 for x in BASE]
    head[0] = 90
    assert verdict(BASE, head, "higher", 0.25) == "better"
    # eight wins do not
    head[1] = 90
    assert verdict(BASE, head, "higher", 0.25) == "flat"
    # every pair won, but by less than the base IQR
    assert verdict(BASE, [x + 0.5 for x in BASE], "higher", 0.25) == "flat"
    # a gain in the wrong direction is no gain
    assert verdict(BASE, [x + 5 for x in BASE], "lower", 0.25) == "flat"


def test_unresolved_when_the_base_spreads_past_the_bound():
    wide = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
    assert verdict(wide, [x + 1 for x in wide], "higher", 0.25) == "unresolved"
    # unless every head run beats every base run
    assert verdict(wide, [x + 100 for x in wide], "higher", 0.25) == "better"
    assert verdict(wide, [x / 10 for x in wide], "lower", 0.25) == "better"
    # worse is decided before the spread
    assert verdict(wide, [x / 2 for x in wide], "higher", 0.25) == "worse"
