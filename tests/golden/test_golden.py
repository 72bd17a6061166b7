"""Every CI smoke output prints what its golden file holds."""

from __future__ import annotations

import pytest

from tests.golden import CASES, matches, run


@pytest.mark.parametrize("case", CASES, ids=[case.name for case in CASES])
def test_output_matches_its_golden_file(case):
    rc, text = run(case)
    assert rc == case.rc
    golden = case.path.read_text()
    if not matches(golden, text):
        assert text == golden, (
            f"{case.name} moved; if the move is meant, regenerate with "
            f"`python -m tests.golden --update {case.name}` and name it in CHANGES.md"
        )


def test_floats_match_to_their_last_digits_and_nothing_else_moves():
    golden = '{"cost": 44414.27578097901, "hits": 12, "rate": 1e-05}'
    assert matches(golden, golden.replace("901", "902"))
    assert matches(golden, golden.replace("1e-05", "1.0000000000000002e-05"))
    assert not matches(golden, golden.replace("44414.2", "44415.2"))
    assert not matches(golden, golden.replace("12", "13"))
    assert not matches(golden, golden.replace('"hits"', '"misses"'))
    assert not matches(golden, golden.replace(', "rate": 1e-05', ''))
