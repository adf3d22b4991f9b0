"""Hand cases for the benchmark's reference computations.

    python3 -m pytest streambench/tests -q
"""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import oracles  # noqa: E402


def test_bayes_rate_is_one_without_noise():
    # The ten seven-segment codes are distinct, so the pattern names the digit.
    assert oracles.led_bayes_rate(0.0) == 1.0


def test_bayes_rate_is_chance_at_half_noise():
    # Every pattern is equally likely under every digit: best guess is 1 in 10.
    assert oracles.led_bayes_rate(0.5) == pytest.approx(0.1, abs=1e-12)


@pytest.mark.parametrize("noise", [0.1, 0.3])
def test_bayes_rate_of_two_opposite_codes(noise):
    # Codes 00 and 11: patterns 00/11 go to their own digit, 01/10 are ties,
    # so the rate is ((1-p)^2 + p(1-p)) = 1 - p.
    assert oracles.led_bayes_rate(noise, {0: "00", 1: "11"}) == pytest.approx(1 - noise)


def test_bayes_rate_of_ten_percent_led():
    # The published optimum for LED at 10% noise is 74%.
    assert oracles.led_bayes_rate(0.1) == pytest.approx(0.74, abs=5e-4)


def test_seven_segment_table_codes_are_distinct():
    codes = [oracles.SEVEN_SEGMENT[d] for d in range(10)]
    assert len(set(codes)) == 10 and all(len(code) == 7 for code in codes)
    assert oracles.SEVEN_SEGMENT[8] == "1111111"
    assert oracles.SEVEN_SEGMENT[1] == "0010010"


def test_sea_concept_follows_block_thresholds():
    n = 400  # blocks of 100 with thresholds 8, 9, 7, 9.5
    assert oracles.sea_concept(4.0, 4.0, 0, n) == 0   # 8 <= 8
    assert oracles.sea_concept(4.0, 4.5, 99, n) == 1  # 8.5 > 8
    assert oracles.sea_concept(4.0, 4.5, 100, n) == 0  # 8.5 <= 9
    assert oracles.sea_concept(4.0, 3.5, 250, n) == 1  # 7.5 > 7
    assert oracles.sea_concept(4.0, 5.5, 399, n) == 0  # 9.5 <= 9.5


def test_majority_rate_counts_the_most_common_label():
    assert oracles.majority_rate([0, 1, 1, 2, 1]) == pytest.approx(0.6)
    with pytest.raises(ValueError):
        oracles.majority_rate([])


def test_binary_tree_identities():
    assert oracles.binary_tree_faults(7, 4, 3) == []
    assert oracles.binary_tree_faults(1, 1, 0) == []
    assert len(oracles.binary_tree_faults(8, 4, 3)) == 1
    assert len(oracles.binary_tree_faults(7, 4, 2)) == 1


def test_decision_digest_tracks_every_decision():
    base = oracles.decision_digest([([[200, 3], [900, 1]], 5, 3)])
    assert base == oracles.decision_digest([([(200, 3), (900, 1)], 5, 3)])
    assert base != oracles.decision_digest([([[200, 3], [901, 1]], 5, 3)])
    assert base != oracles.decision_digest([([[200, 3], [900, 1]], 5, 3), ([], 1, 1)])


def test_derive_seed_is_stable_and_distinct():
    assert oracles.derive_seed(1, "led-nb", 0) == oracles.derive_seed(1, "led-nb", 0)
    assert oracles.derive_seed(1, "led-nb", 0) != oracles.derive_seed(1, "led-nb", 1)
    assert oracles.derive_seed(1, "led-nb", 0) != oracles.derive_seed(2, "led-nb", 0)


def test_threshold_csv_has_one_separating_threshold(tmp_path):
    rows = oracles.threshold_csv_rows(5, 200)
    assert all((r[0] > oracles.CSV_THRESHOLD) == (r[3] == "pos") for r in rows)
    path = tmp_path / "nan.csv"
    oracles.write_csv(path, rows, nan_row=3)
    lines = path.read_text().splitlines()
    assert lines[0] == "x1,x2,color,label"
    assert lines[3].startswith("nan,") and not lines[2].startswith("nan,")
    assert len(lines) == 201
