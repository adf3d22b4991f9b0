import itertools
import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamtree.core import ConfigError, Instance
from streamtree.streams import (
    LED_SEGMENTS,
    CsvColumn,
    CsvStream,
    LedStream,
    RbfStream,
    SeaStream,
    StreamFormatError,
    sea_label,
)


class TestLedStream:
    def test_schema_shape(self):
        stream = LedStream(noise=0.1, seed=1, n=10)
        assert stream.schema.n_attributes == 24
        assert stream.schema.class_count == 10

    def test_digit_eight_lights_every_segment(self):
        assert LED_SEGMENTS[8] == (1, 1, 1, 1, 1, 1, 1)
        stream = LedStream(noise=0.0, seed=1, n=500)
        seen_eight = False
        for inst in stream:
            if inst.label == 8:
                assert inst.values[:7] == (1, 1, 1, 1, 1, 1, 1)
                seen_eight = True
        assert seen_eight

    def test_noiseless_segments_identify_the_digit(self):
        stream = LedStream(noise=0.0, seed=2, n=5000)
        lookup = {seg: digit for digit, seg in enumerate(LED_SEGMENTS)}
        correct = sum(lookup[inst.values[:7]] == inst.label for inst in stream)
        assert correct == 5000

    def test_noise_rate_matches_probability(self):
        stream = LedStream(noise=0.10, seed=3, n=100_000)
        flips = 0
        total = 0
        for inst in stream:
            expected = LED_SEGMENTS[inst.label]
            flips += sum(a != b for a, b in zip(inst.values[:7], expected))
            total += 7
        assert flips / total == pytest.approx(0.10, abs=0.01)

    def test_invalid_noise_rejected(self):
        with pytest.raises(ConfigError):
            LedStream(noise=1.5)
        with pytest.raises(ConfigError):
            LedStream(noise=-0.1)

    def test_deterministic_restart(self):
        stream = LedStream(noise=0.2, seed=9, n=200)
        assert list(stream) == list(stream)


class TestSeaStream:
    def test_label_rule(self):
        assert sea_label(0.0, 0.0, 8.0) == 0  # sum 0 is "<=" for any positive theta
        assert sea_label(5.0, 4.0, 8.0) == 1  # 9 > 8
        assert sea_label(5.0, 3.0, 8.0) == 0

    def test_stream_follows_block_thresholds(self):
        stream = SeaStream(seed=4, n=4000, noise=0.0)
        assert stream.block_size == 1000
        for i, inst in enumerate(stream):
            theta = stream.threshold_at(i)
            assert inst.label == sea_label(inst.values[0], inst.values[1], theta)

    def test_class_balance_at_theta_eight(self):
        # P(U + V <= 8) for U, V uniform on [0, 10] is 8^2/200 = 0.32.
        stream = SeaStream(seed=5, n=100_000, thresholds=(8.0,), noise=0.0)
        frac = sum(inst.label == 0 for inst in stream) / 100_000
        assert frac == pytest.approx(0.32, abs=0.02)

    def test_noise_flips_labels(self):
        noisy = SeaStream(seed=6, n=50_000, thresholds=(8.0,), noise=0.10)
        flipped = sum(
            inst.label != sea_label(inst.values[0], inst.values[1], 8.0)
            for inst in noisy
        )
        assert flipped / 50_000 == pytest.approx(0.10, abs=0.01)

    def test_empty_thresholds_rejected(self):
        with pytest.raises(ConfigError):
            SeaStream(seed=1, n=10, thresholds=())


class TestRbfStream:
    def test_deterministic_first_hundred(self):
        a = RbfStream(n_attrs=10, n_classes=2, n_centroids=50, seed=7, n=100)
        b = RbfStream(n_attrs=10, n_classes=2, n_centroids=50, seed=7, n=100)
        assert list(itertools.islice(a, 100)) == list(itertools.islice(b, 100))

    def test_labels_in_range(self):
        stream = RbfStream(n_attrs=5, n_classes=3, n_centroids=6, seed=8, n=2000)
        assert all(0 <= inst.label < 3 for inst in stream)

    def test_centroid_count_validation(self):
        with pytest.raises(ConfigError):
            RbfStream(n_attrs=5, n_classes=4, n_centroids=3, seed=1, n=10)

    def test_tiny_deviation_recovers_centroid_labels(self):
        # seed 2 puts the two centroids ~0.96 apart with distinct labels
        stream = RbfStream(
            n_attrs=10, n_classes=2, n_centroids=2, seed=2, n=10_000,
            deviation_range=(1e-4, 1e-4),
        )
        centroids, _ = stream.centroids
        # the two centroids must carry different labels for this oracle
        assert {c[1] for c in centroids} == {0, 1}
        correct = 0
        for inst in stream:
            best = min(
                centroids,
                key=lambda c: sum((x - y) ** 2 for x, y in zip(c[0], inst.values)),
            )
            correct += best[1] == inst.label
        assert correct / 10_000 >= 0.99

    def test_offsets_scale_with_deviation(self):
        wide = RbfStream(n_attrs=3, n_classes=2, n_centroids=2, seed=12, n=500,
                         deviation_range=(0.5, 0.5))
        narrow = RbfStream(n_attrs=3, n_classes=2, n_centroids=2, seed=12, n=500,
                           deviation_range=(1e-3, 1e-3))

        def spread(stream):
            centroids, _ = stream.centroids
            total = 0.0
            for inst in stream:
                best = min(
                    centroids,
                    key=lambda c: sum((x - y) ** 2 for x, y in zip(c[0], inst.values)),
                )
                total += math.dist(best[0], inst.values)
            return total / stream.n

        assert spread(wide) > 100 * spread(narrow)

    @staticmethod
    def reference_iter(stream):
        """The generator as it was before Box-Muller was inlined: a linear
        centroid scan and one ``random.gauss`` call per Gaussian draw."""
        rng = random.Random(stream.seed)
        centroids, cumulative = stream._draw_centroids(rng)
        total = cumulative[-1]
        for _ in range(stream.n):
            r = rng.random() * total
            idx = 0
            while cumulative[idx] < r:
                idx += 1
            center, label, _, stdev = centroids[idx]
            direction = [rng.gauss(0.0, 1.0) for _ in range(stream.n_attrs)]
            norm = math.sqrt(math.fsum(x * x for x in direction)) or 1.0
            magnitude = rng.gauss(0.0, 1.0) * stdev
            scale = magnitude / norm
            yield Instance(tuple(c + x * scale for c, x in zip(center, direction)), label)

    @pytest.mark.parametrize("seed,n_attrs,n_classes", [
        (1, 50, 2), (2, 50, 2), (7, 50, 2), (3, 10, 3), (4, 1, 2),
    ])
    def test_same_instances_as_the_reference_generator(self, seed, n_attrs, n_classes):
        # Odd and even draw counts per instance, so the cached second value
        # of a Box-Muller pair is carried across instances.
        stream = RbfStream(n_attrs=n_attrs, n_classes=n_classes, n_centroids=50,
                           seed=seed, n=10_000)
        assert list(stream) == list(self.reference_iter(stream))


@st.composite
def generator_configs(draw):
    kind = draw(st.sampled_from(["led", "sea", "rbf"]))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    if kind == "led":
        return LedStream(
            noise=draw(st.floats(min_value=0.0, max_value=1.0)),
            irrelevant=draw(st.integers(min_value=0, max_value=30)),
            seed=seed,
            n=40,
        )
    if kind == "sea":
        return SeaStream(
            seed=seed,
            n=40,
            noise=draw(st.floats(min_value=0.0, max_value=1.0)),
            thresholds=tuple(
                draw(st.lists(st.floats(min_value=0.0, max_value=20.0), min_size=1,
                              max_size=5))
            ),
        )
    return RbfStream(
        n_attrs=draw(st.integers(min_value=1, max_value=20)),
        n_classes=draw(st.integers(min_value=2, max_value=5)),
        n_centroids=draw(st.integers(min_value=5, max_value=50)),
        seed=seed,
        n=40,
    )


@given(generator_configs())
@settings(max_examples=60)
def test_generated_instances_conform_to_schema(stream):
    for inst in stream:
        stream.schema.check_values(inst.values)
        stream.schema.check_label(inst.label)


@pytest.mark.parametrize("seed", [1, 2, 3, 17, 2024])
@pytest.mark.parametrize("make", [
    lambda seed: LedStream(noise=0.1, seed=seed, n=2000),
    lambda seed: LedStream(noise=0.0, irrelevant=0, seed=seed, n=2000),
    lambda seed: SeaStream(seed=seed, n=2000),
    lambda seed: RbfStream(n_attrs=10, seed=seed, n=2000),
    lambda seed: RbfStream(n_attrs=50, n_classes=5, seed=seed, n=2000),
], ids=["led", "led-noiseless", "sea", "rbf10", "rbf50"])
def test_experiment_streams_conform_to_schema(make, seed):
    # The stream settings the experiments and the benchmark run, over longer
    # prefixes than the random configurations above.
    stream = make(seed)
    for inst in stream:
        stream.schema.check_values(inst.values)
        stream.schema.check_label(inst.label)


class TestCsvStream:
    COLUMNS = [
        CsvColumn("color", "nominal", ("red", "green", "blue")),
        CsvColumn("size", "numeric"),
    ]

    def make(self, tmp_path, text, **kwargs):
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8")
        return CsvStream(path, self.COLUMNS, ("no", "yes"), **kwargs)

    def test_round_trip(self, tmp_path):
        stream = self.make(tmp_path, "red,1.5,no\ngreen,2.0,yes\nblue,-3.25,no\n")
        instances = list(stream)
        assert [inst.values for inst in instances] == [(0, 1.5), (1, 2.0), (2, -3.25)]
        assert [inst.label for inst in instances] == [0, 1, 0]
        assert stream.schema.class_names == ("no", "yes")

    def test_header_skipped(self, tmp_path):
        stream = self.make(tmp_path, "color,size,label\nred,1.0,yes\n", has_header=True)
        assert len(list(stream)) == 1

    def test_wrong_column_count_names_row(self, tmp_path):
        stream = self.make(tmp_path, "red,1.5,no\ngreen,2.0\n")
        with pytest.raises(StreamFormatError, match="row 2") as err:
            list(stream)
        assert err.value.row == 2

    def test_leading_byte_order_mark_skipped(self, tmp_path):
        stream = self.make(tmp_path, "\ufeffred,1.5,no\n")
        assert [(inst.values, inst.label) for inst in stream] == [((0, 1.5), 0)]
        # A mark before a number was read as part of it: "cannot parse '\ufeff-2.5'".
        numeric_first = tmp_path / "numeric.csv"
        numeric_first.write_text("\ufeff-2.5,blue,yes\n", encoding="utf-8")
        stream = CsvStream(numeric_first, self.COLUMNS[::-1], ("no", "yes"))
        assert [(inst.values, inst.label) for inst in stream] == [((-2.5, 2), 1)]

    def test_blank_lines_at_the_end_ignored(self, tmp_path):
        stream = self.make(tmp_path, "red,1.5,no\ngreen,2.0,yes\n\n\r\n\n")
        assert [inst.values for inst in stream] == [(0, 1.5), (1, 2.0)]

    def test_blank_line_before_a_data_row_names_its_row(self, tmp_path):
        stream = self.make(tmp_path, "red,1.5,no\n\n\ngreen,2.0,yes\n")
        with pytest.raises(StreamFormatError, match="found 0 \\(row 2\\)") as err:
            list(stream)
        assert err.value.row == 2

    def test_unknown_nominal_value_names_value_and_column(self, tmp_path):
        stream = self.make(tmp_path, "purple,1.5,no\n")
        with pytest.raises(StreamFormatError, match="'purple'") as err:
            list(stream)
        assert err.value.column == "color"

    def test_bad_number_positioned(self, tmp_path):
        for cell in ("big", "nan", "inf", "-inf", "NaN", "Infinity"):
            stream = self.make(tmp_path, f"red,1.0,no\nred,{cell},yes\n")
            with pytest.raises(StreamFormatError, match=f"'{cell}'") as err:
                list(stream)
            assert (err.value.row, err.value.column) == (2, "size")

    def test_unknown_class_label(self, tmp_path):
        stream = self.make(tmp_path, "red,1.5,maybe\n")
        with pytest.raises(StreamFormatError, match="'maybe'"):
            list(stream)

    @pytest.mark.parametrize("columns, classes, message", [
        ([CsvColumn("c", "nominal", ("a", "a"))], ("p", "q"), "column 'c' declares 'a' twice"),
        ([CsvColumn("c", "nominal", ("a", "b", "a"))], ("p", "q"),
         "column 'c' declares 'a' twice"),
        ([CsvColumn("c", "nominal", ("a", "b"))], ("p", "p"), "class_names declare 'p' twice"),
    ], ids=["value-twice", "value-twice-apart", "class-twice"])
    def test_repeated_declared_value_rejected(self, tmp_path, columns, classes, message):
        # A repeated value would map to its last index, leaving an earlier index unused.
        path = tmp_path / "data.csv"
        path.write_text("a,p\na,p\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=message):
            CsvStream(path, columns, classes)


@pytest.mark.parametrize("column", ["size", None])
def test_stream_format_error_survives_pickling(column):
    error = StreamFormatError("non-finite number 'nan'", 4, column)
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is StreamFormatError
    assert (copy.row, copy.column, str(copy)) == (4, column, str(error))
    assert str(error) == "non-finite number 'nan' (row 4" + (
        ", column 'size')" if column else ")")
