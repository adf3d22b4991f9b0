"""Golden decision digests: every learner's decisions on short stream prefixes.

Each case trains one learner test-then-train over a fixed prefix and
hashes its integer outputs: the prediction returned by every ``train_one``
call, the ``split_log`` and the final ``tree_size()``.  The expected
SHA-256 values are committed here, so a refactor that keeps the
learners' decisions leaves them unchanged.  A mismatch means some
prediction, split time, split attribute or node count moved.
"""
import hashlib
import json
import random

import pytest

from streamtree.experiment import make_learner
from streamtree.streams import CsvColumn, CsvStream, LedStream, RbfStream, SeaStream
from streamtree.tree import TreeConfig

ALGORITHMS = ("vfdt", "svfdt-i", "svfdt-ii")
MODES = ("mc", "nb")

CSV_COLUMNS = [
    CsvColumn("colour", "nominal", ("red", "green", "blue")),
    CsvColumn("x", "numeric"),
    CsvColumn("shape", "nominal", ("round", "square")),
    CsvColumn("y", "numeric"),
]


def write_csv(path, n: int, seed: int) -> None:
    """Three classes over interleaved nominal and numeric columns, 10% noise."""
    rng = random.Random(seed)
    colours = CSV_COLUMNS[0].values
    shapes = CSV_COLUMNS[2].values
    with open(path, "w", encoding="utf-8") as handle:
        for _ in range(n):
            c = rng.randrange(3)
            colour = c if rng.random() < 0.7 else rng.randrange(3)
            x = rng.gauss(c, 1.5)
            shape = rng.randrange(2)
            y = rng.uniform(0, 10) + (3 if shape and c == 2 else 0)
            label = c if rng.random() < 0.9 else rng.randrange(3)
            handle.write(f"{colours[colour]},{x!r},{shapes[shape]},{y!r},c{label}\n")


def stream_prefix(name: str, tmp_path):
    if name == "led":
        return LedStream(noise=0.1, seed=7, n=6000)
    if name == "sea":
        return SeaStream(seed=7, n=6000)
    if name == "rbf10":
        return RbfStream(n_attrs=10, seed=7, n=4000)
    path = tmp_path / "golden.csv"
    write_csv(path, 5000, seed=7)
    return CsvStream(path, CSV_COLUMNS, ("c0", "c1", "c2"))


def decision_digest(learner, stream) -> str:
    predictions = [learner.train_one(instance) for instance in stream]
    payload = json.dumps({
        "predictions": predictions,
        "split_log": [list(entry) for entry in learner.split_log],
        "tree_size": list(learner.tree_size()),
    })
    return hashlib.sha256(payload.encode()).hexdigest()


GOLDEN = {
    ("led", "vfdt", "mc"): "b0999aa09e1d2aff9be3f23c320a26596c8aeb5cce396c8a6a87d587f6133c4e",
    ("led", "vfdt", "nb"): "24cf7008deb643ced15c17fbfc39710e24cc1b6ce51b97b44e30a5de225463d6",
    ("led", "svfdt-i", "mc"): "300a206cdc4557acdbe862782d72ab410ee14b2b9854407152cddcc66798b597",
    ("led", "svfdt-i", "nb"): "f7774bc3420ea8dfb7f4a53de8c027af7608d30bc973e972bb23908e215718bd",
    ("led", "svfdt-ii", "mc"): "300a206cdc4557acdbe862782d72ab410ee14b2b9854407152cddcc66798b597",
    ("led", "svfdt-ii", "nb"): "f7774bc3420ea8dfb7f4a53de8c027af7608d30bc973e972bb23908e215718bd",
    ("sea", "vfdt", "mc"): "25abe4183b9a203f47b458dc2df03e534d626ef4a65b857c867083b3cd255a62",
    ("sea", "vfdt", "nb"): "4ac60f896df19e571dfc6392d5c868c238e4a8e334aeda7225142ef269574f54",
    ("sea", "svfdt-i", "mc"): "36dbbaf5b2960a1e7a0abd2c10ec81da6cb39c2b2fbe87f4368061baa8e4e433",
    ("sea", "svfdt-i", "nb"): "9728b762a8680cc5fd2a04162c94f0bb19902ba70c00ca6d070245f8edaab031",
    ("sea", "svfdt-ii", "mc"): "f813f8d91c5fc9677762efbbade362db0f9e09e5ed1efd8282803ab3a48a7268",
    ("sea", "svfdt-ii", "nb"): "ad42aa2dd9fc200a8e61b3091b9e8c3535b89857e7f8d8b596233168b18b93d0",
    ("rbf10", "vfdt", "mc"): "80d3e4e16e49c4b6bda8e0135d065ea15334a896a8322f7a395fb21bbb31a8a0",
    ("rbf10", "vfdt", "nb"): "7765b085f0f3ff4bc8add6bd1e6a4bfd1cc4d7bee6f3807131d14e0ea36c8d93",
    ("rbf10", "svfdt-i", "mc"): "03aaffac5a0d76d5d079cb4a853040df05737660f4692665a369ea2e70096b28",
    ("rbf10", "svfdt-i", "nb"): "7571a18b541cb16b914c3c91a9c45a3dbb2421099a86a64e58b5fe75a5a28740",
    ("rbf10", "svfdt-ii", "mc"): "03aaffac5a0d76d5d079cb4a853040df05737660f4692665a369ea2e70096b28",
    ("rbf10", "svfdt-ii", "nb"): "7571a18b541cb16b914c3c91a9c45a3dbb2421099a86a64e58b5fe75a5a28740",
    ("csv", "vfdt", "mc"): "50fcd61fc6448e3c3e1918f8e70db6ebdc554c712514399cdd91948a2179eeaa",
    ("csv", "vfdt", "nb"): "1d033417344917351b5732c2a22da27715bb129e9e3ea710b3f1a0709ae8817b",
    ("csv", "svfdt-i", "mc"): "7e78ebfe48625a46db5ffe73a32ee6208dae48f72d06eb2ba73c144632383750",
    ("csv", "svfdt-i", "nb"): "ee54984caf72e8505bb56e43bc5c6a57559bea2f8f49fefbf5baaef9702a8ec5",
    ("csv", "svfdt-ii", "mc"): "7e78ebfe48625a46db5ffe73a32ee6208dae48f72d06eb2ba73c144632383750",
    ("csv", "svfdt-ii", "nb"): "ee54984caf72e8505bb56e43bc5c6a57559bea2f8f49fefbf5baaef9702a8ec5",
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("stream", ["led", "sea", "rbf10", "csv"])
def test_decisions_match_golden_digest(stream, algorithm, mode, tmp_path):
    source = stream_prefix(stream, tmp_path)
    config = TreeConfig(grace_period=100, tiebreak=0.1, leaf_prediction=mode)
    learner = make_learner(algorithm, source.schema, config)
    assert decision_digest(learner, source) == GOLDEN[stream, algorithm, mode]
