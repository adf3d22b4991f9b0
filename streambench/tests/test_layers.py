"""The per-layer metrics a traced run prints are the ones BENCHMARK.json lists.

    python3 -m pytest streambench/tests -q
"""
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

from layers import per_layer_names  # noqa: E402


def test_per_layer_names_match_benchmark_json():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in doc["per_layer"]] == per_layer_names()
