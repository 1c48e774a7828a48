"""The key-path report of the source-tree parity tool (tools/parity.py)."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "parity.py"
_SPEC = importlib.util.spec_from_file_location("parity_tool", _PATH)
parity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(parity)


def test_json_diffs_name_each_differing_key_path():
    old = {"config": {"order": [4, 4], "split": None, "post": "hist"},
           "frames": [{"boxes": [1, 2]}, {"boxes": []}], "flag": 1}
    new = {"config": {"order": [4, 6], "post": "hist", "post_rule": "or"},
           "frames": [{"boxes": [1, 2]}, {"boxes": [3]}], "flag": True}
    assert list(parity.json_diffs(old, new)) == [
        "config.order[1]: 4 -> 6",
        "config.post_rule: <missing> -> \"or\"",
        "config.split: null -> <missing>",
        "flag: 1 -> true",
        "frames[1].boxes: [] -> [3]",
    ]
    assert list(parity.json_diffs(old, old)) == []
    assert list(parity.json_diffs([1], {"a": 1})) == ['<root>: [1] -> {"a": 1}']


def test_json_paths_keep_the_first_few_and_skip_what_does_not_parse():
    old = b'{"a": 1, "b": 2, "c": 3, "d": 4}'
    new = b'{"a": 0, "b": 0, "c": 0, "d": 0}'
    assert parity._json_paths(old, new) == ["a: 1 -> 0", "b: 2 -> 0", "c: 3 -> 0"]
    assert parity._json_paths(old, b"{") == []
    assert parity._json_paths(old, None) == []
