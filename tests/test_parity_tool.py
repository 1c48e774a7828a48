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


def test_calls_end_in_estimate_and_report_on_the_documents_written_before():
    for wl in parity._workloads().values():
        truth = {"inputs": [f"f{i}.pgm" for i in range(3)]}
        calls = parity._calls(wl, "scene", truth)
        names = [name for name, _ in calls]
        assert names[-3:] == ["estimate", "report-run", "report-model"]
        assert calls[-3][1] == ["estimate", "--input", "scene/f0.pgm", "--order", wl.order,
                                "--estimator", wl.estimator]
        run_report, model = f"report-{wl.channels}.json", "model.json"
        assert calls[-2][1] == ["report", "--path", run_report]
        assert calls[-1][1] == ["report", "--path", model]
        # each report reads a document that an earlier call writes
        writes = [argv for _, argv in calls[:-3]]
        assert any(run_report in argv for argv in writes)
        assert any(argv[0] == "design" and argv[-1] == model for argv in writes)


def test_raw_detect_runs_a_second_band_after_the_detect_calls():
    for wl in parity._workloads().values():
        calls = parity._calls(wl, "scene", {"inputs": ["f0.pgm", "f1.pgm"]})
        names = [name for name, _ in calls]
        modes = list(dict.fromkeys((wl.channels, "gray")))
        raw = names.index("detect-raw")
        assert names[raw - len(modes) : raw] == [f"detect-{mode}" for mode in modes]
        assert calls[raw][1] == [
            "detect", "--input", "scene/f0.pgm", "--order", wl.order,
            "--estimator", wl.estimator, "--channels", wl.channels, "--post", "none",
            "--multiplier", "2.5", "--min-area", "2",
            "--mask-out", "raw-mask.out", "--report-out", "raw-report.json"]


def test_call_diff_names_the_key_paths_of_a_json_stdout():
    doc = b'{"diagnostics": {"fit_residual": 0.5, "split": 4}, "fit_residual": 0.5}'
    trimmed = b'{"diagnostics": {"split": 4}, "fit_residual": 0.5}'
    assert parity.call_diff("t", "estimate", (0, doc), (0, doc)) is None
    assert parity.call_diff("t", "estimate", (0, doc), (0, trimmed)) == (
        "t estimate: exit 0 -> 0, stdout differs\n"
        "    diagnostics.fit_residual: 0.5 -> <missing>")
    assert parity.call_diff("t", "report-run", (0, b"frame 0: 1\n"), (0, b"frame 0: 2\n")) == (
        "t report-run: exit 0 -> 0, stdout differs")
    assert parity.call_diff("t", "filter", (0, b""), (2, b"")) == (
        "t filter: exit 0 -> 2, stdout equal")
