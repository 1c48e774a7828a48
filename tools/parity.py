"""Byte parity of the resofilt command line between two source trees.

    python3 tools/parity.py --parent DIR

Writes each benchmark workload's scenes with ``perfbench/fixtures.py``
(``SCENES`` scenes for each fixture seed in ``SEEDS``) and, for every
seed and scene, runs these calls, each in a process of its own, once
with ``DIR/src`` and once with this checkout's ``src`` on ``PYTHONPATH``:

- the workload's benchmark call, as ``perfbench/run.py`` ``WORKLOADS``
  gives it;
- ``detect`` on the scene's first frame with ``--mask-out``,
  ``--overlay-out`` and ``--report-out``, in the workload's channel mode
  and, for an rgb workload, in gray mode too;
- ``detect`` on that frame in the workload's channel mode with no
  post-filter, ``--multiplier 2.5`` and ``--min-area 2``, so that a
  second band and its raw candidates are compared;
- ``design`` as the benchmark calls it, then ``filter`` with the model
  document that call wrote;
- ``estimate`` on the scene's first frame with the workload's order and
  estimator, whose model document goes to standard output;
- ``report`` on the run report of the workload's channel mode and on the
  model document.

Both sides run the same argv in directories of their own, so every output
file, the standard output and the exit code of each call must be equal.
Standard error is not compared: a warning names its source file.  For a
``.json`` output or a JSON standard output that differs, the first few
differing key paths follow the difference, such as
``config.split: null -> <missing>``.  Exit code 0
when everything is equal, 1 when anything differs (each difference is
printed), 2 when DIR holds no resofilt sources.
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
# run the sides with the benchmark's one BLAS thread
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CLI = "import sys; from resofilt.cli import main; sys.exit(main())"
SEEDS = (11, 13)
SCENES = 2
# differing key paths printed for each .json output that differs
KEY_PATHS = 3
_MISSING = object()


def _workloads() -> dict:
    """``WORKLOADS`` of ``perfbench/run.py``, which imports no resofilt
    module when it is loaded."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(PERFBENCH, "run.py"))
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.WORKLOADS


def _calls(wl, scene_dir: str, truth: dict) -> list:
    """(name, argv) of every call on one scene; outputs are relative paths,
    so both sides run the same argv."""
    inputs = [os.path.join(scene_dir, p) for p in truth["inputs"]]
    calls = [("benchmark", wl.run_args(inputs, "."))]
    for mode in dict.fromkeys((wl.channels, "gray")):
        calls.append((f"detect-{mode}", [
            "detect", "--input", inputs[0], "--order", wl.order,
            "--estimator", wl.estimator, "--channels", mode, "--hist-epsilon", "0.05",
            "--mask-out", f"mask-{mode}.out", "--overlay-out", f"overlay-{mode}.out",
            "--report-out", f"report-{mode}.json"]))
    calls.append(("detect-raw", [
        "detect", "--input", inputs[0], "--order", wl.order, "--estimator", wl.estimator,
        "--channels", wl.channels, "--post", "none", "--multiplier", "2.5", "--min-area", "2",
        "--mask-out", "raw-mask.out", "--report-out", "raw-report.json"]))
    design = wl.design_argv(scene_dir, truth)
    if design[-2] != "--model-out":
        raise SystemExit(f"parity: design argv {design} does not end in --model-out")
    calls.append(("design", design[:-1] + ["model.json"]))
    calls.append(("filter", ["filter", "--input", inputs[0], "--model", "model.json",
                             "--out", "filtered.out"]))
    calls.append(("estimate", ["estimate", "--input", inputs[0], "--order", wl.order,
                               "--estimator", wl.estimator]))
    calls.append(("report-run", ["report", "--path", f"report-{wl.channels}.json"]))
    calls.append(("report-model", ["report", "--path", "model.json"]))
    return calls


def _run(src: str, argv: list, cwd: str):
    """(exit code, stdout bytes) of one CLI call against the sources in ``src``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update({name: "1" for name in BLAS_ENV}, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", CLI, *argv], cwd=cwd, env=env,
                          capture_output=True, timeout=600)
    return done.returncode, done.stdout


def _files(top: str) -> dict:
    """Bytes of every file under ``top``, by relative path."""
    found = {}
    for here, _, names in os.walk(top):
        for name in names:
            path = os.path.join(here, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, top)] = fh.read()
    return found


def json_diffs(old, new, path=""):
    """Key paths at which two parsed JSON values differ, depth first in
    sorted key order, each as ``path: old -> new``.  Lists of equal length
    are compared item by item; a key on one side only reads ``<missing>``."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new)):
            yield from json_diffs(old.get(key, _MISSING), new.get(key, _MISSING),
                                  f"{path}.{key}" if path else key)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from json_diffs(a, b, f"{path}[{i}]")
    elif type(old) is not type(new) or old != new:
        show = [("<missing>" if v is _MISSING else json.dumps(v))[:60] for v in (old, new)]
        yield f"{path or '<root>'}: {show[0]} -> {show[1]}"


def _json_paths(old, new) -> list:
    """The first ``KEY_PATHS`` differing key paths of two JSON texts' bytes,
    or none when a side is missing or does not parse."""
    try:
        docs = [json.loads(side) for side in (old, new)]
    except (TypeError, ValueError):
        return []
    return list(itertools.islice(json_diffs(*docs), KEY_PATHS))


def call_diff(tag: str, call: str, old, new):
    """The difference line of one call's (exit code, stdout) on both sides,
    with the first differing key paths of a JSON stdout; None when equal."""
    if old == new:
        return None
    (pc, po), (cc, co) = old, new
    return "\n    ".join([f"{tag} {call}: exit {pc} -> {cc}, stdout "
                           f"{'equal' if po == co else 'differs'}", *_json_paths(po, co)])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="checkout whose src/ is compared with this one's")
    args = parser.parse_args(argv)
    sides = {"parent": os.path.join(os.path.abspath(args.parent), "src"),
             "change": os.path.join(ROOT, "src")}
    for src in sides.values():
        if not os.path.isfile(os.path.join(src, "resofilt", "cli.py")):
            print(f"parity: no resofilt sources under {src}", file=sys.stderr)
            return 2

    diffs, calls, files, failed = [], 0, 0, 0
    with tempfile.TemporaryDirectory(prefix="parity-") as work:
        for name, wl in _workloads().items():
            for seed in SEEDS:
                fixtures = os.path.join(work, "fixtures", name, str(seed))
                subprocess.run([sys.executable, os.path.join(PERFBENCH, "fixtures.py"),
                                "--workload", name, "--seed", str(seed), "--out", fixtures,
                                "--scenes", str(SCENES)], check=True, timeout=600)
                for k in range(SCENES):
                    scene_dir = os.path.join(fixtures, f"scene{k}")
                    with open(os.path.join(scene_dir, "truth.json"), encoding="utf-8") as fh:
                        truth = json.load(fh)
                    tag = f"{name} seed {seed} scene {k}"
                    outs = {side: os.path.join(work, side, name, str(seed), str(k))
                            for side in sides}
                    for out in outs.values():
                        os.makedirs(out)
                    for call, cli_argv in _calls(wl, scene_dir, truth):
                        got = {side: _run(src, cli_argv, outs[side])
                               for side, src in sides.items()}
                        calls += 1
                        failed += any(code != 0 for code, _ in got.values())
                        line = call_diff(tag, call, got["parent"], got["change"])
                        if line:
                            diffs.append(line)
                    written = {side: _files(out) for side, out in outs.items()}
                    files += len(written["change"])
                    for path in sorted(set(written["parent"]) | set(written["change"])):
                        old, new = (written[side].get(path) for side in sides)
                        if old != new:
                            keys = _json_paths(old, new) if path.endswith(".json") else []
                            diffs.append("\n    ".join(
                                [f"{tag}: {path} differs or is missing on one side", *keys]))
    for line in diffs:
        print(line)
    print(f"parity: {calls} calls ({failed} with a nonzero exit on a side), "
          f"{files} output files: {len(diffs)} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    raise SystemExit(main())
