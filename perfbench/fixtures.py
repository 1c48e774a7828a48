"""Seeded fixture generator for the resofilt benchmark workloads.

Every workload is a set of binary PGM/PPM files plus a ground-truth
document listing the planted objects.  The generator depends only on
NumPy (it does not import resofilt), so a change to the program never
changes its inputs.  The same workload name and seed always give the same
bytes.

Run it as a script to write a workload's scenes into a directory:

    python3 perfbench/fixtures.py --workload static-1024 --seed 1 --out DIR [--scenes K] [--smoke]

Each scene goes to ``DIR/scene<k>/`` with its images and ``truth.json``.
The benchmark runs it in a child process so that its memory stays out of
the measured process's peak RSS.
"""

from __future__ import annotations

import argparse
import json
import os

import numpy as np

# Frequencies (cycles/pixel) of the four reference harmonic pairs used by
# the repository's test fixtures; the benchmark draws amplitudes of 20-40
# and phases from the seed.
FREQS = [(0.11, 0.23), (0.27, 0.08), (0.34, 0.41), (0.05, 0.33)]
BASE = 64  # side of the default base region at the top-left corner

# Full-size and smoke-size parameters of each workload.  The pencil patches
# and the tracked object are 11 px squares, the README's operating point.
SPECS = {
    "static-1024": {
        "full": {"size": 1024, "pairs": 4, "patches": 24, "sides": tuple(range(7, 16))},
        "smoke": {"size": 256, "pairs": 4, "patches": 4, "sides": tuple(range(7, 16))},
    },
    "pencil-256": {
        "full": {"size": 256, "pairs": 2, "patches": 2, "sides": (11,)},
        "smoke": {"size": 128, "pairs": 2, "patches": 1, "sides": (11,)},
    },
    "track-rgb": {
        "full": {"size": 256, "pairs": 2, "frames": 24, "speckles": 3},
        "smoke": {"size": 128, "pairs": 2, "frames": 6, "speckles": 2},
    },
}


def texture(rng, n: int, pairs: int, mean: float = 128.0) -> np.ndarray:
    """Sum of ``pairs`` real 2D harmonics with seeded amplitudes and phases."""
    rows = np.arange(n)[:, None]
    cols = np.arange(n)[None, :]
    out = np.full((n, n), mean)
    for fx, fy in FREQS[:pairs]:
        amp = rng.uniform(20.0, 40.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        out += amp * np.cos(2.0 * np.pi * (fx * rows + fy * cols) + phase)
    return out


def _quantize(plane: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(plane), 0, 255).astype(np.uint8)


def write_pnm(path: str, planes) -> None:
    """Binary PGM for one plane, PPM for three."""
    n_rows, n_cols = planes[0].shape
    if len(planes) == 1:
        header, body = b"P5", _quantize(planes[0]).tobytes()
    else:
        header = b"P6"
        body = np.stack([_quantize(p) for p in planes], axis=-1).tobytes()
    with open(path, "wb") as fh:
        fh.write(header + f"\n{n_cols} {n_rows}\n255\n".encode() + body)


def _place(rng, n: int, side: int, taken, margin: int, gap: int):
    """Top-left corner of a side x side square: inside the margin, clear of
    the base region (plus the filter footprint) and of every taken square."""
    for _ in range(10_000):
        r, c = (int(v) for v in rng.integers(margin, n - margin - side, 2))
        if r < BASE + 16 and c < BASE + 16:
            continue
        if any(r < tr + ts + gap and tr < r + side + gap and c < tc + ts + gap and tc < c + side + gap
               for tr, tc, ts in taken):
            continue
        return r, c
    raise RuntimeError("could not place a patch; the fixture is too crowded")


def _box(r: int, c: int, side: int) -> list:
    return [r, c, r + side - 1, c + side - 1]


def _intensity(rng) -> float:
    """A patch level well away from the texture mean, dark or bright."""
    return float(rng.uniform(16, 56) if rng.random() < 0.5 else rng.uniform(200, 240))


def make_static(rng, out: str, size: int, pairs: int, patches: int, sides) -> dict:
    """One gray frame with constant square patches.

    Patch sides cycle through ``sides``, so every seed plants the same mix
    of sizes; positions, intensities, texture and noise follow the seed.
    """
    image = texture(rng, size, pairs) + rng.normal(0.0, 1.0, (size, size))
    taken, boxes = [], []
    for k in range(patches):
        side = sides[k % len(sides)]
        r, c = _place(rng, size, side, taken, margin=32, gap=40)
        taken.append((r, c, side))
        image[r : r + side, c : c + side] = _intensity(rng)
        boxes.append(_box(r, c, side))
    write_pnm(os.path.join(out, "frame0.pgm"), [image])
    return {"inputs": ["frame0.pgm"], "objects": [boxes], "shape": [size, size], "channels": 1}


def make_track(rng, out: str, size: int, pairs: int, frames: int, speckles: int) -> dict:
    background = [texture(rng, size, pairs) for _ in range(3)]
    side = 11
    step = np.array([2, 2]) if rng.random() < 0.5 else np.array([2, -2])
    drift = 2 * (frames - 1)
    row0 = int(rng.integers(BASE + 8, size - 16 - side - drift))
    col0 = (int(rng.integers(BASE + 8, size - 16 - side - drift)) if step[1] > 0
            else int(rng.integers(BASE + 8 + drift, size - 16 - side)))
    colour = [_intensity(rng) for _ in range(3)]
    inputs, objects = [], []
    for t in range(frames):
        r, c = (int(v) for v in np.array([row0, col0]) + t * step)
        planes = [p + rng.normal(0.0, 1.0, p.shape) for p in background]
        for plane, value in zip(planes, colour):
            plane[r : r + side, c : c + side] = value
        taken = [(r, c, side)]
        for _ in range(speckles):
            sr, sc = _place(rng, size, 3, taken, margin=16, gap=24)
            taken.append((sr, sc, 3))
            for plane in planes:
                plane[sr : sr + 3, sc : sc + 3] = _intensity(rng)
        name = f"frame{t:02d}.ppm"
        write_pnm(os.path.join(out, name), planes)
        inputs.append(name)
        objects.append([_box(r, c, side)])
    return {"inputs": inputs, "objects": objects, "shape": [size, size], "channels": 3}


def generate(workload: str, seed: int, out: str, smoke: bool = False, scene: int = 0) -> dict:
    """Write one scene of a workload into ``out``; return its truth document.

    Scenes of one seed are independent draws of the same fixture recipe.
    """
    params = dict(SPECS[workload]["smoke" if smoke else "full"])
    rng = np.random.default_rng([seed, sorted(SPECS).index(workload), scene])
    if workload == "track-rgb":
        truth = make_track(rng, out, **params)
    else:
        truth = make_static(rng, out, **params)
    truth.update(workload=workload, seed=seed, scene=scene, smoke=smoke, params=params)
    with open(os.path.join(out, "truth.json"), "w", encoding="utf-8") as fh:
        json.dump(truth, fh, indent=1)
    return truth


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SPECS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--scenes", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    for scene in range(args.scenes):
        path = os.path.join(args.out, f"scene{scene}")
        os.makedirs(path, exist_ok=True)
        generate(args.workload, args.seed, path, args.smoke, scene)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
