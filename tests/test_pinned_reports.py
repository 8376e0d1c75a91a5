"""The fixed behaviour, pinned: one seeded ``tinydes crossval`` over an IDX
pair and a CSV with all six methods and two folds, and one exported model's
C source.

The inputs come from ``SplitMix64`` and integer formulas, not from numpy's
Generator, whose streams numpy does not promise to keep across versions, so
the pins mean the same data on every numpy the project supports. The inputs
have at most 64 features: at 784, the BLAS kernel chosen for the KNORA
distance product can change a distance's last bits and with it a region.
Every path in the reports is relative, so ``config.txt`` is pinned too.
"""

import hashlib
import struct

import numpy as np
import pytest

from tinydes._rng import SplitMix64
from tinydes.bench import METHOD_ORDER
from tinydes.cli import main
from tinydes.tinyformat import emit_static_source

REPORT_SHA256 = {
    "results.csv": "05b14142f4610dd845029c4a9c876ce578d8ef46a165784c0163fcd6332c9f4a",
    "folds.csv": "acb0fc0ee5328fc8999c9b9563109821ba8fd09f046716e409cbc8d6a550b3ba",
    "accuracy_table.txt": "eb7f1ff210298773391e61cc6b94087fdd72e8fb4e5018c4c2b782a49b6bcff8",
    "cost_table.txt": "a80d8a9cbb20b25032b1fd327dbac25b1ab26c3352d5a129ce8901eef2be2067",
    "config.txt": "5b9165ec59e73a1a9691a3581d4f0904e5c3edae52afff09fd040e4b3990d76c",
}
MODEL_SHA256 = "dc4a4f5a6ef7e461b59800bdc96f55962712f1f33e8bddd43803b9cf4ee924a8"
SOURCE_SHA256 = "7062ec540aaf1869fc92f661d92334e833b6eff9fe4a5f321f044ab85d0cc071"


def draws(seed: int, n: int) -> np.ndarray:
    return SplitMix64(seed).next_block(n)


def write_pixels(images, labels, n=240, side=8):
    """An IDX pair of ``n`` ``side`` x ``side`` byte images in 3 classes;
    a class is the band of three pixels' sum, and every seventh label is
    shifted by one."""
    pixels = (draws(11, n * side * side) % np.uint64(256)).astype(np.int64).reshape(n, -1)
    cls = (pixels[:, 0] + pixels[:, 9] + pixels[:, 18]) * 3 // 768
    cls[::7] = (cls[::7] + 1) % 3
    images.write_bytes(struct.pack(">IIII", 0x803, n, side, side)
                       + pixels.astype(np.uint8).tobytes())
    labels.write_bytes(struct.pack(">II", 0x801, n) + cls.astype(np.uint8).tobytes())


def write_points(path, n=200, m=12):
    """A CSV of ``n`` rows of ``m`` eighths in [-64, 64) and a label column
    in 4 classes, from the signs of f0 + f1 and f2 - f3; every fifth label
    is shifted by one."""
    q = (draws(12, n * m) % np.uint64(1024)).astype(np.int64).reshape(n, m) - 512
    cls = 2 * (q[:, 0] + q[:, 1] > 0) + (q[:, 2] - q[:, 3] > 0)
    cls[::5] = (cls[::5] + 1) % 4
    head = ",".join(f"f{i}" for i in range(m)) + ",label\n"
    rows = (",".join(repr(v / 8) for v in row) + f",{c}\n" for row, c in zip(q.tolist(), cls))
    path.write_text(head + "".join(rows), encoding="utf-8")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """The inputs under data/, the crossval reports under out/ and one
    trained model under models/, all written with relative paths."""
    root = tmp_path_factory.mktemp("pinned")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        (root / "data").mkdir()
        write_pixels(root / "data" / "px-images-idx3-ubyte", root / "data" / "px-labels-idx1-ubyte")
        write_points(root / "data" / "points.csv")
        (root / "exp.cfg").write_text(
            "seed = 5\n"
            "n_splits = 2\n"
            "n_repeats = 1\n"
            "out_dir = out\n"
            "dataset.pixels.images = data/px-images-idx3-ubyte\n"
            "dataset.pixels.labels = data/px-labels-idx1-ubyte\n"
            "dataset.points.csv = data/points.csv\n"
            "dataset.points.label_column = label\n", encoding="utf-8")
        assert main(["crossval", "--config", "exp.cfg"]) == 0
        assert main(["train", "--dataset", "data/points.csv", "--label-column", "label",
                     "--j", "5", "--seed", "3", "--out", "models"]) == 0
    return root


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(REPORT_SHA256))
def test_report_pinned(workdir, name):
    assert sha256((workdir / "out" / name).read_bytes()) == REPORT_SHA256[name]


def test_model_and_source_pinned(workdir):
    blob = (workdir / "models" / "model_j5.tdes").read_bytes()
    assert sha256(blob) == MODEL_SHA256
    assert sha256(emit_static_source(blob).encode("utf-8")) == SOURCE_SHA256


def test_every_method_ran(workdir):
    # the pins cover all six methods on both datasets, none of them failed
    rows = (workdir / "out" / "results.csv").read_text().splitlines()[1:]
    ran = {tuple(r.split(",")[:2]) for r in rows if r.split(",")[8] == "ok"}
    assert ran == {(d, m) for d in ("pixels", "points") for m in METHOD_ORDER}
