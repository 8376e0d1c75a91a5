"""Output checks, failure counting and the percentile rule."""

from __future__ import annotations

import csv
import hashlib
import io

import numpy as np

# A tail percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def samples_beyond(n: int, pct: float) -> int:
    """How many of n samples lie strictly beyond the pct-th percentile."""
    return int(np.floor(n * (100.0 - pct) / 100.0 + 1e-9))


def percentile(values, pct: float) -> float:
    """The pct-th percentile, refused when fewer than MIN_BEYOND samples lie beyond it."""
    n = len(values)
    if samples_beyond(n, pct) < MIN_BEYOND:
        raise ValueError(f"p{pct:g} of {n} samples has fewer than {MIN_BEYOND} samples beyond it")
    return float(np.percentile(np.asarray(values, dtype=np.float64), pct))


def highest_percentile(n: int, candidates=(99.9, 99.0, 90.0, 50.0)) -> float | None:
    """The highest candidate percentile with at least MIN_BEYOND samples beyond it."""
    for pct in candidates:
        if samples_beyond(n, pct) >= MIN_BEYOND:
            return pct
    return None


class Ops:
    """Operations attempted and failed in one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, attempted: int, failed: int, note: str = "") -> None:
        if not 0 <= failed <= attempted:
            raise ValueError(f"failed {failed} outside 0..{attempted}")
        self.attempted += attempted
        self.failed += failed
        if failed and note:
            self.notes.append(note)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def parse_results(text: str) -> list[dict]:
    """Rows of a ``results.csv`` report as dicts keyed by its header."""
    return list(csv.DictReader(io.StringIO(text)))


def failed_rows(rows: list[dict]) -> int:
    return sum(1 for r in rows if r["status"] != "ok")


def row(rows: list[dict], method: str, params: str = "") -> dict:
    for r in rows:
        if r["method"] == method and r["params"] == params:
            return r
    raise KeyError(f"results.csv has no row {method} {params}")


def fold_fingerprints(folds_text: str) -> list[str]:
    """Distinct pool fingerprints of a ``folds.csv`` report, in fold order."""
    seen = []
    for r in csv.DictReader(io.StringIO(folds_text)):
        if r["pool_fingerprint"] not in seen:
            seen.append(r["pool_fingerprint"])
    return seen


def probe_mismatches(got, expected) -> int:
    """Probes whose (label, cost) differs from the reference; a missing
    result (an exception) counts as a mismatch."""
    if len(got) != len(expected):
        raise ValueError(f"{len(got)} results for {len(expected)} probes")
    return sum(1 for g, e in zip(got, expected) if g is None or tuple(g) != tuple(e))
