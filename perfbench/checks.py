"""Untimed output checks: an independent maximum-witness reference and report checks.

The reference packs rows of A and columns of B into uint64 words with numpy,
ANDs them, and reads the top set bit of the highest nonzero word. It shares
no code with the package.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np


def _pack_rows(m: np.ndarray) -> np.ndarray:
    rows, cols = m.shape
    words = (cols + 63) // 64
    buf = np.zeros((rows, words * 8), np.uint8)
    buf[:, : (cols + 7) // 8] = np.packbits(m, axis=1, bitorder="little")
    return buf.view("<u8")


def _bit_length(w: np.ndarray) -> np.ndarray:
    for shift in (1, 2, 4, 8, 16, 32):
        w = w | (w >> np.uint64(shift))
    return np.bitwise_count(w).astype(np.int64)


def max_witness(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n, n) int64 array of maximum witnesses of the 0/1 product a @ b; -1 where none."""
    ap, bp = _pack_rows(a), _pack_rows(np.ascontiguousarray(b.T))
    n, words = ap.shape[0], ap.shape[1]
    cols = np.arange(bp.shape[0])
    out = np.full((n, bp.shape[0]), -1, np.int64)
    for i in range(n):
        m = ap[i] & bp
        nz = m != 0
        top = words - 1 - np.argmax(nz[:, ::-1], axis=1)
        bits = _bit_length(m[cols, top])
        out[i] = np.where(nz.any(axis=1), top * 64 + bits - 1, -1)
    return out


def read_witnesses(path: Path, n: int) -> np.ndarray:
    """Witness array from a JSON report or an ``i,j,witness`` CSV file."""
    out = np.full((n, n), -1, np.int64)
    text = path.read_text()
    if path.suffix == ".csv":
        body = text.split("\n", 1)[1]
        rows = np.array(body.replace(",", " ").split(), np.int64).reshape(-1, 3)
    else:
        entries = json.loads(text)["result"]["entries"]
        rows = np.array([(e["i"], e["j"], e["witness"]) for e in entries], np.int64).reshape(-1, 3)
    out[rows[:, 0], rows[:, 1]] = rows[:, 2]
    return out


def check_durr_hoyer(report: dict) -> str | None:
    """Acceptance criteria 2-3: per-cell success floor and query slope in [0.4, 0.6]."""
    res = report["results"]
    for cell in res["cells"]:
        floor = 0.5 - 3 * math.sqrt(0.25 / cell["trials"])
        if cell["success_rate"] < floor:
            return f"q={cell['q']} {cell['shape']}: success {cell['success_rate']} < {floor:.4f}"
    if not 0.4 <= res["slope"] <= 0.6:
        return f"query slope {res['slope']} outside [0.4, 0.6]"
    return None


def check_accuracy(report: dict) -> str | None:
    res = report["results"]
    if res["error_rate"] > res["error_bound"]:
        return f"error_rate {res['error_rate']} > error_bound {res['error_bound']}"
    return None


def strip_timing(doc: dict) -> dict:
    """A report without what --timing adds: the timing block and config.timing."""
    doc = {k: v for k, v in doc.items() if k != "timing"}
    if "config" in doc:
        doc["config"] = {k: v for k, v in doc["config"].items() if k != "timing"}
    return doc
