"""CSV interchange for graded operators.

A matrix travels as a CSV listing of nonzero entries with columns i,j,re,im
(0-based indices) next to a JSON sidecar carrying the grading metadata
{n_plus, n_minus, parity, hermitian}.  Floats are written with 17 significant
digits so a round trip reproduces the matrix bit-exactly.
"""
from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .grading import GradedOperator, GradedSpace

HEADER = ("i", "j", "re", "im")


def write_operator(op: GradedOperator, csv_path) -> None:
    csv_path = Path(csv_path)
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(HEADER)
        rows, cols = np.nonzero(op.matrix)
        for i, j in zip(rows.tolist(), cols.tolist()):
            v = op.matrix[i, j]
            writer.writerow([i, j, repr(float(v.real)), repr(float(v.imag))])
    meta = {
        "n_plus": op.space.n_plus,
        "n_minus": op.space.n_minus,
        "parity": op.parity,
        "hermitian": op.hermitian,
    }
    with open(csv_path.with_suffix(".json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_operator(csv_path) -> GradedOperator:
    csv_path = Path(csv_path)
    with open(csv_path.with_suffix(".json")) as fh:
        meta = json.load(fh)
    space = GradedSpace(int(meta["n_plus"]), int(meta["n_minus"]))
    m = np.zeros((space.n, space.n), dtype=complex)
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(h.strip() for h in header) != HEADER:
            raise ValueError(f"unexpected CSV header {header!r}")
        for row in reader:
            if not row:
                continue
            i, j = int(row[0]), int(row[1])
            m[i, j] = complex(float(row[2]), float(row[3]))
    return GradedOperator(
        m, space, parity=meta.get("parity", "none"),
        hermitian=bool(meta.get("hermitian", False)),
    )
