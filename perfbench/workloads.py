"""Workload definitions and seeded input generators for the time-to-target benchmark.

Inputs are generated here, never with ``spcdm.synth_problem``, so a later
change to that generator's random stream cannot change a workload.  The
program only ever sees the generated triplets or the svmlight text.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    """One pinned solve: input shape, loss, sampling and a fixed target.

    ``target`` is a fixed number on the traced objective F_mu + Psi; every
    seed reaches it at the same epoch count (see derive_targets.py).
    ``setup_reps`` is how many times one repeat builds the loss from the
    raw input before the solve; setup_s is their median.
    """

    name: str
    salt: int
    app: str
    m: int
    n: int
    omega: int
    tau: int
    mu: float
    lam: float | None
    target: float
    max_epochs: int
    input_format: str
    setup_reps: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="l1-l1reg-tau64",
            salt=1,
            app="l1",
            m=8000,
            n=20000,
            omega=5,
            tau=64,
            mu=0.1,
            lam=0.05,
            target=797.0,
            max_epochs=30,
            input_format="coo",
            setup_reps=7,
        ),
        Workload(
            name="linf-tau1",
            salt=2,
            app="linf",
            m=2000,
            n=5000,
            omega=5,
            tau=1,
            mu=0.1,
            lam=None,
            target=0.9299,
            max_epochs=20,
            input_format="coo",
            setup_reps=15,
        ),
        Workload(
            name="adaboost-svmlight-tau8",
            salt=3,
            app="adaboost",
            m=20000,
            n=10000,
            omega=20,
            tau=8,
            mu=1.0,
            lam=None,
            target=-0.00032,
            max_epochs=10,
            input_format="svmlight",
            setup_reps=1,
        ),
    )
}


@dataclass(frozen=True)
class Instance:
    """Generated triplets (row-major, ascending columns per row) and b."""

    m: int
    n: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    b: np.ndarray


def _column_regular_cols(rng: np.random.Generator, m: int, n: int, omega: int) -> np.ndarray:
    """(m, omega) distinct ascending column indices per row, every column
    used exactly m*omega/n times (n must divide m*omega).

    A random permutation of the column slots, then duplicate slots inside
    a row are swapped one at a time with random slots until none is left.
    Swapping one pair at a time keeps every column's count exact.
    """
    if (m * omega) % n:
        raise ValueError("n must divide m * omega")
    cols = rng.permutation(np.resize(np.arange(n, dtype=np.int64), m * omega))
    cols = cols.reshape(m, omega)
    flat = cols.reshape(-1)
    while True:
        cols.sort(axis=1)
        r, k = np.nonzero(cols[:, 1:] == cols[:, :-1])
        if r.size == 0:
            return cols
        others = rng.integers(0, m * omega, size=r.size)
        for p, q in zip(r * omega + k + 1, others):
            flat[p], flat[q] = flat[q], flat[p]


def generate(wl: Workload, seed: int) -> Instance:
    """The workload's instance for a seed; same seed, same arrays.

    Each row has exactly omega nonzeros and each column exactly
    m*omega/n, so no column is empty.  Values are +-U[0.1, 1] on a 1e-6
    grid (so the svmlight text round-trips them exactly); b is a random
    sign vector (the labels for adaboost).
    """
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    rng = np.random.default_rng([wl.salt, seed])
    cols = _column_regular_cols(rng, wl.m, wl.n, wl.omega).reshape(-1)
    rows = np.repeat(np.arange(wl.m, dtype=np.int64), wl.omega)
    nnz = rows.size
    mags = rng.integers(100_000, 1_000_001, size=nnz) / 1e6
    vals = np.where(rng.random(nnz) < 0.5, -mags, mags)
    b = np.where(rng.random(wl.m) < 0.5, -1.0, 1.0)
    return Instance(m=wl.m, n=wl.n, rows=rows, cols=cols, vals=vals, b=b)


def svmlight_text(inst: Instance) -> str:
    """svmlight/libsvm text of an instance: ``label idx:val ...``, 1-based."""
    vals = inst.vals.tolist()
    cols = (inst.cols + 1).tolist()
    labels = inst.b.tolist()
    ptr = np.searchsorted(inst.rows, np.arange(inst.m + 1)).tolist()
    lines = []
    for j in range(inst.m):
        toks = [f"{int(labels[j])}"]
        toks.extend(f"{cols[k]}:{vals[k]!r}" for k in range(ptr[j], ptr[j + 1]))
        lines.append(" ".join(toks))
    return "\n".join(lines) + "\n"


def write_input(wl: Workload, inst: Instance, workdir: Path) -> Path:
    """Write the raw input the program reads; returns its path."""
    workdir.mkdir(parents=True, exist_ok=True)
    if wl.input_format == "svmlight":
        path = workdir / "input.svm"
        path.write_text(svmlight_text(inst), encoding="utf-8")
        return path
    path = workdir / "input.npz"
    np.savez(
        path, m=inst.m, n=inst.n, rows=inst.rows, cols=inst.cols, vals=inst.vals, b=inst.b
    )
    return path
