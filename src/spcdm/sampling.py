"""Uniform random block subsets (tau-nice sampling) and intersection moments."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SamplingSpec:
    """Parameters of a tau-nice sampling over blocks {0, ..., n-1}.

    Every draw picks a subset of exactly tau blocks, all tau-subsets
    equally likely.  Draws are keyed by (seed, round): the stream for
    a round is independent of whether earlier rounds were generated,
    so any round can be replayed in isolation.
    """

    n: int
    tau: int
    seed: int

    def __post_init__(self):
        if not 1 <= self.tau <= self.n:
            raise ValueError("tau must satisfy 1 <= tau <= n")


def draw(spec: SamplingSpec, round: int) -> np.ndarray:
    """Return the round-th subset as a sorted int64 array of size tau.

    Counter-based generator: key = seed, counter = round * 2**128, so
    distinct rounds use disjoint counter ranges.  The subset itself
    comes from a partial Fisher-Yates shuffle over a virtual identity
    array with sparse overrides; cost is O(tau), independent of n.
    """
    if round < 0:
        raise ValueError("round must be nonnegative")
    n, tau = spec.n, spec.tau
    rng = np.random.Generator(np.random.Philox(key=spec.seed, counter=round << 128))
    js = rng.integers(np.arange(tau, dtype=np.int64), n)
    swap: dict[int, int] = {}
    out = np.empty(tau, dtype=np.int64)
    for k in range(tau):
        j = int(js[k])
        ak = swap.get(k, k)
        aj = swap.get(j, j)
        out[k] = aj
        swap[j] = ak
        swap[k] = aj
    out.sort()
    return out


def hypergeom_pmf(omega: int, n: int, tau: int, l: int) -> float:
    """P(|J ∩ S| = l) for a fixed set J of size omega and uniform
    tau-subset S of an n-set: C(omega,l) C(n-omega,tau-l) / C(n,tau).

    Any integer l is accepted; outside the support
    [max(0, tau-(n-omega)), min(tau, omega)] the mass is zero.
    Exact integer arithmetic; the single big-int division rounds
    correctly, so the result is the nearest float to the true mass.
    """
    if not 0 <= omega <= n:
        raise ValueError("omega must satisfy 0 <= omega <= n")
    if not 0 <= tau <= n:
        raise ValueError("tau must satisfy 0 <= tau <= n")
    if l < 0 or l > omega or tau - l < 0 or tau - l > n - omega:
        return 0.0
    return math.comb(omega, l) * math.comb(n - omega, tau - l) / math.comb(n, tau)


def expected_intersection_sq(j_size: int, n: int, tau: int) -> float:
    """E[|J ∩ S|^2] under tau-nice sampling, |J| = j_size.

    Closed form (|J| tau / n) (1 + (|J|-1)(tau-1) / max(1, n-1)).
    """
    if not 0 <= j_size <= n:
        raise ValueError("j_size must satisfy 0 <= j_size <= n")
    if not 1 <= tau <= n:
        raise ValueError("tau must satisfy 1 <= tau <= n")
    return (j_size * tau / n) * (1.0 + (j_size - 1) * (tau - 1) / max(1, n - 1))
