"""Uniform random block subsets (tau-nice sampling) and intersection moments."""

from __future__ import annotations

import math
import threading
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
    swap: dict[int, int] = {}
    out = []
    # the k-th offset is uniform on [k, n).  One offset takes integers'
    # scalar path: the same value, without the array-bounds checks that
    # are most of the call's cost at tau = 1.
    gen = _keyed_generator(spec.seed, round)
    if tau == 1:
        offsets = [int(gen.integers(n))]
    else:
        offsets = gen.integers(np.arange(tau, dtype=np.int64), n).tolist()
    for k, j in enumerate(offsets):
        ak = swap.get(k, k)
        aj = swap.get(j, j)
        out.append(aj)
        swap[j] = ak
        swap[k] = aj
    out.sort()
    return np.array(out, dtype=np.int64)


_U64 = (1 << 64) - 1
_philox = threading.local()


def _keyed_generator(seed: int, round: int) -> np.random.Generator:
    """This thread's Generator, reset to Philox(key=seed, counter=round << 128).

    Resetting the key, the counter and the output buffer gives the stream
    of a freshly built Philox without the cost of building one per round.
    """
    seed, round = int(seed), int(round)
    if not 0 <= seed < 1 << 128:
        raise ValueError("seed must satisfy 0 <= seed < 2**128")
    if round >= 1 << 128:
        raise ValueError("round must be below 2**128")
    gen = getattr(_philox, "gen", None)
    if gen is None:
        gen = _philox.gen = np.random.Generator(np.random.Philox(0))
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, round & _U64, round >> 64], "key": [seed & _U64, seed >> 64]},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


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
