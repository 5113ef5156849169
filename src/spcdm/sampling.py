"""Uniform random block subsets (tau-nice sampling) and their intersection pmf."""

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


def draw(spec: SamplingSpec, round: int, count: int | None = None) -> np.ndarray:
    """Return the round-th subset as a sorted int64 array of size tau.

    A round is defined by a freshly built Philox(key=seed, counter=round
    * 2**128) generator, so distinct rounds use disjoint counter ranges
    (_fresh_round).  The subset itself comes from a partial Fisher-Yates
    shuffle over a virtual identity array with sparse overrides; cost is
    O(tau), independent of n.

    With count, returns rounds round, ..., round + count - 1 as the rows
    of a (count, tau) array, each row equal to draw(spec, that round).
    The block is computed at once (_offsets); a round it cannot take, and
    every round when n >= 2**32, is drawn by _fresh_round.
    """
    round = int(round)
    rows = 1 if count is None else int(count)
    if round < 0:
        raise ValueError("round must be nonnegative")
    if rows < 0:
        raise ValueError("count must be nonnegative")
    if round + rows > 1 << 128:
        raise ValueError("rounds must be below 2**128")
    if not 0 <= int(spec.seed) < 1 << 128:
        raise ValueError("seed must satisfy 0 <= seed < 2**128")
    n, tau = spec.n, spec.tau
    out = np.empty((rows, tau), dtype=np.int64)
    fresh = np.ones(rows, dtype=bool)
    if count is not None and n < 1 << 32:  # integers' 64-bit path is not replayed
        offsets, fresh = _offsets(spec, round, rows)
        # distinct offsets, each at or past tau or equal to its own k: no swap
        # writes a slot a later one reads, so the subset is the offsets
        srt = np.sort(offsets, axis=1)
        plain = ((offsets >= tau) | (offsets == np.arange(tau))).all(axis=1) & ~fresh
        plain &= (srt[:, 1:] != srt[:, :-1]).all(axis=1)
        out[plain] = srt[plain]
        for t in np.flatnonzero(~plain & ~fresh).tolist():
            out[t] = _shuffle(offsets[t].tolist())
    for t in np.flatnonzero(fresh).tolist():
        out[t] = _fresh_round(spec, round + t)
    return out if count is not None else out[0]


def _fresh_round(spec: SamplingSpec, round: int) -> np.ndarray:
    """The round-th subset by definition: the k-th offset, uniform on
    [k, n), from a freshly built Philox(key=seed, counter=round << 128)."""
    gen = np.random.Generator(np.random.Philox(key=int(spec.seed), counter=round << 128))
    return _shuffle(gen.integers(np.arange(spec.tau, dtype=np.int64), spec.n).tolist())


def _shuffle(offsets: list) -> np.ndarray:
    """The sorted picks of a partial Fisher-Yates shuffle that swaps slot k
    with slot offsets[k], over a virtual identity array."""
    swap: dict[int, int] = {}
    out = []
    for k, j in enumerate(offsets):
        ak = swap.get(k, k)
        aj = swap.get(j, j)
        out.append(aj)
        swap[j] = ak
        swap[k] = aj
    out.sort()
    return np.array(out, dtype=np.int64)


_U64 = (1 << 64) - 1


# Philox4x64-10 (Salmon et al., SC'11): multipliers and key increments
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LO32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products m * x, the
    high word summed from the 32-bit halves of both factors."""
    mh, ml = np.uint64(m >> 32), np.uint64(m & 0xFFFFFFFF)
    xh, xl = x >> _S32, x & _LO32
    ll, lh, hl = xl * ml, xl * mh, xh * ml
    carry = ((ll >> _S32) + (lh & _LO32) + (hl & _LO32)) >> _S32
    return xh * mh + (lh >> _S32) + (hl >> _S32) + carry, x * np.uint64(m)


def _philox_words(seed: int, round: int, count: int, blocks: int) -> np.ndarray:
    """The first 4 * blocks 64-bit outputs of Philox(key=seed, counter=r << 128)
    for r = round, ..., round + count - 1, one row per round.

    Such a generator's b-th block is the bijection of counter
    (b + 1, 0, r mod 2**64, r >> 64), so every round is one pass.
    """
    r = np.arange(count, dtype=np.uint64)[:, None]
    lo = np.uint64(round & _U64) + r  # wraps past 2**64: carry into the high word
    c = [np.arange(1, blocks + 1, dtype=np.uint64), np.uint64(0), lo,
         np.uint64(round >> 64) + (lo < r)]
    k0, k1 = seed & _U64, seed >> 64
    for i in range(10):
        if i:
            k0, k1 = (k0 + _PHILOX_W[0]) & _U64, (k1 + _PHILOX_W[1]) & _U64
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c[0])
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c[2])
        c = [hi1 ^ c[1] ^ np.uint64(k0), lo1, hi0 ^ c[3] ^ np.uint64(k1), lo0]
    return np.stack(np.broadcast_arrays(*c), axis=-1).reshape(count, 4 * blocks)


def _offsets(spec: SamplingSpec, round: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The offsets integers(np.arange(tau), n) draws in each round, and
    which rounds rejected a draw (their offsets are not valid).

    numpy draws a bound below 2**32 by Lemire's method (ACM TOMACS 2019)
    on successive 32-bit halves of the stream, low half first: the
    offset is k + (u * (n - k) >> 32) unless the low word of that product
    is below 2**32 mod (n - k), which draws again.  Needs n < 2**32.
    """
    n, tau = spec.n, spec.tau
    words = _philox_words(int(spec.seed), round, count, -(-tau // 8))
    halves = np.stack((words & _LO32, words >> _S32), axis=-1)
    u = halves.reshape(count, 2 * words.shape[1])[:, :tau]
    excl = n - np.arange(tau, dtype=np.uint64)
    prod = u * excl
    rejected = ((prod & _LO32) < (np.uint64(1 << 32) % excl)).any(axis=1)
    return (prod >> _S32).astype(np.int64) + np.arange(tau), rejected


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
