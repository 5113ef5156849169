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
    out, fresh = np.empty((rows, spec.tau), dtype=np.int64), np.ones(rows, dtype=bool)
    if count is not None and spec.n < 1 << 32:  # integers' 64-bit path is not replayed
        offsets, fresh = _offsets(spec, round, rows)
        out = _shuffle(offsets)
    for t in np.flatnonzero(fresh).tolist():
        out[t] = _fresh_round(spec, round + t)
    return out if count is not None else out[0]


def _fresh_round(spec: SamplingSpec, round: int) -> np.ndarray:
    """The round-th subset by definition: the k-th offset, uniform on
    [k, n), from a freshly built Philox(key=seed, counter=round << 128)."""
    gen = np.random.Generator(np.random.Philox(key=int(spec.seed), counter=round << 128))
    return _shuffle(gen.integers(np.arange(spec.tau, dtype=np.int64), spec.n)[None])[0]


def _shuffle(offsets: np.ndarray, first: np.ndarray | None = None) -> np.ndarray:
    """The sorted picks of partial Fisher-Yates shuffles over a virtual
    identity array, one per row of the (count, tau) offsets: step k swaps
    slots k and offsets[:, k], in every row at once.  A row touches at
    most 2 tau slots, each a cell of its table: slot k < tau cell k, where
    the k-th pick ends, and offset k past tau cell tau + first[:, k], the
    first k naming it.  Taking that to be k is exact unless a row names an
    offset past tau twice, which shows as a repeated pick.  A row's offsets,
    cells and picks go down a column, in uint32 where they fit (half the memory)."""
    count, tau = offsets.shape
    cols = offsets.T.astype(np.uint32 if offsets.max(initial=0) < 1 << 32 else np.int64)
    at = np.where(cols < tau, cols, tau + (np.arange(tau)[:, None] if first is None else first.T))
    at = at * count + np.arange(count)
    table = np.concatenate((np.tile(np.arange(tau, dtype=cols.dtype)[:, None], count), cols))
    flat, picks = table.reshape(-1), np.empty_like(cols)
    for k in range(tau):  # no later step reads cell k
        picks[k] = flat[at[k]]
        flat[at[k]] = table[k]
    out = picks.T.astype(np.int64)
    out.sort(axis=1)
    twice = np.zeros(count, dtype=bool)
    twice[(np.flatnonzero(out.ravel()[1:] == out.ravel()[:-1]) + 1) // tau] = first is None
    if twice.any():  # one stable sort of the rows' offsets: the first k naming each
        off = offsets[twice]
        key = (off + np.arange(off.shape[0])[:, None] * (int(off.max()) + 1)).ravel()
        order = key.argsort(kind="stable")
        run = np.where(np.diff(key[order], prepend=-1) != 0, np.arange(key.size), 0)
        first = np.empty_like(order)
        first[order] = order[np.maximum.accumulate(run)] % tau
        out[twice] = _shuffle(off, first.reshape(off.shape))
    return out


_U64 = (1 << 64) - 1


# Philox4x64-10 (Salmon et al., SC'11): multipliers and key increments
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64)[:, None, None]
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)[:, None, None]
_LO32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)


def _mulhilo(m: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products m * x, the
    high word summed from the 32-bit halves of both factors."""
    mh, ml = m >> _S32, m & _LO32
    xh, xl = x >> _S32, x & _LO32
    mid = xl * mh
    mid += (xl * ml) >> _S32  # below 2**64, as is xh * ml + (mid & _LO32)
    hi = (xh * ml + (mid & _LO32)) >> _S32
    hi += mid >> _S32
    hi += xh * mh
    return hi, x * m


def _philox_words(seed: int, round: int, count: int, blocks: int) -> np.ndarray:
    """The first 4 * blocks 64-bit outputs of Philox(key=seed, counter=r << 128)
    for r = round, ..., round + count - 1, one row per round.

    Such a generator's b-th block is the bijection of counter (b + 1, 0,
    r mod 2**64, r >> 64), so every round is one pass (words 0, 2 stacked).
    """
    r = np.arange(count, dtype=np.uint64)[:, None]
    lo = np.uint64(round & _U64) + r  # wraps past 2**64: carry into the high word
    mul, odd = np.stack(np.broadcast_arrays(
        np.arange(1, blocks + 1, dtype=np.uint64), np.uint64(0), lo,
        np.uint64(round >> 64) + (lo < r))).reshape(2, 2, count, blocks).swapaxes(0, 1)
    key = np.array([seed & _U64, seed >> 64], dtype=np.uint64)[:, None, None]
    for i in range(10):
        if i:
            key = key + _PHILOX_W
        hi, lo = _mulhilo(_PHILOX_M, mul)
        mul, odd = hi[::-1] ^ odd ^ key, lo[::-1]
    return np.stack((mul[0], odd[0], mul[1], odd[1]), axis=-1).reshape(count, 4 * blocks)


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
