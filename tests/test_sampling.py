import itertools
import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from helpers import expected_intersection_sq
from spcdm.sampling import SamplingSpec, draw, hypergeom_pmf


def test_spec_validation():
    with pytest.raises(ValueError):
        SamplingSpec(n=4, tau=0, seed=0)
    with pytest.raises(ValueError):
        SamplingSpec(n=4, tau=5, seed=0)
    with pytest.raises(ValueError):
        draw(SamplingSpec(n=4, tau=2, seed=0), -1)


def _fresh_draw(spec, rnd):
    """draw as a freshly built Philox Generator per round computes it."""
    rng = np.random.Generator(np.random.Philox(key=spec.seed, counter=rnd << 128))
    js = rng.integers(np.arange(spec.tau, dtype=np.int64), spec.n)
    swap = {}
    out = np.empty(spec.tau, dtype=np.int64)
    for k in range(spec.tau):
        j = int(js[k])
        ak = swap.get(k, k)
        aj = swap.get(j, j)
        out[k] = aj
        swap[j] = ak
        swap[k] = aj
    out.sort()
    return out


ROUNDS = list(range(40)) + [2**40, 2**63 + 5, 2**64, 2**64 + 1, 2**70, 2**128 - 1]
# (first round, count): from 0; across 2**64, where the counter carries
# into its high word; up to the last round there is
BLOCKS = [(0, 12), (2**64 - 5, 10), (2**128 - 4, 4)]


@pytest.mark.parametrize("seed", [0, 1, 12345, 2**64 + 3, 2**128 - 1])
def test_draw_matches_a_fresh_generator_per_round(seed):
    # bounds below 2**32 draw from buffered 32-bit halves (n = 2**31 + 11
    # rejects about half of them); n >= 2**32 takes integers' 64-bit path
    for n in (1, 2, 9, 5000, 2**31 + 11, 2**32 - 1, 2**32 + 7):
        for tau in sorted({1, min(8, n), min(n, 40)} | ({n} if n <= 5000 else set())):
            spec = SamplingSpec(n=n, tau=tau, seed=seed)
            for rnd in ROUNDS:
                assert np.array_equal(draw(spec, rnd), _fresh_draw(spec, rnd)), (n, tau, rnd)
            # a block draw: every row is its round's fresh-generator subset
            for first, count in BLOCKS:
                block = draw(spec, first, count)
                assert block.shape == (count, tau) and block.dtype == np.int64
                for t in range(count):
                    fresh = _fresh_draw(spec, first + t)
                    assert np.array_equal(block[t], fresh), (n, tau, first + t)


def test_draw_rejects_keys_and_rounds_philox_cannot_take():
    with pytest.raises(ValueError):
        draw(SamplingSpec(n=4, tau=2, seed=-1), 0)
    with pytest.raises(ValueError):
        draw(SamplingSpec(n=4, tau=2, seed=2**128), 0)
    with pytest.raises(ValueError):
        draw(SamplingSpec(n=4, tau=2, seed=0), 2**128)
    # a block whose last round would be 2**128
    assert draw(SamplingSpec(n=4, tau=2, seed=0), 2**128 - 2, 2).shape == (2, 2)
    with pytest.raises(ValueError):
        draw(SamplingSpec(n=4, tau=2, seed=0), 2**128 - 2, 3)
    with pytest.raises(ValueError):
        draw(SamplingSpec(n=4, tau=2, seed=2**128), 0, 3)
    with pytest.raises(ValueError):
        draw(SamplingSpec(n=4, tau=2, seed=0), 0, -1)
    assert draw(SamplingSpec(n=4, tau=2, seed=0), 5, 0).shape == (0, 2)


def test_draw_in_two_threads_matches_the_serial_draws():
    # rejected rounds at n = 2**31 + 11 take the per-round path inside blocks
    specs = [SamplingSpec(n=n, tau=tau, seed=7) for n, tau in ((50, 6), (2**31 + 11, 8))]
    rounds = range(0, 200, 20)

    def draws():
        return [(draw(spec, r), draw(spec, r, 20)) for spec in specs for r in rounds]

    serial = draws()
    results = [None, None]
    start = threading.Barrier(2)

    def worker(k):
        start.wait()
        results[k] = draws()

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside a draw too
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got in results:
        assert len(got) == len(serial)
        for (one, block), (one_ref, block_ref) in zip(got, serial):
            assert np.array_equal(one, one_ref) and np.array_equal(block, block_ref)


def test_draw_is_valid_subset():
    for n, tau in [(1, 1), (5, 1), (5, 5), (12, 7), (100, 13)]:
        spec = SamplingSpec(n=n, tau=tau, seed=3)
        for rnd in range(20):
            s = draw(spec, rnd)
            assert s.shape == (tau,)
            assert np.all(np.diff(s) > 0), "sorted and duplicate-free"
            assert 0 <= s[0] and s[-1] < n


def test_draw_full_subset_is_identity():
    spec = SamplingSpec(n=9, tau=9, seed=11)
    for rnd in range(5):
        assert np.array_equal(draw(spec, rnd), np.arange(9))


def test_draw_deterministic_and_replayable():
    spec = SamplingSpec(n=50, tau=6, seed=123)
    first = [draw(spec, r) for r in range(10)]
    again = [draw(spec, r) for r in range(10)]
    for a, b in zip(first, again):
        assert np.array_equal(a, b)
    # round 7 replays identically without generating rounds 0..6
    assert np.array_equal(draw(spec, 7), first[7])
    other = SamplingSpec(n=50, tau=6, seed=124)
    assert any(not np.array_equal(draw(other, r), first[r]) for r in range(10))


def test_draw_uniform_singletons():
    # tau=1, n=4: each index should appear ~1/4 of the time
    spec = SamplingSpec(n=4, tau=1, seed=2024)
    ndraws = 40000
    counts = np.bincount(draw(spec, 0, ndraws)[:, 0], minlength=4)
    expected = ndraws / 4
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < stats.chi2.ppf(0.99, df=3)


def test_draw_uniform_pairs():
    # n=5, tau=2: all 10 pairs equally likely
    spec = SamplingSpec(n=5, tau=2, seed=99)
    pairs = {p: k for k, p in enumerate(itertools.combinations(range(5), 2))}
    counts = np.zeros(10)
    ndraws = 100000
    for row in draw(spec, 0, ndraws).tolist():
        counts[pairs[tuple(row)]] += 1
    expected = ndraws / 10
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < stats.chi2.ppf(0.99, df=9)


def test_hypergeom_pmf_small_example():
    vals = [hypergeom_pmf(2, 5, 2, l) for l in (0, 1, 2)]
    assert vals == pytest.approx([0.3, 0.6, 0.1], abs=1e-15)
    assert hypergeom_pmf(2, 5, 2, 3) == 0.0
    assert hypergeom_pmf(2, 5, 2, -1) == 0.0


def test_hypergeom_pmf_against_oracles():
    cases = [(2, 5, 2), (6, 10, 4), (50, 80, 30), (414, 3231961, 32), (6061, 100000, 16)]
    for omega, n, tau in cases:
        for l in range(0, min(tau, omega) + 1):
            mine = hypergeom_pmf(omega, n, tau, l)
            exact = Fraction(
                math.comb(omega, l) * math.comb(n - omega, tau - l), math.comb(n, tau)
            )
            assert mine == float(exact)
            # independent implementation, good to ~1e-9 at n in the millions
            ref = stats.hypergeom.pmf(l, n, omega, tau)
            assert mine == pytest.approx(ref, rel=1e-8, abs=1e-300)


def test_hypergeom_pmf_sums_to_one():
    for n in range(1, 13):
        for tau in range(0, n + 1):
            for omega in range(0, n + 1):
                total = sum(hypergeom_pmf(omega, n, tau, l) for l in range(0, tau + 1))
                assert total == pytest.approx(1.0, abs=1e-10)


def _enumerate_moments(j_size: int, n: int, tau: int):
    """Exhaustive second moment of |J ∩ S| and max_i E[|J ∩ S| 1(i in S)]."""
    J = set(range(j_size))
    subsets = list(itertools.combinations(range(n), tau))
    sq = 0.0
    ind = np.zeros(n)
    for s in subsets:
        k = len(J.intersection(s))
        sq += k * k
        for i in s:
            ind[i] += k
    return sq / len(subsets), ind.max() / len(subsets)


def test_expected_intersection_sq_example():
    assert expected_intersection_sq(2, 5, 2) == pytest.approx(1.0, abs=1e-15)


def test_expected_intersection_sq_exhaustive():
    for n in range(1, 9):
        for tau in range(1, n + 1):
            for j_size in range(0, n + 1):
                ref, _ = _enumerate_moments(j_size, n, tau)
                assert expected_intersection_sq(j_size, n, tau) == pytest.approx(
                    ref, abs=1e-9
                )


def test_intersection_indicator_identity_exhaustive():
    # max_i E[|J∩S| 1(i in S)] = (tau/n)(1 + (|J|-1)(tau-1)/max(1, n-1))
    for n in range(2, 9):
        for tau in range(1, n + 1):
            for j_size in range(1, n + 1):
                _, ref = _enumerate_moments(j_size, n, tau)
                closed = (tau / n) * (1 + (j_size - 1) * (tau - 1) / max(1, n - 1))
                assert closed == pytest.approx(ref, abs=1e-9)
                # and it ties to the second moment through |J|
                assert closed == pytest.approx(
                    expected_intersection_sq(j_size, n, tau) / j_size, abs=1e-9
                )


def test_draw_matches_exact_distribution_tiny():
    # n=4, tau=2: empirical subset frequencies against the exact 1/6
    spec = SamplingSpec(n=4, tau=2, seed=5)
    pairs = {p: k for k, p in enumerate(itertools.combinations(range(4), 2))}
    counts = np.zeros(6)
    ndraws = 60000
    for row in draw(spec, 0, ndraws).tolist():
        counts[pairs[tuple(row)]] += 1
    expected = ndraws / 6
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < stats.chi2.ppf(0.99, df=5)
