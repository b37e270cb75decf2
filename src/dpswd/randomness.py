"""Stochastic primitives: sphere directions, Gaussian noise, inverse normal CDF.

Every stream is keyed by (master seed, purpose, index), so any quantity
drawn for a given index is independent of evaluation order and of how work
is split across threads. There are two stream families. `substream` gives
counter-based Philox streams; everything a private release or a flow
draws (directions, noise, batch picks) and the `toy` data come from it,
and its seeded outputs are the reproducibility contract of `compute`,
`flow` and `toy`. `monte_carlo_stream` gives SFC64 streams, which draw
normals and exponentials about twice as fast; the sensitivity simulation,
a Monte Carlo of public quantities only, draws from it.
Determinism is guaranteed within this implementation, not bit-for-bit
across libraries. The generators are not cryptographically secure; the
privacy guarantees elsewhere in this package are analyzed assuming ideal
Gaussian noise.
"""

from __future__ import annotations

from statistics import NormalDist

import numpy as np

Seed = int  # master seed: any integer, numpy's included, taken modulo 2**64

_MASK64 = (1 << 64) - 1

# stream purposes; keep values stable, they are part of the reproducibility
# contract of seeded runs
PURPOSE_DIRECTIONS = 1
PURPOSE_NOISE_SOURCE = 2
PURPOSE_NOISE_TARGET = 3
PURPOSE_SENSITIVITY = 4
PURPOSE_DATA = 5


def substream(seed: Seed, purpose: int, index: int = 0) -> np.random.Generator:
    """Generator for a (seed, purpose, index) substream.

    The stream depends only on the three key components, never on how many
    other streams were consumed before it. Distinct indices get disjoint
    2**64-draw blocks of one Philox counter sequence.
    """
    key = np.array([int(seed) & _MASK64, purpose & _MASK64], dtype=np.uint64)
    bitgen = np.random.Philox(key=key)
    if index:
        bitgen.advance(index * (1 << 64))
    return np.random.Generator(bitgen)


def monte_carlo_stream(seed: Seed, purpose: int, index: int = 0) -> np.random.Generator:
    """Generator for a (seed, purpose, index) stream of public Monte Carlo.

    An SFC64 generator seeded by a SeedSequence with spawn key
    (purpose, index), so, as with substream, the stream depends only on its
    key and the seed is taken modulo 2**64.
    """
    entropy = np.random.SeedSequence(int(seed) & _MASK64, spawn_key=(purpose, index))
    return np.random.Generator(np.random.SFC64(entropy))


def derive_seed(seed: Seed, step: int) -> Seed:
    """Per-step master seed via a splitmix64 mix of (seed, step)."""
    z = (int(seed) + (step + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def sample_sphere(d: int, k: int, seed: Seed) -> np.ndarray:
    """Draw k independent uniform directions on the (d-1)-sphere.

    Returns a (d, k) matrix whose columns are unit vectors, obtained by
    normalizing i.i.d. standard Gaussian vectors (exact uniformity by
    rotation invariance). Column j is a prefix-stable function of
    (seed, j): enlarging k never changes earlier columns.
    """
    if d < 1 or k < 1:
        raise ValueError(f"need d >= 1 and k >= 1, got d={d}, k={k}")
    rng = substream(seed, PURPOSE_DIRECTIONS)
    g = rng.standard_normal((k, d))
    norms = np.sqrt(np.einsum("ij,ij->i", g, g))
    # a numerically zero Gaussian draw has probability ~0; resample defensively
    bad = norms < 1e-300
    if bad.any():
        g[bad] = substream(seed, PURPOSE_DIRECTIONS, index=1).standard_normal(
            (int(bad.sum()), d)
        )
        norms = np.sqrt(np.einsum("ij,ij->i", g, g))
    return (g / norms[:, None]).T


def sample_gaussian_matrix(n: int, k: int, sigma: float, seed: Seed, purpose: int = PURPOSE_NOISE_SOURCE) -> np.ndarray:
    """n-by-k matrix of i.i.d. N(0, sigma^2) entries; sigma=0 gives zeros.

    Entries that overflow float64 (sigma near its largest value) are +-inf.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if n < 0 or k < 0:
        raise ValueError("matrix dimensions must be nonnegative")
    if sigma == 0.0:
        return np.zeros((n, k))
    noise = substream(seed, purpose).standard_normal((n, k))
    with np.errstate(over="ignore"):
        noise *= sigma
    return noise


def inverse_normal_cdf(p: float) -> float:
    """Quantile function of the standard normal, Phi^{-1}(p), for p in (0,1).

    Delegates to the standard library's NormalDist (Wichura's AS241),
    accurate to about 4e-15 in x against scipy's ndtri down to p = 1e-12,
    and -inverse_normal_cdf(p) to about 2e-16 against scipy's norm.isf for
    p from 1e-5 down to 5e-324.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly inside (0, 1), got {p}")
    return NormalDist().inv_cdf(p)
