"""Distribution distance measures used by verification reports, and the
``CountHistogram`` that sampling returns.

All logarithms are natural.  Divergences accept any two equal-length
sequences of probabilities; histogram-vs-model testing goes through
g_statistic, which reduces to 2 * shots * KL(empirical || expected) when
the supports line up.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

_EPS = 1e-15
_TINY = 1e-300
_MAX_TERMS = 100_000


def _chi2_sf(x: float, df: int) -> float:
    """Upper-tail chi-square probability P(X > x) for df degrees of freedom.

    This is the regularized upper incomplete gamma Q(df/2, x/2): below
    a + 1 it is one minus the power series of P, above it the Lentz
    continued fraction of Q (Numerical Recipes, section 6.2).  x <= 0
    (a perfect match can give G = -1e-16) has probability 1.
    """
    if x <= 0.0:
        return 1.0
    if math.isinf(x):
        return 0.0
    a = 0.5 * df
    z = 0.5 * x
    scale = math.exp(a * math.log(z) - z - math.lgamma(a))
    if z < a + 1.0:
        term = total = 1.0 / a
        for n in range(1, _MAX_TERMS):
            term *= z / (a + n)
            total += term
            if abs(term) < abs(total) * _EPS:
                return max(0.0, 1.0 - total * scale)
    else:
        b = z + 1.0 - a
        c = 1.0 / _TINY
        d = 1.0 / b
        h = d
        for i in range(1, _MAX_TERMS):
            an = -i * (i - a)
            b += 2.0
            d = an * d + b
            d = d if abs(d) >= _TINY else _TINY
            c = b + an / c
            c = c if abs(c) >= _TINY else _TINY
            d = 1.0 / d
            step = d * c
            h *= step
            if abs(step - 1.0) < _EPS:
                return h * scale
    raise ArithmeticError(f"chi-square tail did not converge (x={x}, df={df})")


@dataclass
class CountHistogram:
    """Counts per measured bitstring."""

    counts: dict[str, int]
    shots: int
    num_bits: int
    seed: int | None = field(default=None, compare=False)

    def probability(self, bitstring: str) -> float:
        return self.counts.get(bitstring, 0) / self.shots

    def empirical(self) -> np.ndarray:
        """Empirical distribution over all 2**num_bits bins."""
        probs = np.zeros(1 << self.num_bits)
        for bits, count in self.counts.items():
            probs[int(bits, 2)] = count / self.shots
        return probs

    def to_json(self) -> str:
        payload = {"shots": self.shots, "num_bits": self.num_bits, "counts": self.counts}
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        lines = ["bitstring,count"]
        lines.extend(f"{bits},{self.counts[bits]}" for bits in sorted(self.counts))
        return "\n".join(lines) + "\n"


def _as_dist(p) -> np.ndarray:
    arr = np.asarray(list(p) if not isinstance(p, np.ndarray) else p, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("expected a non-empty 1-D distribution")
    if np.any(arr < 0):
        raise ValueError("probabilities must be non-negative")
    return arr


def kl_divergence(p, q) -> float:
    """Kullback-Leibler divergence sum(P * ln(P/Q)), in nats.

    Terms with P=0 contribute nothing.  Any bin with P>0 and Q=0 makes the
    divergence infinite; that sentinel is returned (with a warning) rather
    than raised, so callers can report it.
    """
    parr, qarr = _as_dist(p), _as_dist(q)
    if parr.shape != qarr.shape:
        raise ValueError("distributions must have equal length")
    support = parr > 0
    if np.any(qarr[support] == 0):
        warnings.warn("KL divergence is infinite: P has mass where Q has none")
        return math.inf
    return float(np.sum(parr[support] * np.log(parr[support] / qarr[support])))


def js_divergence(p, q) -> float:
    """Jensen-Shannon divergence: always finite, symmetric, in [0, ln 2]."""
    parr, qarr = _as_dist(p), _as_dist(q)
    if parr.shape != qarr.shape:
        raise ValueError("distributions must have equal length")
    mid = 0.5 * (parr + qarr)
    return 0.5 * kl_divergence(parr, mid) + 0.5 * kl_divergence(qarr, mid)


def g_statistic(observed: CountHistogram, expected) -> tuple[float, float]:
    """Log-likelihood-ratio goodness-of-fit test of counts against a model.

    Returns (G, p) with G = 2 * sum(O_i * ln(O_i / E_i)) over the model's
    bins, E_i = shots * expected_i, and p the upper-tail chi-square
    probability of G with bins-1 degrees of freedom.  A bin with zero
    expectation but positive observation makes G infinite (warned, p=0).

    G equals 2 * shots * KL(empirical || expected) whenever every observed
    outcome has positive expectation.
    """
    q = _as_dist(expected)
    bins = q.size
    num_bits = (bins - 1).bit_length()
    if bins != 1 << num_bits:
        raise ValueError("expected distribution length must be a power of two")
    if observed.num_bits != num_bits:
        raise ValueError(
            f"histogram is over {observed.num_bits}-bit strings, model over {num_bits}-bit bins"
        )

    shots = observed.shots
    g = 0.0
    for bits, count in observed.counts.items():
        if count == 0:
            continue
        e = shots * q[int(bits, 2)]
        if e == 0.0:
            warnings.warn("observed counts in a zero-probability bin: G is infinite")
            return math.inf, 0.0
        g += 2.0 * count * math.log(count / e)
    p = _chi2_sf(g, bins - 1)
    return g, p
