"""The studentized-range distribution on fixed Gauss-Legendre nodes.

``Q = range(Z_1..Z_k) / S`` with ``Z_i`` iid standard normal and
``S = sqrt(chi2_df / df)`` independent of them — the null distribution of
Tukey's HSD statistic.  Its survival function is a double integral,

    P(Q > q) = int f_df(s) G_k(q s) ds,
    G_k(w)   = int k phi(z) Phi(z)^(k-1) {1 - [1 - Phi(z-w)/Phi(z)]^(k-1)} dz,

``G_k(w) = P(range > w)`` conditioned on the largest value ``z``: the other
``k-1`` lie below ``z`` and at least one of them lies below ``z - w``.  Both
integrals are evaluated on composite 16-point Gauss-Legendre panels whose
position and number follow from ``(k, df)`` alone; there is nothing adaptive
and nothing to configure.

Where the nodes go:

* *inner*: in the centre ``c = z - w/2`` of the window ``[z - w, z]`` the
  integrand is below ``e^-37`` of its peak outside ``[-6.25, 9]`` for every
  ``w >= 0`` and ``2 <= k <= 100``.  ``Phi(z)^(k-1)`` steepens like
  ``sqrt(log k)``, so the panel count grows with ``log2 k``.
* *outer*: ``erfc(w/2) = G_2(w) <= G_k(w) <= k(k-1)/2 e^(-w^2/4)``, so the
  integrand stays within a bounded factor of the chi kernel
  ``s^(df-1) exp(-(df + q^2/2) s^2 / 2)``.  In ``r = s sqrt(df + q^2/2)``
  that kernel is ``r^(df-1) e^(-r^2/2)`` for every ``q``: one window in
  ``r``, re-scaled per ``q``, follows the integrand's mass as it moves
  towards ``s = 0`` in the tail.

Integrating the *complement* of the range cdf keeps the integrand positive,
so ``sf`` has relative, not absolute, accuracy however small it gets.

Stated bound (``tests/algorithms/test_studentized_range.py``):
``|cdf - truth| <= 1e-10`` for ``2 <= k <= 100``, integer ``1 <= df <= 1e9``
or ``df = inf``, and ``0 <= q <= inf``; ``sf`` is within ``1e-9`` relative of
the ``k = 2`` closed form ``2 t.sf(q / sqrt 2, df)`` down to ``1e-200``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln, ndtr

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(16)

_CENTRE_LOW, _CENTRE_HIGH = -6.25, 9.0
_OUTER_PANELS = 4
# -log of the level, relative to its peak, below which the chi kernel is cut.
_CUT = 35.0
# Below this df a fractional df leaves s^(df-1) non-smooth inside the window.
_SMOOTH_DF = 8
# Quadrature points evaluated at once (8 MB per temporary).
_BLOCK_POINTS = 1 << 20


def _panels(low: float, high: float, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights on ``[low, high]``."""
    edges = np.linspace(low, high, count + 1)
    half = 0.5 * np.diff(edges)[:, None]
    middle = 0.5 * (edges[:-1] + edges[1:])[:, None]
    return (middle + half * _NODES).ravel(), (half * _WEIGHTS).ravel()


def _inner_panels(k: int) -> int:
    return 2 + math.ceil(1.5 * math.log2(k))


def _range_sf(w: np.ndarray, k: int) -> np.ndarray:
    """``P(range of k iid N(0, 1) > w)`` for ``w >= 0`` of any shape."""
    centre, weights = _panels(_CENTRE_LOW, _CENTRE_HIGH, _inner_panels(k))
    half_width = 0.5 * w[..., None]
    z = centre + half_width
    below_max = ndtr(z)
    below_window = ndtr(centre - half_width)
    # Far right of a wide window both factors underflow; the integrand is 0.
    with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
        escaped = -np.expm1((k - 1) * np.log1p(-below_window / below_max))
        density = np.exp((k - 1) * np.log(below_max) - 0.5 * z * z)
    integrand = np.where(below_max > 0, density * escaped, 0.0)
    return (k / math.sqrt(2.0 * math.pi)) * (integrand @ weights)


def _log_chi_constant(df: float) -> float:
    """``log f_df(1)`` for ``f_df`` the density of ``sqrt(chi2_df / df)``.

    ``log 2 + x log x - x - lgamma(x)`` at ``x = df/2``.  Past ``x = 100``
    the three large terms cancel to ~1e-16 |x log x|, so Stirling's series
    (next term ``1/(1680 x^7) < 1e-17``) replaces them.
    """
    x = 0.5 * df
    if x < 100.0:
        return math.log(2.0) + x * math.log(x) - x - float(gammaln(x))
    return (
        math.log(2.0) + 0.5 * math.log(x / (2.0 * math.pi))
        - 1.0 / (12.0 * x) + 1.0 / (360.0 * x**3) - 1.0 / (1260.0 * x**5)
    )


def _check(k: int, df: float) -> None:
    if k != int(k) or k < 2:
        raise ValueError(f"studentized range needs an integer k >= 2, got {k!r}")
    if not df >= 1:
        raise ValueError(f"studentized range needs df >= 1, got {df!r}")
    if df < _SMOOTH_DF and df != int(df):
        raise ValueError(f"fractional df below {_SMOOTH_DF} is not supported, got {df!r}")


def _sf_block(q: np.ndarray, k: int, df: float) -> np.ndarray:
    """``P(Q > q)`` for a 1-D block of finite or infinite ``q >= 0``."""
    if math.isinf(df):
        return _range_sf(q, k)
    # The chi kernel r^(df-1) e^(-r^2/2) peaks at a = sqrt(df-1).  Its log
    # has fallen by at least d^2 at a - d and by at least
    # d^2/2 (1 + a/(a+d)) at a + d (from log(1+x) <= x - x^2/(2+2x)); the
    # window ends where that reaches `cut`.
    cut = _CUT + math.log(0.5 * k * (k - 1))
    peak = math.sqrt(df - 1.0)
    widest = math.sqrt(2.0 * cut)
    above = math.sqrt(2.0 * cut / (1.0 + peak / (peak + widest)))
    r, weights = _panels(max(0.0, peak - math.sqrt(cut)), peak + above, _OUTER_PANELS)
    q = q[:, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        # 1/sqrt(df + q^2/2), written so that q^2 is never formed.
        scale = 1.0 / np.hypot(math.sqrt(df), q * math.sqrt(0.5))
        s = r * scale
        log_s = np.log(s)
        # (s-1)(s+1), not s*s-1: at df = 1e9 the exponent is df times a
        # difference of order 1e-8.
        log_density = (
            _log_chi_constant(df) + df * (log_s - 0.5 * (s - 1.0) * (s + 1.0)) - log_s
        )
        tail = _range_sf(r * (q * scale), k)
        total = (np.exp(log_density) * tail * scale) @ weights
    return np.where(np.isinf(q[:, 0]), 0.0, total)


def sf(q, k: int, df: float) -> np.ndarray:
    """``P(Q > q; k, df)``, vectorised over ``q >= 0``."""
    _check(k, df)
    q = np.asarray(q, dtype=np.float64)
    if (q < 0).any() or np.isnan(q).any():
        raise ValueError("studentized range is defined for q >= 0")
    # A table of k groups asks for k(k-1)/2 values at once; blocks keep every
    # temporary of the grid evaluation near _BLOCK_POINTS doubles.
    flat = q.ravel()
    step = max(1, _BLOCK_POINTS // (_inner_panels(k) * _OUTER_PANELS * len(_NODES) ** 2))
    blocks = [_sf_block(flat[i:i + step], k, df) for i in range(0, flat.size, step)]
    return np.concatenate(blocks or [flat]).reshape(q.shape)


def cdf(q, k: int, df: float) -> np.ndarray:
    """``P(Q <= q; k, df)``."""
    return 1.0 - sf(q, k, df)


def ppf(p: float, k: int, df: float) -> float:
    """The ``q`` with ``cdf(q) = p``: Brent's method on a bracket that doubles
    until it holds ``p``.  ``scipy.optimize`` is imported here, by the one
    caller that needs it, so importing the package does not load it."""
    from scipy.optimize import brentq

    if not 0.0 < p < 1.0:
        raise ValueError(f"ppf needs 0 < p < 1, got {p!r}")
    low, high = 0.0, 4.0
    while cdf(high, k, df) < p:
        low, high = high, 2.0 * high
    return float(
        brentq(lambda q: float(cdf(q, k, df)) - p, low, high, xtol=1e-12, rtol=1e-12)
    )
