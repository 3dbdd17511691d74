"""Reference oracles for the benchmark's output checks.

Nothing here imports mdlab: every law, sigma_n and coefficient is computed
by a different method from the one the package uses (bit convolutions,
linear-space forward recursions, closed forms, the regularized incomplete
beta function), so a check that passes means two independent computations
agree.

Threshold conventions.  A tail or quantile query whose threshold lands on
an atom (to within float rounding of the threshold itself) may count that
atom either way, so every tail reference is a bracket ``(p_excl, p_incl)``
and every quantile reference a pair of candidate atoms; a value passes when
it lies inside its bracket.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

Z95 = 1.959963984540054
AMBIGUITY = 1e-9  # relative width of the "on an atom" band around a threshold


class CheckFailed(Exception):
    """An output disagrees with its reference."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close(value, ref, what: str, rel: float = 1e-9, abs_tol: float = 1e-12) -> None:
    value, ref = float(value), float(ref)
    require(math.isfinite(value) and abs(value - ref) <= abs_tol + rel * abs(ref),
            f"{what}: got {value!r}, reference {ref!r}")


# ---------------------------------------------------------------------------
# exact laws of S_n
# ---------------------------------------------------------------------------

class RefLaw:
    """Law of S_n = offsets / denom - center with probabilities ``probs``
    (zero-probability lattice points dropped)."""

    def __init__(self, offsets, probs, n: int, denom: int, center: float,
                 sigma: float | None = None):
        keep = probs > 0.0
        self.offsets = np.asarray(offsets, dtype=np.int64)[keep]
        self.probs = np.asarray(probs, dtype=float)[keep]
        self.n, self.denom, self.center = n, denom, center
        values = self.offsets / denom - center
        self.variance = float(np.sum(self.probs * values * values))
        self.sigma = sigma if sigma is not None else math.sqrt(self.variance / n)
        self.cdf = np.cumsum(self.probs)
        self.suffix = np.cumsum(self.probs[::-1])[::-1]

    @property
    def w_values(self) -> np.ndarray:
        return (self.offsets / self.denom - self.center) / math.sqrt(self.n)

    @property
    def what_values(self) -> np.ndarray:
        return self.w_values / self.sigma

    def upper_bracket(self, w_thr) -> tuple[np.ndarray, np.ndarray]:
        """(P(W > thr), P(W >= thr)) with an atom within the ambiguity band
        of thr counted out of the first and into the second."""
        thr = np.atleast_1d(np.asarray(w_thr, dtype=float))
        band = AMBIGUITY * np.maximum(1.0, np.abs(thr))
        w = self.w_values
        tail = np.append(self.suffix, 0.0)
        excl = tail[np.searchsorted(w, thr + band, side="right")]
        incl = tail[np.searchsorted(w, thr - band, side="left")]
        return excl, incl

    def lower_bracket(self, w_thr) -> tuple[np.ndarray, np.ndarray]:
        """(P(W < thr), P(W <= thr)), the mirror of upper_bracket."""
        thr = np.atleast_1d(np.asarray(w_thr, dtype=float))
        band = AMBIGUITY * np.maximum(1.0, np.abs(thr))
        w = self.w_values
        head = np.concatenate(([0.0], self.cdf))
        excl = head[np.searchsorted(w, thr - band, side="left")]
        incl = head[np.searchsorted(w, thr + band, side="right")]
        return excl, incl

    def quantile_candidates(self, s) -> tuple[np.ndarray, np.ndarray]:
        """Smallest and largest normalized atom that inf{x : F(x) >= s} can
        be when F is known to within the ambiguity band."""
        ss = np.asarray(s, dtype=float)
        last = self.cdf.size - 1
        lo = np.minimum(np.searchsorted(self.cdf, ss - AMBIGUITY, side="left"), last)
        hi = np.minimum(np.searchsorted(self.cdf, ss + AMBIGUITY, side="left"), last)
        what = self.what_values
        return what[lo], what[hi]

    def ks_distance(self) -> float:
        """sup_x |F(x sigma) - Phi(x)| over both sides of every atom."""
        phi = special.ndtr(self.what_values)
        left = np.concatenate(([0.0], self.cdf[:-1]))
        return float(max(np.max(np.abs(self.cdf - phi)), np.max(np.abs(left - phi))))


def dyadic_law(L: int, n: int) -> RefLaw:
    """Law of S_n for dyadic_contracting(L): the state at time t holds the
    last L fair bits, j_t = sum_{i=t-L+1}^{t} b_i 2^{L-1-(t-i)}, so
    sum_t j_t = sum_i w_i b_i with w_i = sum_t 2^{L-1-(t-i)} over the t in
    [max(1, i), min(n, i+L-1)].  The law is a convolution of fair bits."""
    weights = []
    for i in range(2 - L, n + 1):
        weights.append(sum(1 << (L - 1 - (t - i))
                           for t in range(max(1, i), min(n, i + L - 1) + 1)))
    probs = np.zeros(sum(weights) + 1)
    probs[0] = 1.0
    top = 0
    for w in weights:
        nxt = 0.5 * probs[:top + w + 1]
        nxt[w:] += 0.5 * probs[:top + 1]
        top += w
        probs[:top + 1] = nxt
    size = 1 << L
    return RefLaw(np.arange(probs.size), probs, n, size,
                  center=n * (size - 1) / (2.0 * size), sigma=dyadic_sigma(L, n))


def chain_laws(transition, f_num, denom: int, horizons) -> dict[int, RefLaw]:
    """Laws of S_n for a general chain by a forward recursion in linear
    probability space, one pass up to max(horizons).  The stationary start is
    a float least-squares solve of pi (P - I) = 0, sum(pi) = 1."""
    p = np.asarray(transition, dtype=float)
    f = np.asarray(f_num, dtype=np.int64)
    s = f.size
    a = np.vstack([p.T - np.eye(s), np.ones(s)])
    pi = np.linalg.lstsq(a, np.append(np.zeros(s), 1.0), rcond=None)[0]
    mean = float(pi @ f) / denom
    n_max = max(horizons)
    k_lo = n_max * min(0, int(f.min()))
    width = n_max * max(0, int(f.max())) - k_lo + 1
    mass = np.zeros((s, width))
    mass[:, -k_lo] = pi
    laws = {}
    for t in range(1, n_max + 1):
        moved = p.T @ mass
        mass = np.zeros_like(moved)
        for j in range(s):
            d = int(f[j])
            if d >= 0:
                mass[j, d:] = moved[j, :width - d]
            else:
                mass[j, :d] = moved[j, -d:]
        if t in horizons:
            laws[t] = RefLaw(np.arange(width) + k_lo, mass.sum(axis=0), t, denom,
                             center=t * mean)
    return laws


def two_state_laws(rho: float, horizons) -> dict[int, RefLaw]:
    stay = (1.0 + rho) / 2.0
    laws = chain_laws([[stay, 1 - stay], [1 - stay, stay]], [-1, 1], 1, horizons)
    for n, law in laws.items():
        law.sigma = two_state_sigma(rho, n)
    return laws


def total_variation(offsets_a, probs_a, law: RefLaw) -> float:
    """TV distance between a law given on integer offsets and a RefLaw."""
    lo = min(int(np.min(offsets_a)), int(law.offsets.min()))
    hi = max(int(np.max(offsets_a)), int(law.offsets.max()))
    a = np.zeros(hi - lo + 1)
    b = np.zeros(hi - lo + 1)
    np.add.at(a, np.asarray(offsets_a, dtype=np.int64) - lo, probs_a)
    b[law.offsets - lo] = law.probs
    return 0.5 * float(np.abs(a - b).sum())


# ---------------------------------------------------------------------------
# sigma_n and coefficients in closed form
# ---------------------------------------------------------------------------

def _sigma_from_autocov(gammas: np.ndarray, n: int) -> float:
    """sigma_n from gamma(0..K) with gamma(k) = 0 for k > K."""
    k = np.arange(1, min(n, gammas.size))
    return math.sqrt(gammas[0] + 2.0 * float(np.sum((1.0 - k / n) * gammas[k])))


def two_state_sigma(rho: float, n: int) -> float:
    """gamma(k) = rho^k summed in closed form."""
    var = (1 + rho) / (1 - rho) - 2 * rho * (1 - rho ** n) / (n * (1 - rho) ** 2)
    return math.sqrt(var)


def dyadic_sigma(L: int, n: int) -> float:
    """X_t = sum_{d<L} (b_{t-d} - 1/2) 2^{-1-d}, so
    gamma(k) = 2^{-k} (1 - 4^{-(L-k)}) / 12 for k < L and 0 beyond."""
    k = np.arange(L, dtype=float)
    return _sigma_from_autocov(2.0 ** -k * (1 - 4.0 ** -(L - k)) / 12.0, n)


def moving_average_sigma(c: float, L: int, n: int) -> float:
    """X_t = sum_{i<=L} c 2^{-i} eps_{t-i}, so
    gamma(k) = c^2 2^{-k} (1 - 4^{-(L-k+1)}) / (3/4) for k <= L."""
    k = np.arange(L + 1, dtype=float)
    return _sigma_from_autocov(c * c * 2.0 ** -k * (1 - 4.0 ** -(L - k + 1)) / 0.75, n)


def moving_average_bound(c: float, L: int) -> float:
    return c * (2.0 - 2.0 ** -L)


def two_state_coefficients(rho: float, n: int, m: int) -> dict:
    """Deviation coefficients of two_state(rho) in closed form.

    E[X_k | X_0] = rho^k X_0, so ||E[S_t | F_0]|| = rho (1 - rho^t) / (1 - rho);
    X_a X_b depends only on the switches between a and b, so
    E[S_m^2 | Y_0] = m sigma_m^2 for both states.
    """
    sig = two_state_sigma(rho, n)
    h = rho / (1 - rho)
    j = np.arange(1, 4096, dtype=float)
    poly = float(np.sum(j ** -1.5 * rho ** (m * j)))
    gamma = h * (float(special.zeta(1.5, 1)) - poly) / (math.sqrt(m) * sig)
    eps = m / (math.sqrt(n) * sig)
    drift = h * (1 - rho ** m)
    delta_sq = drift ** 2 / (m * sig ** 2) + abs(two_state_sigma(rho, m) ** 2 / sig ** 2 - 1)
    return {"sigma_n": sig, "eps_m": eps, "gamma_m": gamma, "delta_sq": delta_sq,
            "tau_sq": delta_sq + m / n + 4 * eps ** 2}


def binomial_log_tail_bracket(n: int, t: float) -> tuple[float, float]:
    """log P(S_n > t) and log P(S_n >= t) for n i.i.d. fair signs, with
    S_n = 2K - n; a threshold within the ambiguity band of an atom counts
    that atom out of the first and into the second."""
    band = AMBIGUITY * max(1.0, abs(t))

    def log_at_least(k: int) -> float:  # log P(K >= k) = log I_{1/2}(k, n - k + 1)
        if k <= 0:
            return 0.0
        return math.log(special.betainc(k, n - k + 1, 0.5)) if k <= n else -math.inf
    return (log_at_least(math.floor((n + t + band) / 2.0) + 1),
            log_at_least(math.ceil((n + t - band) / 2.0)))


# ---------------------------------------------------------------------------
# sampling checks
# ---------------------------------------------------------------------------

def wilson_half_width(successes: int, trials: int, z: float = Z95) -> float:
    p = successes / trials
    z2 = z * z
    return z * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials ** 2)) / (1 + z2 / trials)


def tail_estimate_ok(successes: int, trials: int, p_excl: float, p_incl: float,
                     widths: float = 5.0) -> bool:
    """The estimate lies within `widths` Wilson half-widths of the exact
    bracket [p_excl, p_incl]."""
    est = successes / trials
    gap = max(0.0, p_excl - est, est - p_incl)
    return gap <= widths * wilson_half_width(successes, trials)


def check_tail_counts(w: np.ndarray, law: RefLaw, w_thresholds, what: str) -> None:
    """Upper and lower tail frequencies of samples against the exact law."""
    for thr in np.atleast_1d(w_thresholds):
        up = int(np.sum(w >= thr))
        lo = int(np.sum(w <= -thr))
        (ue,), (ui,) = law.upper_bracket(thr)
        (le,), (li,) = law.lower_bracket(-thr)
        require(tail_estimate_ok(up, w.size, ue, ui),
                f"{what}: P(W >= {thr:.6g}) estimate {up / w.size:.6g} "
                f"vs exact [{ue:.6g}, {ui:.6g}]")
        require(tail_estimate_ok(lo, w.size, le, li),
                f"{what}: P(W <= {-thr:.6g}) estimate {lo / w.size:.6g} "
                f"vs exact [{le:.6g}, {li:.6g}]")


def check_sample_variance(w: np.ndarray, sigma: float, what: str, widths: float = 5.0) -> None:
    """Sample mean and variance of W within `widths` standard errors of 0 and
    sigma^2."""
    n = w.size
    mean = float(w.mean())
    centred = w - mean
    var = float(np.mean(centred ** 2))
    se_var = math.sqrt(max(float(np.mean(centred ** 4)) - var ** 2, 0.0) / n)
    require(abs(mean) <= widths * sigma / math.sqrt(n),
            f"{what}: sample mean {mean:.6g} vs 0 (se {sigma / math.sqrt(n):.3g})")
    require(abs(var - sigma ** 2) <= widths * se_var,
            f"{what}: sample variance {var:.6g} vs sigma^2 {sigma ** 2:.6g} (se {se_var:.3g})")


def empirical_ks(w: np.ndarray, sigma: float) -> float:
    x = np.sort(w) / sigma
    n = x.size
    phi = special.ndtr(x)
    return float(max(np.max(np.arange(1, n + 1) / n - phi), np.max(phi - np.arange(n) / n)))


def dkw_radius(n: int, alpha: float = 1e-9) -> float:
    """Dvoretzky-Kiefer-Wolfowitz radius: sup |F_n - F| exceeds it with
    probability at most alpha."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


def check_coupled_pairs(y: np.ndarray, z: np.ndarray, law: RefLaw, what: str) -> None:
    """Y must be the exact law's quantile transform of Phi(Z), pair by pair,
    which makes the law Y inherits from Z the exact law; Z must look
    standard normal."""
    lo, hi = law.quantile_candidates(special.ndtr(z))
    tol = 1e-9 * np.maximum(1.0, np.abs(y))
    bad = np.nonzero((y < lo - tol) | (y > hi + tol))[0]
    require(bad.size == 0,
            f"{what}: {bad.size} pairs off the exact quantile transform"
            + (f", first z={z[bad[0]]!r} y={y[bad[0]]!r} expected {lo[bad[0]]!r}"
               if bad.size else ""))
    require(bool(np.all(np.diff(y[np.argsort(z, kind="stable")]) >= 0)),
            f"{what}: Y is not non-decreasing in Z")
    check_sample_variance(z, 1.0, f"{what} Z")
