"""Independent brute-force oracles used only by the tests.

Nothing here shares code with the package's computational paths: sum
distributions come from exhaustive path enumeration, from a plain log-space
DP that sums one destination state at a time, or from the scaled forward DP
stepped on every lattice point (the package steps only the sublattice the
sums occupy), binomial tails from exact integer combinatorics or plain lgamma
sums, and scalar formulas are re-evaluated inline where they are checked.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy import sparse, special


def all_state_paths(n_states: int, length: int) -> np.ndarray:
    """(n_states^length, length) array of every state sequence (uint8)."""
    if n_states > 255:
        raise ValueError("enumeration oracle handles at most 255 states")
    total = n_states ** length
    idx = np.arange(total, dtype=np.int64)
    out = np.empty((total, length), dtype=np.uint8)
    for pos in range(length - 1, -1, -1):
        out[:, pos] = idx % n_states
        idx //= n_states
    return out


def enum_distribution(model, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact law of the raw lattice numerator of S_n by exhaustive
    enumeration.

    Returns (offsets, probabilities) with probabilities from products of
    transition entries, summed per lattice value.
    """
    paths = all_state_paths(model.n_states, n + 1)
    prob = model.pi[paths[:, 0]].copy()
    sums = np.zeros(paths.shape[0], dtype=np.int64)
    for t in range(1, n + 1):
        prob *= model.transition[paths[:, t - 1], paths[:, t]]
        sums += model.f_num[paths[:, t]]
    lo, hi = int(sums.min()), int(sums.max())
    dense = np.zeros(hi - lo + 1)
    np.add.at(dense, sums - lo, prob)
    keep = dense > 0.0
    return (np.arange(lo, hi + 1)[keep], dense[keep])


def enum_max_abs_tail(model, n: int, x: float) -> float:
    """P(max_{1<=i<=n} |S_i| >= x) by exhaustive enumeration (centered sums).

    Streams the running sum and running max over time, so memory stays at a
    few vectors of length n_states^(n+1).
    """
    paths = all_state_paths(model.n_states, n + 1)
    prob = model.pi[paths[:, 0]].copy()
    running = np.zeros(paths.shape[0])
    peak = np.zeros(paths.shape[0])
    for t in range(1, n + 1):
        prob *= model.transition[paths[:, t - 1], paths[:, t]]
        running += model.x_values[paths[:, t]]
        np.maximum(peak, np.abs(running), out=peak)
    return float(prob[peak >= x].sum())


def log_dp_distribution(model, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Law of the raw lattice numerator of S_n as (offsets, logp), by a
    log-space DP over (state, lattice sum) that adds every transition term
    with logaddexp, one destination state at a time (no scaling, so no
    underflow at any depth)."""
    xnum = model.f_num.astype(np.int64)
    xmin, xmax = int(xnum.min()), int(xnum.max())
    k_lo, k_hi = min(0, n * xmin), max(0, n * xmax)
    width = k_hi - k_lo + 1
    s = model.n_states
    with np.errstate(divide="ignore"):
        log_t = np.log(model.transition)
        log_pi = np.log(model.pi)
    cur = np.full((s, width), -np.inf)
    cur[:, -k_lo] = log_pi
    lo = hi = -k_lo  # live index window [lo, hi]
    for _ in range(n):
        nxt = np.full((s, width), -np.inf)
        for sp in range(s):
            acc = np.logaddexp.reduce(cur[:, lo:hi + 1] + log_t[:, sp][:, None], axis=0)
            d = int(xnum[sp])
            nxt[sp, lo + d:hi + d + 1] = acc
        cur = nxt
        lo, hi = lo + xmin, hi + xmax
    marg = np.logaddexp.reduce(cur, axis=0)
    finite = marg > -np.inf
    return (np.arange(width, dtype=np.int64) + k_lo)[finite], marg[finite]


def full_lattice_sum_law_steps(model, n: int):
    """Yield (k0, logp) for t = 1..n, logp[j, i] = log P(Y_t = j, S_t =
    (k0 + i) / denom), by the scaled forward DP on every lattice point of
    [t min f_num, t max f_num], occupied or not: each column is shifted by
    its largest log-mass, mixed by one product with P^T, logged and shifted
    back, and summed in log space where a term could fall below 2^-960."""
    p, xnum = model.transition, model.f_num.astype(np.int64)
    xmin, spread = int(xnum.min()), int(xnum.max() - xnum.min())
    s, width = model.n_states, n * spread + 1
    cur, nxt = (np.full((s, width), -np.inf) for _ in range(2))
    with np.errstate(divide="ignore"):
        log_t, cur[:, 0] = np.log(p), np.log(model.pi)
    log_floor = np.log(2.0 ** -960 / p[p > 0].min())
    for t in range(1, n + 1):
        w = (t - 1) * spread + 1
        lin, prod = cur[:, :w], nxt[:, :w]
        with np.errstate(divide="ignore"):
            mx = np.maximum(np.max(lin, axis=0), np.finfo(float).min)
            lin -= mx
            rare = np.flatnonzero(((lin < log_floor) & (lin > -np.inf)).any(axis=0))
            acc = np.full((s, rare.size), -np.inf)
            for i in range(s):
                acc = np.logaddexp(acc, log_t[i, :, None] + (lin[i, rare] + mx[rare]))
            np.exp(lin, out=lin)
            np.matmul(p.T, lin, out=prod)
            np.log(prod, out=prod)
            prod += mx
            prod[:, rare] = acc
        cur[:, :w + spread] = -np.inf
        for j, d in enumerate(xnum - xmin):
            cur[j, d:d + w] = prod[j]
        yield t * xmin, cur[:, :w + spread]


def full_lattice_tables(model, ns: list[int]) -> list[tuple[np.ndarray, np.ndarray]]:
    """(offsets, logp) of S_n for every n in ns, marginalised over the state
    from one `full_lattice_sum_law_steps` pass to max(ns)."""
    out = {}
    for t, (k0, logp) in enumerate(full_lattice_sum_law_steps(model, max(ns)), start=1):
        if t in ns:
            marg = np.logaddexp.reduce(logp, axis=0)
            keep = np.flatnonzero(marg > -np.inf)
            out[t] = (keep + k0, marg[keep])
    return [out[n] for n in ns]


def binom_tail_exact(n: int, k0: int) -> float:
    """P(Binomial(n, 1/2) >= k0) in exact rational arithmetic."""
    if k0 > n:
        return 0.0
    total = sum(math.comb(n, k) for k in range(max(k0, 0), n + 1))
    return float(Fraction(total, 2 ** n))


def sign_sum_tail(n: int, t: float) -> float:
    """P(S_n >= t) for a sum of n i.i.d. fair signs, exact combinatorics."""
    k0 = math.ceil((n + t) / 2.0 - 1e-12)
    return binom_tail_exact(n, k0)


def sign_sum_log_tail(n: int, t: float) -> float:
    """log P(S_n >= t) via plain lgamma sums (no scipy)."""
    k0 = max(0, math.ceil((n + t) / 2.0 - 1e-12))
    if k0 > n:
        return -math.inf
    logs = [math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            - n * math.log(2.0) for k in range(k0, n + 1)]
    peak = max(logs)
    return peak + math.log(sum(math.exp(v - peak) for v in logs))


def binom_log_tail_from(n: int, k0: int) -> float:
    """log P(Binomial(n, 1/2) >= k0) via plain lgamma sums (no scipy), the
    first index given as an integer so no threshold rounding is involved."""
    logs = [math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            - n * math.log(2.0) for k in range(max(k0, 0), n + 1)]
    peak = max(logs)
    return peak + math.log(sum(math.exp(v - peak) for v in logs))


def enum_block_moments(model, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(m, n_states) arrays of E[S_t | Y_0 = s] and E[S_t^2 | Y_0 = s],
    t = 1..m, by enumerating every path of length m from each start state:
    the later steps of a path sum out of the moments of S_t."""
    paths = all_state_paths(model.n_states, m + 1)
    prob = np.ones(paths.shape[0])
    for t in range(1, m + 1):
        prob *= model.transition[paths[:, t - 1], paths[:, t]]
    start = paths[:, 0]
    sums = np.zeros(paths.shape[0])
    first = np.empty((m, model.n_states))
    second = np.empty((m, model.n_states))
    for t in range(1, m + 1):
        sums += model.x_values[paths[:, t]]
        first[t - 1] = np.bincount(start, prob * sums, minlength=model.n_states)
        second[t - 1] = np.bincount(start, prob * sums * sums, minlength=model.n_states)
    return first, second


def forward_block_moments(model, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(m, n_states) arrays of E[S_t | Y_0 = s] and E[S_t^2 | Y_0 = s],
    t = 1..m, by the forward recursion over (start state, current state):
    s x s matrices of the conditional mass and of the sum's first two moments
    on each current state, O(m s^3)."""
    p = model.transition
    x = model.x_values
    s = model.n_states
    mass = np.eye(s)
    first = np.zeros((s, s))
    second = np.zeros((s, s))
    means = np.empty((m, s))
    seconds = np.empty((m, s))
    for t in range(m):
        mass_next = mass @ p
        first_p = first @ p
        second = second @ p + 2.0 * first_p * x + mass_next * x * x
        mass, first = mass_next, first_p + mass_next * x
        means[t], seconds[t] = first.sum(axis=1), second.sum(axis=1)
    return means, seconds


def cond_sum_norms_by_powers(model, n_max: int) -> np.ndarray:
    """||E[S_t | F_0]||_inf for t = 1..n_max as the running sum of P^k x."""
    u = model.x_values.copy()
    g = np.zeros(model.n_states)
    out = np.empty(n_max)
    for t in range(n_max):
        u = model.transition @ u
        g = g + u
        out[t] = float(np.max(np.abs(g)))
    return out


def two_state_cond_sum_norm(rho: float, n: int) -> float:
    """||E[S_n | F_0]||_inf for the symmetric two-state chain, closed form."""
    return rho * (1.0 - rho ** n) / (1.0 - rho)


def two_state_sigma_sq(rho: float, n: int) -> float:
    """sigma_n^2 for the symmetric two-state chain from gamma(k) = rho^k."""
    ks = np.arange(1, n)
    return float(1.0 + 2.0 * np.sum((1.0 - ks / n) * rho ** ks))


def autocov_by_lags(model, kmax: int) -> np.ndarray:
    """gamma(0..kmax) of the centered payoff, one mat-vec with P per lag
    (a CSR copy of P, so each step touches only the nonzero entries)."""
    x = model.x_values
    p = sparse.csr_matrix(model.transition)
    out = np.empty(kmax + 1)
    u = x.copy()
    out[0] = float(model.pi @ (x * x))
    for k in range(1, kmax + 1):
        u = p @ u
        out[k] = float(model.pi @ (x * u))
    return out


def sigma_n_by_lags(model, n: int) -> float:
    """sigma_n from sigma_n^2 = gamma(0) + 2 sum_{k<n} (1 - k/n) gamma(k)."""
    g = autocov_by_lags(model, n - 1)
    ks = np.arange(1, n)
    return math.sqrt(g[0] + 2.0 * np.sum((1.0 - ks / n) * g[1:]))


def dense_renormalise(transition) -> np.ndarray:
    """Rows renormalised in exact rational arithmetic over every dense entry,
    zeros included, then rounded back to floats."""
    out = []
    for raw in np.asarray(transition, dtype=float):
        row = [Fraction(float(v)) for v in raw]
        s = sum(row)
        out.append([float(v / s) for v in row])
    return np.array(out)


def strongly_connected(adj: np.ndarray) -> bool:
    """Depth-first reachability from state 0 in the graph and its reverse."""
    n = adj.shape[0]

    def reach(a):
        seen = np.zeros(n, dtype=bool)
        stack = [0]
        seen[0] = True
        while stack:
            u = stack.pop()
            for v in np.nonzero(a[u])[0]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(int(v))
        return seen

    return bool(reach(adj).all() and reach(adj.T).all())


def period(adj: np.ndarray) -> int:
    """Period of a strongly connected graph: the gcd of
    level[u] + 1 - level[v] over all edges, with queue-based BFS levels."""
    n = adj.shape[0]
    level = np.full(n, -1)
    level[0] = 0
    queue = [0]
    while queue:
        u = queue.pop(0)
        for v in np.nonzero(adj[u])[0]:
            if level[v] < 0:
                level[v] = level[u] + 1
                queue.append(int(v))
    g = 0
    for u in range(n):
        for v in np.nonzero(adj[u])[0]:
            g = math.gcd(g, int(level[u]) + 1 - int(level[v]))
    return abs(g) if g else 1


def birth_death_stationary(transition: np.ndarray) -> list[Fraction]:
    """Product-form stationary law of a birth-death chain, in Fractions:
    pi_i is proportional to prod_{j<=i} T[j-1, j] / T[j, j-1]."""
    w = [Fraction(1)]
    for j in range(1, transition.shape[0]):
        w.append(w[-1] * Fraction(transition[j - 1, j]) / Fraction(transition[j, j - 1]))
    total = sum(w)
    return [v / total for v in w]


def dense_next_state(transition: np.ndarray, y: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The dense u -> next-state rule: the number of entries of the full
    cumulative row P[y] below u, each row's last entry set to 1.0 (which
    moves u = 0.0 to state 0 even where P[y, 0] = 0)."""
    cum = np.cumsum(transition, axis=1)
    cum[:, -1] = 1.0
    return (cum[y] < u[:, None]).sum(axis=1)


def state_paths_by_block(model, n: int, chains: int, seed: int, block: int) -> np.ndarray:
    """(chains, n + 1) stationary state paths, stepped one block of `block`
    chains at a time: block b draws from PCG64(SeedSequence(seed, spawn_key
    (b,))) its Y_0 uniforms, then one call of random(size) per step, mapped by
    `dense_next_state`."""
    cum_pi = np.cumsum(model.pi)
    cum_pi[-1] = 1.0
    out = np.empty((chains, n + 1), dtype=np.int64)
    for b, lo in enumerate(range(0, chains, block)):
        hi = min(lo + block, chains)
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(entropy=seed, spawn_key=(b,))))
        y = np.searchsorted(cum_pi, rng.random(hi - lo), side="left")
        out[lo:hi, 0] = y
        for t in range(1, n + 1):
            y = dense_next_state(model.transition, y, rng.random(hi - lo))
            out[lo:hi, t] = y
    return out


def empirical_ks_by_one_sided_maxima(samples, sigma_n: float) -> float:
    """max(D+, D-) with D+ = max_i (i/n - Phi(w_(i))) and D- = max_i (Phi(w_(i)) - (i-1)/n)
    over the sorted standardised samples w_(1) <= ... <= w_(n)."""
    w = np.sort(np.asarray(samples, dtype=float)) / sigma_n
    n = w.size
    phi = 0.5 * special.erfc(-w / np.sqrt(2.0))
    return float(max(np.max(np.arange(1, n + 1) / n - phi), np.max(phi - np.arange(n) / n)))
