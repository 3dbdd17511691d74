"""Independent brute-force oracles used only by the tests.

Nothing here shares code with the package's computational paths: sum
distributions come from exhaustive path enumeration, from a plain log-space
DP that sums one destination state at a time, from the scaled forward DP in
blocks stepped on every lattice point (the package steps only the sublattice
the sums occupy), or from path counts in Python integers, binomial tails from
exact integer combinatorics or plain lgamma sums, and scalar formulas are
re-evaluated inline where they are checked.
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


def fraction_max_abs_tail(model, n: int, xs) -> list[Fraction]:
    """P(max_{1<=i<=n} |S_i| >= x) for each x by exhaustive enumeration in exact
    Fractions throughout: the stationary law of `fraction_stationary`, the rows
    renormalised as it does, and the centred payoff f_num / denom - mean_fraction.
    Inclusive at atoms: an x a rounding (2^-20) above a reachable peak takes it."""
    rows = [[Fraction(float(v)) for v in raw] for raw in model.transition]
    rows = [[v / sum(r) for v in r] for r in rows]
    x = [Fraction(int(f), model.denom) - model.mean_fraction for f in model.f_num]
    law = {}  # peak -> probability

    def walk(state, prob, total, peak, steps):
        if steps == n:
            law[peak] = law.get(peak, 0) + prob
            return
        for nxt, p in enumerate(rows[state]):
            if p:
                walk(nxt, prob * p, total + x[nxt], max(peak, abs(total + x[nxt])), steps + 1)

    for start, p in enumerate(fraction_stationary(model.transition)):
        if p:
            walk(start, p, Fraction(0), Fraction(0), 0)
    cuts = [Fraction(float(v)) - Fraction(1, 2 ** 20) for v in xs]
    return [sum((p for peak, p in law.items() if peak >= cut), Fraction(0)) for cut in cuts]


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


def full_lattice_sum_law_steps(model, n: int, block_steps: int, lin_range: float):
    """Yield (k0, table, ref) for t = 1..n: log P(Y_t = j, S_t = (k0 + i) /
    denom) is table[j, i] where ref is None, else log(table[j, i]) + ref[i],
    by the scaled forward DP in blocks on every lattice point of
    [t min f_num, t max f_num], occupied or not.  A block refers each
    column to the largest log-mass of the nearest occupied column at or left
    of it (the first occupied one left of all, the last past them), holds the
    masses over e^ref and runs up to block_steps steps of one product with
    P^T and a row copy times e^(ref[i - f_j + min f] - ref[i]); its last step
    takes the log of the product, shifted back by the source column's ref.
    How many steps: the products' and factors' worst growth and decay, read
    off occupied columns, keep every live entry within e^+-lin_range.  A
    block is one step where a live entry lies 2^-960 / min P below its
    column's largest, and such columns are summed in log space."""
    p, xnum = model.transition, model.f_num.astype(np.int64)
    xmin, spread = int(xnum.min()), int(xnum.max() - xnum.min())
    rises = (xnum - xmin).tolist()
    s, width = model.n_states, n * spread + 1
    cur, nxt = np.full((s, width), -np.inf), np.empty((s, width))
    with np.errstate(divide="ignore"):
        log_t, cur[:, 0] = np.log(p), np.log(model.pi)
    min_p = p[p > 0].min()
    floor = np.log(2.0 ** -960 / min_p)
    grow, shrink = math.log(p.sum(axis=0).max()), -math.log(min_p)
    t = 0
    while t < n:
        w = t * spread + 1
        end = min(w + block_steps * spread, width)
        top = np.max(cur[:, :w], axis=0)
        occupied = np.flatnonzero(top > -np.inf)
        ref = top[occupied[np.maximum(np.searchsorted(occupied, np.arange(end), "right") - 1, 0)]]
        cur[:, :w] -= ref[:w]
        live = cur[:, :w] > -np.inf
        low = cur[:, :w][live].min()
        rare = np.flatnonzero(((cur[:, :w] < floor) & live).any(axis=0))
        if rare.size:
            k, acc = 1, np.full((s, rare.size), -np.inf)
            for i in range(s):
                acc = np.logaddexp(acc, log_t[i, :, None] + (cur[i, rare] + ref[rare]))
        else:
            lags = {d: ref[:end - d] - ref[d:end] for d in set(rises) - {0}}
            up = max([0.0] + [float(v.max()) for v in lags.values()])
            down = max([0.0] + [float(-v.min()) for v in lags.values()])
            room = min((lin_range - grow) / max(grow + up, 1e-9),
                       (lin_range + low - shrink) / max(shrink + down, 1e-9))
            k = 1 + min(block_steps - 1, int(room))
            phi = {d: np.exp(v) for d, v in lags.items()}
        np.exp(cur[:, :w], out=cur[:, :w])
        cur[:, w:] = 0.0
        for step in range(k):
            t += 1
            w, last = (t - 1) * spread + 1, step == k - 1
            prod = nxt[:, :w]
            np.matmul(p.T, cur[:, :w], out=prod)
            if last:
                with np.errstate(divide="ignore"):
                    np.log(prod, out=prod)
                prod += ref[:w]
            cur[:, :w + spread] = -np.inf if last else 0.0
            for j, d in enumerate(rises):
                cur[j, d:d + w] = prod[j] if last or not d else prod[j] * phi[d][:w]
            if last:
                for j, d in enumerate(rises if rare.size else []):
                    cur[j, rare + d] = acc[j]
                yield t * xmin, cur[:, :w + spread].copy(), None
            else:
                yield t * xmin, cur[:, :w + spread].copy(), ref[:w + spread]
            if t == n:
                return


def full_lattice_tables(model, ns: list[int], block_steps: int,
                        lin_range: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """(offsets, logp) of S_n for every n in ns, marginalised over the state
    from one `full_lattice_sum_law_steps` pass to max(ns): a log table by
    logaddexp over the states, a linear one by its column sums, then logged."""
    out = {}
    steps = full_lattice_sum_law_steps(model, max(ns), block_steps, lin_range)
    for t, (k0, table, ref) in enumerate(steps, start=1):
        if t in ns:
            with np.errstate(divide="ignore"):
                marg = (np.logaddexp.reduce(table, axis=0) if ref is None
                        else np.log(table.sum(axis=0)) + ref)
            keep = np.flatnonzero(marg > -np.inf)
            out[t] = (keep + k0, marg[keep])
    return [out[n] for n in ns]


def integer_law(model, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Law of the raw lattice numerator of S_n as (offsets, logp), exactly:
    pi and P enter as the binary fractions their floats hold, scaled to
    integers by one power of two 2^scale, and a forward DP over (state, sum)
    from Y_0 ~ pi counts paths in Python integers, so P(S_n = k) is a count
    over 2^(scale (n + 1)).  Its log is math.log of the count's leading 53
    bits, read as a fraction in [1/2, 1), plus the binary exponent times log 2."""
    scale = max(Fraction(float(v)).denominator for v in [*model.transition.flat, *model.pi]
                ).bit_length() - 1  # denominators of binary fractions are powers of two
    trans = [[int(Fraction(float(v)) * 2 ** scale) for v in row] for row in model.transition]
    xnum = [int(v) for v in model.f_num]
    cur = [{0: int(Fraction(float(v)) * 2 ** scale)} for v in model.pi]
    for _ in range(n):
        nxt = [{} for _ in xnum]
        for i, col in enumerate(cur):
            for j, a in enumerate(trans[i]):
                if a:
                    dst, x = nxt[j], xnum[j]
                    for k, c in col.items():
                        dst[k + x] = dst.get(k + x, 0) + c * a
        cur = nxt
    counts = {}
    for col in cur:
        for k, c in col.items():
            counts[k] = counts.get(k, 0) + c
    offsets = np.array(sorted(k for k, c in counts.items() if c), dtype=np.int64)
    bits = scale * (n + 1)

    def log_count(c: int) -> float:
        e = c.bit_length()
        return math.log(math.ldexp(c >> max(e - 53, 0), -min(e, 53))) + (e - bits) * math.log(2.0)

    return offsets, np.array([log_count(counts[int(k)]) for k in offsets])


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


def binom_log_tail_every_term(n: int, k0: int) -> float:
    """log P(Binomial(n, 1/2) >= k0) as one logsumexp over every k from k0 to
    n of scipy's log-gamma terms: the same terms the windowed sum adds, and the
    ones it leaves out, each e^-750 or less of the largest."""
    ks = np.arange(max(k0, 0), n + 1)
    return float(special.logsumexp(special.gammaln(n + 1) - special.gammaln(ks + 1)
                                   - special.gammaln(n - ks + 1) - n * math.log(2.0)))


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


def sigma_n_by_doubling(model, n: int) -> float:
    """sigma_n by binary powering through every bit of n: the block of lags of
    length L carries (A^L, S_L x, T_L x), A = P - 1 pi^T, and is doubled and
    prepended until 2 L > n, however small A^L has become."""
    x = model.x_values
    power = model.transition - model.pi
    s_blk, t_blk = x, np.zeros_like(x)
    s_x = t_x = np.zeros_like(x)
    length = 1
    while True:
        if n & length:
            s_x, t_x = s_blk + power @ s_x, t_blk + power @ (t_x + length * s_x)
        if 2 * length > n:
            break
        s_blk, t_blk = s_blk + power @ s_blk, t_blk + power @ (t_blk + length * s_blk)
        power = power @ power
        length *= 2
    v = s_x - x - t_x / n
    return float(np.sqrt(float(model.pi @ (x * x)) + 2.0 * float(model.pi @ (x * v))))


def tilt_moments_by_product_rule(p, pi, rise, n: int, phi: float, t: float):
    """(log E e^{phi (K_n - n t)}, E_phi K_n - n t, Var_phi K_n): binary powering
    of X = P diag(e^{phi (rise - t)}) together with its first two derivatives in
    phi, X' = X d and X'' = X d^2, d = diag(rise - t), by the product rule written
    out, each power and row rescaled by the largest entry of its value part."""
    d = rise - t
    c = float(np.max(phi * d))
    x = p * np.exp(phi * d - c)
    x1, x2 = x * d, x * d * d
    u, u1, u2 = pi, np.zeros_like(pi), np.zeros_like(pi)
    log_scale, log_x = n * c, 0.0
    while True:
        if n & 1:
            u, u1, u2 = u @ x, u1 @ x + u @ x1, u2 @ x + 2.0 * (u1 @ x1) + u @ x2
            top = float(u.max())
            u, u1, u2 = u / top, u1 / top, u2 / top
            log_scale += log_x + math.log(top)
        n >>= 1
        if not n:
            break
        x, x1, x2 = x @ x, x1 @ x + x @ x1, x2 @ x + 2.0 * (x1 @ x1) + x @ x2
        top = float(x.max())
        x, x1, x2 = x / top, x1 / top, x2 / top
        log_x = 2.0 * log_x + math.log(top)
    m0, mean = float(u.sum()), float(u1.sum() / u.sum())
    return math.log(m0) + log_scale, mean, float(u2.sum() / m0) - mean * mean


def drift_series_every_step(model, m: int, sig: float, j: int) -> float:
    """gamma_m with J = j: all j mat-vecs u <- P^m u from the Poisson solution h
    (one linear solve), each norm ||h - u||_inf weighted by i^-1.5, plus the
    Hurwitz zeta tail ||h||_inf zeta(1.5, j + 1), over sqrt(m) sigma_n."""
    p, n = model.transition, model.n_states
    h = np.linalg.solve(np.eye(n) - p + np.outer(np.ones(n), model.pi), p @ model.x_values)
    p_m = np.linalg.matrix_power(p, m)
    u, norms = h, np.empty(j)
    for i in range(j):
        u = p_m @ u
        norms[i] = float(np.max(np.abs(h - u)))
    partial = float(np.sum(np.arange(1, j + 1, dtype=float) ** -1.5 * norms))
    tail = float(np.max(np.abs(h))) * float(special.zeta(1.5, j + 1))
    return (partial + tail) / (math.sqrt(m) * sig)


def certificate_entry(cert, seq, k: int) -> float:
    """seq_k of a decay certificate by the scalar rule: the stored entry, or
    past the window last * rho^(k - window)."""
    if k <= seq.size:
        return float(seq[k - 1])
    return float(seq[-1]) * cert.geometric_rho ** (k - seq.size)


def certificate_tail_sum(cert, seq, start: int, over_sqrt: bool = False) -> float:
    """sum_{i >= start} seq_i (/ sqrt(i)), one index at a time through
    max(start, window), then that last term times rho / (1 - rho)."""
    weight = (lambda i: 1.0 / math.sqrt(i)) if over_sqrt else (lambda i: 1.0)
    end = max(seq.size, start)
    head = sum(certificate_entry(cert, seq, i) * weight(i) for i in range(start, end + 1))
    rho = cert.geometric_rho
    return head + certificate_entry(cert, seq, end) * rho / (1.0 - rho) * weight(end)


def certified_bounds_by_index(cert, m: int, sigma_n: float, bound_x0: float):
    """(gamma, delta^2) envelopes of a decay certificate, every sum a Python
    loop over indices."""
    s_head = sum(certificate_entry(cert, cert.eta1, i) for i in range(1, m + 1))
    gamma = (s_head + math.sqrt(m) * certificate_tail_sum(cert, cert.eta1, m, True)) / (
        math.sqrt(m) * sigma_n)
    half = m // 2
    t_weighted = sum(i * certificate_entry(cert, cert.eta2, i) for i in range(1, half + 1))
    t_cross = bound_x0 * sum(certificate_tail_sum(cert, cert.eta1, 2 * i)
                             for i in range(1, half + 1))
    t_far = m * certificate_tail_sum(cert, cert.eta2, max(1, half))
    return gamma, (s_head ** 2 + t_weighted + t_cross + t_far) / (m * sigma_n ** 2)


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


def enum_sum_kernel(model, k: int) -> np.ndarray:
    """K[y, j, y'] = P(Y_k = y', sum over t = 1..k of f_num(Y_t) - min f_num = j
    | Y_0 = y) on every integer j, by listing each path of k steps and positive
    probability, one row per path, and adding its product of transitions in at
    its (start, sum, end)."""
    s, p = model.n_states, model.transition
    rise = model.f_num - model.f_num.min()
    start = end = np.arange(s)
    prob, sums = np.ones(s), np.zeros(s, dtype=np.int64)
    for _ in range(k):
        nxt = np.tile(np.arange(s), end.size)
        prob = np.repeat(prob, s) * p[np.repeat(end, s), nxt]
        keep = prob > 0.0
        start, end, prob = np.repeat(start, s)[keep], nxt[keep], prob[keep]
        sums = (np.repeat(sums, s) + rise[nxt])[keep]
    out = np.zeros((s, k * int(rise.max()) + 1, s))
    np.add.at(out, (start, sums, end), prob)
    return out


def kernel_rows(kernel: np.ndarray) -> np.ndarray:
    """A (s, s, L) kernel K[y, y', i] as rows over its columns (y', i), y' major."""
    return kernel.reshape(kernel.shape[0], -1)


def jump_sums_by_chain(model, n: int, chains: int, seed: int, block: int, k: int,
                       kernels: list[np.ndarray]) -> np.ndarray:
    """Raw lattice sums of f_num(Y_1..Y_n) over `chains` stationary chains, one
    chain and one jump at a time.  Block b of `block` chains draws from
    PCG64(SeedSequence(seed, spawn_key (b,))) its Y_0 uniforms, then one call
    of random(size) per jump; a chain takes n // k jumps through kernels[0]
    and, if k does not divide n, one through kernels[1].  A jump from y with
    uniform u goes to the first nonzero column (y', i) of row y, in that
    order, whose cumulative sum over the row is >= u, the last counted as 1.0;
    it adds g i + k' min f_num for a jump of k' steps, g = gcd(f_num - min f_num).
    The kernels are given: tests check the package's against `enum_sum_kernel`."""
    rise = model.f_num - model.f_num.min()
    g, low = int(np.gcd.reduce(rise)), int(model.f_num.min())
    rows = []
    for kernel in kernels:
        table = []
        for row in kernel_rows(kernel):
            cols = np.flatnonzero(row)
            cum = np.cumsum(row)[cols]
            cum[-1] = 1.0
            table.append((cols, cum))
        rows.append((kernel.shape[2], table))
    lengths = [k] * (n // k) + ([n % k] if n % k else [])
    cum_pi = np.cumsum(model.pi)
    cum_pi[-1] = 1.0
    out = np.zeros(chains, dtype=np.int64)
    for b, lo in enumerate(range(0, chains, block)):
        hi = min(lo + block, chains)
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(entropy=seed, spawn_key=(b,))))
        y = np.searchsorted(cum_pi, rng.random(hi - lo), side="left")
        draws = [rng.random(hi - lo) for _ in lengths]
        for c in range(hi - lo):
            state, total = int(y[c]), 0
            for t, steps in enumerate(lengths):
                width, table = rows[steps != k]
                cols, cum = table[state]
                col = int(cols[np.argmax(cum >= draws[t][c])])
                state, total = col // width, total + g * (col % width) + low * steps
            out[lo + c] = total
    return out


def searchsorted_inverse(atoms: np.ndarray, cum: np.ndarray, s) -> np.ndarray:
    """inf{atoms[i] : cum[i] >= s} by one plain binary search of the sorted cum
    per value, the last atom past cum[-1]."""
    return atoms[np.minimum(np.searchsorted(cum, s, side="left"), atoms.size - 1)]


def empirical_ks_by_one_sided_maxima(samples, sigma_n: float) -> float:
    """max(D+, D-) with D+ = max_i (i/n - Phi(w_(i))) and D- = max_i (Phi(w_(i)) - (i-1)/n)
    over the sorted standardised samples w_(1) <= ... <= w_(n)."""
    w = np.sort(np.asarray(samples, dtype=float)) / sigma_n
    n = w.size
    phi = 0.5 * special.erfc(-w / np.sqrt(2.0))
    return float(max(np.max(np.arange(1, n + 1) / n - phi), np.max(phi - np.arange(n) / n)))


def exact_tail_fraction(model, n: int, threshold: float) -> Fraction:
    """P(S_n >= threshold) for the centred sum, exactly: a forward DP over
    (state, raw payoff sum) in Python integers on the binary fractions the
    transition and stationary arrays hold, every entry scaled to an integer
    by the largest of their denominators."""
    scale = max(Fraction(float(v)).denominator for v in [*model.transition.flat, *model.pi]
                ).bit_length() - 1  # denominators of binary fractions are powers of two
    trans = [[int(Fraction(float(v)) * 2 ** scale) for v in row] for row in model.transition]
    xnum = [int(v) for v in model.f_num]
    cur = [{xnum[j]: int(Fraction(float(v)) * 2 ** scale)} for j, v in enumerate(model.pi)]
    for _ in range(n - 1):
        nxt = [{} for _ in xnum]
        for i, col in enumerate(cur):
            for k, c in col.items():
                for j, a in enumerate(trans[i]):
                    if a:
                        nxt[j][k + xnum[j]] = nxt[j].get(k + xnum[j], 0) + c * a
        cur = nxt
    # inclusive at atoms: a threshold a rounding away from an atom takes it
    cut = (Fraction(threshold) + n * model.mean_fraction) * model.denom - Fraction(1, 2 ** 20)
    return Fraction(sum(c for col in cur for k, c in col.items() if k >= cut), 2 ** (scale * n))


def fraction_stationary(transition) -> list[Fraction]:
    """pi P = pi, sum(pi) = 1 by Gauss-Jordan elimination over Fractions, on
    the rows renormalised in exact rational arithmetic."""
    rows = [[Fraction(float(v)) for v in raw] for raw in np.asarray(transition, dtype=float)]
    rows = [[v / sum(r) for v in r] for r in rows]
    n = len(rows)
    # (P^T - I) with the last equation replaced by sum(pi) = 1
    a = [[rows[j][i] - (1 if i == j else 0) for j in range(n)] for i in range(n)]
    b = [Fraction(0)] * n
    a[-1] = [Fraction(1)] * n
    b[-1] = Fraction(1)
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        inv = Fraction(1) / a[col][col]
        a[col] = [v * inv for v in a[col]]
        b[col] *= inv
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y if y else x for x, y in zip(a[r], a[col])]
                b[r] -= f * b[col]
    return b


# Per-row f-string CSV writers: each file's body as it was first written,
# one formatted string per row, for byte comparison with the chunked writer.

def rows_csv(header: str, rows) -> str:
    return "\n".join([header, *rows]) + "\n"


def tail_table_csv(table) -> str:
    return rows_csv("sum,logp", (f"{int(k)},{v:.17g}" for k, v in zip(table.offsets, table.logp)))


def bound_curve_csv(x_grid, value, valid) -> str:
    return rows_csv("x,value,valid", (f"{x:.17g},{v:.17g},{int(ok)}" for x, v, ok
                                      in zip(x_grid, value, valid)))


def tails_csv(x, p, lo, hi) -> str:
    return rows_csv("x,p,lo,hi", (f"{float(a):.17g},{float(b):.17g},{float(c):.17g},"
                                  f"{float(d):.17g}" for a, b, c, d in zip(x, p, lo, hi)))


def ratio_curve_csv(curve) -> str:
    def cell(arr, i):
        return "" if arr is None else f"{arr[i]:.17g}"
    return rows_csv("x,ratio,lo,hi,envelope,ratio_left,lo_left,hi_left", (",".join([
        f"{x:.17g}", f"{curve.right[i]:.17g}", cell(curve.right_lo, i),
        cell(curve.right_hi, i), cell(curve.envelope, i), f"{curve.left[i]:.17g}",
        cell(curve.left_lo, i), cell(curve.left_hi, i)]) for i, x in enumerate(curve.x_grid)))


def mdp_csv(diag) -> str:
    return rows_csv("n,scaled_log_tail,limit", (f"{int(n)},{v:.17g},{diag.limit:.17g}"
                                                for n, v in zip(diag.n_grid, diag.scaled)))


def verify_bounds_csv(pos, exact_p, bern, env_value, env_valid) -> str:
    return rows_csv("x,exact_tail,bernstein,envelope,envelope_valid", (
        f"{x:.17g},{exact_p[i]:.17g},{bern[i]:.17g},{env_value[i]:.17g},{int(env_valid[i])}"
        for i, x in enumerate(pos)))


def coupling_pairs_csv(y, z) -> str:
    return rows_csv("z,y,gap", (f"{zv:.17g},{yv:.17g},{abs(yv - zv):.17g}"
                                for yv, zv in zip(y, z)))
