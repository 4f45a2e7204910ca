"""Survival functions from the MGF by saddle-point Laplace inversion.

The survival function of the summed power is the Bromwich integral of
M(s) e^{sv} / (-s).  With the phase

    Phi(s; v) = ln M(s) - ln(-s) + s v            (right tail, s0 < 0)

the integration contour is deformed onto the steepest-descent path through
the real saddle s0 (the unique stationary point of Phi on the pole-free
interval).  Reparametrizing by tau(z) = Phi(s0) - Phi(s0 - z/v) turns the
path integral into an e^{-tau}-weighted average of Im z(tau):

    F(v) = e^{Phi(s0)} / (pi v) * integral_0^inf e^{-tau} Im z(tau) dtau.

With sigma = sqrt(tau) the integrand e^{-sigma^2} 2 sigma Im z(sigma^2) is
even and analytic, so the fixed trapezoid rule in sigma (``_TAU_RULE``, 32
nodes up to tau = 34.8) converges geometrically (Trefethen & Weideman, SIAM
Review 56(3), 2014).  z(tau) comes from damped complex Newton on the upper
branch.  Below the mean the same machinery runs on the positive saddle of
the CDF phase (ln(-s) -> ln(s)) and the complement is returned.

A texture-averaged curve needs one inversion per (power level, texture
node) pair, and ``survival_pairs`` does all of them in one vectorized pass:

- The MGFs come as one ``mgf_core.PoleMgf`` table, as the coefficient
  builder returns it: (pairs, width) arrays of
  ln M(s) = sum_j alpha_j ln(1 + a_j s) + beta_j s / (1 + a_j s),
  which holds the rational form (beta = 0) and the steady form alike, one
  left-packed, zero-padded row per MGF.  A block of pairs gathers its rows
  (``PoleMgf.take``), which also give ln M and its first two derivatives,
  and the mean, largest pole and support shift are row reductions.
- The saddle bracket search and the bisection-safeguarded Newton run on
  all pairs at once; a pair leaves the active set when it converges.  The
  Newton step cancels the phase derivative's nearest poles first.
- Each pair's phase becomes a row
  tau(z) = lam z + sum_j w_j ln(1 - c_j z) - sum_j g_j z / (1 - c_j z),
  evaluated in full at every (pair, tau node) element.
- The tau-Newton runs on all (pair, tau node) elements with per-element
  backtracking, in two passes: every fourth node from the series
  reversion at the saddle, then the others from a Hermite interpolant
  through those, taking the steps a curvature bound proves converged
  unevaluated.  It stops at the row's own rounding floor, and an element
  it cannot solve raises NoConvergence with its pair.

Padding entries (a = alpha = beta = 0, c = w = g = 0) contribute exactly
zero.  Two bounds keep the working arrays small however many pairs a
call has.  The evaluator takes its elements in chunks of at most
_BLOCK_ELEMENTS (element x table column) entries, and a saddle solve
takes at most _BLOCK_ELEMENTS (pair x column) entries.  The evaluator's
chunk-sized arrays are per-block buffers: allocated once per block of
pairs and written in place by every call, so no call allocates (element
x column) temporaries: at 128 KiB, glibc malloc's mmap threshold, fresh
ones page-fault on every call.  Both Newton
passes run on groups of at most _NEWTON_ELEMENTS (pair x tau node)
elements whatever the row width, so wide rows do not shrink a pass to a
few pairs.  ln(1 - c z) is computed in real arithmetic as
ln|1 - c z| + i arg(1 - c z): about ten times cheaper than numpy's
complex log of 1 - c z (26 vs 244 ns per element on a 2-vCPU Xeon), on
the same principal branch and with the same signed zeros.

``solve_saddle``, ``survival_sdp`` and ``survival_sp`` are one-pair calls
of the same engine; ``solve_saddle`` returns the saddle, r2 and the tail.
Each pair's saddle s0 can come back next to its survival
(``survival_pairs``), for the slope of the texture sum.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateV, NoConvergence
from .mgf_core import _rowdot

SADDLE_MAX_ITER = 200
NEWTON_MAX_ITER = 60
# Entries (element x table column) of the evaluator's temporaries, per
# chunk of elements; also (pair x table column) of a saddle-solve block.
_BLOCK_ELEMENTS = 1 << 14
# (pair x tau node) elements of one Newton group: its per-element state,
# not the table width, is what this bounds.
_NEWTON_ELEMENTS = 1 << 12
# Every _COARSE_STRIDE-th tau node is solved first (see _invert_nodes).
_COARSE_STRIDE = 4


def support_shift(mgf):
    """Deterministic offset of the distribution's lower support bound, per
    row of an MGF table.

    Zero-eigenvalue poles of the steady-target MGF contribute pure
    exp(beta s) factors, i.e. an additive constant; survival is exactly 1
    at or below the total shift.
    """
    return -np.where(mgf.a == 0.0, mgf.beta, 0.0).sum(axis=-1)


def _tau_rule(K, W):
    """Nodes tau_k = (k h)^2 and weights 2 h sqrt(tau_k) e^{-tau_k}, k = 1..K,
    h = W / K: the trapezoid rule in sqrt(tau) for int e^{-tau} f dtau."""
    sig = (W / K) * np.arange(1, K + 1)
    return sig * sig, (2.0 * W / K) * sig * np.exp(-sig * sig)


_TAU_RULE = _tau_rule(32, 5.9)


def _at(exc, pair):
    """Tag a numerical failure with the batch index of its pair."""
    exc.pair = int(pair)
    return exc


def _cross(a, b, e, f, op, out, tmp):
    """op(a b, e f) written into out, with tmp as scratch."""
    return op(np.multiply(a, b, out=out), np.multiply(e, f, out=tmp), out=out)


def _log1m(c, x, y, out):
    """1 - c z for z = x + i y, as real part xp, imaginary part yp and
    squared modulus d, then twice the real part lr and the imaginary part li
    of ln(1 - c z), written into the arrays out = (xp, yp, d, lr, li).
    0.0 - c y gives the imaginary part numpy's complex product gives,
    signed zero included."""
    xp, yp, d, lr, li = out
    np.subtract(1.0, np.multiply(c, x, out=xp), out=xp)
    np.subtract(0.0, np.multiply(c, y, out=yp), out=yp)
    _cross(xp, xp, yp, yp, np.add, d, lr)
    np.log(d, out=lr)
    np.arctan2(yp, xp, out=li)
    return out


def _solve_saddles(v, tab):
    """Real saddle of each pair's survival phase (v >= mean) or CDF phase.

    The phase derivative f(s) = d ln M/ds - 1/s + v is strictly increasing
    on each branch (the MGF is log-convex), so a bracket search followed by
    Newton with a bisection safeguard converges; both run on the pairs not
    yet done.  The Newton step is taken on g = f q, q = s (1 + a_max s) on
    the right tail and s on the left: g has f's roots, and q cancels the
    poles of f nearest the saddle, so g is close to a low-order polynomial.
    A pair accepted at |f| < 1e-11 v keeps its last step when that step is
    Newton's.  Returns s0, r2, the phase at s0 and the left-tail mask.
    """
    left, a_max = v < tab.mean, tab.a_max
    lo = np.where(left, 1e-12, -(1.0 - 1e-12) / a_max)
    hi = np.where(left, 1.0, 0.5 * lo)

    def f(i, s):
        d1, d2 = tab.derivatives(i, s)
        return d1 - 1.0 / s + v[i], d2 + 1.0 / (s * s)

    with np.errstate(over="ignore"):
        act = np.arange(v.size)
        for _ in range(2000):
            act = act[~(f(act, hi[act])[0] > 0.0)]
            if act.size == 0:
                break
            lo[act] = hi[act]
            hi[act] *= np.where(left[act], 2.0, 0.5)
            far = act[hi[act] > 1e15]
            if far.size:
                raise _at(NoConvergence(
                    "left-tail saddle beyond search range; v is at the "
                    "lower support bound"), far[0])
        else:
            raise _at(NoConvergence("right-tail saddle bracket not found"),
                      act[0])

        x = 0.5 * (lo + hi)
        tol = 1e-11 * np.abs(v)
        am = np.where(left, 0.0, a_max)
        act = np.arange(v.size)
        for _ in range(SADDLE_MAX_ITER):
            xa = x[act]
            fx, fp = f(act, xa)
            neg = fx < 0.0
            lo[act[neg]] = xa[neg]
            hi[act[~neg]] = xa[~neg]
            la, ha = lo[act], hi[act]
            q = xa * (1.0 + am[act] * xa)
            x_new = xa - fx * q / (fp * q + fx * (1.0 + 2.0 * am[act] * xa))
            inside = (la < x_new) & (x_new < ha)
            x_new = np.where(inside, x_new, 0.5 * (la + ha))
            done = (np.abs(fx) < tol[act]) | (x_new == xa)
            x[act] = np.where(done & ~inside, xa, x_new)
            act = act[~done]
            if act.size == 0:
                break
        else:
            raise _at(NoConvergence(
                f"saddle iteration stalled at v={v[act[0]]}"), act[0])

        _, d2 = tab.derivatives(slice(None), x)
    r2 = (d2 + 1.0 / (x * x)) / (v * v)
    phase0 = tab.log_mgf(x) - np.log(np.abs(x)) + x * v
    return x, r2, phase0, left


class _TauRows:
    """tau(z) = Phi(s0) - Phi(s0 - z/v) and tau'(z) for a block of pairs:

        tau(z) = lam z + sum_j w_j ln(1 - c_j z) - sum_j g_j z / (1 - c_j z)

    with c_j = a_j / (v (1 + a_j s0)), w_j = -alpha_j,
    g_j = -beta_j / (v (1 + a_j s0)^2), plus c = 1/(s0 v) with w = 1 from
    ln(-+s); zero poles are linear in z and folded into lam.  The (element
    x column) temporaries of every call live in work arrays allocated once,
    with the instance.
    """

    def __init__(self, v, tab, s0):
        d0 = 1.0 + tab.a * s0[:, None]
        c = tab.a / (v[:, None] * d0)
        g = -tab.beta / (v[:, None] * d0 * d0)
        lin = tab.a == 0.0
        self.lam = 1.0 - np.where(lin, g, 0.0).sum(axis=1)
        g[lin] = 0.0
        one = np.ones((v.size, 1))
        self.c = np.concatenate(((1.0 / (s0 * v))[:, None], c), axis=1)
        self.w = np.concatenate((one, -tab.alpha), axis=1)
        self.wc = self.w * self.c
        self.g = (np.concatenate((0.0 * one, g), axis=1)
                  if tab.has_beta else None)
        self.width = self.c.shape[1]
        self.per = max(1, _BLOCK_ELEMENTS // self.width)
        self._work = np.empty((8, self.per, self.width))
        # row sums in the work arrays, per rows at a time: the Taylor
        # coefficients a_k = -sum_j w_j c_j^k / k - sum_j g_j c_j^(k-1) of
        # tau at 0, k = 2, 3, 4, and W = sum_j |w_j|, G = 2 sum_j |g_j| /
        # c_j^2, where g_j = 0 wherever c_j = 0
        self.taylor, self.curv = np.zeros((3, v.size)), np.zeros((2, v.size))
        for r in range(0, v.size, self.per):
            r = slice(r, r + self.per)
            c, w, g = self.c[r], self.w[r], self.g
            ck, t = self._work[:2, :c.shape[0]]
            np.copyto(ck, c)
            for k in range(3):
                if g is not None:
                    self.taylor[k, r] = -_rowdot(g[r], ck)
                ck *= c
                self.taylor[k, r] -= _rowdot(w, ck) / (k + 2)
            self.curv[0, r] = np.abs(w, out=t).sum(axis=1)
            if g is not None:
                np.maximum(np.multiply(c, c, out=ck), 1e-300, out=ck)
                self.curv[1, r] = 2.0 * np.divide(np.abs(g[r], out=t), ck,
                                                  out=t).sum(axis=1)
        # rounding floor 2u W, u = 2^-53: |1 - c_j z|^2 formed as in _log1m
        # carries up to 4u, so each w_j ln|1 - c_j z| errs by up to 2u |w_j|
        # whatever its size (Higham, Accuracy and Stability, ch. 2)
        self.floor = 2.0 ** -52 * self.curv[0]

    def __call__(self, z, p):
        """tau and tau' at elements z of block pairs p, in chunks of at
        most _BLOCK_ELEMENTS (element x column) entries."""
        per = self.per
        tau, dtau = np.empty(z.size, complex), np.empty(z.size, complex)
        for s in range(0, z.size, per):
            tau[s:s + per], dtau[s:s + per] = self._chunk(z[s:s + per],
                                                          p[s:s + per])
        return tau, dtau

    def _chunk(self, z, p):
        # p indexes the block's own rows, so mode="clip" never clips; it
        # lets np.take write into out without buffering it
        c, w, wc, xp, yp, d, lr, li = self._work[:, :z.size]
        for row, out in ((self.c, c), (self.w, w), (self.wc, wc)):
            np.take(row, p, axis=0, out=out, mode="clip")
        x, y = z.real[:, None], z.imag[:, None]
        _log1m(c, x, y, (xp, yp, d, lr, li))
        wc /= d
        lam = np.take(self.lam, p)
        tau = lam * z + 0.5 * _rowdot(w, lr) + 1j * _rowdot(w, li)
        dtau = lam - _rowdot(wc, xp) + 1j * _rowdot(wc, yp)
        if self.g is not None:
            # g z / (1 - c z) and its derivative g / (1 - c z)^2, in the
            # work arrays of c, lr and li, which are no longer read
            g = np.take(self.g, p, axis=0, out=c, mode="clip")
            g /= d
            tau -= (_rowdot(g, _cross(x, xp, y, yp, np.add, lr, li))
                    + 1j * _rowdot(g, _cross(y, xp, x, yp, np.subtract,
                                             lr, li)))
            g /= d
            dtau -= (_rowdot(g, _cross(xp, xp, yp, yp, np.subtract, lr, li))
                     - 2j * _rowdot(g, np.multiply(xp, yp, out=lr)))
        return tau, dtau


def _tol(taus, z):
    """The tau-Newton's tolerance, with a roundoff allowance for large |z|."""
    return 1e-13 * np.maximum(1.0, taus) + 2e-14 * np.abs(z)


def _step_bound(ev, p, z, step):
    """Bound on |tau(z + step) - tau(z) - tau'(z) step| for pairs p: for
    real c_j, |1 - c_j x| >= |c_j| Im x, so |tau''| <= W / y^2 + G / y^3
    on the step (y > 0 its lowest Im; W, G in ``ev.curv``)."""
    y = np.minimum(z.imag, z.imag + step.imag)
    with np.errstate(all="ignore"):
        b = (ev.curv[1, p] / y + ev.curv[0, p]) / (y * y)
        b *= 0.5 * np.abs(step) ** 2
    return np.where(y > 0.0, b, np.inf)


def _newton(taus, z0, ev, p, unconfirmed=False):
    """Damped Newton for tau(z) = taus on the Im z > 0 branch.

    Element e belongs to pair p[e]; ``ev(z, p)`` returns tau and tau', and
    ``ev.floor`` each pair's rounding floor.  An element is solved at
    |tau(z) - taus| <= _tol(taus, z), or by one step taken from within the
    floor.  A sweep works on the unsolved elements only, and each step
    halving (at most 30 trials) only on the elements whose trial left the
    upper half plane or raised |residual|.  With ``unconfirmed``, a step
    is taken unevaluated where _step_bound plus the floor is within the
    tolerance and the bound is below |residual| (so no halving).  Returns
    z and tau' at z (stale after an unevaluated step); an element unsolved
    after NEWTON_MAX_ITER sweeps raises NoConvergence with its pair.
    """
    z = np.array(z0, dtype=complex)
    tau, dtau = ev(z, p)
    resid = tau - taus
    act = np.arange(z.size)
    for sweep in range(NEWTON_MAX_ITER + 1):
        # only the elements a sweep moved can have converged, and a NaN
        # residual stays unsolved
        act = act[~(np.abs(resid[act]) <= _tol(taus[act], z[act]))]
        if act.size == 0:
            return z, dtau
        if sweep == NEWTON_MAX_ITER:
            raise _at(NoConvergence(
                f"tau-Newton stalled at tau={taus[act[0]]}"), p[act[0]])
        ra, da = resid[act], dtau[act]
        step = -ra / np.where(np.abs(da) < 1e-300, 1e-300, da)
        if unconfirmed:
            za, pa = z[act], p[act]
            b = _step_bound(ev, pa, za, step)
            sure = ((b + ev.floor[pa] <= _tol(taus[act], za + step))
                    & (b < np.abs(ra)))
            z[act[sure]] = za[sure] + step[sure]
            act, ra, step = act[~sure], ra[~sure], step[~sure]
            if act.size == 0:
                continue
        za, ta, pa = z[act], taus[act], p[act]
        z_try = za + step
        r_try, d_try = ev(z_try, pa)
        r_try -= ta
        bad = np.flatnonzero((z_try.imag <= 0.0)
                             | (np.abs(r_try) > np.abs(ra)))
        scale = 1.0
        for _ in range(29):
            if bad.size == 0:
                break
            scale *= 0.5
            zb = za[bad] + scale * step[bad]
            rb, db = ev(zb, pa[bad])
            rb -= ta[bad]
            z_try[bad], r_try[bad], d_try[bad] = zb, rb, db
            bad = bad[(zb.imag <= 0.0) | (np.abs(rb) > np.abs(ra[bad]))]
        ok = np.ones(act.size, dtype=bool)
        ok[bad] = False
        done = act[ok]
        z[done], resid[done], dtau[done] = z_try[ok], r_try[ok], d_try[ok]
        # no step beats the rounding floor: one from within it is the last
        act = act[~(np.abs(ra) <= ev.floor[pa])]


def _series_start(ev, t, r2, pairs):
    """Starts z(t), shape (pairs, nodes): the series reversion of
    tau = a_2 z^2 (1 + p z + q z^2) (Daniels, Ann. Math. Stat. 25, 1954),
    z0 = zeta (1 - (p/2) zeta + (5 p^2/8 - q/2) zeta^2), zeta = i sqrt(2 t
    / r2), p = a_3 / a_2, q = a_4 / a_2; zeta where z0 leaves the upper
    half plane or a correction term reaches 1."""
    zeta = 1j * np.sqrt(2.0 * t / r2[pairs][:, None])
    a2, a3, a4 = ev.taylor[:, pairs, None]
    p, q = a3 / a2, a4 / a2
    c1 = -0.5 * p * zeta
    c2 = (0.625 * p * p - 0.5 * q) * zeta * zeta
    z0 = zeta * (1.0 + c1 + c2)
    return np.where((z0.imag > 0.0) & (np.abs(c1) < 1.0) & (np.abs(c2) < 1.0),
                    z0, zeta)


def _invert_nodes(ev, t, r2, pairs):
    """z(tau) at every (pair, node t) element, shape (pairs, nodes).

    Two Newton passes run on all pairs at once.  The coarse pass solves
    every _COARSE_STRIDE-th node, counted back from the last one, from
    ``_series_start``, evaluating every step: its tau' gives the slopes
    below.  The fill pass starts each other node from the cubic Hermite
    interpolant in sigma = sqrt(tau) through the solved nodes, with slope
    dz/dsigma = 2 sigma / tau'(z) there and the anchor z = 0,
    dz/dsigma = i sqrt(2 / r2) at sigma = 0, and takes proven steps
    unevaluated.  An element either pass leaves unsolved raises
    NoConvergence with its pair (``_newton``).
    """
    n, m = t.size, pairs.size
    sig = np.sqrt(t)
    z = np.empty((m, n), dtype=complex)
    k = np.arange((n - 1) % _COARSE_STRIDE, n, _COARSE_STRIDE)
    f = np.setdiff1d(np.arange(n), k)
    z0 = _series_start(ev, t[k], r2, pairs)
    zk, dk = _newton(np.tile(t[k], m), z0.ravel(), ev,
                     np.repeat(pairs, k.size))
    z[:, k] = zk.reshape(m, -1)
    if f.size:
        # knots: the anchor, then the coarse nodes
        ks = np.concatenate(([0.0], sig[k]))
        kz = np.concatenate((np.zeros((m, 1)), z[:, k]), axis=1)
        kd = np.concatenate((1j * np.sqrt(2.0 / r2[pairs])[:, None],
                             2.0 * sig[k] / dk.reshape(m, -1)), axis=1)
        j = np.searchsorted(ks, sig[f])
        h = ks[j] - ks[j - 1]
        x = (sig[f] - ks[j - 1]) / h
        y = 1.0 - x
        start = (y * y * ((1.0 + 2.0 * x) * kz[:, j - 1]
                          + x * h * kd[:, j - 1])
                 + x * x * ((1.0 + 2.0 * y) * kz[:, j] - y * h * kd[:, j]))
        zf, _ = _newton(np.tile(t[f], m), start.ravel(), ev,
                        np.repeat(pairs, f.size), unconfirmed=True)
        z[:, f] = zf.reshape(m, -1)
    return z


def _survival_block(v, tab, integrator):
    s0, r2, phase0, left = _solve_saddles(v, tab)
    with np.errstate(under="ignore"):
        if integrator == "sp":
            val = np.exp(phase0) / (v * np.sqrt(2.0 * math.pi * r2))
        else:
            ev = _TauRows(v, tab, s0)
            t, w = _TAU_RULE
            per = max(1, _NEWTON_ELEMENTS // t.size)
            corr = np.empty(v.size)
            for start in range(0, v.size, per):
                pairs = np.arange(start, min(start + per, v.size))
                z = _invert_nodes(ev, t, r2, pairs)
                corr[pairs] = z.imag @ w
            val = np.exp(phase0) / (math.pi * v) * corr
    # the tail integral is the survival's complement on the left tail
    return np.clip(np.where(left, 1.0 - val, val), 0.0, 1.0), s0


def survival_pairs(v, table, rows, integrator: str = "sdp", saddles=None):
    """Survival at every pair (v[i], row rows[i] of the MGF table) in one
    batched pass; a single MGF row serves as a one-row table.  An array
    ``saddles`` of v's size receives each pair's saddle s0 (left as it is
    where the survival is exactly 1).

    ``integrator`` is "sdp" (steepest-descent path, numerically exact) or
    "sp" (basic saddle-point approximation).  Survival is exactly 1 at or
    below an MGF's support shift.  A non-finite v raises DegenerateV.  A
    DegenerateV or NoConvergence carries the index i of its pair as
    ``exc.pair``.
    """
    v = np.asarray(v, dtype=float)
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        raise _at(DegenerateV(f"power level v {v[bad[0]]} is not finite"),
                  bad[0])
    rows = np.asarray(rows, dtype=int)
    shift = np.atleast_1d(support_shift(table))[rows]
    out = np.ones(v.size)
    live = np.flatnonzero(v > shift * (1.0 + 1e-12))
    if live.size == 0:
        return out
    per = max(1, _BLOCK_ELEMENTS // (1 + table.a.shape[-1]))
    for start in range(0, live.size, per):
        blk = live[start:start + per]
        try:
            out[blk], s0 = _survival_block(
                v[blk], table.take(rows[blk]), integrator)
        except NoConvergence as exc:
            raise _at(exc, blk[exc.pair])
        if saddles is not None:
            saddles[blk] = s0
    return out


def solve_saddle(v: float, mgf):
    """Real saddle s0 of one MGF row's survival phase at v (or its CDF
    phase below the mean), r2 = Phi''(s0) / v^2 and the left-tail flag."""
    if not 0.0 < v < math.inf:
        raise DegenerateV(f"power level v {v} must be positive and finite")
    s0, r2, _, left = _solve_saddles(np.array([float(v)]), mgf.take([0]))
    return float(s0[0]), float(r2[0]), bool(left[0])


def survival_sdp(v: float, mgf) -> float:
    """Steepest-descent-path survival: numerically exact for the given MGF."""
    return float(survival_pairs([v], mgf, [0], "sdp")[0])


def survival_sp(v: float, mgf) -> float:
    """Basic saddle-point approximation e^{Phi(s0)} / (v sqrt(2 pi r2))."""
    return float(survival_pairs([v], mgf, [0], "sp")[0])
