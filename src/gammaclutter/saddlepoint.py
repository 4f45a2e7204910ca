"""Survival functions from the MGF by saddle-point Laplace inversion.

The survival function of the summed power is the Bromwich integral of
M(s) e^{sv} / (-s).  With the phase

    Phi(s; v) = ln M(s) - ln(-s) + s v            (right tail, s0 < 0)

the integration contour is deformed onto the steepest-descent path through
the real saddle s0 (the unique stationary point of Phi on the pole-free
interval).  Reparametrizing by tau(z) = Phi(s0) - Phi(s0 - z/v) turns the
path integral into an e^{-tau}-weighted average of Im z(tau):

    F(v) = e^{Phi(s0)} / (pi v) * integral_0^inf e^{-tau} Im z(tau) dtau.

Im z(tau) = sqrt(tau) * (analytic in tau), so the integral is evaluated with
generalized Gauss-Laguerre nodes (weight sqrt(tau) e^{-tau}) and z(tau) is
recovered by damped complex Newton on the upper branch.  For power levels
below the mean the same machinery runs on the positive saddle of the CDF
phase (ln(-s) -> ln(s)) and the complement is returned.

A texture-averaged curve needs one inversion per (power level, texture
node) pair, and ``survival_pairs`` does all of them in one vectorized pass:

- The MGFs come as one ``mgf_core.PoleMgf`` table, as the coefficient
  builder returns it: (pairs, width) arrays of
  ln M(s) = sum_j alpha_j ln(1 + a_j s) + beta_j s / (1 + a_j s),
  which holds the rational form (beta = 0) and the steady form alike, one
  left-packed, zero-padded row per MGF.  A block of pairs slices its rows,
  and the mean, largest pole, bulk flag and support shift are row
  reductions.
- The saddle bracket search and the bisection-safeguarded Newton run on
  all pairs at once; a pair leaves the active set when it converges.
- Each pair's phase becomes a row
  tau(z) = lam z + sum_j w_j ln(1 - c_j z) - sum_j g_j z / (1 - c_j z).
  A row with no beta terms and many poles has its small c_j collapsed
  into a 60-term power series, exact to rounding for |z| <= z_top and
  evaluated with a table of powers of z; an element beyond z_top uses the
  full row.
- The tau-Newton runs on all (pair, tau node) elements with per-element
  backtracking; an element it cannot solve is continued in tau on its own.

Padding entries (a = alpha = beta = 0, c = w = g = 0) contribute exactly
zero.  Pairs run in blocks of at most _BLOCK_ELEMENTS table entries, so
the working arrays stay small however many pairs a call has.  ln(1 - c z)
is computed in real arithmetic as ln|1 - c z| + i arg(1 - c z): about
ten times cheaper than numpy's complex log of 1 - c z (26 vs 244 ns per
element on a 2-vCPU Xeon), on the same principal branch and with the same
signed zeros.

``solve_saddle``, ``survival_sdp`` and ``survival_sp`` are one-pair calls
of the same engine.  ``solve_saddle`` builds its own tau row, and
``tau_phase`` and its derivative evaluate it in the exact log form as the
reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np
from scipy.special import roots_genlaguerre

from .errors import DegenerateV, NoConvergence
from .mgf_core import PoleMgf

DEFAULT_TAU_ORDER = 48
SADDLE_MAX_ITER = 200
NEWTON_MAX_ITER = 60
# Power-series collapse of small tau coefficients: rows without beta terms
# and with at least _BULK_MIN_TERMS pole log terms (ln(-+s) included),
# coefficients below _BULK_RATIO / z_top.
_BULK_MIN_TERMS = 24
_BULK_RATIO = 0.5
_BULK_TERMS = 60
# Entries (pair x tau node x table column) of one block's working arrays.
_BLOCK_ELEMENTS = 1 << 14


class Side(Enum):
    RIGHT_TAIL = "right"   # s0 < 0, direct survival integral
    LEFT_TAIL = "left"     # s0 > 0, CDF integral, survival = 1 - value


def support_shift(mgf):
    """Deterministic offset of the distribution's lower support bound, per
    row of an MGF table.

    Zero-eigenvalue poles of the steady-target MGF contribute pure
    exp(beta s) factors, i.e. an additive constant; survival is exactly 1
    at or below the total shift.
    """
    return -np.where(mgf.a == 0.0, mgf.beta, 0.0).sum(axis=-1)


@lru_cache(maxsize=16)
def _kept_nodes(order: int):
    # Weight sqrt(tau) e^{-tau} on [0, inf); alpha = 1/2 generalized Laguerre.
    t, w = roots_genlaguerre(order, 0.5)
    keep = w > 1e-24 * w.max()
    return t[keep], w[keep]


def _at(exc, pair):
    """Tag a numerical failure with the batch index of its pair."""
    exc.pair = int(pair)
    return exc


def _rowdot(a, b):
    return np.einsum("ij,ij->i", a, b)


def _one_minus(c, x, y):
    """1 - c z for z = x + i y, as real part, imaginary part and squared
    modulus.  0.0 - c y gives the imaginary part numpy's complex product
    gives, signed zero included."""
    xp = 1.0 - c * x
    yp = 0.0 - c * y
    return xp, yp, xp * xp + yp * yp


def _log1m(xp, yp, d):
    """Real and imaginary parts of ln(1 - c z) from ``_one_minus``."""
    return 0.5 * np.log(d), np.arctan2(yp, xp)


class _PoleTable:
    """Zero-padded (a, alpha, beta) rows of a block of pairs: pair i uses
    row rows[i] of an MGF table (or of a single row), trimmed to the
    widest row of the block."""

    def __init__(self, table, rows):
        tab = np.stack([np.atleast_2d(x)[rows]
                        for x in (table.a, table.alpha, table.beta)])
        width = 1 + np.flatnonzero(tab.any(axis=(0, 1))).max(initial=-1)
        blk = PoleMgf(*tab[:, :, :width])
        self.a, self.alpha, self.beta = blk.a, blk.alpha, blk.beta
        self.has_beta = bool(self.beta.any())
        self.mean, self.a_max = blk.mean, blk.a_max
        self.bulk = (~self.beta.any(axis=1)
                     & (np.count_nonzero(self.alpha < 0.0, axis=1) + 1
                        >= _BULK_MIN_TERMS))

    def derivatives(self, i, s):
        """d ln M / ds and d^2 ln M / ds^2 of pairs i at real s."""
        a = self.a[i]
        inv = 1.0 / (1.0 + a * s[:, None])
        t = a * inv
        al = self.alpha[i]
        d1, d2 = _rowdot(al, t), -_rowdot(al, t * t)
        if self.has_beta:
            be = self.beta[i] * inv * inv
            d1 += be.sum(axis=1)
            d2 -= 2.0 * _rowdot(be, t)
        return d1, d2

    def log_mgf(self, s):
        """ln M of every pair at real s."""
        d = 1.0 + self.a * s[:, None]
        val = _rowdot(self.alpha, np.log(d))
        if self.has_beta:
            val += _rowdot(self.beta, s[:, None] / d)
        return val


def _solve_saddles(v, tab):
    """Real saddle of each pair's survival phase (v >= mean) or CDF phase.

    The phase derivative f(s) = d ln M/ds - 1/s + v is strictly increasing
    on each branch (the MGF is log-convex), so a bracket search followed by
    Newton with a bisection safeguard converges; both run on the pairs not
    yet done.  Returns s0, r2, the phase at s0 and the left-tail mask.
    """
    left = v < tab.mean
    lo = np.where(left, 1e-12, -(1.0 - 1e-12) / tab.a_max)
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
        tol = 1e-11 * np.maximum(1.0, np.abs(v))
        act = np.arange(v.size)
        for _ in range(SADDLE_MAX_ITER):
            xa = x[act]
            fx, fp = f(act, xa)
            neg = fx < 0.0
            lo[act[neg]] = xa[neg]
            hi[act[~neg]] = xa[~neg]
            la, ha = lo[act], hi[act]
            x_new = xa - fx / fp
            x_new = np.where((la < x_new) & (x_new < ha), x_new,
                             0.5 * (la + ha))
            done = (np.abs(fx) < tol[act]) | (x_new == xa)
            x[act] = np.where(done, xa, x_new)
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


def _tau_terms(z, p, lam, c, w, g):
    """tau and tau' at z (one element per entry of p) from explicit rows."""
    c, w = c[p], w[p]
    x, y = z.real[:, None], z.imag[:, None]
    xp, yp, d = _one_minus(c, x, y)
    lr, li = _log1m(xp, yp, d)
    wc = w * c / d
    tau = lam[p] * z + _rowdot(w, lr) + 1j * _rowdot(w, li)
    dtau = lam[p] - _rowdot(wc, xp) + 1j * _rowdot(wc, yp)
    if g is not None:
        # g z / (1 - c z) and its derivative g / (1 - c z)^2
        g = g[p] / d
        tau -= _rowdot(g, x * xp + y * yp) + 1j * _rowdot(g, y * xp - x * yp)
        g /= d
        dtau -= _rowdot(g, xp * xp - yp * yp) - 2j * _rowdot(g, xp * yp)
    return tau, dtau


class _TauRows:
    """tau(z) = Phi(s0) - Phi(s0 - z/v) and tau'(z) for a block of pairs:

        tau(z) = lam z + sum_j w_j ln(1 - c_j z) - sum_j g_j z / (1 - c_j z)

    with c_j = a_j / (v (1 + a_j s0)), w_j = -alpha_j,
    g_j = -beta_j / (v (1 + a_j s0)^2), plus c = 1/(s0 v) with w = 1 from
    ln(-+s); zero poles are linear in z and folded into lam.
    """

    def __init__(self, v, tab, s0, r2, t_top):
        d0 = 1.0 + tab.a * s0[:, None]
        c = tab.a / (v[:, None] * d0)
        g = -tab.beta / (v[:, None] * d0 * d0)
        lin = tab.a == 0.0
        self.lam = 1.0 - np.where(lin, g, 0.0).sum(axis=1)
        g[lin] = 0.0
        one = np.ones((v.size, 1))
        self.full = (np.concatenate(((1.0 / (s0 * v))[:, None], c), axis=1),
                     np.concatenate((one, -tab.alpha), axis=1),
                     np.concatenate((0.0 * one, g), axis=1)
                     if tab.has_beta else None)
        self.width = self.full[0].shape[1]
        self.bulk = tab.bulk
        self.has_bulk = bool(self.bulk.any())
        if not self.has_bulk:
            return
        self.z_top = 1.5 * t_top + 8.0 / np.sqrt(r2) + 8.0
        c, w, g = self.full
        c_split = np.where(self.bulk, _BULK_RATIO / self.z_top, 0.0)
        small = np.abs(c) < c_split[:, None]
        if g is not None:
            small &= g == 0.0
        # sum_small w ln(1 - c z) = -sum_k q_k z^k / k, q_k = sum w c^k
        cs = np.where(small, c, 0.0)
        acc = np.where(small, w, 0.0) * cs
        q = np.empty((v.size, _BULK_TERMS))
        for k in range(_BULK_TERMS):
            q[:, k] = acc.sum(axis=1)
            acc *= cs
        self.poly = -q / np.arange(1, _BULK_TERMS + 1)   # tau: z * z^(k-1)
        self.dpoly = -q                                  # tau': z^(k-1)
        keep = ~small
        order = np.argsort(small, axis=1, kind="stable")
        order = order[:, :keep.sum(axis=1).max()]
        self.near = tuple(
            None if x is None
            else np.take_along_axis(np.where(keep, x, 0.0), order, axis=1)
            for x in self.full)
        self.width = order.shape[1]

    def _near(self, z, p):
        tau, dtau = _tau_terms(z, p, self.lam, *self.near)
        zk = np.empty((z.size, _BULK_TERMS), dtype=complex)
        zk[:, 0] = 1.0
        zk[:, 1:] = z[:, None]
        zk = np.cumprod(zk, axis=1)                    # z^0 .. z^59
        tau += z * _rowdot(self.poly[p], zk)
        dtau += _rowdot(self.dpoly[p], zk)
        return tau, dtau

    def __call__(self, z, p):
        """tau and tau' at elements z of block pairs p."""
        if not self.has_bulk:
            return _tau_terms(z, p, self.lam, *self.full)
        near = self.bulk[p] & (np.abs(z) <= self.z_top[p])
        if near.all():
            return self._near(z, p)
        tau, dtau = np.empty_like(z), np.empty_like(z)
        far = ~near
        tau[far], dtau[far] = _tau_terms(z[far], p[far], self.lam, *self.full)
        if near.any():
            tau[near], dtau[near] = self._near(z[near], p[near])
        return tau, dtau


def _newton_tols(taus, z):
    # Absolute floor plus roundoff allowance for large |z| evaluations.
    return 1e-13 * np.maximum(1.0, taus) + 2e-14 * np.abs(z)


def _newton(taus, z0, ev, p):
    """Damped Newton for tau(z) = taus on the Im z > 0 branch.

    Element e belongs to pair p[e]; ``ev(z, p)`` returns tau and tau'.  A
    sweep works on the unconverged elements only, and each step halving
    (at most 30 trials) only on the elements whose trial left the upper
    half plane or raised |residual|.  Returns z and the converged mask.
    """
    z = np.array(z0, dtype=complex)
    tau, dtau = ev(z, p)
    resid = tau - taus
    for _ in range(NEWTON_MAX_ITER):
        act = np.flatnonzero(np.abs(resid) > _newton_tols(taus, z))
        if act.size == 0:
            break
        za, ra, ta, pa = z[act], resid[act], taus[act], p[act]
        da = dtau[act]
        step = -ra / np.where(np.abs(da) < 1e-300, 1e-300, da)
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
    return z, np.abs(resid) <= _newton_tols(taus, z)


def _march_to(ev, p, r2, t_target, z_from=0j, t_from=0.0, budget=400):
    """Continuation in tau for one element of pair p, bisecting the step
    on Newton failure."""
    t, z = t_from, z_from
    pa = np.array([p])
    pending = [float(t_target)]
    steps = 0
    while pending:
        tt = pending[-1]
        guesses = []
        if t > 0.0:
            guesses += [z * (tt / t), z * math.sqrt(tt / t)]
        guesses.append(1j * math.sqrt(2.0 * tt / r2))
        for gz in guesses:
            zz, ok = _newton(np.array([tt]), np.array([gz]), ev, pa)
            if ok[0]:
                z, t = complex(zz[0]), tt
                pending.pop()
                break
        else:
            steps += 1
            if steps > budget or tt - t < 1e-12 * max(1.0, tt):
                raise NoConvergence(f"tau continuation stalled near tau={tt}")
            pending.append(0.5 * (t + tt))
    return z


def _invert_nodes(ev, t, r2, pairs):
    """z(tau) at every (pair, node t) element, shape (pairs, nodes).

    Newton runs on all elements at once; a pair's failed node is continued
    from the node before it.
    """
    n = t.size
    p = np.repeat(pairs, n)
    taus = np.tile(t, pairs.size)
    z, ok = _newton(taus, 1j * np.sqrt(2.0 * taus / r2[p]), ev, p)
    z, ok = z.reshape(pairs.size, n), ok.reshape(pairs.size, n)
    for i in np.flatnonzero(~ok.all(axis=1)):
        z_prev, t_prev = 0j, 0.0
        for j in range(n):
            if not ok[i, j]:
                try:
                    z[i, j] = _march_to(ev, pairs[i], r2[pairs[i]],
                                        float(t[j]), z_prev, t_prev)
                except NoConvergence as exc:
                    raise _at(exc, pairs[i])
            z_prev, t_prev = complex(z[i, j]), float(t[j])
    return z


def _survival_block(v, tab, integrator, t, w):
    s0, r2, phase0, left = _solve_saddles(v, tab)
    with np.errstate(under="ignore"):
        if integrator == "sp":
            val = np.exp(phase0) / (v * np.sqrt(2.0 * math.pi * r2))
        else:
            ev = _TauRows(v, tab, s0, r2, float(t[-1]))
            per = max(1, _BLOCK_ELEMENTS // (t.size * ev.width))
            corr = np.empty(v.size)
            for start in range(0, v.size, per):
                pairs = np.arange(start, min(start + per, v.size))
                z = _invert_nodes(ev, t, r2, pairs)
                corr[pairs] = (z.imag / np.sqrt(t)) @ w
            val = np.exp(phase0) / (math.pi * v) * corr
    return _assemble(val, left)


def _assemble(val, left):
    """Survival from the tail integral: the complement on the left tail."""
    return np.clip(np.where(left, 1.0 - val, val), 0.0, 1.0)


def survival_pairs(v, table, rows, integrator: str = "sdp",
                   order: int = DEFAULT_TAU_ORDER) -> np.ndarray:
    """Survival at every pair (v[i], row rows[i] of the MGF table) in one
    batched pass; a single MGF row serves as a one-row table.

    ``integrator`` is "sdp" (steepest-descent path, numerically exact) or
    "sp" (basic saddle-point approximation).  Survival is exactly 1 at or
    below an MGF's support shift.  A NoConvergence carries the index i of
    its pair as ``exc.pair``.
    """
    v = np.asarray(v, dtype=float)
    rows = np.asarray(rows, dtype=int)
    shift = np.atleast_1d(support_shift(table))[rows]
    out = np.ones(v.size)
    live = np.flatnonzero(v > shift * (1.0 + 1e-12))
    if live.size == 0:
        return out
    per = max(1, _BLOCK_ELEMENTS // (1 + table.a.shape[-1]))
    t, w = _kept_nodes(order)
    for start in range(0, live.size, per):
        blk = live[start:start + per]
        try:
            out[blk] = _survival_block(v[blk], _PoleTable(table, rows[blk]),
                                       integrator, t, w)
        except NoConvergence as exc:
            raise _at(exc, blk[exc.pair])
    return out


@dataclass
class SaddleState:
    """Saddle point and exact tau row of one (v, texture-node) pair:

        tau(z) = lam z + sum_j w_j ln(1 - c_j z) - sum_j g_j z / (1 - c_j z)

    with the ln(-+s) term (c = 1/(s0 v), w = 1) first in the row.
    """

    side: Side
    s0: float
    r2: float
    c: np.ndarray
    w: np.ndarray
    g: np.ndarray
    lam: float

    @property
    def r1(self) -> float:
        return float((1.0 - self.lam) + np.dot(self.w, self.c) + self.g.sum())


def phase(s, v: float, mgf, side: Side = Side.RIGHT_TAIL):
    """Helstrom phase ln M(s) - ln(-+s) + s v on the chosen branch."""
    sgn = -1.0 if side is Side.RIGHT_TAIL else 1.0
    return mgf.log_mgf(s) - np.log(sgn * s) + s * v


def solve_saddle(v: float, mgf) -> SaddleState:
    """Locate the real saddle of the survival/CDF phase and bundle path data
    for the exact reference phase ``tau_phase``."""
    if v <= 0.0:
        raise DegenerateV(f"power level v {v} must be positive")
    tab = _PoleTable(mgf, [0])
    s0, r2, _, left = _solve_saddles(np.array([float(v)]), tab)
    s0 = float(s0[0])
    side = Side.LEFT_TAIL if left[0] else Side.RIGHT_TAIL
    d0 = 1.0 + mgf.a * s0
    g = -mgf.beta / (v * d0 * d0)
    # Zero-eigenvalue poles carry exactly linear tau terms; fold them
    # into the linear coefficient to avoid catastrophic cancellation.
    nz = mgf.a > 0.0
    c = np.concatenate(([1.0 / (s0 * v)], mgf.a[nz] / (v * d0[nz])))
    w = np.concatenate(([1.0], -mgf.alpha[nz]))
    return SaddleState(side, s0, float(r2[0]), c, w,
                       np.concatenate(([0.0], g[nz])),
                       1.0 - float(g[~nz].sum()))


def tau_phase(z, state: SaddleState):
    """tau(z) = Phi(s0) - Phi(s0 - z/v), exact log form, upper branch."""
    z = np.asarray(z, dtype=complex)
    one_m = 1.0 - np.multiply.outer(z, state.c)
    return (state.lam * z + np.log(one_m) @ state.w
            - (np.multiply.outer(z, state.g) / one_m).sum(axis=-1))


def _tau_prime(z, state: SaddleState):
    one_m = 1.0 - np.multiply.outer(np.asarray(z, dtype=complex), state.c)
    return (state.lam - (state.c / one_m) @ state.w
            - (state.g / one_m ** 2).sum(axis=-1))


def _state_ev(state: SaddleState):
    """Element evaluator (tau, tau') over one state's exact phase."""
    return lambda z, p: (tau_phase(z, state), _tau_prime(z, state))


def survival_sdp(v: float, mgf, order: int = DEFAULT_TAU_ORDER) -> float:
    """Steepest-descent-path survival: numerically exact for the given MGF."""
    return float(survival_pairs([v], mgf, [0], "sdp", order)[0])


def survival_sp(v: float, mgf) -> float:
    """Basic saddle-point approximation e^{Phi(s0)} / (v sqrt(2 pi r2))."""
    return float(survival_pairs([v], mgf, [0], "sp")[0])
