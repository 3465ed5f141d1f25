"""The interior point method's plain formulation, kept as the tests' reference.

``schur`` is ``_Family.schur`` as it was before the scatter of each Schur
block was built once per family: it makes the directions dense with
``np.zeros`` and two fancy-index additions on every call. ``_ipm`` is the
solver before its iteration was trimmed to fewer numpy calls: it stacks X
and Z (and dX and dZ) afresh for every factorization, computes norms with
``np.linalg.norm``, and runs the predictor through the corrector's formula
with target 0.0 and second-order term 0.0. The bodies are copied unchanged,
except that ``self`` is the family passed to ``schur``, and ``_ipm`` calls
that ``schur``. ``sospencil.soscert`` must give the same results bit for
bit; the tests compare ``tobytes()``.
"""

import math

import numpy as np

from sospencil import soscert
from sospencil.soscert import _IPM_MAX_ITERS, _IPM_STALL, _IPM_TOL, _STEP_FRACTION


def schur(self, X, Zi):
    """M_kl = tr(F_k X F_l Zi), symmetrized.

    For a block of whole directions, the F_l are made dense and
    G_l = X F_l Zi is formed for all of them by two batched products;
    column l of M is then read from G_l at the entries of every F_k. A
    block holds at most _SCHUR_BLOCK entries of G. M is symmetric in
    exact arithmetic, and (M + M^T) / 2 keeps it so in floating point.
    """
    N = self.size
    cells = N * N
    step = max(1, soscert._SCHUR_BLOCK // cells)
    M = np.zeros((self.count, self.count))
    for l0 in range(0, self.count, step):
        l1 = min(self.count, l0 + step)
        e0, e1 = self.starts[l0], self.ends[l1 - 1]
        owner, v = self.owner[e0:e1] - l0, self.vals[e0:e1]
        F = np.zeros((l1 - l0, cells))
        # a direction's entries are distinct cells with p <= q, so no
        # index repeats within one scatter; a diagonal entry gets both
        F[owner, self.pq[e0:e1]] += v
        F[owner, self.qp[e0:e1]] += v
        G = ((X @ F.reshape(-1, N, N)).reshape(-1, N) @ Zi).reshape(-1, cells).T
        T = (G[self.pq] + G[self.qp]) * self.vals[:, None]
        M[self.nonempty, l0:l1] = np.add.reduceat(T, self.heads, axis=0)
    return 0.5 * (M + M.T)


def _inverse_choleskys(X, Z):
    """L with L[0] X L[0]^T = I and L[1] Z L[1]^T = I, from one stacked
    Cholesky and inverse; raises LinAlgError unless both are positive
    definite."""
    return np.linalg.inv(np.linalg.cholesky(np.stack((X, Z))))


def _max_steps(L, dX, dZ):
    """The largest alphas with X + alpha dX and Z + alpha dZ still PSD, L
    from _inverse_choleskys(X, Z), from one stacked eigvalsh."""
    low = np.linalg.eigvalsh(L @ np.stack((dX, dZ)) @ L.transpose(0, 2, 1))[:, 0]
    return [math.inf if v >= 0 else -1.0 / float(v) for v in low]


def _ipm(C, fam, b):
    """Primal-dual interior point method for a dual pair of SDPs.

    Solves  max b.y  s.t.  Z = C + sum_k y_k F_k >= 0  together with
    min <C, X>  s.t.  tr(F_k X) = -b_k, X >= 0,  from the infeasible start
    X, Z = multiples of I, y = 0. Search directions are HKM
    (Helmberg-Rendl-Vanderbei-Wolkowicz 1996) with Mehrotra's
    predictor-corrector; the run is deterministic.

    The error of an iterate is the largest of its relative gap and its
    relative primal and dual infeasibilities. The solver stops when the
    error reaches _IPM_TOL (converged), or when it has not improved for
    _IPM_STALL iterations, the Newton system breaks down in floating point
    or _IPM_MAX_ITERS is reached (not converged). Returns the best iterate
    as (y, X, converged).
    """
    N = C.shape[0]
    c_norm = 1.0 + float(np.linalg.norm(C))
    b_norm = 1.0 + float(np.linalg.norm(b))
    start = max(10.0, math.sqrt(N), c_norm)
    X, Z = start * np.eye(N), start * np.eye(N)
    y = np.zeros(fam.count)
    best = (math.inf, y, X)
    since_best = 0
    for _ in range(_IPM_MAX_ITERS):
        rp = -b - fam.inner(X)
        Rd = C + fam.combine(y) - Z
        gap = float(np.vdot(X, Z))
        scale = 1.0 + abs(float(np.vdot(C, X))) + abs(float(b @ y))
        error = max(
            gap / scale,
            float(np.linalg.norm(rp)) / b_norm,
            float(np.linalg.norm(Rd)) / c_norm,
        )
        if error < best[0]:
            best, since_best = (error, y, X), 0
        else:
            since_best += 1
        if error <= _IPM_TOL or since_best >= _IPM_STALL:
            break
        mu = gap / N
        try:
            L = _inverse_choleskys(X, Z)
            Zi = L[1].T @ L[1]
            M = schur(fam, X, Zi)
            XRdZi = X @ Rd @ Zi

            def direction(target, corr):
                rhs = fam.inner(target * Zi - X - XRdZi - corr) - rp
                dy = np.linalg.solve(M, rhs)
                dZ = Rd + fam.combine(dy)
                dX = target * Zi - X - X @ dZ @ Zi - corr
                return 0.5 * (dX + dX.T), dy, dZ

            dXa, _dya, dZa = direction(0.0, 0.0)
            ap, ad = (min(1.0, step) for step in _max_steps(L, dXa, dZa))
            mu_aff = float(np.vdot(X + ap * dXa, Z + ad * dZa)) / N
            sigma = min(1.0, (max(mu_aff, 0.0) / mu) ** 3)
            dX, dy, dZ = direction(sigma * mu, dXa @ dZa @ Zi)
            ap, ad = (min(1.0, _STEP_FRACTION * step) for step in _max_steps(L, dX, dZ))
        except np.linalg.LinAlgError:
            break
        X = X + ap * dX
        y = y + ad * dy
        Z = Z + ad * dZ
    error, y, X = best
    return y, X, error <= _IPM_TOL
