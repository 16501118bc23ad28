"""Deterministic L-BFGS minimizer for smooth unconstrained objectives.

Small, dependency-free quasi-Newton solver: two-loop recursion over a
short curvature history plus Armijo backtracking.  Written here rather
than wrapped from an external optimizer so the stopping rule (relative
gradient norm), the iteration budget, and the evaluation order are fully
pinned down; given the same objective and start the returned point is
bitwise reproducible.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

ARMIJO_C1 = 1e-4
MEMORY = 10  # curvature pairs kept by the two-loop recursion
BACKTRACK_FACTOR = 0.5
MAX_BACKTRACKS = 60


@dataclass
class SolveResult:
    x: np.ndarray
    fun: float
    grad_norm: float
    n_iter: int
    converged: bool
    history: list[float] | None = None


def minimize_lbfgs(
    fun_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x0: np.ndarray,
    grad_tol: float = 1e-6,
    max_iter: int = 1000,
    record_history: bool = False,
) -> SolveResult:
    """Minimize ``fun_grad`` starting at ``x0``.

    Stops when the gradient norm falls to ``grad_tol * max(1, |g0|)`` or
    after ``max_iter`` accepted steps.  Every accepted step satisfies the
    Armijo decrease condition, so the recorded objective history is
    non-increasing.
    """
    x = np.array(x0, dtype=np.float64, copy=True)
    f, g = fun_grad(x)
    g = np.asarray(g, dtype=np.float64)
    if not np.isfinite(f) or not np.all(np.isfinite(g)):
        raise ValueError("objective is not finite at the starting point")
    g0_norm = float(np.linalg.norm(g))
    tol = grad_tol * max(1.0, g0_norm)
    history = [f] if record_history else None

    s_list: deque[np.ndarray] = deque(maxlen=MEMORY)
    y_list: deque[np.ndarray] = deque(maxlen=MEMORY)
    rho_list: deque[float] = deque(maxlen=MEMORY)

    n_iter = 0
    converged = float(np.linalg.norm(g)) <= tol
    while not converged and n_iter < max_iter:
        d = _two_loop_direction(g, s_list, y_list, rho_list)
        gd = float(np.dot(g, d))
        if gd >= 0.0:
            # Curvature history turned unreliable; fall back to steepest descent.
            d = -g
            gd = -float(np.dot(g, g))

        step = 1.0 if s_list else min(1.0, 1.0 / max(1.0, g0_norm))
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            x_new = x + step * d
            f_new, g_new = fun_grad(x_new)
            if np.isfinite(f_new) and f_new <= f + ARMIJO_C1 * step * gd:
                accepted = True
                break
            step *= BACKTRACK_FACTOR
        if not accepted:
            break

        s = x_new - x
        y = np.asarray(g_new, dtype=np.float64) - g
        sy = float(np.dot(s, y))
        # Guard against division blow-ups from near-zero curvature.
        if sy > 1e-10 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            s_list.append(s)
            y_list.append(y)
            rho_list.append(1.0 / sy)

        x, f, g = x_new, f_new, np.asarray(g_new, dtype=np.float64)
        n_iter += 1
        if history is not None:
            history.append(f)
        converged = float(np.linalg.norm(g)) <= tol

    return SolveResult(
        x=x,
        fun=f,
        grad_norm=float(np.linalg.norm(g)),
        n_iter=n_iter,
        converged=converged,
        history=history,
    )


def _two_loop_direction(
    g: np.ndarray,
    s_list: deque[np.ndarray],
    y_list: deque[np.ndarray],
    rho_list: deque[float],
) -> np.ndarray:
    q = g.copy()
    tmp = np.empty_like(q)  # scratch for each update; rounds as ``q -= a * y`` does
    alphas: list[float] = []
    for s, y, rho in zip(reversed(s_list), reversed(y_list), reversed(rho_list)):
        a = rho * float(np.dot(s, q))
        alphas.append(a)
        q -= np.multiply(a, y, out=tmp)
    if s_list:
        s, y = s_list[-1], y_list[-1]
        gamma = float(np.dot(s, y)) / float(np.dot(y, y))
        q *= gamma
    for (s, y, rho), a in zip(zip(s_list, y_list, rho_list), reversed(alphas)):
        b = rho * float(np.dot(y, q))
        q += np.multiply(a - b, s, out=tmp)
    return -q
