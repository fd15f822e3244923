"""Exact propagation of a switched affine system, numpy only.

Each branch y' = a y of a piecewise-affine system advances exactly by its
matrix exponential (Van Loan, IEEE TAC 1978).  Every step h, the one-step
flow of the sample grid included, takes the Taylor sum of expm(a h) where
its 20th term is below rounding.  Elsewhere, as on a small winding
inductance's current row, it takes a Taylor scaling and squaring in
extended precision, ``np.longdouble`` (Moler & Van Loan, SIAM Review 2003,
survey the method), of the generator balanced by an exact power-of-two
diagonal similarity (Parlett & Reinsch, Numer. Math. 1969; Ward, SIAM J.
Numer. Anal. 1977, balances before scaling and squaring), so that a badly
scaled row does not set the squaring count.  An exponential computed in
float64 errs by about rounding times ||a h||, its condition number
(Higham, Functions of Matrices, 2008, ch. 10): 2.6e-12 of max |E| on the
stiffest test branch.  x87 extended precision carries 11 bits more, which
takes that error to 1.5e-14; the flow is rounded to float64 once, at the
end.  Where ``np.longdouble`` is plain double (MSVC, macOS on arm64), the
float64 error returns, and a test names that cause.  Samples on the grid
are one matrix-vector product against a stack of powers of the one-step
flow; a switch between samples is located on its guard function (Shampine
& Thompson, Appl. Numer. Math. 2000) along the sub-step flow, by the same
rule.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Branch", "balance", "expm", "flow"]

_ORDERS = np.arange(21)  # Taylor terms of a sub-step flow
_SERIES = 23  # Taylor terms of expm, at a 1-norm of at most 1/2
_MAX_SCALE = 2.0**256  # largest factor one balance update applies


def expm(a) -> np.ndarray:
    """Matrix exponential by Taylor scaling and squaring in ``np.longdouble``,
    returned as float64: ``a`` over 2^s, for the least s that takes its
    1-norm to 1/2 or below, its series summed to 23 terms by Horner's rule,
    then squared s times.  The series' remainder, about 2^-23 / 23!, is far
    under extended rounding.  A zero row of ``a`` stays an exact identity row
    through the series and the squarings, so a held state stays exactly
    held.  The squaring count is taken from ||a||_1 as given: a badly
    scaled ``a`` is overscaled, so :func:`flow` balances it first."""
    a = np.asarray(a, dtype=np.longdouble)
    norm = float(np.abs(a).sum(axis=0).max())
    squarings = math.ceil(math.log2(2.0 * norm)) if norm > 0.5 else 0
    a = np.ldexp(a, -squarings)
    ident = r = np.eye(len(a), dtype=np.longdouble)
    for k in range(_SERIES - 1, 0, -1):
        r = ident + a @ r / k
    for _ in range(squarings):
        r = r @ r
    return r.astype(float)


def balance(a) -> np.ndarray:
    """Power-of-two diagonal d, as a vector, with d^-1 a d balanced: each
    state's off-diagonal row and column 1-norms within a factor of 2 of
    each other (Parlett & Reinsch 1969, without permutations).  The
    similarity is exact in binary floating point and leaves the diagonal
    alone; a state whose row or column is zero off the diagonal keeps
    d_i = 1.  Scaling ``a`` by h > 0 does not change d.  One update scales
    a state by at most 2^+-256, so that d and the balanced entries stay
    finite whatever the spread of ``a``'s entries.  A non-finite ``a`` is
    not balanced."""
    b = np.abs(np.asarray(a, dtype=float))
    d = [1.0] * len(b)
    if not np.isfinite(b).all():
        return np.array(d)
    np.fill_diagonal(b, 0.0)
    b = b.tolist()  # a few sweeps over a small matrix: Python floats, not numpy calls
    balanced = False
    while not balanced:
        balanced = True
        for i, row_i in enumerate(b):
            c, r = sum(row[i] for row in b), sum(row_i)
            if c == 0.0 or r == 0.0:
                continue
            f, s = 1.0, c + r
            while c < 0.5 * r and f < _MAX_SCALE:  # column i times f, row i over f
                f, c = 2.0 * f, 4.0 * c
            while c >= 2.0 * r and f > 1.0 / _MAX_SCALE:
                f, c = 0.5 * f, 0.25 * c
            if (c + r) / f < 0.95 * s:
                balanced = False
                d[i] *= f
                b[i] = [x / f for x in row_i]
                for row in b:
                    row[i] *= f
    return np.array(d)


def flow(a: np.ndarray, h: float, scale: np.ndarray | None = None) -> np.ndarray:
    """expm(a h) by :func:`expm` of the balanced d^-1 a h d, with d the
    generator's :func:`balance` (``scale``, where the caller holds it).  A
    state ``a`` holds keeps an exact identity row."""
    d = balance(a) if scale is None else scale
    return expm(a * h * (d / d[:, None])) * (d[:, None] / d)


@dataclass(frozen=True)
class Branch:
    """One branch y' = a y with two output rows, such as a current and a
    voltage, read off the state as ``i_row @ y`` and ``v_row @ y``.

    ``powers`` stacks E, E^2, ..., E^steps for E = :meth:`transition` (dt),
    so samples j + 1 .. m from y are ``powers[j:m] @ y``, one matrix-vector
    product of the stack's ``((m - j) n, n)`` view; ``taylor`` stacks
    a^k / k!, and ``tail`` is max |a^20 / 20!|, the last term's size for a
    unit step.  :meth:`transition` is the one choice between the Taylor sum
    and the matrix exponential, whose steps share :attr:`scale`.
    """

    a: np.ndarray
    i_row: np.ndarray
    v_row: np.ndarray
    powers: np.ndarray
    taylor: np.ndarray
    tail: float

    @classmethod
    def build(cls, a, i_row, v_row, dt: float, steps: int) -> "Branch":
        """The branch of generator ``a`` sampled every ``dt``, with ``steps``
        powers of its one-step flow E = :meth:`transition` (dt), filled in
        place by doubling.  E is the Taylor sum where its last term is below
        rounding, as on both branches of the test plants with a 5 mH
        winding at 2000 steps per period, and else :func:`flow`, whose
        extended precision keeps a stiff branch's E within about 1e-14 of
        max |E| (1.5e-14 on the low-pass test plant's free branch at 5 nH,
        the stiffest the tests run)."""
        n = len(a)
        taylor = np.empty((len(_ORDERS), n, n))
        taylor[0] = np.eye(n)
        for k in _ORDERS[1:]:
            np.divide(np.matmul(taylor[k - 1], a, out=taylor[k]), k, out=taylor[k])
        branch = cls(a, i_row, v_row, np.empty((steps, n, n)), taylor,
                     float(np.abs(taylor[-1]).max()))
        powers = branch.powers
        powers[0] = branch.transition(dt)
        done = 1
        while done < steps:  # doubling: E^(j+L) = E^j E^L, one (m n, n) @ (n, n) product
            m = min(done, steps - done)
            np.matmul(powers[:m].reshape(-1, n), powers[done - 1],
                      out=powers[done : done + m].reshape(-1, n))
            done += m
        return branch

    @functools.cached_property
    def scale(self) -> np.ndarray:
        """The generator's :func:`balance`, formed once, on the first step
        that takes :func:`flow`, and shared by every later one: h does not
        change it."""
        return balance(self.a)

    def transition(self, h: float) -> np.ndarray:
        """expm(a h) as a matrix: the Taylor sum, one product of the powers
        of h with the stacked terms, where its last term is below rounding,
        else (stiff) :func:`flow`, the balanced exponential in extended
        precision.  Every step of the referee takes this one rule: the
        one-step flow of the sample grid, the part steps of the switch-time
        solve and each point of a sub-step's switch search."""
        scale = h ** _ORDERS
        if self.tail * scale[-1] <= 1e-16:
            return (scale @ self.taylor.reshape(len(_ORDERS), -1)).reshape(self.a.shape)
        return flow(self.a, h, self.scale)

    def locate(self, at, y0, y_hi, h, guard, level, tol):
        """Time in (0, h] where ``guard @ y - level`` turns positive, and the
        state there, along ``at``: tau -> expm(a tau) y0, such as
        ``transition(tau) @ y0``; the guard is not positive at ``y0`` and
        positive at ``y_hi``.  The caller passes ``at``, so it can wrap it.

        Newton's method from the secant guess, kept inside the bracket,
        until the bracket is ``tol`` wide; its positive end is returned.
        Once three Newton steps in a row would each go on the same way as
        the one before and more than half as far, as where the guard is
        flat to rounding at a tangency and each step from the low side
        advances by half a tolerance, the search bisects from then on, so
        it takes at most about log2(h / tol) + 5 evaluations.  A guard
        already positive at ``y0`` would have the search halve the bracket
        onto 0, so the end of that halving is returned at once.
        """
        slope = guard @ self.a
        lo, hi = 0.0, h
        g_lo, g_hi = guard @ y0 - level, guard @ y_hi - level
        if g_lo > 0.0:
            hi = 0.5 * h
            while hi > tol:
                hi *= 0.5
            return hi, at(hi)
        tau = h * g_lo / (g_lo - g_hi) if g_lo < g_hi else 0.5 * h
        last, slow = math.inf, 0  # the last Newton step, and the slow steps in a row
        for _ in range(100):
            if not lo < tau < hi:
                tau = 0.5 * (lo + hi)
            y = at(tau)
            g = guard @ y - level
            if g > 0.0:
                hi, y_hi = tau, y
            else:
                lo = tau
            if hi - lo <= tol:
                break
            # step at least half a tolerance past the Newton root, so the
            # bracket closes from both sides; a guard not rising bisects
            dg = slope @ y
            if slow < 3 and dg > 0.0:
                d = max(abs(g) / dg, 0.5 * tol)
                d = -d if g > 0.0 else d
                slow, last = (slow + 1 if d / last > 0.5 else 0), d
            tau = tau + d if slow < 3 and dg > 0.0 else lo
        return hi, y_hi
