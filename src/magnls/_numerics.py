"""Ports of the scipy routines behind the radial ground state, so magnls runs on numpy and ``scipy.fft``.

- ``solve_ivp``: the explicit Runge-Kutta pair DOP853 of order 8(5,3)
  (E. Hairer, S. P. Norsett, G. Wanner, *Solving Ordinary Differential
  Equations I*, Sec. II.10) as ``scipy.integrate.solve_ivp(method="DOP853")``
  runs it: its initial step, step, error estimate, step-size control, dense
  output at ``t_eval`` and terminal event location, for two components held
  as floats.
- ``brentq``: Brent's method (R. P. Brent, *Algorithms for Minimization
  without Derivatives*, 1973) in the steps of ``scipy.optimize.brentq``.
- ``simpson``: composite Simpson's rule on sample points, with the
  even-length rule of ``scipy.integrate.simpson``.
- ``clamped_spline``: the cubic spline of
  ``scipy.interpolate.CubicSpline(x, y, bc_type=((1, d0), (1, d1)))``.

Each takes scipy's floating-point operations in scipy's order, so with the
same numpy and BLAS the results are scipy's to the bit;
``tests/test_numerics.py`` compares the two.
"""

from bisect import bisect_right
from math import inf, isnan, nextafter, sqrt
from typing import NamedTuple

import numpy as np

_EPS = float(np.finfo(float).eps)

# DOP853 tableau (Hairer's dop853.f, as scipy's dop853_coefficients.py
# carries it) as (stage, coefficient) pairs without the zeros.  Rows 0-11 of
# _A make the stages of a step, row 12 (= the weights B) the solution, rows
# 13-15 the extra stages of the dense output.
_C = (
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
    0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571,
    1.0, 1.0, 0.1, 0.2, 0.7777777777777778,
)
_A_ROWS = (
    (),
    ((0, 0.05260015195876773),),
    ((0, 0.0197250569845379), (1, 0.0591751709536137)),
    ((0, 0.02958758547680685), (2, 0.08876275643042054)),
    ((0, 0.2413651341592667), (2, -0.8845494793282861), (3, 0.924834003261792)),
    ((0, 0.037037037037037035), (3, 0.17082860872947386), (4, 0.12546768756682242)),
    ((0, 0.037109375), (3, 0.17025221101954405), (4, 0.06021653898045596), (5, -0.017578125)),
    (
        (0, 0.03709200011850479), (3, 0.17038392571223998), (4, 0.10726203044637328),
        (5, -0.015319437748624402), (6, 0.008273789163814023),
    ),
    (
        (0, 0.6241109587160757), (3, -3.3608926294469414), (4, -0.868219346841726),
        (5, 27.59209969944671), (6, 20.154067550477894), (7, -43.48988418106996),
    ),
    (
        (0, 0.47766253643826434), (3, -2.4881146199716677), (4, -0.590290826836843),
        (5, 21.230051448181193), (6, 15.279233632882423), (7, -33.28821096898486),
        (8, -0.020331201708508627),
    ),
    (
        (0, -0.9371424300859873), (3, 5.186372428844064), (4, 1.0914373489967295),
        (5, -8.149787010746927), (6, -18.52006565999696), (7, 22.739487099350505),
        (8, 2.4936055526796523), (9, -3.0467644718982196),
    ),
    (
        (0, 2.273310147516538), (3, -10.53449546673725), (4, -2.0008720582248625),
        (5, -17.9589318631188), (6, 27.94888452941996), (7, -2.8589982771350235),
        (8, -8.87285693353063), (9, 12.360567175794303), (10, 0.6433927460157636),
    ),
    (
        (0, 0.054293734116568765), (5, 4.450312892752409), (6, 1.8915178993145003),
        (7, -5.801203960010585), (8, 0.3111643669578199), (9, -0.1521609496625161),
        (10, 0.20136540080403034), (11, 0.04471061572777259),
    ),
    (
        (0, 0.056167502283047954), (6, 0.25350021021662483), (7, -0.2462390374708025),
        (8, -0.12419142326381637), (9, 0.15329179827876568), (10, 0.00820105229563469),
        (11, 0.007567897660545699), (12, -0.008298),
    ),
    (
        (0, 0.03183464816350214), (5, 0.028300909672366776), (6, 0.053541988307438566),
        (7, -0.05492374857139099), (10, -0.00010834732869724932), (11, 0.0003825710908356584),
        (12, -0.00034046500868740456), (13, 0.1413124436746325),
    ),
    (
        (0, -0.42889630158379194), (5, -4.697621415361164), (6, 7.683421196062599),
        (7, 4.06898981839711), (8, 0.3567271874552811), (12, -0.0013990241651590145),
        (13, 2.9475147891527724), (14, -9.15095847217987),
    ),
)
_E3_ROW = (
    (0, -0.18980075407240762), (5, 4.450312892752409), (6, 1.8915178993145003),
    (7, -5.801203960010585), (8, -0.4226823213237919), (9, -0.1521609496625161),
    (10, 0.20136540080403034), (11, 0.02265179219836082),
)
_E5_ROW = (
    (0, 0.01312004499419488), (5, -1.2251564463762044), (6, -0.4957589496572502),
    (7, 1.6643771824549864), (8, -0.35032884874997366), (9, 0.3341791187130175),
    (10, 0.08192320648511571), (11, -0.022355307863886294),
)
_D_ROWS = (
    (
        (0, -8.428938276109013), (5, 0.5667149535193777), (6, -3.0689499459498917),
        (7, 2.38466765651207), (8, 2.117034582445028), (9, -0.871391583777973),
        (10, 2.2404374302607883), (11, 0.6315787787694688), (12, -0.08899033645133331),
        (13, 18.148505520854727), (14, -9.194632392478356), (15, -4.436036387594894),
    ),
    (
        (0, 10.427508642579134), (5, 242.28349177525817), (6, 165.20045171727028),
        (7, -374.5467547226902), (8, -22.113666853125306), (9, 7.733432668472264),
        (10, -30.674084731089398), (11, -9.332130526430229), (12, 15.697238121770845),
        (13, -31.139403219565178), (14, -9.35292435884448), (15, 35.81684148639408),
    ),
    (
        (0, 19.985053242002433), (5, -387.0373087493518), (6, -189.17813819516758),
        (7, 527.8081592054236), (8, -11.57390253995963), (9, 6.8812326946963),
        (10, -1.0006050966910838), (11, 0.7777137798053443), (12, -2.778205752353508),
        (13, -60.19669523126412), (14, 84.32040550667716), (15, 11.99229113618279),
    ),
    (
        (0, -25.69393346270375), (5, -154.18974869023643), (6, -231.5293791760455),
        (7, 357.6391179106141), (8, 93.40532418362432), (9, -37.45832313645163),
        (10, 104.0996495089623), (11, 29.8402934266605), (12, -43.53345659001114),
        (13, 96.32455395918828), (14, -39.17726167561544), (15, -149.72683625798564),
    ),
)
_SAFETY = 0.9  # step factors from the asymptotic error are scaled by this
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_EXPONENT = -1.0 / 8.0  # the error estimator is of order 7


def _table(rows, width: int) -> np.ndarray:
    """The (index, value) rows as a dense array, zeros elsewhere."""
    out = np.zeros((len(rows), width))
    for i, row in enumerate(rows):
        for j, a in row:
            out[i, j] = a
    return out


# The weights as arrays of scipy's shapes: every stage sum below is the np.dot
# scipy takes, on operands of the same shape and layout, so BLAS rounds it
# the same way.  The error estimate cancels to a few digits near r = 0 and
# sets the step sizes there, so one rounding apart would send the shot down
# another sequence of steps.
_A = _table(_A_ROWS, 16)
_ROWS = [_A[s, :s] for s in range(16)]
_B = _A[12, :12]
_E3 = _table((_E3_ROW,), 13)[0]
_E5 = _table((_E5_ROW,), 13)[0]
_D = _table(_D_ROWS, 16)


def _rms(a: float, b: float) -> float:
    """RMS norm of (a, b), as scipy takes it through ``np.linalg.norm``."""
    x = np.array((a, b))
    return sqrt(x.dot(x)) / sqrt(2.0)


class _Dop853:
    """DOP853 steps of y' = fun(t, y0, y1) from t0 towards t_bound, as scipy's ``DOP853`` solver takes them.

    ``fun`` returns the two derivatives as floats.  The state is held as
    floats; the 16 stages live in the rows of ``K``.
    """

    def __init__(self, fun, t0: float, y0, t_bound: float, rtol: float, atol: float, max_step: float):
        self.fun = fun
        self.t_bound, self.max_step = t_bound, max_step
        self.rtol, self.atol = max(rtol, 100 * _EPS), atol
        self.K = np.empty((16, 2))
        self._KT = [self.K[:s].T for s in range(16)]
        self.t = t0
        self.u, self.v = y0
        self.f = fun(t0, self.u, self.v)
        self.h_abs = self._initial_step()

    def _initial_step(self) -> float:
        """First step size: Hairer, Norsett and Wanner's rule (Sec. II.4)."""
        t, u, v, (fu, fv) = self.t, self.u, self.v, self.f
        span = abs(self.t_bound - t)
        su, sv = self.atol + abs(u) * self.rtol, self.atol + abs(v) * self.rtol
        d0 = _rms(u / su, v / sv)
        d1 = _rms(fu / su, fv / sv)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, span)
        gu, gv = self.fun(t + h0, u + h0 * fu, v + h0 * fv)
        d2 = _rms((gu - fu) / su, (gv - fv) / sv) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
        return min(100 * h0, h1, span, self.max_step)

    def _stages(self, t: float, u: float, v: float, h: float, stages: range) -> None:
        """The ``stages`` of the step of size h from (t, u, v), in turn, into their rows of K."""
        fun, K, KT = self.fun, self.K, self._KT
        for s in stages:
            du, dv = KT[s].dot(_ROWS[s]).tolist()
            K[s] = fun(t + _C[s] * h, u + du * h, v + dv * h)

    def step(self) -> bool:
        """Take one accepted step; False, with the state unchanged, once the size is NaN or below 10 ulp of t."""
        t, u, v, K = self.t, self.u, self.v, self.K
        rtol, atol = self.rtol, self.atol
        min_step = 10 * abs(nextafter(t, inf) - t)
        h_abs = self.h_abs
        if h_abs > self.max_step:
            h_abs = self.max_step
        elif h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if not h_abs >= min_step:  # a NaN size, from a NaN state, ends the run too
                return False
            t_new = min(t + h_abs, self.t_bound)
            h = t_new - t
            h_abs = abs(h)
            K[0] = self.f
            self._stages(t, u, v, h, range(1, 12))
            bu, bv = self._KT[12].dot(_B).tolist()
            u_new, v_new = u + h * bu, v + h * bv
            f_new = self.fun(t + h, u_new, v_new)
            K[12] = f_new

            scale = (atol + max(abs(u), abs(u_new)) * rtol, atol + max(abs(v), abs(v_new)) * rtol)
            err5 = self._KT[13].dot(_E5) / scale
            err3 = self._KT[13].dot(_E3) / scale
            err5 = sqrt(err5.dot(err5)) ** 2
            err3 = sqrt(err3.dot(err3)) ** 2
            if err5 == 0 and err3 == 0:
                error_norm = 0.0
            else:
                error_norm = h_abs * err5 / sqrt((err5 + 0.01 * err3) * 2)

            if error_norm < 1:
                factor = _MAX_FACTOR if error_norm == 0 else min(_MAX_FACTOR, _SAFETY * error_norm**_EXPONENT)
                if rejected:
                    factor = min(1.0, factor)
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm**_EXPONENT)
            rejected = True
        self.t_old, self.u_old, self.v_old, self.h = t, u, v, h
        self.t, self.u, self.v, self.f = t_new, u_new, v_new, f_new
        self.h_abs = h_abs * factor
        return True

    def dense_output(self):
        """The degree-7 interpolant over the last step, evaluated at a float or an array: ``(y0, y1)``."""
        t_old, u_old, v_old, h, K = self.t_old, self.u_old, self.v_old, self.h, self.K
        self._stages(t_old, u_old, v_old, h, range(13, 16))
        du, dv = self.u - u_old, self.v - v_old
        (f0u, f0v), (fu, fv) = K[0].tolist(), self.f
        F = [
            (du, dv),
            (h * f0u - du, h * f0v - dv),
            (2 * du - h * (fu + f0u), 2 * dv - h * (fv + f0v)),
            *(h * _D.dot(K)).tolist(),
        ]
        F.reverse()

        def evaluate(t):
            x = (t - t_old) / h
            yu = yv = 0.0
            for i, (cu, cv) in enumerate(F):
                w = x if i % 2 == 0 else 1 - x
                yu = (yu + cu) * w
                yv = (yv + cv) * w
            return yu + u_old, yv + v_old

        return evaluate


class Shot(NamedTuple):
    """One integration: ``y[:, i]`` at ``t[i]``, and per event the radius where it stopped the run, if it did."""

    t: np.ndarray
    y: np.ndarray  # (2, len(t))
    t_events: list  # per event, an array of 0 or 1 radii


def solve_ivp(fun, t_span, y0, *, events, rtol, atol, max_step, t_eval=None) -> Shot:
    """Integrate y' = fun(t, y0, y1) over ``t_span`` with DOP853, stopping at the first event.

    ``fun`` returns the two derivatives as floats.  ``events`` holds
    ``(g, direction)`` pairs: the run stops where some g(t, y0, y1) crosses
    zero in that direction (+1 upward, -1 downward, 0 either way), located
    by ``brentq`` on the step's dense output; every event is terminal.  The
    result holds the solution at the ``t_eval`` points reached (increasing,
    inside ``t_span``), or at t0 and every step end when ``t_eval`` is None.
    The error per step is held to ``atol + rtol |y|``, rtol at least
    100 eps as scipy clamps it.  A step size that falls below 10 ulp of t
    ends the run where it is, as scipy's failed status does.
    """
    t0, t_bound = float(t_span[0]), float(t_span[1])
    ode = _Dop853(fun, t0, (float(y0[0]), float(y0[1])), t_bound, rtol, atol, max_step)
    g = [event(t0, ode.u, ode.v) for event, _ in events]
    t_events = [[] for _ in events]
    if t_eval is None:
        ts, us, vs = [t0], [ode.u], [ode.v]
    else:
        t_eval = np.asarray(t_eval, dtype=float)
        ts, us, vs, i_eval = [], [], [], 0

    done = False
    while not done and ode.step():
        t, u, v = ode.t, ode.u, ode.v
        done = t >= t_bound
        dense = None
        g_new = [event(t, u, v) for event, _ in events]
        hit = [
            k
            for k, ((_, direction), a, b) in enumerate(zip(events, g, g_new))
            if (a <= 0 <= b and direction >= 0) or (a >= 0 >= b and direction <= 0)
        ]
        if hit:
            dense = ode.dense_output()
            roots = [
                brentq(lambda s, ev=events[k][0]: ev(s, *dense(s)), ode.t_old, t, xtol=4 * _EPS)
                for k in hit
            ]
            first = min(range(len(hit)), key=roots.__getitem__)
            t_events[hit[first]].append(roots[first])
            t = roots[first]
            u, v = dense(t)
            done = True
        g = g_new
        if t_eval is None:
            ts.append(t)
            us.append(u)
            vs.append(v)
        else:
            i_new = bisect_right(t_eval, t, lo=i_eval)
            if i_new > i_eval:
                dense = dense or ode.dense_output()
                pts = t_eval[i_eval:i_new]
                yu, yv = dense(pts)
                ts.append(pts)
                us.append(yu)
                vs.append(yv)
                i_eval = i_new
    if t_eval is None:
        t_out, y_out = np.array(ts), np.array([us, vs])
    elif ts:
        t_out, y_out = np.concatenate(ts), np.array([np.concatenate(us), np.concatenate(vs)])
    else:
        t_out, y_out = np.empty(0), np.empty((2, 0))
    return Shot(t=t_out, y=y_out, t_events=[np.array(te) for te in t_events])


def brentq(f, a: float, b: float, xtol: float) -> float:
    """A root of f in [a, b], where f(a) and f(b) differ in sign, by Brent's method.

    The steps of scipy's ``brentq`` at its default rtol = 4 eps and 100
    iterations: inverse quadratic interpolation or a secant step where it
    stays well inside the bracket, else bisection, until half the bracket
    is below (xtol + rtol |x|) / 2.  ``ValueError`` for a bracket without a
    sign change or a NaN value, ``RuntimeError`` after 100 steps.
    """
    rtol, maxiter = 4 * _EPS, 100

    def value(x):
        fx = f(x)
        if isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    xpre, xcur = a, b
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"brentq failed to converge after {maxiter} iterations, value is {xcur}")


def simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson's rule for samples y at strictly increasing points x (at least three).

    Each pair of intervals takes the three-point rule for its two spacings.
    With an even number of points the pairs cover all but the last
    interval, which takes Cartwright's correction from the last three
    points, as ``scipy.integrate.simpson`` does.
    """
    n = len(y)
    stop = n - 2 if n % 2 else n - 3
    h = np.diff(x)
    h0, h1 = h[0:stop:2], h[1 : stop + 1 : 2]
    hsum = h0 + h1
    hprod = h0 * h1
    ratio = h0 / h1
    terms = hsum / 6.0 * (
        y[0:stop:2] * (2.0 - 1.0 / ratio) + y[1 : stop + 1 : 2] * (hsum * (hsum / hprod)) + y[2 : stop + 2 : 2] * (2.0 - ratio)
    )
    result = np.sum(terms)
    if n % 2 == 0:
        a, b = float(h[-2]), float(h[-1])
        alpha = (2 * (b * b) + 3 * a * b) / (6 * (b + a))
        beta = (b * b + 3.0 * a * b) / (6 * a)
        eta = b**3 / (6 * a * (a + b))
        result += alpha * y[-1] + beta * y[-2] - eta * y[-3]
    return float(result)


def clamped_spline(x: np.ndarray, y: np.ndarray, d0: float, d1: float):
    """The C^2 piecewise cubic through (x, y) with slopes d0 at x[0] and d1 at x[-1].

    The node slopes s solve the tridiagonal system of the spline's
    continuous second derivative, s_0 = d0 and s_{n-1} = d1; each interval
    then carries the cubic Hermite form of its end values and slopes.  The
    result evaluates an array of points in [x[0], x[-1]], each on the
    interval x[i] <= r < x[i+1] (the last interval for r = x[-1]).
    """
    n = len(x)
    dx = np.diff(x)
    slope = np.diff(y) / dx
    diag = np.empty(n)
    diag[0] = diag[-1] = 1.0
    diag[1:-1] = 2 * (dx[:-1] + dx[1:])
    upper = np.zeros(n - 1)  # entry (i, i + 1)
    upper[1:] = dx[:-1]
    lower = np.zeros(n - 1)  # entry (i + 1, i)
    lower[:-1] = dx[1:]
    rhs = np.empty(n)
    rhs[0], rhs[-1] = d0, d1
    rhs[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    s = _tridiagonal_solve(lower, diag, upper, rhs)

    t = (s[:-1] + s[1:] - 2 * slope) / dx
    c3 = t / dx
    c2 = (slope - s[:-1]) / dx - t
    c1 = s[:-1]
    c0 = y[:-1]

    def evaluate(r):
        i = np.clip(np.searchsorted(x, r, side="right") - 1, 0, n - 2)
        d = r - x[i]
        return c0[i] + c1[i] * d + c2[i] * (d * d) + c3[i] * (d * d * d)

    return evaluate


def _tridiagonal_solve(lower, diag, upper, rhs) -> np.ndarray:
    """Solve a tridiagonal system by elimination without row exchanges.

    A spline's system is diagonally dominant, so the elimination is stable
    without them.  On spacings that change by less than a factor 2 per
    node, every pivot also outweighs the entry below it, so LAPACK's
    ``gtsv`` (which scipy calls) exchanges no rows either, and this is its
    order of operations.
    """
    dl, d, du, b = lower.tolist(), diag.tolist(), upper.tolist(), rhs.tolist()
    n = len(d)
    for i in range(n - 1):
        fact = dl[i] / d[i]
        d[i + 1] -= fact * du[i]
        b[i + 1] -= fact * b[i]
    b[-1] /= d[-1]
    for i in range(n - 2, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1]) / d[i]
    return np.array(b)
