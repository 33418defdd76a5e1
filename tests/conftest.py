import inspect
import math
from itertools import combinations_with_replacement

import numpy as np
import pytest

from oracle import _ref_simplify
from pfaffian import expressions as ex
from pfaffian.errors import AnalysisError, ParseError
from pfaffian.factor import _NO_STOP
from pfaffian.forms import Box, form_from_expressions
from pfaffian.sampling import halton


def monomials_up_to(n_vars, degree):
    """All exponent multi-indices with total degree <= degree."""
    monos = []
    for total in range(degree + 1):
        for combo in combinations_with_replacement(range(n_vars), total):
            expo = [0] * n_vars
            for v in combo:
                expo[v] += 1
            monos.append(tuple(expo))
    return monos


def random_polynomial(rng, n_vars, degree=3, coeff_range=2.0):
    """Random dense polynomial with coefficients uniform in +-coeff_range."""
    acc = ex.constant(0.0)
    for expo in monomials_up_to(n_vars, degree):
        term = ex.constant(float(rng.uniform(-coeff_range, coeff_range)))
        for v, e in enumerate(expo):
            if e:
                term = ex.mul(term, ex.powc(ex.variable(v), float(e)))
        acc = ex.add(acc, term)
    return _ref_simplify(acc)


_UNARY_OPS = ("neg", "exp", "log", "sin", "cos", "sqrt")
_CONSTS = (0.0, -0.0, 1.0, -1.0, 2.0, 0.5, -1.5, 3.0)
_EXPONENTS = (-2.0, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0, -0.0)


# node builders (unary, binary, pow): raw nodes, or the folding constructors
RAW = (ex.Unary, ex.Binary, ex.Pow)
FOLDING = (
    lambda op, a: ex.neg(a) if op == "neg" else ex.func(op, a),
    lambda op, a, b: {"+": ex.add, "-": ex.sub, "*": ex.mul, "/": ex.div}[op](a, b),
    ex.powc,
)


def random_tree(rng, n, depth, pool, build=RAW):
    """Tree using every node kind; reuses node objects from ``pool``.

    ``build`` makes the nodes: :data:`RAW` leaves them unfolded, and
    :data:`FOLDING` gives the tree :func:`oracle._ref_simplify` makes of the
    raw one from the same draws, with the pool's nodes shared.
    """
    r = rng.random()
    if pool and r < 0.15:
        return pool[int(rng.integers(len(pool)))]
    if depth == 0 or r < 0.35:
        if rng.random() < 0.6:
            return ex.Var(int(rng.integers(n)))
        return ex.Const(_CONSTS[int(rng.integers(len(_CONSTS)))])
    unary, binary, power = build
    kind = int(rng.integers(3))
    if kind == 0:
        op = _UNARY_OPS[int(rng.integers(len(_UNARY_OPS)))]
        node = unary(op, random_tree(rng, n, depth - 1, pool, build))
    elif kind == 1:
        op = "+-*/"[int(rng.integers(4))]
        node = binary(op, random_tree(rng, n, depth - 1, pool, build),
                      random_tree(rng, n, depth - 1, pool, build))
    else:
        node = power(random_tree(rng, n, depth - 1, pool, build),
                     _EXPONENTS[int(rng.integers(len(_EXPONENTS)))])
    pool.append(node)
    return node


def gradient_form(psi, n_vars, box, mu=None):
    """Form with coefficients mu * dpsi/dx_i (mu omitted: exact differential)."""
    coeffs = []
    for i in range(n_vars):
        d = _ref_simplify(ex.differentiate(psi, i))
        if mu is not None:
            d = ex.mul(mu, d)
        coeffs.append(d)
    names = tuple(f"x{i + 1}" for i in range(n_vars))
    return form_from_expressions(names, coeffs, box)


def unit_box(n, half=1.0):
    return Box((-half,) * n, (half,) * n)


def random_points(rng, box, count):
    lows = np.asarray(box.lows)
    highs = np.asarray(box.highs)
    return lows + rng.random((count, len(lows))) * (highs - lows)


def inset_samples(box, count, margin):
    """``count`` Halton points of ``box`` inset by ``margin`` of each edge on
    both sides: a unit point ``u`` goes to ``margin + (1 - 2 margin) u``."""
    return [tuple(lo + (margin + (1.0 - 2.0 * margin) * v) * (hi - lo)
                  for v, lo, hi in zip(u, box.lows, box.highs))
            for u in halton(count, box.dim)]


def fold(terms):
    """``terms`` added left to right from 0.0, as generated code adds them.

    The builtin ``sum`` does the same up to Python 3.11 only; from 3.12 it
    compensates the rounding.
    """
    acc = 0.0
    for v in terms:
        acc += v
    return acc


def _stop_args(kernel):
    """The stop arguments that never stop a solve (``factor._NO_STOP``) for a
    characteristic kernel, none for another kernel."""
    code = inspect.unwrap(kernel).__code__
    return _NO_STOP if "stop_lo" in code.co_varnames[:code.co_argcount] else ()


def start_slope(kernel, t, y, params=()):
    """The right-hand side of ``kernel`` at ``(t, y)``, which may raise.

    A call of the step loop without a start slope and with the end ``t``
    evaluates the slope at the start and takes no step; its limit is one
    step, as that of :func:`dopri5_step`.
    """
    return kernel(t, y, None, 0.0, t, 1.0, 1.0, 1.0, 0, 0, 0, 1,
                  *_stop_args(kernel), *params)[3]


def dopri5_start(kernel, t, y, params=(), h=0.0):
    """State ``(t, y, f0, h, accepted, rejected)`` of a solve from ``(t, y)``.

    ``f0`` is the generated right-hand side at the start (:func:`start_slope`),
    which may raise; ``h`` is the first step size, 0.0 to let the loop choose
    it.
    """
    y = tuple(float(v) for v in y)
    return t, y, start_slope(kernel, t, y, params), h, 0, 0


def dopri5_step(kernel, state, t_limit, direction=1.0, rtol=1e-9, atol=1e-12,
                max_steps=100000, params=(), whole=False):
    """Advance ``state`` one accepted step of the generated loop, never beyond ``t_limit``.

    Calls ``kernel`` with the limit of one more accepted step (or
    no limit, a whole solve to ``t_limit``, with ``whole`` true) from
    ``state = (t, y, f0, h, accepted, rejected)``, in the sign of
    ``direction``, with at most ``max_steps`` attempts counted from the
    state's.  A characteristic kernel also gets the stop arguments that
    never stop a solve (``factor._NO_STOP``).  Returns ``(status, state)``
    with the state the kernel returns, without the start of the last step
    that a kernel with a stop test adds.
    """
    t, y, f0, h, accepted, rejected = state
    status, *state = kernel(
        t, y, f0, h, t_limit, 1.0 if direction >= 0 else -1.0, rtol, atol,
        max_steps, accepted, rejected, math.inf if whole else accepted + 1,
        *_stop_args(kernel), *params)
    return status, tuple(state[:6])


def secant_bisect_root(fn, lo, hi, xtol=1e-13, max_iter=200):
    """``ode.bisect_root`` as it was before it kept an Illinois bracket.

    Each probe is the secant point of the bracket, clipped to lie at least
    ``0.1 * xtol`` inside it, or the midpoint.  The secant never moves the
    stale end of the bracket, so once it reaches the root the search only
    halves.
    """
    flo, fhi = fn(lo), fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise AnalysisError(f"root not bracketed on [{lo}, {hi}]")
    for _ in range(max_iter):
        if hi - lo <= xtol:
            break
        denom = fhi - flo
        mid = 0.5 * (lo + hi)
        if denom != 0.0:
            cand = lo - flo * (hi - lo) / denom
            if not (lo + 0.1 * xtol < cand < hi - 0.1 * xtol):
                cand = mid
        else:
            cand = mid
        fc = fn(cand)
        if fc == 0.0:
            return cand
        if flo * fc < 0:
            hi, fhi = cand, fc
        else:
            lo, flo = cand, fc
    return 0.5 * (lo + hi)


def entropy(p, cv=1.5, rg=1.0):
    return cv * math.log(p[0]) + rg * math.log(p[1])


# (text in x1, point) where the expression is undefined or overflows
DOMAIN_ERROR_CASES = [
    ("log(x1)", (-1.0,)),
    ("log(x1)", (0.0,)),
    ("sqrt(x1)", (-4.0,)),
    ("exp(x1)", (1e6,)),
    ("x1^0.5", (-2.0,)),
]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# forms (names, coefficient texts, domain) on which the nonsingularity probe
# reading F from the jet must decide as the probe on F decides
PROBE_CASES = {
    # d sqrt(y^2)/dy = y/sqrt(y^2), an off-diagonal partial of F_1, divides
    # by zero at the center, where F is defined and nonzero: the jet probe
    # falls back to F there
    "jet_raises": (("x", "y", "z"), ("1 + sqrt(y^2)", "z", "y"),
                   "[-1,1] x [-1,1] x [-1,1]"),
    "zero": (("x", "y"), ("0*x", "0"), "[0.5,1] x [0,1]"),
    "undefined": (("x", "y"), ("log(0-x)", "0"), "[1.5,2] x [0,1]"),
    "mixed": (("x", "y"), ("sqrt(0.75-x)*1e-300", "0"), "[0.5,1] x [0,1]"),
}


# shapes of deep expressions in x and y: k -> text, deeper with k
DEEP_SHAPES = {
    "sum": lambda k: " + ".join(f"{i + 1}.5*x*y^{i % 3 + 1}" for i in range(k)),
    "left_div": lambda k: "/".join(f"(x+{i}.5)" for i in range(k)),
    "right_div": lambda k: "x/(1+" * k + "y" + ")" * k,
    "sin": lambda k: "sin(" * k + "x" + ")" * k,
    "sqrt_log": lambda k: "sqrt(2+log(2+" * k + "x" + "))" * k,
    "pow": lambda k: "(" * k + "x+2" + ")^1.01+1" * k,
    "neg": lambda k: "-" * k + "x",
    "parens": lambda k: "(" * k + "x" + ")" * k,
}


def deepest_accepted(shape):
    """The text of ``shape`` with the largest k the parser accepts."""
    make = DEEP_SHAPES[shape]
    k = 1
    while True:
        try:
            ex.parse_expression(make(k + 1), ["x", "y"])
        except ParseError:
            return make(k)
        k += 1
