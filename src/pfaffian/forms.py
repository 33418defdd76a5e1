"""Pfaffian forms on axis-aligned boxes.

A form is an ordered variable list, one coefficient expression per variable,
and a closed box domain.  Forms are immutable; every operation here is pure.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property

from . import expressions as ex
from .errors import (
    ArityError,
    EvalDomainError,
    FormError,
    OutOfDomainError,
    SingularFormError,
)
from .sampling import MAX_VARIABLES, box_corners, box_samples

DEFAULT_SINGULAR_TOL = 1e-12
# box bounds lie within +-MAX_COORDINATE, so that the squared distance of
# two points of a box (up to 10 coordinates) stays finite
MAX_COORDINATE = 1e150
_NONSINGULAR_SAMPLES = 256


@dataclass(frozen=True)
class Box:
    """Closed axis-aligned box with nonempty interior."""

    lows: tuple
    highs: tuple

    def __post_init__(self):
        lows = tuple(float(v) for v in self.lows)
        highs = tuple(float(v) for v in self.highs)
        object.__setattr__(self, "lows", lows)
        object.__setattr__(self, "highs", highs)
        if len(lows) != len(highs) or not lows:
            raise FormError("box bounds must be nonempty and of equal length")
        for lo, hi in zip(lows, highs):
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise FormError(f"invalid interval [{lo}, {hi}]")
            if not -MAX_COORDINATE <= lo < hi <= MAX_COORDINATE:
                raise FormError(f"interval [{lo}, {hi}] reaches beyond "
                                f"+-{MAX_COORDINATE:g}")

    @property
    def dim(self) -> int:
        return len(self.lows)

    def contains(self, p, tol: float = 0.0) -> bool:
        return all(
            lo - tol <= x <= hi + tol for x, lo, hi in zip(p, self.lows, self.highs)
        )

    def clamp(self, p):
        return tuple(
            min(max(x, lo), hi) for x, lo, hi in zip(p, self.lows, self.highs)
        )

    @property
    def center(self):
        return tuple((lo + hi) / 2.0 for lo, hi in zip(self.lows, self.highs))

    @property
    def edges(self):
        return tuple(hi - lo for lo, hi in zip(self.lows, self.highs))

    def samples(self, count: int) -> list:
        """``count`` Halton points of the box, as tuples of Python floats."""
        return box_samples(self.lows, self.highs, count)

    def corners(self) -> list:
        """The 2^dim corners, as tuples of Python floats."""
        return box_corners(self.lows, self.highs)


@dataclass(frozen=True)
class PfaffianForm:
    """n coefficient expressions F_i over n named variables on a box.

    The coefficients are stored as given.  Parsed texts and trees built
    through the folding constructors of :mod:`.expressions` are folded, and
    so are their derivatives, since every derivative rule builds through
    those constructors.
    """

    var_names: tuple
    coefficients: tuple
    domain: Box

    @property
    def n(self) -> int:
        return len(self.var_names)

    @cached_property
    def coefficient_tuple_fn(self):
        """One compiled callable returning the whole coefficient vector.

        ``coefficient_tuple_fn(*p)`` is ``(F_1, ..., F_n)`` with the raw
        error behavior of expressions.compile_tuple: it raises wherever any
        coefficient is undefined, even when the caller reads only another.
        """
        return ex.compile_tuple(self.coefficients, self.n)

    @cached_property
    def jet_fn(self):
        """One compiled callable returning F and its off-diagonal partials at a point.

        ``jet_fn(*p)`` is ``(F_1, ..., F_n, dF_1/dx_2, ..., dF_1/dx_n,
        dF_2/dx_1, dF_2/dx_3, ..., dF_n/dx_{n-1})``: the coefficients, then
        ``dF_i/dx_j`` for every ``j != i``, row by row, n + n(n-1) entries.
        The exactness defects and the Clairaut tensor read only these; the
        diagonal partials ``dF_i/dx_i`` are neither differentiated nor
        compiled.  All partials are differentiated with one memo, and
        subtrees shared between the entries are computed once (see
        expressions.compile_tuple); raw error behavior.
        """
        n = self.n
        memo = {}
        partials = (ex.differentiate(c, j, memo)
                    for i, c in enumerate(self.coefficients)
                    for j in range(n) if j != i)
        return ex.compile_tuple((*self.coefficients, *partials), n)

    @cached_property
    def ode_kernels(self):
        """Generated ODE kernels of this form, each built once by :mod:`.factor`:
        ``("characteristic", b)`` solves for axis b, ``("path", i)`` moves
        the free variable i along surface paths."""
        return {}


def singular(values) -> bool:
    """Whether every ``|F_i|`` of ``values`` is at most ``DEFAULT_SINGULAR_TOL``.
    With :func:`pivot`, the one rule of where a form is singular."""
    return max(map(abs, values)) <= DEFAULT_SINGULAR_TOL


def pivot(values):
    """The index of the first largest ``|F_i|``, the coefficient a curve solves
    for, or None where ``values`` is :func:`singular`.  ``max`` picks the
    size, so a tie goes to the first index, and a NaN it picks is a pivot
    (``index`` finds the very object ``max`` returns)."""
    sizes = list(map(abs, values))
    largest = max(sizes)
    return None if largest <= DEFAULT_SINGULAR_TOL else sizes.index(largest)


def singular_source(name: str) -> str:
    """:func:`singular` of the one value ``name``, as generated code."""
    tol = ex.python_literal(DEFAULT_SINGULAR_TOL)
    return f"({name} <= {tol} and {name} >= -{tol})"


def _jacobian(exprs, n):
    """Rows ``(d e/dx_1, ..., d e/dx_n)`` of ``exprs``, one memo for all."""
    memo = {}
    return tuple(tuple(ex.differentiate(e, j, memo) for j in range(n)) for e in exprs)


def _nonsingular_probe_points(box: Box):
    """The box center, then Halton points, drawn only if the center fails."""
    yield box.center
    yield from box.samples(_NONSINGULAR_SAMPLES)


def _probe_vector(form: PfaffianForm, p, needs_jet: bool):
    """F at the probe point ``p``, or None where a coefficient is undefined.

    With ``needs_jet``, F is read from the first n entries of
    :attr:`PfaffianForm.jet_fn`; they are the float operations of
    :attr:`PfaffianForm.coefficient_tuple_fn`.  Where the jet raises or one
    of those entries is non-finite, the answer is that of
    :func:`coefficient_vector`, which then compiles F.
    """
    if needs_jet:
        try:
            values = form.jet_fn(*p)[:form.n]
        except ex.UNDEFINED:
            pass
        else:
            if all(map(math.isfinite, values)):
                return values
    try:
        return coefficient_vector(form, p)
    except EvalDomainError:
        return None


def _check_nonsingular(form: PfaffianForm, needs_jet: bool):
    """Raise SingularFormError where F is :func:`singular` or undefined at
    every probe point.

    The message tells probes where the vector is zero from those where a
    coefficient is undefined (a pole, a log of a negative value, ...).
    ``needs_jet`` says the caller will evaluate :attr:`PfaffianForm.jet_fn`
    anyway, so the probe reads F from the jet and compiles F only where the
    jet fails (:func:`_probe_vector`); the decision and the message are
    those of the probe on F either way.  Without it, the probe compiles F
    alone and never builds the Jacobian.
    """
    zero = undefined = 0
    for p in _nonsingular_probe_points(form.domain):
        values = _probe_vector(form, p, needs_jet)
        if values is None:
            undefined += 1
            continue
        if not singular(values):
            return
        zero += 1
    if not undefined:
        message = "coefficient vector numerically zero at all sampled points"
    elif not zero:
        message = f"coefficients undefined at all {undefined} sampled points"
    else:
        message = (f"coefficient vector numerically zero at {zero} and undefined"
                   f" at {undefined} of the {zero + undefined} sampled points")
    raise SingularFormError(message)


def _checked_variables(var_names) -> tuple:
    """``var_names`` as a tuple, after the check of every variable list:
    distinct names, at most ``MAX_VARIABLES`` of them."""
    var_names = tuple(var_names)
    if len(var_names) != len(set(var_names)):
        raise FormError("duplicate variable names")
    if len(var_names) > MAX_VARIABLES:
        raise FormError(f"{len(var_names)} variables; at most {MAX_VARIABLES} "
                        "are supported")
    return var_names


def _checked_names(var_names, coefficients, box: Box) -> tuple:
    """``var_names`` as a tuple, after the checks of both form constructors:
    :func:`_checked_variables`, and one name per coefficient and per axis
    of ``box``."""
    var_names = _checked_variables(var_names)
    if len(coefficients) != len(var_names):
        raise ArityError(
            f"{len(coefficients)} coefficients for {len(var_names)} variables"
        )
    if box.dim != len(var_names):
        raise ArityError(f"box dimension {box.dim} != {len(var_names)} variables")
    return var_names


def make_form(var_names, coefficient_texts, box: Box, needs_jet=False):
    """Parse coefficient texts and construct a non-singular form on ``box``.

    ``needs_jet`` lets the nonsingularity probe use the jet (see
    :func:`_check_nonsingular`).
    """
    var_names = _checked_names(var_names, coefficient_texts, box)
    coeffs = tuple(ex.parse_expression(text, var_names) for text in coefficient_texts)
    form = PfaffianForm(var_names, coeffs, box)
    _check_nonsingular(form, needs_jet)
    return form


def form_from_expressions(var_names, coefficients, box: Box,
                          needs_jet=False) -> PfaffianForm:
    """Construct a form from already-built expression trees (``needs_jet``
    as for :func:`make_form`).

    The trees are stored as given, not folded; build them through the
    folding constructors of :mod:`.expressions`, as the parser does.
    """
    var_names = _checked_names(var_names, coefficients, box)
    form = PfaffianForm(var_names, tuple(coefficients), box)
    _check_nonsingular(form, needs_jet)
    return form


def distance(p, q) -> float:
    """Euclidean distance between two points given as coordinate sequences.

    The squares are added left to right from 0.0, as generated code adds
    (expressions.python_sum), and not by the builtin ``sum``, which
    compensates the rounding from Python 3.12 on.
    """
    total = 0.0
    for a, b in zip(p, q):
        total += (a - b) ** 2
    return math.sqrt(total)


def coefficient_vector(form: PfaffianForm, p):
    """(F_1(p), ..., F_n(p)); raises OutOfDomainError when p is outside the box."""
    if not form.domain.contains(p, tol=1e-12):
        raise OutOfDomainError(f"point {tuple(p)} outside domain")
    return ex.call_checked(form.coefficient_tuple_fn, p, form.n)


def is_singular_at(form: PfaffianForm, p) -> bool:
    """Whether F is singular at ``p`` (:func:`singular`)."""
    return singular(coefficient_vector(form, p))


# ---------------------------------------------------------------------------
# change of variables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Substitution:
    """Old coordinates written as expressions of new coordinates.

    ``exprs[i]`` gives x_i in terms of the new variables.  The Jacobian
    dx_i/dxbar_j must be nonsingular at ``base_point`` (checked by
    :func:`make_substitution`).
    """

    new_var_names: tuple
    exprs: tuple
    base_point: tuple
    new_domain: Box

    @property
    def n(self) -> int:
        return len(self.new_var_names)

    @cached_property
    def derivative_matrix(self):
        """Symbolic dx_i/dxbar_j, differentiated once with one memo."""
        return _jacobian(self.exprs, self.n)

    @cached_property
    def _exprs_fn(self):
        return ex.compile_tuple(self.exprs, self.n)

    @cached_property
    def _jacobian_fn(self):
        return ex.compile_tuple([d for row in self.derivative_matrix for d in row],
                                self.n)

    def apply(self, p_new):
        """Map a point in new coordinates to old coordinates."""
        return ex.call_checked(self._exprs_fn, p_new, self.n)

    def jacobian_at(self, p_new):
        """The numpy matrix dx_i/dxbar_j at ``p_new``; EvalDomainError if undefined."""
        import numpy as np

        values = ex.call_checked(self._jacobian_fn, p_new, self.n)
        return np.array(values).reshape(self.n, self.n)


def make_substitution(new_var_names, expr_texts, base_point, new_domain: Box
                      ) -> Substitution:
    """The substitution ``x_i = expr_texts[i]`` of the new variables.

    Raises FormError where the new variables fail
    :func:`_checked_variables`, and unless its Jacobian at ``base_point`` is
    finite with a condition number of at most 1e12.
    """
    new_var_names = _checked_variables(new_var_names)
    n = len(new_var_names)
    if len(expr_texts) != n or new_domain.dim != n or len(base_point) != n:
        raise ArityError("substitution arities must agree")
    exprs = tuple(
        e if isinstance(e, ex.Expression) else ex.parse_expression(e, new_var_names)
        for e in expr_texts
    )
    sub = Substitution(new_var_names, exprs, tuple(float(v) for v in base_point),
                       new_domain)
    import numpy as np

    jac = sub.jacobian_at(sub.base_point)
    if not np.all(np.isfinite(jac)) or np.linalg.cond(jac) > 1e12:
        raise FormError("substitution Jacobian is singular at the base point")
    return sub


def pullback(form: PfaffianForm, sub: Substitution,
             needs_jet=False) -> PfaffianForm:
    """Coordinate change of the form: Fbar_j = sum_i (dx_i/dxbar_j) * (F_i o s).

    Built symbolically through :func:`.expressions.substitute` and the
    folding constructors, so folded coefficients and substitutions give
    folded coefficients; line integrals along corresponding curves agree.
    ``needs_jet`` as for :func:`make_form`.
    """
    if sub.n != form.n:
        raise ArityError("substitution arity does not match the form")
    composed = [ex.substitute(c, sub.exprs) for c in form.coefficients]
    jac = sub.derivative_matrix
    new_coeffs = []
    for j in range(form.n):
        acc = ex.constant(0.0)
        for i in range(form.n):
            acc = ex.add(acc, ex.mul(jac[i][j], composed[i]))
        new_coeffs.append(acc)
    return form_from_expressions(sub.new_var_names, new_coeffs, sub.new_domain,
                                 needs_jet=needs_jet)


def random_linear_substitution(form: PfaffianForm, seed: int) -> Substitution:
    """Well-conditioned random affine change of variables into the box.

    Old coordinates: x_i = c_i + sum_j A_ij u_j with A = I plus a random
    perturbation of spectral norm 0.3; the new box is a cube 0.35 times the
    size whose image would just fit the form's domain.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    n = form.n
    g = rng.standard_normal((n, n))
    a = np.eye(n) + 0.3 * g / np.linalg.norm(g, 2)
    center = form.domain.center
    halfwidths = [0.5 * e for e in form.domain.edges]
    row_sums = np.abs(a).sum(axis=1)
    eta = 0.35 * min(h / r for h, r in zip(halfwidths, row_sums))
    new_names = tuple(f"u{j + 1}" for j in range(n))
    exprs = []
    for i in range(n):
        acc = ex.constant(center[i])
        for j in range(n):
            acc = ex.add(acc, ex.mul(ex.constant(a[i, j]), ex.variable(j)))
        exprs.append(acc)
    new_box = Box((-eta,) * n, (eta,) * n)
    return make_substitution(new_names, exprs, (0.0,) * n, new_box)


def mild_nonlinear_substitution(form: PfaffianForm) -> Substitution:
    """Identity plus a small quadratic coupling: x_i = c_i + u_i + 0.1*u_{i+1}^2.

    The new box is the cube of half-width 0.3 times the smallest half-edge.
    """
    n = form.n
    center = form.domain.center
    halfwidths = [0.5 * e for e in form.domain.edges]
    eta = 0.3 * min(halfwidths)
    new_names = tuple(f"u{j + 1}" for j in range(n))
    exprs = []
    for i in range(n):
        other = (i + 1) % n
        quad = ex.mul(ex.constant(0.1), ex.powc(ex.variable(other), 2.0))
        exprs.append(ex.add(ex.constant(center[i]), ex.add(ex.variable(i), quad)))
    new_box = Box((-eta,) * n, (eta,) * n)
    return make_substitution(new_names, exprs, (0.0,) * n, new_box)


# ---------------------------------------------------------------------------
# form definition files
# ---------------------------------------------------------------------------

_INTERVAL_RE = re.compile(r"\[\s*([^,\]]+)\s*,\s*([^\]]+?)\s*\]")


def parse_box(text: str) -> Box:
    """The box written ``[lo,hi] x [lo,hi] x ...``; raises FormError."""
    intervals = _INTERVAL_RE.findall(text)
    if not intervals:
        raise FormError("no intervals in domain")
    try:
        lows = tuple(float(a) for a, _ in intervals)
        highs = tuple(float(b) for _, b in intervals)
    except ValueError as exc:
        raise FormError(f"bad interval bound: {exc}") from exc
    return Box(lows, highs)


def parse_form_file(text: str, needs_jet=False) -> PfaffianForm:
    """Parse the plain-text form definition format.

    Line 1: ``vars: x, y, z``; then one ``F[i] = <expression>`` per variable;
    finally ``domain: [lo,hi] x [lo,hi] x ...``.  '#' starts a comment.
    ``needs_jet`` as for :func:`make_form`.
    """
    var_names = None
    coeff_texts = {}
    box = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("vars:"):
            var_names = tuple(v.strip() for v in line[len("vars:"):].split(","))
            if any(not v for v in var_names):
                raise FormError(f"line {lineno}: empty variable name")
        elif line.startswith("domain:"):
            try:
                box = parse_box(line[len("domain:"):])
            except FormError as exc:
                raise FormError(f"line {lineno}: {exc}") from exc
        elif line.startswith("F["):
            m = re.match(r"F\[(\d+)\]\s*=\s*(.+)$", line)
            if m is None:
                raise FormError(f"line {lineno}: malformed coefficient line")
            idx = int(m.group(1))
            if idx < 1:
                raise FormError(f"line {lineno}: coefficient indices start at 1")
            if idx in coeff_texts:
                raise FormError(f"line {lineno}: F[{idx}] given twice")
            coeff_texts[idx] = m.group(2)
        else:
            raise FormError(f"line {lineno}: unrecognized line {line!r}")
    if var_names is None:
        raise FormError("missing 'vars:' line")
    if box is None:
        raise FormError("missing 'domain:' line")
    n = len(var_names)
    if sorted(coeff_texts) != list(range(1, n + 1)):
        raise FormError(f"need coefficients F[1]..F[{n}], got {sorted(coeff_texts)}")
    texts = [coeff_texts[i] for i in range(1, n + 1)]
    return make_form(var_names, texts, box, needs_jet=needs_jet)


def load_form(path, needs_jet=False) -> PfaffianForm:
    """The form in the file ``path``; ``needs_jet`` as for :func:`make_form`."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_form_file(fh.read(), needs_jet=needs_jet)


def format_form_file(form: PfaffianForm) -> str:
    lines = ["vars: " + ", ".join(form.var_names)]
    for i, coeff in enumerate(form.coefficients, start=1):
        lines.append(f"F[{i}] = {ex.to_string(coeff, form.var_names)}")
    domain = " x ".join(
        f"[{lo!r},{hi!r}]" for lo, hi in zip(form.domain.lows, form.domain.highs)
    )
    lines.append("domain: " + domain)
    return "\n".join(lines) + "\n"
