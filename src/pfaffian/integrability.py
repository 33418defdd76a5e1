"""Integrability classification of Pfaffian forms.

The decision statistic is the Clairaut tensor

    R_ijk = F_i (dF_k/dx_j - dF_j/dx_k)
          + F_j (dF_i/dx_k - dF_k/dx_i)
          + F_k (dF_j/dx_i - dF_i/dx_j),

whose vanishing is necessary, and locally sufficient, for an integrating
factor to exist.  Exactness is decided by the antisymmetric defects
dF_j/dx_i - dF_i/dx_j.  Forms in one or two variables always admit a local
integrating factor, so they are never classified non_integrable.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

from .errors import ArityError, EvalDomainError, FormError
from .forms import DEFAULT_SINGULAR_TOL, PfaffianForm, Substitution, pullback

DEFAULT_TOL = 1e-8

CLASS_EXACT = "exact"
CLASS_LOCALLY_INTEGRABLE = "locally_integrable"
CLASS_NON_INTEGRABLE = "non_integrable"
CLASS_INCONCLUSIVE = "inconclusive"


def sample_points(form: PfaffianForm, points: int = 64):
    """Deterministic sample plan: the center, the corners, then ``points``
    Halton points of the form's box, each a tuple of Python floats.
    """
    return [form.domain.center, *form.domain.corners(),
            *form.domain.samples(points)]


@dataclass(frozen=True)
class TensorSample:
    """One evaluated tensor component at one point; indices satisfy i<j<k."""

    point: tuple
    triple: tuple
    value: float


@dataclass(frozen=True)
class Verdict:
    classification: str
    witness_point: tuple
    witness_triple: tuple  # (i,j,k) or (i,j) 0-based; None when vacuous
    witness_value: float
    samples_used: int
    tolerance: float
    per_triple_max: tuple = ()  # TensorSample per canonical triple

    def as_report(self):
        """JSON-ready dict with the fixed report key names."""
        witness = {
            "point": list(self.witness_point) if self.witness_point else None,
            "triple": [i + 1 for i in self.witness_triple]
            if self.witness_triple
            else None,
            # inconclusive: no usable sample, so no witness value
            "value": self.witness_value if self.samples_used else None,
        }
        return {
            "class": self.classification,
            "tolerance": self.tolerance,
            "samples_used": self.samples_used,
            "witness": witness,
            "per_triple_max": [
                {
                    "triple": [i + 1 for i in s.triple],
                    "value": s.value,
                    "point": list(s.point),
                }
                for s in self.per_triple_max
            ],
        }


@functools.cache
def _curl_slots(n):
    """Rows of ``(u, v)``: the ``jet_fn`` slots of ``dF_b/dx_a`` and ``dF_a/dx_b``.

    ``jet_fn`` holds F in slots ``0..n-1``, then ``dF_i/dx_j`` for ``j != i``
    row by row, so that partial sits in slot ``n + i*(n-1) + j - (j > i)``.
    It holds no diagonal partial: the diagonal pairs are ``(None, None)``.
    """
    def slot(i, j):
        return None if i == j else n + i * (n - 1) + j - (j > i)

    return tuple(tuple((slot(b, a), slot(a, b)) for b in range(n))
                 for a in range(n))


def _curls(values, n):
    """The curl matrix ``c[a][b] = dF_b/dx_a - dF_a/dx_b`` of a ``jet_fn`` value.

    Both orientations are computed, each entry by its own subtraction, so
    ``c[b][a]`` is ``-c[a][b]`` except that both read ``+0.0`` where the two
    partials are equal.  The diagonal, which no defect or tensor component
    reads, is ``0.0``.
    """
    return [[0.0 if u is None else values[u] - values[v] for u, v in row]
            for row in _curl_slots(n)]


def _tensor(f, c, i, j, k):
    """R_ijk from the values ``f`` of F and the curl matrix ``c`` at one point.

    ``f[i]*c[j][k] + f[j]*c[k][i] + f[k]*c[i][j]``, with ``c`` from
    :func:`_curls`: the float operations of the formula in the module
    docstring, in its order, so the value is the same to the bit, signed
    zeros included.
    """
    return f[i] * c[j][k] + f[j] * c[k][i] + f[k] * c[i][j]


def _jet_at(form: PfaffianForm, indices, p):
    """``form.jet_fn`` at ``p``, after the checks of the pointwise helpers.

    Raises ArityError unless every index is in ``0..n-1`` and ``p`` has n
    coordinates.
    """
    n = form.n
    if not all(0 <= t < n for t in indices):
        raise ArityError(f"indices {tuple(indices)} out of range for {n} variables")
    if len(p) != n:
        raise ArityError(f"point of length {len(p)} for {n} variables")
    return form.jet_fn(*p)


def exactness_defect(form: PfaffianForm, i: int, j: int, p) -> float:
    """dF_j/dx_i - dF_i/dx_j at p (zero everywhere for exact differentials).

    F and its off-diagonal partials are evaluated together, so this raises
    wherever any of them is undefined.  ArityError unless ``i != j`` are
    variable indices and ``p`` has n coordinates.
    """
    if i == j:
        raise ArityError("defect indices must differ")
    return _curls(_jet_at(form, (i, j), p), form.n)[i][j]


def clairaut_component(form: PfaffianForm, i: int, j: int, k: int, p) -> float:
    """The cyclic tensor component R_ijk at p.

    F and its off-diagonal partials are evaluated together, so this raises
    wherever any of them is undefined.  ArityError unless ``i, j, k`` are
    pairwise distinct variable indices and ``p`` has n coordinates.
    """
    if len({i, j, k}) != 3:
        raise ArityError("tensor indices must be pairwise distinct")
    values = _jet_at(form, (i, j, k), p)
    return _tensor(values, _curls(values, form.n), i, j, k)


def curl_triple_product(form: PfaffianForm, p) -> float:
    """F . (curl F) for 3-variable forms, via the componentwise curl formula.

    Independent of :func:`clairaut_component`; the two agree to roundoff.
    ArityError unless the form has 3 variables and ``p`` 3 coordinates.
    """
    if form.n != 3:
        raise ArityError("curl triple product requires exactly 3 variables")
    f1, f2, f3, d12, d13, d21, d23, d31, d32 = _jet_at(form, (), p)
    curl1 = d32 - d23
    curl2 = d13 - d31
    curl3 = d21 - d12
    return f1 * curl1 + f2 * curl2 + f3 * curl3


def _scale_factors(values):
    m = max(map(abs, values))
    linear = 1.0 / max(1.0, m)
    return linear, linear * linear


def _scaled_jet(values, lin, n):
    """``(f, c)``: F and the curls (:func:`_curls`) of a ``jet_fn`` value
    with each entry multiplied by ``lin`` first, so that neither overflows
    where ``|R_ijk|`` does (``max|F_i|`` above about 1e154)."""
    scaled = [v * lin for v in values]
    return scaled[:n], _curls(scaled, n)


@dataclass
class _SampleScan:
    """Aggregates defect/tensor maxima over the sample plan."""

    defect_max: float = 0.0
    defect_point: tuple = None
    defect_pair: tuple = None
    tensor_max: float = -1.0
    tensor_point: tuple = None
    tensor_triple: tuple = None
    per_triple: dict = field(default_factory=dict)
    used: int = 0
    singular: int = 0
    failed: int = 0


def _better(value, point, best_value, best_point):
    """Max-reduction with lexicographic tie-break on point coordinates."""
    if value > best_value:
        return True
    if value == best_value and tuple(point) < tuple(best_point):
        return True
    return False


def _scan_samples(form, points):
    """Defect and tensor maxima of ``form`` over ``points``.

    Each point costs one ``jet_fn`` call.  A point where the jet raises or
    has a non-finite entry counts as failed, one where ``max|F_i|`` is at
    most ``DEFAULT_SINGULAR_TOL`` as singular.  At every other point the curl
    matrix (:func:`_curls`) is built once; the defects ``|c[i][j]| * lin``
    and the tensor components ``|R_ijk| * quad`` (:func:`_tensor`), scaled
    by :func:`_scale_factors`, enter max reductions that break ties by the
    point (:func:`_better`).  A scaled value that is not finite is computed
    again from the jet scaled by ``lin`` (:func:`_scaled_jet`); a point where
    that is not finite either counts as failed, and none of its values
    enters a maximum (only a point whose jet entries add up in size to 1e153
    or more is checked for that).  Every value is at least 0.0, so the
    maxima start at -1.0 and the first point used sets them; a maximum no
    point sets reads 0.0.  A value below the best so far is never better,
    so :func:`_better` is asked only from the best value up.
    """
    n = form.n
    jet = form.jet_fn
    isfinite = math.isfinite
    scan = _SampleScan()
    pairs = list(itertools.combinations(range(n), 2))
    triples = list(itertools.combinations(range(n), 3))
    triple_max = [-1.0] * len(triples)
    triple_point = [None] * len(triples)
    defect_max, defect_point, defect_pair = -1.0, None, None
    tensor_max, tensor_point, tensor_triple = -1.0, None, None
    for p in points:
        try:
            values = jet(*p)
        except (ValueError, ZeroDivisionError, OverflowError):
            scan.failed += 1
            continue
        # below 1e153: no inf or NaN, and no value overflows (|R_ijk| <= 6 sum^2)
        safe = sum(map(abs, values)) < 1e153
        if not (safe or all(map(isfinite, values))):
            scan.failed += 1
            continue
        fvals = values[:n]
        if max(map(abs, fvals)) <= DEFAULT_SINGULAR_TOL:
            scan.singular += 1
            continue
        lin, quad = _scale_factors(fvals)
        c = _curls(values, n)
        if not safe:  # fails where a value is not finite from the scaled jet either
            f, sc = _scaled_jet(values, lin, n)
            vals = [(c[i][j], sc[i][j]) for i, j in pairs]
            vals += [(_tensor(fvals, c, *t), _tensor(f, sc, *t)) for t in triples]
            if not all(isfinite(a) or isfinite(b) for a, b in vals):
                scan.failed += 1
                continue
        scan.used += 1
        for i, j in pairs:
            d = abs(c[i][j]) * lin
            if not isfinite(d):
                d = abs(sc[i][j])
            if d >= defect_max and _better(d, p, defect_max, defect_point):
                defect_max, defect_point, defect_pair = d, tuple(p), (i, j)
        for m, t in enumerate(triples):
            r = abs(_tensor(fvals, c, *t)) * quad
            if not isfinite(r):
                r = abs(_tensor(f, sc, *t))
            if r >= triple_max[m] and _better(r, p, triple_max[m], triple_point[m]):
                triple_max[m], triple_point[m] = r, tuple(p)
            if r >= tensor_max and _better(r, p, tensor_max, tensor_point):
                tensor_max, tensor_point, tensor_triple = r, tuple(p), t
    # a maximum no point sets reads 0.0: with no triples, vacuously null
    scan.defect_max, scan.defect_point, scan.defect_pair = (
        max(defect_max, 0.0), defect_point, defect_pair)
    scan.per_triple = {t: (max(v, 0.0), q)
                       for t, v, q in zip(triples, triple_max, triple_point)}
    scan.tensor_max, scan.tensor_point, scan.tensor_triple = (
        max(tensor_max, 0.0), tensor_point, tensor_triple)
    return scan


def classify(form: PfaffianForm, points: int = 64,
             tol: float = DEFAULT_TOL) -> Verdict:
    """Classify the form as exact / locally_integrable / non_integrable.

    Scans the plan of :func:`sample_points` with ``points`` Halton points.
    Defects and tensor components are scale-normalized at each sample point
    (by 1/max(1, max|F_i|) and its square respectively) before comparison
    against ``tol``; points where ``max|F_i|`` is at most
    ``DEFAULT_SINGULAR_TOL`` are skipped as singular.  Forms in fewer than
    three variables are never non_integrable.  Evaluation failures
    everywhere yield inconclusive.
    """
    scan = _scan_samples(form, sample_points(form, points))
    if scan.used == 0:
        return Verdict(CLASS_INCONCLUSIVE, None, None, float("nan"), 0, tol)
    per_triple = tuple(
        TensorSample(pt, t, v) for t, (v, pt) in sorted(scan.per_triple.items())
    )
    if scan.defect_max <= tol:
        return Verdict(CLASS_EXACT, scan.defect_point, scan.defect_pair,
                       scan.defect_max, scan.used, tol, per_triple)
    if form.n < 3:
        return Verdict(CLASS_LOCALLY_INTEGRABLE, scan.defect_point, None, 0.0,
                       scan.used, tol, per_triple)
    if scan.tensor_max <= tol:
        return Verdict(CLASS_LOCALLY_INTEGRABLE, scan.tensor_point,
                       scan.tensor_triple, scan.tensor_max, scan.used, tol,
                       per_triple)
    return Verdict(CLASS_NON_INTEGRABLE, scan.tensor_point, scan.tensor_triple,
                   scan.tensor_max, scan.used, tol, per_triple)


@dataclass(frozen=True)
class InvarianceReport:
    max_original: float
    max_pullback: float
    tolerance: float
    nullity_preserved: bool
    samples_used: int

    def as_report(self):
        return {
            "max_original": self.max_original,
            "max_pullback": self.max_pullback,
            "tolerance": self.tolerance,
            "nullity_preserved": self.nullity_preserved,
            "samples_used": self.samples_used,
        }


def invariance_check(form: PfaffianForm, sub: Substitution,
                     tol: float = DEFAULT_TOL) -> InvarianceReport:
    """Check that tensor nullity survives the change of variables.

    Samples the new box with the plan of :func:`sample_points`; evaluates
    the pulled-back tensor there and the original tensor at the image
    points.  Only the zero/nonzero verdict is compared: the tensor itself
    rescales under coordinate changes.  For two-variable forms the tensor
    has no components and nullity is vacuously preserved.
    """
    if form.n < 2:
        raise FormError("invariance check requires at least 2 variables")
    pulled = pullback(form, sub, needs_jet=True)  # scanned on its jet below
    new_points = sample_points(pulled)
    new_scan = _scan_samples(pulled, new_points)
    image_points = []
    for p in new_points:
        try:
            q = sub.apply(p)
        except EvalDomainError:
            continue
        if form.domain.contains(q, tol=1e-9):
            image_points.append(form.domain.clamp(q))
    old_scan = _scan_samples(form, image_points)
    if new_scan.used == 0 or old_scan.used == 0:
        raise FormError("no usable samples for the invariance comparison")
    both_null = old_scan.tensor_max <= tol and new_scan.tensor_max <= tol
    both_nonnull = old_scan.tensor_max > tol and new_scan.tensor_max > tol
    return InvarianceReport(
        max_original=float(old_scan.tensor_max),
        max_pullback=float(new_scan.tensor_max),
        tolerance=tol,
        nullity_preserved=bool(both_null or both_nonnull),
        samples_used=min(old_scan.used, new_scan.used),
    )
