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
from .expressions import UNDEFINED
from .forms import PfaffianForm, Substitution, pivot, pullback

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


def _partial_slot(n, i, j):
    """Slot of ``dF_i/dx_j`` (``j != i``) in a ``jet_fn`` value.

    ``jet_fn`` holds F in slots ``0..n-1``, then ``dF_i/dx_j`` for ``j != i``
    row by row; it holds no diagonal partial.
    """
    return n + i * (n - 1) + j - (j > i)


def _curl(values, n, a, b):
    """``c_ab = dF_b/dx_a - dF_a/dx_b`` of a ``jet_fn`` value (``a != b``).

    Each orientation is its own subtraction, so ``c_ba`` is ``-c_ab`` except
    that both read ``+0.0`` where the two partials are equal.
    """
    return values[_partial_slot(n, b, a)] - values[_partial_slot(n, a, b)]


@functools.cache
def _scan_plan(n):
    """The flat plan of the sample scan in ``n`` variables:
    ``(curls, pairs, triples, rows)``.

    ``curls`` lists the ``(u, v)`` ``jet_fn`` slots of each curl a point
    needs, the curl being ``values[u] - values[v]`` (:func:`_curl`): first
    ``c_ij`` of each pair of ``pairs``, ``(i, j)`` with ``i < j`` in
    combinations order, so the defect of pair ``q`` is curl ``q``; then
    ``c_ki`` of each pair the tensor also reads in that orientation.
    ``triples`` lists each ``(i, j, k)`` with ``i < j < k``, and ``rows``
    the matching ``(i, j, k, jk, ki, ij)``: the triple and the positions of
    ``c_jk``, ``c_ki`` and ``c_ij`` in ``curls`` (:func:`_tensors`).
    """
    pairs = tuple(itertools.combinations(range(n), 2))
    triples = tuple(itertools.combinations(range(n), 3))
    position = {pair: q for q, pair in enumerate(pairs)}
    for i, _, k in triples:
        position.setdefault((k, i), len(position))
    curls = tuple((_partial_slot(n, b, a), _partial_slot(n, a, b))
                  for a, b in position)  # dicts keep insertion order
    rows = tuple((i, j, k, position[j, k], position[k, i], position[i, j])
                 for i, j, k in triples)
    return curls, pairs, triples, rows


def _tensors(f, c, rows):
    """R_ijk for each row ``(i, j, k, jk, ki, ij)`` of ``rows``, from the
    values ``f`` of F and the curls ``c`` at one point.

    ``f[i]*c[jk] + f[j]*c[ki] + f[k]*c[ij]``, where ``c[jk]`` is ``c_jk``
    and so on (:func:`_scan_plan`): the float operations of the formula in
    the module docstring, in its order, so the value is the same to the
    bit, signed zeros included.  ``f`` may be a whole ``jet_fn`` value,
    whose first n slots are F.
    """
    return [f[i] * c[jk] + f[j] * c[ki] + f[k] * c[ij]
            for i, j, k, jk, ki, ij in rows]


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
    return _curl(_jet_at(form, (i, j), p), form.n, i, j)


def clairaut_component(form: PfaffianForm, i: int, j: int, k: int, p) -> float:
    """The cyclic tensor component R_ijk at p.

    F and its off-diagonal partials are evaluated together, so this raises
    wherever any of them is undefined.  ArityError unless ``i, j, k`` are
    pairwise distinct variable indices and ``p`` has n coordinates.
    """
    if len({i, j, k}) != 3:
        raise ArityError("tensor indices must be pairwise distinct")
    values = _jet_at(form, (i, j, k), p)
    n = form.n
    c = [_curl(values, n, j, k), _curl(values, n, k, i), _curl(values, n, i, j)]
    return _tensors(values, c, [(i, j, k, 0, 1, 2)])[0]


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


def _scale_factors(m):
    """``1 / max(1, m)`` and its square, for ``m = max|F_i|``."""
    linear = 1.0 / max(1.0, m)
    return linear, linear * linear


@dataclass
class _SampleScan:
    """Aggregates defect/tensor maxima over the sample plan."""

    defect_max: float = 0.0
    defect_point: tuple = None
    defect_pair: tuple = None
    tensor_max: float = 0.0
    tensor_point: tuple = None
    tensor_triple: tuple = None
    per_triple: dict = field(default_factory=dict)
    used: int = 0
    singular: int = 0
    failed: int = 0


def _better(value, point, best_value, best_point):
    """Max-reduction with lexicographic tie-break on point coordinates.

    The rule of every maximum of :func:`_scan_samples`, which makes these
    comparisons inline.
    """
    if value > best_value:
        return True
    if value == best_value and tuple(point) < tuple(best_point):
        return True
    return False


def _scan_samples(form, points):
    """Defect and tensor maxima of ``form`` over ``points``.

    Each point costs one ``jet_fn`` call.  A point where the jet raises or
    has a non-finite entry counts as failed, one where F has no pivot
    (``forms.pivot``) as singular.  Every other point reads the
    flat plan of :func:`_scan_plan`, built once per variable count: its
    curls are one list, computed each by one subtraction, and its defects
    ``|c_ij| * lin`` and tensor components ``|R_ijk| * quad``
    (:func:`_tensors`), scaled by :func:`_scale_factors` of the pivot's
    ``|F_k|``, which is ``max|F_i|``, are two lists read by position.  A
    scaled value that is not finite is computed again from the jet entries
    multiplied by ``lin`` first, so that neither F nor a curl overflows
    where ``|R_ijk|`` does (``max|F_i|`` above about 1e154); a point where
    that is not finite either counts as failed, and none of its values
    enters a maximum (only a point whose jet entries add up in size to 1e153
    or more is checked for that).  The maxima break ties
    by the point as :func:`_better` does: a value replaces the best so far
    if it is larger, or equal at a point that is lexicographically smaller.
    Within one point the first of several equal largest values wins, so
    the defect maximum takes the first maximum of its list.  The tensor
    maximum, read off the per-triple maxima after the scan, follows the same
    rule.  Every value is at least 0.0, so the maxima start at -1.0 and the
    first point used sets them; a maximum no point sets reads 0.0.
    """
    n = form.n
    jet = form.jet_fn
    isfinite = math.isfinite
    curls, pairs, triples, rows = _scan_plan(n)
    scan = _SampleScan()
    triple_max = [-1.0] * len(triples)
    triple_point = [None] * len(triples)
    defect_max, defect_point, defect_pair = -1.0, None, None
    for p in points:
        try:
            values = jet(*p)
        except UNDEFINED:
            scan.failed += 1
            continue
        # below 1e153: no inf or NaN, and no value overflows (|R_ijk| <= 6 sum^2)
        safe = sum(map(abs, values)) < 1e153
        if not (safe or all(map(isfinite, values))):
            scan.failed += 1
            continue
        k = pivot(values[:n])
        if k is None:
            scan.singular += 1
            continue
        lin, quad = _scale_factors(abs(values[k]))
        c = [values[u] - values[v] for u, v in curls]
        defects = [abs(v) * lin for v in c[:len(pairs)]]
        tensors = [abs(r) * quad for r in _tensors(values, c, rows)]
        if not safe:  # fails where a value is not finite from the scaled jet either
            scaled = [v * lin for v in values]
            sc = [scaled[u] - scaled[v] for u, v in curls]
            defects = [d if isfinite(d) else abs(s) for d, s in zip(defects, sc)]
            tensors = [r if isfinite(r) else abs(s) for r, s in
                       zip(tensors, _tensors(scaled, sc, rows))]
            if not all(map(isfinite, defects + tensors)):
                scan.failed += 1
                continue
        scan.used += 1
        point = tuple(p)
        if defects:
            d = max(defects)
            if d > defect_max or d == defect_max and point < defect_point:
                defect_max, defect_point = d, point
                defect_pair = pairs[defects.index(d)]
        for m, r in enumerate(tensors):
            best = triple_max[m]
            if r > best or r == best and point < triple_point[m]:
                triple_max[m], triple_point[m] = r, point
    # a maximum no point sets reads 0.0: with no triples, vacuously null
    scan.defect_max, scan.defect_point, scan.defect_pair = (
        max(defect_max, 0.0), defect_point, defect_pair)
    scan.per_triple = {t: (max(v, 0.0), q)
                       for t, v, q in zip(triples, triple_max, triple_point)}
    if scan.used and triples:  # largest value, then smallest point, first triple
        m = min(range(len(triples)), key=lambda t: (-triple_max[t], triple_point[t]))
        scan.tensor_max, scan.tensor_point, scan.tensor_triple = (
            triple_max[m], triple_point[m], triples[m])
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
