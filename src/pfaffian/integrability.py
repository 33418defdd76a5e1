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

import itertools
from dataclasses import dataclass, field

from .errors import ArityError, EvalDomainError, FormError
from .forms import DEFAULT_SINGULAR_TOL, PfaffianForm, Substitution, pullback

DEFAULT_TOL = 1e-8

CLASS_EXACT = "exact"
CLASS_LOCALLY_INTEGRABLE = "locally_integrable"
CLASS_NON_INTEGRABLE = "non_integrable"
CLASS_INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class SamplerConfig:
    """Deterministic sample plan: the center, the corners, then Halton points."""

    points: int = 64

    def sample_points(self, form: PfaffianForm):
        """Tuples of Python floats, which the compiled evaluators expect.

        On numpy scalars a pole divides to inf with a RuntimeWarning where
        a Python float raises ZeroDivisionError, and every operation of the
        generated code runs slower.
        """
        return [
            form.domain.center,
            *map(tuple, form.domain.corners().tolist()),
            *map(tuple, form.domain.samples(self.points).tolist()),
        ]


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


def _split_jet(values, n):
    """``(F, dF)`` from a ``jet_fn`` value, with ``dF[i][j] = dF_i/dx_j``."""
    return values[:n], [values[n * (i + 1):n * (i + 2)] for i in range(n)]


def _tensor(f, d, i, j, k):
    """R_ijk from the values ``f`` of F and ``d`` of dF at one point."""
    return (
        f[i] * (d[k][j] - d[j][k])
        + f[j] * (d[i][k] - d[k][i])
        + f[k] * (d[j][i] - d[i][j])
    )


def exactness_defect(form: PfaffianForm, i: int, j: int, p) -> float:
    """dF_j/dx_i - dF_i/dx_j at p (zero everywhere for exact differentials).

    F and dF are evaluated together, so this raises wherever any of their
    entries is undefined.
    """
    if i == j:
        raise ArityError("defect indices must differ")
    _, d = _split_jet(form.jet_fn(*p), form.n)
    return d[j][i] - d[i][j]


def clairaut_component(form: PfaffianForm, i: int, j: int, k: int, p) -> float:
    """The cyclic tensor component R_ijk at p.

    F and dF are evaluated together, so this raises wherever any of their
    entries is undefined.
    """
    if len({i, j, k}) != 3:
        raise ArityError("tensor indices must be pairwise distinct")
    return _tensor(*_split_jet(form.jet_fn(*p), form.n), i, j, k)


def curl_triple_product(form: PfaffianForm, p) -> float:
    """F . (curl F) for 3-variable forms, via the componentwise curl formula.

    Independent of :func:`clairaut_component`; the two agree to roundoff.
    """
    if form.n != 3:
        raise ArityError("curl triple product requires exactly 3 variables")
    (f1, f2, f3), d = _split_jet(form.jet_fn(*p), 3)
    curl1 = d[2][1] - d[1][2]
    curl2 = d[0][2] - d[2][0]
    curl3 = d[1][0] - d[0][1]
    return f1 * curl1 + f2 * curl2 + f3 * curl3


def _scale_factors(values):
    m = max(abs(v) for v in values)
    linear = 1.0 / max(1.0, m)
    return linear, linear * linear


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
    if value == best_value and best_point is not None and tuple(point) < tuple(best_point):
        return True
    return False


def _scan_samples(form, points, singular_tol):
    n = form.n
    jet = form.jet_fn
    scan = _SampleScan()
    triples = list(itertools.combinations(range(n), 3))
    for t in triples:
        scan.per_triple[t] = (0.0, None)
    for p in points:
        try:
            values = jet(*p)
        except (ValueError, ZeroDivisionError, OverflowError):
            scan.failed += 1
            continue
        if not all(_finite(v) for v in values):
            scan.failed += 1
            continue
        fvals, dvals = _split_jet(values, n)
        if max(abs(v) for v in fvals) <= singular_tol:
            scan.singular += 1
            continue
        scan.used += 1
        lin, quad = _scale_factors(fvals)
        for i in range(n):
            for j in range(i + 1, n):
                d = abs(dvals[j][i] - dvals[i][j]) * lin
                if scan.defect_point is None or _better(
                    d, p, scan.defect_max, scan.defect_point
                ):
                    scan.defect_max, scan.defect_point = d, tuple(p)
                    scan.defect_pair = (i, j)
        for (i, j, k) in triples:
            r = abs(_tensor(fvals, dvals, i, j, k)) * quad
            prev_val, prev_pt = scan.per_triple[(i, j, k)]
            if prev_pt is None or _better(r, p, prev_val, prev_pt):
                scan.per_triple[(i, j, k)] = (r, tuple(p))
            if scan.tensor_point is None or _better(
                r, p, scan.tensor_max, scan.tensor_point
            ):
                scan.tensor_max, scan.tensor_point = r, tuple(p)
                scan.tensor_triple = (i, j, k)
    if scan.tensor_point is None:
        scan.tensor_max = 0.0  # no triples: vacuously null
    return scan


def _finite(v):
    return -float("inf") < v < float("inf") and v == v


def classify(form: PfaffianForm, sampler: SamplerConfig = None,
             tol: float = DEFAULT_TOL,
             singular_tol: float = DEFAULT_SINGULAR_TOL) -> Verdict:
    """Classify the form as exact / locally_integrable / non_integrable.

    Defects and tensor components are scale-normalized at each sample point
    (by 1/max(1, max|F_i|) and its square respectively) before comparison
    against ``tol``.  Forms in fewer than three variables are never
    non_integrable.  Evaluation failures everywhere yield inconclusive.
    """
    sampler = sampler or SamplerConfig()
    points = sampler.sample_points(form)
    scan = _scan_samples(form, points, singular_tol)
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
                     sampler: SamplerConfig = None, tol: float = DEFAULT_TOL,
                     singular_tol: float = DEFAULT_SINGULAR_TOL) -> InvarianceReport:
    """Check that tensor nullity survives the change of variables.

    Samples the new box; evaluates the pulled-back tensor there and the
    original tensor at the image points.  Only the zero/nonzero verdict is
    compared: the tensor itself rescales under coordinate changes.  For
    two-variable forms the tensor has no components and nullity is
    vacuously preserved.
    """
    if form.n < 2:
        raise FormError("invariance check requires at least 2 variables")
    sampler = sampler or SamplerConfig()
    pulled = pullback(form, sub)
    new_points = sampler.sample_points(pulled)
    new_scan = _scan_samples(pulled, new_points, singular_tol)
    image_points = []
    for p in new_points:
        try:
            q = sub.apply(p)
        except EvalDomainError:
            continue
        if form.domain.contains(q, tol=1e-9):
            image_points.append(form.domain.clamp(q))
    old_scan = _scan_samples(form, image_points, singular_tol)
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
