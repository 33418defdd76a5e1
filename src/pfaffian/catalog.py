"""Named example forms with their expected classifications and references.

Each entry carries the form definition, the class the tensor test must
reproduce at default settings, and, where a closed form is known, reference
evaluators psi0/mu0 satisfying the factorization identity exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import expressions as ex
from .forms import Box, PfaffianForm, make_form


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    var_names: tuple
    coefficient_texts: tuple
    box: Box
    expected_class: str
    note: str
    psi0_text: str = None
    mu0_text: str = None

    @cached_property
    def form(self) -> PfaffianForm:
        return make_form(self.var_names, self.coefficient_texts, self.box)

    def psi0_fn(self):
        return self._reference_fn(self.psi0_text)

    def mu0_fn(self):
        return self._reference_fn(self.mu0_text)

    def _reference_fn(self, text):
        """``p -> value`` of the reference ``text`` at the point ``p``, or
        None without a text; raw error behavior (expressions.compile_scalar)."""
        if text is None:
            return None
        fn = ex.compile_scalar(ex.parse_expression(text, self.var_names),
                               len(self.var_names))
        return lambda p: fn(*p)


_ENTRIES = (
    CatalogEntry(
        name="exact_3var",
        var_names=("x", "y", "z"),
        coefficient_texts=("1", "1", "1"),
        box=Box((-1, -1, -1), (1, 1, 1)),
        expected_class="exact",
        note="differential of x+y+z; level sets are parallel planes",
        psi0_text="x+y+z",
        mu0_text="1",
    ),
    CatalogEntry(
        name="product_exact",
        var_names=("x", "y"),
        coefficient_texts=("y", "x"),
        box=Box((0.5, 0.5), (1.5, 1.5)),
        expected_class="exact",
        note="differential of xy on a box avoiding the singular origin",
        psi0_text="x*y",
        mu0_text="1",
    ),
    CatalogEntry(
        name="scaled_exact",
        var_names=("x", "y", "z"),
        coefficient_texts=("exp(z)*y", "exp(z)*x", "exp(z)"),
        box=Box((-0.5, -0.5, -0.5), (0.5, 0.5, 0.5)),
        expected_class="locally_integrable",
        note="exp(z) times the differential of xy+z: integrable, not exact",
        psi0_text="x*y+z",
        mu0_text="exp(z)",
    ),
    CatalogEntry(
        name="contact",
        var_names=("x", "y", "z"),
        coefficient_texts=("-y", "0", "1"),
        box=Box((-1, -1, -1), (1, 1, 1)),
        expected_class="non_integrable",
        note="standard contact form dz - y dx; tensor equals one everywhere",
    ),
    CatalogEntry(
        name="ideal_gas_heat",
        var_names=("T", "V"),
        coefficient_texts=("1.5", "T/V"),
        box=Box((1, 1), (2, 2)),
        expected_class="locally_integrable",
        note="heat one-form of a monatomic ideal gas (Cv=3/2, R=1); "
        "temperature is the integrating-factor denominator",
        psi0_text="1.5*log(T)+log(V)",
        mu0_text="T",
    ),
    CatalogEntry(
        name="rolling_cylinder",
        var_names=("x", "theta"),
        coefficient_texts=("1", "-1"),
        box=Box((-1, -1), (1, 1)),
        expected_class="exact",
        note="rolling-without-sliding constraint dx - d(theta) at unit radius",
        psi0_text="x-theta",
        mu0_text="1",
    ),
    CatalogEntry(
        name="ray_form",
        var_names=("x", "y"),
        coefficient_texts=("y", "-x"),
        box=Box((1, 1), (2, 2)),
        expected_class="locally_integrable",
        note="y dx - x dy; null curves are rays through the origin, "
        "y^2 times the differential of x/y",
        psi0_text="x/y",
        mu0_text="y^2",
    ),
)


def catalog():
    """All named entries, in a fixed order."""
    return list(_ENTRIES)


def entry(name: str) -> CatalogEntry:
    for e in _ENTRIES:
        if e.name == name:
            return e
    known = ", ".join(e.name for e in _ENTRIES)
    raise KeyError(f"no catalog entry {name!r} (known: {known})")
