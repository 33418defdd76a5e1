"""Only ``forms`` reads the singular tolerance.

Every analysis first decides whether F is singular at a point and which
coefficient is the pivot.  ``forms.singular``, ``forms.pivot`` and
``forms.singular_source`` (the same test in generated code) make that
decision, so ``DEFAULT_SINGULAR_TOL`` has one reader and a test that changes
it patches ``forms`` alone.  The census is syntactic: it reports each name,
attribute and import of ``DEFAULT_SINGULAR_TOL`` in code; docstrings and
comments may mention it.
"""

import ast
import pathlib

import pfaffian

SRC = pathlib.Path(pfaffian.__file__).parent
OWNER = "forms"
NAME = "DEFAULT_SINGULAR_TOL"


def named_tolerance(tree):
    """Sorted line numbers of the code in ``tree`` that names the tolerance."""
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Name) and node.id == NAME
                or isinstance(node, ast.Attribute) and node.attr == NAME):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if any(alias.name == NAME for alias in node.names):
                lines.append(node.lineno)
    return sorted(lines)


def test_only_forms_names_the_singular_tolerance():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        if path.stem != OWNER:
            lines = named_tolerance(ast.parse(path.read_text(encoding="utf-8")))
            if lines:
                found[path.name] = lines
    assert found == {}


def test_census_sees_names_attributes_and_imports():
    source = "\n".join([
        '"""DEFAULT_SINGULAR_TOL in a docstring is fine."""',
        "from .forms import (",
        "    Box,",
        "    DEFAULT_SINGULAR_TOL as tol,",  # line 2, the import statement
        ")",
        "x = forms.DEFAULT_SINGULAR_TOL",  # line 6
        "# DEFAULT_SINGULAR_TOL in a comment is fine",
        "y = abs(v) <= DEFAULT_SINGULAR_TOL",  # line 8
    ])
    assert named_tolerance(ast.parse(source)) == [2, 6, 8]
