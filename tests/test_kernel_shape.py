"""Every generated kernel is a plain function that raises only UNDEFINED errors.

The ODE kernel is its Dormand-Prince step loop: ``ode.compile_kernel``
returns that function, which evaluates the start slope itself where it is
given none, so ``ode`` defines no class but ``_LeftBounds``, the one
exception that never leaves the step loop, and no module reads a kernel's
``rhs`` or ``advance``.  Generated text raises an error of
``expressions.UNDEFINED`` where a value is undefined or a curve's pivot is
lost, or ``_LeftBounds``, and every ``expressions.exec_source`` call adds no
name to the kernel namespace but ``_LeftBounds``.  The census is syntactic.
"""

import ast
import builtins
import pathlib
import re

import pfaffian
from pfaffian.expressions import UNDEFINED

SRC = pathlib.Path(pfaffian.__file__).parent
EXTRA = "_LeftBounds"
_RAISE_TEXT = re.compile(r"\braise\s+([A-Za-z_][A-Za-z0-9_.]*)")


def _trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _raises_undefined(name):
    error = getattr(builtins, name, None)
    return isinstance(error, type) and issubclass(error, UNDEFINED)


def classes(tree):
    """Names of the classes ``tree`` defines."""
    return sorted(node.name for node in ast.walk(tree)
                  if isinstance(node, ast.ClassDef))


def kernel_attributes(tree):
    """Sorted line numbers of the reads of an attribute ``rhs`` or ``advance``."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr in ("rhs", "advance"))


def generated_raises(tree):
    """Sorted ``(line, name)`` of the errors the text of generated code
    raises, in string constants other than docstrings and other bare
    expression statements, that are neither an error of UNDEFINED nor
    ``_LeftBounds``."""
    bare = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and id(node) not in bare):
            for name in _RAISE_TEXT.findall(node.value):
                if name != EXTRA and not _raises_undefined(name):
                    found.append((node.lineno, name))
    return sorted(found)


def exec_source_extras(tree):
    """Sorted ``(line, keyword)`` of the keywords of ``exec_source`` calls
    other than ``_LeftBounds``; ``**`` arguments count as keyword ``None``."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "exec_source":
            found.extend((node.lineno, kw.arg) for kw in node.keywords
                         if kw.arg != EXTRA)
    return sorted(found)


def test_ode_defines_no_class_but_left_bounds():
    assert classes(_trees()["ode.py"]) == [EXTRA]


def test_no_module_reads_rhs_or_advance_of_a_kernel():
    found = {name: lines for name, tree in _trees().items()
             if (lines := kernel_attributes(tree))}
    assert found == {}


def test_generated_text_raises_only_undefined_errors_or_left_bounds():
    found = {name: raised for name, tree in _trees().items()
             if (raised := generated_raises(tree))}
    assert found == {}


def test_exec_source_receives_no_extra_but_left_bounds():
    found = {name: extras for name, tree in _trees().items()
             if (extras := exec_source_extras(tree))}
    assert found == {}


def test_census_sees_classes_attributes_raises_and_extras():
    source = "\n".join([
        "class OdeKernel:",  # line 1
        "    'Its docstring may say: raise AnalysisError.'",
        "f0 = kernel.rhs(t, y)",  # line 3
        "status = kernel.advance(t, y, f0)",  # line 4
        "lines = ['    raise _Lost(\"pivot\")',",  # line 5
        "         '    raise ZeroDivisionError(\"pivot\")',",
        "         '    raise ArithmeticError(\"velocity\")',",
        "         '    raise _LeftBounds']",
        "text = f'raise AnalysisError(\"{name}\")'",  # line 9
        "ex.exec_source(source, 'reach', _Lost=PivotLostError)",  # line 10
        "exec_source(source, 'ode', _LeftBounds=_LeftBounds, **more)",  # line 11
    ])
    tree = ast.parse(source)
    assert classes(tree) == ["OdeKernel"]
    assert kernel_attributes(tree) == [3, 4]
    assert generated_raises(tree) == [(5, "_Lost"), (9, "AnalysisError")]
    assert exec_source_extras(tree) == [(10, "_Lost"), (11, None)]
