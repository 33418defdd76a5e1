"""Every generated kernel is a plain function that raises only UNDEFINED errors.

The ODE kernel is its Dormand-Prince step loop: ``ode.compile_kernel``
returns that function, which evaluates the start slope itself where it is
given none, so ``ode`` defines no class but ``_LeftBounds``, the one
exception that never leaves the step loop, and no module reads a kernel's
``rhs`` or ``advance``.  Generated text raises an error of
``expressions.UNDEFINED`` where a value is undefined or a curve's pivot is
lost, or ``_LeftBounds``, and every ``expressions.exec_source`` call adds no
name to the kernel namespace but ``_LeftBounds``.  The census is syntactic.

A null-curve step is built from what its form's trees fix: on ``contact``
(F = (-y, 0, 1), pivot z) the rollout evaluates F at three stages per
step, not four, and never tests its constant pivot, while a form with no
constant coefficient that reads every coordinate keeps all four stages and
a singular test per solve.  The census counts them in the rollout's source.
"""

import ast
import builtins
import pathlib
import re

import pytest

import pfaffian
from pfaffian import expressions, reach
from pfaffian.catalog import catalog, entry
from pfaffian.expressions import UNDEFINED

SRC = pathlib.Path(pfaffian.__file__).parent
EXTRA = "_LeftBounds"
_RAISE_TEXT = re.compile(r"\braise\s+([A-Za-z_][A-Za-z0-9_.]*)")


def _trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


_STAGE_LINE = re.compile(r"^ *([b-e])[0-9]+ = ", re.MULTILINE)


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


def rollout_source(form, k, monkeypatch, kind="rollout", center=None):
    """The source of the ``kind`` loop of ``form`` with pivot ``k``, about
    ``center`` (the box center by default) with radius 0.3."""
    sources = []
    exec_source = expressions.exec_source

    def keep(source, label, **extra):
        sources.append(source)
        return exec_source(source, label, **extra)

    monkeypatch.setattr(expressions, "exec_source", keep)
    center = form.domain.center if center is None else center
    reach._compile_loop(form, k, center, 0.3, kind)
    return sources[-1]


def step_census(source):
    """``(stages, tests)``: the letters of the coefficient stages ``b`` to
    ``e`` the step binds, and the number of its singular tests."""
    stages = "".join(sorted(set(_STAGE_LINE.findall(source))))
    return stages, source.count("raise ZeroDivisionError")


def test_contact_step_has_three_stages_and_no_singular_test(monkeypatch):
    # F does not read z, so stage 3 is stage 2, and F_z = 1 is not singular
    assert step_census(rollout_source(entry("contact").form, 2, monkeypatch)) == (
        "bde", 0)


def test_a_form_reading_every_coordinate_keeps_every_stage(monkeypatch):
    form = entry("scaled_exact").form  # exp(z) (y, x, 1)
    for k in range(form.n):
        assert step_census(rollout_source(form, k, monkeypatch)) == ("bcde", 4)


_BOX_TEST = re.compile(r"<= X([0-9]+) <=")


def box_tested(source):
    """The coordinates whose box test the end point ``X`` of a step gets."""
    (line,) = [line for line in source.splitlines() if "inside = " in line]
    return sorted(int(i) for i in _BOX_TEST.findall(line))


def corner(e):
    return tuple(lo + 0.05 * (hi - lo) for lo, hi in zip(e.box.lows, e.box.highs))


@pytest.mark.parametrize("kind", ["rollout", "leg"])
@pytest.mark.parametrize("e", catalog(), ids=lambda e: e.name)
def test_box_is_tested_where_the_ball_crosses_a_face(e, kind, monkeypatch):
    # at the box center the ball of radius 0.3 lies inside every catalog box:
    # only the pivot is tested, as it moves by the solved velocity
    for k in range(e.form.n):
        assert box_tested(rollout_source(e.form, k, monkeypatch, kind)) == [k]
    # near a corner the ball crosses a face on every coordinate
    for k in range(e.form.n):
        source = rollout_source(e.form, k, monkeypatch, kind, corner(e))
        assert box_tested(source) == list(range(e.form.n))


@pytest.mark.parametrize("kind", ["rollout", "leg"])
def test_box_is_tested_where_the_ball_touches_a_face(kind, monkeypatch):
    # contact on [-1, 1]^3: the ball of radius 0.3 about x = 0.7 touches the
    # face x = 1, so x keeps its test; about x = 0.69 it stays 0.01 inside
    form = entry("contact").form
    for k in range(form.n):
        touch = rollout_source(form, k, monkeypatch, kind, (0.7, 0.0, 0.0))
        clear = rollout_source(form, k, monkeypatch, kind, (0.69, 0.0, 0.0))
        assert box_tested(touch) == sorted({0, k})
        assert box_tested(clear) == [k]


def test_constant_step_solves_once_per_step_size(monkeypatch):
    # exact_3var: p1 and |F(X)| are set with the step terms, not in each step
    for kind in ("rollout", "leg"):
        source = rollout_source(entry("exact_3var").form, 0, monkeypatch, kind)
        step = source[source.rindex("while True:"):]
        assert "p1 =" not in step and "qp = " in source
        for arg in re.findall(r"_sqrt\((.*)\)", step):
            assert re.search(r"\b(?!float\b)[A-Za-z_]", arg), arg
