"""Every defaulted parameter in ``src/pfaffian`` has a caller there that sets it.

A default that no call in the package overrides is a setting only tests use;
it belongs in a module constant or a literal.  The census is syntactic: a call
``name(...)`` or ``obj.name(...)`` may set the parameters of every function or
method called ``name``, and a class name is a call of its ``__init__``.  A
parameter counts as set when some such call passes it by keyword or passes as
many positional arguments as it needs (a ``*`` or ``**`` argument sets all).
A call that only forwards a defaulted parameter of its own function sets the
parameter only if that one is set.
"""

import ast
import pathlib

import pfaffian

SRC = pathlib.Path(pfaffian.__file__).parent

# the command line's entry point takes argv from tests and scripts, and from
# sys.argv when run as a program
ALLOWED = {("cli", "main", "argv")}


def _defaulted(fn, offset):
    """``(parameter, positional index or None)`` of each defaulted parameter
    of ``fn``; the index does not count the first ``offset`` parameters."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for index in range(first, len(positional)):
        yield positional[index].arg, index - offset
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


class _Census(ast.NodeVisitor):
    """Defaulted parameters by the call name that reaches them, and each call
    with the defaulted parameters of the function it is made in."""

    def __init__(self):
        self.params = {}  # call name -> [(key, parameter, index)]
        self.calls = {}  # call name -> [(call, {parameter: key})]
        self.module = None
        self.scope = {}

    def visit_ClassDef(self, node):
        for item in node.body:
            if isinstance(item, ast.FunctionDef):
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in item.decorator_list)
                name = node.name if item.name == "__init__" else item.name
                self._function(item, name, 0 if static else 1,
                               f"{node.name}.{item.name}")
            else:
                self.visit(item)

    def visit_FunctionDef(self, node):
        self._function(node, node.name, 0, node.name)

    def _function(self, node, name, offset, label):
        # a nested function sees the enclosing defaults it does not shadow
        args = node.args
        own = args.posonlyargs + args.args + args.kwonlyargs
        scope = {k: v for k, v in self.scope.items()
                 if k not in {a.arg for a in own}}
        for param, index in _defaulted(node, offset):
            key = (self.module, label, param)
            scope[param] = key
            self.params.setdefault(name, []).append((key, param, index))
        outer, self.scope = self.scope, scope
        self.generic_visit(node)
        self.scope = outer

    def visit_Call(self, node):
        func = node.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)
        if name is not None:
            self.calls.setdefault(name, []).append((node, self.scope))
        self.generic_visit(node)


def _census():
    census = _Census()
    for path in sorted(SRC.glob("*.py")):
        census.module = path.stem
        census.visit(ast.parse(path.read_text(encoding="utf-8")))
    return census.params, census.calls


def _passed(call, param, index):
    """The expression ``call`` passes for the parameter, True for a ``*`` or
    ``**`` argument, or None when it passes none."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    for keyword in call.keywords:
        if keyword.arg is None:
            return True
        if keyword.arg == param:
            return keyword.value
    if index is not None and len(call.args) > index:
        return call.args[index]
    return None


def unset_parameters():
    """Sorted ``module.function(parameter)`` of every defaulted parameter
    that no call in the package sets, less the allowed ones."""
    params, calls = _census()
    is_set = set(ALLOWED)
    grew = True
    while grew:
        grew = False
        for name, entries in params.items():
            for key, param, index in entries:
                if key in is_set:
                    continue
                for call, scope in calls.get(name, ()):
                    value = _passed(call, param, index)
                    if value is None:
                        continue
                    forwarded = (scope.get(value.id)
                                 if isinstance(value, ast.Name) else None)
                    if forwarded is None or forwarded in is_set:
                        is_set.add(key)
                        grew = True
                        break
    keys = {key for entries in params.values() for key, _, _ in entries}
    return sorted(f"{m}.{fn}({p})" for m, fn, p in keys - is_set)


def test_every_defaulted_parameter_has_a_caller_in_src():
    unset = unset_parameters()
    assert not unset, ("defaulted parameters no call in src/pfaffian sets: "
                       + ", ".join(unset))


def test_census_sees_defaults_and_calls():
    params, calls = _census()
    # a keyword-set default, a positionally set one, and a constructor's
    assert any(p == "xtol" for _, p, _ in params["bisect_root"])
    assert any(p == "threshold" for _, p, _ in params["estimate_dimension"])
    assert any(p == "rtol" for _, p, _ in params["SurfaceField"])
    assert "SurfaceField" in calls and "main" in calls
