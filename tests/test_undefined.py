"""Only ``expressions`` names the errors raw generated code raises.

Raw generated code raises ValueError, ZeroDivisionError or OverflowError
where an operation is undefined.  ``expressions.UNDEFINED`` names them, and
every other module in ``src/pfaffian`` catches them through it, so the rule
has one owner.  The census is syntactic: it reports each except clause that
names ZeroDivisionError or OverflowError, and each string constant (the text
of generated code) holding an ``except`` clause that names one of them.
"""

import ast
import pathlib
import re

import pfaffian

SRC = pathlib.Path(pfaffian.__file__).parent
OWNER = "expressions"
NAMES = {"ZeroDivisionError", "OverflowError"}
_EXCEPT_TEXT = re.compile(r"\bexcept\b[^:]*\b(?:ZeroDivisionError|OverflowError)\b")


def _names(node):
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def named_errors(tree):
    """Sorted line numbers of the except clauses and generated except texts
    in ``tree`` that name ZeroDivisionError or OverflowError."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler):
            if node.type is not None and _names(node.type) & NAMES:
                lines.append(node.lineno)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _EXCEPT_TEXT.search(node.value)):
            lines.append(node.lineno)
    return sorted(lines)


def test_only_expressions_names_the_undefined_errors():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        if path.stem != OWNER:
            lines = named_errors(ast.parse(path.read_text(encoding="utf-8")))
            if lines:
                found[path.name] = lines
    assert found == {}


def test_census_sees_clauses_and_generated_text():
    source = "\n".join([
        "try:",
        "    pass",
        "except (ValueError, ZeroDivisionError):",  # line 3
        "    pass",
        "try:",
        "    pass",
        "except builtins.OverflowError:",  # line 7
        "    pass",
        "try:",
        "    pass",
        "except _UNDEFINED:",
        "    raise ZeroDivisionError('pole')",
        "lines = ['    except (_Lost, ValueError,'",  # line 13
        "         ' OverflowError):']",
        "text = 'raise ZeroDivisionError(\"pole\")'",
    ])
    assert named_errors(ast.parse(source)) == [3, 7, 13]
