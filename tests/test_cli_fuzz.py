"""Fuzz the CLI contract: random argv over every subcommand, random form files.

Whatever the input, ``main`` returns 0, 1 or 2, raises nothing (so no
traceback reaches stderr), and every JSON or CSV report it writes parses,
with finite numbers only.  Grids, budgets and curve counts are kept small
so that one example runs in milliseconds.
"""

import contextlib
import csv
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pfaffian.catalog import catalog, entry
from pfaffian.cli import main
from pfaffian.forms import format_form_file

NAMES = ["x", "y", "z", "T", "theta"]
CATALOG = [e.name for e in catalog()]
CATALOG_TEXTS = [format_form_file(e.form) for e in catalog()]
NUMBERS = ["0", "0.3", "-0.5", "1", "2.5", "1e-9", "1e-300", "1e300", "1e400",
           "-1", "nan", "inf", "abc", ""]
CONSTANTS = ["0", "1", "2.5", "-1", "1e-9", "1e300", "1e400"]
INTERVALS = ["[-1,1]", "[0,1]", "[1,2]", "[0.5,1.5]", "[-1e-9,1e-9]", "[1,0]",
             "[-1e300,1e300]", "[0,inf]", "[0,nan]", "[a,b]", "[2,2]", "1,2"]
FUNCTIONS = ["exp", "log", "sin", "cos", "sqrt", "-", "", "tan"]
OPERATORS = ["+", "-", "*", "/", "^", "^-"]


def _expressions(names):
    leaves = st.sampled_from(names + CONSTANTS)

    def extend(inner):
        binary = st.tuples(inner, st.sampled_from(OPERATORS), inner).map(
            lambda t: f"({t[0]}{t[1]}{t[2]})")
        unary = st.tuples(st.sampled_from(FUNCTIONS), inner).map(
            lambda t: f"{t[0]}({t[1]})")
        return binary | unary

    return st.recursive(leaves, extend, max_leaves=5)


@st.composite
def form_texts(draw):
    """Form files: catalog texts, random forms and random text."""
    kind = draw(st.sampled_from(["catalog", "random", "random", "garbage"]))
    if kind == "catalog":
        return draw(st.sampled_from(CATALOG_TEXTS))
    if kind == "garbage":
        return draw(st.text(max_size=60))
    n = draw(st.integers(1, 4))
    names = NAMES[:n]
    lines = [f"vars: {', '.join(names)}"]
    for i in range(n + draw(st.sampled_from([0, 0, 0, -1, 1]))):
        lines.append(f"F[{i + 1}] = {draw(_expressions(names))}")
    boxes = draw(st.lists(st.sampled_from(INTERVALS), min_size=n, max_size=n))
    if draw(st.booleans()):
        boxes = boxes[:-1] if draw(st.booleans()) else boxes + ["[0,1]"]
    lines.append("domain: " + " x ".join(boxes))
    return "\n".join(draw(st.permutations(lines)) if draw(st.booleans())
                     else lines) + "\n"


def _maybe(draw, flag, values):
    return [flag, draw(values)] if draw(st.booleans()) else []


@st.composite
def invocations(draw):
    """``(form text, argv builder)``; the builder takes the form and out paths."""
    text = draw(form_texts())
    command = draw(st.sampled_from(["check", "factor2", "factor-global",
                                    "reach", "foliate", "invariance",
                                    "catalog"]))
    var = st.sampled_from(NAMES + ["q"])
    number = st.sampled_from(NUMBERS)
    point = st.lists(number, max_size=4).map(",".join)
    small = st.integers(-1, 3).map(str)
    seed = st.sampled_from(["0", "7", "-1", "18446744073709551616", "x"])
    out = ["--out", "{out}"] if draw(st.booleans()) else []
    if command == "check":
        opts = [*_maybe(draw, "--samples", st.integers(0, 6).map(str)),
                *_maybe(draw, "--tol", number),
                *_maybe(draw, "--expect", st.sampled_from(
                    ["exact", "non_integrable", "locally_integrable", "bogus"]))]
        if draw(st.booleans()):
            opts.append("--strict")
    elif command == "factor2":
        opts = [*_maybe(draw, "--grid", small),
                *_maybe(draw, "--transversal-axis", var),
                *_maybe(draw, "--transversal-value", number),
                *_maybe(draw, "--transversal-span", point),
                *(["--csv", "{csv}"] if draw(st.booleans()) else [])]
    elif command == "factor-global":
        opts = [*(["--free-var", draw(var)] if draw(st.integers(0, 5)) else []),
                *_maybe(draw, "--base", point),
                "--grid", draw(st.sampled_from(["1", "2", "0"])),
                *(["--staircase"] if draw(st.booleans()) else []),
                *(["--force"] if draw(st.booleans()) else []),
                *(["--csv", "{csv}"] if draw(st.booleans()) else [])]
    elif command == "reach":
        opts = [*_maybe(draw, "--point", point),
                *_maybe(draw, "--epsilon", number),
                "--budget", draw(st.sampled_from(["0", "1", "13", "150", "x"])),
                *_maybe(draw, "--seed", seed),
                *_maybe(draw, "--threshold", number),
                *_maybe(draw, "--free-var", var),
                *_maybe(draw, "--psi", _expressions(NAMES[:3])),
                *(["--csv", "{csv}"] if draw(st.booleans()) else [])]
    elif command == "foliate":
        opts = ["--curves", draw(st.sampled_from(["1", "2", "0"]))]
    elif command == "invariance":
        opts = [*_maybe(draw, "--seed", seed),
                *_maybe(draw, "--tol", number)]
        how = draw(st.sampled_from(["random", "nonlinear", "map"]))
        if how == "nonlinear":
            opts.append("--nonlinear")
        elif how == "map":
            opts += [*_maybe(draw, "--new-vars", st.sampled_from(
                         ["u,v", "u,v,w", "u", "u,u"])),
                     "--map", "; ".join(draw(st.lists(
                         _expressions(["u", "v", "w"]), max_size=3))),
                     *_maybe(draw, "--base", point),
                     *_maybe(draw, "--new-domain", st.lists(
                         st.sampled_from(INTERVALS), max_size=3).map(" x ".join))]
    else:
        action = draw(st.sampled_from(["plain", "list", "show", "write"]))
        name = draw(st.sampled_from(CATALOG + ["nope"]))
        opts = {"plain": [], "list": ["--list"], "show": ["--show", name],
                "write": ["--write-form", name, "{write}"]}[action]
        return text, ["catalog", *opts, *out]
    return text, [command, "{form}", *opts, *out]


def _reject_constant(token):
    raise ValueError(f"non-finite JSON constant {token}")


def _check_json(text):
    json.loads(text, parse_constant=_reject_constant)


def _check_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    assert rows, "empty CSV"
    header, body = rows[0], rows[1:]
    for row in body:
        assert len(row) == len(header), row
        assert all(math.isfinite(float(cell)) for cell in row), row


def _run(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


EXACT3_TEXT = ("vars: x, y, z\nF[1] = 1\nF[2] = 1\nF[3] = 1\n"
               "domain: [-1,1] x [-1,1] x [-1,1]\n")
CONTACT_TEXT = format_form_file(entry("contact").form)
# coefficients near 1e200: F . curl F = -(3+x+y+z)*1e400 overflows
BIG_TEXT = ("vars: x, y, z\nF[1] = 1e200*(1+y)\nF[2] = 1e200*z\n"
            "F[3] = 1e200*(2+x)\ndomain: [-0.5,0.5] x [-0.5,0.5] x [-0.5,0.5]\n")
# |F_i| <= 1 with partials near 1e308: curls that overflow, which no rescale
# by max|F_i| can help
SIN308_TEXT = ("vars: x, y, z\nF[1] = sin(1e308*y)\nF[2] = sin(-1e308*x)\nF[3] = 1\n"
               "domain: [-1,1] x [-1,1] x [-1,1]\n")
# a coefficient 1 or 2 + x^2*1e308, which overflows where |x| > 1.34
WIDE2_TEXT = "vars: x, y\nF[1] = 1\nF[2] = 2 + x^2*1e308\ndomain: [-2,2] x [-1,1]\n"
WIDE3_TEXT = ("vars: x, y, z\nF[1] = 0\nF[2] = 0\nF[3] = 1 + x^2*1e308\n"
              "domain: [-2,2] x [-1,1] x [-1,1]\n")


@settings(max_examples=150, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
# cases the fuzzer found, each once a traceback: an unknown catalog name
# (KeyError), a verdict with too few endpoints (NaN in the report), a ball
# or a box whose squared distances overflow, and a characteristic's crossing
# search stepping where the solved coefficient vanishes; a reach that
# never ended, because no rollout of its exploration could take a step; a
# reach reference --psi undefined or overflowing at the base; a tensor
# overflowing where the square of the scale underflows (check, invariance),
# a sum of squared residuals overflowing (factor2, factor-global), a mu
# overflowing on CSV grid points (factor-global), curls overflowing
# where max|F_i| <= 1 (check, invariance), and an expression with trailing
# whitespace (an IndexError in the tokenizer); and a scan whose step size
# underflows to 0, once a leg divided by it (now an --epsilon below the
# smallest radius, an input error)
@example((EXACT3_TEXT, ["catalog", "--show", "nope"]))
@example((EXACT3_TEXT, ["catalog", "--write-form", "nope", "{write}"]))
@example((EXACT3_TEXT, ["reach", "{form}", "--budget", "1"]))
@example((EXACT3_TEXT, ["reach", "{form}", "--epsilon", "1e300", "--budget", "1",
                        "--free-var", "x"]))
@example(("vars: x, y\nF[1] = x\nF[2] = exp(x)\n"
          "domain: [-1e300,1e300] x [-1e300,1e300]\n",
          ["foliate", "{form}", "--curves", "1"]))
@example(("vars: x, y\nF[1] = sin(x)\nF[2] = sin(x)\ndomain: [0,1] x [-1,1]\n",
          ["foliate", "{form}", "--curves", "1"]))
@example(("vars: x, y, z\nF[1] = exp(800*x)\nF[2] = y*1e300*1e300 + 1\nF[3] = z\n"
          "domain: [-1,1] x [-1,1] x [-1,1]\n", ["reach", "{form}", "--budget", "1500"]))
@example((CONTACT_TEXT, ["reach", "{form}", "--budget", "200", "--psi", "log(x)"]))
@example((CONTACT_TEXT, ["reach", "{form}", "--budget", "200", "--psi", "1/x"]))
@example((CONTACT_TEXT, ["reach", "{form}", "--budget", "200", "--psi",
                         "exp(1000*x+1000)"]))
@example((BIG_TEXT, ["check", "{form}"]))
@example((BIG_TEXT, ["invariance", "{form}"]))
@example((WIDE2_TEXT, ["factor2", "{form}", "--grid", "5", "--csv", "{csv}"]))
@example((BIG_TEXT, ["factor-global", "{form}", "--free-var", "z", "--force",
                     "--grid", "3", "--csv", "{csv}"]))
@example((WIDE3_TEXT, ["factor-global", "{form}", "--free-var", "z", "--grid", "5",
                       "--csv", "{csv}"]))
@example((SIN308_TEXT, ["check", "{form}"]))
@example((SIN308_TEXT, ["invariance", "{form}"]))
@example((EXACT3_TEXT, ["reach", "{form}", "--budget", "13", "--psi", "x+y+z "]))
@example((CONTACT_TEXT, ["reach", "{form}", "--budget", "150", "--epsilon", "5e-324",
                         "--free-var", "z"]))
def test_cli_contract_under_fuzz(invocation):
    text, template = invocation
    with tempfile.TemporaryDirectory() as tmp:
        paths = {key: os.path.join(tmp, f"{key}.out")
                 for key in ("out", "csv", "write")}
        paths["form"] = os.path.join(tmp, "form.pfaff")
        with open(paths["form"], "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = [arg.format(**paths) if arg.startswith("{") else arg
                for arg in template]
        code, out, err = _run(argv)
        assert code in (0, 1, 2), (code, err)
        assert "Traceback" not in err
        command = argv[0]
        if "--out" in argv and os.path.exists(paths["out"]):
            with open(paths["out"], encoding="utf-8") as fh:
                out = fh.read()
        if out and command == "foliate":
            _check_csv(out)
        elif out and command != "catalog" or "--show" in argv and code == 0:
            _check_json(out)
        if os.path.exists(paths["csv"]):
            with open(paths["csv"], encoding="utf-8") as fh:
                _check_csv(fh.read())
        if code == 0 and os.path.exists(paths["write"]):
            # a written catalog form loads again
            assert _run(["check", paths["write"], "--samples", "4"])[0] == 0


def test_check_large_coefficients_non_integrable(tmp_path):
    """The scaled tensor of BIG_TEXT is finite where the tensor overflows.

    At the witness it is ``(3+x+y+z) / max|F_i / 1e200|^2``.
    """
    path = tmp_path / "big.pfaff"
    path.write_text(BIG_TEXT, encoding="utf-8")
    code, out, err = _run(["check", str(path)])
    assert (code, err) == (0, "")
    report = json.loads(out, parse_constant=_reject_constant)
    assert report["class"] == "non_integrable"
    x, y, z = report["witness"]["point"]
    scale = max(abs(1 + y), abs(z), abs(2 + x))
    assert report["witness"]["value"] == pytest.approx(
        (3 + x + y + z) / scale ** 2, rel=1e-12)
