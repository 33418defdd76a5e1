#!/usr/bin/env python3
"""Run the CLI on the catalog forms and write every output to one file.

Usage: python scripts/cli_outputs.py OUT

Runs, in-process through ``pfaffian.cli.main``: ``check`` on all seven
catalog forms, ``factor2 --csv`` and ``foliate`` on the four two-variable
forms, ``factor-global --free-var z --staircase --csv`` on the two
integrable three-variable forms, ``check`` on two fixed polynomial forms
in 4 and 5 variables (catalog forms have at most three variables, so at most
one tensor component), and ``factor2 --csv`` and ``foliate`` on a fixed
two-variable form whose coefficients tie in size; the script writes the
fixed forms.  None of these needs numpy.  OUT receives,
per run, the command, exit code, stdout, stderr and CSV file as JSON, so two
interpreters (or two versions of the package) can be compared with ``cmp``.
"""

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile

from pfaffian.catalog import catalog
from pfaffian.cli import main as cli_main

TWO_VAR = ("ideal_gas_heat", "product_exact", "ray_form", "rolling_cylinder")
THREE_VAR_INTEGRABLE = ("exact_3var", "scaled_exact")
# the products of neighbouring variables around a cycle: several tensor
# components per point, whose maxima tie between components and between
# sample points, so the scan's tie-breaks decide the report
POLYNOMIAL_FORMS = {
    "cyclic_4var": ("vars: w, x, y, z\n"
                    "F[1] = y*z\nF[2] = z*w\nF[3] = w*x\nF[4] = x*y\n"
                    "domain: [-1,1] x [-1,1] x [-1,1] x [-1,1]\n"),
    "cyclic_5var": ("vars: v, w, x, y, z\n"
                    "F[1] = w*x\nF[2] = x*y\nF[3] = y*z\nF[4] = z*v\nF[5] = v*w\n"
                    "domain: [-1,1] x [-1,1] x [-1,1] x [-1,1] x [-1,1]\n"),
}
# F = (y, y): the coefficients tie in size everywhere, so the pivot's
# first-largest rule picks each characteristic's solved axis, and they vanish
# on the line y = 0, where characteristics start singular
TIED_FORM = {"tied_2var": "vars: x, y\nF[1] = y\nF[2] = y\ndomain: [-1,1] x [-1,1]\n"}


def runs():
    """``(name, command, extra arguments, writes a CSV)`` of every run."""
    yield from ((e.name, "check", [], False) for e in catalog())
    yield from ((name, "factor2", [], True) for name in TWO_VAR)
    yield from ((name, "foliate", [], False) for name in TWO_VAR)
    yield from ((name, "factor-global", ["--free-var", "z", "--staircase"], True)
                for name in THREE_VAR_INTEGRABLE)
    yield from ((name, "check", [], False) for name in POLYNOMIAL_FORMS)
    yield ("tied_2var", "factor2", [], True)
    yield ("tied_2var", "foliate", [], False)


def run_one(argv):
    """``(exit code, stdout, stderr)`` of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("out", help="the JSON file to write")
    args = ap.parse_args(argv)
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in {**POLYNOMIAL_FORMS, **TIED_FORM}.items():
            with open(os.path.join(tmp, f"{name}.pfaff"), "w", encoding="utf-8") as fh:
                fh.write(text)
        for name, command, extra, with_csv in runs():
            form = os.path.join(tmp, f"{name}.pfaff")
            if not os.path.exists(form):
                run_one(["catalog", "--write-form", name, form])
            csv_path = os.path.join(tmp, "out.csv")
            csv_args = ["--csv", csv_path] if with_csv else []
            code, out, err = run_one([command, form, *extra, *csv_args])
            csv = None
            if with_csv and os.path.exists(csv_path):
                with open(csv_path, encoding="utf-8", newline="") as fh:
                    csv = fh.read()
                os.remove(csv_path)
            records.append({"command": [command, name, *extra], "exit": code,
                            "stdout": out, "stderr": err.replace(tmp, "<tmp>"),
                            "csv": csv})
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
