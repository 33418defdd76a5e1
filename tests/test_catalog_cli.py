import collections
import hashlib
import json
import os
import subprocess
import sys
import types
import warnings

import pytest

from conftest import DEEP_SHAPES, PROBE_CASES, deepest_accepted, inset_samples
from pfaffian import factor, forms
from pfaffian import expressions as ex
from pfaffian.catalog import catalog, entry
from pfaffian.cli import main
from pfaffian.factor import (
    FactorizationResult,
    staircase_defect,
    verify_factorization,
)
from pfaffian.integrability import classify

EXPECTED_NAMES = {
    "exact_3var",
    "product_exact",
    "scaled_exact",
    "contact",
    "ideal_gas_heat",
    "rolling_cylinder",
    "ray_form",
}


def test_catalog_contains_required_entries():
    assert {e.name for e in catalog()} >= EXPECTED_NAMES


def test_catalog_module_is_not_shadowed():
    # the package exports ``entry`` but not the function ``catalog``, which
    # would rebind ``pfaffian.catalog`` from the submodule to itself
    import pfaffian
    import pfaffian.catalog as module

    assert isinstance(pfaffian.catalog, types.ModuleType)
    assert module is pfaffian.catalog
    assert len(pfaffian.catalog.catalog()) == 7
    assert pfaffian.entry is entry


def test_package_exports_load_on_first_use():
    import pfaffian

    namespace = {}
    exec("from pfaffian import *", namespace)  # noqa: S102
    exported = {k: v for k, v in namespace.items() if k != "__builtins__"}
    assert sorted(exported) == sorted(pfaffian.__all__)
    assert len(exported) == 43
    for name, value in exported.items():
        assert getattr(sys.modules[value.__module__], name) is value, name
        assert getattr(pfaffian, name) is value
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        pfaffian.no_such_name  # noqa: B018
    # importing the package imports no submodule; reading one imports it
    code = ("import sys, pfaffian\n"
            "loaded = lambda: sorted(m for m in sys.modules if 'pfaffian' in m)\n"
            "print(loaded())\n"
            "print(type(pfaffian.errors).__name__, loaded())\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(pfaffian.__file__)))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          timeout=60)
    assert done.stdout == ("['pfaffian']\n"
                           "module ['pfaffian', 'pfaffian.errors']\n"), done.stderr


def test_catalog_classifications_match_expectations():
    for e in catalog():
        verdict = classify(e.form)
        assert verdict.classification == e.expected_class, e.name


def test_catalog_probe_points_not_singular():
    from pfaffian.forms import is_singular_at

    for e in catalog():
        assert e.form.domain.contains(e.box.center)
        assert not is_singular_at(e.form, e.box.center)


def test_catalog_references_verify_tightly():
    for e in catalog():
        psi0, mu0 = e.psi0_fn(), e.mu0_fn()
        if psi0 is None:
            continue
        result = FactorizationResult(
            psi=psi0, mu=mu0, method="reference"
        )
        samples = inset_samples(e.form.domain, 64, 0.05)
        stats = verify_factorization(e.form, result, samples)
        assert stats.residual_max <= 1e-8, e.name


def test_entry_lookup_unknown():
    with pytest.raises(KeyError):
        entry("no_such_form")


# --- CLI ------------------------------------------------------------------------


@pytest.fixture
def contact_file(tmp_path):
    path = tmp_path / "contact.pfaff"
    assert main(["catalog", "--write-form", "contact", str(path)]) == 0
    return path


@pytest.fixture
def gas_file(tmp_path):
    path = tmp_path / "gas.pfaff"
    assert main(["catalog", "--write-form", "ideal_gas_heat", str(path)]) == 0
    return path


def test_cli_check_reports_class(contact_file, capsys):
    assert main(["check", str(contact_file), "--tol", "1e-8"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["class"] == "non_integrable"
    assert report["witness"]["triple"] == [1, 2, 3]
    assert report["witness"]["value"] == pytest.approx(1.0)
    assert set(report) == {
        "class", "tolerance", "samples_used", "witness", "per_triple_max"
    }


def test_cli_check_expect_mismatch(contact_file, capsys):
    assert main(["check", "--expect", "exact", str(contact_file)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("analysis error:")


def test_cli_check_expect_match(contact_file):
    assert main(["check", "--expect", "non_integrable", str(contact_file)]) == 0


def test_cli_check_golden_stability_all_entries(tmp_path, capsys):
    for e in catalog():
        path = tmp_path / f"{e.name}.pfaff"
        assert main(["catalog", "--write-form", e.name, str(path)]) == 0
        capsys.readouterr()
        assert main(["check", str(path)]) == 0
        first = capsys.readouterr().out
        assert main(["check", str(path)]) == 0
        second = capsys.readouterr().out
        assert first == second, e.name
        assert json.loads(first)["class"] == e.expected_class


def test_cli_catalog_list(capsys):
    assert main(["catalog", "--list"]) == 0
    names = capsys.readouterr().out.split()
    assert set(names) >= EXPECTED_NAMES


def test_cli_catalog_show(capsys):
    assert main(["catalog", "--show", "ideal_gas_heat"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["expected_class"] == "locally_integrable"
    assert report["psi0"] is not None


def test_cli_malformed_form_file(tmp_path, capsys):
    bad = tmp_path / "bad.pfaff"
    bad.write_text("vars: x\nF[1] = x\n")  # missing domain
    assert main(["check", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("form error:")


def test_cli_missing_file(tmp_path, capsys):
    assert main(["check", str(tmp_path / "missing.pfaff")]) == 2
    assert capsys.readouterr().err.startswith("io error:")


def test_cli_unknown_flag(contact_file, capsys):
    assert main(["check", "--frobnicate", str(contact_file)]) == 2


def test_cli_unknown_subcommand(capsys):
    assert main(["transmogrify"]) == 2


def test_cli_factor2(gas_file, tmp_path, capsys):
    csv_path = tmp_path / "levels.csv"
    code = main([
        "factor2", str(gas_file), "--grid", "7", "--csv", str(csv_path)
    ])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["method"] == "two_var_characteristic"
    assert report["residual_max"] <= 1e-5
    header = csv_path.read_text().splitlines()[0]
    assert header == "T,V,psi,mu"


def test_cli_factor2_rejects_n3(contact_file, capsys):
    assert main(["factor2", str(contact_file)]) == 1
    assert capsys.readouterr().err.startswith("analysis error:")


def test_cli_factor_global(tmp_path, capsys):
    path = tmp_path / "scaled.pfaff"
    assert main(["catalog", "--write-form", "scaled_exact", str(path)]) == 0
    code = main([
        "factor-global", str(path), "--free-var", "z", "--grid", "5",
        "--staircase",
    ])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["residual_max"] <= 1e-5
    assert report["staircase"]["max_disagreement"] <= 1e-6


def test_cli_factor_global_gate(contact_file, capsys):
    code = main(["factor-global", str(contact_file), "--free-var", "z"])
    assert code == 1


def test_cli_reach_with_scan_and_psi(contact_file, tmp_path, capsys):
    cloud = tmp_path / "cloud.csv"
    code = main([
        "reach", str(contact_file), "--point", "0,0,0", "--epsilon", "0.3",
        "--budget", "20000", "--seed", "42", "--threshold", "0.05",
        "--free-var", "z", "--csv", str(cloud),
    ])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"]["kind"] == "full_dimensional"
    # small smoke budget: nearby targets only; the full budget case is in
    # the acceptance suite
    assert report["surrounding_line_scan"]["fraction_reached"] >= 0.5
    assert cloud.read_text().splitlines()[0] == "x,y,z,steps"


def test_cli_reach_determinism(contact_file, capsys):
    argv = ["reach", str(contact_file), "--budget", "5000", "--seed", "9"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("psi, message", [
    ("log(x)", "undefined at (0.0, 0.0, 0.0)"),
    ("1/x", "division by zero"),
    ("exp(1000*x+1000)", "overflow at (0.0, 0.0, 0.0)"),
])
def test_cli_reach_psi_undefined_at_the_base_is_input_error(contact_file, capsys,
                                                            psi, message):
    # the reference is undefined or overflows at the base, the box center
    argv = ["reach", str(contact_file), "--budget", "200", "--psi", psi]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("form error: ")
    assert message in captured.err
    assert "Traceback" not in captured.err


def test_cli_reach_psi_with_trailing_whitespace(contact_file, capsys):
    # trailing whitespace ends the text: the same report, not a traceback
    argv = ["reach", str(contact_file), "--budget", "200", "--psi"]
    assert main([*argv, "x+y+z"]) == 0
    expected = capsys.readouterr()
    assert main([*argv, "x+y+z "]) == 0
    captured = capsys.readouterr()
    assert captured.err == expected.err == ""
    assert captured.out == expected.out


@pytest.mark.parametrize("flag, value", [
    ("--epsilon", "-1"),
    ("--epsilon", "0"),
    ("--epsilon", "nan"),
    ("--epsilon", "inf"),
    ("--epsilon", "5e-324"),
    ("--epsilon", "1e-200"),
    ("--budget", "0"),
    ("--budget", "-5"),
])
def test_cli_reach_rejects_bad_epsilon_and_budget(contact_file, capsys, flag,
                                                   value):
    assert main(["reach", str(contact_file), flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}:" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["invariance", "CONTACT", "--seed", "-1"],
    ["invariance", "CONTACT", "--tol", "-1"],
    ["invariance", "CONTACT", "--new-vars", "u,v,w", "--map", "u; v; w",
     "--new-domain", "[a,1]x[-0.2,0.2]x[-0.2,0.2]"],
    ["invariance", "CONTACT", "--new-vars", "u,v,w", "--map", "u; v; w",
     "--new-domain", "[-0.2,0.2]x[-0.2,0.2]"],
    ["factor2", "GAS", "--grid", "-2"],
    ["factor2", "GAS", "--grid", "0"],
    ["factor-global", "CONTACT", "--free-var", "z", "--grid", "-2"],
    ["factor-global", "CONTACT", "--free-var", "q"],
    ["factor-global", "CONTACT", "--free-var", "z", "--base", "0,0"],
    ["foliate", "GAS", "--curves", "-1"],
    ["foliate", "GAS", "--curves", "0"],
    ["check", "CONTACT", "--samples", "0"],
    ["check", "CONTACT", "--tol", "-1"],
    ["reach", "CONTACT", "--threshold", "nan"],
    ["reach", "CONTACT", "--seed", "-1"],
    ["reach", "CONTACT", "--seed", str(2**64)],
    ["reach", "CONTACT", "--point", "1,2"],
    ["reach", "CONTACT", "--point", "1,2,zz"],
    ["reach", "CONTACT", "--free-var", "q"],
    ["reach", "CONTACT", "--point", "5,5,5"],
    ["reach", "CONTACT", "--point", "0,0,nan"],
    ["factor-global", "CONTACT", "--free-var", "z", "--base", "5,5,5"],
    ["factor2", "GAS", "--transversal-axis", "T", "--transversal-value", "nan"],
    ["factor2", "GAS", "--transversal-axis", "T", "--transversal-value", "inf"],
    ["factor2", "GAS", "--transversal-axis", "T", "--transversal-value", "1e9"],
    ["factor2", "GAS", "--transversal-value", "1.5"],
    ["factor2", "GAS", "--transversal-span", "1,2"],
    ["factor2", "GAS", "--transversal-axis", "T", "--transversal-span", "2,1"],
    ["check", "ELEVEN"],
    ["check", "TWICE"],
])
def test_cli_input_errors_exit_2(contact_file, gas_file, tmp_path, capsys, argv):
    names = [f"x{i}" for i in range(11)]
    eleven = tmp_path / "eleven.pfaff"
    eleven.write_text("".join(
        [f"vars: {', '.join(names)}\n",
         *(f"F[{i}] = 1\n" for i in range(1, 12)),
         "domain: " + " x ".join(["[0,1]"] * 11) + "\n"]))
    twice = tmp_path / "twice.pfaff"
    twice.write_text("vars: x, y\nF[1] = 1\nF[2] = x\nF[1] = y\n"
                     "domain: [0,1] x [0,1]\n")
    files = {"CONTACT": str(contact_file), "GAS": str(gas_file),
             "ELEVEN": str(eleven), "TWICE": str(twice)}
    assert main([files.get(a, a) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("options, transversal, evaluated", [
    (["--transversal-axis", "V"], {"fixed_axis": 1, "value": 1.5}, 232),
    (["--transversal-axis", "V", "--transversal-value", "1.2"],
     {"fixed_axis": 1, "value": 1.2}, 204),
    (["--transversal-axis", "V", "--transversal-span", "1.2,1.8"],
     {"fixed_axis": 1, "value": 1.5, "span": [1.2, 1.8]}, 154),
], ids=["axis", "value", "span"])
def test_cli_factor2_transversal_options(gas_file, capsys, options, transversal,
                                         evaluated):
    # V = 1.5 is also the automatic transversal; on a span fewer
    # characteristics reach it, and the report names the span
    assert main(["factor2", str(gas_file), *options]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["flags"]["transversal"] == transversal
    assert report["evaluated_points"] == evaluated


def _write_form(path, f1, f2="1", domain="[0.5,1] x [0.5,1]"):
    path.write_text(f"vars: x, y\nF[1] = {f1}\nF[2] = {f2}\ndomain: {domain}\n")
    return str(path)


@pytest.mark.parametrize("f1", [
    "(" * 2000 + "x" + ")" * 2000,
    "-" * 3000 + "x",
    "+".join(["x"] * 3000),
], ids=["parens", "minuses", "terms"])
def test_cli_deep_input_exits_2(tmp_path, capsys, f1):
    assert main(["check", _write_form(tmp_path / "deep.pfaff", f1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "nested deeper than" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("shape", sorted(DEEP_SHAPES))
def test_cli_check_at_depth_bound(tmp_path, capsys, shape):
    # every shape at the deepest the parser accepts still compiles and classifies
    path = _write_form(tmp_path / "deepest.pfaff", deepest_accepted(shape),
                       "1 + y*0 + x*0")
    assert main(["check", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["class"] in ("exact", "locally_integrable", "non_integrable")


@pytest.mark.parametrize("f1, message", [
    ("log(0-x)", "coefficients undefined at all 257 sampled points"),
    ("0*x", "coefficient vector numerically zero at all sampled points"),
    ("sqrt(0.75-x)*1e-300", "coefficient vector numerically zero at 130 and"
     " undefined at 127 of the 257 sampled points"),
], ids=["undefined", "zero", "both"])
def test_cli_singular_form_says_why(tmp_path, capsys, f1, message):
    path = _write_form(tmp_path / "singular.pfaff", f1, "0",
                       "[0.5,1] x [0,1]" if f1 != "log(0-x)" else "[1.5,2] x [0,1]")
    assert main(["check", path]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"form error: {message}\n"
    assert "Traceback" not in captured.err


# x^1e400 overflows to x^inf while parsing; compiled code must spell the inf
OVERFLOWED_FORM = """vars: x, y
F[1] = x^1e400 + 1
F[2] = 1 + x*0
domain: [0.5,1] x [0,1]
"""


@pytest.mark.parametrize("argv", [
    ["factor2", "--grid", "3"],
    ["reach", "--budget", "100"],
])
def test_cli_overflowed_constant(tmp_path, capsys, argv):
    path = tmp_path / "overflowed.pfaff"
    path.write_text(OVERFLOWED_FORM)
    assert main([argv[0], str(path), *argv[1:]]) == 0
    captured = capsys.readouterr()
    json.loads(captured.out)
    assert "Traceback" not in captured.err


# dF_2/dx = 300*x^299 overflows at every sample, so the verdict is inconclusive
INCONCLUSIVE_FORM = """vars: x, y
F[1] = 1
F[2] = x^300
domain: [10.55,10.64] x [0,1]
"""


@pytest.mark.parametrize("flags, code", [
    (["--expect", "inconclusive"], 0),
    ([], 0),
    (["--strict"], 1),
])
def test_cli_check_inconclusive_report(tmp_path, capsys, flags, code):
    path = tmp_path / "inconclusive.pfaff"
    path.write_text(INCONCLUSIVE_FORM)
    assert main(["check", str(path), *flags]) == code
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["class"] == "inconclusive"
    assert set(report) == {
        "class", "tolerance", "samples_used", "witness", "per_triple_max"
    }
    assert report["witness"] == {"point": None, "triple": None, "value": None}
    assert "Traceback" not in captured.err


def test_cli_factor2_nothing_evaluated(gas_file, capsys):
    assert main(["factor2", str(gas_file), "--grid", "1"]) == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["evaluated_points"] == 0
    assert report["residual_max"] is None and report["residual_rms"] is None
    assert "Traceback" not in captured.err


def test_cli_staircase_undefined_path():
    # with y free, F_y = exp(z)*x vanishes at the base point (the box
    # center), where every staircase path starts; factor-global refuses
    # that base (test_cli_factor_global_rejects_vanishing_free_coefficient),
    # so the staircase is called directly; with no target measured there is
    # no maximum, where 0.0 would read as path-independent
    form = entry("scaled_exact").form
    worst, targets = staircase_defect(form, 1, form.domain.center)
    assert len(targets) == 4
    assert all(t["defect"] is None for t in targets)
    assert worst is None


@pytest.mark.parametrize("name, var, base, state", [
    ("scaled_exact", "x", None, "zero"),  # F_x = exp(z)*y, y = 0 at the center
    ("scaled_exact", "y", "0,0.3,0.1", "zero"),  # F_y = exp(z)*x
    ("contact", "y", "0.5,0.5,0.5", "zero"),  # F_y = 0 everywhere
])
def test_cli_factor_global_rejects_vanishing_free_coefficient(
        name, var, base, state, tmp_path, capsys):
    path = tmp_path / f"{name}.pfaff"
    assert main(["catalog", "--write-form", name, str(path)]) == 0
    argv = ["factor-global", str(path), "--free-var", var, "--force"]
    code = main(argv + (["--base", base] if base else []))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.startswith(f"analysis error: free coefficient F_{var} "
                                   f"is {state} at the base")
    assert f"the fiber of {var} is not transversal" in captured.err


def test_cli_factor_global_rejects_undefined_free_coefficient(tmp_path, capsys):
    path = tmp_path / "log.pfaff"
    path.write_text("vars: x, y, z\n"
                    "domain: [-1,1] x [-1,1] x [-1,1]\n"
                    "F[1] = 1\nF[2] = 1\nF[3] = log(x)\n")
    code = main(["factor-global", str(path), "--free-var", "z", "--force"])
    captured = capsys.readouterr()
    assert code == 1
    assert "analysis error: free coefficient F_z is undefined" in captured.err
    assert "Traceback" not in captured.err


def test_cli_foliate(gas_file, capsys):
    assert main(["foliate", str(gas_file), "--curves", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "curve_id,t,T,V"
    assert len(lines) > 10


def test_cli_invariance_random_linear(contact_file, capsys):
    assert main(["invariance", str(contact_file), "--seed", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["nullity_preserved"] is True
    assert report["max_pullback"] > report["tolerance"]


def test_cli_invariance_explicit_map(tmp_path, capsys):
    path = tmp_path / "scaled.pfaff"
    assert main(["catalog", "--write-form", "scaled_exact", str(path)]) == 0
    code = main([
        "invariance", str(path),
        "--new-vars", "u,v,w",
        "--map", "u+0.1*v^2; v; w",
        "--base", "0,0,0",
        "--new-domain", "[-0.2,0.2]x[-0.2,0.2]x[-0.2,0.2]",
    ])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["nullity_preserved"] is True
    assert report["max_pullback"] <= report["tolerance"]


def test_cli_out_file(contact_file, tmp_path):
    out = tmp_path / "verdict.json"
    assert main(["check", str(contact_file), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["class"] == "non_integrable"


# --- byte identity of the Dopri5-driven reports ---------------------------------
#
# SHA-256 of the exit code, stdout and CSV of each run, recorded before the
# Dormand-Prince step loop was generated and box exits of surface paths ended
# solves early: both must leave every report as it was.  The factor2 and
# foliate digests were re-pinned when crossings came to be located by the
# Illinois bracket of ``ode.bisect_root``, which moves them at rounding level.
# The factor2 digests of product_exact, ideal_gas_heat and ray_form were
# re-pinned when a characteristic that leaves through the face it starts on
# came to end there as a boundary exit: its grid point is skipped, where it
# used to be labeled by a crossing outside the box.  The factor-global
# digests that are not REJECTED_BASE were re-pinned when its report lost the
# flag "mu_branch_disagreements", which it never counted: the only change.
# All factor2 and factor-global digests that are not REJECTED_BASE were
# re-pinned when the verification's stencil became the central difference
# (with the one-sided rule at faces) and factor-global's mu came to take its
# fiber derivative by that stencil: residuals and mu values moved at the
# level of the solves' errors, and no point changed from evaluated to
# skipped.  factor2 on rolling_cylinder and ray_form also gained points (43
# to 51 and 50 to 54 evaluated) when a step that crosses both the transversal
# on its span and a face came to end at the transversal, which it meets first.


def _catalog_jobs():
    jobs = []
    for e in catalog():
        if e.form.n == 3:
            force = ["--force"] if e.expected_class == "non_integrable" else []
            for var in e.var_names:
                for grid in ("5", "9"):
                    jobs.append((f"factor-global {e.name} {var} {grid}",
                                 ["factor-global", e.name, "--free-var", var,
                                  "--staircase", "--grid", grid, *force]))
        elif e.form.n == 2:
            jobs.append((f"factor2 {e.name}", ["factor2", e.name]))
            jobs.append((f"foliate {e.name}", ["foliate", e.name]))
    return jobs


def _report(argv, tmp_path, capsys):
    """``(digest, stdout)`` of a run on a catalog form, its CSV included."""
    command, name, *rest = argv
    path = tmp_path / f"{name}.pfaff"
    assert main(["catalog", "--write-form", name, str(path)]) == 0
    csv = tmp_path / "report.csv"
    with_csv = [] if command == "foliate" else ["--csv", str(csv)]
    code = main([command, str(path), *rest, *with_csv])
    out = capsys.readouterr().out
    csv_text = csv.read_text() if csv.exists() else ""
    return hashlib.sha256(f"{code}\n{out}\n{csv_text}".encode()).hexdigest(), out


def _report_digest(argv, tmp_path, capsys):
    return _report(argv, tmp_path, capsys)[0]


# exit 1 with no report: the free coefficient vanishes at the base (the box
# center), so the base fiber is not transversal to the leaves
REJECTED_BASE = hashlib.sha256(b"1\n\n").hexdigest()

CATALOG_DIGESTS = {
    "factor-global exact_3var x 5":
        "7c8ddc0e9d361cc5a8833539cebdb8d1c2442b2d4a14b459f36f2c3d528436ea",
    "factor-global exact_3var x 9":
        "5ae2fcdea54112dea0a0c3a46a81c28b64822ac49c9a1c6c1e8ac79d1096c46a",
    "factor-global exact_3var y 5":
        "63e1a0962ab9d795ee381ae21776732ddb53fffd6516332acae67c83acf05f01",
    "factor-global exact_3var y 9":
        "f82fddb0f7107b8642fcd935d112e238777f4100b451b6bf34ef464d3611649f",
    "factor-global exact_3var z 5":
        "44f923f1fc9afb9629fcb8dca3df1b99a634cebbe8a301a9ebeec201c0fea131",
    "factor-global exact_3var z 9":
        "7cf7c48a5c07748be123fedcf88c2270e9a03e6ec0e26533ab5739e1243bf0d7",
    "factor2 product_exact":
        "f265baf4d4f90b59508a28724a0e468067f020eea134ccbe34e9cd485f26df1a",
    "foliate product_exact":
        "a9967e976e0ec1173c83d968d42bcad2e135dcbeeb68c9040521d79be4a7e1db",
    "factor-global scaled_exact x 5":
        REJECTED_BASE,
    "factor-global scaled_exact x 9":
        REJECTED_BASE,
    "factor-global scaled_exact y 5":
        REJECTED_BASE,
    "factor-global scaled_exact y 9":
        REJECTED_BASE,
    "factor-global scaled_exact z 5":
        "f07d58372ea1af79239795cfa3984ec23f45a62df23fdfa9f5f7315a8d369b51",
    "factor-global scaled_exact z 9":
        "2fc3c903b5f26854cdd4598420489dfca6ec9cf734d5e1ec60b0035e96e42b18",
    "factor-global contact x 5":
        REJECTED_BASE,
    "factor-global contact x 9":
        REJECTED_BASE,
    "factor-global contact y 5":
        REJECTED_BASE,
    "factor-global contact y 9":
        REJECTED_BASE,
    "factor-global contact z 5":
        "593acb0a421c647fec51b9aae489abfb67ae56f81a2849c0d3a983dae5b51705",
    "factor-global contact z 9":
        "2bc70f42fec4dea6507a82cc91c743b05a19703f48bc7d138265c7b100c5afaf",
    "factor2 ideal_gas_heat":
        "367eb76a48b63f3ceff1dd52f4683b8b43c79700de1d16061195b738ef912649",
    "foliate ideal_gas_heat":
        "f05fd7708ecfb135385ab12e9be754f3f30d18de2ae8a6052abc6ed57003c90c",
    "factor2 rolling_cylinder":
        "5faacf8c4b62ca4b646089e76a726472f05b7197104beab89d8210b8188b17ff",
    "foliate rolling_cylinder":
        "a8da2972acda9fc8d4f3ce43a06359f2d853c5afbeddb7e2120379cae7b16053",
    "factor2 ray_form":
        "64ee9e930553d7b6edd43ff7943a5a037aa1578ddbd2a37285273322046cc226",
    "foliate ray_form":
        "7da715d577bac9e401b749e07b82faf70259e71f5e07a1137768779b9e3aad03",
}


@pytest.mark.parametrize("job, argv", _catalog_jobs(),
                         ids=[job for job, _ in _catalog_jobs()])
def test_catalog_reports_byte_identical(job, argv, tmp_path, capsys):
    assert _report_digest(argv, tmp_path, capsys) == CATALOG_DIGESTS[job]


# ``reach`` at the flags of the benchmark's reach-probe jobs: seed 1, a
# 10000-step budget (32000 on contact, whose line scan shares it among 32
# targets), the entry's potential as --psi and a free variable on contact and
# rolling_cylinder; and contact from a base on a box face.  Recorded before the
# exploration and the scan ran a whole rollout or leg in one generated call.
REACH_FREE_VAR = {"contact": "z", "rolling_cylinder": "x"}


def _reach_jobs():
    jobs = []
    for e in catalog():
        budget = "32000" if e.name == "contact" else "10000"
        argv = ["reach", e.name, "--epsilon", "0.3", "--threshold", "0.05",
                "--budget", budget, "--seed", "1"]
        if e.psi0_text is not None:
            argv += ["--psi", e.psi0_text]
        if e.name in REACH_FREE_VAR:
            argv += ["--free-var", REACH_FREE_VAR[e.name]]
        jobs.append((f"reach {e.name}", argv))
        if e.name == "contact":
            jobs.append(("reach contact --point 1,0,0",
                         [*argv, "--point", "1,0,0"]))
    return jobs


REACH_DIGESTS = {
    "reach exact_3var":
        "8ba3674d0cf5ac74b43cdc690c412da6acba07add1a7b68ef1d6d904d0f312d7",
    "reach product_exact":
        "7a101b248b94ce35956d111163f9e7fc54c9b5286fb46ca4775e4fff76508aa0",
    "reach scaled_exact":
        "b2aa6ea8ee992fe6af2dabb995e31582559e70dce2a3bbf96b46531ea2ea499a",
    "reach contact":
        "d1485acdbe80d2f0a25340ec86b5f89d427302661c6a417b1e7507876d31c9e0",
    "reach contact --point 1,0,0":
        "e345a56270ad5246186545e9046ab70a184f23f1ce360b6adb41e2363c11813d",
    "reach ideal_gas_heat":
        "8b3de6d5ae8dd2d0835f6c3441e201c246ceb3602224e3a6fec0cb8e93ae08bc",
    "reach rolling_cylinder":
        "72ed8339560b6413c3d0a3b66be50b10d2978efdd06702b6caf61e38978e52a9",
    "reach ray_form":
        "e08b8071742c9cc7233814dbde2c6a8e295f90461c1894309b35ff2ffca77398",
}


@pytest.mark.parametrize("job, argv", _reach_jobs(),
                         ids=[job for job, _ in _reach_jobs()])
def test_reach_reports_byte_identical(job, argv, tmp_path, capsys):
    assert _report_digest(argv, tmp_path, capsys) == REACH_DIGESTS[job]


def test_off_center_base_report_byte_identical(tmp_path, capsys, monkeypatch):
    """exact_3var from a base off the box center, where box exits dominate.

    Half the grid points are skipped, and 743 of the 6,835 path solves end
    as box exits.  Those took 32,149 refused attempts (of 66,359) when each
    refusal halved the step into the band past the box; landing in the band
    takes 3,508 (of 32,300).  The report was pinned with the halving, and
    re-pinned when the flag "mu_branch_disagreements" left it, and when the
    verification's stencil became the central difference and mu's fiber
    derivative came to use it: 4,651 path solves in 23,560 attempts, with
    the same box exits, and the residual moved at the level of the solves'
    errors.  The run counts the solves of its CSV too.  Those fell when the
    CSV came to read the mu that verification computed and to solve psi
    only where mu is finite: 663 box exits in 2,511 refused attempts (743
    in 3,508 before), the same 3,908 ok solves, and the same bytes.
    """
    solves = collections.Counter()
    solve = factor._integrate_unit

    def counting(*args):
        status, y, accepted, rejected = solve(*args)
        solves[status] += 1
        solves[f"{status}_rejected"] += rejected
        return status, y, accepted, rejected

    monkeypatch.setattr(factor, "_integrate_unit", counting)
    argv = ["factor-global", "exact_3var", "--free-var", "z",
            "--base=0.3,-0.2,0.1", "--staircase"]
    digest, out = _report(argv, tmp_path, capsys)
    report = json.loads(out)
    assert (report["evaluated_points"], report["skipped_points"]) == (364, 365)
    assert report["residual_max"] == pytest.approx(2.718e-12, rel=1e-3, abs=0.0)
    assert solves == {"ok": 3908, "ok_rejected": 0, "box_exit": 663,
                      "box_exit_rejected": 2511}
    assert digest == ("ecbd2dbdd9ddbf0d4bb704c9b330769c"
                      "f17e9cd90aadbad3b680bb63b12ba70f")


@pytest.mark.parametrize("name", [e.name for e in catalog() if e.form.n == 2])
def test_factor_csv_solves_at_most_one_characteristic_per_row(
        name, tmp_path, capsys, monkeypatch):
    """factor2 --grid 9: the CSV reads the mu that verification computed and
    solves psi only where mu is defined, so it adds at most one
    characteristic solve per row to the run without it.  Re-evaluating both
    took 72 solves for 54 rows on product_exact, 73 for 51 on
    rolling_cylinder and 71 for 54 on ray_form."""
    path = _catalog_file(tmp_path, name)
    solves = collections.Counter()
    solve = factor.solve_characteristic

    def counting(*args):
        solves[csv] += 1
        return solve(*args)

    monkeypatch.setattr(factor, "solve_characteristic", counting)
    csv_path = tmp_path / "rows.csv"
    for csv in (False, True):
        argv = ["factor2", path, "--grid", "9"]
        assert main(argv + ["--csv", str(csv_path)] if csv else argv) == 0
    capsys.readouterr()
    rows = len(csv_path.read_text().splitlines()) - 1
    assert rows > 0
    assert solves[True] - solves[False] <= rows


# --- one compile per check job; F-only commands build no Jacobian ----------------


def _catalog_file(tmp_path, name):
    path = str(tmp_path / f"{name}.pfaff")
    assert main(["catalog", "--write-form", name, path]) == 0
    return path


@pytest.mark.parametrize("name", sorted(e.name for e in catalog()))
def test_check_compiles_once(name, tmp_path, capsys, monkeypatch):
    path = _catalog_file(tmp_path, name)
    compiled = []
    exec_source = ex.exec_source

    def counting(source, label, **extra):
        compiled.append(label)
        return exec_source(source, label, **extra)

    monkeypatch.setattr(ex, "exec_source", counting)
    assert main(["check", path, "--expect", entry(name).expected_class]) == 0
    assert compiled == ["expr"]


FACTOR_COMPILES = [
    (["factor2", "ideal_gas_heat"], ["expr", "ode", "ode"]),
    (["factor2", "product_exact"], ["expr", "ode", "ode"]),
    (["factor2", "ray_form"], ["expr", "ode", "ode"]),
    (["factor2", "rolling_cylinder"], ["expr", "ode"]),
    (["foliate", "ideal_gas_heat"], ["expr", "ode"]),
    (["foliate", "product_exact"], ["expr", "ode", "ode"]),
    (["foliate", "ray_form"], ["expr", "ode", "ode"]),
    (["foliate", "rolling_cylinder"], ["expr", "ode"]),
    (["factor-global", "scaled_exact", "--free-var", "z", "--staircase"],
     ["expr", "expr", "ode"]),
    (["factor-global", "exact_3var", "--free-var", "z", "--staircase"],
     ["expr", "expr", "ode"]),
]


@pytest.mark.parametrize("argv, compiled", FACTOR_COMPILES,
                         ids=[" ".join(argv[:2]) for argv, _ in FACTOR_COMPILES])
def test_factor_jobs_compile_each_kernel_once(argv, compiled, tmp_path, capsys,
                                              monkeypatch):
    """F (and the jet, for the tensor test), then each ODE kernel once.

    A characteristic kernel per solved axis that some curve uses; for
    factor-global one path kernel, which the construction, the monotonicity
    check and the staircase share.
    """
    command, name, *rest = argv
    path = _catalog_file(tmp_path, name)
    seen = []
    exec_source = ex.exec_source

    def counting(source, label, **extra):
        seen.append(label)
        return exec_source(source, label, **extra)

    monkeypatch.setattr(ex, "exec_source", counting)
    grid = [] if command == "foliate" else ["--grid", "5"]
    assert main([command, path, *rest, *grid]) == 0
    assert seen == compiled


def _f_only_jobs():
    jobs = []
    for e in catalog():
        jobs.append(["reach", e.name, "--budget", "200"])
        if e.form.n == 2:
            jobs.append(["factor2", e.name, "--grid", "3"])
            jobs.append(["foliate", e.name, "--curves", "2"])
        else:
            jobs.append(["factor-global", e.name, "--free-var", "z", "--grid", "3",
                         "--force"])
    return jobs


@pytest.mark.parametrize("argv", _f_only_jobs(),
                         ids=[" ".join(job[:2]) for job in _f_only_jobs()])
def test_f_only_commands_build_no_jacobian(argv, tmp_path, capsys, monkeypatch):
    command, name, *rest = argv
    loaded = []
    load_form = forms.load_form

    def loading(*args, **kwargs):
        loaded.append(load_form(*args, **kwargs))
        return loaded[-1]

    # the handlers import load_form when they run, so they see the patch
    monkeypatch.setattr(forms, "load_form", loading)
    assert main([command, _catalog_file(tmp_path, name), *rest]) == 0
    (form,) = loaded
    assert "jet_fn" not in vars(form)


@pytest.mark.parametrize("case", sorted(PROBE_CASES))
def test_check_with_jet_probe_matches_f_probe(case, tmp_path, capsys, monkeypatch):
    names, texts, domain = PROBE_CASES[case]
    path = tmp_path / "probe.pfaff"
    path.write_text(f"vars: {', '.join(names)}\n"
                    + "".join(f"F[{i}] = {t}\n" for i, t in enumerate(texts, 1))
                    + f"domain: {domain}\n")
    code = main(["check", str(path)])
    jet = (code, *capsys.readouterr())
    load_form = forms.load_form
    monkeypatch.setattr(forms, "load_form", lambda p, **_: load_form(p))
    code = main(["check", str(path)])
    assert jet == (code, *capsys.readouterr())
    if case == "jet_raises":
        code, out, err = jet
        report = json.loads(out)
        assert (code, err) == (0, "")
        assert (report["class"], report["samples_used"]) == ("non_integrable", 72)
    else:
        assert jet[0] == 2 and jet[2].startswith("form error: ")


# --- cases found by the CLI fuzz test (tests/test_cli_fuzz.py) --------------------


@pytest.mark.parametrize("argv", [["catalog", "--show", "nope"],
                                  ["catalog", "--write-form", "nope", "x.pfaff"]])
def test_cli_unknown_catalog_name_is_input_error(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("form error: no catalog entry 'nope'")


def test_cli_reach_too_few_endpoints_reports_null(tmp_path, capsys):
    # one step cannot end a segment: the cloud is the base alone, and the
    # verdict's ratio and thickness are absent, not NaN
    path = tmp_path / "exact.pfaff"
    assert main(["catalog", "--write-form", "exact_3var", str(path)]) == 0
    assert main(["reach", str(path), "--budget", "1"]) == 0
    verdict = json.loads(capsys.readouterr().out)["verdict"]
    assert verdict["kind"] == "inconclusive"
    assert verdict["transverse_ratio"] is None and verdict["thickness"] is None


def test_cli_box_beyond_coordinate_bound_is_input_error(tmp_path, capsys):
    path = tmp_path / "huge.pfaff"
    path.write_text("vars: x, y\nF[1] = x\nF[2] = 1\n"
                    "domain: [-1e300,1e300] x [0,1]\n")
    assert main(["foliate", str(path)]) == 2
    assert "reaches beyond +-1e+150" in capsys.readouterr().err


def test_cli_foliate_crossing_search_meets_vanishing_coefficient(tmp_path, capsys):
    # the probe solves that locate a box crossing inside a step reach x < 0,
    # where the solved coefficient sin(x) changes sign: the curve ends as
    # singular
    path = tmp_path / "sin.pfaff"
    path.write_text("vars: x, y\nF[1] = sin(x)\nF[2] = sin(x)\n"
                    "domain: [0,1] x [-1,1]\n")
    assert main(["foliate", str(path), "--curves", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "curve_id,t,x,y" and len(lines) > 2


def test_cli_foliate_and_factor2_skip_undefined_starts(tmp_path, capsys):
    # sqrt(x) is undefined on x < 0: the first of three foliate starts, at
    # x = -0.96, gets no rows and the others keep their curve ids; factor2
    # skips the grid points whose characteristics it cannot trace
    path = _write_form(tmp_path / "sqrt.pfaff", "1", "sqrt(x)", "[-1,1] x [-1,1]")
    assert main(["foliate", path, "--curves", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert lines[0] == "curve_id,t,x,y"
    assert {line.split(",")[0] for line in lines[1:]} == {"1", "2"}
    assert main(["factor2", path]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["evaluated_points"] > 0 and report["skipped_points"] > 0


def test_cli_check_pole_on_a_sample_is_quiet(tmp_path, capsys):
    # x = 0 is the box center and a Halton coordinate: the samples there
    # fail without a RuntimeWarning and the rest classify the form
    path = tmp_path / "pole.pfaff"
    path.write_text("vars: x, y, z\nF[1] = 1/x\nF[2] = 1\nF[3] = z\n"
                    "domain: [-1,1] x [-1,1] x [-1,1]\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["check", str(path)]) == 0
    assert caught == []
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out)["class"] == "exact"


def test_cli_reach_ends_when_no_rollout_takes_a_step(tmp_path, capsys):
    # F_2 overflows to inf off y = 0: every first step from the base fails,
    # and explore stops after MAX_SEGMENTS such rollouts in a row
    path = tmp_path / "idle.pfaff"
    path.write_text("vars: x, y, z\nF[1] = exp(800*x)\nF[2] = y*1e300*1e300 + 1\n"
                    "F[3] = z\ndomain: [-1,1] x [-1,1] x [-1,1]\n")
    assert main(["reach", str(path), "--budget", "1500"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["budget_used"] < report["budget"] == 1500
    assert report["endpoint_count"] == 1


def test_cli_reach_epsilon_beyond_coordinate_bound_is_input_error(tmp_path, capsys):
    # scan targets at +-epsilon from the base: their squared distances overflow
    path = tmp_path / "exact.pfaff"
    assert main(["catalog", "--write-form", "exact_3var", str(path)]) == 0
    assert main(["reach", str(path), "--epsilon", "1e300", "--free-var", "x"]) == 2
    assert "--epsilon: must be at most 1e+150" in capsys.readouterr().err


def test_cli_reach_radius_below_the_base_resolution_is_analysis_error(contact_file,
                                                                      capsys):
    # 1e-150 moves the center; 1e-20 / 96 does not move 0.5
    base = ["reach", str(contact_file), "--free-var", "z", "--budget", "200"]
    assert main([*base, "--epsilon", "1e-150"]) == 0
    assert json.loads(capsys.readouterr().out)["epsilon"] == 1e-150
    assert main([*base, "--point", "0.5,0.5,0.5", "--epsilon", "1e-20"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "too small for the base point" in captured.err
    assert "Traceback" not in captured.err


# one CLI run in a fresh interpreter; prints the pfaffian submodules and
# whether numpy is loaded after it (no arguments: after the import alone)
_MODULES_OF_RUN = r'''
import contextlib, io, json, sys
from pfaffian.cli import main

if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(sys.argv[1:]) == 0, sys.argv
print(json.dumps([sorted(m for m in sys.modules if m.startswith("pfaffian")),
                  "numpy" in sys.modules]))
'''

# what reading a form file and writing a report load
_FORM_AND_REPORT = {"expressions", "forms", "reports", "sampling"}
# the pfaffian submodules each subcommand loads beyond pfaffian.cli and
# pfaffian.errors, and whether it loads numpy
_RUN_LOADS = {
    "import": (set(), False),
    "catalog": ({"catalog", *_FORM_AND_REPORT}, False),
    "check": ({"integrability", *_FORM_AND_REPORT}, False),
    "factor2": ({"factor", "ode", *_FORM_AND_REPORT}, False),
    "foliate": ({"factor", "ode", *_FORM_AND_REPORT}, False),
    "factor-global": ({"factor", "ode", "integrability", *_FORM_AND_REPORT}, False),
    "reach": ({"reach", *_FORM_AND_REPORT}, True),
    "invariance": ({"integrability", *_FORM_AND_REPORT}, True),
}


def test_numpy_free_subcommands_do_not_load_numpy(tmp_path):
    """Each run, in a fresh interpreter, loads only the modules its subcommand
    uses: check, factor2, factor-global, foliate and catalog run without
    numpy, and reach and invariance, which need it, load it."""
    import pfaffian

    src = os.path.dirname(os.path.dirname(os.path.abspath(pfaffian.__file__)))
    env = dict(os.environ, PYTHONPATH=src)

    def form(name):
        path = str(tmp_path / f"{name}.pfaff")
        assert main(["catalog", "--write-form", name, path]) == 0
        return path

    runs = [
        [],
        ["catalog", "--list"],
        ["catalog", "--show", "contact"],
        ["catalog", "--write-form", "ray_form", str(tmp_path / "written.pfaff")],
        *(["check", form(name)] for name in ("contact", "scaled_exact", "ray_form")),
        ["factor2", form("ray_form"), "--grid", "5", "--csv",
         str(tmp_path / "factor2.csv")],
        ["foliate", form("product_exact"), "--curves", "3"],
        ["factor-global", form("exact_3var"), "--free-var", "z", "--grid", "3",
         "--staircase", "--csv", str(tmp_path / "global.csv")],
        ["reach", form("contact"), "--budget", "2000", "--free-var", "z"],
        ["invariance", form("contact")],
        ["invariance", form("scaled_exact"), "--nonlinear"],
    ]
    for argv in runs:
        done = subprocess.run([sys.executable, "-c", _MODULES_OF_RUN, *argv],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, (argv, done.stderr)
        assert done.stderr == ""
        modules, numpy_loaded = json.loads(done.stdout)
        loads, numpy_needed = _RUN_LOADS[argv[0] if argv else "import"]
        expected = {"pfaffian", "pfaffian.cli", "pfaffian.errors",
                    *(f"pfaffian.{m}" for m in loads)}
        assert (set(modules), numpy_loaded) == (expected, numpy_needed), argv
