import json

import pytest

from pfaffian.catalog import catalog, entry
from pfaffian.cli import main, run_command
from pfaffian.factor import FactorizationResult, verify_factorization
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


def test_catalog_classifications_match_expectations():
    for e in catalog():
        verdict = classify(e.form)
        assert verdict.classification == e.expected_class, e.name


def test_catalog_probe_points_not_singular():
    from pfaffian.forms import is_singular_at

    for e in catalog():
        assert e.form.domain.contains(e.probe)
        assert not is_singular_at(e.form, e.probe)


def test_catalog_references_verify_tightly():
    for e in catalog():
        psi0, mu0 = e.psi0_fn(), e.mu0_fn()
        if psi0 is None:
            continue
        result = FactorizationResult(
            psi=psi0, mu=mu0, method="reference"
        )
        samples = e.form.domain.samples(64, margin=0.05)
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
    assert run_command(["check", str(contact_file), "--tol", "1e-8"]) == 0
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


@pytest.mark.parametrize("flag, value", [
    ("--epsilon", "-1"),
    ("--epsilon", "0"),
    ("--epsilon", "nan"),
    ("--epsilon", "inf"),
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
