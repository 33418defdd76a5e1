"""Smoke runs of the experiment scripts in ``scripts/``, in-process.

The scripts call the library with its defaults, so a signature change that
breaks one shows here.
"""

import importlib.util
import json
import os

import pytest

SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")


def _script(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, run", [
    ("catalog_report", lambda m: m.main([])),
    ("factor_demo", lambda m: m.main()),
    ("reach_probe", lambda m: m.main(["contact", "--free-var", "z",
                                      "--budget", "20000"])),
])
def test_script_runs(name, run, capsys):
    assert run(_script(name)) == 0
    lines = capsys.readouterr().out.splitlines()
    if name == "catalog_report":
        assert len(lines) == 7 and all(line.endswith(" ok") for line in lines)
        assert "contact           non_integrable      witness 1.000e+00 ok" in lines
    elif name == "factor_demo":
        assert ("  staircase path disagreement 0.000e+00 "
                "(integrable: solver-level)") in lines
        assert lines[-1].startswith("  same diagnostic on the contact form: ")
    else:
        assert lines[0] == "contact: probe (0.0, 0.0, 0.0), epsilon 0.3, seed 42"
        assert lines[3].startswith("  budget    20000: kind=full_dimensional ")
        assert lines[4].startswith("  surrounding line of z: fraction reached ")


def test_cli_outputs_script_records_every_run(tmp_path):
    out = tmp_path / "outputs.json"
    assert _script("cli_outputs").main([str(out)]) == 0
    records = json.loads(out.read_text(encoding="utf-8"))
    assert len(records) == 21
    assert all(r["exit"] == 0 and r["stderr"] == "" and r["stdout"] for r in records)
    # the polynomial forms come next to last, each scanned on several triples
    assert [r["command"] for r in records[17:19]] == [["check", "cyclic_4var"],
                                                      ["check", "cyclic_5var"]]
    assert [len(json.loads(r["stdout"])["per_triple_max"])
            for r in records[17:19]] == [4, 10]
    # the form whose coefficients tie in size, and vanish on a line, comes last
    factor2, foliate = records[19:]
    assert [factor2["command"], foliate["command"]] == [["factor2", "tied_2var"],
                                                        ["foliate", "tied_2var"]]
    report = json.loads(factor2["stdout"])
    # 162 before a step crossing both the transversal and a face came to end
    # at the transversal, which it meets first
    assert (report["evaluated_points"], report["skipped_points"]) == (182, 107)
    assert len(foliate["stdout"].splitlines()) == 1 + 73
    with_csv = [r["command"][:2] for r in records if r["csv"] is not None]
    assert len(with_csv) == 7 and all(c[0] in ("factor2", "factor-global")
                                      for c in with_csv)
