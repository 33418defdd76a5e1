"""Tests of the benchmark's input generator.

Run from the repository root with ``python -m pytest perfbench``.
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from pfaffian.forms import parse_form_file  # noqa: E402
from pfaffian.integrability import classify  # noqa: E402


def _texts(workload, seed, workdir="w"):
    files, jobs = workloads.build(workload, seed, workdir)
    return files, jobs


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    files_a, jobs_a = _texts(workload, 11)
    files_b, jobs_b = _texts(workload, 11)
    assert files_a == files_b
    assert jobs_a == jobs_b


@pytest.mark.parametrize("workload", ("classify-sweep", "reach-probe"))
def test_different_seed_gives_different_inputs(workload):
    files_a, jobs_a = _texts(workload, 11)
    files_b, jobs_b = _texts(workload, 12)
    assert (files_a, jobs_a) != (files_b, jobs_b)
    if workload == "classify-sweep":
        assert set(files_a.values()).isdisjoint(files_b.values())


def test_factor_build_seed_moves_only_the_exact_3var_base():
    _, jobs_a = _texts("factor-build", 11)
    _, jobs_b = _texts("factor-build", 12)
    changed = [a.label for a, b in zip(jobs_a, jobs_b) if a != b]
    assert changed == ["exact_3var"]


def test_written_form_files_are_byte_identical(tmp_path):
    def write(seed, name):
        workdir = tmp_path / name
        workdir.mkdir()
        files, _ = workloads.build("classify-sweep", seed, str(workdir))
        workloads.write_files(files)
        return {p.name: p.read_bytes() for p in workdir.iterdir()}

    first, again, other = write(5, "a"), write(5, "b"), write(6, "c")
    assert first == again and len(first) == 63
    assert all(first[name] != other[name] for name in first)


def test_sweep_design_is_balanced():
    files, jobs = _texts("classify-sweep", 3)
    checks = [j for j in jobs if j.kind == "check"]
    invariance = [j for j in jobs if j.kind == "invariance"]
    assert len(checks) == len(files) == 63
    assert len(invariance) == len(workloads.SWEEP_CLASSES)
    for klass in workloads.SWEEP_CLASSES:
        assert sum(j.expect == klass for j in checks) == 21


@pytest.mark.parametrize("seed", (1, 2))
def test_every_sweep_form_gets_its_promised_class(seed):
    files, jobs = _texts("classify-sweep", seed)
    for job in jobs:
        if job.kind != "check":
            continue
        verdict = classify(parse_form_file(files[job.argv[1]]))
        assert verdict.classification == job.expect, job.label


def test_catalog_copies_parse_and_classify():
    for e in workloads.ENTRIES:
        text = workloads.form_text(e.var_names, e.coefficients, e.lows, e.highs)
        assert classify(parse_form_file(text)).classification == e.expected_class
