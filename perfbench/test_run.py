"""Tests of the run's timing arithmetic and of the reference loop.

Run from the repository root with ``python -m pytest perfbench``.
"""

import os
import sys
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference  # noqa: E402
import run  # noqa: E402


def _fake_run(times, slowdowns, jobs=2, failed=0, setup_times=()):
    return SimpleNamespace(jobs=list(range(jobs)), times=times, slowdowns=slowdowns,
                           attempted=len(times), failures=[None] * failed,
                           setup_times=list(setup_times))


def test_job_times_divide_each_pass_by_its_own_slowdown():
    fake = _fake_run([1.0, 2.0, 3.0, 8.0, 2.0, 4.0], [1.0, 2.0, 2.0])
    # scaled passes: [1, 2], [1.5, 4], [1, 2]
    assert run._job_times(fake) == [1.0, 2.0]
    assert run._job_times(fake, scaled=False) == [2.0, 4.0]


def test_end_to_end_scales_times_and_setups_by_their_pass():
    fake = _fake_run([1.0, 3.0, 2.0, 6.0], [1.0, 2.0], failed=1, setup_times=[0.5, 0.5])
    scaled = run.end_to_end_metrics(fake)
    assert scaled["job_p50_s"] == 2.0 and scaled["setup_s"] == 0.375
    assert scaled["jobs_per_s"] == 3 / 4 * 2 / 4.0
    assert scaled["completed_frac"] == 0.75
    assert run.end_to_end_metrics(fake, scaled=False)["setup_s"] == 0.5


def test_reference_runs_at_least_once_and_for_its_share():
    ref = reference.Reference()
    ref.sample(0.0)
    assert ref.calls == 1
    ref.sample(0.1)
    assert ref.seconds >= reference.SHARE * 0.1
    assert ref.slowdown() == ref.seconds / ref.calls / reference.UNIT_S
