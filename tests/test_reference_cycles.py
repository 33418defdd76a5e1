"""A CLI run leaves no reference cycles behind.

Everything a run builds (expression trees, generated code, analysis state)
goes by reference counting when the run ends, so the cyclic collector finds
nothing to free after it.  Each command runs once first: the first run of a
subcommand imports its modules, and importing leaves cycles of its own.
"""

import contextlib
import gc
import io

import pytest

from pfaffian.catalog import entry
from pfaffian.cli import main
from pfaffian.forms import format_form_file

RUNS = {
    "check": ("contact", ["check", "{form}"]),
    "invariance": ("contact", ["invariance", "{form}"]),
    "reach": ("contact", ["reach", "{form}", "--free-var", "z", "--csv", "{csv}"]),
    "factor2": ("ideal_gas_heat", ["factor2", "{form}", "--csv", "{csv}"]),
    "factor-global": ("scaled_exact",
                      ["factor-global", "{form}", "--free-var", "z", "--staircase"]),
    "foliate": ("ideal_gas_heat", ["foliate", "{form}"]),
}


def _cyclic_garbage(argv):
    """Objects the collector frees after ``main(argv)`` ran with it disabled."""
    gc.collect()
    gc.disable()
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) == 0
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("command", sorted(RUNS))
def test_cli_run_leaves_no_reference_cycles(command, tmp_path):
    name, template = RUNS[command]
    form = tmp_path / f"{name}.pfaff"
    form.write_text(format_form_file(entry(name).form), encoding="utf-8")
    argv = [arg.format(form=form, csv=tmp_path / "out.csv") for arg in template]
    _cyclic_garbage(argv)
    assert _cyclic_garbage(argv) == 0
