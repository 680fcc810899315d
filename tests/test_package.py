"""The package as its readers import it: the closed forms, the search and
the closed-form commands without numpy, and every Python example of the
README."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fronthaul_mimo
from fronthaul_mimo import cli

SRC = Path(fronthaul_mimo.__file__).resolve().parent.parent
README = SRC.parent / "README.md"


def run_python(code: str, stdin: str = "") -> subprocess.CompletedProcess:
    """``code`` in a fresh interpreter that imports the package from SRC."""
    return subprocess.run(
        [sys.executable, "-c", code], input=stdin, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120,
    )


def test_closed_forms_and_search_import_no_numpy():
    # a None entry in sys.modules makes every import of numpy raise
    proc = run_python(
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "import fronthaul_mimo as fm\n"
        "cfg = fm.SystemConfig.from_reference_snr(15.0)\n"
        "rate = fm.achievable_rate(cfg, fm.DesignPoint(B_w=2e8, M=2500, b=1)).rate_bps\n"
        "best = fm.optimize_full(cfg)\n"
        "print(rate > 0, best.best.b, best.rate.rate_bps > rate, fm.threshold_f(2) < 1)\n"
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "True 1 True True\n"


# runs each argv through cli.main and prints the exit codes and outputs as
# JSON, then whether numpy was imported and the simulator was executed (a
# module that LazyLoader has not run yet is not yet a plain module)
RUN_MAIN = (
    "import contextlib, io, json, sys, types\n"
    "from fronthaul_mimo import cli\n"
    "results = []\n"
    "for argv in json.load(sys.stdin):\n"
    "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
    "        results.append([cli.main(argv), out.getvalue()])\n"
    "simulator = sys.modules['fronthaul_mimo.montecarlo']\n"
    "print(json.dumps([results, 'numpy' in sys.modules,\n"
    "                  type(simulator) is types.ModuleType]))\n"
)


def test_closed_form_commands_import_no_numpy(tmp_path):
    sweep = tmp_path / "sweep.cfg"
    sweep.write_text("B_w = 2e8\nM = 64\nsweep_axis = b\nsweep_values = 1,2,3\n",
                     encoding="utf-8")
    argvs = [["optimize"], ["rate", "--bw", "2e8", "--m", "64", "--b", "2"],
             ["preset", "fig2"], ["sweep", "--config", str(sweep)]]
    expected = []
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            expected.append([cli.main(argv), out.getvalue()])
    assert [code for code, _ in expected] == [0] * len(argvs)
    blocked = run_python("import sys\nsys.modules['numpy'] = None\n" + RUN_MAIN,
                         stdin=json.dumps(argvs))
    assert (blocked.returncode, blocked.stderr) == (0, ""), blocked.stderr
    assert json.loads(blocked.stdout)[0] == expected
    proc = run_python(RUN_MAIN, stdin=json.dumps(argvs))
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    assert json.loads(proc.stdout) == [expected, False, False]


@pytest.mark.parametrize("code", [
    # imported before the CLI, the simulator is the module the CLI uses
    "import fronthaul_mimo.montecarlo as simulator\n"
    "from fronthaul_mimo import cli\n"
    "print(cli.montecarlo is simulator)\n",
    # registered by the CLI, it is the package's attribute and what an
    # import returns, as after an import
    "import fronthaul_mimo\n"
    "from fronthaul_mimo import cli\n"
    "bound = fronthaul_mimo.montecarlo\n"
    "import fronthaul_mimo.montecarlo as simulator\n"
    "print(bound is cli.montecarlo is simulator and callable(simulator.empirical_rate))\n",
], ids=["imported_first", "registered_first"])
def test_cli_simulator_is_the_imported_module(code):
    proc = run_python(code)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "True\n")


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) >= 2
    proc = run_python(
        "import json, sys\n"
        "namespace = {}\n"
        "for i, block in enumerate(json.load(sys.stdin)):\n"
        "    exec(compile(block, f'README.md python block {i}', 'exec'), namespace)\n",
        stdin=json.dumps(blocks),
    )
    assert proc.returncode == 0, proc.stderr


def readme_config_table() -> dict[str, str]:
    """Each key of the README's config table and its default cell, the
    backticks stripped; a row may name several keys."""
    text = README.read_text(encoding="utf-8")
    table = text.split("| key | default | meaning |\n|---|---|---|\n", 1)[1].split("\n\n", 1)[0]
    rows = {}
    for line in table.splitlines():
        keys, default = line.split("|")[1:3]
        for key in re.findall(r"`([^`]+)`", keys):
            rows[key] = default.strip().strip("`")
    return rows


def test_readme_config_table_matches_the_dataclasses():
    # the table is written by hand: every key the parser knows has a row,
    # and each literal default is the dataclass field's
    rows = readme_config_table()
    assert sorted(cli.KNOWN_KEYS - rows.keys()) == []
    defaults = {**vars(fronthaul_mimo.SystemConfig()), **vars(cli.SweepSpec())}
    for key in ("K", "C_f", "N", "L", "theta", "X_int", "bind", "seed", "mc_mode"):
        default = defaults[key]
        assert type(default)(rows[key]) == default, key
