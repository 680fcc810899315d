"""The package as its readers import it: the closed forms and the search
without numpy, and every Python example of the README."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import fronthaul_mimo

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
