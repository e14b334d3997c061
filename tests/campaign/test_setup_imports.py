"""Campaign setup stays light: the verification tools load on demand.

The campaign benchmark times a fresh interpreter importing
``repro.campaign``; the checkers, the analysis formulas and the worker
pool are only needed by the tools that use them.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

_PROBE = """
import sys
import repro.campaign, repro.campaign.report
heavy = ("repro.commcheck", "repro.faultcheck", "repro.analysis", "repro.parallel")
loaded = sorted(
    m for m in sys.modules
    if m == "multiprocessing" or m.startswith("multiprocessing.")
    or any(m == h or m.startswith(h + ".") for h in heavy)
)
print(",".join(loaded))
"""


def test_campaign_import_loads_no_checker_or_pool():
    out = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True,
        timeout=120,
    )
    assert out.stdout.strip() == ""
