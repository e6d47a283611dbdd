"""The repository's own check scripts, run as they are run by hand."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_name_in_src_has_a_caller():
    # tools/callers.py prints each name of src/ that nothing calls, reads
    # or sets; "no function exists without a caller" means it prints none
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "callers.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
