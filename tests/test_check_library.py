import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_library_checks_pass():
    # the five static checks of scripts/check_library.py, as CI runs them
    out = subprocess.run(
        [sys.executable, "scripts/check_library.py"], cwd=ROOT, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stdout + out.stderr
