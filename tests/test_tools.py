import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "smoke_digests.py"


def test_smoke_digests_runs_every_command():
    # each of the tool's commands must still run on the packaged smoke profile
    proc = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines), lines
    paths = [line.split("  ", 1)[1] for line in lines]
    assert len(lines) == 32 and len(set(paths)) == 32
