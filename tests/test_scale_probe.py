"""scripts/scale_probe.py times and checks window Hom, isomorphism and splitting."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_small_windows_are_timed_and_multiplied_back():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "scale_probe.py"), "--radius", "2", "--lengths", "2", "--box", "1"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["window", "dim", "points", "End", "dim", "End", "s", "iso", "s", "split", "s", "pieces"]
    cells = [row.rsplit(None, 7) for row in rows]
    assert [c[0] for c in cells] == ["M(2,0)+M(2,0) r=2", "six simples b=1"]
    # End of M(2,0) twice is the 2x2 matrices over End M(2,0) = Q[x]/(x^2);
    # End of the six simples (two pairs, two singles) is M_2(Q)^2 x Q^2
    assert [c[1:4] for c in cells] == [["20", "5", "8"], ["28", "9", "10"]]
    assert [c[7] for c in cells] == ["10+10", "9+3+9+1+3+3"]
    assert all(float(x) >= 0 for c in cells for x in c[4:7])
