"""Every demo runs to completion: they call the boundary-derivative
kernel, the Birkhoff estimator, the radial distortion integrals, the disk
and strip preimage trees (their `explored`, `max_residual()` and
`farfield_pruned` read-outs), the shadowing simulation and the omitted-value
checks."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["01_preimage_counting.py",
                                  "02_lyapunov_three_ways.py",
                                  "03_distortion_calculus.py",
                                  "04_lamination_flows.py",
                                  "05_shadowing.py",
                                  "06_parabolic_counting.py",
                                  "07_omitted_value.py"])
def test_demo_exits_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
