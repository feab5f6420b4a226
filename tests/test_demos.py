"""Every quick demo runs to completion against the current library.

Demo 05 trains for about two minutes and is left out.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = ["01_autodiff.py", "02_pose_algebra.py", "03_tracking_memory.py",
         "04_attention_refinement.py", "06_drift_metrics.py", "07_saliency.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(tmp_path, demo):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)], cwd=str(tmp_path),
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
