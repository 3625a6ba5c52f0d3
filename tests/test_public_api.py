import os
import subprocess
import sys
from pathlib import Path

import pnrchan

PUBLIC_NAMES = [
    "CalibrationError", "CalibrationResult", "ChannelParams", "ExperimentRun",
    "MiReport", "NumericsError", "PnrchanError", "SecurityReport", "ValidationError",
    "binary_entropy", "calibrate_from_means", "calibrate_params", "channel",
    "coherent_overlap", "detection_rates", "empirical_distributions", "errors",
    "eve_params", "homodyne_mean", "information", "loss_db_to_transmissivity",
    "mi_bds", "mi_hl", "mi_homodyne", "mi_report", "mi_wf", "montecarlo",
    "mutual_information", "plugin_mi", "poisson_logpmf", "poisson_pmf", "receivers",
    "run_experiment", "security", "security_report_for", "shannon_entropy",
    "skellam_pmf_grid", "transmissivity_to_loss_db",
]


def test_public_names_are_pinned():
    # a fresh interpreter: other tests import submodules such as pnrchan.cli,
    # which would add their names to the package namespace
    code = ("import pnrchan; "
            "print(' '.join(sorted(n for n in dir(pnrchan) if not n.startswith('_'))))")
    src = str(Path(pnrchan.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 38
