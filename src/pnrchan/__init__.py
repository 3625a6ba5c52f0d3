"""BPSK coherent-state channel with a photon-number-resolving hybrid receiver.

Analytic conditional statistics for the three readout strategies (raw count
pair, count difference, difference sign), their mutual informations, the
ideal-homodyne reference, wiretap-channel key figures under individual and
collective attacks, and a reproducible Monte Carlo shot simulator with
experimental-record ingestion.
"""

__version__ = "0.1.0"

from .channel import (
    ChannelParams,
    coherent_overlap,
    detection_rates,
    eve_params,
    loss_db_to_transmissivity,
    transmissivity_to_loss_db,
)
from .errors import CalibrationError, NumericsError, PnrchanError, ValidationError
from .information import (
    MiReport,
    binary_entropy,
    mi_bds,
    mi_hl,
    mi_homodyne,
    mi_report,
    mi_wf,
    mutual_information,
    shannon_entropy,
)
from .montecarlo import (
    CalibrationResult,
    ExperimentRun,
    calibrate_from_means,
    calibrate_params,
    empirical_distributions,
    plugin_mi,
    run_experiment,
)
from .receivers import (
    homodyne_mean,
    poisson_logpmf,
    poisson_pmf,
    skellam_pmf_grid,
)
from .security import SecurityReport, security_report_for
