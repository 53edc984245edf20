"""Linear-feedback toolkit for an optically trapped suspended mirror."""

__version__ = "0.1.0"

from .model import (CavityParams, MirrorParams, NoiseEnv, ServoParams,
                    SystemConfig, intracavity_photons, load_config,
                    save_config)
from .response import (ComplexResponse, EffectiveMode, cancellation_gain,
                       effective_susceptibility, extract_mode,
                       mech_susceptibility, open_loop_gain, optical_spring,
                       servo_response, stability_map)
from .spectra import (ModeTemperature, Spectrum, displacement_to_voltage,
                      freqnoise_spectrum, mode_temperature, occupations,
                      thermal_spectrum, welch_psd)
from .dynamics import (EnsembleResult, RateMeasurement, SimPlan,
                       detuning_scan, exact_mean_phonon, fit_decoherence_rate,
                       measure_rate, predicted_rate, run_ensemble,
                       simulate_trajectory)
from .coherence import CoherenceBudget, feasibility_budget

__all__ = [
    "CavityParams", "MirrorParams", "NoiseEnv", "ServoParams", "SystemConfig",
    "intracavity_photons", "load_config", "save_config",
    "ComplexResponse", "EffectiveMode", "cancellation_gain",
    "effective_susceptibility", "extract_mode", "mech_susceptibility",
    "open_loop_gain", "optical_spring", "servo_response", "stability_map",
    "ModeTemperature", "Spectrum", "displacement_to_voltage",
    "freqnoise_spectrum", "mode_temperature", "occupations",
    "thermal_spectrum", "welch_psd",
    "EnsembleResult", "RateMeasurement", "SimPlan", "detuning_scan",
    "exact_mean_phonon", "fit_decoherence_rate", "measure_rate",
    "predicted_rate", "run_ensemble", "simulate_trajectory",
    "CoherenceBudget", "feasibility_budget",
]
