"""Adaptive hybrid-parallel sampling for conditional diffusion, simulated.

The package couples an analytic Gaussian-mixture denoiser (exact conditional
and unconditional scores, so branch discrepancies carry no estimation noise)
with a discrete-event model of a small device cluster. A run warms up with
both guidance branches split across two devices, watches the branch
discrepancy flatten, pipelines the conditional branch across devices for a
bounded window, then reconnects for the final steps.
"""
from .config import (DEFAULT_LINK, DEFAULT_SCHEDULE, PRESETS, ExperimentConfig,
                     default_mixture, load_config)
from .engine import (ExactPath, ExecutionPlan, PlanVariant, RunResult, initial_latents,
                     run_plan, run_serial)
from .errors import (DegenerateInputError, HistoryError, HybridparError,
                     NumericError, ParameterError, PlanError, SequencingError,
                     SeriesParseError, ShapeError, StepUnderflowError)
from .metrics import Metrics, compare_runs, fidelity_l1, fidelity_l2, psnr_analog
from .mixture import (Condition, GaussianMixture, ScoreEval, conditional,
                      conditional_grad, eps_prediction,
                      noised_mixture, noised_score, sample_x0, score)
from .monitor import (DiscrepancySeries, SlopeNoiseModel, Stage, StageState,
                      SwitchConfig, hoeffding_false_alarm, rel_mae,
                      replay_series, score_ratio_estimate, slope, stage_at,
                      update_controller)
from .schedules import (GuidanceParams, LatentState, NoiseSchedule,
                        build_schedule, cfg_combine, ddim_step)
from .trace import (BusyInterval, DeviceSpec, LinkSpec, MessageEvent, RunTrace,
                    Timeline, account_comm)

__version__ = "0.1.0"
