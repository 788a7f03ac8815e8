"""Two-user 2x1 MISO broadcast channel with delayed CSIT and unequal-quality
current CSIT: closed-form DoF region plus a finite-SNR Monte-Carlo simulator
verifying that the preset transmission schemes hit the region's corners.
"""

__version__ = "0.1.0"

from .channel import ChannelRealization, SnrPoint, orth_complement, sample_channel, unit
from .evaluator import (
    DofEstimate,
    PlanValidationError,
    RateLedger,
    estimate_dof,
    estimate_dofs,
    evaluate_plan,
    residual_power_probe,
)
from .geometry import (
    CsitQuality,
    DofPoint,
    DofRegion,
    Halfspace,
    contains,
    corner_points,
    dof_region,
    outer_bound_slack,
    region_as_dict,
)
from .reports import ExperimentConfig, RunReport, region_export, run, sweep
from .schemes import (
    PRESET_NAMES,
    PrecoderSpec,
    QuantizationLink,
    SchemeConditionError,
    SchemePlan,
    SlotPlan,
    SymbolLayer,
    build_case_i,
    build_case_ii,
    build_case_ii_alt,
    build_ges12_asym,
    build_preset,
    build_sc_zf,
    plan_as_dict,
    validate_plan,
)

__all__ = [
    "__version__",
    "CsitQuality", "DofPoint", "DofRegion", "Halfspace",
    "dof_region", "corner_points", "contains", "outer_bound_slack", "region_as_dict",
    "SnrPoint", "ChannelRealization", "sample_channel", "orth_complement", "unit",
    "PrecoderSpec", "SymbolLayer", "QuantizationLink", "SlotPlan", "SchemePlan",
    "SchemeConditionError", "PRESET_NAMES",
    "build_ges12_asym", "build_case_i", "build_case_ii", "build_case_ii_alt",
    "build_sc_zf", "build_preset", "validate_plan", "plan_as_dict",
    "RateLedger", "DofEstimate", "PlanValidationError",
    "evaluate_plan", "estimate_dof", "estimate_dofs", "residual_power_probe",
    "ExperimentConfig", "RunReport", "run", "sweep", "region_export",
]
