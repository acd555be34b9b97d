"""Hardware-algorithm co-design: IR, cost models, CGRA mapping, DSE.

A design-time layer: the runtime packages (``core``, ``fleet``, ``stream``,
``city`` and what they run) never import it, so neither a session nor a
pool worker maps these modules or networkx.  The few runtime entry points
that lower to the IR (``AcousticPerceptionPipeline.to_ir``,
``EnergyTrigger.to_ir``, ``repro.core.mode_energy_report``) import it when
called.
"""

from repro.hw.cgra import PE_KIND_SUPPORT, CgraFabric, PeSpec
from repro.hw.codesign import (
    CodesignResult,
    CodesignStep,
    DesignPoint,
    evaluate_point,
    run_codesign,
    surrogate_error_deg,
)
from repro.hw.cost_model import CostReport, OpCost, estimate_cost, op_cost
from repro.hw.devices import CGRA_16x16, CORTEX_M7, DEVICES, RASPI4, DeviceModel
from repro.hw.ir import BYTES_PER_ELEMENT, IRGraph, OpSpec, dsp_op, lower_module
from repro.hw.mapper import MappedOp, MappingResult, map_graph
from repro.hw.pareto import dominates, hypervolume_2d, pareto_front
from repro.hw.profiler import LayerTiming, ProfileReport, profile_model, time_callable
from repro.hw.roofline import RooflinePoint, attainable_gflops, place_op, roofline_report

from repro.hw.schedule import PipelineSchedule, StagePlan, pipeline_schedule, plan_stages
from repro.hw.report import codesign_report_md, cost_report_md, markdown_table, roofline_report_md
__all__ = [
    "codesign_report_md",
    "cost_report_md",
    "markdown_table",
    "roofline_report_md",

    "PipelineSchedule",
    "StagePlan",
    "pipeline_schedule",
    "plan_stages",

    "PE_KIND_SUPPORT",
    "CgraFabric",
    "PeSpec",
    "CodesignResult",
    "CodesignStep",
    "DesignPoint",
    "evaluate_point",
    "run_codesign",
    "surrogate_error_deg",
    "CostReport",
    "OpCost",
    "estimate_cost",
    "op_cost",
    "CGRA_16x16",
    "CORTEX_M7",
    "DEVICES",
    "RASPI4",
    "DeviceModel",
    "BYTES_PER_ELEMENT",
    "IRGraph",
    "OpSpec",
    "dsp_op",
    "lower_module",
    "MappedOp",
    "MappingResult",
    "map_graph",
    "dominates",
    "hypervolume_2d",
    "pareto_front",
    "LayerTiming",
    "ProfileReport",
    "profile_model",
    "time_callable",
    "RooflinePoint",
    "attainable_gflops",
    "place_op",
    "roofline_report",
]
