// Umbrella header: the full public API of the H2H library.
//
// Typical usage (see examples/quickstart.cpp): create one long-lived
// Planner and send it PlanRequests. The Planner caches the constructed
// Simulator/CostTable state per (model, bandwidth, batch), so re-planning
// the same scenario — a bandwidth sweep revisiting a setting, a modality
// toggling back on — is warm: zero accelerator-model queries, only the
// sub-second search itself (Fig. 5b).
//
//   #include "h2h.h"
//   h2h::Planner planner;  // the standard 12-accelerator system
//   h2h::PlanResponse r = planner.plan(h2h::PlanRequest::zoo(
//       h2h::ZooModel::MoCap, h2h::BandwidthSetting::LowMinus));
//   // bandwidth changed at runtime? plan again — warm requests skip setup:
//   h2h::PlanResponse r2 = planner.plan(h2h::PlanRequest::zoo(
//       h2h::ZooModel::MoCap, h2h::BandwidthSetting::Mid));
//
// PlanRequest also carries batch size, per-step toggles/options, the remap
// objective, an optional wall-clock time budget, and an optional warm-start
// mapping from a prior response; custom pass pipelines (mapping_pass.h) can
// replace the default four steps. For a single plan with no session to
// keep, plan_once(model, sys) runs the same pipeline once.
#pragma once

#include "accel/analytical_models.h"
#include "accel/catalog.h"
#include "accel/registry.h"
#include "accel/tiling.h"
#include "core/baselines.h"
#include "core/dynamic_modality.h"
#include "core/mapping_pass.h"
#include "core/plan_options.h"
#include "core/planner.h"
#include "model/blocks.h"
#include "model/summary.h"
#include "model/synthetic.h"
#include "model/zoo.h"
#include "repair/fault.h"
#include "repair/fault_injector.h"
#include "repair/repair.h"
#include "system/mapping_io.h"
#include "system/schedule_analysis.h"
#include "tenant/co_mapper.h"
#include "tenant/tenant.h"
#include "report/experiment.h"
#include "report/mapping_report.h"
#include "report/paper_tables.h"
#include "util/csv.h"
#include "util/error.h"
#include "util/log.h"
#include "util/str.h"
#include "util/table.h"
