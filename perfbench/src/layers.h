// Per-layer metrics of the traced run.
//
// Every traced run prints the whole table below, so the names line up
// across workloads; a layer a workload does not reach in this process
// (the GP kernels inside pufferd, the orchestrator on place_media)
// reports 0. Values are medians over the traced repetitions of a run.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/flow.h"
#include "perfbench.h"

namespace perfbench {

using LayerSample = std::map<std::string, double>;

// Adds one flow's counters (FlowMetrics stage structs) and its evaluation
// route (RouteResult) into `s`, summing with what is already there.
void add_flow_layers(LayerSample& s, const puffer::FlowMetrics& flow,
                     const puffer::RouteResult& route);

// Turns summed counters into the ratio metrics (dirty fractions, reuse
// rates) using the raw totals add_flow_layers keeps under "_"-prefixed
// keys.
void finish_flow_layers(LayerSample& s);

// Reports every per-layer metric: the median over `samples` of each
// name, 0 where no sample has it.
void emit_layers(Report& report, const std::vector<LayerSample>& samples);

}  // namespace perfbench
