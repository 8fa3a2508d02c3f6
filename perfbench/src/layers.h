// The traced pass shared by every workload: tracer sizing, the per-layer
// numbers read from the program's registry counters and histograms, and
// the self-time table built from the captured spans.
#pragma once

#include <cstddef>
#include <string>

#include "obs/tracer.h"
#include "report.h"

namespace perfbench {

// Runs `call` inside a `name` span while tracing is on, and bare otherwise,
// so untraced passes time the program's calls without the benchmark's
// spans.
template <typename Call>
auto spanned(const char* name, Call&& call) {
  if (!mecsched::obs::Tracer::global().enabled()) return call();
  const mecsched::obs::ScopedTimer span(name, "perfbench");
  return call();
}

// Current value of a registry counter (0 when never bumped).
double registry_counter(const std::string& name);

// Clears the global registry so a pass reads only its own counters.
void reset_registry();

// Spans one pass records, read from the `<span>.seconds` histograms every
// obs::ScopedTimer feeds: run an untraced pass first, then size the
// tracer ring from it so the traced pass drops nothing.
std::size_t spans_in_last_pass();

// Enables the global tracer with room for `spans` complete events plus
// slack for instants.
void start_tracing(std::size_t spans);

// Stops tracing; writes the Chrome trace to <out_dir>/trace.json; fills
// obs.tracer.*, trace.*, and self.* metrics (self time per span the
// config's tables name, the rest summed in self.other_s, and the pass's
// unexplained remainder: the self time of the perfbench.pass root span)
// plus the span-derived serve/assign/lp/dta/workload times. A dropped
// event fails the run.
void finish_tracing(const RunConfig& config, Report& report);

// Fills control.*, exec.* (except parallel efficiency) and lp.* counters
// from the registry after a traced pass.
void read_registry_layers(Report& report);

// Writes every metric of `report` as JSON to <out_dir>/layers.json.
void write_layers_json(const std::string& out_dir, const Report& report);

}  // namespace perfbench
