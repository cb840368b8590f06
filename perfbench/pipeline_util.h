// In-process helpers shared by the `discover`, `revalidate` and `serve`
// workloads: the generated database rendered to the texts the program
// receives (DDL, CSV, program sources), a catalog built back from those
// texts, and phase boundaries taken from PipelineOptions::on_phase.
#ifndef DBRE_PERFBENCH_PIPELINE_UTIL_H_
#define DBRE_PERFBENCH_PIPELINE_UTIL_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/status.h"
#include "core/pipeline.h"
#include "relational/database.h"
#include "workload/generator.h"

namespace dbre::bench {

struct TextInputs {
  std::string ddl;
  std::vector<std::pair<std::string, std::string>> csvs;  // relation, CSV
  std::vector<std::pair<std::string, std::string>> sources;  // name, text
  size_t csv_bytes = 0;
};

// The generator draws a database's shape (which entity references which,
// where merged entities land) from the same seed as its values, and the
// shape alone moves the pipeline's work by up to 2x between seeds. Each
// workload therefore generates from a fixed shape seed, and the run's
// --seed picks the inputs' row order (every relation's CSV rows and the
// program sources are shuffled): the same seed gives the same inputs,
// another seed different inputs of equal shape.
TextInputs RenderInputs(const workload::SyntheticDatabase& db,
                        uint64_t order_seed);

// A fresh catalog: the DDL executed, then every CSV loaded.
Result<Database> LoadCatalog(const TextInputs& inputs);

// The report as the service renders it for byte comparison (no timings).
std::string ReportText(const PipelineReport& report);

// Registry::Default() parsed, for counter deltas around in-process calls.
MetricText RegistryNow();

// Phase boundaries of one RunPipeline call from the on_phase hook: each
// phase runs from its start to the next phase's start, the last one to
// the call's return; the rest of the call's wall time is "other" (input
// cache materialization and the working clone before the first phase).
class PhaseClock {
 public:
  // Installs the hook on `options` (which must outlive the run).
  void Attach(PipelineOptions* options);
  void CallStarted() { call_start_us_ = NowUs(); starts_.clear(); }
  void CallReturned() { call_end_us_ = NowUs(); }

  double CallMs() const { return (call_end_us_ - call_start_us_) / 1e3; }
  // (phase name, ms) in pipeline order.
  std::vector<std::pair<std::string, double>> PhaseMs() const;
  double OtherMs() const;
  // Records the call span with one child span per phase.
  void RecordSpans(Tracer* tracer, const std::string& call_name,
                   int64_t parent) const;

 private:
  int64_t call_start_us_ = 0;
  int64_t call_end_us_ = 0;
  std::vector<std::pair<std::string, int64_t>> starts_;
};

// The short layer name of a pipeline phase ("ind_discovery" -> "ind").
std::string PhaseShortName(const std::string& phase);

}  // namespace dbre::bench

#endif  // DBRE_PERFBENCH_PIPELINE_UTIL_H_
