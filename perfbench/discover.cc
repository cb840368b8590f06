// Workload `discover`: batch reverse engineering of one generated
// denormalized database of about a million rows (6 entities, 3 merged).
//
// Each repetition hands the library only text: it extracts Q from the
// generated program sources, builds a fresh catalog from the DDL and the
// CSV extensions, runs the pipeline cold, then again warm on the same
// catalog. `core` and `relational` do nearly all the work; the service,
// store and cluster layers do none, so Restruct, table-representation and
// thread-pool changes show here and not on `serve`.
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/thread_pool.h"
#include "core/oracle.h"
#include "pipeline_util.h"
#include "sql/scanner.h"
#include "workload/metrics.h"

namespace dbre::bench {
namespace {

// ~1M rows: 6 relations x 170k tuples (merged entities add columns, not
// rows).
constexpr size_t kRowsPerEntity = 170'000;
// The generator seed of the database's shape (see RenderInputs).
constexpr uint64_t kShapeSeed = 1;
constexpr int kSetupRepeats = 3;
// Full query coverage and no orphans: the generator's ground truth is
// wholly recoverable, so both recalls must read exactly 1.
constexpr double kExpectedRecall = 1.0;

workload::SyntheticSpec Spec() {
  workload::SyntheticSpec spec;
  spec.num_entities = 6;
  spec.num_merged = 3;
  spec.rows_per_entity = kRowsPerEntity;
  spec.emit_program_sources = true;
  spec.seed = kShapeSeed;
  return spec;
}

ThresholdOracle::Options OracleOptions() {
  ThresholdOracle::Options options;
  options.accept_hidden_objects = true;
  return options;
}

struct Repetition {
  double extract_s = 0, ingest_s = 0, cold_s = 0, warm_s = 0;
  double wall_s = 0;  // first call to last return
  PhaseClock cold_clock, warm_clock;
};

class Discover {
 public:
  Discover(const Args& args, Outcome* out)
      : args_(args), out_(out), tracer_(false) {}

  void Run();

 private:
  bool Setup();
  // One repetition; false when a call failed (already counted).
  bool Repeat(Repetition* rep);
  void Check(const PipelineReport& cold, const PipelineReport& warm);
  void ReportLayers(const std::vector<Repetition>& reps,
                    const MetricText& before, const MetricText& after,
                    double trace_overhead_pct);

  const Args& args_;
  Outcome* out_;
  Tracer tracer_;
  workload::SyntheticDatabase truth_;
  TextInputs inputs_;
  std::string reference_;  // the first cold report
  double setup_s_ = 0;
};

bool Discover::Setup() {
  Clock::time_point setup_start = Clock::now();
  Samples generate_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    Clock::time_point start = Clock::now();
    auto generated = workload::GenerateSynthetic(Spec());
    if (!generated.ok()) {
      out_->Fail("GenerateSynthetic: " + generated.status().ToString());
      return false;
    }
    truth_ = std::move(generated).value();
    inputs_ = RenderInputs(truth_, args_.seed);
    generate_s.Add(SecondsBetween(start, Clock::now()));
  }
  // The generated catalog itself is not needed past here: the program
  // receives only the rendered texts; the ground truth stays.
  truth_.database = Database();

  // One untimed repetition warms the process (allocator, page cache of
  // the code, lazily registered metric cells).
  Clock::time_point warmup_start = Clock::now();
  Repetition warmup;
  if (!Repeat(&warmup)) return false;
  double warmup_s = SecondsBetween(warmup_start, Clock::now());
  setup_s_ = generate_s.Median() + warmup_s;
  out_->notes.push_back(
      "setup: generate+render median " + FormatNumber(generate_s.Median()) +
      " s over " + std::to_string(kSetupRepeats) + ", warm-up repetition " +
      FormatNumber(warmup_s) + " s, total set-up wall " +
      FormatNumber(SecondsBetween(setup_start, Clock::now())) + " s; " +
      std::to_string(inputs_.csvs.size()) + " relations, " +
      FormatNumber(inputs_.csv_bytes / 1048576.0) + " MiB of CSV");
  return true;
}

bool Discover::Repeat(Repetition* rep) {
  int64_t root = tracer_.Open("discover.repetition", NowUs());
  Clock::time_point start = Clock::now();

  out_->attempted += 1;
  int64_t t0 = NowUs();
  auto joins = sql::BuildQueryJoinSetFromSources(inputs_.sources);
  int64_t t1 = NowUs();
  tracer_.Record("sql.extract", t0, t1, root);
  rep->extract_s = (t1 - t0) / 1e6;
  if (!joins.ok()) {
    out_->Fail("BuildQueryJoinSetFromSources: " + joins.status().ToString());
    return false;
  }

  out_->attempted += 1;
  auto catalog = LoadCatalog(inputs_);
  int64_t t2 = NowUs();
  tracer_.Record("relational.ingest", t1, t2, root);
  rep->ingest_s = (t2 - t1) / 1e6;
  if (!catalog.ok()) {
    out_->Fail("catalog ingest: " + catalog.status().ToString());
    return false;
  }

  ThresholdOracle oracle(OracleOptions());
  PipelineOptions cold_options, warm_options;
  rep->cold_clock.Attach(&cold_options);
  rep->warm_clock.Attach(&warm_options);

  out_->attempted += 1;
  rep->cold_clock.CallStarted();
  auto cold = RunPipeline(*catalog, *joins, &oracle, cold_options);
  rep->cold_clock.CallReturned();

  out_->attempted += 1;
  rep->warm_clock.CallStarted();
  auto warm = RunPipeline(*catalog, *joins, &oracle, warm_options);
  rep->warm_clock.CallReturned();
  rep->wall_s = SecondsBetween(start, Clock::now());
  tracer_.Close(root, NowUs());

  rep->cold_s = rep->extract_s + rep->ingest_s + rep->cold_clock.CallMs() / 1e3;
  rep->warm_s = rep->warm_clock.CallMs() / 1e3;
  if (tracer_.enabled()) {
    rep->cold_clock.RecordSpans(&tracer_, "core.run_pipeline.cold", root);
    rep->warm_clock.RecordSpans(&tracer_, "core.run_pipeline.warm", root);
  }
  if (!cold.ok() || !warm.ok()) {
    out_->Fail("RunPipeline: " +
               (cold.ok() ? warm.status() : cold.status()).ToString());
    return false;
  }
  Check(*cold, *warm);
  return true;
}

void Discover::Check(const PipelineReport& cold, const PipelineReport& warm) {
  std::string cold_text = ReportText(cold);
  if (cold_text != ReportText(warm)) {
    out_->Fail("discover: warm report differs from the cold one");
  }
  if (reference_.empty()) {
    reference_ = cold_text;
  } else if (cold_text != reference_) {
    out_->Fail("discover: cold report differs from the first repetition's");
  }
  double ind_recall =
      workload::CompareInds(cold.ind.inds, truth_.true_inds).Recall();
  double fd_recall =
      workload::CompareFds(cold.rhs.fds, truth_.true_fds).Recall();
  if (ind_recall != kExpectedRecall || fd_recall != kExpectedRecall) {
    out_->Fail("discover: recall IND " + FormatNumber(ind_recall) + ", FD " +
               FormatNumber(fd_recall) + " (expected " +
               FormatNumber(kExpectedRecall) + ")");
  }
}

void Discover::Run() {
  // Generation, ingest and Restruct, most of the run, use this thread
  // alone (see CpuRotation); the shared pool starts first, on every CPU.
  ThreadPool::Shared();
  CpuRotation rotation(std::chrono::milliseconds(20));
  if (!Setup()) return;

  // The traced run spends its first half untraced, so the tracing
  // overhead is measured against the same process and inputs.
  std::vector<Repetition> untraced, traced;
  Clock::time_point start = Clock::now();
  double untraced_budget = args_.trace ? args_.seconds / 2 : args_.seconds;
  do {
    untraced.emplace_back();
    if (!Repeat(&untraced.back())) return;
  } while (SecondsBetween(start, Clock::now()) < untraced_budget);
  MetricText before, after;
  if (args_.trace) {
    before = RegistryNow();
    tracer_.set_enabled(true);
    do {
      traced.emplace_back();
      if (!Repeat(&traced.back())) return;
    } while (SecondsBetween(start, Clock::now()) < args_.seconds);
    tracer_.set_enabled(false);
    after = RegistryNow();
  }

  // op: one cold reverse engineering (extract + ingest + cold
  // RunPipeline); step: the warm RunPipeline after it.
  EndToEnd e2e;
  double busy_s = 0;
  for (const Repetition& rep : untraced) {
    e2e.op_ms.Add(rep.cold_s * 1e3);
    e2e.step_ms.Add(rep.warm_s * 1e3);
    busy_s += rep.wall_s;
  }
  out_->notes.push_back("discover: " + std::to_string(untraced.size()) +
                        " untraced repetitions (op = extract + ingest + "
                        "cold RunPipeline; step = RunPipeline again on the "
                        "same catalog)");
  if (!args_.trace) {
    e2e.setup_s = setup_s_;
    e2e.peak_rss_mb = SelfPeakRssMb();
    e2e.ops_per_s = untraced.size() / busy_s;
    ReportEndToEnd(e2e, out_);
    return;
  }
  Samples traced_op_ms;
  for (const Repetition& rep : traced) traced_op_ms.Add(rep.cold_s * 1e3);
  out_->notes.push_back("discover: " + std::to_string(traced.size()) +
                        " traced repetitions");
  ReportLayers(traced, before, after,
               100.0 * (traced_op_ms.Median() - e2e.op_ms.Median()) /
                   e2e.op_ms.Median());
  if (!tracer_.WriteJsonLines(args_.spans_file)) {
    out_->Fail("cannot write " + args_.spans_file);
  }
  out_->notes.push_back("spans: " + args_.spans_file);
}

void Discover::ReportLayers(const std::vector<Repetition>& reps,
                            const MetricText& before,
                            const MetricText& after,
                            double trace_overhead_pct) {
  Layers layers;
  layers.ops = static_cast<double>(reps.size());
  double covered_ms = 0;
  for (const Repetition& rep : reps) {
    layers.wall_ms += rep.wall_s * 1e3;
    layers.busy_ms["sql.extract_pct"] += rep.extract_s * 1e3;
    layers.busy_ms["relational.ingest_pct"] += rep.ingest_s * 1e3;
    for (const PhaseClock* clock : {&rep.cold_clock, &rep.warm_clock}) {
      for (const auto& [phase, ms] : clock->PhaseMs()) {
        layers.busy_ms["core." + PhaseShortName(phase) + "_pct"] += ms;
      }
      layers.busy_ms["core.other_pct"] += clock->OtherMs();
      covered_ms += clock->CallMs();
    }
    covered_ms += (rep.extract_s + rep.ingest_s) * 1e3;
  }
  AddRegistryDeltas(before, after, &layers);
  CheckAccounting("discover", covered_ms, args_.span_tolerance_pct, &layers,
                  out_);
  layers.value["obs.trace_overhead_pct"] = trace_overhead_pct;
  dbre::bench::ReportLayers(layers, out_);
}

}  // namespace

Outcome RunDiscover(const Args& args) {
  Outcome out;
  Discover(args, &out).Run();
  return out;
}

}  // namespace dbre::bench
