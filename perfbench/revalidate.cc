// Workload `revalidate`: live mutations against one large, already
// discovered catalog (3 entities, 1 merged, 300k rows per extension).
//
// A closed loop of rounds: each round applies one DML batch to the merged
// entity's host relation with sql::ExecuteDmlScript, then re-validates the
// dependencies with RunPipeline(run_restruct = false). The batches follow
// a fixed 9-round cycle — six 10k-row in-place UPDATEs that toggle a
// merged payload column, two 1k-row INSERTs and one DELETE of those
// inserts — so the extension returns to its start state after every
// cycle. The same `relational` layer serves writes (Table mutation
// tracking, QueryCache::BuildDelta) beside discovery reads; Restruct and
// Translate never run, so a Restruct change must read unchanged here. The
// median covers the in-place and append paths; ops_per_s, a mean, also
// weighs the structural rebuild after a DELETE (one round in nine).
#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/thread_pool.h"
#include "core/oracle.h"
#include "pipeline_util.h"
#include "relational/csv.h"
#include "sql/dml.h"
#include "sql/scanner.h"

namespace dbre::bench {
namespace {

constexpr size_t kRowsPerEntity = 300'000;
// The generator seed of the catalog's shape (see RenderInputs).
constexpr uint64_t kShapeSeed = 1;
constexpr size_t kUpdateRows = 10'000;
constexpr size_t kInsertRows = 1'000;
constexpr int kSetupRepeats = 3;
// Every kCheckEvery-th timed round, the first one included, is compared
// against a cold rerun over a fresh copy of its rows; 50 is coprime with
// the 9-round cycle, so the checked position walks through every batch
// kind.
constexpr size_t kCheckEvery = 50;

enum class Batch { kUpdateOn, kUpdateOff, kInsertFirst, kInsertSecond,
                   kDelete };
constexpr Batch kCycle[] = {Batch::kUpdateOn,    Batch::kUpdateOff,
                            Batch::kInsertFirst, Batch::kUpdateOn,
                            Batch::kUpdateOff,   Batch::kInsertSecond,
                            Batch::kUpdateOn,    Batch::kUpdateOff,
                            Batch::kDelete};

const char* BatchLayer(Batch batch) {
  switch (batch) {
    case Batch::kUpdateOn:
    case Batch::kUpdateOff:
      return "sql.dml_update";
    case Batch::kInsertFirst:
    case Batch::kInsertSecond:
      return "sql.dml_insert";
    case Batch::kDelete:
      return "sql.dml_delete";
  }
  return "sql.dml";
}

std::string Literal(const Value& value) {
  if (value.is_null()) return "NULL";
  if (value.is_int()) return std::to_string(value.as_int());
  std::string text = "'";
  for (char c : value.ToString()) {
    if (c == '\'') text += '\'';
    text += c;
  }
  return text + "'";
}

PipelineOptions RevalidateOptions() {
  PipelineOptions options;
  options.run_restruct = false;
  return options;
}

struct Round {
  Batch batch = Batch::kUpdateOn;
  double dml_ms = 0, pipeline_ms = 0, wall_ms = 0;
  PhaseClock clock;
};

class Revalidate {
 public:
  Revalidate(const Args& args, Outcome* out)
      : args_(args), out_(out), tracer_(false) {}
  void Run();

 private:
  bool Setup();
  bool PlanBatches(const Table& host);
  // One round; `check` compares its report with a cold rerun afterwards.
  bool DoRound(size_t index, bool check, Round* round);
  void CheckAgainstCold(const PipelineReport& incremental, size_t index);
  void ReportLayers(const std::vector<Round>& rounds, const MetricText& before,
                    const MetricText& after, double trace_overhead_pct);

  const Args& args_;
  Outcome* out_;
  Tracer tracer_;
  TextInputs inputs_;
  Database catalog_;
  std::vector<EquiJoin> joins_;
  std::string scripts_[5];  // indexed by Batch
  double setup_s_ = 0;
};

bool Revalidate::PlanBatches(const Table& host) {
  // The merged entity's identifier and payload: the generator's
  // ground-truth FD on the host relation.
  const RelationSchema& schema = host.schema();
  const std::string& relation = schema.name();
  std::string key = schema.unique_constraints().front().names().front();
  std::string merged_id, toggled;
  for (const Attribute& attribute : schema.attributes()) {
    if (attribute.name.rfind("m0_id", 0) == 0) merged_id = attribute.name;
    if (attribute.name.rfind("m0_p", 0) == 0) toggled = attribute.name;
  }
  if (merged_id.empty() || toggled.empty()) return false;
  size_t key_col = schema.AttributeIndex(key).value();
  size_t id_col = schema.AttributeIndex(merged_id).value();

  // The UPDATE range [1, bound) of merged ids covering ~kUpdateRows rows:
  // whole identifier groups, so the FD id -> payload keeps holding.
  std::vector<size_t> per_id;
  int64_t max_key = 0;
  for (const ValueVector& row : host.rows()) {
    int64_t id = row[id_col].as_int();
    if (static_cast<size_t>(id) >= per_id.size()) per_id.resize(id + 1);
    ++per_id[static_cast<size_t>(id)];
    max_key = std::max(max_key, row[key_col].as_int());
  }
  int64_t bound = 1;
  for (size_t covered = 0;
       covered < kUpdateRows && static_cast<size_t>(bound) < per_id.size();
       ++bound) {
    covered += per_id[static_cast<size_t>(bound)];
  }
  std::string range = " WHERE " + merged_id + " >= 1 AND " + merged_id +
                      " < " + std::to_string(bound) + ";";
  scripts_[static_cast<int>(Batch::kUpdateOn)] =
      "UPDATE " + relation + " SET " + toggled + " = 'toggled_on'" + range;
  scripts_[static_cast<int>(Batch::kUpdateOff)] =
      "UPDATE " + relation + " SET " + toggled + " = 'toggled_off'" + range;

  // INSERTs copy existing tuples outside the toggled range under fresh
  // keys, so every dependency keeps its verdict; the DELETE removes them.
  std::vector<const ValueVector*> donors;
  for (const ValueVector& row : host.rows()) {
    if (row[id_col].as_int() >= bound) donors.push_back(&row);
    if (donors.size() == kInsertRows) break;
  }
  for (int batch = 0; batch < 2; ++batch) {
    std::string sql = "INSERT INTO " + relation + " VALUES ";
    for (size_t i = 0; i < donors.size(); ++i) {
      ValueVector row = *donors[i];
      row[key_col] = Value::Int(max_key + 1 +
                                static_cast<int64_t>(batch * kInsertRows + i));
      sql += i == 0 ? "(" : ", (";
      for (size_t c = 0; c < row.size(); ++c) {
        if (c > 0) sql += ", ";
        sql += Literal(row[c]);
      }
      sql += ")";
    }
    scripts_[static_cast<int>(batch == 0 ? Batch::kInsertFirst
                                         : Batch::kInsertSecond)] = sql + ";";
  }
  scripts_[static_cast<int>(Batch::kDelete)] =
      "DELETE FROM " + relation + " WHERE " + key + " > " +
      std::to_string(max_key) + ";";
  out_->notes.push_back("revalidate: host " + relation + ", UPDATE toggles " +
                        toggled + " on " + merged_id + " in [1, " +
                        std::to_string(bound) + "), INSERT/DELETE keys > " +
                        std::to_string(max_key));
  return true;
}

bool Revalidate::Setup() {
  Samples generate_s;
  workload::SyntheticDatabase generated;
  for (int i = 0; i < kSetupRepeats; ++i) {
    Clock::time_point start = Clock::now();
    workload::SyntheticSpec spec;
    spec.num_entities = 3;
    spec.num_merged = 1;
    spec.rows_per_entity = kRowsPerEntity;
    spec.emit_program_sources = true;
    spec.seed = kShapeSeed;
    auto made = workload::GenerateSynthetic(spec);
    if (!made.ok()) {
      out_->Fail("GenerateSynthetic: " + made.status().ToString());
      return false;
    }
    generated = std::move(made).value();
    inputs_ = RenderInputs(generated, args_.seed);
    generate_s.Add(SecondsBetween(start, Clock::now()));
  }
  std::string host = generated.true_fds.front().relation;
  generated = workload::SyntheticDatabase();

  // Discovery once: catalog from text, the cycle's start state (the
  // toggled range switched off), and one cold re-validation run.
  Clock::time_point discover_start = Clock::now();
  auto joins = sql::BuildQueryJoinSetFromSources(inputs_.sources);
  auto catalog = LoadCatalog(inputs_);
  if (!joins.ok() || !catalog.ok()) {
    out_->Fail("set-up ingest: " +
               (joins.ok() ? catalog.status() : joins.status()).ToString());
    return false;
  }
  joins_ = std::move(joins).value();
  catalog_ = std::move(catalog).value();
  if (!PlanBatches(*catalog_.GetTable(host).value())) {
    out_->Fail("revalidate: host relation lacks the merged entity columns");
    return false;
  }
  auto primed = sql::ExecuteDmlScript(
      scripts_[static_cast<int>(Batch::kUpdateOff)], &catalog_);
  ThresholdOracle oracle;
  auto report = primed.ok() ? RunPipeline(catalog_, joins_, &oracle,
                                          RevalidateOptions())
                            : Result<PipelineReport>(primed.status());
  if (!report.ok()) {
    out_->Fail("set-up discovery: " + report.status().ToString());
    return false;
  }
  double discover_s = SecondsBetween(discover_start, Clock::now());

  // One untimed cycle warms the delta paths.
  Clock::time_point warmup_start = Clock::now();
  for (size_t i = 0; i < std::size(kCycle); ++i) {
    Round round;
    if (!DoRound(i, false, &round)) return false;
  }
  double warmup_s = SecondsBetween(warmup_start, Clock::now());
  setup_s_ = generate_s.Median() + discover_s + warmup_s;
  out_->notes.push_back(
      "setup: generate+render median " + FormatNumber(generate_s.Median()) +
      " s over " + std::to_string(kSetupRepeats) + ", discovery " +
      FormatNumber(discover_s) + " s, warm-up cycle " +
      FormatNumber(warmup_s) + " s");
  return true;
}

bool Revalidate::DoRound(size_t index, bool check, Round* round) {
  round->batch = kCycle[index % std::size(kCycle)];
  int64_t root = tracer_.Open("revalidate.round", NowUs());

  out_->attempted += 1;
  int64_t t0 = NowUs();
  auto stats = sql::ExecuteDmlScript(
      scripts_[static_cast<int>(round->batch)], &catalog_);
  int64_t t1 = NowUs();
  tracer_.Record(BatchLayer(round->batch), t0, t1, root);
  round->dml_ms = (t1 - t0) / 1e3;
  if (!stats.ok()) {
    out_->Fail("ExecuteDmlScript: " + stats.status().ToString());
    return false;
  }

  ThresholdOracle oracle;
  PipelineOptions options = RevalidateOptions();
  round->clock.Attach(&options);
  out_->attempted += 1;
  round->clock.CallStarted();
  auto report = RunPipeline(catalog_, joins_, &oracle, options);
  round->clock.CallReturned();
  int64_t t2 = NowUs();
  tracer_.Close(root, t2);
  round->pipeline_ms = round->clock.CallMs();
  round->wall_ms = (t2 - t0) / 1e3;
  if (tracer_.enabled()) {
    round->clock.RecordSpans(&tracer_, "core.run_pipeline.reval", root);
  }
  if (!report.ok()) {
    out_->Fail("RunPipeline: " + report.status().ToString());
    return false;
  }
  if (check) CheckAgainstCold(*report, index);
  return true;
}

void Revalidate::CheckAgainstCold(const PipelineReport& incremental,
                                  size_t index) {
  // A fresh copy of the same rows, through text, with no shared caches.
  TextInputs copy;
  copy.ddl = inputs_.ddl;
  for (const auto& [relation, csv] : inputs_.csvs) {
    copy.csvs.emplace_back(relation,
                           WriteCsvText(*catalog_.GetTable(relation).value()));
  }
  auto fresh = LoadCatalog(copy);
  ThresholdOracle oracle;
  auto cold = fresh.ok()
                  ? RunPipeline(*fresh, joins_, &oracle, RevalidateOptions())
                  : Result<PipelineReport>(fresh.status());
  if (!cold.ok()) {
    out_->Fail("revalidate: cold rerun failed: " + cold.status().ToString());
  } else if (ReportText(*cold) != ReportText(incremental)) {
    out_->Fail("revalidate: round " + std::to_string(index) +
               " incremental report differs from a cold rerun");
  }
}

void Revalidate::Run() {
  // Generation, ingest and the DML batches use this thread alone (see
  // CpuRotation); the shared pool starts first, on every CPU.
  ThreadPool::Shared();
  CpuRotation rotation(std::chrono::milliseconds(20));
  if (!Setup()) return;
  std::vector<Round> untraced, traced;
  size_t index = 0;
  // The budget counts round time only (the sampled cold-rerun checks run
  // outside it), and whole cycles only, so every run ends in the start
  // state and weighs the batch kinds alike.
  auto run_cycles = [&](std::vector<Round>* rounds, double budget_s) {
    double spent_ms = 0;
    do {
      for (size_t i = 0; i < std::size(kCycle); ++i) {
        rounds->emplace_back();
        // The traced half leaves the checks out: their cold reruns would
        // land in its registry deltas.
        bool check = !tracer_.enabled() && index % kCheckEvery == 0;
        if (!DoRound(index++, check, &rounds->back())) return false;
        spent_ms += rounds->back().wall_ms;
      }
    } while (spent_ms < budget_s * 1e3);
    return true;
  };
  if (!run_cycles(&untraced, args_.trace ? args_.seconds / 2 : args_.seconds)) {
    return;
  }
  MetricText before, after;
  if (args_.trace) {
    before = RegistryNow();
    tracer_.set_enabled(true);
    if (!run_cycles(&traced, args_.seconds / 2)) return;
    tracer_.set_enabled(false);
    after = RegistryNow();
  }

  // op: one round (DML batch + re-validation); step: its DML batch.
  EndToEnd e2e;
  double busy_ms = 0;
  for (const Round& round : untraced) {
    e2e.op_ms.Add(round.wall_ms);
    e2e.step_ms.Add(round.dml_ms);
    busy_ms += round.wall_ms;
  }
  out_->notes.push_back("revalidate: " + std::to_string(untraced.size()) +
                        " untraced rounds, cold-rerun check every " +
                        std::to_string(kCheckEvery) + " rounds");
  if (!args_.trace) {
    e2e.setup_s = setup_s_;
    e2e.peak_rss_mb = SelfPeakRssMb();
    e2e.ops_per_s = untraced.size() / (busy_ms / 1e3);
    ReportEndToEnd(e2e, out_);
    return;
  }
  Samples traced_op_ms;
  for (const Round& round : traced) traced_op_ms.Add(round.wall_ms);
  ReportLayers(traced, before, after,
               100.0 * (traced_op_ms.Median() - e2e.op_ms.Median()) /
                   e2e.op_ms.Median());
  if (!tracer_.WriteJsonLines(args_.spans_file)) {
    out_->Fail("cannot write " + args_.spans_file);
  }
  out_->notes.push_back("spans: " + args_.spans_file);
}

void Revalidate::ReportLayers(const std::vector<Round>& rounds,
                              const MetricText& before,
                              const MetricText& after,
                              double trace_overhead_pct) {
  std::map<std::string, Samples> dml;
  Layers layers;
  layers.ops = static_cast<double>(rounds.size());
  double covered_ms = 0;
  for (const Round& round : rounds) {
    dml[BatchLayer(round.batch)].Add(round.dml_ms);
    layers.wall_ms += round.wall_ms;
    layers.busy_ms["sql.dml_pct"] += round.dml_ms;
    for (const auto& [name, ms] : round.clock.PhaseMs()) {
      layers.busy_ms["core." + PhaseShortName(name) + "_pct"] += ms;
    }
    layers.busy_ms["core.other_pct"] += round.clock.OtherMs();
    covered_ms += round.dml_ms + round.pipeline_ms;
  }
  for (const auto& [layer, samples] : dml) {
    out_->notes.push_back(layer + "_ms " + samples.Ladder());
  }
  AddRegistryDeltas(before, after, &layers);
  CheckAccounting("revalidate", covered_ms, args_.span_tolerance_pct,
                  &layers, out_);
  layers.value["obs.trace_overhead_pct"] = trace_overhead_pct;
  dbre::bench::ReportLayers(layers, out_);
  out_->notes.push_back("revalidate: " + std::to_string(rounds.size()) +
                        " traced rounds");
}

}  // namespace

Outcome RunRevalidate(const Args& args) {
  Outcome out;
  Revalidate(args, &out).Run();
  return out;
}

}  // namespace dbre::bench
