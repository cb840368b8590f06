#include "pipeline_util.h"

#include <algorithm>
#include <random>
#include <string_view>

#include "core/report_json.h"
#include "obs/metrics.h"
#include "relational/csv.h"
#include "sql/ddl.h"
#include "sql/ddl_writer.h"

namespace dbre::bench {

TextInputs RenderInputs(const workload::SyntheticDatabase& db,
                        uint64_t order_seed) {
  std::mt19937_64 rng(order_seed);
  TextInputs inputs;
  inputs.ddl = sql::WriteDdl(db.database);
  for (const std::string& relation : db.database.RelationNames()) {
    // Generated values hold no line breaks, so a CSV line is a tuple.
    std::string csv = WriteCsvText(*db.database.GetTable(relation).value());
    std::vector<std::string_view> lines;
    for (size_t pos = 0; pos < csv.size();) {
      size_t end = std::min(csv.find('\n', pos), csv.size() - 1);
      lines.push_back(std::string_view(csv).substr(pos, end + 1 - pos));
      pos = end + 1;
    }
    std::shuffle(lines.begin() + 1, lines.end(), rng);
    std::string shuffled;
    shuffled.reserve(csv.size());
    for (std::string_view line : lines) shuffled += line;
    inputs.csv_bytes += shuffled.size();
    inputs.csvs.emplace_back(relation, std::move(shuffled));
  }
  inputs.sources = db.program_sources;
  std::shuffle(inputs.sources.begin(), inputs.sources.end(), rng);
  return inputs;
}

Result<Database> LoadCatalog(const TextInputs& inputs) {
  Database database;
  DBRE_RETURN_IF_ERROR(sql::ExecuteDdlScript(inputs.ddl, &database).status());
  for (const auto& [relation, csv] : inputs.csvs) {
    DBRE_ASSIGN_OR_RETURN(Table * table, database.GetMutableTable(relation));
    DBRE_RETURN_IF_ERROR(LoadCsvText(csv, table).status());
  }
  return database;
}

std::string ReportText(const PipelineReport& report) {
  JsonOptions options;
  options.include_timings = false;
  return ReportToJson(report, options);
}

MetricText RegistryNow() {
  return ParsePrometheus(obs::Registry::Default().RenderPrometheus());
}

void PhaseClock::Attach(PipelineOptions* options) {
  options->on_phase = [this](const char* phase) {
    starts_.emplace_back(phase, NowUs());
  };
}

std::vector<std::pair<std::string, double>> PhaseClock::PhaseMs() const {
  std::vector<std::pair<std::string, double>> phases;
  for (size_t i = 0; i < starts_.size(); ++i) {
    int64_t end = i + 1 < starts_.size() ? starts_[i + 1].second
                                         : call_end_us_;
    phases.emplace_back(starts_[i].first, (end - starts_[i].second) / 1e3);
  }
  return phases;
}

double PhaseClock::OtherMs() const {
  double other = CallMs();
  for (const auto& [phase, ms] : PhaseMs()) other -= ms;
  return other;
}

void PhaseClock::RecordSpans(Tracer* tracer, const std::string& call_name,
                             int64_t parent) const {
  int64_t call = tracer->Record(call_name, call_start_us_, call_end_us_,
                                parent);
  for (size_t i = 0; i < starts_.size(); ++i) {
    int64_t end = i + 1 < starts_.size() ? starts_[i + 1].second
                                         : call_end_us_;
    tracer->Record("core." + PhaseShortName(starts_[i].first),
                   starts_[i].second, end, call);
  }
}

std::string PhaseShortName(const std::string& phase) {
  size_t underscore = phase.find('_');
  return underscore == std::string::npos ? phase : phase.substr(0, underscore);
}

}  // namespace dbre::bench
