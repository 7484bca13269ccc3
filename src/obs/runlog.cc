#include "obs/runlog.h"

#include "obs/provenance.h"
#include "util/check.h"

namespace aqo::obs {

namespace {

// Owned by the process; replaced by OpenGlobal/AttachGlobal.
std::unique_ptr<RunLog>& GlobalSlot() {
  static std::unique_ptr<RunLog>* slot = new std::unique_ptr<RunLog>();
  return *slot;
}

thread_local RunLogBuffer* tls_runlog_buffer = nullptr;

}  // namespace

RunLogBuffer::RunLogBuffer() : parent_(tls_runlog_buffer) {
  tls_runlog_buffer = this;
}

RunLogBuffer::~RunLogBuffer() { tls_runlog_buffer = parent_; }

RunLogBuffer* RunLogBuffer::Current() { return tls_runlog_buffer; }

RunLog::RunLog(std::ostream* out) : out_(out) { AQO_CHECK(out != nullptr); }

RunLog::RunLog(std::unique_ptr<std::ofstream> file)
    : file_(std::move(file)), out_(file_.get()) {}

RunLog::~RunLog() = default;

RunLog* RunLog::Global() { return GlobalSlot().get(); }

bool RunLog::OpenGlobal(const std::string& path) {
  auto file = std::make_unique<std::ofstream>(path, std::ios::trunc);
  if (!file->is_open()) return false;
  GlobalSlot() = std::unique_ptr<RunLog>(new RunLog(std::move(file)));
  return true;
}

void RunLog::AttachGlobal(std::ostream* out) {
  GlobalSlot() = std::make_unique<RunLog>(out);
}

void RunLog::CloseGlobal() { GlobalSlot().reset(); }

void RunLog::Write(const JsonValue& record) {
  std::string line = record.Dump();
  line += '\n';
  if (RunLogBuffer* buffer = RunLogBuffer::Current()) {
    buffer->buffer_ += line;
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  *out_ << line;
  out_->flush();
}

void RunLog::WriteRaw(const std::string& lines) {
  if (lines.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  *out_ << lines;
  out_->flush();
}

void RunLog::WriteHeader(std::string_view binary, uint64_t seed,
                         const std::vector<std::string>& args) {
  JsonValue rec = JsonValue::Object();
  rec["type"] = "run_header";
  rec["schema_version"] = kRunLogSchemaVersion;
  rec["binary"] = binary;
  rec["seed"] = seed;
  JsonValue argv = JsonValue::Array();
  for (const std::string& a : args) argv.Push(a);
  rec["args"] = std::move(argv);
  rec["provenance"] = ProvenanceJson();
  Write(rec);
}

JsonValue HistogramJson(const HistogramData& data) {
  JsonValue out = JsonValue::Object();
  out["count"] = data.count;
  out["sum_us"] = data.sum;
  out["min_us"] = data.min;
  out["max_us"] = data.max;
  out["p50_us"] = data.Quantile(0.50);
  out["p90_us"] = data.Quantile(0.90);
  out["p99_us"] = data.Quantile(0.99);
  out["p999_us"] = data.Quantile(0.999);
  return out;
}

JsonValue HistogramsJson(const HistogramSnapshot& histograms) {
  JsonValue out = JsonValue::Object();
  for (const auto& [name, data] : histograms) out[name] = HistogramJson(data);
  return out;
}

void EmitRunRecord(std::string_view optimizer, const InstanceShape& shape,
                   bool feasible, double cost_log2, uint64_t evaluations,
                   double wall_seconds, const CounterSnapshot& counters,
                   PlanStatus status) {
  RunLog* log = RunLog::Global();
  if (log == nullptr) return;

  JsonValue rec = JsonValue::Object();
  rec["type"] = "optimizer_run";
  rec["optimizer"] = optimizer;
  JsonValue inst = JsonValue::Object();
  inst["family"] = shape.family;
  inst["kind"] = shape.kind;
  inst["side"] = shape.side;
  inst["source"] = shape.source;
  inst["n"] = shape.n;
  inst["edges"] = shape.edges;
  rec["instance"] = std::move(inst);
  rec["feasible"] = feasible;
  rec["cost_log2"] = feasible ? JsonValue(cost_log2) : JsonValue();
  rec["evaluations"] = evaluations;
  // Only cut-short / failed runs carry a status key: complete runs keep
  // the pre-status record bytes (the determinism contract of PRs 2-3).
  if (status != PlanStatus::kComplete) {
    rec["status"] = PlanStatusName(status);
  }
  rec["wall_seconds"] = wall_seconds;
  JsonValue cs = JsonValue::Object();
  for (const auto& [name, value] : counters) cs[name] = value;
  rec["counters"] = std::move(cs);
  log->Write(rec);
}

}  // namespace aqo::obs
