#include "telemetry/telemetry.hpp"

#include <cstdio>
#include <ostream>
#include <sstream>

#include "telemetry/export.hpp"
#include "util/ckpt.hpp"
#include "util/log.hpp"

namespace tmprof::telemetry {

Telemetry::Telemetry(TelemetryConfig config)
    : config_(std::move(config)),
      tracer_(config_.span_capacity),
      spans_dropped_(registry_.counter("telemetry_spans_dropped_total")),
      exports_(registry_.counter("telemetry_exports_total")) {}

std::uint32_t Telemetry::begin_run(std::string label) {
  // Idempotent for a consecutively repeated label: a rejected resume
  // falls back to a cold start that re-enters the same run, and the
  // retry must not leave a duplicate process group behind — exports
  // must match a fresh run byte for byte.
  if (!run_labels_.empty() && run_labels_.back().second == label &&
      run_labels_.back().first == current_pid_) {
    return current_pid_;
  }
  current_pid_ = static_cast<std::uint32_t>(run_labels_.size()) + 1;
  run_labels_.emplace_back(current_pid_, std::move(label));
  return current_pid_;
}

void Telemetry::span(std::string_view name, util::SimNs begin_ns,
                     util::SimNs end_ns, std::uint32_t tid) {
  if (tracer_.record(name, begin_ns, end_ns, current_pid_, tid)) {
    spans_dropped_.inc();
  }
}

void Telemetry::maybe_export(std::uint32_t completed_epochs) {
  if (config_.export_every == 0) return;
  if (completed_epochs % config_.export_every != 0) return;
  export_files();
}

void Telemetry::export_final() { export_files(); }

namespace {

/// Replace `path` with `contents`: write `<path>.tmp`, delete `path`, then
/// rename the temporary into place. The existing file is never opened with
/// O_TRUNC and never renamed onto: on ext4 (default `auto_da_alloc`) both
/// force writeback of the previous export's still-dirty pages and stall
/// the caller for tens of milliseconds per file (docs/OBSERVABILITY.md).
/// A reader therefore sees the old complete file, briefly no file, or the
/// new complete file — never a torn one. A `.tmp` left by a killed run is
/// simply overwritten.
void replace_file(const std::string& path, const std::string& contents,
                  const char* what) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    TMPROF_LOG_WARN << "telemetry: cannot write " << what << " to '" << tmp
                    << "'";
    return;
  }
  const bool written =
      std::fwrite(contents.data(), 1, contents.size(), f) == contents.size();
  const bool closed = std::fclose(f) == 0;
  if (!written || !closed) {
    TMPROF_LOG_WARN << "telemetry: short write of " << what << " to '" << tmp
                    << "'";
    std::remove(tmp.c_str());
    return;
  }
  std::remove(path.c_str());  // a missing file is fine
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    TMPROF_LOG_WARN << "telemetry: cannot rename '" << tmp << "' to '" << path
                    << "'";
    std::remove(tmp.c_str());
  }
}

}  // namespace

void Telemetry::export_files() {
  // The export counter observes itself being exported: increment first so
  // the written value counts this export too.
  exports_.inc();
  if (!config_.metrics_out.empty()) {
    std::ostringstream os;
    write_prometheus(os);
    replace_file(config_.metrics_out, os.str(), "metrics");
  }
  if (!config_.trace_out.empty()) {
    std::ostringstream os;
    write_chrome(os);
    replace_file(config_.trace_out, os.str(), "trace");
  }
}

void Telemetry::write_chrome(std::ostream& os) const {
  write_chrome_trace(os, tracer_, run_labels_);
}

void Telemetry::write_prometheus(std::ostream& os) const {
  telemetry::write_prometheus(os, registry_);
}

void Telemetry::save_state(util::ckpt::Writer& w) const {
  registry_.save_state(w);
  tracer_.save_state(w);
  w.put_u64(run_labels_.size());
  for (const auto& [pid, label] : run_labels_) {
    w.put_u32(pid);
    w.put_str(label);
  }
  w.put_u32(current_pid_);
}

void Telemetry::load_state(util::ckpt::Reader& r) {
  registry_.load_state(r);
  tracer_.load_state(r);
  run_labels_.clear();
  const std::uint64_t n_labels = r.get_u64();
  run_labels_.reserve(n_labels);
  for (std::uint64_t i = 0; i < n_labels; ++i) {
    const std::uint32_t pid = r.get_u32();
    run_labels_.emplace_back(pid, r.get_str());
  }
  current_pid_ = r.get_u32();
}

}  // namespace tmprof::telemetry
