// Shared scaffolding for the per-table/figure bench binaries.
//
// Every binary runs with no arguments at a laptop-friendly scale and accepts
// --full for the paper-scale configuration plus fine-grained overrides
// (--dims, --queries, --seed, ...). Output is a plain-text table mirroring
// the corresponding table/figure of the paper.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "core/telemetry.hpp"
#include "obs/sinks.hpp"

namespace aspe::bench {

/// Telemetry flags shared by the paper-reproduction binaries:
/// `--trace-json=PATH` streams chrome://tracing events for every attack run,
/// `--metrics-json=PATH` aggregates counters/gauges across all runs, plus
/// the attack-driver counters passed to add_attack(), and writes one metrics
/// document at exit. `sink()` is null when neither flag
/// was passed, so benches stay zero-overhead by default; attaching a sink
/// never changes attack output (telemetry is observational only).
class ObsFlags {
 public:
  explicit ObsFlags(const CliFlags& flags)
      : metrics_path_(flags.get_string("metrics-json", "")) {
    const std::string trace_path = flags.get_string("trace-json", "");
    if (!trace_path.empty()) {
      trace_.emplace(trace_path);
      if (!trace_->ok()) {
        std::fprintf(stderr, "cannot open --trace-json path: %s\n",
                     trace_path.c_str());
        std::exit(2);
      }
      tee_.add(&*trace_);
    }
    if (!metrics_path_.empty()) tee_.add(&memory_);
  }

  /// Sink to install in `core::ExecContext`, or nullptr when telemetry is off.
  [[nodiscard]] obs::Sink* sink() {
    return (trace_.has_value() || !metrics_path_.empty()) ? &tee_ : nullptr;
  }

  /// Sum one attack's driver counters (`mip.*`) into the metrics document.
  /// They live in the attack's telemetry, not in the recording; a `mip.*`
  /// counter the recording also carries has the same value in both, so the
  /// summed telemetry value replaces the recorded total.
  void add_attack(const core::AttackTelemetry& telemetry) {
    if (metrics_path_.empty()) return;
    for (const auto& [name, value] : telemetry.counters) {
      if (name.starts_with("mip.")) attack_counters_[name] += value;
    }
  }

  /// Flush files and report where they went. Call once after the last run.
  void finish() {
    if (trace_.has_value()) {
      trace_->close();
      std::printf("\nwrote trace events (chrome://tracing) via --trace-json\n");
    }
    if (!metrics_path_.empty()) {
      obs::Summary merged;
      merged.counters = memory_.counters();
      merged.gauges = memory_.gauges();
      for (const auto& [name, value] : attack_counters_) {
        merged.counters[name] = value;
      }
      obs::MemorySink document;
      document.consume(merged);
      std::ofstream out(metrics_path_);
      document.write_metrics_json(out);
      std::printf("\nwrote aggregated metrics to %s\n", metrics_path_.c_str());
    }
  }

 private:
  std::string metrics_path_;
  std::optional<obs::JsonLinesSink> trace_;
  obs::MemorySink memory_;
  obs::TeeSink tee_;
  std::map<std::string, double> attack_counters_;
};

/// Fixed-width table printer.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers,
                        std::size_t col_width = 12)
      : headers_(std::move(headers)), width_(col_width) {}

  void print_header() const {
    for (const auto& h : headers_) std::printf("%-*s", int(width_), h.c_str());
    std::printf("\n");
    for (std::size_t i = 0; i < headers_.size() * width_; ++i)
      std::printf("-");
    std::printf("\n");
  }

  void print_row(const std::vector<std::string>& cells) const {
    for (const auto& c : cells) std::printf("%-*s", int(width_), c.c_str());
    std::printf("\n");
  }

 private:
  std::vector<std::string> headers_;
  std::size_t width_;
};

inline std::string fmt(double v, int precision = 4) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

inline std::string fmt_pct(double v) { return fmt(v, 4); }

inline std::string fmt_sci(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2e", v);
  return buf;
}

inline void print_banner(const char* title, const char* paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("==============================================================\n");
}

}  // namespace aspe::bench
