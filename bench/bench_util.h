// Shared helpers for the figure-reproduction benchmarks: aligned tables with a header
// naming the paper figure being regenerated, machine-readable JSON summaries
// (BENCH_<name>.json) so CI and perf-trajectory tooling can consume bench results
// without parsing tables, completion buckets over virtual time, and the owner of
// closed-loop sessions. The regional-trial builder lives in bench/scaffold.h.
#ifndef ICG_BENCH_BENCH_UTIL_H_
#define ICG_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/types.h"

namespace icg::bench {

// True if `flag` (e.g. "--smoke") is among the command-line arguments.
inline bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      return true;
    }
  }
  return false;
}

// Event counts per fixed-width bucket of virtual time, sized to a horizon plus eight
// buckets of drain slack; later events land in the last bucket.
class TimeBuckets {
 public:
  TimeBuckets(SimDuration width, SimTime horizon)
      : width_(width), counts_(static_cast<size_t>(horizon / width) + 8, 0) {}

  void Add(SimTime at) { counts_[std::min(Index(at), counts_.size() - 1)]++; }

  size_t Index(SimTime at) const { return static_cast<size_t>(at / width_); }
  size_t size() const { return counts_.size(); }
  // Events per second in bucket `i`.
  double Rate(size_t i) const { return static_cast<double>(counts_[i]) / ToSeconds(width_); }
  // Events per second over the whole buckets in [from, to).
  double RateOver(SimTime from, SimTime to) const {
    const size_t first = Index(from);
    const size_t last = std::min(Index(to), counts_.size());
    if (last <= first) {
      return 0.0;
    }
    int64_t events = 0;
    for (size_t i = first; i < last; ++i) {
      events += counts_[i];
    }
    return static_cast<double>(events) /
           ToSeconds(static_cast<SimDuration>(last - first) * width_);
  }
  // Events in buckets from `from` on.
  int64_t CountFrom(SimTime from) const {
    int64_t events = 0;
    for (size_t i = Index(from); i < counts_.size(); ++i) {
      events += counts_[i];
    }
    return events;
  }
  // The transition scans, over the whole buckets in the `window` that starts with the
  // bucket holding `from`. Dip: the worst bucket rate, or `baseline` if none is lower.
  double Dip(SimTime from, SimDuration window, double baseline) const {
    double dip = baseline;
    for (size_t i = Index(from); i < WindowEnd(from, window); ++i) {
      dip = std::min(dip, Rate(i));
    }
    return dip;
  }
  // Milliseconds from that first bucket's start to the end of the first bucket whose rate
  // reaches `target`; -1 if none in the window does.
  double MillisToReach(SimTime from, SimDuration window, double target) const {
    for (size_t i = Index(from); i < WindowEnd(from, window); ++i) {
      if (Rate(i) >= target) {
        return ToMillis(static_cast<SimDuration>(i + 1 - Index(from)) * width_);
      }
    }
    return -1.0;
  }

 private:
  size_t WindowEnd(SimTime from, SimDuration window) const {
    return std::min(Index(from) + static_cast<size_t>(window / width_), counts_.size());
  }

  SimDuration width_;
  std::vector<int64_t> counts_;
};

// Owns the closed-loop sessions of one trial. A session is a step that re-arms itself by
// calling `next`, the session's own entry point, typically from a completion callback.
// The steps live here rather than in closures that own themselves (a std::function that
// captures the shared_ptr holding it never frees), so callbacks refer to their session
// by reference. Must outlive every callback that can still call `next`.
template <typename... Args>
class ClosedLoops {
 public:
  using Next = std::function<void(Args...)>;
  using Step = std::function<void(const Next& next, Args... args)>;

  // Adds a session and runs its first step now.
  void Start(Step step, Args... args) {
    sessions_.push_back(std::make_unique<Session>());
    Session* session = sessions_.back().get();
    session->step = std::move(step);
    session->next = [session](Args... a) { session->step(session->next, a...); };
    session->next(args...);
  }

 private:
  struct Session {
    Step step;
    Next next;
  };
  std::vector<std::unique_ptr<Session>> sessions_;
};

inline void PrintHeader(const std::string& figure, const std::string& description) {
  std::printf("\n=== %s ===\n%s\n\n", figure.c_str(), description.c_str());
}

class Table {
 public:
  explicit Table(std::vector<std::string> columns) : columns_(std::move(columns)) {}

  void AddRow(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  void Print() const {
    std::vector<size_t> widths(columns_.size());
    for (size_t i = 0; i < columns_.size(); ++i) {
      widths[i] = columns_[i].size();
    }
    for (const auto& row : rows_) {
      for (size_t i = 0; i < row.size() && i < widths.size(); ++i) {
        widths[i] = std::max(widths[i], row[i].size());
      }
    }
    PrintRow(columns_, widths);
    std::string rule;
    for (size_t i = 0; i < widths.size(); ++i) {
      rule += std::string(widths[i], '-') + (i + 1 < widths.size() ? "-+-" : "");
    }
    std::printf("%s\n", rule.c_str());
    for (const auto& row : rows_) {
      PrintRow(row, widths);
    }
    std::printf("\n");
  }

 private:
  static void PrintRow(const std::vector<std::string>& cells, const std::vector<size_t>& widths) {
    std::string line;
    for (size_t i = 0; i < widths.size(); ++i) {
      const std::string& cell = i < cells.size() ? cells[i] : std::string();
      line += cell + std::string(widths[i] - cell.size(), ' ');
      if (i + 1 < widths.size()) {
        line += " | ";
      }
    }
    std::printf("%s\n", line.c_str());
  }

  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string Fmt(double value, int decimals = 1) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return buf;
}

// Accumulates a flat set of metrics and writes them as BENCH_<name>.json next to the
// working directory (one file per bench target, overwritten per run). Nesting is
// expressed with dotted keys ("coords3.final.p99_ms"), which keeps the format trivially
// greppable and diffable across runs.
class JsonSummary {
 public:
  explicit JsonSummary(std::string bench_name) : name_(std::move(bench_name)) {}

  void Add(const std::string& key, double value, int decimals = 3) {
    entries_.push_back({key, Fmt(value, decimals)});
  }
  void Add(const std::string& key, int64_t value) {
    entries_.push_back({key, std::to_string(value)});
  }
  void AddString(const std::string& key, const std::string& value) {
    entries_.push_back({key, "\"" + Escape(value) + "\""});
  }
  // A value already rendered as JSON (an array or object), written verbatim.
  void AddJson(const std::string& key, std::string json) {
    entries_.push_back({key, std::move(json)});
  }

  // The standard per-trial block: throughput plus p50/p99 of the preliminary and final
  // latency distributions, under `prefix.`.
  void AddLatencies(const std::string& prefix, double throughput_ops,
                    const LatencySummary& preliminary, const LatencySummary& final_view) {
    Add(prefix + ".throughput_ops", throughput_ops, 1);
    Add(prefix + ".final.p50_ms", final_view.p50_ms());
    Add(prefix + ".final.p99_ms", final_view.p99_ms());
    if (preliminary.count > 0) {
      Add(prefix + ".preliminary.p50_ms", preliminary.p50_ms());
      Add(prefix + ".preliminary.p99_ms", preliminary.p99_ms());
    }
  }

  // Writes BENCH_<name>.json and reports the path on stdout. Returns false (with a
  // warning) if the file cannot be opened; benches never fail on summary IO.
  //
  // Every summary records the machine's core count as "cores" so wall-clock numbers
  // (speedups, ns/op) committed as baselines carry the hardware they were measured on,
  // and --check-style gates can refuse to compare across different machines — plus the
  // build's git sha as "git_sha" so the perf trajectory is attributable across PRs.
  bool Write() const {
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\"", Escape(name_).c_str());
    std::fprintf(f, ",\n  \"cores\": %u", std::thread::hardware_concurrency());
#ifdef ICG_GIT_SHA
    std::fprintf(f, ",\n  \"git_sha\": \"%s\"", ICG_GIT_SHA);
#else
    std::fprintf(f, ",\n  \"git_sha\": \"unknown\"");
#endif
    for (const auto& [key, value] : entries_) {
      std::fprintf(f, ",\n  \"%s\": %s", Escape(key).c_str(), value.c_str());
    }
    std::fprintf(f, "\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  struct Entry {
    std::string key;
    std::string value;  // pre-rendered JSON value
  };

  static std::string Escape(const std::string& raw) {
    std::string out;
    out.reserve(raw.size());
    for (const char c : raw) {
      switch (c) {
        case '"':
          out += "\\\"";
          break;
        case '\\':
          out += "\\\\";
          break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
          } else {
            out += c;
          }
      }
    }
    return out;
  }

  std::string name_;
  std::vector<Entry> entries_;
};

}  // namespace icg::bench

#endif  // ICG_BENCH_BENCH_UTIL_H_
