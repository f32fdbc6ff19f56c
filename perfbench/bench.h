// Shared pieces of the benchmark of record: sample summaries, the span
// trace, the operation ledger behind `attempted`/`failed`, and the run
// context every workload writes its metrics into.
#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "io/jsonl.h"

namespace perfbench {

/// Seconds on the steady clock since an arbitrary epoch.
[[nodiscard]] inline double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Timing samples and the summary the benchmark reports for each timing:
/// median, quartiles (linear interpolation between order statistics), the
/// sample count, and the tail — the highest percentile with at least ten
/// samples beyond it.
class Samples {
 public:
  void add(double x) { v_.push_back(x); }
  [[nodiscard]] bool empty() const noexcept { return v_.empty(); }
  [[nodiscard]] long size() const noexcept { return static_cast<long>(v_.size()); }
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }
  struct Tail {
    double value = 0;
    double percentile = 0;  ///< share of samples at or below `value`, in %
    long beyond = 0;        ///< samples strictly beyond it
  };
  [[nodiscard]] Tail tail() const;

 private:
  std::vector<double> v_;
};

/// Spans recorded by the benchmark's own code around calls into the
/// program's modules: name, start, end and parent span, kept in memory and
/// written out at the end of the run. Single-threaded: the benchmark opens
/// every span from its main thread.
class SpanTrace {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double t0 = 0, t1 = 0;
  };
  struct Counter {
    int span = -1;  ///< span open when the count was taken (-1 = none)
    std::string name;
    double value = 0;
  };

  SpanTrace(bool enabled, std::string run_id);
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] const std::string& run_id() const noexcept { return run_id_; }

  /// While paused, begin() records nothing (the traced run leaves every
  /// other step untraced to measure the tracing overhead).
  void pause(bool paused) noexcept { paused_ = paused; }
  /// Opens a span under the innermost open one; returns its id (-1 when
  /// tracing is off or paused).
  int begin(const std::string& name);
  void end(int id);
  /// Records a count at the current boundary (no-op when tracing is off).
  void count(const std::string& name, double value);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Duration minus the part covered by child spans (children of one
  /// parent never overlap: they are opened from one thread).
  [[nodiscard]] std::vector<double> self_seconds() const;
  /// Duration samples of every span with this name.
  [[nodiscard]] Samples duration_samples(const std::string& name) const;

  /// chrome://tracing JSON: one complete event per span, one counter event
  /// per count, all tagged with the run id.
  void write_chrome(const std::string& path) const;

 private:
  bool enabled_;
  bool paused_ = false;
  std::string run_id_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::vector<Counter> counters_;
};

/// RAII span; also measures its own wall time whether or not tracing is on,
/// so timed code has one timer for the metric and the trace.
class Scope {
 public:
  Scope(SpanTrace& trace, const std::string& name)
      : trace_(trace), id_(trace.begin(name)), t0_(now_s()) {}
  ~Scope() { close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  /// Ends the span (idempotent); returns its wall seconds.
  double close() {
    if (!open_) return seconds_;
    seconds_ = now_s() - t0_;
    trace_.end(id_);
    open_ = false;
    return seconds_;
  }

 private:
  SpanTrace& trace_;
  int id_;
  double t0_;
  double seconds_ = 0;
  bool open_ = true;
};

/// Every operation the benchmark attempts (steps, dumps, checkpoint saves,
/// restores) and the checks it failed. `correct` tracks the program's
/// exactness contracts: bitwise restore, rank-count determinism and dumps
/// decoding within the wavelet error model. A physically invalid step (a
/// non-finite state, mass loss, every cell clamped) is a failed operation,
/// not a broken contract.
class Ledger {
 public:
  /// One operation of kind `op` at `where`; `failures` names every check
  /// it failed (empty = passed).
  void record(const std::string& op, const std::string& where,
              const std::vector<std::string>& failures, bool contract = false);
  [[nodiscard]] long attempted() const noexcept { return attempted_; }
  [[nodiscard]] long failed() const noexcept { return failed_; }
  [[nodiscard]] bool contracts_hold() const noexcept { return contracts_hold_; }
  [[nodiscard]] const std::string& first_failure() const noexcept { return first_; }
  [[nodiscard]] std::string failures_by_check() const;

 private:
  long attempted_ = 0, failed_ = 0;
  bool contracts_hold_ = true;
  std::string first_;
  std::vector<std::pair<std::string, long>> by_check_;
};

struct Options {
  std::string workload;
  unsigned long seed = 42;
  double seconds = 15;
  bool trace = false;
  std::string config;     ///< checked-in cloud_collapse.cfg (cloud_output)
  std::string workdir;    ///< scratch directory for dumps and checkpoints
  std::string trace_out;  ///< chrome trace path ("" = do not write)
};

/// Run context: options, trace, ledger and the flat report the workload
/// fills. Metric keys are the names BENCHMARK.json declares; `info.*` keys
/// carry context and `<metric>.p25/.p75/.n` the spread of timings.
struct Bench {
  explicit Bench(Options o);
  Options opt;
  SpanTrace trace;
  Ledger ledger;
  mpcf::io::JsonObject report;
  int threads = 1;

  void metric(const std::string& name, double value) { report.add(name, value); }
  /// Reports a timing's median (times `scale`) and its spread.
  void timing(const std::string& name, const Samples& s, double scale);
  /// Tail metric: value at the highest percentile with >= 10 samples beyond.
  void tail(const std::string& name, const Samples& s, double scale);
  void info(const std::string& key, double value) { report.add("info." + key, value); }
  void info(const std::string& key, const std::string& value) {
    report.add("info." + key, value);
  }
  /// Scratch path inside the work directory.
  [[nodiscard]] std::string path(const std::string& leaf) const {
    return opt.workdir + "/" + leaf;
  }
};

/// Runs one named workload (cloud_step | cloud_output | cluster_halo);
/// throws PreconditionError on an unknown name.
void run_workload(Bench& b);

}  // namespace perfbench
