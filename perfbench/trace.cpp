#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.h"
#include "common/error.h"

namespace perfbench {

double Samples::quantile(double q) const {
  if (v_.empty()) return 0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  const double pos = q * static_cast<double>(s.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, s.size() - 1);
  return s[lo] + (pos - static_cast<double>(lo)) * (s[hi] - s[lo]);
}

Samples::Tail Samples::tail() const {
  Tail t;
  if (v_.empty()) return t;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  const long n = size();
  // Highest order statistic with ten samples beyond it; short series fall
  // back to the maximum and say so through `beyond`.
  const long idx = n > 10 ? n - 11 : n - 1;
  t.value = s[static_cast<std::size_t>(idx)];
  t.beyond = n - 1 - idx;
  t.percentile = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(n);
  return t;
}

SpanTrace::SpanTrace(bool enabled, std::string run_id)
    : enabled_(enabled), run_id_(std::move(run_id)) {}

int SpanTrace::begin(const std::string& name) {
  if (!enabled_ || paused_) return -1;
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.t0 = now_s();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanTrace::end(int id) {
  if (!enabled_ || id < 0) return;
  spans_[static_cast<std::size_t>(id)].t1 = now_s();
  mpcf::require(!open_.empty() && open_.back() == id,
                "SpanTrace: span '" + spans_[static_cast<std::size_t>(id)].name +
                    "' closed out of order");
  open_.pop_back();
}

void SpanTrace::count(const std::string& name, double value) {
  if (!enabled_) return;
  counters_.push_back({open_.empty() ? -1 : open_.back(), name, value});
}

std::vector<double> SpanTrace::self_seconds() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].t1 - spans_[i].t0;
  for (const Span& s : spans_)
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.t1 - s.t0;
  return self;
}

Samples SpanTrace::duration_samples(const std::string& name) const {
  Samples out;
  for (const Span& s : spans_)
    if (s.name == name) out.add(s.t1 - s.t0);
  return out;
}

void SpanTrace::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw mpcf::IoError("perfbench: cannot write trace " + path);
  const double epoch = spans_.empty() ? 0 : spans_.front().t0;
  const std::string run = mpcf::io::json_escape(run_id_);
  std::fprintf(f, "{\"traceEvents\":[\n");
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"run\":\"%s\",\"span\":%zu,\"parent\":%d}}",
                 first ? "" : ",\n", mpcf::io::json_escape(s.name).c_str(),
                 (s.t0 - epoch) * 1e6, (s.t1 - s.t0) * 1e6, run.c_str(), i, s.parent);
    first = false;
  }
  for (const Counter& c : counters_) {
    const double ts = c.span >= 0 ? spans_[static_cast<std::size_t>(c.span)].t0 - epoch : 0;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"C\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                 "\"args\":{\"value\":%.17g,\"run\":\"%s\",\"span\":%d}}",
                 first ? "" : ",\n", mpcf::io::json_escape(c.name).c_str(), ts * 1e6,
                 c.value, run.c_str(), c.span);
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  if (std::fclose(f) != 0) throw mpcf::IoError("perfbench: cannot close trace " + path);
}

void Ledger::record(const std::string& op, const std::string& where,
                    const std::vector<std::string>& failures, bool contract) {
  ++attempted_;
  if (failures.empty()) return;
  ++failed_;
  if (contract) contracts_hold_ = false;
  if (first_.empty()) first_ = op + " " + where + ": " + failures.front();
  for (const std::string& f : failures) {
    // Group by check name: the text before the first ':' (details vary).
    const std::string check = op + "/" + f.substr(0, f.find(':'));
    auto it = std::find_if(by_check_.begin(), by_check_.end(),
                           [&](const auto& e) { return e.first == check; });
    if (it == by_check_.end())
      by_check_.emplace_back(check, 1);
    else
      ++it->second;
  }
}

std::string Ledger::failures_by_check() const {
  std::string out;
  for (const auto& [check, n] : by_check_)
    out += (out.empty() ? "" : ", ") + check + " x" + std::to_string(n);
  return out;
}

Bench::Bench(Options o)
    : opt(std::move(o)),
      trace(opt.trace, opt.workload + "-seed" + std::to_string(opt.seed) + "-" +
                           std::to_string(static_cast<long>(now_s() * 1e3))) {}

void Bench::timing(const std::string& name, const Samples& s, double scale) {
  report.add(name, s.median() * scale);
  report.add(name + ".p25", s.quantile(0.25) * scale);
  report.add(name + ".p75", s.quantile(0.75) * scale);
  report.add(name + ".n", s.size());
}

void Bench::tail(const std::string& name, const Samples& s, double scale) {
  const Samples::Tail t = s.tail();
  report.add(name, t.value * scale);
  report.add(name + ".percentile", t.percentile);
  report.add(name + ".beyond", t.beyond);
  report.add(name + ".n", s.size());
}

}  // namespace perfbench
