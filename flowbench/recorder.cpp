#include "recorder.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <stdexcept>

namespace flowbench {
namespace {

struct State {
  std::mutex mu;
  bool on = false;
  std::vector<Span> spans;
  std::vector<std::string> requests{"-"};
  std::map<std::string, std::uint32_t> request_ids{{"-", 0}};
  std::uint32_t request = 0;
  SolverCounters solver;
  std::uintmax_t bytes_written = 0;
  std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
};

State& state() {
  static State s;
  return s;
}

// Open spans of the calling thread, innermost last.
thread_local std::vector<std::int32_t> open_spans;

std::int64_t now_ns(const State& s) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - s.epoch)
      .count();
}

// Nearest-rank percentile of sorted samples (p in [0, 100]).
double percentile(const std::vector<std::int64_t>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(sorted.size());
  std::size_t k = static_cast<std::size_t>(rank);
  if (static_cast<double>(k) < rank) ++k;
  k = std::clamp<std::size_t>(k, 1, sorted.size());
  return static_cast<double>(sorted[k - 1]);
}

}  // namespace

void set_recording(bool on) {
  State& s = state();
  const std::lock_guard lock(s.mu);
  s.on = on;
}

void set_request(const std::string& id) {
  State& s = state();
  const std::lock_guard lock(s.mu);
  const auto [it, inserted] = s.request_ids.try_emplace(
      id, static_cast<std::uint32_t>(s.requests.size()));
  if (inserted) s.requests.push_back(id);
  s.request = it->second;
}

SpanScope::SpanScope(Boundary b) {
  State& s = state();
  const std::lock_guard lock(s.mu);
  if (!s.on) return;
  Span span;
  span.boundary = b;
  span.parent = open_spans.empty() ? -1 : open_spans.back();
  span.request = s.request;
  index_ = static_cast<std::int32_t>(s.spans.size());
  span.start_ns = now_ns(s);
  s.spans.push_back(span);
  open_spans.push_back(index_);
}

SpanScope::~SpanScope() {
  if (index_ < 0) return;
  State& s = state();
  const std::lock_guard lock(s.mu);
  s.spans[static_cast<std::size_t>(index_)].end_ns = now_ns(s);
  open_spans.pop_back();
}

void add_solver_counts(const SolverCounters& d) {
  State& s = state();
  const std::lock_guard lock(s.mu);
  if (!s.on) return;
  SolverCounters& c = s.solver;
  c.fast_solves += d.fast_solves;
  c.fast_sweeps += d.fast_sweeps;
  c.fast_builds += d.fast_builds;
  c.fast_reuses += d.fast_reuses;
  c.mg_solves += d.mg_solves;
  c.mg_stalls += d.mg_stalls;
  c.vcycles += d.vcycles;
  c.fmg_starts += d.fmg_starts;
}

void add_bytes_written(std::uintmax_t bytes) {
  State& s = state();
  const std::lock_guard lock(s.mu);
  if (s.on) s.bytes_written += bytes;
}

LayerReport summarize(
    const std::vector<std::pair<std::string, double>>& extra) {
  State& s = state();
  const std::lock_guard lock(s.mu);
  constexpr std::size_t kCount = static_cast<std::size_t>(Boundary::count_);

  // Self time = duration minus the time the span's children cover.
  std::vector<std::int64_t> child_ns(s.spans.size(), 0);
  for (const Span& sp : s.spans)
    if (sp.parent >= 0)
      child_ns[static_cast<std::size_t>(sp.parent)] += sp.end_ns - sp.start_ns;

  std::vector<std::vector<std::int64_t>> durations(kCount);
  std::vector<double> self_s(kCount, 0.0);
  LayerReport report;
  for (std::size_t i = 0; i < s.spans.size(); ++i) {
    const Span& sp = s.spans[i];
    const auto b = static_cast<std::size_t>(sp.boundary);
    const std::int64_t dur = sp.end_ns - sp.start_ns;
    durations[b].push_back(dur);
    const double self = static_cast<double>(dur - child_ns[i]) * 1e-9;
    self_s[b] += self;
    report.covered_s += self;
  }

  auto& m = report.metrics;
  for (std::size_t b = 0; b < kCount; ++b) {
    const std::string name = kBoundaries[b].name;
    std::vector<std::int64_t>& d = durations[b];
    m.emplace_back(name + ".calls", static_cast<double>(d.size()));
    m.emplace_back(name + ".self_s", self_s[b]);
    if (!kBoundaries[b].hot) continue;
    std::sort(d.begin(), d.end());
    // Tail: the highest percentile with at least 10 samples beyond it.
    double tail_p = 50.0;
    for (const double p : {99.9, 99.0, 90.0}) {
      if (static_cast<double>(d.size()) * (100.0 - p) / 100.0 >= 10.0) {
        tail_p = p;
        break;
      }
    }
    m.emplace_back(name + ".p50_us", percentile(d, 50.0) * 1e-3);
    m.emplace_back(name + ".tail_us", percentile(d, tail_p) * 1e-3);
    char note[160];
    std::snprintf(note, sizeof note, "%s.tail_us is p%g over %zu samples",
                  name.c_str(), tail_p, d.size());
    report.notes.emplace_back(note);
  }

  const SolverCounters& c = s.solver;
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  m.emplace_back("thermal.sweeps_per_solve",
                 ratio(static_cast<double>(c.fast_sweeps),
                       static_cast<double>(c.fast_solves)));
  m.emplace_back("thermal.asm_reuse_ratio",
                 ratio(static_cast<double>(c.fast_reuses),
                       static_cast<double>(c.fast_builds + c.fast_reuses)));
  m.emplace_back("thermal.vcycles", static_cast<double>(c.vcycles));
  m.emplace_back("thermal.fmg_starts", static_cast<double>(c.fmg_starts));
  m.emplace_back("thermal.stall_ratio",
                 ratio(static_cast<double>(c.mg_stalls),
                       static_cast<double>(c.mg_solves)));
  m.emplace_back("service.bytes_written",
                 static_cast<double>(s.bytes_written));
  for (const auto& e : extra) m.push_back(e);
  return report;
}

void write_spans(const std::filesystem::path& file) {
  State& s = state();
  const std::lock_guard lock(s.mu);
  if (file.has_parent_path()) std::filesystem::create_directories(file.parent_path());
  std::ofstream out(file);
  if (!out) throw std::runtime_error("cannot write span file " + file.string());
  out << "id,parent,name,request,start_ns,end_ns\n";
  for (std::size_t i = 0; i < s.spans.size(); ++i) {
    const Span& sp = s.spans[i];
    out << i << ',' << sp.parent << ','
        << kBoundaries[static_cast<std::size_t>(sp.boundary)].name << ','
        << s.requests[sp.request] << ',' << sp.start_ns << ',' << sp.end_ns
        << '\n';
  }
}

}  // namespace flowbench
