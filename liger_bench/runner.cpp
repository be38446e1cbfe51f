// Serving benchmark runner. One process sets up one workload, times
// untraced simulations until its budget is spent, then optionally makes
// one record-counting run and one traced run. It prints everything it
// measured as a single JSON object on stdout; run.py aggregates the
// processes of one benchmark run, checks them and reports the metrics.
//
//   liger_bench_runner --config <workload.json> --seed <n> --budget_s <s>
//       [--min_runs <n>] [--count] [--traced] [--spans_out <file>]
//   liger_bench_runner --config <workload.json> --seed <n> --setup_only
//
// Only public entry points are called (serving::config_from_json,
// model_fits, profiled_contention_factor, run_experiment_detailed) and
// only their public outputs are read.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <queue>
#include <streambuf>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "interconnect/fabric.h"
#include "serving/config.h"
#include "serving/experiment.h"
#include "trace/chrome_trace.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/json_writer.h"

namespace {

using namespace liger;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Spans around the benchmark's calls into the library, kept in memory
// and written as a Chrome trace when the process ends.
class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  // Opens a span; returns its index for end() and as a parent id.
  int begin(std::string name, int parent = -1) {
    spans_.push_back({std::move(name), Clock::now(), {}, parent, 1, 0.0});
    return static_cast<int>(spans_.size()) - 1;
  }
  double end(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end = Clock::now();
    return seconds_between(s.start, s.end);
  }
  // A span standing for `count` calls made inside `parent` whose
  // durations summed to `busy_s`.
  void aggregate(std::string name, int parent, std::uint64_t count, double busy_s) {
    const Span& p = spans_[static_cast<std::size_t>(parent)];
    spans_.push_back({std::move(name), p.start, p.end, parent, count, busy_s});
  }

  void write_chrome_trace(std::ostream& out) const {
    util::JsonWriter w(out);
    w.begin_object();
    w.key("traceEvents");
    w.begin_array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      w.begin_object();
      w.kv("name", s.name);
      w.kv("ph", "X");
      w.kv("pid", 0);
      w.kv("tid", s.parent < 0 ? 0 : 1);
      w.kv("ts", micros(s.start));
      w.kv("dur", micros(s.end) - micros(s.start));
      w.key("args");
      w.begin_object();
      w.kv("id", static_cast<std::int64_t>(i));
      w.kv("parent", s.parent);
      w.kv("count", s.count);
      if (s.count > 1) w.kv("busy_s", s.busy_s);
      w.end_object();
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }

 private:
  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;
    std::uint64_t count = 1;
    double busy_s = 0.0;
  };
  double micros(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// Record tallies by layer: device compute kernels, device communication
// kernels (collectives and p2p) and fabric transfers between nodes.
struct RecordCounts {
  std::uint64_t compute = 0;
  std::uint64_t comm = 0;
  std::uint64_t fabric = 0;
  std::uint64_t fabric_bytes = 0;
  std::uint64_t total() const { return compute + comm + fabric; }
};

// Counts every kernel record and, when `keep` is set, forwards it to the
// Chrome-trace exporter, timing the forwarded calls.
class BenchSink final : public trace::ChromeTraceSink {
 public:
  explicit BenchSink(bool keep) : keep_(keep) {}

  void on_kernel(const gpu::KernelTraceRecord& rec) override {
    if (rec.device == interconnect::NetworkFabric::kFabricTraceDevice) {
      ++counts_.fabric;
      counts_.fabric_bytes += rec.bytes;
    } else if (rec.kind == gpu::KernelKind::kComm) {
      ++counts_.comm;
    } else {
      ++counts_.compute;
    }
    if (!keep_) return;
    const auto t0 = Clock::now();
    ChromeTraceSink::on_kernel(rec);
    forward_s_ += seconds_between(t0, Clock::now());
  }

  const RecordCounts& counts() const { return counts_; }
  double forward_s() const { return forward_s_; }

 private:
  bool keep_;
  RecordCounts counts_;
  double forward_s_ = 0.0;
};

// Discards what it is given and counts the bytes.
class CountingBuf final : public std::streambuf {
 public:
  std::uint64_t bytes() const { return bytes_; }

 protected:
  int_type overflow(int_type ch) override {
    if (!traits_type::eq_int_type(ch, traits_type::eof())) ++bytes_;
    return traits_type::not_eof(ch);
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes_ += static_cast<std::uint64_t>(n);
    return n;
  }

 private:
  std::uint64_t bytes_ = 0;
};

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// A fixed amount of host work that uses no simulator code but has the
// shape of its hot path: a discrete-event loop over a binary heap of
// timestamped events whose std::function callbacks hold a shared payload
// and append it to a hash-map entry. Timed between simulations, it
// measures how fast the host runs such code at that moment.
std::uint64_t reference_work() {
  struct Event {
    double t;
    std::uint64_t seq;
    std::function<void()> fn;
    bool operator>(const Event& o) const { return t != o.t ? t > o.t : seq > o.seq; }
  };
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  std::unordered_map<std::uint64_t, std::vector<double>> state;
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  const auto next = [&x] { return x ^= x << 13, x ^= x >> 7, x ^= x << 17; };
  std::uint64_t seq = 0;
  std::uint64_t acc = 0;
  for (int i = 0; i < 2000; ++i) queue.push({static_cast<double>(next() % 1000), seq++, {}});
  double now = 0.0;
  for (int i = 0; i < 60000; ++i) {
    const Event e = queue.top();
    queue.pop();
    now = e.t;
    if (e.fn) e.fn();
    const std::uint64_t key = next() % 40000;
    auto payload = std::make_shared<std::vector<double>>(1 + key % 16, now);
    queue.push({now + static_cast<double>(next() % 1000), seq++, [&state, &acc, key, payload] {
                  auto& v = state[key];
                  v.insert(v.end(), payload->begin(), payload->end());
                  if (v.size() > 64) v.clear();
                  acc += v.size();
                }});
  }
  return acc + static_cast<std::uint64_t>(now);
}

// Host time of one reference_work() call.
double time_reference() {
  static volatile std::uint64_t sink = 0;
  const auto t0 = Clock::now();
  sink = sink + reference_work();
  return seconds_between(t0, Clock::now());
}

// Everything a simulation determines, by name. Equal seeds must give
// equal observations, bit for bit, whatever the host does.
using Observation = std::map<std::string, double>;

Observation observe(const serving::ExperimentConfig& cfg, const serving::ExperimentOutputs& out) {
  const auto& r = out.report;
  const auto& g = r.generative;
  const auto& l = out.liger;
  const auto& e = r.engine;
  const auto& f = out.failover;
  Observation o;
  o["arrivals"] = cfg.workload.num_requests;
  o["completed"] = static_cast<double>(r.completed);
  o["lost"] = static_cast<double>(r.lost);
  o["shed"] = static_cast<double>(r.shed);
  o["makespan_ms"] = sim::to_ms(r.makespan);

  o["sim_throughput_rps"] = r.throughput_rps;
  o["sim_goodput_rps"] = r.goodput_rps;
  o["sim_latency_p50_ms"] = r.p50_latency_ms;
  o["sim_latency_p95_ms"] = r.p95_latency_ms;
  o["sim_latency_p99_ms"] = r.p99_latency_ms;
  o["sim_latency_avg_ms"] = r.avg_latency_ms;
  // One-shot requests emit their only token when they complete.
  o["sim_ttft_avg_ms"] = g.enabled ? g.ttft_ms_avg : r.avg_latency_ms;
  o["sim_tpot_avg_ms"] = g.tpot_ms_avg;

  o["sim.events"] = static_cast<double>(e.events);
  o["sim.windows"] = static_cast<double>(e.windows + e.equal_time_rounds);
  o["sim.events_per_window"] = e.events_per_window;
  o["sim.posts_routed"] = static_cast<double>(e.posts_routed);
  o["sim.mailbox_spills"] = static_cast<double>(e.mailbox_spills);

  o["gpu.busy_frac"] = mean(out.device_busy_frac);
  o["collective.comm_frac"] = mean(out.device_comm_frac);

  o["core.rounds"] = static_cast<double>(l.rounds);
  o["core.kernels_launched"] = static_cast<double>(l.kernels_launched);
  o["core.overlap_kernels_frac"] =
      ratio(static_cast<double>(l.secondary_kernels), static_cast<double>(l.kernels_launched));
  o["core.decompositions"] = static_cast<double>(l.decompositions);
  o["core.peak_activation_mb"] = static_cast<double>(l.peak_activation_bytes) / 1e6;
  const auto& pc = r.plan_cache;
  o["core.plan_cache_hit_ratio"] =
      ratio(static_cast<double>(pc.hits), static_cast<double>(pc.hits + pc.misses));
  o["core.plan_cache_evictions"] = static_cast<double>(pc.evictions);

  o["serving.iterations"] = static_cast<double>(g.iterations);
  o["serving.decode_batch_avg"] = g.decode_batch_avg;
  o["serving.padding_tokens"] = static_cast<double>(g.padding_tokens);
  o["serving.preemptions"] = static_cast<double>(g.preemptions);
  o["serving.swap_gb"] = static_cast<double>(g.swap_bytes) / 1e9;
  o["serving.kv_peak_util"] = g.kv_peak_utilization;
  o["serving.kv_failed_allocs"] = static_cast<double>(g.kv_failed_allocs);
  o["serving.timed_out"] = static_cast<double>(r.timed_out);
  o["serving.tpot_avg_ms"] = g.tpot_ms_avg;

  o["fault.failovers"] = f.failovers;
  o["fault.requeues"] = static_cast<double>(g.fault_requeues);
  o["fault.shed"] = static_cast<double>(r.shed);
  double detect_ms = 0.0;
  double recovery_ms = 0.0;
  double first_after_ms = 0.0;
  double completions_after = 0.0;
  if (f.failovers > 0) {
    sim::SimTime injected = sim::kNever;
    for (const auto& ev : cfg.faults.plan.events) {
      if (ev.kind == fault::FaultKind::kDeviceFailStop && ev.time <= f.last_fault_detected) {
        injected = ev.time;  // the last fail-stop before its detection
      }
    }
    if (injected != sim::kNever) detect_ms = sim::to_ms(f.last_fault_detected - injected);
    recovery_ms = sim::to_ms(f.last_recovery_latency());
    sim::SimTime first_after = sim::kNever;
    for (const sim::SimTime t : out.completion_times) {
      if (t >= f.last_recovered) {
        first_after = std::min(first_after, t);
        completions_after += 1.0;
      }
    }
    if (first_after != sim::kNever) first_after_ms = sim::to_ms(first_after - f.last_recovered);
  }
  o["fault.detect_ms"] = detect_ms;
  o["fault.recovery_ms"] = recovery_ms;
  o["fault.first_completion_after_recovery_ms"] = first_after_ms;
  o["fault.completions_after_recovery"] = completions_after;
  return o;
}

void write_observation(util::JsonWriter& w, const Observation& o) {
  w.begin_object();
  for (const auto& [k, v] : o) w.kv(k, v);
  w.end_object();
}

void write_counts(util::JsonWriter& w, const RecordCounts& c) {
  w.begin_object();
  w.kv("records", c.total());
  w.kv("gpu.compute_kernels", c.compute);
  w.kv("collective.comm_kernels", c.comm);
  w.kv("interconnect.fabric_transfers", c.fabric);
  w.kv("interconnect.fabric_gb", static_cast<double>(c.fabric_bytes) / 1e9);
  w.end_object();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss is in KiB
}

// Copies `doc` with workload.seed set to `seed`.
util::JsonValue with_seed(const util::JsonValue& doc, std::int64_t seed) {
  util::JsonObject root = doc.as_object();
  util::JsonObject workload;
  if (const auto* w = doc.find("workload")) workload = w->as_object();
  workload["seed"] = util::JsonValue(seed);
  root["workload"] = util::JsonValue(std::move(workload));
  return util::JsonValue(std::move(root));
}

int run(const util::Flags& flags) {
  const std::string config_path = flags.get_string("config", "");
  if (config_path.empty()) {
    std::fprintf(stderr, "usage: liger_bench_runner --config <workload.json> --seed <n> "
                         "--budget_s <s> [--min_runs <n>] [--count] [--traced] "
                         "[--spans_out <file>] [--setup_only]\n");
    return 2;
  }
  const std::int64_t seed = flags.get_int("seed", 1);
  const double budget_s = flags.get_double("budget_s", 1.0);
  const auto min_runs = static_cast<std::size_t>(std::max<std::int64_t>(1, flags.get_int("min_runs", 1)));
  const bool setup_only = flags.get_bool("setup_only", false);
  const bool count = flags.get_bool("count", false);
  const bool traced = flags.get_bool("traced", false);
  const std::string spans_out = flags.get_string("spans_out", "");
  if (const auto unused = flags.unused(); !unused.empty()) {
    std::fprintf(stderr, "unknown flag --%s\n", unused.front().c_str());
    return 2;
  }

  SpanLog spans;
  const util::JsonValue doc = with_seed(util::parse_json_file(config_path), seed);

  // Set-up: every call before the first simulated event. The contention
  // profile is memoized per process, so this first call pays for it and
  // run_experiment_detailed's own call hits the memo.
  const int setup = spans.begin("setup");
  int span = spans.begin("config_from_json", setup);
  const serving::ExperimentConfig cfg = serving::config_from_json(doc);
  const double config_load_s = spans.end(span);
  span = spans.begin("model_fits", setup);
  const bool fits = serving::model_fits(cfg.node, cfg.model, cfg.method);
  spans.end(span);
  double contention_factor = cfg.liger.contention_factor;
  double contention_s = 0.0;
  if (cfg.profile_contention) {
    span = spans.begin("profiled_contention_factor", setup);
    contention_factor = serving::profiled_contention_factor(cfg.node, cfg.model, cfg.liger.comm);
    contention_s = spans.end(span);
  }
  const double setup_s = spans.end(setup);
  if (!fits) {
    std::fprintf(stderr, "workload model does not fit its devices\n");
    return 1;
  }

  util::JsonWriter w(std::cout);
  w.begin_object();
  w.key("setup");
  w.begin_object();
  w.kv("setup_s", setup_s);
  w.kv("config_load_s", config_load_s);
  w.kv("contention_s", contention_s);
  w.kv("contention_factor", contention_factor);
  w.end_object();
  if (setup_only) {
    w.end_object();
    std::cout << "\n";
    return 0;
  }
  // Threads the partitioned engine runs on (it clamps to the hardware).
  w.kv("engine_threads",
       static_cast<std::int64_t>(std::min<unsigned>(
           static_cast<unsigned>(cfg.engine_threads),
           std::max(1u, std::thread::hardware_concurrency()))));

  // Timed runs: untraced, one simulation at a time, until the budget is
  // spent (at least `min_runs`).
  w.key("runs");
  w.begin_array();
  double timed_s = 0.0;
  std::vector<double> walls;
  time_reference();  // warms the allocator and caches outside the timings
  double ref_before = time_reference();
  while (walls.size() < min_runs || timed_s + walls.back() <= budget_s) {
    span = spans.begin("run_experiment_detailed");
    const serving::ExperimentOutputs out = serving::run_experiment_detailed(cfg);
    const double wall = spans.end(span);
    const double ref_after = time_reference();
    walls.push_back(wall);
    timed_s += wall + ref_after;
    w.begin_object();
    w.kv("wall_s", wall);
    w.kv("ref_s", (ref_before + ref_after) / 2);
    ref_before = ref_after;
    w.kv("barrier_wait_ms", static_cast<double>(out.report.engine.barrier_wait_ns) / 1e6);
    w.key("obs");
    write_observation(w, observe(cfg, out));
    w.end_object();
  }
  w.end_array();
  // Peak RSS of the untraced runs, read before any sink holds records.
  w.kv("peak_rss_mb", peak_rss_mb());

  if (count) {
    // The record count is a function of the seed; a counting sink that
    // keeps nothing reads it without holding the records.
    BenchSink sink(/*keep=*/false);
    serving::ExperimentConfig counted = cfg;
    counted.trace_sink = &sink;
    span = spans.begin("run_experiment_detailed(count)");
    const serving::ExperimentOutputs out = serving::run_experiment_detailed(counted);
    const double wall = spans.end(span);
    w.key("count");
    w.begin_object();
    w.kv("wall_s", wall);
    w.key("obs");
    write_observation(w, observe(cfg, out));
    w.key("records");
    write_counts(w, sink.counts());
    w.end_object();
  }

  if (traced) {
    BenchSink sink(/*keep=*/true);
    serving::ExperimentConfig traced_cfg = cfg;
    traced_cfg.trace_sink = &sink;
    const int run_span = spans.begin("run_experiment_detailed(traced)");
    const serving::ExperimentOutputs out = serving::run_experiment_detailed(traced_cfg);
    const double wall = spans.end(run_span);
    spans.aggregate("ChromeTraceSink::on_kernel", run_span, sink.counts().total(),
                    sink.forward_s());

    span = spans.begin("ChromeTraceSink::write_json");
    CountingBuf buf;
    std::ostream sink_out(&buf);
    sink.write_json(sink_out);
    const double write_s = spans.end(span);

    // The achieved compute/communication overlap (the paper's
    // mechanism): time both kinds ran at once over communication busy
    // time. Device ids repeat across cluster nodes and the sink's
    // helpers merge them.
    int devices = 0;
    for (const auto& rec : sink.records()) devices = std::max(devices, rec.device + 1);
    double overlap = 0.0;
    double comm_busy = 0.0;
    for (int d = 0; d < devices; ++d) {
      overlap += static_cast<double>(sink.overlap_time(d));
      comm_busy += static_cast<double>(sink.busy_time(d, gpu::KernelKind::kComm));
    }

    w.key("traced");
    w.begin_object();
    w.kv("wall_s", wall);
    w.kv("sink_s", sink.forward_s());
    w.kv("write_s", write_s);
    w.kv("bytes_mb", static_cast<double>(buf.bytes()) / 1e6);
    w.kv("comm_hidden_frac", ratio(overlap, comm_busy));
    w.key("obs");
    write_observation(w, observe(cfg, out));
    w.key("records");
    write_counts(w, sink.counts());
    w.end_object();
  }
  w.end_object();
  std::cout << "\n";

  if (!spans_out.empty()) {
    std::ofstream file(spans_out);
    spans.write_chrome_trace(file);
    if (!file) {
      std::fprintf(stderr, "cannot write %s\n", spans_out.c_str());
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(util::Flags(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "liger_bench_runner: %s\n", e.what());
    return 1;
  }
}
