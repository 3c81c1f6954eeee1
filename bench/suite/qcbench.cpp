// qcbench — the repository's end-to-end benchmark driver. README.md
// beside this file has the workload table, the metric glossary and how to
// run a claim.
//
//   qcbench --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1]
//           [--threads <n>] [--smoke] [--trace-file <path>]
//
// One process runs one workload. Every input is generated here (content
// model -> crawl -> PeerStore, overlay, query trace or object queries;
// workloads.hpp says which of them --seed draws) and reaches the program
// only through public entry points:
// sim::ServingWorld(...).run() for the serving workloads, sim::TrialRunner
// driving a sim::make_engine engine for the batch one.
//
// Load model: open loop on the simulated clock (trace timestamps are
// rescaled to a fixed rate), closed loop on the wall clock (the program
// retires queries as fast as it can). Wall throughput is therefore
// reported at a stated input size; the simulated clock has no queueing
// model, so a sweep over rates would give flat simulated latency.
//
// A run repeats rounds — set-up plus the measured phase, on identical
// inputs — until --seconds have passed; it reports the median set-up and
// the best round's throughput.
// It then replays the workload once in the benchmark's own code
// (replay.hpp). The replay must reproduce the measured report exactly,
// and it feeds the answer checks and recall@10. With --trace 1 the
// replay records a span around every call, per-call twins (twins.hpp)
// price the stages that cannot be called alone, the spans are written as
// Chrome trace-event JSON, and the result line carries the per-layer
// metrics instead of the end-to-end ones.
//
// The last line of stdout is the result object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// A failed check prints it with "correct": false and exits 1.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "audit.hpp"
#include "replay.hpp"
#include "tracer.hpp"
#include "twins.hpp"
#include "workloads.hpp"

namespace qcbench {
namespace {

constexpr const char* kUsage =
    "usage: qcbench --workload <name> [--seed <n>] [--seconds <s>] "
    "[--trace 0|1]\n"
    "               [--threads <n>] [--smoke] [--trace-file <path>]\n"
    "workloads: flood-read, hybrid-ranked, adaptive-churn, "
    "batch-des-faults\n";

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t threads = 1;
  bool smoke = false;
  std::string trace_file;
};

[[noreturn]] void usage_error(const std::string& what) {
  std::cerr << "qcbench: " << what << "\n" << kUsage;
  std::exit(2);
}

template <typename T>
T parse_number(std::string_view flag, std::string_view raw, T lo, T hi) {
  T value{};
  const char* const end = raw.data() + raw.size();
  const auto [parse_end, ec] = std::from_chars(raw.data(), end, value);
  if (raw.empty() || ec != std::errc{} || parse_end != end || !(value >= lo) ||
      !(value <= hi)) {
    usage_error("--" + std::string(flag) + " got '" + std::string(raw) + "'");
  }
  return value;
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (arg.substr(0, 2) != "--" || i + 1 >= argc) {
      usage_error("bad argument '" + std::string(arg) + "'");
    }
    const std::string_view flag = arg.substr(2);
    const std::string_view value = argv[++i];
    if (flag == "workload") {
      o.workload = find_workload(value);
      if (o.workload == nullptr) {
        usage_error("unknown workload '" + std::string(value) + "'");
      }
    } else if (flag == "seed") {
      o.seed = parse_number<std::uint64_t>(flag, value, 0, UINT64_MAX);
    } else if (flag == "seconds") {
      o.seconds = parse_number<double>(flag, value, 0.0, 3600.0);
    } else if (flag == "trace") {
      o.trace = parse_number<int>(flag, value, 0, 1) == 1;
    } else if (flag == "threads") {
      o.threads = parse_number<std::size_t>(flag, value, 1, 64);
    } else if (flag == "trace-file") {
      o.trace_file = value;
    } else {
      usage_error("unknown flag '" + std::string(arg) + "'");
    }
  }
  if (o.workload == nullptr) usage_error("--workload is required");
  if (o.trace_file.empty()) {
    o.trace_file =
        "build-suite/qcbench-trace-" + std::string(o.workload->name) + ".json";
  }
  return o;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// Measured rounds.

struct Rounds {
  std::vector<double> setup_s;
  std::vector<double> run_s;
  std::vector<double> qps;
  std::uint64_t attempted = 0;
  /// Peak RSS through the first round: later rounds only reuse freed
  /// memory, and the replay's oracle is the benchmark's own.
  double peak_rss_mib = 0.0;

  void add(double setup, double run, std::uint64_t queries) {
    if (setup_s.empty()) peak_rss_mib = qcbench::peak_rss_mib();
    setup_s.push_back(setup);
    run_s.push_back(run);
    qps.push_back(ratio(static_cast<double>(queries), run));
    attempted += queries;
  }

  /// True while one more round of the mean length so far still ends
  /// within `seconds` of `start`; a run always measures one round.
  [[nodiscard]] bool another(Clock::time_point start, double seconds) const {
    const double elapsed = seconds_between(start, Clock::now());
    return elapsed * (1.0 + 1.0 / static_cast<double>(run_s.size())) <=
           seconds;
  }
};

/// Set-up is timed at least this often, so setup_s is a median even when
/// only one or two rounds fit; the extra set-ups build the world and drop
/// it without running.
constexpr std::size_t kMinSetups = 3;

/// The user-visible outcome of one measured phase.
struct Outcome {
  std::uint64_t queries = 0;
  std::uint64_t successes = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t timed = 0;
  std::uint64_t messages = 0;
  sim::LatencyHistogram latency;
};

Outcome outcome_of(const sim::ServingReport& report) {
  const sim::WindowStats& t = report.stats.total();
  return {t.queries, t.successes, t.cache_hits, t.timed, t.messages,
          t.latency};
}

Outcome outcome_of(const BatchRun& run) {
  Outcome o;
  o.queries = run.agg.trials;
  o.successes = run.agg.successes;
  o.messages = run.agg.messages;
  for (const TrialTap& tap : run.taps) {
    if (!tap.timed) continue;
    ++o.timed;
    o.latency.record(tap.first_hit_s);
  }
  return o;
}

/// The stream invariants every measured phase must satisfy.
void check_invariants(const Outcome& o, std::uint64_t stream, Audit& audit) {
  if (o.queries != stream) {
    audit.fail("retired " + std::to_string(o.queries) + " of " +
               std::to_string(stream) + " queries");
  }
  if (o.successes > o.queries) audit.fail("more successes than queries");
  if (o.cache_hits > o.successes) audit.fail("more cache hits than successes");
  if (o.timed != o.latency.count()) {
    audit.fail("timed queries differ from the latency histogram count");
  }
}

// ---------------------------------------------------------------------------
// Metrics and output.

struct Metric {
  std::string name;
  double value;
  std::string_view unit;
};
using Metrics = std::vector<Metric>;

Metrics end_to_end(const Rounds& r, const Outcome& o, double recall) {
  return {
      {"setup_s", median(r.setup_s), "s"},
      // The best round: host contention only ever slows a round, and on a
      // shared machine it comes in phases of tens of seconds that shift a
      // run's median by up to 40%. The best round moved about 7%.
      {"throughput_qps", *std::max_element(r.qps.begin(), r.qps.end()),
       "queries/s"},
      {"peak_rss_mb", r.peak_rss_mib, "MiB"},
      {"success_rate", ratio(o.successes, o.queries), "fraction"},
      {"msgs_per_query", ratio(o.messages, o.queries), "msgs"},
      {"sim_latency_p50_ms", o.latency.quantile(0.50) * 1e3, "DES-ms"},
      {"sim_latency_p99_ms", o.latency.quantile(0.99) * 1e3, "DES-ms"},
      {"recall_at_10", recall, "fraction"},
  };
}

/// Span totals of one phase of a trace: per name, and self time per
/// layer. "bench" spans (the benchmark's own checks) are leaves; their
/// time is kept apart from every layer.
struct SpanTable {
  struct Name {
    std::uint64_t calls = 0;
    double total_s = 0.0;
    double self_s = 0.0;
    /// Per-call time with nested bench spans taken out.
    std::vector<double> work_s;
  };
  std::map<std::string_view, Name> names;
  std::map<std::string_view, double> layer_self_s;
  double bench_s = 0.0;
  double covered_s = 0.0;

  [[nodiscard]] double total(std::string_view name) const {
    const auto it = names.find(name);
    return it == names.end() ? 0.0 : it->second.total_s;
  }
  [[nodiscard]] double quantile_us(std::initializer_list<std::string_view> of,
                                   double q) const {
    std::vector<double> all;
    for (std::string_view name : of) {
      const auto it = names.find(name);
      if (it == names.end()) continue;
      all.insert(all.end(), it->second.work_s.begin(), it->second.work_s.end());
    }
    return all.empty() ? 0.0 : util::quantile(all, q) * 1e6;
  }
};

SpanTable tabulate(std::span<const Tracer::Span> spans, std::size_t base) {
  std::vector<double> child_s(spans.size(), 0.0);
  std::vector<double> bench_child_s(spans.size(), 0.0);
  for (const Tracer::Span& s : spans) {
    if (s.parent < 0) continue;
    const auto p = static_cast<std::size_t>(s.parent) - base;
    const double d = static_cast<double>(s.duration_ns()) * 1e-9;
    child_s[p] += d;
    if (s.layer() == "bench") bench_child_s[p] += d;
  }
  SpanTable t;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    const double d = static_cast<double>(s.duration_ns()) * 1e-9;
    const double self = d - child_s[i];
    if (s.layer() == "bench") {
      t.bench_s += d;
      continue;
    }
    SpanTable::Name& n = t.names[s.name];
    ++n.calls;
    n.total_s += d;
    n.self_s += self;
    n.work_s.push_back(d - bench_child_s[i]);
    t.layer_self_s[s.layer()] += self;
    t.covered_s += self;
  }
  return t;
}

/// Everything the per-layer metrics are computed from.
struct LayerInputs {
  const SpanTable* setup = nullptr;
  const SpanTable* run = nullptr;
  Counters counters;
  std::uint64_t queries = 0;
  std::uint64_t refreezes = 0;
  std::uint64_t edges_changed = 0;
  std::uint64_t compactions = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t readvertisements = 0;
  TwinPrices twins;
  bool ranked = false;
  bool serving = true;
  double untraced_wall_s = 0.0;
  double traced_wall_s = 0.0;
};

Metrics per_layer(const LayerInputs& in) {
  const SpanTable& run = *in.run;
  const SpanTable& setup = *in.setup;
  const Counters& c = in.counters;
  const TwinPrices& tw = in.twins;
  const double wall = in.traced_wall_s;
  const auto q = static_cast<double>(in.queries);
  const auto share = [&](double seconds) { return ratio(seconds, wall); };
  const double match_calls = static_cast<double>(c.peers_probed);
  const double cache_peek_us =
      in.serving ? run.quantile_us({"cache.peek_routed",
                                    "cache.peek_routed_ranked"},
                                   0.5)
                 : tw.cache_peek_us_p50;
  const double cache_prime_us =
      in.serving
          ? run.quantile_us({"cache.prime", "cache.prime_ranked"}, 0.5)
          : tw.cache_prime_us_p50;
  return {
      {"serving.query_phase_s",
       run.total("serving.query_phase") + run.total("trial.sweep"), "s"},
      {"serving.replay_s",
       run.total("serving.replay") + run.total("trial.fold"), "s"},
      {"serving.maintenance_share", share(run.total("serving.maintenance")),
       "fraction"},
      {"overlay.traverse_us_p50", tw.traverse_us_p50, "us"},
      {"overlay.traverse_us_p99", tw.traverse_us_p99, "us"},
      {"overlay.traverse_share_est",
       share(tw.traverse_us_mean * 1e-6 *
             static_cast<double>(c.flood_traversals)),
       "fraction"},
      {"overlay.apply_delta_share", share(run.total("overlay.apply_delta")),
       "fraction"},
      {"overlay.apply_delta_calls", static_cast<double>(in.refreezes), "count"},
      {"overlay.edges_changed", static_cast<double>(in.edges_changed), "count"},
      {"overlay.churn_events", static_cast<double>(c.churn_events), "count"},
      {"overlay.build_s", setup.total("overlay.build"), "s"},
      {"store.match_ns", tw.match_ns, "ns"},
      {"store.match_scored_ns", tw.match_scored_ns, "ns"},
      {"store.match_calls_per_query", ratio(match_calls, q), "count"},
      {"store.match_share_est",
       share((in.ranked ? tw.match_scored_ns : tw.match_ns) * 1e-9 *
             match_calls),
       "fraction"},
      {"store.object_score_at_ns", tw.object_score_at_ns, "ns"},
      {"store.apply_membership_share",
       share(run.total("store.apply_membership")), "fraction"},
      {"store.compact_share", share(run.total("store.compact")), "fraction"},
      {"store.compact_calls", static_cast<double>(in.compactions), "count"},
      {"store.finalize_s", setup.total("store.build"), "s"},
      {"engine.search_us_p50", run.quantile_us({"engine.search"}, 0.5), "us"},
      {"engine.search_us_p99", run.quantile_us({"engine.search"}, 0.99), "us"},
      {"engine.busy_s", run.total("engine.search"), "s"},
      {"engine.peers_probed_per_query",
       ratio(c.peers_probed, c.engine_searches), "count"},
      {"engine.msgs_per_success", ratio(c.engine_messages, c.engine_successes),
       "msgs"},
      {"dht.search_term_us_p50", tw.search_term_us_p50, "us"},
      {"dht.search_term_us_p99", tw.search_term_us_p99, "us"},
      {"dht.postings_per_term", tw.postings_per_term, "count"},
      {"dht.hops_per_term", tw.hops_per_term, "count"},
      {"dht.fallback_rate", ratio(c.dht_fallbacks, c.engine_searches),
       "fraction"},
      {"dht.phase_share_est",
       share(tw.dht_phase_us_mean * 1e-6 *
             static_cast<double>(c.dht_fallbacks)),
       "fraction"},
      {"dht.publish_ms",
       (setup.total("dht.publish_store") + run.total("dht.publish_store")) *
           1e3,
       "ms"},
      {"cache.peek_us_p50", cache_peek_us, "us"},
      {"cache.prime_us_p50", cache_prime_us, "us"},
      {"cache.hit_rate", ratio(static_cast<double>(c.cache_hits), q),
       "fraction"},
      {"cache.probe_msgs_per_query",
       ratio(static_cast<double>(c.cache_probe_messages), q), "msgs"},
      {"cache.invalidations", static_cast<double>(in.invalidations), "count"},
      {"topk.note_ns", tw.note_ns, "ns"},
      {"topk.k_filled_rate", ratio(c.k_filled, c.answers), "fraction"},
      {"adaptive.observe_share", share(run.total("adaptive.observe_query")),
       "fraction"},
      {"adaptive.refresh_share", share(run.total("adaptive.refresh_synopses")),
       "fraction"},
      {"adaptive.readvertisements", static_cast<double>(in.readvertisements),
       "count"},
      {"adaptive.guided_ratio",
       ratio(c.guided_forwards, c.guided_forwards + c.fallback_forwards),
       "fraction"},
      {"des.events_per_query", ratio(c.des_events, c.engine_searches), "count"},
      {"des.event_ns", tw.event_ns, "ns"},
      {"des.share_est",
       share(tw.event_ns * 1e-9 * static_cast<double>(c.des_events)),
       "fraction"},
      {"fault.deliver_ns", tw.deliver_ns, "ns"},
      {"fault.share_est",
       share(tw.deliver_ns * 1e-9 * static_cast<double>(c.faulty_messages)),
       "fraction"},
      {"fault.dropped_per_query", ratio(static_cast<double>(c.dropped), q),
       "count"},
      {"fault.retries_per_query", ratio(static_cast<double>(c.retries), q),
       "count"},
      {"fault.hedges_per_query", ratio(static_cast<double>(c.hedges), q),
       "count"},
      {"fault.recovery_wait_ms_per_query", ratio(c.recovery_wait_ms, q),
       "DES-ms"},
      {"trial.us_p50", run.quantile_us({"serving.query", "trial.run"}, 0.5),
       "us"},
      {"trial.us_p99", run.quantile_us({"serving.query", "trial.run"}, 0.99),
       "us"},
      {"setup.generate_s",
       setup.total("setup.content_model") + setup.total("setup.crawl") +
           setup.total("setup.query_trace") +
           setup.total("setup.object_queries"),
       "s"},
      {"trace.overhead", ratio(wall, in.untraced_wall_s) - 1.0, "fraction"},
      {"trace.coverage", share(run.covered_s), "fraction"},
  };
}

std::string json_number(double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc{} ? std::string(buf, end) : std::string("0");
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

/// Self-time table of the replay, per layer and per span name.
void print_self_times(const SpanTable& t, double wall_s) {
  std::printf("per-layer self time (traced replay %.3f s):\n", wall_s);
  std::vector<std::pair<double, std::string_view>> layers;
  for (const auto& [layer, s] : t.layer_self_s) layers.emplace_back(s, layer);
  std::sort(layers.rbegin(), layers.rend());
  for (const auto& [s, layer] : layers) {
    std::printf("  %-12.*s %10.3f ms  %6.2f%%\n",
                static_cast<int>(layer.size()), layer.data(), s * 1e3,
                100.0 * ratio(s, wall_s));
  }
  std::printf("  %-12s %10.3f ms  %6.2f%%  (checks, excluded)\n", "bench",
              t.bench_s * 1e3, 100.0 * ratio(t.bench_s, wall_s + t.bench_s));
}

/// Spans written to the trace file; a longer replay keeps its first
/// spans (the whole self-time table still covers every span).
constexpr std::size_t kMaxTraceEvents = 150'000;

/// Chrome trace-event JSON: setup spans on thread 1, the replay on
/// thread 2, with the self-time table alongside.
void write_trace(const std::string& path, const Options& o,
                 std::span<const Tracer::Span> spans, std::size_t run_begin,
                 const SpanTable& table) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "{\"traceEvents\": [\n");
  const std::size_t written = std::min(spans.size(), kMaxTraceEvents);
  for (std::size_t i = 0; i < written; ++i) {
    const Tracer::Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\": \"%.*s\", \"cat\": \"%.*s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d, "
                 "\"args\": {\"id\": %llu, \"parent\": %d}}",
                 i == 0 ? "" : ",\n", static_cast<int>(s.name.size()),
                 s.name.data(), static_cast<int>(s.layer().size()),
                 s.layer().data(), static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.duration_ns()) * 1e-3,
                 i < run_begin ? 1 : 2, static_cast<unsigned long long>(s.id),
                 s.parent);
  }
  std::fprintf(f, "\n], \"displayTimeUnit\": \"ms\", \"qcbench\": {");
  std::fprintf(f,
               "\"workload\": %s, \"seed\": %llu, \"spans\": %zu, "
               "\"spans_written\": %zu, \"self_ms\": {",
               json_string(o.workload->name).c_str(),
               static_cast<unsigned long long>(o.seed), spans.size(), written);
  bool first = true;
  for (const auto& [layer, s] : table.layer_self_s) {
    std::fprintf(f, "%s%s: %s", first ? "" : ", ", json_string(layer).c_str(),
                 json_number(s * 1e3).c_str());
    first = false;
  }
  std::fprintf(f, "}, \"by_name\": {");
  first = true;
  for (const auto& [name, n] : table.names) {
    std::fprintf(f,
                 "%s%s: {\"calls\": %llu, \"total_ms\": %s, \"self_ms\": %s}",
                 first ? "" : ", ", json_string(name).c_str(),
                 static_cast<unsigned long long>(n.calls),
                 json_number(n.total_s * 1e3).c_str(),
                 json_number(n.self_s * 1e3).c_str());
    first = false;
  }
  std::fprintf(f, "}}}\n");
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

/// Prints every metric, the check verdict, and the result line.
int finish(const Rounds& rounds, const Metrics& metrics, Audit& audit) {
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) audit.fail(m.name + " is not finite");
  }
  const bool ok = audit.ok();
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16s %s\n", m.name.c_str(),
                json_number(m.value).c_str(), std::string(m.unit).c_str());
  }
  for (const std::string& f : audit.failures()) {
    std::printf("check failure: %s\n", f.c_str());
  }
  std::printf("check %s\n", ok ? "ok" : "FAIL");
  std::string line = "{\"correct\": ";
  line += ok ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(rounds.attempted);
  line += ", \"failed\": " + std::to_string(ok ? 0 : rounds.attempted);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i != 0) line += ", ";
    line += json_string(m.name) + ": {\"value\": " +
            json_number(std::isfinite(m.value) ? m.value : 0.0) +
            ", \"unit\": " + json_string(m.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return ok ? 0 : 1;
}

void print_header(const Options& o, const Sizes& s, const Rounds& r) {
  std::printf(
      "qcbench %.*s seed=%llu threads=%zu%s: %zu nodes, scale %g, %zu "
      "queries/round, %zu rounds\n",
      static_cast<int>(o.workload->name.size()), o.workload->name.data(),
      static_cast<unsigned long long>(o.seed), o.threads,
      o.smoke ? " (smoke)" : "", s.nodes, s.scale, s.queries,
      r.run_s.size());
  std::printf("  rounds (set-up s / throughput q/s):");
  for (std::size_t i = 0; i < r.run_s.size(); ++i) {
    std::printf(" %.3f/%.0f", r.setup_s[i], r.qps[i]);
  }
  std::printf("\n");
}

/// The --trace 1 result: span tables of the replay's set-up (spans before
/// `run_begin`) and run phase, the self-time table, the trace file, and
/// the per-layer metrics. `li` arrives with the replay's counts and twin
/// prices.
int traced_result(const Options& o, const Rounds& rounds, const Tracer& tr,
                  std::size_t run_begin, double replay_wall_s, LayerInputs li,
                  Audit& audit) {
  const std::span<const Tracer::Span> spans = tr.spans();
  const SpanTable setup = tabulate(spans.subspan(0, run_begin), 0);
  const SpanTable run = tabulate(spans.subspan(run_begin), run_begin);
  li.setup = &setup;
  li.run = &run;
  li.untraced_wall_s = median(rounds.run_s);
  li.traced_wall_s = replay_wall_s - run.bench_s;
  print_self_times(run, li.traced_wall_s);
  write_trace(o.trace_file, o, spans, run_begin, run);
  std::printf("  trace written to %s\n", o.trace_file.c_str());
  return finish(rounds, per_layer(li), audit);
}

/// The sample sizes behind the checks and the latency percentiles.
void print_audit(const Outcome& outcome, const Audit& audit) {
  std::printf(
      "  timed queries %llu, recall oracle over %llu results, %llu answers "
      "hit-checked\n",
      static_cast<unsigned long long>(outcome.timed),
      static_cast<unsigned long long>(audit.recall_denominator()),
      static_cast<unsigned long long>(audit.hits_checked()));
}

// ---------------------------------------------------------------------------
// The two workload kinds.

int run_serving(const Options& o, const Sizes& s) {
  const Workload& w = *o.workload;
  const sim::ServingConfig cfg = serving_config(w, o.threads);
  Audit audit(w.recall_stride);
  Rounds rounds;
  std::optional<sim::ServingReport> measured;
  const auto start = Clock::now();
  do {
    Tracer off(false, start);
    const auto t0 = Clock::now();
    ServingInputs in = make_serving_inputs(s, o.seed, o.threads, off);
    sim::ServingWorld world(std::move(in.graph), std::move(in.store),
                            std::move(in.queries), in.duration_s, cfg);
    const auto t1 = Clock::now();
    sim::ServingReport report = world.run();
    const auto t2 = Clock::now();
    rounds.add(seconds_between(t0, t1), seconds_between(t1, t2),
               report.stats.total().queries);
    if (!measured.has_value()) {
      measured = std::move(report);
    } else if (const std::string d = diff_reports(*measured, report);
               !d.empty()) {
      audit.fail("round reports differ: " + d);
    }
  } while (rounds.another(start, o.seconds));
  while (rounds.setup_s.size() < kMinSetups) {
    Tracer off(false, start);
    const auto t0 = Clock::now();
    ServingInputs in = make_serving_inputs(s, o.seed, o.threads, off);
    const sim::ServingWorld world(std::move(in.graph), std::move(in.store),
                                  std::move(in.queries), in.duration_s, cfg);
    rounds.setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  const auto origin = Clock::now();
  Tracer tr(o.trace, origin);
  ServingInputs in = make_serving_inputs(s, o.seed, o.threads, tr);
  const std::uint64_t stream = in.queries.size();
  ServingReplay replay(std::move(in), cfg, tr);
  const std::size_t run_begin = tr.spans().size();
  const auto r0 = Clock::now();
  const sim::ServingReport replayed = replay.run(audit);
  const double replay_wall = seconds_between(r0, Clock::now());

  const Outcome outcome = outcome_of(*measured);
  check_invariants(outcome, stream, audit);
  if (const std::string d = diff_reports(*measured, replayed); !d.empty()) {
    audit.fail("replay differs from run(): " + d);
  }
  print_header(o, s, rounds);
  print_audit(outcome, audit);
  std::printf(
      "  %zu windows, %llu refreezes, %llu compactions, %llu content adds\n",
      measured->stats.windows().size(),
      static_cast<unsigned long long>(measured->refreezes),
      static_cast<unsigned long long>(measured->compactions),
      static_cast<unsigned long long>(measured->content_adds));
  if (!o.trace) {
    return finish(rounds, end_to_end(rounds, outcome, audit.recall()),
                  audit);
  }

  const TwinWorld tw{&replay.graph(), &replay.store(), &replay.dht(),
                     &replay.online(), w.top_k, o.seed};
  LayerInputs li;
  li.counters = replay.counters();
  li.queries = outcome.queries;
  li.refreezes = replayed.refreezes;
  li.edges_changed = replayed.edges_removed + replayed.edges_added;
  li.compactions = replayed.compactions;
  li.invalidations = replayed.cache_invalidations;
  li.readvertisements = replayed.adaptive_readvertisements;
  li.twins = measure_twins(tw, replay.samples(), replay.fallbacks());
  li.ranked = w.top_k != 0;
  return traced_result(o, rounds, tr, run_begin, replay_wall, li, audit);
}

int run_batch(const Options& o, const Sizes& s) {
  const Workload& w = *o.workload;
  Audit audit(w.recall_stride);
  Rounds rounds;
  std::optional<BatchRun> measured;
  const auto start = Clock::now();
  do {
    Tracer off(false, start);
    const auto t0 = Clock::now();
    const auto bw = make_batch_world(w, s, o.seed, o.threads, off);
    const auto t1 = Clock::now();
    BatchRun run = batch_sweep(*bw, w, o.threads);
    const auto t2 = Clock::now();
    rounds.add(seconds_between(t0, t1), seconds_between(t1, t2),
               run.agg.trials);
    if (!measured.has_value()) {
      measured = std::move(run);
    } else if (const std::string d = diff_batch(*measured, run); !d.empty()) {
      audit.fail("round sweeps differ: " + d);
    }
  } while (rounds.another(start, o.seconds));
  while (rounds.setup_s.size() < kMinSetups) {
    Tracer off(false, start);
    const auto t0 = Clock::now();
    (void)make_batch_world(w, s, o.seed, o.threads, off);
    rounds.setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  const auto origin = Clock::now();
  Tracer tr(o.trace, origin);
  const auto bw = make_batch_world(w, s, o.seed, o.threads, tr);
  HolderIndex holders;
  holders.rebuild(bw->store);
  Counters counters;
  std::vector<Sample> samples;
  const std::size_t run_begin = tr.spans().size();
  const auto r0 = Clock::now();
  const BatchRun replayed =
      batch_replay(*bw, w, tr, audit, counters, samples, holders);
  const double replay_wall = seconds_between(r0, Clock::now());

  const Outcome outcome = outcome_of(*measured);
  check_invariants(outcome, bw->queries.size(), audit);
  if (const std::string d = diff_batch(*measured, replayed); !d.empty()) {
    audit.fail("replay differs from the TrialRunner sweep: " + d);
  }
  print_header(o, s, rounds);
  print_audit(outcome, audit);
  if (!o.trace) {
    return finish(rounds, end_to_end(rounds, outcome, audit.recall()),
                  audit);
  }

  const TwinWorld tw{&bw->graph, &bw->store, bw->dht.get(), nullptr,
                     w.top_k, o.seed};
  LayerInputs li;
  li.counters = counters;
  li.queries = outcome.queries;
  li.twins = measure_twins(tw, samples, {});
  li.ranked = w.top_k != 0;
  li.serving = false;
  return traced_result(o, rounds, tr, run_begin, replay_wall, li, audit);
}

}  // namespace
}  // namespace qcbench

int main(int argc, char** argv) {
  using namespace qcbench;
  const Options o = parse_options(argc, argv);
  const Sizes s = o.smoke ? o.workload->smoke : o.workload->full;
  try {
    return o.workload->kind == Kind::kServing ? run_serving(o, s)
                                              : run_batch(o, s);
  } catch (const std::exception& e) {
    // A crashed run counts every query of its stream as failed.
    std::cerr << "qcbench: " << e.what() << "\n";
    std::printf("check FAIL\n");
    std::printf(
        "{\"correct\": false, \"attempted\": %zu, \"failed\": %zu, "
        "\"metrics\": {}}\n",
        s.queries, s.queries);
    return 1;
  }
}
