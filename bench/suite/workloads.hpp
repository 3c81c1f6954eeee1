// qcbench's workloads and the inputs each one generates from its seed.
//
// Inputs reach the program only through public entry points: the content
// model, the crawl generator, peer_store_from_crawl, the topology
// generator and the query-trace generator build the world; nothing here
// reaches into a layer's internals. The derivations follow the bench
// harness (bench/bench_common.hpp) but are written out here so the
// benchmark's inputs never change with that harness.
//
// The content universe, crawl, query trace or object queries, churn
// schedule, DHT ring, query sources and fault plan ARE the workload, so
// they all derive from one fixed seed (kWorkloadSeed). The run's --seed
// draws only the overlay topology: runs at different seeds measure the
// same workload on independent overlays. Re-drawing everything per seed
// made runs different workloads: success rate moved 13% between seeds,
// and hybrid throughput 2.8x, because a few heavy DHT terms cost nothing
// whenever their index node happened to be offline.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "src/overlay/topology.hpp"
#include "src/sim/dht.hpp"
#include "src/sim/engine_registry.hpp"
#include "src/sim/fault.hpp"
#include "src/sim/serving.hpp"
#include "src/trace/content_model.hpp"
#include "src/trace/gnutella.hpp"
#include "src/trace/query_trace.hpp"
#include "src/util/rng.hpp"
#include "tracer.hpp"

namespace qcbench {

using namespace qcp2p;
using overlay::NodeId;
using sim::TermId;

inline constexpr std::uint64_t kWorkloadSeed = 42;
inline constexpr std::uint32_t kTtl = 3;
inline constexpr std::uint32_t kRecallK = 10;

enum class Kind { kServing, kBatch };

/// Input size of one round.
struct Sizes {
  double scale = 0.0;
  std::size_t nodes = 0;
  /// Serving: stream length. Batch: trials (one object query each).
  std::size_t queries = 0;
};

struct Workload {
  std::string_view name;
  Kind kind;
  std::string_view engine;
  std::uint32_t top_k;
  Sizes full;
  Sizes smoke;
  /// Serving: steady-state offline fraction of the churn process.
  double offline;
  /// Serving: mean online + offline session length (s); shorter sessions
  /// mean more membership events per window.
  double session_s;
  /// Serving: sustained arrival rate on the simulated clock (queries/s).
  double qps;
  double window_s;
  std::uint64_t compact_delta;
  /// Every n-th query is scored against the exhaustive oracle.
  std::size_t recall_stride;
};

// Why these four (README.md has the long form): flood-read is CSR
// traversal plus plain posting intersection with the DHT, scoring, DES
// and fault layers idle; hybrid-ranked adds the DHT fallback, scoring and
// ranked caching on the same flood half; adaptive-churn is the paper's
// query-centric engine under write-heavy maintenance; batch-des-faults is
// DES dispatch, fault delivery and the retry loop with no serving layer.
inline constexpr Workload kWorkloads[] = {
    {"flood-read", Kind::kServing, "flood", 0,
     {0.03125, 10'000, 280'000}, {0.02, 2'000, 3'000},
     0.30, 3600.0, 100.0, 60.0, 20'000, 64},
    {"hybrid-ranked", Kind::kServing, "hybrid", 10,
     {0.03125, 10'000, 10'000}, {0.02, 2'000, 1'000},
     0.30, 3600.0, 35.0, 60.0, 20'000, 1},
    {"adaptive-churn", Kind::kServing, "adaptive", 0,
     {0.03125, 10'000, 120'000}, {0.02, 2'000, 3'000},
     0.50, 600.0, 375.0, 60.0, 800, 1},
    {"batch-des-faults", Kind::kBatch, "flood-des", 10,
     {0.02, 1'500, 4'000}, {0.01, 300, 150},
     0.0, 0.0, 0.0, 0.0, 0, 1},
};

[[nodiscard]] inline const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

/// num / den, or 0 when nothing was counted.
[[nodiscard]] inline double ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}
[[nodiscard]] inline double ratio(std::uint64_t num, std::uint64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

/// Sub-seed `component` of `base` (the bench harness's seed_stream).
[[nodiscard]] inline std::uint64_t seed_stream(std::uint64_t base,
                                               std::uint64_t component) {
  return util::mix64(util::mix64(base) ^ component);
}

[[nodiscard]] inline trace::ContentModelParams model_params(double scale) {
  trace::ContentModelParams p;
  auto scaled = [scale](double full, double floor) {
    return static_cast<std::uint32_t>(std::max(floor, full * scale));
  };
  p.core_lexicon_size = scaled(60'000, 2'000);
  p.tail_lexicon_size = scaled(4'000'000, 50'000);
  p.catalog_songs = scaled(2'500'000, 25'000);
  p.artists = scaled(400'000, 5'000);
  p.seed = kWorkloadSeed;
  return p;
}

/// The crawl-derived store and the degree-8 random overlay every
/// workload starts from.
struct BaseWorld {
  std::optional<trace::ContentModel> model;
  sim::PeerStore store{0};
  overlay::Graph graph{0};
};

inline BaseWorld make_base_world(const Sizes& s, std::uint64_t seed,
                                 std::size_t threads, Tracer& tr) {
  BaseWorld w;
  {
    Scope sp(tr, "setup.content_model");
    w.model.emplace(model_params(s.scale));
  }
  std::optional<trace::CrawlSnapshot> crawl;
  {
    Scope sp(tr, "setup.crawl");
    trace::GnutellaCrawlParams cp =
        trace::GnutellaCrawlParams{}.scaled(s.scale);
    cp.seed = kWorkloadSeed;
    crawl.emplace(trace::generate_gnutella_crawl(*w.model, cp, threads));
  }
  {
    Scope sp(tr, "store.build");
    w.store = sim::peer_store_from_crawl(*crawl, s.nodes);
  }
  {
    Scope sp(tr, "overlay.build");
    util::Rng rng(seed);
    w.graph = overlay::random_regular(s.nodes, 8, rng);
  }
  return w;
}

// ---------------------------------------------------------------------------
// Serving workloads: one live world, one timestamped query stream.

struct ServingInputs {
  overlay::Graph graph{0};
  sim::PeerStore store{0};
  std::vector<trace::Query> queries;
  double duration_s = 0.0;
};

inline ServingInputs make_serving_inputs(const Sizes& s, std::uint64_t seed,
                                         std::size_t threads, Tracer& tr) {
  BaseWorld base = make_base_world(s, seed, threads, tr);
  ServingInputs in;
  in.graph = std::move(base.graph);
  in.store = std::move(base.store);
  Scope sp(tr, "setup.query_trace");
  trace::QueryTraceParams qp = trace::QueryTraceParams{}.scaled(s.scale);
  qp.seed = kWorkloadSeed + 2;
  qp.num_queries = s.queries;
  const trace::QueryTrace trace = trace::generate_query_trace(*base.model, qp);
  in.queries = trace.queries();
  in.duration_s = trace.duration_s();
  return in;
}

[[nodiscard]] inline sim::ServingConfig serving_config(const Workload& w,
                                                       std::size_t threads) {
  sim::ServingConfig cfg;
  cfg.engine = std::string(w.engine);
  cfg.threads = threads;
  cfg.window_s = w.window_s;
  cfg.flood_ttl = kTtl;
  cfg.top_k = w.top_k;
  cfg.qps = w.qps;
  cfg.churn_enabled = true;
  cfg.churn.mean_online_s = (1.0 - w.offline) * w.session_s;
  cfg.churn.mean_offline_s = w.offline * w.session_s;
  cfg.churn.seed = seed_stream(kWorkloadSeed, 0x11CULL);
  cfg.compact_max_delta = w.compact_delta;
  cfg.cache_enabled = true;
  cfg.seed = kWorkloadSeed;
  return cfg;
}

// ---------------------------------------------------------------------------
// Batch workload: a rewind-per-trial TrialRunner sweep under a named
// failure scenario, the mode the figure benches use.

inline constexpr std::string_view kBatchScenario = "bursty-loss";

/// The adaptive recovery policy of bench/exp_chaos: the fixed policy's
/// retry budget plus quantile timeouts, one hedge and a circuit breaker.
[[nodiscard]] inline sim::RecoveryPolicy batch_policy() {
  sim::RecoveryPolicy p;
  p.max_retries = 2;
  p.adaptive_timeout = true;
  p.max_hedges = 1;
  p.breaker_failures = 6;
  return p;
}

/// Object-derived conjunctive queries (1-3 terms of a real object), so
/// every query has at least one satisfying object.
inline std::vector<std::vector<TermId>> make_object_queries(
    const sim::PeerStore& store, std::size_t count, util::Rng& rng) {
  std::vector<std::vector<TermId>> queries;
  std::size_t guard = 0;
  while (queries.size() < count && guard++ < 50 * count) {
    const auto peer = static_cast<NodeId>(rng.bounded(store.num_peers()));
    const std::size_t library = store.object_count(peer);
    if (library == 0) continue;
    const auto terms = store.object_terms(peer, rng.bounded(library));
    if (terms.empty()) continue;
    std::vector<TermId> q;
    const std::size_t n =
        1 + rng.bounded(std::min<std::size_t>(3, terms.size()));
    for (std::size_t i = 0; i < n; ++i) {
      q.push_back(terms[rng.bounded(terms.size())]);
    }
    std::sort(q.begin(), q.end());
    q.erase(std::unique(q.begin(), q.end()), q.end());
    queries.push_back(std::move(q));
  }
  return queries;
}

/// The batch world. Engines borrow the graph and store, so it lives
/// behind a unique_ptr and never moves.
struct BatchWorld {
  sim::PeerStore store{0};
  overlay::Graph graph{0};
  std::unique_ptr<sim::ChordDht> dht;
  std::vector<std::vector<TermId>> queries;
  sim::FaultPlan plan;
  /// The fault-free engine; the sweep decorates it with the plan.
  std::unique_ptr<sim::SearchEngine> engine;
  sim::TimingParams timing;
};

inline std::unique_ptr<BatchWorld> make_batch_world(const Workload& w,
                                                    const Sizes& s,
                                                    std::uint64_t seed,
                                                    std::size_t threads,
                                                    Tracer& tr) {
  BaseWorld base = make_base_world(s, seed, threads, tr);
  auto bw = std::make_unique<BatchWorld>();
  bw->store = std::move(base.store);
  bw->graph = std::move(base.graph);
  {
    Scope sp(tr, "dht.build");
    bw->dht = std::make_unique<sim::ChordDht>(s.nodes, kWorkloadSeed + 4);
  }
  {
    Scope sp(tr, "dht.publish_store");
    (void)bw->dht->publish_store(bw->store);
  }
  {
    Scope sp(tr, "setup.object_queries");
    util::Rng qrng(kWorkloadSeed + 7);
    bw->queries = make_object_queries(bw->store, s.queries, qrng);
  }
  {
    Scope sp(tr, "fault.plan");
    const sim::Scenario* scenario = sim::find_scenario(kBatchScenario);
    bw->plan = sim::FaultPlan::from_scenario(
        scenario->spec, bw->graph, seed_stream(kWorkloadSeed, 0xC4A06ULL));
  }
  {
    Scope sp(tr, "engine.build");
    sim::EngineWorld ew;
    ew.graph = &bw->graph;
    ew.store = &bw->store;
    ew.dht = bw->dht.get();
    ew.timing.seed = seed_stream(kWorkloadSeed, 11);
    bw->timing = ew.timing;
    bw->engine = sim::make_engine(w.engine, ew);
    if (bw->engine == nullptr) {
      throw std::runtime_error("batch engine is not constructible");
    }
  }
  return bw;
}

/// Query source for a trial: a peer online under the plan's static
/// snapshot, drawn from the trial's own stream (bench/exp_chaos).
[[nodiscard]] inline NodeId draw_source(std::size_t nodes,
                                        const sim::FaultPlan& plan,
                                        util::Rng& rng) {
  for (int tries = 0; tries < 1000; ++tries) {
    const auto src = static_cast<NodeId>(rng.bounded(nodes));
    if (plan.online(src)) return src;
  }
  return 0;
}

[[nodiscard]] inline sim::Query batch_query(const BatchWorld& bw,
                                            const Workload& w, std::size_t t,
                                            util::Rng& rng) {
  sim::Query q;
  q.source = draw_source(bw.graph.num_nodes(), bw.plan, rng);
  q.terms = bw.queries[t];
  q.ttl = kTtl;
  q.k = w.top_k;
  q.trial = t;
  return q;
}

}  // namespace qcbench
