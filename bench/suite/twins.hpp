// Per-call twins: stages that cannot be called on their own inside an
// engine search are timed by calling their public functions directly on
// inputs drawn from the workload. The replay's outcome counts then turn
// the per-call prices into "_est" shares. Twin time is never part of the
// replay's totals.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "audit.hpp"
#include "src/des/simulator.hpp"
#include "src/sim/dht.hpp"
#include "src/sim/engine_registry.hpp"
#include "src/sim/fault.hpp"
#include "src/sim/result_cache.hpp"
#include "src/util/stats.hpp"
#include "workloads.hpp"

namespace qcbench {

/// The world a twin runs against: the replay's final state.
struct TwinWorld {
  const overlay::Graph* graph = nullptr;
  const sim::PeerStore* store = nullptr;
  const sim::ChordDht* dht = nullptr;
  /// Liveness at the end of the replay; null = everyone online.
  const std::vector<bool>* online = nullptr;
  std::uint32_t top_k = 0;
  std::uint64_t seed = 0;
};

struct TwinPrices {
  double traverse_us_p50 = 0.0;
  double traverse_us_p99 = 0.0;
  double traverse_us_mean = 0.0;
  double match_ns = 0.0;
  double match_scored_ns = 0.0;
  double object_score_at_ns = 0.0;
  double note_ns = 0.0;
  double deliver_ns = 0.0;
  double event_ns = 0.0;
  double search_term_us_p50 = 0.0;
  double search_term_us_p99 = 0.0;
  double postings_per_term = 0.0;
  double hops_per_term = 0.0;
  /// Mean dht-only search over the hybrid fallback queries (0 if none).
  double dht_phase_us_mean = 0.0;
  double cache_peek_us_p50 = 0.0;
  double cache_prime_us_p50 = 0.0;
};

namespace detail {

/// Keeps timed results observable so the calls cannot be elided.
inline volatile std::uint64_t g_sink = 0;

inline double elapsed_ns(Clock::time_point a) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - a)
          .count());
}

}  // namespace detail

inline TwinPrices measure_twins(const TwinWorld& tw,
                                const std::vector<Sample>& samples,
                                const std::vector<Sample>& fallbacks) {
  using detail::elapsed_ns;
  TwinPrices p;
  const overlay::Graph& graph = *tw.graph;
  const sim::PeerStore& store = *tw.store;
  std::uint64_t sink = 0;

  // CSR traversal without posting intersection: a locate-mode flood for
  // one offline holder walks the whole TTL ball and probes nothing.
  std::vector<bool> mask = tw.online != nullptr
                               ? *tw.online
                               : std::vector<bool>(graph.num_nodes(), true);
  NodeId holder = 0;
  while (holder < mask.size() && mask[holder]) ++holder;
  if (holder == mask.size()) {
    holder = static_cast<NodeId>(mask.size() - 1);
    mask[holder] = false;
  }
  {
    sim::EngineWorld ew;
    ew.graph = &graph;
    ew.store = &store;
    const auto flood = sim::make_engine("flood", ew);
    sim::EngineContext ctx;
    util::Rng rng(tw.seed);
    ctx.rng = &rng;
    const NodeId holders[1] = {holder};
    std::vector<double> us;
    for (const Sample& s : samples) {
      if (!mask[s.source]) continue;
      sim::Query q;
      q.source = s.source;
      q.holders = holders;
      q.ttl = kTtl;
      q.online = &mask;
      const auto t0 = Clock::now();
      const sim::SearchOutcome out = flood->search(q, ctx);
      us.push_back(elapsed_ns(t0) / 1e3);
      sink += out.messages;
    }
    if (!us.empty()) {
      p.traverse_us_p50 = util::quantile(us, 0.5);
      p.traverse_us_p99 = util::quantile(us, 0.99);
      double sum = 0.0;
      for (double u : us) sum += u;
      p.traverse_us_mean = sum / static_cast<double>(us.size());
    }
  }

  // Posting intersection, plain and scored, over the peers a flood from
  // each sampled source would probe; the scores feed the tracker twin.
  Oracle oracle;
  sim::PeerStore::MatchScratch scratch;
  std::vector<float> scores;
  {
    double plain_ns = 0.0;
    double scored_ns = 0.0;
    std::uint64_t calls = 0;
    for (const Sample& s : samples) {
      const std::vector<NodeId>& reached =
          oracle.reach(graph, tw.online, s.source);
      // Warm pass: the engine probes peers it has just reached, so the
      // price of a probe is taken with the peers' rows in cache.
      for (NodeId v : reached) sink += store.match(v, s.terms, scratch).size();
      auto t0 = Clock::now();
      for (NodeId v : reached) sink += store.match(v, s.terms, scratch).size();
      plain_ns += elapsed_ns(t0);
      t0 = Clock::now();
      for (NodeId v : reached) {
        sink += store.match_scored(v, s.terms, scratch).size();
      }
      scored_ns += elapsed_ns(t0);
      calls += reached.size();
    }
    p.match_ns = ratio(plain_ns, static_cast<double>(calls));
    p.match_scored_ns = ratio(scored_ns, static_cast<double>(calls));
  }

  // object_score_at on (holder, id) pairs of the store, as the DHT and
  // DES engines price their id-only results.
  {
    util::Rng rng(tw.seed ^ 0x5C0EULL);
    std::vector<std::pair<NodeId, std::uint64_t>> pairs;
    for (int guard = 0; pairs.size() < 4096 && guard < 1 << 16; ++guard) {
      const auto v = static_cast<NodeId>(rng.bounded(store.num_peers()));
      const std::size_t count = store.object_count(v);
      if (count == 0) continue;
      pairs.emplace_back(v, store.object_id(v, rng.bounded(count)));
    }
    const auto t0 = Clock::now();
    for (const auto& [v, id] : pairs) {
      const float s = store.object_score_at(v, id);
      scores.push_back(s);
    }
    p.object_score_at_ns =
        ratio(elapsed_ns(t0), static_cast<double>(pairs.size()));
  }

  // TopKTracker::note over real score streams, one tracker per 64.
  {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < scores.size(); i += 64) {
      sim::TopKTracker tracker(kRecallK);
      const std::size_t end = std::min(scores.size(), i + 64);
      for (std::size_t j = i; j < end; ++j) sink += tracker.note(scores[j]);
    }
    p.note_ns = ratio(elapsed_ns(t0), static_cast<double>(scores.size()));
  }

  // Edge-aware fault delivery under the batch scenario, along the flood
  // fan-out of each sampled source.
  {
    const sim::Scenario* scenario = sim::find_scenario(kBatchScenario);
    const sim::FaultPlan plan = sim::FaultPlan::from_scenario(
        scenario->spec, graph, seed_stream(tw.seed, 0xFA17ULL));
    double ns = 0.0;
    std::uint64_t calls = 0;
    std::uint64_t trial = 0;
    for (const Sample& s : samples) {
      const std::vector<NodeId>& reached =
          oracle.reach(graph, tw.online, s.source);
      sim::FaultSession session(plan, trial++);
      const auto t0 = Clock::now();
      for (NodeId u : reached) {
        for (NodeId v : graph.neighbors(u)) sink += session.deliver(u, v);
        calls += graph.degree(u);
      }
      ns += elapsed_ns(t0);
    }
    p.deliver_ns = ratio(ns, static_cast<double>(calls));
  }

  // DES dispatch: 64 concurrent event chains on one simulator, about the
  // queue depth of a flood in flight.
  {
    des::Simulator sim;
    constexpr std::uint64_t kEvents = 200'000;
    std::uint64_t fired = 0;
    std::function<void()> step = [&] {
      if (++fired < kEvents) {
        sim.schedule(0.001 * static_cast<double>(fired % 7), step);
      }
    };
    for (int c = 0; c < 64; ++c) sim.schedule(0.0, step);
    const auto t0 = Clock::now();
    sink += sim.run();
    p.event_ns = ratio(elapsed_ns(t0), static_cast<double>(sim.executed()));
  }

  // The DHT phase: per-term lookups from the sampled sources, and the
  // dht-only engine on the queries hybrid actually sent to the DHT.
  {
    std::vector<double> us;
    std::uint64_t postings = 0;
    std::uint64_t hops = 0;
    for (const Sample& s : samples) {
      for (TermId t : s.terms) {
        const auto t0 = Clock::now();
        const sim::ChordDht::TermSearch ts =
            tw.dht->search_term(t, s.source, tw.online);
        us.push_back(elapsed_ns(t0) / 1e3);
        postings += ts.postings.size();
        hops += ts.hops;
      }
    }
    if (!us.empty()) {
      p.search_term_us_p50 = util::quantile(us, 0.5);
      p.search_term_us_p99 = util::quantile(us, 0.99);
    }
    p.postings_per_term = ratio(postings, std::uint64_t{us.size()});
    p.hops_per_term = ratio(hops, std::uint64_t{us.size()});

    sim::EngineWorld ew;
    ew.dht = tw.dht;
    ew.store = &store;
    const auto dht_only = sim::make_engine("dht-only", ew);
    sim::EngineContext ctx;
    util::Rng rng(tw.seed);
    ctx.rng = &rng;
    double ns = 0.0;
    for (const Sample& s : fallbacks) {
      sim::Query q;
      q.source = s.source;
      q.terms = s.terms;
      q.k = tw.top_k;
      q.online = tw.online;
      const auto t0 = Clock::now();
      sink += dht_only->search(q, ctx).messages;
      ns += elapsed_ns(t0);
    }
    p.dht_phase_us_mean =
        ratio(ns, static_cast<double>(fallbacks.size())) / 1e3;
  }

  // Result-cache peek and prime on a cold cache over this world.
  {
    sim::CachingSearchNetwork cache(graph, store, {});
    std::vector<double> peek_us;
    std::vector<double> prime_us;
    for (const Sample& s : samples) {
      std::uint64_t probes = 0;
      NodeId hit_peer = s.source;
      auto t0 = Clock::now();
      sink += cache.peek_routed(s.source, s.terms, probes, hit_peer) != nullptr;
      peek_us.push_back(elapsed_ns(t0) / 1e3);
      t0 = Clock::now();
      cache.prime(s.source, s.terms, {s.source}, {});
      prime_us.push_back(elapsed_ns(t0) / 1e3);
    }
    if (!peek_us.empty()) {
      p.cache_peek_us_p50 = util::quantile(peek_us, 0.5);
      p.cache_prime_us_p50 = util::quantile(prime_us, 0.5);
    }
  }

  detail::g_sink = sink;
  return p;
}

}  // namespace qcbench
