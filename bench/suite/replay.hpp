// The replays: each workload re-driven in the benchmark's own code,
// calling every layer's public functions in the program's order and with
// its random streams, so the result must equal the measured run exactly.
// That equality is the benchmark's whole-system differential check; the
// spans around each call are its per-layer trace.
#pragma once

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "audit.hpp"
#include "src/overlay/churn.hpp"
#include "src/sim/adaptive.hpp"
#include "src/sim/fault_decorator.hpp"
#include "src/sim/result_cache.hpp"
#include "src/sim/serving.hpp"
#include "src/sim/timing.hpp"
#include "src/sim/trial_runner.hpp"
#include "workloads.hpp"

namespace qcbench {

inline constexpr std::size_t kMaxSamples = 512;

/// ServingWorld's construction and run() window loop, step for step:
/// maintenance at each window boundary (membership, CSR repair,
/// compaction + DHT republish, cache clock), the window's queries against
/// the then-immutable world, then the in-order fold into the cache and
/// the adaptive tracker. Runs at one query shard; the report does not
/// depend on the shard count.
class ServingReplay {
 public:
  ServingReplay(ServingInputs in, sim::ServingConfig config, Tracer& tr)
      : cfg_(std::move(config)),
        graph_(std::move(in.graph)),
        store_(std::move(in.store)),
        queries_(std::move(in.queries)),
        duration_s_(in.duration_s),
        tr_(tr),
        maintenance_rng_(util::mix64(cfg_.seed ^ 0x5EF1ULL)) {
    if (!cfg_.churn_enabled || !cfg_.cache_enabled) {
      throw std::invalid_argument(
          "the replay covers worlds with churn and a cache only");
    }
    Scope sp(tr_, "serving.construct");
    if (!graph_.frozen()) graph_.freeze();
    store_.set_definalize_policy(sim::PeerStore::DefinalizePolicy::kForbid);
    if (cfg_.qps > 0.0 && !queries_.empty() && duration_s_ > 0.0) {
      const double target = static_cast<double>(queries_.size()) / cfg_.qps;
      const double f = target / duration_s_;
      for (trace::Query& q : queries_) q.time_s *= f;
      duration_s_ = target;
    }
    const std::size_t n = graph_.num_nodes();
    churn_ = std::make_unique<overlay::ChurnProcess>(n, cfg_.churn);
    online_ = churn_->online();
    std::vector<NodeId> initial_leaves;
    for (NodeId v = 0; v < n; ++v) {
      if (!online_[v]) initial_leaves.push_back(v);
    }
    {
      Scope s(tr_, "store.apply_membership");
      store_.apply_membership({}, initial_leaves);
    }
    mask_at_refreeze_ = online_;
    {
      Scope s(tr_, "dht.build");
      dht_ = std::make_unique<sim::ChordDht>(n,
                                             util::mix64(cfg_.seed ^ 0xD47ULL));
    }
    if (cfg_.engine == "adaptive") {
      Scope s(tr_, "adaptive.build");
      adaptive_ = std::make_unique<sim::AdaptiveOverlayNetwork>(
          graph_, store_, cfg_.adaptive);
    }
    {
      Scope s(tr_, "cache.build");
      sim::ResultCacheParams cp = cfg_.cache;
      cp.flood_ttl = cfg_.flood_ttl;
      cache_ = std::make_unique<sim::CachingSearchNetwork>(graph_, store_, cp);
    }
    {
      Scope s(tr_, "serving.holder_index");
      holders_.rebuild(store_);
    }
    rebuild_engine();
  }
  ServingReplay(const ServingReplay&) = delete;
  ServingReplay& operator=(const ServingReplay&) = delete;

  sim::ServingReport run(Audit& audit) {
    sim::ServingReport report;
    {
      Scope s(tr_, "dht.publish_store");
      report.dht_publish_messages += dht_->publish_store(store_);
    }
    const std::size_t nq = queries_.size();
    std::size_t qi = 0;
    double t0 = 0.0;
    for (std::uint64_t wi = 0; t0 < duration_s_ || qi < nq; ++wi) {
      Scope win(tr_, "serving.window", wi);
      const double t1 = std::min(duration_s_, t0 + cfg_.window_s);
      const bool last_window = t1 >= duration_s_;
      sim::WindowStats window;
      window.start_s = t0;
      window.end_s = t1;
      {
        Scope m(tr_, "serving.maintenance", wi);
        std::vector<overlay::MembershipEvent> events;
        {
          Scope d(tr_, "overlay.drain_events", wi);
          events = churn_->drain_events(t0);
        }
        for (const overlay::MembershipEvent& ev : events) {
          apply_event(ev, window, report);
        }
        maybe_refreeze(report);
        maybe_compact(report);
        Scope c(tr_, "cache.advance_clock", wi);
        cache_->advance_clock(t0);
      }
      std::size_t qj = qi;
      while (qj < nq && (last_window || queries_[qj].time_s < t1)) ++qj;
      std::vector<Record> records(qj - qi);
      {
        Scope qp(tr_, "serving.query_phase", wi);
        for (std::size_t i = 0; i < records.size(); ++i) {
          serve(qi + i, records[i], audit);
        }
      }
      {
        Scope rp(tr_, "serving.replay", wi);
        for (std::size_t i = 0; i < records.size(); ++i) {
          fold(records[i], queries_[qi + i], window);
        }
      }
      if (adaptive_ != nullptr) {
        Scope a(tr_, "adaptive.refresh_synopses", wi);
        report.adaptive_readvertisements += adaptive_->refresh_synopses();
      }
      {
        Scope st(tr_, "serving.stats", wi);
        report.stats.push(std::move(window));
      }
      qi = qj;
      t0 = t1;
      if (last_window) break;
    }
    report.final_online_fraction = churn_->online_fraction();
    return report;
  }

  [[nodiscard]] const overlay::Graph& graph() const { return graph_; }
  [[nodiscard]] const sim::PeerStore& store() const { return store_; }
  [[nodiscard]] const sim::ChordDht& dht() const { return *dht_; }
  [[nodiscard]] const std::vector<bool>& online() const { return online_; }
  [[nodiscard]] const Counters& counters() const { return counters_; }
  [[nodiscard]] const std::vector<Sample>& samples() const { return samples_; }
  /// Queries the hybrid engine sent on to the DHT.
  [[nodiscard]] const std::vector<Sample>& fallbacks() const {
    return fallbacks_;
  }

 private:
  struct Record {
    enum class Kind : std::uint8_t { kFail, kSuccess, kCacheHit };
    Kind kind = Kind::kFail;
    bool timed = false;
    double first_hit_s = 0.0;
    std::uint64_t messages = 0;
    NodeId source = 0;
    NodeId cache_peer = 0;
    std::vector<std::uint64_t> hits;
    std::vector<sim::ScoredMatch> ranked;
  };

  void rebuild_engine() {
    Scope s(tr_, "engine.build");
    sim::EngineWorld world;
    world.graph = &graph_;
    world.store = &store_;
    world.dht = dht_.get();
    world.adaptive = adaptive_.get();
    world.adaptive_params = cfg_.adaptive;
    world.timing = cfg_.timing;
    engine_ = sim::make_engine(cfg_.engine, world);
    if (engine_ == nullptr) {
      throw std::invalid_argument("engine '" + cfg_.engine +
                                  "' is not constructible");
    }
    ctx_.state.reset();
    ctx_.state_owner = nullptr;
  }

  void apply_event(const overlay::MembershipEvent& event,
                   sim::WindowStats& window, sim::ServingReport& report) {
    const NodeId v = event.node;
    const NodeId one[1] = {v};
    ++counters_.churn_events;
    if (event.join) {
      ++window.joins;
      online_[v] = true;
      {
        Scope s(tr_, "store.apply_membership");
        store_.apply_membership(one, {});
      }
      if (cfg_.content_add_prob > 0.0 &&
          maintenance_rng_.chance(cfg_.content_add_prob)) {
        for (int attempt = 0; attempt < 8; ++attempt) {
          const auto p = static_cast<NodeId>(
              maintenance_rng_.bounded(store_.num_peers()));
          const std::size_t count = store_.object_count(p);
          if (count == 0) continue;
          const auto terms =
              store_.object_terms(p, maintenance_rng_.bounded(count));
          const std::uint64_t id = next_object_id_++;
          std::vector<TermId> owned(terms.begin(), terms.end());
          holders_.add_delta(id, v, owned);
          {
            Scope s(tr_, "store.add_object_delta");
            store_.add_object_delta(v, id, std::move(owned));
          }
          ++report.content_adds;
          break;
        }
      }
    } else {
      ++window.leaves;
      online_[v] = false;
      {
        Scope s(tr_, "store.apply_membership");
        store_.apply_membership({}, one);
      }
      Scope s(tr_, "cache.on_peer_leave");
      cache_->on_peer_leave(v);
      ++report.cache_invalidations;
    }
    ++flips_since_refreeze_;
  }

  void maybe_refreeze(sim::ServingReport& report) {
    if (flips_since_refreeze_ < cfg_.refreeze_batch) return;
    const std::size_t n = graph_.num_nodes();
    std::vector<std::pair<NodeId, NodeId>> removes;
    std::vector<std::pair<NodeId, NodeId>> adds;
    {
      Scope s(tr_, "serving.refreeze_plan");
      for (NodeId v = 0; v < n; ++v) {
        if (mask_at_refreeze_[v] == online_[v]) continue;
        if (!online_[v]) {
          for (NodeId nbr : graph_.neighbors(v)) removes.emplace_back(v, nbr);
        } else {
          for (std::size_t k = 0; k < cfg_.attach_degree; ++k) {
            for (int attempt = 0; attempt < 32; ++attempt) {
              const auto u =
                  static_cast<NodeId>(maintenance_rng_.bounded(n));
              if (u == v || !online_[u] || graph_.has_edge(v, u)) continue;
              adds.emplace_back(v, u);
              break;
            }
          }
        }
      }
    }
    std::pair<std::size_t, std::size_t> changed;
    {
      Scope s(tr_, "overlay.apply_delta");
      changed = graph_.apply_delta(removes, adds);
    }
    report.edges_removed += changed.first;
    report.edges_added += changed.second;
    mask_at_refreeze_ = online_;
    flips_since_refreeze_ = 0;
    ++report.refreezes;
    rebuild_engine();
  }

  void maybe_compact(sim::ServingReport& report) {
    if (store_.delta_postings() < cfg_.compact_max_delta) return;
    {
      Scope s(tr_, "store.compact");
      store_.compact(std::max<std::size_t>(1, cfg_.threads));
    }
    {
      Scope s(tr_, "dht.build");
      dht_ = std::make_unique<sim::ChordDht>(store_.num_peers(),
                                             util::mix64(cfg_.seed ^ 0xD47ULL));
    }
    {
      Scope s(tr_, "dht.publish_store");
      report.dht_publish_messages += dht_->publish_store(store_);
    }
    {
      Scope s(tr_, "serving.holder_index");
      holders_.rebuild(store_);
    }
    ++report.compactions;
    rebuild_engine();
  }

  /// The query phase for one query: cache probe, else engine search.
  void serve(std::size_t global, Record& rec, Audit& audit) {
    Scope q(tr_, "serving.query", global);
    const trace::Query& tq = queries_[global];
    if (tq.terms.empty()) return;
    util::Rng rng(util::mix64(cfg_.seed ^ (0x9E1ULL + global)));
    ctx_.rng = &rng;
    const std::size_t n = graph_.num_nodes();
    NodeId source = 0;
    for (int attempt = 0; attempt < 16; ++attempt) {
      source = static_cast<NodeId>(rng.bounded(n));
      if (online_[source]) break;
    }
    rec.source = source;
    if (!probe_cache(global, tq, rec)) {
      sim::Query query;
      query.source = source;
      query.terms = tq.terms;
      query.ttl = cfg_.flood_ttl;
      query.budget = cfg_.walk_budget;
      query.k = cfg_.top_k;
      query.min_score = cfg_.min_score;
      query.online = &online_;
      query.trial = global;
      sim::SearchOutcome out;
      {
        Scope e(tr_, "engine.search", global);
        out = engine_->search(query, ctx_);
      }
      counters_.note_search(cfg_.engine, out, false);
      if (const auto* h = sim::extras_as<sim::HybridExtras>(out);
          h != nullptr && h->used_dht && fallbacks_.size() < kMaxSamples) {
        fallbacks_.push_back({source, tq.terms});
      }
      rec.messages = out.messages;
      if (out.success) {
        rec.kind = Record::Kind::kSuccess;
        rec.hits = std::move(out.hits);
        rec.ranked = std::move(out.top_k);
        if (out.timing.has_value() && out.timing->has_first_hit()) {
          rec.timed = true;
          rec.first_hit_s = out.timing->first_hit_s;
        }
      }
    }
    Scope b(tr_, "bench.audit", global);
    counters_.note_answer(rec.hits.size());
    if (rec.kind == Record::Kind::kSuccess) {
      audit.check_hits(global, store_, holders_, tq.terms, rec.hits);
    }
    (void)audit.score(global, graph_, store_, &online_, source, tq.terms,
                      rec.hits);
    if (global % 16 == 0 && samples_.size() < kMaxSamples) {
      samples_.push_back({source, tq.terms});
    }
  }

  /// Routed cache probe; true when the cache served the query.
  bool probe_cache(std::size_t global, const trace::Query& tq, Record& rec) {
    std::uint64_t probes = 0;
    NodeId hit_peer = rec.source;
    bool served = false;
    if (cfg_.top_k != 0) {
      const std::vector<sim::ScoredMatch>* hit = nullptr;
      {
        Scope c(tr_, "cache.peek_routed_ranked", global);
        hit = cache_->peek_routed_ranked(rec.source, tq.terms, cfg_.top_k,
                                         cfg_.min_score, probes, hit_peer);
      }
      rec.messages += probes;
      if (hit != nullptr) {
        // A wider or more permissive entry: re-apply this request's
        // floor and k (canonical order, so the floor cuts a suffix).
        for (const sim::ScoredMatch& m : *hit) {
          if (m.score < cfg_.min_score) break;
          rec.ranked.push_back(m);
          if (rec.ranked.size() == cfg_.top_k) break;
        }
        if (!rec.ranked.empty()) {
          rec.hits.reserve(rec.ranked.size());
          for (const sim::ScoredMatch& m : rec.ranked) {
            rec.hits.push_back(m.object);
          }
          std::sort(rec.hits.begin(), rec.hits.end());
          served = true;
        }
      }
    } else {
      const std::vector<std::uint64_t>* hit = nullptr;
      {
        Scope c(tr_, "cache.peek_routed", global);
        hit = cache_->peek_routed(rec.source, tq.terms, probes, hit_peer);
      }
      rec.messages += probes;
      if (hit != nullptr) {
        rec.hits = *hit;
        served = true;
      }
    }
    counters_.cache_probe_messages += probes;
    if (!served) return false;
    ++counters_.cache_hits;
    rec.kind = Record::Kind::kCacheHit;
    rec.cache_peer = hit_peer;
    rec.timed = true;
    rec.first_hit_s = hit_peer == rec.source
                          ? 0.0
                          : 2.0 * sim::TimingModel(cfg_.timing).mean_link_s();
    return true;
  }

  /// The in-order fold of one record into the window, the cache and the
  /// adaptive tracker.
  void fold(Record& rec, const trace::Query& tq, sim::WindowStats& window) {
    ++window.queries;
    window.messages += rec.messages;
    const bool cache_hit = rec.kind == Record::Kind::kCacheHit;
    if (cache_hit) {
      ++window.successes;
      ++window.cache_hits;
      ++window.timed;
      window.latency.record(rec.first_hit_s);
      Scope s(tr_, "cache.touch");
      cache_->touch(rec.cache_peer, tq.terms);
    } else if (rec.kind == Record::Kind::kSuccess) {
      ++window.successes;
      if (rec.timed) {
        ++window.timed;
        window.latency.record(rec.first_hit_s);
      }
    }
    // A fresh success, or a routed hit replicated to the requester.
    if (rec.kind == Record::Kind::kSuccess ||
        (cache_hit && rec.cache_peer != rec.source)) {
      std::vector<NodeId> holders;
      {
        Scope s(tr_, "serving.holders_of");
        holders = holders_.holders_of(rec.hits, 8);
      }
      if (cfg_.top_k != 0) {
        Scope s(tr_, "cache.prime_ranked");
        cache_->prime_ranked(rec.source, tq.terms, std::move(rec.ranked),
                             cfg_.top_k, cfg_.min_score, holders);
      } else {
        Scope s(tr_, "cache.prime");
        cache_->prime(rec.source, tq.terms, std::move(rec.hits), holders);
      }
    }
    if (adaptive_ != nullptr) {
      Scope s(tr_, "adaptive.observe_query");
      adaptive_->observe_query(tq.terms);
    }
  }

  sim::ServingConfig cfg_;
  overlay::Graph graph_;
  sim::PeerStore store_;
  std::vector<trace::Query> queries_;
  double duration_s_;
  Tracer& tr_;

  std::unique_ptr<sim::ChordDht> dht_;
  std::unique_ptr<sim::AdaptiveOverlayNetwork> adaptive_;
  std::unique_ptr<sim::SearchEngine> engine_;
  std::unique_ptr<sim::CachingSearchNetwork> cache_;
  std::unique_ptr<overlay::ChurnProcess> churn_;
  sim::EngineContext ctx_;

  std::vector<bool> online_;
  std::vector<bool> mask_at_refreeze_;
  std::size_t flips_since_refreeze_ = 0;
  util::Rng maintenance_rng_;
  std::uint64_t next_object_id_ = 1ULL << 62;
  HolderIndex holders_;

  Counters counters_;
  std::vector<Sample> samples_;
  std::vector<Sample> fallbacks_;
};

/// Every field of two serving reports that must agree, as a list of
/// differences (empty when the reports are equal).
inline std::string diff_reports(const sim::ServingReport& a,
                                const sim::ServingReport& b) {
  std::ostringstream d;
  auto field = [&](const char* name, auto x, auto y) {
    if (x != y) d << name << " " << x << " != " << y << "; ";
  };
  auto window = [&](const std::string& at, const sim::WindowStats& x,
                    const sim::WindowStats& y) {
    const std::size_t before = static_cast<std::size_t>(d.tellp());
    field("start_s", x.start_s, y.start_s);
    field("end_s", x.end_s, y.end_s);
    field("queries", x.queries, y.queries);
    field("successes", x.successes, y.successes);
    field("cache_hits", x.cache_hits, y.cache_hits);
    field("timed", x.timed, y.timed);
    field("messages", x.messages, y.messages);
    field("joins", x.joins, y.joins);
    field("leaves", x.leaves, y.leaves);
    field("latency.count", x.latency.count(), y.latency.count());
    field("latency.mean", x.latency.mean(), y.latency.mean());
    field("latency.max", x.latency.max(), y.latency.max());
    for (const double q : {0.5, 0.9, 0.99, 0.999}) {
      field("latency.quantile", x.latency.quantile(q), y.latency.quantile(q));
    }
    if (static_cast<std::size_t>(d.tellp()) != before) d << "(" << at << ") ";
  };
  field("windows", a.stats.windows().size(), b.stats.windows().size());
  const std::size_t nw =
      std::min(a.stats.windows().size(), b.stats.windows().size());
  for (std::size_t i = 0; i < nw; ++i) {
    window("window " + std::to_string(i), a.stats.windows()[i],
           b.stats.windows()[i]);
  }
  window("total", a.stats.total(), b.stats.total());
  field("refreezes", a.refreezes, b.refreezes);
  field("compactions", a.compactions, b.compactions);
  field("edges_removed", a.edges_removed, b.edges_removed);
  field("edges_added", a.edges_added, b.edges_added);
  field("content_adds", a.content_adds, b.content_adds);
  field("cache_invalidations", a.cache_invalidations, b.cache_invalidations);
  field("adaptive_readvertisements", a.adaptive_readvertisements,
        b.adaptive_readvertisements);
  field("dht_publish_messages", a.dht_publish_messages,
        b.dht_publish_messages);
  field("final_online_fraction", a.final_online_fraction,
        b.final_online_fraction);
  return d.str();
}

// ---------------------------------------------------------------------------
// Batch: the TrialRunner sweep, and its in-order replay.

/// What one trial produced beyond the integer aggregate.
struct TrialTap {
  NodeId source = 0;
  bool timed = false;
  double first_hit_s = 0.0;
  std::vector<std::uint64_t> answer;

  friend bool operator==(const TrialTap&, const TrialTap&) = default;
};

struct BatchRun {
  sim::TrialAggregate agg;
  std::vector<TrialTap> taps;
};

[[nodiscard]] inline TrialTap tap_of(const sim::Query& q,
                                     const sim::SearchOutcome& r) {
  TrialTap tap;
  tap.source = q.source;
  if (r.success && r.timing.has_value() && r.timing->has_first_hit()) {
    tap.timed = true;
    tap.first_hit_s = r.timing->first_hit_s;
  }
  tap.answer = r.hits;
  return tap;
}

[[nodiscard]] inline sim::TrialOutcome outcome_of(const sim::SearchOutcome& r) {
  sim::TrialOutcome out;
  out.success = r.success;
  out.messages = r.messages;
  out.peers_probed = r.peers_probed;
  out.extra[0] = r.fault.dropped;
  out.extra[1] = r.fault.retries;
  out.extra[2] = r.fault.hedges;
  out.extra[3] = r.timing.has_value() ? r.timing->events : 0;
  return out;
}

/// The measured phase: the fault-decorated engine over every trial,
/// sharded by sim::TrialRunner.
inline BatchRun batch_sweep(const BatchWorld& bw, const Workload& w,
                            std::size_t threads) {
  const sim::FaultInjectedEngine faulty =
      sim::with_faults(*bw.engine, bw.plan, batch_policy());
  const sim::TrialRunner runner({threads, kWorkloadSeed + 23});
  BatchRun run;
  run.taps.resize(bw.queries.size());
  run.agg = runner.run(
      bw.queries.size(), [] { return sim::EngineContext{}; },
      [&](std::size_t t, util::Rng& trng, sim::EngineContext& ctx) {
        ctx.rng = &trng;
        const sim::Query q = batch_query(bw, w, t, trng);
        const sim::SearchOutcome r = faulty.search(q, ctx);
        run.taps[t] = tap_of(q, r);
        return outcome_of(r);
      });
  return run;
}

/// The sweep again, trial by trial in index order on one context, with a
/// span per call and the answer audits: every 64th answer is checked
/// for live matching holders, and its fault-free twin (the undecorated
/// engine, same query and stream) must find a subset of the oracle.
inline BatchRun batch_replay(const BatchWorld& bw, const Workload& w,
                             Tracer& tr, Audit& audit,
                             Counters& counters, std::vector<Sample>& samples,
                             const HolderIndex& holders) {
  const sim::FaultInjectedEngine faulty =
      sim::with_faults(*bw.engine, bw.plan, batch_policy());
  const sim::TrialRunner runner({1, kWorkloadSeed + 23});
  BatchRun run;
  run.taps.resize(bw.queries.size());
  sim::EngineContext ctx;
  sim::EngineContext plain_ctx;
  Scope sweep(tr, "trial.sweep");
  for (std::size_t t = 0; t < bw.queries.size(); ++t) {
    Scope trial(tr, "trial.run", t);
    util::Rng trng = runner.trial_rng(t);
    ctx.rng = &trng;
    const sim::Query q = batch_query(bw, w, t, trng);
    sim::SearchOutcome r;
    {
      Scope e(tr, "engine.search", t);
      r = faulty.search(q, ctx);
    }
    {
      Scope f(tr, "trial.fold", t);
      run.agg.add(outcome_of(r));
      run.taps[t] = tap_of(q, r);
    }
    Scope b(tr, "bench.audit", t);
    counters.note_search(w.engine, r, true);
    counters.note_answer(r.hits.size());
    audit.check_hits(t, bw.store, holders, q.terms, r.hits);
    const OracleAnswer* oracle =
        audit.score(t, bw.graph, bw.store, nullptr, q.source, q.terms, r.hits);
    if (t % 64 == 0 && oracle != nullptr) {
      util::Rng prng = runner.trial_rng(t);
      plain_ctx.rng = &prng;
      const sim::Query pq = batch_query(bw, w, t, prng);
      const sim::SearchOutcome plain = bw.engine->search(pq, plain_ctx);
      for (std::uint64_t id : plain.hits) {
        if (!std::binary_search(oracle->all.begin(), oracle->all.end(), id)) {
          audit.fail("trial " + std::to_string(t) +
                     ": fault-free answer names object " + std::to_string(id) +
                     " outside the same-TTL oracle");
          break;
        }
      }
    }
    if (t % 16 == 0 && samples.size() < kMaxSamples) {
      samples.push_back({q.source, {q.terms.begin(), q.terms.end()}});
    }
  }
  return run;
}

inline std::string diff_batch(const BatchRun& a, const BatchRun& b) {
  std::ostringstream d;
  auto field = [&](const char* name, std::uint64_t x, std::uint64_t y) {
    if (x != y) d << name << " " << x << " != " << y << "; ";
  };
  field("trials", a.agg.trials, b.agg.trials);
  field("successes", a.agg.successes, b.agg.successes);
  field("messages", a.agg.messages, b.agg.messages);
  field("hops", a.agg.hops, b.agg.hops);
  field("peers_probed", a.agg.peers_probed, b.agg.peers_probed);
  for (std::size_t i = 0; i < a.agg.extra.size(); ++i) {
    field("extra", a.agg.extra[i], b.agg.extra[i]);
  }
  field("taps", a.taps.size(), b.taps.size());
  for (std::size_t t = 0; t < std::min(a.taps.size(), b.taps.size()); ++t) {
    if (!(a.taps[t] == b.taps[t])) {
      d << "trial " << t << " differs; ";
      break;
    }
  }
  return d.str();
}

}  // namespace qcbench
