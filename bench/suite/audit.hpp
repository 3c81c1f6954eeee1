// Answer checks, the recall@10 oracle, and the counters the replays keep.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/sim/engine.hpp"
#include "src/sim/network.hpp"
#include "workloads.hpp"

namespace qcbench {

/// (object id, holder) over a store's base layer, sorted by id, plus the
/// delta-layer objects added since the last compaction — the serving
/// world's holder index, with the delta objects' terms kept for checks.
class HolderIndex {
 public:
  void rebuild(const sim::PeerStore& store) {
    base_.clear();
    base_.reserve(static_cast<std::size_t>(store.total_objects()));
    for (NodeId p = 0; p < store.num_peers(); ++p) {
      const std::size_t count = store.object_count(p);
      for (std::size_t i = 0; i < count; ++i) {
        base_.emplace_back(store.object_id(p, i), p);
      }
    }
    std::sort(base_.begin(), base_.end());
    delta_holder_.clear();
    delta_terms_.clear();
  }

  void add_delta(std::uint64_t id, NodeId holder,
                 const std::vector<TermId>& terms) {
    delta_holder_.emplace(id, holder);
    delta_terms_.emplace(id, terms);
  }

  /// Up to `cap` peers holding the leading hit objects, in the serving
  /// world's order.
  [[nodiscard]] std::vector<NodeId> holders_of(
      std::span<const std::uint64_t> hits, std::size_t cap) const {
    std::vector<NodeId> holders;
    for (std::uint64_t id : hits) {
      if (holders.size() >= cap) break;
      const auto [lo, hi] = base_range(id);
      for (auto it = lo; it != hi && holders.size() < cap; ++it) {
        holders.push_back(it->second);
      }
      if (const auto dit = delta_holder_.find(id);
          dit != delta_holder_.end() && holders.size() < cap) {
        holders.push_back(dit->second);
      }
    }
    return holders;
  }

  /// True when some live holder's copy of `id` carries every term of
  /// `sorted_terms`.
  [[nodiscard]] bool held_live(const sim::PeerStore& store, std::uint64_t id,
                               std::span<const TermId> sorted_terms) const {
    const auto [lo, hi] = base_range(id);
    for (auto it = lo; it != hi; ++it) {
      const NodeId p = it->second;
      if (!store.peer_live(p)) continue;
      const std::size_t count = store.object_count(p);
      for (std::size_t i = 0; i < count; ++i) {
        if (store.object_id(p, i) != id) continue;
        const auto terms = store.object_terms(p, i);
        if (std::includes(terms.begin(), terms.end(), sorted_terms.begin(),
                          sorted_terms.end())) {
          return true;
        }
      }
    }
    const auto dit = delta_holder_.find(id);
    if (dit == delta_holder_.end() || !store.peer_live(dit->second)) {
      return false;
    }
    const std::vector<TermId>& terms = delta_terms_.at(id);
    return std::includes(terms.begin(), terms.end(), sorted_terms.begin(),
                         sorted_terms.end());
  }

 private:
  using Entry = std::pair<std::uint64_t, NodeId>;
  [[nodiscard]] std::pair<std::vector<Entry>::const_iterator,
                          std::vector<Entry>::const_iterator>
  base_range(std::uint64_t id) const {
    return std::equal_range(
        base_.begin(), base_.end(), Entry{id, NodeId{0}},
        [](const Entry& a, const Entry& b) { return a.first < b.first; });
  }

  std::vector<Entry> base_;
  std::unordered_map<std::uint64_t, NodeId> delta_holder_;
  std::unordered_map<std::uint64_t, std::vector<TermId>> delta_terms_;
};

/// Exhaustive scored answer of one query: every object matching at a
/// live peer within kTtl hops over live peers (offline peers neither
/// answer nor relay), sorted by id, plus the canonical top-k ids.
struct OracleAnswer {
  std::vector<std::uint64_t> all;
  std::vector<std::uint64_t> top;
};

class Oracle {
 public:
  /// The live peers within kTtl hops of a live `source`, source first.
  const std::vector<NodeId>& reach(const overlay::Graph& graph,
                                   const std::vector<bool>* online,
                                   NodeId source) {
    reached_.clear();
    if (online != nullptr && !(*online)[source]) return reached_;
    if (mark_.size() < graph.num_nodes()) mark_.resize(graph.num_nodes(), 0);
    ++epoch_;
    mark_[source] = epoch_;
    reached_.push_back(source);
    frontier_.assign(1, source);
    for (std::uint32_t hop = 1; hop <= kTtl && !frontier_.empty(); ++hop) {
      next_.clear();
      for (NodeId u : frontier_) {
        for (NodeId v : graph.neighbors(u)) {
          if (mark_[v] == epoch_) continue;
          if (online != nullptr && !(*online)[v]) continue;
          mark_[v] = epoch_;
          next_.push_back(v);
          reached_.push_back(v);
        }
      }
      frontier_.swap(next_);
    }
    return reached_;
  }

  OracleAnswer answer(const overlay::Graph& graph, const sim::PeerStore& store,
                      const std::vector<bool>* online, NodeId source,
                      std::span<const TermId> terms, std::size_t k) {
    OracleAnswer out;
    std::vector<sim::ScoredMatch> scored;
    for (NodeId v : reach(graph, online, source)) {
      const auto m = store.match_scored(v, terms, scratch_);
      scored.insert(scored.end(), m.begin(), m.end());
    }
    // Canonical ranking (finish_ranked): dedup by id keeping the best
    // score, then descending score with ascending id on ties.
    std::sort(scored.begin(), scored.end(),
              [](const sim::ScoredMatch& a, const sim::ScoredMatch& b) {
                if (a.object != b.object) return a.object < b.object;
                return a.score > b.score;
              });
    scored.erase(std::unique(scored.begin(), scored.end(),
                             [](const sim::ScoredMatch& a,
                                const sim::ScoredMatch& b) {
                               return a.object == b.object;
                             }),
                 scored.end());
    for (const sim::ScoredMatch& m : scored) out.all.push_back(m.object);
    std::sort(scored.begin(), scored.end(),
              [](const sim::ScoredMatch& a, const sim::ScoredMatch& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.object < b.object;
              });
    for (std::size_t i = 0; i < std::min(k, scored.size()); ++i) {
      out.top.push_back(scored[i].object);
    }
    return out;
  }

 private:
  std::vector<std::uint32_t> mark_;
  std::uint32_t epoch_ = 0;
  std::vector<NodeId> frontier_;
  std::vector<NodeId> next_;
  std::vector<NodeId> reached_;
  sim::PeerStore::MatchScratch scratch_;
};

/// One sampled query, kept for the per-call twins.
struct Sample {
  NodeId source = 0;
  std::vector<TermId> terms;
};

/// Check results and recall@10 of one replay. Every answer is audited
/// against the world as it stood when the query ran.
class Audit {
 public:
  explicit Audit(std::size_t recall_stride) : recall_stride_(recall_stride) {}

  void fail(const std::string& what) {
    if (failures_.size() < 8) failures_.push_back(what);
    ++failure_count_;
  }
  [[nodiscard]] bool ok() const { return failure_count_ == 0; }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

  /// Hit check on a 1-in-64 sample: every answer id names an object
  /// whose terms at a live holder contain every query term.
  void check_hits(std::size_t index, const sim::PeerStore& store,
                  const HolderIndex& holders, std::span<const TermId> terms,
                  std::span<const std::uint64_t> hits) {
    if (index % 64 != 0 || hits.empty()) return;
    std::vector<TermId> sorted(terms.begin(), terms.end());
    std::sort(sorted.begin(), sorted.end());
    for (std::uint64_t id : hits) {
      if (!holders.held_live(store, id, sorted)) {
        fail("query " + std::to_string(index) + ": object " +
             std::to_string(id) + " has no live holder matching every term");
        return;
      }
    }
    ++hits_checked_;
  }

  /// Scores a sorted answer against the same-TTL oracle (every
  /// recall_stride-th query). Returns the oracle when one was computed.
  const OracleAnswer* score(std::size_t index, const overlay::Graph& graph,
                            const sim::PeerStore& store,
                            const std::vector<bool>* online, NodeId source,
                            std::span<const TermId> terms,
                            std::span<const std::uint64_t> sorted_answer) {
    if (index % recall_stride_ != 0 || terms.empty()) return nullptr;
    last_ = oracle_.answer(graph, store, online, source, terms, kRecallK);
    for (std::uint64_t id : last_.top) {
      if (std::binary_search(sorted_answer.begin(), sorted_answer.end(), id)) {
        ++overlap_;
      }
    }
    denom_ += last_.top.size();
    return &last_;
  }

  [[nodiscard]] double recall() const {
    return denom_ == 0 ? 0.0
                       : static_cast<double>(overlap_) /
                             static_cast<double>(denom_);
  }
  [[nodiscard]] std::uint64_t recall_denominator() const { return denom_; }
  [[nodiscard]] std::uint64_t hits_checked() const { return hits_checked_; }

 private:
  std::size_t recall_stride_;
  Oracle oracle_;
  OracleAnswer last_;
  std::uint64_t overlap_ = 0;
  std::uint64_t denom_ = 0;
  std::uint64_t hits_checked_ = 0;
  std::uint64_t failure_count_ = 0;
  std::vector<std::string> failures_;
};

/// Outcome counts a replay gathers at the layer boundaries. All integers
/// (plus one simulated-time sum), so they repeat exactly at a seed.
struct Counters {
  std::uint64_t engine_searches = 0;
  std::uint64_t engine_successes = 0;
  std::uint64_t engine_messages = 0;
  std::uint64_t peers_probed = 0;
  /// Searches whose engine floods the overlay round by round.
  std::uint64_t flood_traversals = 0;
  std::uint64_t dht_fallbacks = 0;
  std::uint64_t guided_forwards = 0;
  std::uint64_t fallback_forwards = 0;
  std::uint64_t des_events = 0;
  std::uint64_t answers = 0;
  std::uint64_t k_filled = 0;
  std::uint64_t cache_probe_messages = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t churn_events = 0;
  std::uint64_t dropped = 0;
  std::uint64_t retries = 0;
  std::uint64_t hedges = 0;
  double recovery_wait_ms = 0.0;
  /// Transmissions made under an active fault plan.
  std::uint64_t faulty_messages = 0;

  /// Folds one engine search's outcome in.
  void note_search(std::string_view engine, const sim::SearchOutcome& out,
                   bool under_faults) {
    ++engine_searches;
    engine_messages += out.messages;
    peers_probed += out.peers_probed;
    if (out.success) ++engine_successes;
    if (engine == "flood" || engine == "hybrid") ++flood_traversals;
    if (const auto* h = sim::extras_as<sim::HybridExtras>(out);
        h != nullptr && h->used_dht) {
      ++dht_fallbacks;
    }
    if (const auto* a = sim::extras_as<sim::AdaptiveExtras>(out)) {
      guided_forwards += a->guided_forwards;
      fallback_forwards += a->fallback_forwards;
    }
    if (out.timing.has_value()) des_events += out.timing->events;
    dropped += out.fault.dropped;
    retries += out.fault.retries;
    hedges += out.fault.hedges;
    recovery_wait_ms += out.fault.recovery_wait_ms;
    if (under_faults) faulty_messages += out.messages;
  }

  void note_answer(std::size_t size) {
    if (size == 0) return;
    ++answers;
    if (size >= kRecallK) ++k_filled;
  }
};

}  // namespace qcbench
