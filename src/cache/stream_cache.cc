#include "src/cache/stream_cache.h"

#include <algorithm>
#include <cmath>

#include "src/base/logging.h"

namespace crcache {

StreamCache::StreamCache(const CacheOptions& options) : options_(options) {
  CRAS_CHECK(options_.interval_pool_bytes >= 0);
  CRAS_CHECK(options_.prefix_pool_bytes >= 0);
  CRAS_CHECK(options_.popularity_halflife > 0);
}

void StreamCache::AttachObs(crobs::Hub* hub) {
  if (hub == nullptr) {
    obs_ = ObsState{};
    return;
  }
  crobs::Registry& metrics = hub->metrics();
  obs_.hub = hub;
  obs_.prefix_hits = metrics.GetCounter("cache.hit_chunks", {{"kind", "prefix"}});
  obs_.interval_hits = metrics.GetCounter("cache.hit_chunks", {{"kind", "interval"}});
  obs_.miss_chunks = metrics.GetCounter("cache.miss_chunks");
  obs_.fallbacks = metrics.GetCounter("cache.fallbacks");
  obs_.pairs_formed = metrics.GetCounter("cache.pairs_formed");
  obs_.pairs_broken = metrics.GetCounter("cache.pairs_broken");
  obs_.pairs_active = metrics.GetGauge("cache.pairs_active");
  obs_.pinned = metrics.GetGauge("cache.pinned_titles");
  obs_.interval_pool = metrics.GetGauge("cache.interval_pool_bytes");
  obs_.prefix_pool = metrics.GetGauge("cache.prefix_pool_bytes");
  UpdateGauges();
}

double StreamCache::DecayedScore(const TitleState& state, crbase::Time now) const {
  if (now <= state.score_at) {
    return state.score;
  }
  const double halflives = static_cast<double>(now - state.score_at) /
                           static_cast<double>(options_.popularity_halflife);
  return state.score * std::exp2(-halflives);
}

std::int64_t StreamCache::OffsetOf(const TitleState& state, std::int64_t chunk) const {
  if (chunk <= 0) {
    return 0;
  }
  if (chunk >= static_cast<std::int64_t>(state.index.count())) {
    return state.index.total_bytes();
  }
  return state.index.at(static_cast<std::size_t>(chunk)).offset;
}

bool StreamCache::TitleNeedsPrefix(const TitleState& state) const {
  for (StreamId id : state.streams) {
    if (streams_.at(id).scheduled_up_to < state.prefix_end_chunk) {
      return true;  // this stream's upcoming reads still land in the prefix
    }
  }
  return false;
}

void StreamCache::Unpin(TitleState& state) {
  state.pinned = false;
  prefix_pool_used_ -= state.prefix_bytes;
  --pinned_titles_;
  ++counters_.titles_unpinned;
}

void StreamCache::MaybePin(TitleId title, TitleState& state, crbase::Time now) {
  if (state.pinned || state.prefix_bytes <= 0 ||
      state.prefix_bytes > options_.prefix_pool_bytes ||
      DecayedScore(state, now) < options_.pin_min_score) {
    return;
  }
  // Make room by evicting strictly colder pinned prefixes no stream still
  // needs; give up (stay unpinned) if the pool can't be cleared.
  while (prefix_pool_used_ + state.prefix_bytes > options_.prefix_pool_bytes) {
    TitleState* coldest = nullptr;
    double coldest_score = DecayedScore(state, now);
    for (auto& [other_id, other] : titles_) {
      if (other_id == title || !other.pinned || TitleNeedsPrefix(other)) {
        continue;
      }
      const double score = DecayedScore(other, now);
      if (score < coldest_score) {
        coldest = &other;
        coldest_score = score;
      }
    }
    if (coldest == nullptr) {
      return;
    }
    Unpin(*coldest);
  }
  state.pinned = true;
  prefix_pool_used_ += state.prefix_bytes;
  ++pinned_titles_;
  ++counters_.titles_pinned;
}

void StreamCache::NoteOpen(TitleId title, const crmedia::ChunkIndex& index,
                           crbase::Time now) {
  if (!options_.enabled) {
    return;
  }
  TitleState& state = titles_.try_emplace(title).first->second;
  if (state.index.empty() && !index.empty()) {
    state.index = index;
    const auto [first, last] = index.RangeByTime(0, options_.prefix_length);
    state.prefix_end_chunk = last;
    state.prefix_bytes = OffsetOf(state, last);
  }
  state.score = DecayedScore(state, now) + 1.0;
  state.score_at = now;
  MaybePin(title, state, now);
  UpdateGauges();
}

OpenDecision StreamCache::PlanOpen(TitleId title, std::int64_t start_chunk) const {
  OpenDecision decision;
  if (!options_.enabled) {
    return decision;
  }
  auto it = titles_.find(title);
  if (it == titles_.end()) {
    return decision;
  }
  const TitleState& state = it->second;
  decision.prefix_pinned = state.pinned;
  // Cache service needs the prefix to bridge the start-up gap: the pair's
  // deposits only begin where the predecessor stands today, and everything
  // before that must come from the pinned prefix.
  if (!state.pinned || start_chunk >= state.prefix_end_chunk) {
    return decision;
  }
  // Nearest chain tail at/ahead of the opening position that is still
  // inside the prefix (so the gap is fully bridged).
  const StreamState* pred = nullptr;
  for (StreamId sid : state.streams) {
    const StreamState& s = streams_.at(sid);
    if (s.follower != kNoStream || s.scheduled_up_to < start_chunk ||
        s.scheduled_up_to > state.prefix_end_chunk) {
      continue;
    }
    if (pred == nullptr || s.scheduled_up_to < pred->scheduled_up_to ||
        (s.scheduled_up_to == pred->scheduled_up_to && s.id > pred->id)) {
      pred = &s;
    }
  }
  if (pred == nullptr) {
    return decision;
  }
  // The pair's memory cost: the byte distance between the play points.
  const std::int64_t reserved =
      OffsetOf(state, pred->scheduled_up_to) - OffsetOf(state, start_chunk);
  if (interval_pool_used_ + reserved > options_.interval_pool_bytes) {
    return decision;  // the pool ranks pairs by memory cost: no room, no pair
  }
  decision.serve = ServeClass::kCached;
  decision.predecessor = pred->id;
  decision.reserved_bytes = reserved;
  return decision;
}

void StreamCache::Register(StreamId id, TitleId title, std::int64_t start_chunk,
                           const OpenDecision& decision) {
  if (!options_.enabled) {
    return;
  }
  auto it = titles_.find(title);
  CRAS_CHECK(it != titles_.end()) << "Register before NoteOpen for title " << title;
  TitleState& state = it->second;
  StreamState stream;
  stream.id = id;
  stream.title = title;
  stream.scheduled_up_to = start_chunk;
  if (decision.serve == ServeClass::kCached) {
    StreamState& pred = streams_.at(decision.predecessor);
    CRAS_CHECK(pred.follower == kNoStream) << "predecessor already feeds a follower";
    pred.follower = id;
    stream.cache_served = true;
    stream.predecessor = decision.predecessor;
    stream.valid_from = pred.scheduled_up_to;
    stream.reserved_bytes = decision.reserved_bytes;
    interval_pool_used_ += decision.reserved_bytes;
    ++pairs_active_;
    ++counters_.pairs_formed;
    if (obs_.hub != nullptr) {
      obs_.pairs_formed->Add();
      obs_.hub->flight().Record(crobs::FlightEventKind::kCachePairFormed, id, pred.id,
                                static_cast<double>(decision.reserved_bytes));
    }
  }
  state.streams.push_back(id);
  streams_.emplace(id, stream);
  UpdateGauges();
}

void StreamCache::BreakPair(StreamState& stream, const char* reason) {
  StreamState& pred = streams_.at(stream.predecessor);
  pred.follower = kNoStream;
  interval_pool_used_ -= stream.reserved_bytes;
  --pairs_active_;
  ++counters_.pairs_broken;
  if (obs_.hub != nullptr) {
    obs_.pairs_broken->Add();
    obs_.hub->flight().Record(crobs::FlightEventKind::kCachePairBroken, stream.id, pred.id,
                              static_cast<double>(stream.reserved_bytes), reason);
  }
  stream.predecessor = kNoStream;
  stream.reserved_bytes = 0;
  stream.cache_served = false;
}

std::vector<StreamId> StreamCache::Unregister(StreamId id) {
  std::vector<StreamId> orphans;
  auto it = streams_.find(id);
  if (it == streams_.end()) {
    return orphans;
  }
  const StreamState dying = it->second;
  TitleState& title = titles_.at(dying.title);

  if (dying.follower != kNoStream) {
    StreamState& follower = streams_.at(dying.follower);
    ++counters_.pairs_broken;
    if (obs_.hub != nullptr) {
      obs_.pairs_broken->Add();
      obs_.hub->flight().Record(crobs::FlightEventKind::kCachePairBroken, follower.id, id,
                                static_cast<double>(follower.reserved_bytes),
                                dying.cache_served ? "pred-closed-merged" : "pred-closed");
    }
    if (dying.cache_served) {
      // Interior chain death: the retained windows [follower..dying] and
      // [dying..predecessor] are contiguous, so they merge into one pair
      // carrying the combined reservation; the follower keeps cache service.
      StreamState& pred = streams_.at(dying.predecessor);
      pred.follower = follower.id;
      follower.predecessor = pred.id;
      follower.reserved_bytes += dying.reserved_bytes;
      ++counters_.pairs_formed;
      if (obs_.hub != nullptr) {
        obs_.pairs_formed->Add();
        obs_.hub->flight().Record(crobs::FlightEventKind::kCachePairFormed, follower.id,
                                  pred.id, static_cast<double>(follower.reserved_bytes));
      }
      // Net pairs: two broken (below for the dying stream), one formed.
    } else {
      // Chain-head death: the feed is gone; the follower falls back to disk.
      interval_pool_used_ -= follower.reserved_bytes;
      follower.reserved_bytes = 0;
      follower.predecessor = kNoStream;
      follower.cache_served = false;
      --pairs_active_;
      ++counters_.fallbacks;
      if (obs_.hub != nullptr) {
        obs_.fallbacks->Add();
        obs_.hub->flight().Record(crobs::FlightEventKind::kCacheFallback, follower.id, 0);
      }
      orphans.push_back(follower.id);
    }
  }
  if (dying.cache_served) {
    // The dying stream's own pair: release unless merged into the follower
    // above (the merge re-charges the bytes under the follower's name).
    StreamState& pred = streams_.at(dying.predecessor);
    if (dying.follower == kNoStream) {
      pred.follower = kNoStream;
    }
    interval_pool_used_ -= dying.reserved_bytes;
    --pairs_active_;
    ++counters_.pairs_broken;
    if (obs_.hub != nullptr) {
      obs_.pairs_broken->Add();
      obs_.hub->flight().Record(crobs::FlightEventKind::kCachePairBroken, id, pred.id,
                                static_cast<double>(dying.reserved_bytes), "closed");
    }
    if (dying.follower != kNoStream) {
      interval_pool_used_ += dying.reserved_bytes;  // transferred, not freed
    }
  }

  title.streams.erase(std::find(title.streams.begin(), title.streams.end(), id));
  streams_.erase(it);
  // The title may have just lost its last in-prefix reader; keep the prefix
  // pinned regardless — eviction is on demand (MaybePin), keyed to
  // popularity, not residency.
  UpdateGauges();
  return orphans;
}

ServeResult StreamCache::ServableRun(StreamId id, std::int64_t first_chunk,
                                     std::int64_t last_chunk) {
  ServeResult result;
  if (!options_.enabled || first_chunk >= last_chunk) {
    return result;
  }
  auto it = streams_.find(id);
  if (it == streams_.end()) {
    return result;
  }
  StreamState& stream = it->second;
  const TitleState& title = titles_.at(stream.title);
  const StreamState* pred =
      stream.predecessor != kNoStream ? &streams_.at(stream.predecessor) : nullptr;
  std::int64_t prefix_hits = 0;
  std::int64_t interval_hits = 0;
  for (std::int64_t c = first_chunk; c < last_chunk; ++c) {
    if (title.pinned && c < title.prefix_end_chunk) {
      ++prefix_hits;
      continue;
    }
    if (stream.cache_served && pred != nullptr && c >= stream.valid_from &&
        c < pred->scheduled_up_to) {
      ++interval_hits;
      continue;
    }
    break;
  }
  result.chunks = prefix_hits + interval_hits;
  counters_.prefix_hit_chunks += prefix_hits;
  counters_.interval_hit_chunks += interval_hits;
  if (obs_.hub != nullptr) {
    if (prefix_hits > 0) {
      obs_.prefix_hits->Add(prefix_hits);
    }
    if (interval_hits > 0) {
      obs_.interval_hits->Add(interval_hits);
    }
  }
  if (stream.cache_served && result.chunks < last_chunk - first_chunk) {
    // The follower outran its feed (stalled or stopped predecessor). The
    // missed tail rides the admission model's fallback reserve this once;
    // demote the stream so the reserve is never claimed twice.
    const std::int64_t missed = last_chunk - first_chunk - result.chunks;
    counters_.miss_chunks += missed;
    ++counters_.fallbacks;
    if (obs_.hub != nullptr) {
      obs_.miss_chunks->Add(missed);
      obs_.fallbacks->Add();
      obs_.hub->flight().Record(crobs::FlightEventKind::kCacheFallback, id, missed);
    }
    BreakPair(stream, "starved");
    result.demoted = true;
    UpdateGauges();
  }
  return result;
}

void StreamCache::NoteScheduled(StreamId id, std::int64_t up_to_chunk) {
  if (!options_.enabled) {
    return;
  }
  auto it = streams_.find(id);
  if (it == streams_.end()) {
    return;
  }
  it->second.scheduled_up_to = std::max(it->second.scheduled_up_to, up_to_chunk);
}

bool StreamCache::HasFollower(StreamId id) const {
  auto it = streams_.find(id);
  return it != streams_.end() && it->second.follower != kNoStream;
}

bool StreamCache::cache_served(StreamId id) const {
  auto it = streams_.find(id);
  return it != streams_.end() && it->second.cache_served;
}

bool StreamCache::prefix_pinned(TitleId title) const {
  auto it = titles_.find(title);
  return it != titles_.end() && it->second.pinned;
}

std::int64_t StreamCache::prefix_end_chunk(TitleId title) const {
  auto it = titles_.find(title);
  if (it == titles_.end() || !it->second.pinned) {
    return 0;
  }
  return it->second.prefix_end_chunk;
}

double StreamCache::popularity(TitleId title, crbase::Time now) const {
  auto it = titles_.find(title);
  return it == titles_.end() ? 0.0 : DecayedScore(it->second, now);
}

void StreamCache::UpdateGauges() {
  if (obs_.hub == nullptr) {
    return;
  }
  obs_.pairs_active->Set(static_cast<double>(pairs_active_));
  obs_.pinned->Set(static_cast<double>(pinned_titles_));
  obs_.interval_pool->Set(static_cast<double>(interval_pool_used_));
  obs_.prefix_pool->Set(static_cast<double>(prefix_pool_used_));
}

}  // namespace crcache
