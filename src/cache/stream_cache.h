// Stream buffer cache: interval caching + popularity-aware prefix caching.
//
// CRAS caps capacity at the admission formulas' ~14 streams/disk because
// every admitted stream pays full disk bandwidth, however popular its title.
// This subsystem sits between the prefetch scheduler and the volume and
// breaks that ceiling for skewed workloads, following the shape of interval
// caching (Dan & Sitaram) with a prefix/popularity front end (Jayarekha &
// Nair):
//
//   Interval caching. When a stream opens a title that another stream is
//   already playing a little ahead, the pair (predecessor, follower) shares
//   the predecessor's disk reads: the blocks the predecessor just read are
//   retained in a bounded *interval pool* until the follower consumes them,
//   so the follower's steady-state interval I/O is satisfied from memory
//   with zero disk time. The memory cost of a pair is the byte distance
//   between the two play points — exactly the interval-caching ranking
//   metric: short gaps are cheap, so a bounded pool admits the pairs with
//   the smallest memory-per-stream first (pool-full pairs simply don't
//   form). Streams chain: the follower of one pair can be the predecessor
//   of the next, so N consecutive streams of a hot title cost one stream's
//   disk bandwidth plus the chain's gap bytes.
//
//   Prefix caching. A follower can only join a predecessor it trails
//   *closely*; a flash crowd arrives faster than that. An EWMA popularity
//   tracker (per-title open rate, half-life Options::popularity_halflife)
//   pins the first Options::prefix_length of hot titles in a separately
//   budgeted *prefix pool*. Any stream positioned inside a pinned prefix is
//   served those chunks from memory, which (a) absorbs the start-up burst
//   and (b) bridges a new follower onto a predecessor up to a full prefix
//   ahead — the pair's retained window starts where the predecessor stood
//   at formation, and the prefix covers everything before that.
//
// The cache never copies data (the simulation carries no payloads); it is a
// bookkeeping layer deciding which scheduled reads need no disk time. The
// server charges cache-served streams accordingly at admission
// (cras::AdmissionController): buffer memory plus a single shared
// fallback reserve instead of per-disk interval time.
//
// Pairs are broken — and followers *fall back to disk* — when a predecessor
// closes, is shed, is reaped, or stalls (the follower's window outruns the
// deposits). The server then re-runs admission: the fallen-back stream is
// either carried by the freed/reserved disk bandwidth or shed. Nothing is
// ever served late silently; a cache miss costs disk time the admission
// model already reserved.

#ifndef SRC_CACHE_STREAM_CACHE_H_
#define SRC_CACHE_STREAM_CACHE_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/base/bytes.h"
#include "src/base/time_units.h"
#include "src/media/chunk_index.h"
#include "src/obs/obs.h"

namespace crcache {

using StreamId = std::int64_t;
using TitleId = std::int64_t;  // the title's inode number
inline constexpr StreamId kNoStream = -1;

struct CacheOptions {
  bool enabled = false;
  // Interval pool: total bytes of predecessor-read blocks retained for
  // followers. A pair reserves its gap bytes here for its whole life.
  std::int64_t interval_pool_bytes = 32 * crbase::kMiB;
  // Prefix pool: total bytes of pinned title prefixes.
  std::int64_t prefix_pool_bytes = 32 * crbase::kMiB;
  // How much of a hot title's head is pinned while it stays popular.
  crbase::Duration prefix_length = crbase::Seconds(20);
  // EWMA half-life of the per-title open-rate score.
  crbase::Duration popularity_halflife = crbase::Seconds(60);
  // Minimum decayed score (≈ opens per half-life) before a prefix pins.
  double pin_min_score = 1.5;
};

enum class ServeClass {
  kDisk,    // charged per-disk interval time (the classic admission path)
  kCached,  // charged buffer memory + the shared fallback reserve
};

// The cache's verdict on an opening stream, input to admission and to
// Register(). Computed by PlanOpen() without mutating anything, so a
// rejected open leaves no trace.
struct OpenDecision {
  ServeClass serve = ServeClass::kDisk;
  StreamId predecessor = kNoStream;   // set when serve == kCached
  std::int64_t reserved_bytes = 0;    // interval-pool charge of the pair
  bool prefix_pinned = false;         // title's prefix resident at plan time
};

// What ServableRun() found for one scheduled window.
struct ServeResult {
  std::int64_t chunks = 0;  // leading chunks servable with zero disk time
  // A cache-served stream's window outran its feed: the cache demoted it to
  // disk service (pair broken, reservation released). The caller must re-run
  // admission — the tail of this window rides the fallback reserve, but from
  // the next interval on the stream is charged full disk time.
  bool demoted = false;
};

struct CacheCounters {
  std::int64_t prefix_hit_chunks = 0;
  std::int64_t interval_hit_chunks = 0;
  std::int64_t miss_chunks = 0;   // cache-served windows only
  std::int64_t fallbacks = 0;     // streams demoted to disk service
  std::int64_t pairs_formed = 0;
  std::int64_t pairs_broken = 0;
  std::int64_t titles_pinned = 0;
  std::int64_t titles_unpinned = 0;
};

class StreamCache {
 public:
  explicit StreamCache(const CacheOptions& options);
  StreamCache(const StreamCache&) = delete;
  StreamCache& operator=(const StreamCache&) = delete;

  // Registers counters (hits/misses/fallbacks/pair churn) and gauges (pool
  // occupancy, active pairs, pinned titles), plus flight-recorder events for
  // pair formation/breakage and fallbacks.
  void AttachObs(crobs::Hub* hub);

  // ---- popularity / prefix front end ----
  // Called on every read open *before* PlanOpen: bumps the title's EWMA
  // score and pins/evicts prefixes. First call for a title retains a copy
  // of its chunk index. The pinned prefix is modelled as instantly resident
  // (filled by a background non-real-time read the admission formulas'
  // B_other term already budgets for; see DESIGN.md §5.11).
  void NoteOpen(TitleId title, const crmedia::ChunkIndex& index, crbase::Time now);

  // ---- pair lifecycle ----
  // Plans service for a stream opening `title` at `start_chunk`. Pure.
  OpenDecision PlanOpen(TitleId title, std::int64_t start_chunk) const;
  // Registers an admitted stream. Every read stream registers — disk-served
  // streams are the chain heads followers attach to. A kCached decision
  // links the pair and charges the interval pool.
  void Register(StreamId id, TitleId title, std::int64_t start_chunk,
                const OpenDecision& decision);
  // Removes a stream (close/shed/reap/seek). An interior chain death merges
  // its neighbours into one pair (the retained windows are contiguous); a
  // chain-head death orphans its follower. Returns the streams demoted to
  // disk service — the caller must flip their serving class and re-run
  // admission (re-admit on the fallback reserve, or shed).
  std::vector<StreamId> Unregister(StreamId id);

  // ---- scheduler hooks ----
  // The longest leading run of [first_chunk, last_chunk) servable with zero
  // disk time: pinned-prefix chunks (any stream of the title), then
  // deposited interval-pool chunks (cache-served streams). Only the leading
  // run counts so the disk remainder stays one contiguous range.
  ServeResult ServableRun(StreamId id, std::int64_t first_chunk, std::int64_t last_chunk);
  // Records that the stream's reads up to `up_to_chunk` (exclusive) have
  // been issued this boundary — the deposit feeding its follower.
  void NoteScheduled(StreamId id, std::int64_t up_to_chunk);

  // ---- introspection ----
  bool HasFollower(StreamId id) const;
  bool cache_served(StreamId id) const;
  bool prefix_pinned(TitleId title) const;
  // Pinned-prefix coverage: chunks [0, end) are resident; 0 when the title
  // is unknown or unpinned. The multicast group manager tests late-joiner
  // bridges against this bound.
  std::int64_t prefix_end_chunk(TitleId title) const;
  double popularity(TitleId title, crbase::Time now) const;
  std::int64_t pairs_active() const { return pairs_active_; }
  std::int64_t pinned_titles() const { return pinned_titles_; }
  std::int64_t interval_pool_used() const { return interval_pool_used_; }
  std::int64_t prefix_pool_used() const { return prefix_pool_used_; }
  const CacheCounters& counters() const { return counters_; }
  const CacheOptions& options() const { return options_; }

 private:
  struct TitleState {
    crmedia::ChunkIndex index;
    std::int64_t prefix_end_chunk = 0;  // prefix covers chunks [0, end)
    std::int64_t prefix_bytes = 0;
    double score = 0;
    crbase::Time score_at = 0;
    bool pinned = false;
    std::vector<StreamId> streams;  // registered streams of this title
  };

  struct StreamState {
    StreamId id = kNoStream;
    TitleId title = 0;
    bool cache_served = false;
    StreamId predecessor = kNoStream;  // feed (cache-served streams only)
    StreamId follower = kNoStream;     // at most one: chains, not fan-out
    // Deposits valid from here: where the predecessor stood at pair
    // formation. Chunks before this are covered by the pinned prefix.
    std::int64_t valid_from = 0;
    std::int64_t scheduled_up_to = 0;  // reads issued up to here (exclusive)
    std::int64_t reserved_bytes = 0;   // this pair's interval-pool charge
  };

  double DecayedScore(const TitleState& state, crbase::Time now) const;
  // Byte offset of `chunk` in the title (total size at/past the end).
  std::int64_t OffsetOf(const TitleState& state, std::int64_t chunk) const;
  void MaybePin(TitleId title, TitleState& state, crbase::Time now);
  void Unpin(TitleState& state);
  bool TitleNeedsPrefix(const TitleState& state) const;
  // Breaks the (stream, stream.predecessor) pair and demotes the stream to
  // disk service. `reason` labels the flight event.
  void BreakPair(StreamState& stream, const char* reason);
  void UpdateGauges();

  CacheOptions options_;
  std::map<TitleId, TitleState> titles_;
  std::map<StreamId, StreamState> streams_;
  std::int64_t interval_pool_used_ = 0;
  std::int64_t prefix_pool_used_ = 0;
  std::int64_t pairs_active_ = 0;
  std::int64_t pinned_titles_ = 0;
  CacheCounters counters_;

  struct ObsState {
    crobs::Hub* hub = nullptr;
    crobs::Counter* prefix_hits = nullptr;
    crobs::Counter* interval_hits = nullptr;
    crobs::Counter* miss_chunks = nullptr;
    crobs::Counter* fallbacks = nullptr;
    crobs::Counter* pairs_formed = nullptr;
    crobs::Counter* pairs_broken = nullptr;
    crobs::Gauge* pairs_active = nullptr;
    crobs::Gauge* pinned = nullptr;
    crobs::Gauge* interval_pool = nullptr;
    crobs::Gauge* prefix_pool = nullptr;
  };
  ObsState obs_;
};

}  // namespace crcache

#endif  // SRC_CACHE_STREAM_CACHE_H_
