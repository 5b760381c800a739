// CRAS — the Constant Rate Access Server (§2).
//
// A user-level continuous-media storage server providing exactly one
// service: retrieving streams from disk at a constant rate. Its structure
// follows Figure 3 of the paper:
//
//   request manager   — accepts open/close/start/stop/seek, runs the
//                       admission test, owns the session table;
//   request scheduler — periodic with period T (the *interval time*); at
//                       each boundary it (1) publishes the data retrieved
//                       during the previous interval into the time-driven
//                       shared buffers and (2) issues, in per-disk cylinder
//                       order, every disk read the next interval needs,
//                       coalescing contiguous blocks up to 256 KiB per
//                       request and fanning each request out to the member
//                       disk of the striped volume that owns its blocks;
//   I/O-done manager  — receives completion notifications from the driver
//                       and queues them for the scheduler;
//   deadline manager  — consumes deadline-miss notifications (CRAS logs a
//                       warning and carries on);
//   signal handler    — odd jobs: stat dumps and shutdown.
//
// All requests go to the driver's real-time queue. Memory is wired: the
// server never touches a pageable byte or a non-real-time OS service during
// retrieval.
//
// Extension (paper §4, built here): constant-rate *write* sessions over
// contiguously preallocated files, staged through the same interval
// scheduler and admission formulas.
//
// Extension (beyond the paper): the server retrieves from a multi-disk
// volume (crvol::Volume — striped or rotating-parity). Admission runs the
// paper's formulas per member disk (crvol::VolumeAdmissionModel), so an
// N-disk volume admits ~N times the Fig. 6 stream count. The paper's single
// disk is a one-member volume, on which the per-disk test is exactly the
// paper's. One cras::AdmissionController owns the admitted set, its charge
// classes and the wired buffer memory.
//
// Extension (fault tolerance): a sixth thread, the *degradation
// controller*, listens for member-disk state changes (fail-stop, slow,
// recovered — see crfault). On a change it updates the admission model to
// the degraded array (a parity volume's survivors are charged the
// reconstruction reads; a slow member gets derated worst-case parameters)
// and re-runs the admission test over the open sessions. If the degraded
// array can no longer carry them all, it sheds the fewest streams —
// highest-rate sessions go first, so the low-rate majority keeps playing —
// and every surviving stream retains the full constant-rate guarantee.
//
// Extension (session leases): with Options::lease_period set, every session
// is covered by a lease the client renews with lightweight heartbeats
// (RenewLease — a direct call, cheap enough to ride a network delivery
// event; see crnet::LeaseClient). A lease-reaper thread closes sessions
// whose lease has lapsed — buffer reclaimed, wired memory unwired,
// admission share released — so a crashed or partitioned client can never
// strand server resources. A reaped session's resume state (position,
// demand, index) is remembered for the last kResumeHistory reaps;
// Reconnect(id) renews a live lease, or re-admits and resumes a reaped
// session at its last logical position.
//
// A session's server state is one Session in the id-ordered table. Close,
// shed and reap all end it through one function (EndSession), which leaves
// behind only how it ended (for WasShed/WasReaped) and, after a reap, its
// resume state.

#ifndef SRC_CORE_CRAS_H_
#define SRC_CORE_CRAS_H_

#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/base/time_units.h"
#include "src/cache/stream_cache.h"
#include "src/core/admission_controller.h"
#include "src/core/logical_clock.h"
#include "src/core/time_driven_buffer.h"
#include "src/disk/request.h"
#include "src/mcast/group_manager.h"
#include "src/media/chunk_index.h"
#include "src/rtmach/kernel.h"
#include "src/rtmach/periodic.h"
#include "src/sim/port.h"
#include "src/sim/task.h"
#include "src/ufs/ufs.h"
#include "src/volume/admission.h"
#include "src/volume/volume.h"

namespace cras {

// CPU the request scheduler spends at each interval boundary, modelling the
// server on the paper's hardware. The server's other CPU charges are
// constants in cras.cc.
inline constexpr crbase::Duration kCpuPerInterval = crbase::Microseconds(200);

// Reaped sessions whose resume state is kept for Reconnect(); past this
// bound the earliest reap is evicted.
inline constexpr std::size_t kResumeHistory = 16;

enum class SessionKind {
  kRead,   // constant-rate retrieval (the paper's only mode)
  kWrite,  // constant-rate recording (the paper's §4 extension)
};

// crs_open parameters. The client supplies the control-file contents (chunk
// timestamps/durations/sizes) and the worst-case data rate CRAS must
// reserve.
struct OpenParams {
  crufs::InodeNumber inode = crufs::kInvalidInode;
  crmedia::ChunkIndex index;
  // R_i. Zero means "derive from the index": its worst-case rate over one
  // interval window.
  double declared_rate = 0;
  SessionKind kind = SessionKind::kRead;
  // Clock/prefetch rate factor (1.0 = recorded rate; 2.0 = the paper's
  // fast-forward example, which retrieves *every* frame at double speed).
  double rate_factor = 1.0;
  // Ask for grouped (multicast) delivery. With Options::mcast.enabled the
  // server batches this viewer onto a delivery group of its title — one
  // server-owned disk feed per group, members admission-charged like
  // cache-served streams. Ignored (plain unicast open) when multicast is
  // off, for write sessions, or at a non-unit rate factor.
  bool grouped = false;
};

struct SessionStats {
  std::int64_t chunks_published = 0;  // placed into the shared buffer
  std::int64_t bytes_published = 0;
  std::int64_t chunks_written = 0;    // write sessions
  std::int64_t bytes_written = 0;
};

struct ServerStats {
  std::int64_t sessions_opened = 0;
  std::int64_t sessions_rejected = 0;
  std::int64_t deadline_misses = 0;
  std::int64_t bytes_read = 0;
  std::int64_t bytes_written = 0;
  std::int64_t read_requests = 0;
  std::int64_t write_requests = 0;
  // Sessions closed by the degradation controller because the degraded
  // array could no longer carry them.
  std::int64_t streams_shed = 0;
  // Member state changes the degradation controller processed.
  std::int64_t member_changes = 0;
  // Lease bookkeeping (all zero when leases are disabled).
  std::int64_t lease_renewals = 0;
  std::int64_t sessions_reaped = 0;   // lease lapsed; closed by the reaper
  std::int64_t sessions_resumed = 0;  // reaped, then reconnected and resumed
  // Bytes the scheduler served from the stream cache (prefix or interval
  // pool) instead of issuing disk reads. Zero when the cache is disabled.
  std::int64_t bytes_from_cache = 0;
};

class CrasServer {
 public:
  struct Options {
    crbase::Duration interval = crbase::Milliseconds(500);
    std::int64_t max_read_bytes = 256 * crbase::kKiB;
    // Wired-buffer budget for all time-driven buffers (B_total bound). The
    // paper's server wires ~250 KB of code/state plus the buffer space.
    std::int64_t memory_budget_bytes = 12 * crbase::kMiB;
    DiskParams disk_params;
    // Session-lease period (0 = leases disabled, the classic trusting
    // server). A client must renew within 1.5 periods or its session is
    // reaped: closed, buffer reclaimed, admission released.
    crbase::Duration lease_period = 0;
    // "Making all the read requests to disks in cylinder order to minimize
    // the seek time" (§2.2). Off only for the A2 ablation.
    bool sort_requests_by_cylinder = true;
    // Stream buffer cache (interval + prefix caching). Disabled by default;
    // with cache.enabled the server plans each read open against the cache,
    // admits cache-served streams at memory cost (AdmissionController), serves
    // cached windows with zero disk time, and falls back to disk — re-running
    // admission — whenever a predecessor dies or stalls.
    crcache::CacheOptions cache;
    // Multicast delivery groups (src/mcast). With mcast.enabled, grouped
    // opens of one title share a single server-owned disk feed session
    // (admitted at 1.05 times the stream rate, the extra for XOR repair);
    // the members are charged memory only, like cache-served streams. Late
    // joiners bridge from the pinned prefix when the cache is also enabled.
    crmcast::McastOptions mcast;
    // Observability hub (nullable). When set, the server instruments the
    // whole stack: the volume's member disks and drivers, the admission
    // model, per-stream buffers, interval spans, per-batch prefetch spans,
    // and a deadline-slack histogram; the cras.* counters read stats(). Null
    // costs one pointer test per site. The hub must outlive the server.
    crobs::Hub* obs = nullptr;
  };

  // Serves `volume` (striped or parity; one disk is the paper's rig): `fs`
  // must span the volume's logical space (see
  // crufs::Ufs::Options::total_sectors). Options::disk_params describes one
  // member disk; admission runs per disk. The server subscribes its own
  // member-state listener (degradation controller), so several servers may
  // share one volume.
  CrasServer(crrt::Kernel& kernel, crvol::Volume& volume, crufs::Ufs& fs,
             const Options& options);
  CrasServer(const CrasServer&) = delete;
  CrasServer& operator=(const CrasServer&) = delete;
  // Unsubscribes from the volume and reclaims client frames whose control
  // messages were still queued unprocessed (the ports themselves reclaim
  // blocked receivers).
  ~CrasServer();

  // Spawns the six server threads (idempotent).
  void Start();

  // Initial playback latency a client should allow: data scheduled in the
  // interval after crs_start becomes visible two boundaries later.
  crbase::Duration SuggestedInitialDelay() const { return 2 * options_.interval; }

  // ---- control interface (crs_open/close/start/stop/seek; Table 2) ----
  // Each is a coroutine awaitable resolving when the request manager has
  // processed the request:  `auto r = co_await server.Open(params);`

  auto Open(OpenParams params) {
    return ControlAwaiter<crbase::Result<SessionId>>{
        this, ControlMsg{ControlMsg::kOpen, kInvalidSession, std::move(params), 0, 0, nullptr, {}}};
  }
  auto Close(SessionId id) {
    return ControlAwaiter<crbase::Status>{
        this, ControlMsg{ControlMsg::kClose, id, OpenParams{}, 0, 0, nullptr, {}}};
  }
  // Starts prefetching and the logical clock; logical zero is reached after
  // `initial_delay` (use SuggestedInitialDelay()).
  auto StartStream(SessionId id, crbase::Duration initial_delay) {
    return ControlAwaiter<crbase::Status>{
        this, ControlMsg{ControlMsg::kStart, id, OpenParams{}, initial_delay, 0, nullptr, {}}};
  }
  auto StopStream(SessionId id) {
    return ControlAwaiter<crbase::Status>{
        this, ControlMsg{ControlMsg::kStop, id, OpenParams{}, 0, 0, nullptr, {}}};
  }
  auto Seek(SessionId id, crbase::Time logical) {
    return ControlAwaiter<crbase::Status>{
        this, ControlMsg{ControlMsg::kSeek, id, OpenParams{}, 0, logical, nullptr, {}}};
  }
  // Changes the retrieval/clock rate factor mid-session (fast-forward or
  // return to normal speed). Re-runs the admission test at the new rate:
  // speeding up can be refused with RESOURCE_EXHAUSTED, in which case the
  // session continues unchanged. The buffer grows in place to a larger new
  // B_i; a slowed stream keeps (and is charged) its larger buffer.
  auto SetRate(SessionId id, double rate_factor) {
    ControlMsg msg{ControlMsg::kSetRate, id, OpenParams{}, 0, 0, nullptr, {}};
    msg.params.rate_factor = rate_factor;
    return ControlAwaiter<crbase::Status>{this, std::move(msg)};
  }
  // Reconnect-and-resume by session id. A live session's lease is renewed
  // (a partition that healed before the reaper noticed). A reaped session
  // whose resume state is still remembered is re-admitted and resumed at
  // its last logical position (RESOURCE_EXHAUSTED if the array can no
  // longer carry it); anything else is NOT_FOUND.
  auto Reconnect(SessionId id) {
    return ControlAwaiter<crbase::Status>{
        this, ControlMsg{ControlMsg::kReconnect, id, OpenParams{}, 0, 0, nullptr, {}}};
  }

  // ---- multicast interface ----
  // Demotes a delivery-group member back to unicast disk service — the
  // transport calls this when a receiver has fallen past the repair window
  // (mirrors the cache's demote-to-disk rule: re-settle admission, never a
  // silent miss). The member resumes scheduling from its clock position; if
  // it emptied the group, the feed closes with it. Re-runs the admission
  // settle, so the demoted stream may be shed (observable via WasShed).
  // Direct like RenewLease: cheap enough to call from a delivery event.
  // Returns false when `id` is unknown or not a group member.
  bool DemoteGroupMember(SessionId id, const std::string& reason);

  // ---- lease interface ----
  // Renews session `id`'s lease (no-op on an unknown id — a heartbeat
  // racing the reaper). Direct like Get(): cheap enough to be called from a
  // network delivery event, which is exactly what crnet::LeaseClient does.
  void RenewLease(SessionId id);

  // ---- data interface (crs_get) ----
  // Direct shared-buffer access; no IPC, exactly as in the paper.
  std::optional<BufferedChunk> Get(SessionId id, crbase::Time logical);
  crbase::Time LogicalNow(SessionId id) const;
  // Session `id`'s logical clock, or nullptr once the session is gone
  // (closed, reaped or shed). Valid until the session closes.
  const LogicalClock* SessionClock(SessionId id) const;
  // Calls `listener` after each batch published into session `id`'s shared
  // buffer, and once more when the session ends (closed, shed or reaped;
  // the session is already gone then), so a delivery thread that missed in
  // Get() can wait for data instead of polling. It runs inside the publish
  // or the end, so it must not call back into the server. One per session;
  // an empty function removes it. No-op on an unknown session.
  void SetDataListener(SessionId id, std::function<void()> listener);

  // Session `id`'s frame-trace ring, or nullptr (unknown session, or frame
  // tracing disabled). The delivery layer — local player, NPS sender, group
  // transport — caches this once per session and stamps the downstream
  // stages; Get() itself never stamps playout, because server-side senders
  // call it long before the client consumes the frame.
  crobs::SessionTrace* FrameTrace(SessionId id) const;

  // Write-session data path: the client marks `chunk` of the session's
  // index as produced (resident in the shared buffer, ready to hit disk).
  crbase::Status PutChunk(SessionId id, std::int64_t chunk);

  // ---- introspection ----
  const Options& options() const { return options_; }
  const crvol::VolumeAdmissionModel& volume_admission() const { return admission_.model(); }
  crvol::Volume& volume() { return *volume_; }
  // The stream cache; null when Options::cache.enabled is false.
  const crcache::StreamCache* cache() const { return cache_.get(); }
  // Delivery-group bookkeeping; null when Options::mcast.enabled is false.
  crmcast::GroupManager* mcast_groups() { return group_mgr_.get(); }
  const crmcast::GroupManager* mcast_groups() const { return group_mgr_.get(); }
  bool HasSession(SessionId id) const { return FindSession(id) != nullptr; }
  const ServerStats& stats() const { return stats_; }
  // Whether the degradation controller shed session `id` (closed it to keep
  // the degraded array's guarantees for the remaining streams). Remembered
  // past the close, so a client polling a vanished session can tell "shed"
  // from "never existed".
  bool WasShed(SessionId id) const { return ended_.contains(id) && ended_.at(id).shed; }
  // Whether the lease reaper ever reaped session `id` (it may have been
  // resumed since, and even shed after that). Lets a silent client
  // distinguish "lease lapsed" from "never existed".
  bool WasReaped(SessionId id) const { return ended_.contains(id) && ended_.at(id).reaped; }
  std::size_t resumable_sessions() const { return resumable_.size(); }
  std::int64_t buffer_bytes_reserved() const { return admission_.reserved_bytes(); }
  std::size_t open_sessions() const { return sessions_.size(); }
  crbase::Result<SessionStats> GetSessionStats(SessionId id) const;
  const TimeDrivenBufferStats* GetBufferStats(SessionId id) const;

  // Asks the signal-handler thread to shut the server down; threads drain
  // and exit at the next opportunity.
  void SignalShutdown();

 private:
  struct ControlMsg {
    enum Kind {
      kOpen,
      kClose,
      kStart,
      kStop,
      kSeek,
      kSetRate,
      kReconnect,
      kShutdown
    } kind = kShutdown;
    SessionId id = kInvalidSession;
    OpenParams params;
    crbase::Duration initial_delay = 0;
    crbase::Time seek_to = 0;
    std::function<void(crbase::Result<SessionId>)> done;
    // The client frame suspended until `done` fires. Owning: dropping the
    // message (queued at teardown, or held in a reclaimed server frame)
    // destroys the client's chain with it.
    crsim::ParkedHandle parked;

    // Resumes the client. Releases `parked` first: once resumed the client
    // frame is live again and no longer ours to reclaim.
    void Complete(crbase::Result<SessionId> result) {
      parked.release();
      done(std::move(result));
    }
  };

  template <typename R>
  struct ControlAwaiter {
    CrasServer* server;
    ControlMsg msg;
    crbase::Result<SessionId> raw = kInvalidSession;

    bool await_ready() const { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      msg.done = [this, h](crbase::Result<SessionId> r) {
        raw = std::move(r);
        h.resume();
      };
      msg.parked = crsim::ParkedHandle(h);
      server->control_port_.Send(std::move(msg));
    }
    R await_resume() {
      if constexpr (std::is_same_v<R, crbase::Status>) {
        return raw.status();
      } else {
        return std::move(raw);
      }
    }
  };

  // One open session: everything the server keeps about it. Facts other
  // records already hold are read there: whether it plays and at what rate
  // from its clock (running(), rate()), its demand and charge class from
  // admission_, and its delivery-group membership from group_mgr_ (GroupOf,
  // MergeChunkOf, IsFeed).
  struct Session {
    SessionId id = kInvalidSession;
    SessionKind kind = SessionKind::kRead;
    crufs::InodeNumber inode = crufs::kInvalidInode;
    crmedia::ChunkIndex index;
    std::unique_ptr<TimeDrivenBuffer> buffer;
    std::unique_ptr<LogicalClock> clock;
    crbase::Time prefetch_pos = 0;   // logical time of the next window
    std::int64_t next_chunk = 0;     // first chunk not yet scheduled
    std::deque<std::int64_t> write_queue;  // produced, not yet written
    crbase::Time lease_renewed_at = 0;     // last RenewLease (or open) time
    // Frame-trace ring for this session (owned by the hub's FrameTracer);
    // null when frame tracing is off, so stamping costs one pointer test.
    crobs::SessionTrace* ftrace = nullptr;
    // SetDataListener's listener; empty unless a remote delivery thread
    // waits on this session.
    std::function<void()> data_listener;
    SessionStats stats;
  };

  enum class SessionEnd { kClosed, kShed, kReaped };

  // How a session that is gone ended. A plain close leaves no entry; a
  // session reaped, resumed and then shed has both flags.
  struct Ended {
    bool shed = false;
    bool reaped = false;
  };

  // What a reaped session leaves for Reconnect(): its identity, index and
  // demand, and its clock's rate, running state and reading at the reap.
  struct ResumeState {
    SessionId id = kInvalidSession;
    SessionKind kind = SessionKind::kRead;
    crufs::InodeNumber inode = crufs::kInvalidInode;
    crmedia::ChunkIndex index;
    StreamDemand demand;
    double rate = 1.0;
    bool running = false;
    crbase::Time logical_pos = 0;
  };

  struct Batch {
    std::uint64_t id = 0;
    SessionId session = kInvalidSession;
    std::int64_t first_chunk = 0;
    std::int64_t last_chunk = 0;  // exclusive
    SessionKind kind = SessionKind::kRead;
    int outstanding = 0;
    std::int64_t bytes = 0;
    std::int64_t interval_slot = 0;  // 0-based scheduler interval (ledger row)
    crbase::Time deadline = 0;      // next boundary after issue
    crbase::Time planned_at = 0;    // scheduler boundary that issued it
    // Earliest member-disk service start among the batch's completions
    // (derived: completion time minus its service terms). Feeds the frame
    // trace's disk-queue / disk-service split; -1 until a completion lands.
    crbase::Time first_service_start = -1;
  };

  struct IoDoneMsg {
    std::uint64_t batch_id = 0;
    int disk = -1;  // member disk that served it (budget-ledger attribution)
    crdisk::DiskCompletion completion;
  };

  // A member-disk state transition, forwarded from the volume's listener to
  // the degradation-controller thread. disk < 0 is the shutdown sentinel.
  struct MemberChange {
    int disk = -1;
    crvol::MemberState state = crvol::MemberState::kHealthy;
  };

  // Thread bodies.
  crsim::Task RequestManagerThread(crrt::ThreadContext& ctx);
  crsim::Task RequestSchedulerThread(crrt::ThreadContext& ctx);
  crsim::Task IoDoneManagerThread(crrt::ThreadContext& ctx);
  crsim::Task DeadlineManagerThread(crrt::ThreadContext& ctx);
  crsim::Task SignalHandlerThread(crrt::ThreadContext& ctx);
  crsim::Task DegradationControllerThread(crrt::ThreadContext& ctx);
  crsim::Task LeaseReaperThread(crrt::ThreadContext& ctx);

  // Request-manager operations. `internal_feed` marks the server's own
  // recursive open of a delivery-group feed session.
  crbase::Result<SessionId> HandleOpen(OpenParams params, bool internal_feed = false);
  // Ends session `id`, the one path for a close, a shed and a reap: leaves
  // its delivery group with a group_left event that names the ending
  // (close, shed or reap), closing a feed nobody is left on; releases its
  // admission share, unregisters it from the cache, orphans its in-flight
  // batches, erases it and then calls its data listener. A shed is marked,
  // counted and recorded before the close; a reap captures its resume
  // state before the close and stores it after.
  crbase::Status EndSession(SessionId id, SessionEnd how = SessionEnd::kClosed);
  crbase::Status HandleStart(SessionId id, crbase::Duration initial_delay);
  crbase::Status HandleStop(SessionId id);
  crbase::Status HandleSeek(SessionId id, crbase::Time logical);
  crbase::Status HandleSetRate(SessionId id, double rate_factor);
  crbase::Status HandleReconnect(SessionId id);
  // Commits `session`'s admission at `demand` (memory-only or
  // disk-charged), gives it its wired buffer, a stopped clock at `rate` and
  // obs instruments, enters it in the table and registers a read stream
  // with the cache at its next chunk.
  Session& AddSession(Session session, double rate, const StreamDemand& demand,
                      bool memory_only, const crcache::OpenDecision& cache_plan);

  // Lease-reaper operation: reaps every session whose lease lapsed.
  void ReapExpired();

  // Scheduler phases.
  // Returns the number of chunks published.
  std::int64_t PublishCompletedBatches();
  // Collects this interval's disk work; returns the number of requests
  // issued (after cylinder-order sorting).
  std::int64_t IssueIntervalIo(std::int64_t interval_slot, crbase::Time deadline);

  Session* FindSession(SessionId id);
  const Session* FindSession(SessionId id) const;
  // Whether session `id` is a delivery-group member / a group's feed.
  bool InGroup(SessionId id) const {
    return group_mgr_ != nullptr && group_mgr_->GroupOf(id) != crmcast::kNoGroup;
  }
  bool IsFeed(SessionId id) const { return group_mgr_ != nullptr && group_mgr_->IsFeed(id); }
  // Drops session `id`'s cache service (and its follower's pair, if any)
  // and re-registers it as a plain disk-served chain member at its current
  // scheduling position. Returns true if any stream's serving class changed
  // (the caller then re-runs ShedUntilAdmissible).
  bool DetachFromCache(SessionId id);
  // Charges a former group member disk time and resumes its scheduling at
  // the clock's current position. Membership bookkeeping (GroupManager) is
  // the caller's to update.
  void ResumeUnicast(Session& session);

  // Degradation-controller operations.
  // Applies a member state change to the admission model (failed flag,
  // derated parameters) and re-runs admission over the open sessions.
  void ApplyMemberChange(const MemberChange& change);
  // Sheds sessions until the remaining set passes the (degraded) admission
  // test — highest-rate first, so the fewest streams are lost.
  void ShedUntilAdmissible();

  struct ObsState {
    crobs::Hub* hub = nullptr;
    // Cached hub->frames() when frame tracing is enabled; per-session rings
    // are registered at open and cached on the Session itself.
    crobs::FrameTracer* frames = nullptr;
    std::uint32_t track = 0;          // "cras" — the scheduler's track
    std::uint32_t n_interval = 0;     // B/E span per scheduler tick
    std::uint32_t cat_batch = 0;      // async category for prefetch batches
    std::uint32_t n_prefetch = 0;     // async span, issue -> last completion
    std::uint32_t n_slack = 0;        // counter samples of deadline slack
    crobs::Gauge* streams_kept = nullptr;
    // Age of the lease at each renewal — the observed heartbeat cadence.
    crobs::Histogram* lease_age_ms = nullptr;
    crobs::Histogram* deadline_slack_ms = nullptr;
    // Slack recorded only while the volume is degraded: how much margin the
    // reconstruction-loaded array keeps to the interval boundary.
    crobs::Histogram* degraded_slack_ms = nullptr;
    // Admission-audit ledger, the server's one per-interval record: per
    // disk, the requests issued and the predicted-vs-measured budget terms.
    // Owned here (it audits this server's admission state); the hub holds a
    // borrowed pointer for flight-recorder dumps.
    std::unique_ptr<crobs::BudgetLedger> ledger;
  };
  void AttachObs(crobs::Hub* hub);

  crrt::Kernel* kernel_;
  crvol::Volume* volume_;
  // This server's subscription to the volume's member-state changes.
  int member_listener_ = -1;
  crufs::Ufs* fs_;
  Options options_;
  AdmissionController admission_;
  // Null unless options_.cache.enabled.
  std::unique_ptr<crcache::StreamCache> cache_;
  // Null unless options_.mcast.enabled.
  std::unique_ptr<crmcast::GroupManager> group_mgr_;
  // Set when a close/reap orphaned a cached follower; the next owner of the
  // control flow re-runs ShedUntilAdmissible to settle the fallen-back
  // stream (re-admit on the freed bandwidth, or shed).
  bool cache_fallback_pending_ = false;

  crsim::Port<ControlMsg> control_port_;
  crsim::Port<IoDoneMsg> io_done_port_;
  crsim::Port<crrt::DeadlineMiss> deadline_port_;
  crsim::Port<int> signal_port_;
  crsim::Port<MemberChange> fault_port_;

  // Open sessions in id order: the order the scheduler plans their I/O in.
  std::map<SessionId, Session> sessions_;
  SessionId next_session_id_ = 1;
  // Shed or reaped sessions, by how they ended.
  std::map<SessionId, Ended> ended_;
  // Resume states in reap order (sweeps run in time order and reap in id
  // order), at most kResumeHistory: the front is the earliest reap.
  std::deque<ResumeState> resumable_;

  std::map<std::uint64_t, Batch> inflight_;
  std::deque<std::uint64_t> completed_batches_;
  std::uint64_t next_batch_id_ = 1;

  ServerStats stats_;
  // The cras.* counter series read stats_.
  crobs::Bindings bound_;

  std::unique_ptr<ObsState> obs_;

  std::vector<crsim::Task> threads_;
  bool started_ = false;
  bool shutdown_ = false;
};

}  // namespace cras

#endif  // SRC_CORE_CRAS_H_
