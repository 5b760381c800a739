// Grouped delivery transport: one multicast feed, N receivers, coded repair.
//
// GroupSender is the server-host transmitter for one delivery group
// (src/mcast/group_manager.h). It walks the title's chunk index once,
// slightly ahead of the *feed* session's logical clock, fetches each chunk
// from the feed's shared buffer (one disk read per interval however many
// viewers watch) and fans the fragments out with crnet::Link::Multicast —
// serialized once, delivered to every member with independent impairment
// draws. Late joiners are bridged unicast: until a member's merge point the
// sender walks the member's own (prefix-cache-served) session, so the
// bridge costs wire time but no disk time.
//
// Repair is coded, not per-client. Each GroupReceiver periodically reports
// the sequence numbers/fragments it is still missing over its reverse link
// (a loss *bitmap*, not a NAK per gap). The sender aggregates the reports
// and, every repair pass, multicasts XOR parity packets over windows of
// recently sent fragments (src/mcast/xor_codec.h), partitioned so no
// receiver is missing two fragments of one window — a single parity packet
// then fixes a *different* loss at every receiver. Both ends test
// crnet::ChunkDeadline before spending wire time or decode effort.
//
// Degradation is explicit, mirroring the cache's demote-to-disk rule: a
// reported loss that has already left the sender's repair window (the
// receiver fell too far behind) while still being repairable on the
// member's own clock demotes the member to unicast — the sender calls
// CrasServer::DemoteGroupMember, admission re-settles, and from then on the
// member is served like a plain NPS stream. Never a silent miss.
//
// The fragment format, the sent-chunk record and the receiver's reassembly,
// buffer and clock are the reliability core NPS uses too
// (src/net/reliable.h); this file holds only the grouped walks and the
// coded-repair policy.

#ifndef SRC_MCAST_GROUP_TRANSPORT_H_
#define SRC_MCAST_GROUP_TRANSPORT_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/base/time_units.h"
#include "src/core/cras.h"
#include "src/mcast/group_manager.h"
#include "src/net/link.h"
#include "src/net/reliable.h"
#include "src/obs/obs.h"
#include "src/rtmach/kernel.h"
#include "src/sim/task.h"

namespace crmcast {

class GroupSender;

// A receiver's aggregate loss bitmap, shipped on the reverse link every
// report interval — one packet regardless of how many gaps it covers.
struct LossReport {
  SessionId member = kNoSession;
  std::vector<crnet::NpsNak> entries;
};

// One multicast XOR parity packet: the bytewise XOR of every fragment in
// `window`. A receiver holding all but one window member recovers it; each
// window entry carries its fragment's full metadata, so a decode
// synthesizes the lost fragment outright.
struct RepairPacket {
  std::vector<crnet::NpsFragment> window;
  std::int64_t bytes = 0;  // wire size: max fragment size + header overhead
};

struct GroupReceiverStats : crnet::ReassemblyStats {
  std::int64_t repair_decodes = 0;        // parity packet recovered a fragment
  std::int64_t repair_useless = 0;        // parity covered nothing we miss
  std::int64_t repair_decode_failed = 0;  // >1 window member absent
};

// Client-host endpoint of a grouped stream: the shared receiver end
// (crnet::ReliableReceiver) reassembles multicast, bridge and repaired
// fragments; this class tracks gaps against both the multicast cursor and
// the unicast bridge cursor, and reports losses as periodic bitmaps
// instead of per-gap NAKs.
class GroupReceiver final : public crnet::ReliableReceiver {
 public:
  // `index` is the title's chunk index — the receiver knows the stream
  // layout (the player has it too), which gives every gap a playout
  // deadline even when no fragment metadata ever arrived. The buffer size,
  // report cadence, reordering grace, report size and jitter allowance are
  // constants in group_transport.cc.
  GroupReceiver(crrt::Kernel& kernel, const crmedia::ChunkIndex* index);

  // Chunks below the merge point arrive on the unicast bridge; the
  // multicast gap tracker starts expecting sequence numbers from here.
  void set_merge_chunk(std::int64_t merge_chunk);

  // Loss reports travel over `reverse` to `sender`, identified as `member`
  // (the CRAS session id). Starts nothing by itself — Start() runs the
  // report thread.
  void ConnectReverse(crnet::Link& reverse, GroupSender& sender, SessionId member);

  // Spawns the report/sweep thread. Runs until Stop().
  crsim::Task Start();
  void Stop() { stopped_ = true; }

  // Packet arrival, invoked by the forward link's delivery events.
  void OnFragment(const crnet::NpsFragment& fragment);
  void OnRepair(const RepairPacket& packet);

  const GroupReceiverStats& stats() const { return stats_; }

 private:
  crnet::ReassemblyStats& reassembly_stats() override { return stats_; }
  // Playout deadline of `seq` from the chunk index — defined even for
  // placeholders that never saw metadata.
  crbase::Time DeadlineOf(std::uint64_t seq) const;
  crsim::Task ReportThread(crrt::ThreadContext& ctx);
  // True when this receiver holds fragment (seq, frag_index) — completed
  // chunks hold everything; abandoned ones hold nothing.
  bool Holds(std::uint64_t seq, int frag_index) const;

  const crmedia::ChunkIndex* index_;
  crnet::Link* reverse_ = nullptr;
  GroupSender* sender_ = nullptr;
  SessionId member_ = kNoSession;
  std::int64_t merge_chunk_ = 0;
  bool stopped_ = false;
  std::set<std::uint64_t> abandoned_;  // finished without data
  // Gap trackers: every seq below a cursor has an entry or is done.
  std::uint64_t mcast_expected_ = 0;    // multicast stream, from merge_chunk_
  std::uint64_t unicast_expected_ = 0;  // bridge/unicast stream, from 0
  std::uint64_t due_swept_ = 0;         // due sweep: playout-imminent check
  GroupReceiverStats stats_;
};

struct GroupSenderStats {
  std::int64_t chunks_multicast = 0;
  std::int64_t chunks_skipped = 0;  // never appeared in the shared buffer
  std::int64_t patch_chunks = 0;    // bridge chunks below a merge point
  std::int64_t unicast_chunks = 0;  // demoted-member chunks
  std::int64_t fragments_retransmitted = 0;
  std::int64_t retransmits_abandoned = 0;
  std::int64_t repair_packets = 0;
  std::int64_t repair_bytes = 0;
  std::int64_t deduped_chunk_reads = 0;  // reads the fan-out saved vs unicast
  std::int64_t members_demoted = 0;      // fell past the repair window
};

// Server-host transmitter for one delivery group.
class GroupSender {
 public:
  // The lookahead, per-chunk CPU, poll and repair cadences, parity window
  // cap and header size, end-of-stream drain, playout slack and thread
  // priority are constants in group_transport.cc.
  struct Options {
    std::int64_t max_packet_bytes = 8 * 1024;
    // How many recently multicast chunks stay repairable. A reported loss
    // older than this (and still in deadline on the member's clock) demotes
    // the member to unicast.
    std::int64_t repair_window_chunks = 64;
  };

  GroupSender(crrt::Kernel& kernel, cras::CrasServer& server, crnet::Link& forward,
              const Options& options);
  GroupSender(crrt::Kernel& kernel, cras::CrasServer& server, crnet::Link& forward);
  GroupSender(const GroupSender&) = delete;
  GroupSender& operator=(const GroupSender&) = delete;

  // Registers a member session and its client-host receiver. Call after the
  // server admitted the session into the group (any time, including while
  // the feed is already rolling — that is the late-join path).
  void AddMember(SessionId session, GroupReceiver& receiver);

  // Spawns the transmitter thread for `group`, walking `index` to its end
  // plus a short repair drain. The returned task may be awaited or dropped.
  crsim::Task Start(GroupId group, const crmedia::ChunkIndex* index);

  // Loss-report arrival, invoked by a reverse link's delivery events.
  // Bridge/unicast losses are retransmitted immediately (deadline-checked);
  // multicast losses accumulate for the next coded-repair pass.
  void OnLossReport(const LossReport& report);

  const GroupSenderStats& stats() const { return stats_; }
  std::size_t retained_chunks() const { return store_.size(); }

  // Counter series (mcast.tx_*, mcast.deduped_chunk_reads) bound to
  // stats(), labeled {group}.
  void AttachObs(crobs::Hub* hub, const std::string& name);

 private:
  struct Member {
    SessionId session = kNoSession;
    GroupReceiver* receiver = nullptr;
    std::int64_t merge_chunk = 0;
    std::int64_t patch_cursor = 0;    // unicast bridge progress, [0, merge)
    std::int64_t unicast_cursor = 0;  // demoted-member progress
    bool unicast = false;             // demoted: served like a plain stream
    bool dead = false;                // session gone
    // The member session's frame-trace ring (nullptr when tracing is off).
    crobs::SessionTrace* trace = nullptr;
    // Multicast losses reported since the last repair pass.
    std::map<std::uint64_t, std::vector<int>> missing;
  };

  crsim::Task SenderThread(crrt::ThreadContext& ctx, const crmedia::ChunkIndex* index);
  // Fans one chunk out to every multicast-eligible member. Returns the
  // number of members it reached.
  std::size_t ShipMulticast(std::uint64_t seq, const cras::BufferedChunk& chunk,
                            crbase::Time sent_at);
  void SendUnicast(const Member& member, const crnet::NpsFragment& fragment);
  // Re-detects server-side state changes (demotions, closed sessions).
  void RefreshMember(Member& member, const crmedia::ChunkIndex* index);
  // Resends the fragments a bridge or demoted-member loss names.
  void RetransmitUnicast(Member& member, const crnet::NpsNak& loss);
  void RepairTick();
  void PruneStore();
  Member* FindMember(SessionId session);

  crrt::Kernel* kernel_;
  cras::CrasServer* server_;
  crnet::Link* link_;
  Options options_;
  GroupId group_ = kNoGroup;
  const crmedia::ChunkIndex* index_ = nullptr;
  std::uint64_t cursor_ = 0;  // next chunk the feed multicasts
  std::vector<Member> members_;
  // Multicast chunks retained for coded repair while inside the window.
  std::map<std::uint64_t, crnet::SentChunk> store_;
  std::set<std::uint64_t> skipped_;  // never sent; repair requests ignored
  GroupSenderStats stats_;
  crobs::Hub* hub_ = nullptr;
  crobs::Bindings bound_;
};

}  // namespace crmcast

#endif  // SRC_MCAST_GROUP_TRANSPORT_H_
