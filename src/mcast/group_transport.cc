#include "src/mcast/group_transport.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "src/base/logging.h"
#include "src/mcast/xor_codec.h"

namespace crmcast {

namespace {

// Receiver: the reassembly buffer, and the cadence of the loss-bitmap report
// thread (also the deadline sweep).
constexpr std::int64_t kReceiverBufferBytes = 4 << 20;
constexpr crbase::Duration kReportInterval = crbase::Milliseconds(25);
static_assert(kReportInterval > 0);
// A gap younger than this is assumed reordering, not loss.
constexpr crbase::Duration kReorderGrace = crbase::Milliseconds(10);
constexpr std::int64_t kReportBytes = 96;  // wire size of one loss report
constexpr crbase::Duration kJitterAllowance = crbase::Milliseconds(100);

// Sender: how far ahead of the feed's clock chunks ship, the CPU each costs,
// the thread's priority (below CRAS, above clients) and the cadence of its
// loop.
constexpr crbase::Duration kLookahead = crbase::Milliseconds(250);
constexpr crbase::Duration kCpuPerChunk = crbase::Microseconds(150);
constexpr int kSenderPriority = crrt::kPriorityServer - 1;
constexpr crbase::Duration kPoll = crbase::Milliseconds(5);
// Cadence of the coded-repair pass over accumulated loss reports.
constexpr crbase::Duration kRepairInterval = crbase::Milliseconds(30);
constexpr std::int64_t kRepairPacketOverhead = 96;  // header bytes atop the parity
// Cap on fragments XOR-ed into one parity packet.
constexpr std::size_t kMaxWindowEntries = 16;
static_assert(kMaxWindowEntries > 0);
// Extra linger after every member's clock has passed the final chunk's
// deadline, so reports and repairs already on the wire still land. The wait
// for the slowest member is clock-driven, not part of this linger.
constexpr crbase::Duration kDrain = crbase::Seconds(1);

}  // namespace

// ---------------------------------------------------------------------------
// GroupReceiver
// ---------------------------------------------------------------------------

GroupReceiver::GroupReceiver(crrt::Kernel& kernel, const crmedia::ChunkIndex* index)
    : ReliableReceiver(kernel, kReceiverBufferBytes, kJitterAllowance) {
  CRAS_CHECK(index != nullptr);
  index_ = index;
}

void GroupReceiver::set_merge_chunk(std::int64_t merge_chunk) {
  CRAS_CHECK(merge_chunk >= 0);
  merge_chunk_ = merge_chunk;
  mcast_expected_ = merge_chunk;
}

void GroupReceiver::ConnectReverse(crnet::Link& reverse, GroupSender& sender,
                                   SessionId member) {
  reverse_ = &reverse;
  sender_ = &sender;
  member_ = member;
}

crsim::Task GroupReceiver::Start() {
  return kernel_->Spawn("mcast-report", crrt::kPriorityClient,
                        [this](crrt::ThreadContext& ctx) { return ReportThread(ctx); });
}

void GroupReceiver::OnFragment(const crnet::NpsFragment& fragment) {
  if (!CountArrival(fragment)) {
    return;
  }
  // Gap detection runs against two independent cursors: the multicast
  // stream (chunks from the merge point up) and the unicast bridge (from 0
  // up to the merge point). Retransmitted/repaired fragments never move a
  // cursor — they fill holes, they don't reveal new ones.
  if (!fragment.retransmit) {
    std::int64_t& expected = fragment.multicast ? mcast_expected_ : unicast_expected_;
    for (; expected < fragment.chunk; ++expected) {
      OpenGap(expected);
    }
    expected = std::max(expected, fragment.chunk + 1);
  }
  Reassemble(fragment);
}

bool GroupReceiver::Holds(std::int64_t chunk, int frag_index) const {
  if (abandoned_.count(chunk) != 0) {
    return false;
  }
  if (IsDone(chunk)) {
    return true;  // completed: every fragment is on hand
  }
  auto it = pending_.find(chunk);
  return it != pending_.end() && it->second.have[static_cast<std::size_t>(frag_index)];
}

void GroupReceiver::OnRepair(const RepairPacket& packet) {
  // XOR decode: the parity recovers a window member iff exactly one is
  // absent here. Count the absences, remember the last one.
  const crnet::NpsFragment* missing = nullptr;
  int absent = 0;
  bool blocked = false;  // an absent member was abandoned: data gone for good
  for (const crnet::NpsFragment& ref : packet.window) {
    if (!Holds(ref.chunk, ref.frag_index)) {
      ++absent;
      missing = &ref;
      if (abandoned_.count(ref.chunk) != 0) {
        blocked = true;
      }
    }
  }
  if (absent == 0) {
    ++stats_.repair_useless;
    return;
  }
  if (absent > 1 || blocked) {
    ++stats_.repair_decode_failed;
    return;
  }
  // One absence — but only spend the decode if we actually want the data.
  const std::int64_t chunk = missing->chunk;
  const bool wanted = chunk >= merge_chunk_ && !IsDone(chunk);
  if (!wanted) {
    ++stats_.repair_useless;
    return;
  }
  ++stats_.repair_decodes;
  crnet::NpsFragment recovered = *missing;
  recovered.retransmit = true;
  recovered.multicast = true;
  OnFragment(recovered);
}

crsim::Task GroupReceiver::ReportThread(crrt::ThreadContext& ctx) {
  while (!stopped_) {
    co_await ctx.Sleep(kReportInterval);
    // Sweep: give up on anything playout has moved past.
    const crbase::Time logical = clock().Now();
    for (auto it = pending_.begin(); it != pending_.end();) {
      Reassembly& entry = it->second;
      ++it;  // Abandon erases; advance first
      if (logical > crnet::ChunkDeadline(entry.chunk)) {
        abandoned_.insert(entry.chunk.chunk_index);
        Abandon(entry);
      }
    }
    if (reverse_ == nullptr || sender_ == nullptr) {
      continue;
    }
    // Due sweep: arrival-driven gap detection cannot reveal a loss no
    // later packet follows — the tail of the unicast bridge, or the last
    // chunks of the movie. Walk the index once (monotone cursor) and open a
    // gap for any chunk whose playout time is imminent and still absent, so
    // it gets reported and, failing repair, swept at its deadline. The
    // jitter allowance of slack keeps an on-schedule stream from generating
    // phantom reports for chunks simply not sent yet.
    for (; due_swept_ < static_cast<std::int64_t>(index_->count()) &&
           index_->at(static_cast<std::size_t>(due_swept_)).timestamp <=
               logical + kJitterAllowance;
         ++due_swept_) {
      OpenGap(due_swept_);
    }
    // Bitmap report: every surviving gap older than the reordering grace,
    // in one packet, each entry stamped with this sweep's clock reading.
    LossReport report;
    report.member = member_;
    const crbase::Time now = kernel_->Now();
    for (const auto& [chunk, entry] : pending_) {
      if (now - entry.created_at > kReorderGrace) {
        report.entries.push_back(entry.Nak(logical));
      }
    }
    if (report.entries.empty()) {
      continue;
    }
    GroupSender* sender = sender_;
    reverse_->Send(kReportBytes,
                   [sender, report = std::move(report)] { sender->OnLossReport(report); });
  }
}

// ---------------------------------------------------------------------------
// GroupSender
// ---------------------------------------------------------------------------

GroupSender::GroupSender(crrt::Kernel& kernel, cras::CrasServer& server, crnet::Link& forward)
    : kernel_(&kernel), server_(&server), link_(&forward) {}

void GroupSender::AddMember(SessionId session, GroupReceiver& receiver) {
  Member member;
  member.session = session;
  member.receiver = &receiver;
  const crmcast::GroupManager* mgr = server_->mcast_groups();
  CRAS_CHECK(mgr != nullptr);
  member.merge_chunk = mgr->MergeChunkOf(session);
  receiver.set_merge_chunk(member.merge_chunk);
  // Frame identity rides the member session: both ends of this member's
  // delivery stamp the same trace ring.
  member.trace = server_->FrameTrace(session);
  receiver.set_frame_trace(member.trace);
  members_.push_back(std::move(member));
}

GroupSender::Member* GroupSender::FindMember(SessionId session) {
  for (Member& member : members_) {
    if (member.session == session) {
      return &member;
    }
  }
  return nullptr;
}

crsim::Task GroupSender::Start(GroupId group, const crmedia::ChunkIndex* index) {
  group_ = group;
  index_ = index;
  return kernel_->Spawn("mcast-sender", kSenderPriority,
                        [this, index](crrt::ThreadContext& ctx) {
                          return SenderThread(ctx, index);
                        });
}

std::size_t GroupSender::ShipMulticast(const cras::BufferedChunk& chunk, crbase::Time sent_at) {
  std::vector<Member*> targets;
  for (Member& member : members_) {
    if (!member.dead && !member.unicast && member.merge_chunk <= chunk.chunk_index) {
      targets.push_back(&member);
    }
  }
  const crnet::SentChunk sent{chunk, sent_at};
  crnet::Retain(store_, sent);

  for (int i = 0; i < sent.frag_count(); ++i) {
    crnet::NpsFragment fragment = sent.Fragment(i, /*retransmit=*/false);
    fragment.multicast = true;
    std::vector<std::function<void()>> delivers;
    delivers.reserve(targets.size());
    for (Member* target : targets) {
      GroupReceiver* receiver = target->receiver;
      delivers.push_back([receiver, fragment] { receiver->OnFragment(fragment); });
    }
    if (!delivers.empty()) {
      link_->Multicast(fragment.bytes, std::move(delivers));
    }
  }
  for (Member* target : targets) {
    if (target->trace != nullptr) {
      // Each member's frame enters the wire here; the fan-out itself is the
      // member's first traced stage (no per-member disk work exists).
      target->trace->StampAt(chunk.chunk_index, crobs::FrameStage::kSent, sent_at);
    }
  }
  ++stats_.chunks_multicast;
  // One disk read served every multicast target; each target beyond the
  // first is a read a unicast server would have issued.
  if (targets.size() > 1) {
    stats_.deduped_chunk_reads += static_cast<std::int64_t>(targets.size()) - 1;
  }
  return targets.size();
}

void GroupSender::SendUnicast(const Member& member, const crnet::NpsFragment& fragment) {
  GroupReceiver* receiver = member.receiver;
  link_->Send(fragment.bytes, [receiver, fragment] { receiver->OnFragment(fragment); });
}

void GroupSender::RefreshMember(Member& member, const crmedia::ChunkIndex* index) {
  if (member.dead) {
    return;
  }
  if (!server_->HasSession(member.session)) {
    member.dead = true;
    return;
  }
  if (member.unicast) {
    return;
  }
  const crmcast::GroupManager* mgr = server_->mcast_groups();
  if (mgr != nullptr && mgr->GroupOf(member.session) == kNoGroup) {
    // The server demoted this member behind our back (bridge cache miss,
    // seek, shed settle). Pick up the unicast walk from its play point.
    member.unicast = true;
    std::int64_t at = index->FindByTime(server_->LogicalNow(member.session));
    if (at < 0) {
      at = 0;
    }
    member.unicast_cursor = std::max(member.unicast_cursor, at);
    member.missing.clear();
  }
}

void GroupSender::RetransmitUnicast(Member& member, const crnet::NpsNak& loss) {
  if (loss.chunk < 0 || loss.chunk >= static_cast<std::int64_t>(index_->count())) {
    return;
  }
  const crmedia::Chunk& chunk = index_->at(static_cast<std::size_t>(loss.chunk));
  if (loss.viewer_now > crnet::ChunkDeadline(chunk)) {
    ++stats_.retransmits_abandoned;
    return;
  }
  // Re-fetch from the member's own session buffer — bridge chunks are
  // cache-served there and stay resident within the jitter allowance.
  std::optional<cras::BufferedChunk> buffered =
      server_->Get(member.session, chunk.timestamp);
  if (!buffered.has_value()) {
    auto it = store_.find(loss.chunk);
    if (it == store_.end()) {
      ++stats_.retransmits_abandoned;
      return;
    }
    buffered = it->second.chunk;
  }
  const crnet::SentChunk sent{*buffered, kernel_->Now()};
  sent.ForEachMissing(loss.missing, [&](int index) {
    SendUnicast(member, sent.Fragment(index, /*retransmit=*/true));
    ++stats_.fragments_retransmitted;
  });
}

void GroupSender::OnLossReport(const LossReport& report) {
  Member* member = FindMember(report.member);
  if (member == nullptr || member->dead) {
    return;
  }
  RefreshMember(*member, index_);
  if (member->dead) {
    return;
  }
  for (const crnet::NpsNak& entry : report.entries) {
    if (skipped_.count(entry.chunk) != 0) {
      continue;  // never sent: the server-side skip is already accounted
    }
    if (member->unicast || entry.chunk < member->merge_chunk) {
      RetransmitUnicast(*member, entry);
    } else {
      member->missing[entry.chunk] = entry;
    }
  }
}

void GroupSender::RepairTick() {
  // Expand each member's reported multicast losses into concrete
  // (chunk, frag) needs. A loss the member's reported clock reading had
  // already passed is dropped; one still of use to it that has left the
  // repair window demotes the member to unicast — it fell behind the group,
  // not behind its deadline.
  struct Need {
    std::int64_t chunk = 0;
    int frag_index = 0;
    std::vector<std::size_t> needers;  // indices into members_
  };
  std::map<std::pair<std::int64_t, int>, std::vector<std::size_t>> needs;
  for (std::size_t mi = 0; mi < members_.size(); ++mi) {
    Member& member = members_[mi];
    if (member.dead || member.unicast) {
      member.missing.clear();
      continue;
    }
    for (const auto& [chunk, loss] : member.missing) {
      if (chunk < 0 || chunk >= static_cast<std::int64_t>(index_->count()) ||
          loss.viewer_now > crnet::ChunkDeadline(index_->at(static_cast<std::size_t>(chunk)))) {
        continue;  // past the member's deadline: nothing to repair
      }
      auto it = store_.find(chunk);
      if (it != store_.end()) {
        it->second.ForEachMissing(loss.missing,
                                  [&](int frag) { needs[{chunk, frag}].push_back(mi); });
        continue;
      }
      if (server_->DemoteGroupMember(member.session, "behind_window")) {
        member.unicast = true;
        member.unicast_cursor = std::max(member.unicast_cursor, chunk);
        ++stats_.members_demoted;
      } else {
        member.dead = !server_->HasSession(member.session);
      }
      break;  // member left the multicast path; drop its needs
    }
    member.missing.clear();
  }
  if (needs.empty()) {
    return;
  }
  // A member that flipped to unicast mid-expansion may have stale needs
  // recorded; filter them out.
  std::vector<Need> need_list;
  for (auto& [key, needers] : needs) {
    Need need;
    need.chunk = key.first;
    need.frag_index = key.second;
    for (std::size_t mi : needers) {
      if (!members_[mi].dead && !members_[mi].unicast) {
        need.needers.push_back(mi);
      }
    }
    if (!need.needers.empty()) {
      need_list.push_back(std::move(need));
    }
  }

  // Greedy window packing: a fragment joins the open window unless some
  // receiver would then be missing two window members (its own need plus
  // this one) — each receiver must hold all-but-one to decode.
  std::vector<GroupReceiver*> targets;
  for (Member& member : members_) {
    if (!member.dead && !member.unicast) {
      targets.push_back(member.receiver);
    }
  }
  if (targets.empty()) {
    return;
  }
  std::vector<const Need*> window;
  std::set<std::size_t> window_needers;
  auto flush = [&] {
    if (window.empty()) {
      return;
    }
    RepairPacket packet;
    std::vector<std::int64_t> sizes;
    for (const Need* need : window) {
      packet.window.push_back(
          store_.at(need->chunk).Fragment(need->frag_index, /*retransmit=*/false));
      sizes.push_back(packet.window.back().bytes);
    }
    packet.bytes = XorParityBytes(sizes) + kRepairPacketOverhead;
    std::vector<std::function<void()>> delivers;
    delivers.reserve(targets.size());
    for (GroupReceiver* receiver : targets) {
      delivers.push_back([receiver, packet] { receiver->OnRepair(packet); });
    }
    link_->Multicast(packet.bytes, std::move(delivers));
    ++stats_.repair_packets;
    stats_.repair_bytes += packet.bytes;
    if (hub_ != nullptr) {
      hub_->flight().Record(crobs::FlightEventKind::kRepairSent, group_,
                            static_cast<std::int64_t>(packet.window.size()), packet.bytes, "");
    }
    window.clear();
    window_needers.clear();
  };
  for (const Need& need : need_list) {
    bool conflict = window.size() >= kMaxWindowEntries;
    if (!conflict) {
      for (std::size_t mi : need.needers) {
        if (window_needers.count(mi) != 0) {
          conflict = true;
          break;
        }
      }
    }
    if (conflict) {
      flush();
    }
    window.push_back(&need);
    window_needers.insert(need.needers.begin(), need.needers.end());
  }
  flush();
}

crsim::Task GroupSender::SenderThread(crrt::ThreadContext& ctx,
                                      const crmedia::ChunkIndex* index) {
  const GroupManager* mgr = server_->mcast_groups();
  CRAS_CHECK(mgr != nullptr);
  const auto count = static_cast<std::int64_t>(index->count());
  crbase::Time last_repair = ctx.Now();
  crbase::Time drain_until = 0;
  for (;;) {
    // Phase 1: multicast everything due from the feed's shared buffer.
    while (mgr->Alive(group_) && cursor_ < count) {
      const SessionId feed = mgr->FeedOf(group_);
      if (!server_->HasSession(feed)) {
        break;
      }
      const crmedia::Chunk& chunk = index->at(static_cast<std::size_t>(cursor_));
      if (server_->LogicalNow(feed) < chunk.timestamp - kLookahead) {
        break;
      }
      std::optional<cras::BufferedChunk> buffered = server_->Get(feed, chunk.timestamp);
      if (!buffered.has_value()) {
        if (server_->LogicalNow(feed) > crnet::ChunkDeadline(chunk)) {
          skipped_.insert(cursor_);
          ++stats_.chunks_skipped;
          if (crobs::SessionTrace* feed_trace = server_->FrameTrace(feed)) {
            feed_trace->Miss(cursor_, crobs::FrameStage::kSent);
          }
          // Members never see this chunk on the feed; their own deadline
          // sweeps resolve the per-member misses.
          ++cursor_;
          server_->mcast_groups()->NoteShipCursor(group_, cursor_);
          continue;
        }
        break;  // not filled yet; retry next poll
      }
      co_await ctx.Compute(kCpuPerChunk);
      ShipMulticast(*buffered, ctx.Now());
      if (crobs::SessionTrace* feed_trace = server_->FrameTrace(feed)) {
        // The feed session's own frame ends its life at the fan-out: it is
        // "delivered" to the group, not played out locally.
        feed_trace->ResolveDelivered(buffered->chunk_index);
      }
      ++cursor_;
      server_->mcast_groups()->NoteShipCursor(group_, cursor_);
    }

    // Phase 2: unicast walks — bridge patches below each merge point, and
    // full streams for demoted members. Index loop: AddMember may grow the
    // vector across suspension points.
    for (std::size_t mi = 0; mi < members_.size(); ++mi) {
      RefreshMember(members_[mi], index);
      for (;;) {
        Member& member = members_[mi];
        if (member.dead) {
          break;
        }
        const std::int64_t limit = member.unicast ? count : member.merge_chunk;
        const std::int64_t cur = member.unicast ? member.unicast_cursor : member.patch_cursor;
        if (cur >= limit) {
          break;
        }
        const crmedia::Chunk& chunk = index->at(static_cast<std::size_t>(cur));
        if (server_->LogicalNow(member.session) < chunk.timestamp - kLookahead) {
          break;
        }
        std::optional<cras::BufferedChunk> buffered =
            server_->Get(member.session, chunk.timestamp);
        if (!buffered.has_value()) {
          if (server_->LogicalNow(member.session) > crnet::ChunkDeadline(chunk)) {
            ++stats_.chunks_skipped;
            if (member.trace != nullptr) {
              member.trace->Miss(cur, crobs::FrameStage::kSent);
            }
            (member.unicast ? member.unicast_cursor : member.patch_cursor) = cur + 1;
            continue;
          }
          break;
        }
        co_await ctx.Compute(kCpuPerChunk);
        {
          Member& fresh = members_[mi];  // re-take: vector may have moved
          const crnet::SentChunk sent{*buffered, ctx.Now()};
          for (int i = 0; i < sent.frag_count(); ++i) {
            SendUnicast(fresh, sent.Fragment(i, /*retransmit=*/false));
          }
          if (fresh.trace != nullptr) {
            // Bridge/unicast chunks come from the member's own CRAS session,
            // which already set the path (cache or disk); only the send is
            // new here.
            fresh.trace->StampAt(buffered->chunk_index, crobs::FrameStage::kSent, sent.sent_at);
          }
          (fresh.unicast ? fresh.unicast_cursor : fresh.patch_cursor) = cur + 1;
          if (fresh.unicast) {
            ++stats_.unicast_chunks;
          } else {
            ++stats_.patch_chunks;
          }
        }
      }
    }

    // Phase 3: coded repair over the accumulated loss bitmaps.
    if (ctx.Now() - last_repair >= kRepairInterval) {
      RepairTick();
      last_repair = ctx.Now();
    }

    // Exit: all shipping done, then a short drain so in-flight reports can
    // still be repaired.
    bool shipping_done = !mgr->Alive(group_) || cursor_ >= count;
    if (shipping_done) {
      for (const Member& member : members_) {
        if (member.dead) {
          continue;
        }
        const std::int64_t limit = member.unicast ? count : member.merge_chunk;
        const std::int64_t cur = member.unicast ? member.unicast_cursor : member.patch_cursor;
        if (cur < limit) {
          shipping_done = false;
          break;
        }
      }
    }
    // A member's reveal of a tail loss happens on its own playout clock,
    // which trails the feed by its join offset — a fixed post-ship linger
    // cannot cover a late joiner. Hold the drain countdown until every
    // live member's clock is past the final chunk's deadline.
    if (shipping_done && count > 0) {
      const crbase::Time last_deadline =
          crnet::ChunkDeadline(index->at(static_cast<std::size_t>(count - 1)));
      for (const Member& member : members_) {
        if (member.dead || !server_->HasSession(member.session)) {
          continue;
        }
        if (server_->LogicalNow(member.session) <= last_deadline) {
          shipping_done = false;
          break;
        }
      }
    }
    if (shipping_done) {
      if (drain_until == 0) {
        drain_until = ctx.Now() + kLookahead + kDrain;
      } else if (ctx.Now() >= drain_until) {
        break;
      }
    } else {
      drain_until = 0;
    }
    co_await ctx.Sleep(kPoll);
  }
}

void GroupSender::AttachObs(crobs::Hub* hub, const std::string& name) {
  bound_.Release();
  hub_ = hub;
  if (hub == nullptr) {
    return;
  }
  crobs::Registry& metrics = hub->metrics();
  const crobs::Labels labels = {{"group", name}};
  bound_.Counter(metrics, "mcast.tx_chunks", labels, stats_.chunks_multicast);
  bound_.Counter(metrics, "mcast.tx_repair_packets", labels, stats_.repair_packets);
  bound_.Counter(metrics, "mcast.tx_repair_bytes", labels, stats_.repair_bytes);
  bound_.Counter(metrics, "mcast.deduped_chunk_reads", labels, stats_.deduped_chunk_reads);
}

}  // namespace crmcast
