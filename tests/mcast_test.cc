// Multicast delivery groups: XOR parity packet sizing, group
// bookkeeping, coded repair fixing different losses at different receivers
// with one packet, the late-joiner bridge from the pinned prefix and its
// per-fragment retransmits, the boundary-chunk deadline rule, repair judged
// on the clock reading a loss report carries, and the demote-to-unicast
// path for a receiver that falls past the repair window.
// The degradation invariant mirrors the cache's: a member the group can no
// longer carry is demoted to unicast disk service and re-settled — never
// silently missed.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/cras.h"
#include "src/core/testbed.h"
#include "src/fault/fault.h"
#include "src/mcast/group_manager.h"
#include "src/mcast/group_transport.h"
#include "src/mcast/xor_codec.h"
#include "src/media/media_file.h"
#include "src/net/link.h"
#include "src/net/nps.h"

namespace crmcast {
namespace {

using crbase::Milliseconds;
using crbase::Seconds;

// ---------------------------------------------------------------------------
// Unit: XOR parity codec.

TEST(XorCodec, ParityBytesIsTheLongestFragment) {
  EXPECT_EQ(XorParityBytes({100, 8192, 512}), 8192);
  EXPECT_EQ(XorParityBytes({64}), 64);
  EXPECT_EQ(XorParityBytes({}), 0);
}

// ---------------------------------------------------------------------------
// Unit: group membership bookkeeping and join placement.

TEST(GroupManager, PlanJoinBatchesBeforeShippingAndBridgesAfter) {
  GroupManager mgr;

  // No group yet: the caller must found one.
  EXPECT_FALSE(mgr.PlanJoin(/*title=*/7, /*prefix_end_chunk=*/0).joined);

  const GroupId group = mgr.CreateGroup(7, /*feed=*/100);
  mgr.AddMember(group, 1, 0);
  EXPECT_EQ(mgr.GroupOf(1), group);
  EXPECT_TRUE(mgr.IsFeed(100));
  EXPECT_EQ(mgr.FeedOf(group), 100);

  // Feed has not shipped: anyone batches in at merge 0, no prefix needed.
  JoinPlan plan = mgr.PlanJoin(7, 0);
  EXPECT_TRUE(plan.joined);
  EXPECT_EQ(plan.group, group);
  EXPECT_EQ(plan.merge_chunk, 0);

  // Rolling feed: the merge point is cursor + margin, and joining needs the
  // pinned prefix to cover the bridge.
  mgr.NoteShipCursor(group, 10);
  const std::int64_t merge = 10 + kMergeMarginChunks;
  EXPECT_FALSE(mgr.PlanJoin(7, /*prefix_end_chunk=*/5).joined)
      << "prefix too short to bridge to chunk " << merge;
  plan = mgr.PlanJoin(7, /*prefix_end_chunk=*/40);
  EXPECT_TRUE(plan.joined);
  EXPECT_EQ(plan.merge_chunk, merge);

  // Another title never matches.
  EXPECT_FALSE(mgr.PlanJoin(8, 40).joined);

  // Departures: the last member out hands the feed back.
  mgr.AddMember(group, 2, merge);
  EXPECT_EQ(mgr.RemoveMember(1, "close"), kNoSession);
  EXPECT_EQ(mgr.RemoveMember(2, "close"), 100);
  EXPECT_FALSE(mgr.Alive(group));
  EXPECT_EQ(mgr.stats().groups_formed, 1);
  EXPECT_EQ(mgr.stats().members_left, 2);
}

// ---------------------------------------------------------------------------
// Unit: the shared deadline rule, exactly at the boundary chunk.
//
// Regression: the NAK give-up check, the receiver drop rule, and grouped
// repair once disagreed about a chunk whose playout clock sits exactly on
// timestamp + duration. The shared crnet::ChunkDeadline helper makes the
// rule single-sourced: still repairable AT the deadline, dead strictly past
// it.

TEST(ChunkDeadline, BufferedAndIndexChunksAgree) {
  cras::BufferedChunk buffered;
  buffered.timestamp = Seconds(3);
  buffered.duration = Milliseconds(250);
  crmedia::Chunk indexed;
  indexed.timestamp = Seconds(3);
  indexed.duration = Milliseconds(250);
  EXPECT_EQ(crnet::ChunkDeadline(buffered), Seconds(3) + Milliseconds(250));
  EXPECT_EQ(crnet::ChunkDeadline(buffered), crnet::ChunkDeadline(indexed));
}

TEST(ChunkDeadline, ReceiverKeepsTheBoundaryChunkRepairable) {
  cras::VolumeTestbed bed;  // engine + kernel; no servers needed
  // A 25 KB MPEG2 chunk travels as four crnet::kMaxPacketBytes fragments.
  const auto movie = *crmedia::WriteMpeg2File(bed.fs, "m", Seconds(4));
  GroupReceiver receiver(bed.kernel, &movie.index);
  crsim::Task reporter = receiver.Start();

  // A partial chunk 0 is pending; pin the (stopped) logical clock exactly
  // on its playout deadline. The sweep must NOT abandon it.
  crnet::NpsFragment fragment{0, 0};
  fragment.multicast = true;
  receiver.OnFragment(fragment);
  ASSERT_EQ(receiver.incomplete_chunks(), 1u);

  receiver.clock().SeekTo(crnet::ChunkDeadline(movie.index.at(0)));
  bed.engine().RunFor(Milliseconds(100));
  EXPECT_EQ(receiver.stats().chunks_abandoned, 0)
      << "a chunk is still repairable exactly at its deadline";
  EXPECT_EQ(receiver.incomplete_chunks(), 1u);

  // One tick past the deadline: dead everywhere.
  receiver.clock().SeekTo(crnet::ChunkDeadline(movie.index.at(0)) + 1);
  bed.engine().RunFor(Milliseconds(100));
  EXPECT_EQ(receiver.stats().chunks_abandoned, 1);
  EXPECT_EQ(receiver.incomplete_chunks(), 0u);
  receiver.Stop();
  bed.engine().RunFor(Milliseconds(100));
}

// ---------------------------------------------------------------------------
// Unit: one parity packet fixes a different loss at each receiver.

TEST(GroupTransport, OneRepairPacketFixesDifferentLossesAtTwoReceivers) {
  cras::VolumeTestbed bed;
  // Four fragments per chunk, as above.
  const auto movie = *crmedia::WriteMpeg2File(bed.fs, "m", Seconds(4));
  GroupReceiver r1(bed.kernel, &movie.index);
  GroupReceiver r2(bed.kernel, &movie.index);

  // Delivers every multicast fragment of `chunk` but `lost` to `receiver`.
  auto deliver = [&](GroupReceiver& receiver, std::int64_t chunk, int lost) {
    const int count = crnet::FragmentCount(movie.index.at(static_cast<std::size_t>(chunk)).size);
    for (int frag = 0; frag < count; ++frag) {
      crnet::NpsFragment f{chunk, frag};
      f.multicast = true;
      if (frag != lost) {
        receiver.OnFragment(f);
      }
    }
  };
  // r1 misses (0,1) but holds chunk 1 complete; r2 holds chunk 0 complete
  // and misses (1,1).
  deliver(r1, 0, /*lost=*/1);
  deliver(r1, 1, /*lost=*/-1);
  deliver(r2, 0, /*lost=*/-1);
  deliver(r2, 1, /*lost=*/1);
  ASSERT_EQ(r1.stats().chunks_received, 1);
  ASSERT_EQ(r2.stats().chunks_received, 1);

  RepairPacket packet;
  for (std::int64_t chunk : {0, 1}) {
    packet.window.push_back(crnet::NpsFragment{chunk, 1});
  }
  packet.bytes = crnet::kMaxPacketBytes + 96;
  r1.OnRepair(packet);
  r2.OnRepair(packet);

  EXPECT_EQ(r1.stats().repair_decodes, 1);
  EXPECT_EQ(r2.stats().repair_decodes, 1);
  EXPECT_EQ(r1.stats().chunks_received, 2) << "parity completed chunk 0 at r1";
  EXPECT_EQ(r2.stats().chunks_received, 2) << "parity completed chunk 1 at r2";
  EXPECT_EQ(r1.stats().repair_decode_failed, 0);
  EXPECT_EQ(r2.stats().repair_decode_failed, 0);

  // A second copy of the same parity is useless now: nothing is absent.
  r1.OnRepair(packet);
  EXPECT_EQ(r1.stats().repair_useless, 1);
}

// ---------------------------------------------------------------------------
// Integration rig: grouped viewers over a shared forward link.

struct Viewer {
  cras::SessionId session = cras::kInvalidSession;
  std::unique_ptr<GroupReceiver> receiver;
  std::unique_ptr<crnet::Link> reverse;
  std::int64_t frames_ok = 0;
  std::int64_t frames_missed = 0;
};

cras::VolumeTestbedOptions GroupedRigOptions() {
  cras::VolumeTestbedOptions options;
  options.cras.mcast.enabled = true;
  options.cras.cache.enabled = true;
  options.cras.cache.pin_min_score = 0.5;  // first open pins the prefix
  options.cras.cache.prefix_length = Seconds(20);
  options.cras.memory_budget_bytes = 64 * crbase::kMiB;
  return options;
}

// Opens a grouped viewer, wires its receiver to the sender, and spawns a
// player that consumes every chunk by logical time.
void SpawnViewer(cras::VolumeTestbed& bed, GroupSender& sender, crnet::Link& forward,
                 const crmedia::MediaFile& movie, crbase::Duration open_at,
                 crbase::Duration extra_delay, Viewer* viewer, std::vector<crsim::Task>* tasks) {
  (void)forward;
  viewer->receiver = std::make_unique<GroupReceiver>(bed.kernel, &movie.index);
  viewer->reverse = std::make_unique<crnet::Link>(bed.engine());
  tasks->push_back(bed.kernel.Spawn(
      "viewer", crrt::kPriorityClient, [&, open_at, extra_delay, viewer, tasks](
                                           crrt::ThreadContext& ctx) -> crsim::Task {
        co_await ctx.Sleep(open_at);
        cras::OpenParams params;
        params.inode = movie.inode;
        params.index = movie.index;
        params.grouped = true;
        auto opened = co_await bed.cras_server.Open(std::move(params));
        CRAS_CHECK(opened.ok()) << opened.status().ToString();
        viewer->session = *opened;
        sender.AddMember(viewer->session, *viewer->receiver);
        viewer->receiver->ConnectReverse(*viewer->reverse, sender, viewer->session);
        tasks->push_back(viewer->receiver->Start());
        const crbase::Duration delay =
            bed.cras_server.SuggestedInitialDelay() + extra_delay;
        (void)co_await bed.cras_server.StartStream(viewer->session, delay);
        // The playout clock trails the session clock by a little slack, so
        // an interval-boundary chunk published exactly at its timestamp
        // still crosses the wire in time (the standard remote-client lag).
        const crbase::Duration playout = delay + Milliseconds(200);
        viewer->receiver->clock().Start(playout);
        co_await ctx.Sleep(playout);
        for (const crmedia::Chunk& chunk : movie.index.chunks()) {
          while (viewer->receiver->clock().Now() < chunk.timestamp) {
            co_await ctx.Sleep(Milliseconds(2));
          }
          if (viewer->receiver->Get(chunk.timestamp).has_value()) {
            ++viewer->frames_ok;
          } else {
            ++viewer->frames_missed;
          }
        }
        viewer->receiver->Stop();
      }));
}

TEST(McastIntegration, LateJoinerBridgesFromPrefixThenMerges) {
  cras::VolumeTestbed bed(GroupedRigOptions());
  bed.StartServers();
  const auto movie = *crmedia::WriteMpeg1File(bed.fs, "hot", Seconds(12));
  crnet::Link::Options forward_options;
  forward_options.bandwidth_bytes_per_sec = 12.5e6;  // fast LAN, kept clean
  crnet::Link forward(bed.engine(), forward_options);
  GroupSender sender(bed.kernel, bed.cras_server, forward);
  sender.AttachObs(&bed.hub, "g1");

  Viewer a, b;
  std::vector<crsim::Task> tasks;
  SpawnViewer(bed, sender, forward, movie, /*open_at=*/0, /*extra_delay=*/0, &a, &tasks);
  SpawnViewer(bed, sender, forward, movie, /*open_at=*/Seconds(2), /*extra_delay=*/0, &b,
              &tasks);
  // Let A's open land, then start the group's transmitter.
  bed.engine().RunFor(Milliseconds(100));
  ASSERT_NE(a.session, cras::kInvalidSession);
  GroupManager* mgr = bed.cras_server.mcast_groups();
  ASSERT_NE(mgr, nullptr);
  const GroupId group = mgr->GroupOf(a.session);
  ASSERT_NE(group, kNoGroup);
  tasks.push_back(sender.Start(group, &movie.index));
  // The sender retains its last crnet::kRepairWindowChunks multicast chunks
  // and never more, however long the feed runs.
  std::size_t most_retained = 0;
  for (int step = 0; step < 200; ++step) {
    bed.engine().RunFor(Milliseconds(100));
    most_retained = std::max(most_retained, sender.retained_chunks());
  }
  EXPECT_EQ(most_retained, static_cast<std::size_t>(crnet::kRepairWindowChunks));

  // B joined A's group as a late joiner with a real bridge.
  ASSERT_NE(b.session, cras::kInvalidSession);
  EXPECT_GT(sender.stats().patch_chunks, 0) << "the bridge was served unicast";
  EXPECT_GT(sender.stats().deduped_chunk_reads, 0) << "the fan-out shared disk reads";
  EXPECT_GT(sender.stats().chunks_multicast, 0);

  // Both viewers complete with nothing missed, nothing shed.
  EXPECT_EQ(a.frames_missed, 0);
  EXPECT_EQ(b.frames_missed, 0);
  EXPECT_EQ(a.frames_ok + a.frames_missed,
            static_cast<std::int64_t>(movie.index.count()));
  EXPECT_EQ(b.frames_ok + b.frames_missed,
            static_cast<std::int64_t>(movie.index.count()));
  EXPECT_EQ(bed.cras_server.stats().streams_shed, 0);
  EXPECT_EQ(bed.cras_server.stats().deadline_misses, 0);

  // Flight events and prefix-filtered metrics tell the story.
  bool saw_formed = false;
  bool saw_joined = false;
  std::int64_t late_merge = 0;
  for (const crobs::FlightEvent& event : bed.hub.flight().events()) {
    saw_formed |= event.kind == crobs::FlightEventKind::kGroupFormed;
    if (event.kind == crobs::FlightEventKind::kGroupJoined) {
      saw_joined = true;
      late_merge = std::max<std::int64_t>(late_merge, event.value);
    }
  }
  EXPECT_TRUE(saw_formed);
  EXPECT_TRUE(saw_joined);
  EXPECT_GT(late_merge, 0) << "the late joiner's merge point is past the start";
  const std::string mcast_metrics = bed.hub.MetricsJson("mcast.");
  EXPECT_NE(mcast_metrics.find("mcast.tx_chunks"), std::string::npos);
  EXPECT_NE(mcast_metrics.find("mcast.deduped_chunk_reads"), std::string::npos);
  EXPECT_EQ(mcast_metrics.find("link."), std::string::npos)
      << "prefix filtering leaked foreign metrics";
}

// ---------------------------------------------------------------------------
// Integration: a bridge retransmit resends the fragments a report names.

TEST(McastIntegration, BridgeRetransmitResendsOnlyTheNamedFragment) {
  cras::VolumeTestbed bed(GroupedRigOptions());
  bed.StartServers();
  // A 25 KB MPEG2 chunk travels as four crnet::kMaxPacketBytes fragments.
  const auto movie = *crmedia::WriteMpeg2File(bed.fs, "hot", Seconds(12));
  crnet::Link::Options forward_options;
  forward_options.bandwidth_bytes_per_sec = 12.5e6;
  crnet::Link forward(bed.engine(), forward_options);
  GroupSender sender(bed.kernel, bed.cras_server, forward);

  Viewer a, b;
  std::vector<crsim::Task> tasks;
  SpawnViewer(bed, sender, forward, movie, /*open_at=*/0, /*extra_delay=*/0, &a, &tasks);
  SpawnViewer(bed, sender, forward, movie, /*open_at=*/Seconds(2), /*extra_delay=*/0, &b,
              &tasks);
  bed.engine().RunFor(Milliseconds(100));
  GroupManager* mgr = bed.cras_server.mcast_groups();
  const GroupId group = mgr->GroupOf(a.session);
  tasks.push_back(sender.Start(group, &movie.index));

  // B joined late and now plays a chunk of its bridge, below its merge
  // point and still resident in its own session buffer.
  bed.engine().RunFor(Seconds(3));
  ASSERT_NE(b.session, cras::kInvalidSession);
  const std::int64_t playing = movie.index.FindByTime(bed.cras_server.LogicalNow(b.session));
  ASSERT_GE(playing, 2);
  ASSERT_LT(playing, mgr->MergeChunkOf(b.session));
  ASSERT_GT(movie.index.at(static_cast<std::size_t>(playing)).size, 3 * crnet::kMaxPacketBytes);

  // B reports fragment 1 of that chunk missing: exactly that fragment goes
  // back on the wire, and the counter counts fragments, not chunks.
  const crbase::Time viewer_now = b.receiver->clock().Now();
  const std::int64_t retransmitted = sender.stats().fragments_retransmitted;
  const std::int64_t unicast_packets = forward.stats().packets_sent;
  auto report_loss = [&](std::int64_t chunk, crbase::Time reading) {
    LossReport report;
    report.member = b.session;
    report.entries.push_back(crnet::NpsNak{chunk, {1}, reading});
    sender.OnLossReport(report);
  };
  report_loss(playing, viewer_now);
  EXPECT_EQ(sender.stats().fragments_retransmitted - retransmitted, 1);
  EXPECT_EQ(forward.stats().packets_sent - unicast_packets, 1);
  EXPECT_EQ(sender.stats().retransmits_abandoned, 0);

  // The sender judges by the report's reading of B's clock alone. A chunk
  // the session clock has already passed is resent while the reading is
  // before its deadline...
  const crmedia::Chunk& behind = movie.index.at(static_cast<std::size_t>(playing - 2));
  ASSERT_LT(crnet::ChunkDeadline(behind), bed.cras_server.LogicalNow(b.session));
  ASSERT_LE(viewer_now, crnet::ChunkDeadline(behind));
  report_loss(playing - 2, viewer_now);
  EXPECT_EQ(sender.stats().fragments_retransmitted - retransmitted, 2);
  EXPECT_EQ(sender.stats().retransmits_abandoned, 0);
  // ...and a chunk the session clock has not passed is refused once the
  // reading is past its deadline.
  const crbase::Time deadline =
      crnet::ChunkDeadline(movie.index.at(static_cast<std::size_t>(playing)));
  ASSERT_LE(bed.cras_server.LogicalNow(b.session), deadline);
  report_loss(playing, deadline + 1);
  EXPECT_EQ(sender.stats().fragments_retransmitted - retransmitted, 2);
  EXPECT_EQ(forward.stats().packets_sent - unicast_packets, 2);
  EXPECT_EQ(sender.stats().retransmits_abandoned, 1);

  bed.engine().RunFor(Seconds(16));
  EXPECT_EQ(a.frames_missed, 0);
  EXPECT_EQ(b.frames_missed, 0);
}

// ---------------------------------------------------------------------------
// Integration: a receiver past the repair window demotes to unicast.

TEST(McastIntegration, ReceiverPastRepairWindowDemotesAndResettles) {
  cras::VolumeTestbed bed(GroupedRigOptions());
  bed.StartServers();
  const auto movie = *crmedia::WriteMpeg1File(bed.fs, "hot", Seconds(10));
  crnet::Link::Options forward_options;
  forward_options.bandwidth_bytes_per_sec = 12.5e6;
  crnet::Link forward(bed.engine(), forward_options);
  GroupSender sender(bed.kernel, bed.cras_server, forward);

  // A starts promptly; B joins the same (not yet shipping) group but delays
  // its playout by several seconds, so its clock trails the feed far beyond
  // the repair window.
  Viewer a, b;
  std::vector<crsim::Task> tasks;
  SpawnViewer(bed, sender, forward, movie, /*open_at=*/0, /*extra_delay=*/0, &a, &tasks);
  SpawnViewer(bed, sender, forward, movie, /*open_at=*/Milliseconds(20),
              /*extra_delay=*/Seconds(5), &b, &tasks);
  bed.engine().RunFor(Milliseconds(100));
  ASSERT_NE(a.session, cras::kInvalidSession);
  ASSERT_NE(b.session, cras::kInvalidSession);
  GroupManager* mgr = bed.cras_server.mcast_groups();
  const GroupId group = mgr->GroupOf(a.session);
  ASSERT_EQ(mgr->GroupOf(b.session), group) << "B batched into A's group";
  tasks.push_back(sender.Start(group, &movie.index));

  // Run until the feed has multicast well past the window, then claim B
  // lost chunk 0. It aged out of the window long ago. Read past its
  // deadline, the loss is of no use to B and changes nothing; read on B's
  // own clock, it is still repairable: that is the fell-behind signal.
  bed.engine().RunFor(Seconds(4));
  ASSERT_GT(sender.stats().chunks_multicast, crnet::kRepairWindowChunks);
  LossReport report;
  report.member = b.session;
  report.entries.push_back(crnet::NpsNak{0, {0}, crnet::ChunkDeadline(movie.index.at(0)) + 1});
  sender.OnLossReport(report);
  bed.engine().RunFor(Milliseconds(100));
  EXPECT_EQ(sender.stats().members_demoted, 0);
  EXPECT_EQ(mgr->GroupOf(b.session), group);
  report.entries.front().viewer_now = b.receiver->clock().Now();
  sender.OnLossReport(report);
  bed.engine().RunFor(Seconds(14));

  EXPECT_EQ(sender.stats().members_demoted, 1);
  EXPECT_EQ(mgr->GroupOf(b.session), kNoGroup) << "B left the group";
  EXPECT_GT(sender.stats().unicast_chunks, 0) << "B was carried unicast after the demote";
  bool saw_demote = false;
  for (const crobs::FlightEvent& event : bed.hub.flight().events()) {
    if (event.kind == crobs::FlightEventKind::kGroupLeft &&
        event.detail == "behind_window") {
      saw_demote = true;
    }
  }
  EXPECT_TRUE(saw_demote);
  // Never a silent miss: B still completes every frame, via disk + unicast.
  EXPECT_EQ(b.frames_missed, 0);
  EXPECT_EQ(b.frames_ok, static_cast<std::int64_t>(movie.index.count()));
  EXPECT_EQ(a.frames_missed, 0);
  EXPECT_EQ(bed.cras_server.stats().deadline_misses, 0);
}

// ---------------------------------------------------------------------------
// Chaos overlap: the other member crashes while a demote is re-settling.

TEST(McastIntegration, ClientCrashDuringDemoteResettleConservesMembership) {
  // B falls behind the repair window and is demoted to unicast; while that
  // re-settle is still fresh, A — the group's only other member — crashes
  // abruptly (no Close, heartbeats just stop). The lease reaper must
  // collect A, the group must dissolve with joins == leaves, and B must
  // still complete every frame via unicast disk service.
  cras::VolumeTestbedOptions options = GroupedRigOptions();
  options.cras.lease_period = Milliseconds(300);
  cras::VolumeTestbed bed(options);
  bed.StartServers();
  const auto movie = *crmedia::WriteMpeg1File(bed.fs, "hot", Seconds(10));
  crnet::Link::Options forward_options;
  forward_options.bandwidth_bytes_per_sec = 12.5e6;
  crnet::Link forward(bed.engine(), forward_options);
  GroupSender sender(bed.kernel, bed.cras_server, forward);
  sender.AttachObs(&bed.hub, "g1");

  Viewer a, b;
  std::vector<crsim::Task> tasks;
  SpawnViewer(bed, sender, forward, movie, /*open_at=*/0, /*extra_delay=*/0, &a, &tasks);
  SpawnViewer(bed, sender, forward, movie, /*open_at=*/Milliseconds(20),
              /*extra_delay=*/Seconds(5), &b, &tasks);
  bed.engine().RunFor(Milliseconds(100));
  ASSERT_NE(a.session, cras::kInvalidSession);
  ASSERT_NE(b.session, cras::kInvalidSession);
  GroupManager* mgr = bed.cras_server.mcast_groups();
  const GroupId group = mgr->GroupOf(a.session);
  ASSERT_EQ(mgr->GroupOf(b.session), group);
  tasks.push_back(sender.Start(group, &movie.index));

  // Leases: both viewers heartbeat until told otherwise.
  crnet::Link heartbeat_link(bed.engine());
  crnet::LeaseClient::Options hb;
  hb.period = Milliseconds(100);
  std::vector<std::unique_ptr<crnet::LeaseClient>> leases;
  leases.push_back(std::make_unique<crnet::LeaseClient>(
      bed.kernel, bed.cras_server, heartbeat_link, a.session, hb));
  leases.push_back(std::make_unique<crnet::LeaseClient>(
      bed.kernel, bed.cras_server, heartbeat_link, b.session, hb));
  tasks.push_back(leases[0]->Start());
  tasks.push_back(leases[1]->Start());

  // The crash is scripted like any other fault: the handler kills the
  // client's heartbeat generator — no Close is ever sent.
  crfault::FaultPlan plan;
  plan.ClientCrash(Seconds(4) + Milliseconds(10), /*client=*/0);
  crfault::FaultInjector injector(bed.engine(), /*volume=*/nullptr,
                                  std::vector<crnet::Link*>{}, plan);
  injector.SetClientCrashHandler(
      [&leases](int client) { leases[static_cast<std::size_t>(client)]->Stop(); });
  injector.AttachObs(&bed.hub);
  injector.Arm();

  // Demote B (stale loss report) at 4 s; A's crash lands 10 ms later, while
  // the demote's re-settle is the freshest admission state.
  bed.engine().RunFor(Seconds(4) - Milliseconds(100));
  ASSERT_GT(sender.stats().chunks_multicast, crnet::kRepairWindowChunks);
  LossReport report;
  report.member = b.session;
  report.entries.push_back(crnet::NpsNak{0, {0}, b.receiver->clock().Now()});
  sender.OnLossReport(report);
  bed.engine().RunFor(Seconds(16));

  ASSERT_EQ(injector.events_fired(), 1);
  EXPECT_EQ(sender.stats().members_demoted, 1);
  EXPECT_EQ(mgr->GroupOf(b.session), kNoGroup);
  // A was collected by the reaper, not closed.
  EXPECT_TRUE(bed.cras_server.WasReaped(a.session));
  EXPECT_FALSE(bed.cras_server.HasSession(a.session));
  // Membership conservation under churn: every join has a matching leave
  // (B's demotion + A's reap), and no group survives its members.
  EXPECT_EQ(mgr->stats().members_joined, mgr->stats().members_left);
  EXPECT_EQ(mgr->stats().groups_formed, mgr->stats().groups_dissolved);
  EXPECT_EQ(mgr->group_count(), 0u);
  // B was never silently missed: demoted mid-crash, it still completes.
  EXPECT_EQ(b.frames_missed, 0);
  EXPECT_EQ(b.frames_ok, static_cast<std::int64_t>(movie.index.count()));
  // The causal chain is on the record: crash -> reap, demote -> group-left.
  bool saw_crash = false;
  bool saw_reap = false;
  bool saw_demote = false;
  for (const crobs::FlightEvent& event : bed.hub.flight().events()) {
    saw_crash |= event.kind == crobs::FlightEventKind::kFaultInjected &&
                 event.detail == "client_crash";
    saw_reap |= event.kind == crobs::FlightEventKind::kLeaseReap &&
                event.a == static_cast<std::int64_t>(a.session);
    saw_demote |= event.kind == crobs::FlightEventKind::kGroupLeft &&
                  event.detail == "behind_window";
  }
  EXPECT_TRUE(saw_crash);
  EXPECT_TRUE(saw_reap);
  EXPECT_TRUE(saw_demote);
}

// ---------------------------------------------------------------------------
// Fault scripting against grouped links: one plan degrades every link.

TEST(FaultInjection, MultiLinkPlanAppliesToEveryLink) {
  crsim::Engine engine;
  crnet::Link l1(engine), l2(engine);
  crfault::FaultPlan plan;
  plan.LinkLoss(Milliseconds(10), 0.25).LinkRecover(Milliseconds(20));
  crfault::FaultInjector injector(engine, /*volume=*/nullptr, {&l1, &l2}, plan);
  injector.Arm();
  engine.RunFor(Milliseconds(15));
  EXPECT_EQ(l1.impairments().loss_probability, 0.25);
  EXPECT_EQ(l2.impairments().loss_probability, 0.25);
  engine.RunFor(Milliseconds(10));
  EXPECT_EQ(l1.impairments().loss_probability, 0.0);
  EXPECT_EQ(l2.impairments().loss_probability, 0.0);
  EXPECT_EQ(injector.events_fired(), 2);
}

}  // namespace
}  // namespace crmcast
