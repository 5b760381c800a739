// Lossy-network survival: link impairments, scripted link faults, the NPS
// reliability layer (explicit reassembly, NAK repair, deadline give-up),
// and session leases end to end.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

#include "src/base/bytes.h"
#include "src/core/player.h"
#include "src/core/testbed.h"
#include "src/fault/fault.h"
#include "src/mcast/group_transport.h"
#include "src/media/chunk_index.h"
#include "src/media/media_file.h"
#include "src/net/link.h"
#include "src/net/nps.h"
#include "src/net/stats_query.h"
#include "src/volume/striped_volume.h"

namespace crnet {
namespace {

using crbase::Milliseconds;
using crbase::Seconds;

Link::Options FastLink() {
  Link::Options options;
  options.bandwidth_bytes_per_sec = 10e6 / 8.0;
  options.propagation_delay = Milliseconds(1);
  options.per_packet_overhead = 0;
  return options;
}

// ---------------------------------------------------------------------------
// Link impairments.

TEST(LinkImpairments, WireLossSplitFromQueueDrops) {
  crsim::Engine engine;
  Link::Options options = FastLink();
  options.impairments.loss_probability = 1.0;
  Link link(engine, options);
  int delivered = 0;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(link.Send(1250, [&] { ++delivered; }));
  }
  engine.Run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(link.stats().wire_drops, 5);
  EXPECT_EQ(link.stats().tx_queue_drops, 0);
  EXPECT_EQ(link.stats().packets_dropped, 5);
  // A wire-lost packet still burns its serialization time. It has no event,
  // so the time counts as spent once the clock has passed it.
  EXPECT_EQ(link.stats().busy_time, 0);
  engine.RunUntil(5 * Milliseconds(1));
  EXPECT_EQ(link.stats().busy_time, 5 * Milliseconds(1));
}

TEST(LinkImpairments, ImpairmentChangeBindsPacketsAcceptedAfterIt) {
  crsim::Engine engine;
  Link link(engine, FastLink());
  bool first = false;
  bool second = false;
  ASSERT_TRUE(link.Send(1250, [&] { first = true; }));
  link.SetLoss(1.0);
  ASSERT_TRUE(link.Send(1250, [&] { second = true; }));
  engine.Run();
  // The first packet was still on the wire when the loss began, but it was
  // accepted onto a clean link.
  EXPECT_TRUE(first);
  EXPECT_FALSE(second);
  EXPECT_EQ(link.stats().wire_drops, 1);
}

TEST(LinkImpairments, QueueDropsSplitFromWireLoss) {
  crsim::Engine engine;
  Link::Options options = FastLink();
  options.queue_limit = 2;
  Link link(engine, options);
  for (int i = 0; i < 6; ++i) {
    link.Send(1250, nullptr);
  }
  engine.Run();
  EXPECT_EQ(link.stats().tx_queue_drops, 3);
  EXPECT_EQ(link.stats().wire_drops, 0);
  EXPECT_EQ(link.stats().packets_dropped,
            link.stats().tx_queue_drops + link.stats().wire_drops);
}

TEST(LinkImpairments, IidLossRateMatchesProbability) {
  crsim::Engine engine;
  Link link(engine, FastLink());
  link.SetLoss(0.1);
  const int n = 10000;
  int delivered = 0;
  for (int i = 0; i < n; ++i) {
    link.Send(125, [&] { ++delivered; });
  }
  engine.Run();
  const double loss = 1.0 - static_cast<double>(delivered) / n;
  EXPECT_GT(loss, 0.08);
  EXPECT_LT(loss, 0.12);
  EXPECT_EQ(link.stats().wire_drops, n - delivered);
}

TEST(LinkImpairments, GilbertElliottLossIsBursty) {
  crsim::Engine engine;
  Link link(engine, FastLink());
  // Stationary bad-state share 0.05/(0.05+0.5) = 9.1%; mean sojourn in bad
  // (= mean loss-burst length, since loss_bad = 1) is 1/0.5 = 2 packets.
  link.SetBurstLoss(/*p_enter_bad=*/0.05, /*p_exit_bad=*/0.5, /*loss_bad=*/1.0);
  const int n = 10000;
  std::vector<bool> delivered(n, false);
  for (int i = 0; i < n; ++i) {
    link.Send(125, [&delivered, i] { delivered[static_cast<std::size_t>(i)] = true; });
  }
  engine.Run();

  int lost = 0;
  int bursts = 0;
  bool in_burst = false;
  for (bool ok : delivered) {
    if (!ok) {
      ++lost;
      if (!in_burst) {
        ++bursts;
        in_burst = true;
      }
    } else {
      in_burst = false;
    }
  }
  const double loss_rate = static_cast<double>(lost) / n;
  EXPECT_GT(loss_rate, 0.05);
  EXPECT_LT(loss_rate, 0.14);
  // Burstiness: mean run length well above the ~1.1 an i.i.d. process at
  // this rate would produce.
  ASSERT_GT(bursts, 0);
  const double mean_burst = static_cast<double>(lost) / bursts;
  EXPECT_GT(mean_burst, 1.4);
  EXPECT_LT(mean_burst, 3.0);
}

TEST(LinkImpairments, JitterReordersIndependentPropagation) {
  crsim::Engine engine;
  Link::Options options = FastLink();
  options.impairments.jitter = Milliseconds(5);
  Link link(engine, options);
  // 125-byte packets serialize in 0.1 ms — far below the 5 ms jitter, so
  // deliveries must overtake each other.
  const int n = 200;
  std::vector<int> order;
  for (int i = 0; i < n; ++i) {
    link.Send(125, [&order, i] { order.push_back(i); });
  }
  const crbase::Time start = engine.Now();
  engine.Run();
  ASSERT_EQ(static_cast<int>(order.size()), n);  // jitter never loses packets
  int inversions = 0;
  for (int i = 1; i < n; ++i) {
    if (order[static_cast<std::size_t>(i)] < order[static_cast<std::size_t>(i - 1)]) {
      ++inversions;
    }
  }
  EXPECT_GT(inversions, 0);
  // Last possible arrival: all serialization + propagation + max jitter.
  EXPECT_LE(engine.Now() - start,
            n * crbase::Microseconds(100) + Milliseconds(1) + Milliseconds(5));
}

TEST(LinkImpairments, BandwidthDeratingStretchesWireTime) {
  crsim::Engine engine;
  Link link(engine, FastLink());
  link.SetBandwidthDerating(2.0);
  crbase::Time delivered_at = -1;
  // 1250 bytes at 1.25 MB/s would take 1 ms; derated by 2 it takes 2 ms.
  link.Send(1250, [&] { delivered_at = engine.Now(); });
  engine.Run();
  EXPECT_EQ(delivered_at, Milliseconds(2) + Milliseconds(1));
}

// ---------------------------------------------------------------------------
// Scripted link faults.

TEST(LinkFaults, PlanDrivesImpairmentsOverTime) {
  crsim::Engine engine;
  Link link(engine, FastLink());
  crfault::FaultPlan plan;
  plan.LinkLoss(Milliseconds(10), 0.25)
      .LinkJitter(Milliseconds(20), Milliseconds(3), 0.1, Milliseconds(8))
      .LinkDerate(Milliseconds(30), 4.0)
      .LinkRecover(Milliseconds(40));
  crfault::FaultInjector injector(engine, nullptr, &link, plan);
  injector.Arm();

  engine.RunUntil(Milliseconds(15));
  EXPECT_EQ(link.impairments().loss_probability, 0.25);
  engine.RunUntil(Milliseconds(25));
  EXPECT_EQ(link.impairments().jitter, Milliseconds(3));
  EXPECT_EQ(link.impairments().reorder_probability, 0.1);
  EXPECT_EQ(link.impairments().reorder_delay, Milliseconds(8));
  engine.RunUntil(Milliseconds(35));
  EXPECT_EQ(link.impairments().bandwidth_derating, 4.0);
  engine.RunUntil(Milliseconds(45));
  EXPECT_TRUE(link.impairments().perfect());
  EXPECT_EQ(injector.events_fired(), 4);
}

TEST(LinkFaults, BurstLossEventSwitchesToGilbertElliott) {
  crsim::Engine engine;
  Link link(engine, FastLink());
  crfault::FaultPlan plan;
  plan.LinkBurstLoss(Milliseconds(5), 0.02, 0.4, 0.9);
  crfault::FaultInjector injector(engine, nullptr, &link, plan);
  injector.Arm();
  engine.RunUntil(Milliseconds(10));
  EXPECT_TRUE(link.impairments().gilbert_elliott);
  EXPECT_EQ(link.impairments().ge_p_enter_bad, 0.02);
  EXPECT_EQ(link.impairments().ge_p_exit_bad, 0.4);
  EXPECT_EQ(link.impairments().ge_loss_bad, 0.9);
}

TEST(LinkFaults, MixedPlanTargetsVolumeAndLink) {
  crsim::Engine engine;
  crvol::VolumeOptions volume_options;
  volume_options.disks = 2;
  crvol::StripedVolume volume(engine, volume_options);
  Link link(engine, FastLink());
  crfault::FaultPlan plan;
  plan.FailStop(Milliseconds(10), 1).LinkLoss(Milliseconds(20), 0.5);
  crfault::FaultInjector injector(engine, &volume, &link, plan);
  injector.Arm();
  engine.RunUntil(Milliseconds(30));
  EXPECT_EQ(volume.member_state(1), crvol::MemberState::kFailed);
  EXPECT_EQ(link.impairments().loss_probability, 0.5);
}

TEST(LinkFaults, DestroyedInjectorFiresNoEvents) {
  // Inject, destroy early, run the engine: nothing may fire.
  crsim::Engine engine;
  Link link(engine, FastLink());
  {
    crfault::FaultPlan plan;
    plan.LinkLoss(Milliseconds(50), 1.0).LinkDerate(Milliseconds(60), 8.0);
    crfault::FaultInjector injector(engine, nullptr, &link, plan);
    injector.Arm();
  }
  engine.RunUntil(Milliseconds(100));
  EXPECT_TRUE(link.impairments().perfect());
  // And the link still works.
  int delivered = 0;
  link.Send(1250, [&] { ++delivered; });
  engine.Run();
  EXPECT_EQ(delivered, 1);
}

// ---------------------------------------------------------------------------
// NPS reassembly (direct OnFragment injection — no link in the loop).
// Reassembly is the core both transports share (src/net/reliable.h), so the
// cases that describe shared behaviour run against the grouped receiver too.

struct RxRig {
  // Both receivers hold one control file: 10,000 chunks of 100 ms, chunk k
  // travelling as frags(k) full fragments (one, unless a case says more).
  explicit RxRig(const std::function<int(std::int64_t)>& frags = [](std::int64_t) { return 1; })
      : index(Layout(frags)) {
    receiver.Open(&index, nullptr);
  }

  static crmedia::ChunkIndex Layout(const std::function<int(std::int64_t)>& frags) {
    std::vector<crmedia::Chunk> chunks(10000);
    for (std::size_t k = 0; k < chunks.size(); ++k) {
      chunks[k].size = frags(static_cast<std::int64_t>(k)) * kMaxPacketBytes;
      chunks[k].offset = k > 0 ? chunks[k - 1].offset + chunks[k - 1].size : 0;
      chunks[k].timestamp = Milliseconds(100) * static_cast<std::int64_t>(k);
      chunks[k].duration = Milliseconds(100);
    }
    return crmedia::ChunkIndex(std::move(chunks));
  }

  crrt::Kernel kernel{crrt::Kernel::Options{}};
  crmedia::ChunkIndex index;
  NpsReceiver receiver{kernel};
  crmcast::GroupReceiver group{kernel, &index};

  // Runs `check` against the NPS receiver, then the grouped one.
  template <typename Check>
  void ForEachReceiver(Check check) {
    {
      SCOPED_TRACE("NpsReceiver");
      check(receiver);
    }
    {
      SCOPED_TRACE("GroupReceiver");
      check(group);
    }
  }
};

TEST(NpsReassembly, ReorderedFragmentsAssembleExactlyOnce) {
  RxRig rig([](std::int64_t chunk) { return chunk == 0 ? 3 : 1; });
  rig.ForEachReceiver([](auto& receiver) {
    // The "final" fragment arrives first: a receiver trusting a
    // final-fragment signal would deliver a chunk with holes.
    receiver.OnFragment(NpsFragment{0, 2});
    EXPECT_EQ(receiver.stats().chunks_received, 0);
    EXPECT_EQ(receiver.incomplete_chunks(), 1u);
    receiver.OnFragment(NpsFragment{0, 0});
    EXPECT_EQ(receiver.stats().chunks_received, 0);
    receiver.OnFragment(NpsFragment{0, 1});
    EXPECT_EQ(receiver.stats().chunks_received, 1);
    EXPECT_EQ(receiver.incomplete_chunks(), 0u);
    EXPECT_EQ(receiver.stats().out_of_order_fragments, 2);
    EXPECT_TRUE(receiver.Get(0).has_value());
  });
}

TEST(NpsReassembly, DuplicateFragmentsAreIgnored) {
  RxRig rig([](std::int64_t chunk) { return chunk == 0 ? 2 : 1; });
  rig.ForEachReceiver([](auto& receiver) {
    receiver.OnFragment(NpsFragment{0, 0});
    receiver.OnFragment(NpsFragment{0, 0});
    EXPECT_EQ(receiver.stats().duplicate_fragments, 1);
    EXPECT_EQ(receiver.stats().chunks_received, 0);
    receiver.OnFragment(NpsFragment{0, 1});
    EXPECT_EQ(receiver.stats().chunks_received, 1);
    // A late duplicate of a finished chunk is also just counted.
    receiver.OnFragment(NpsFragment{0, 1});
    EXPECT_EQ(receiver.stats().duplicate_fragments, 2);
    EXPECT_EQ(receiver.stats().chunks_received, 1);
    EXPECT_EQ(receiver.stats().bytes_received, 2 * 8 * crbase::kKiB);
  });
}

TEST(NpsReassembly, SequenceGapOpensPlaceholderForLostChunk) {
  RxRig rig;
  rig.ForEachReceiver([](auto& receiver) {
    receiver.OnFragment(NpsFragment{0, 0});
    // Chunk 1 was wholly lost: the jump to chunk 2 reveals it as a gap.
    receiver.OnFragment(NpsFragment{2, 0});
    EXPECT_EQ(receiver.stats().chunks_received, 2);
    EXPECT_EQ(receiver.incomplete_chunks(), 1u);  // the gap
  });
}

TEST(NpsReassembly, NakTimersPendOnlyForIncompleteChunks) {
  RxRig rig([](std::int64_t chunk) { return chunk == 1 ? 2 : 1; });
  crsim::Engine& engine = rig.kernel.engine();
  rig.ForEachReceiver([&engine](auto& receiver) {
    // NPS arms a NAK timer per incomplete chunk; the grouped receiver
    // reports from its sweep thread instead, and arms none.
    const std::size_t timer =
        std::is_same_v<std::decay_t<decltype(receiver)>, NpsReceiver> ? 1 : 0;
    const std::size_t before = engine.pending_events();
    receiver.OnFragment(NpsFragment{0, 0});
    EXPECT_EQ(engine.pending_events(), before);  // complete on arrival
    receiver.OnFragment(NpsFragment{1, 0});
    EXPECT_EQ(engine.pending_events(), before + timer);  // waits for fragment 1
    receiver.OnFragment(NpsFragment{3, 0});
    EXPECT_EQ(receiver.incomplete_chunks(), 2u);  // and the gap: lost chunk 2
    EXPECT_EQ(engine.pending_events(), before + 2 * timer);
    receiver.OnFragment(NpsFragment{1, 1});
    EXPECT_EQ(receiver.incomplete_chunks(), 1u);
    EXPECT_EQ(engine.pending_events(), before + timer);
  });
}

TEST(NpsReassembly, LateRetransmitOfLongFinishedChunkIsADuplicate) {
  RxRig rig([](std::int64_t chunk) { return chunk == 0 ? 2 : 1; });
  rig.ForEachReceiver([](auto& receiver) {
    // Chunk 1 finishes while chunk 0 is still missing a fragment, then
    // chunk 0 completes and a long run of chunks follows.
    receiver.OnFragment(NpsFragment{0, 0});
    receiver.OnFragment(NpsFragment{1, 0});
    receiver.OnFragment(NpsFragment{1, 0});  // done, though chunk 0 is not
    EXPECT_EQ(receiver.stats().duplicate_fragments, 1);
    receiver.OnFragment(NpsFragment{0, 1});
    constexpr std::int64_t kChunks = 64;
    for (std::int64_t chunk = 2; chunk < kChunks; ++chunk) {
      receiver.OnFragment(NpsFragment{chunk, 0});
    }
    EXPECT_EQ(receiver.stats().chunks_received, kChunks);
    EXPECT_EQ(receiver.incomplete_chunks(), 0u);
    const std::int64_t bytes = receiver.stats().bytes_received;

    // Retransmits of finished chunks, from far behind and just behind the
    // newest: counted, never reassembled or delivered again.
    for (std::int64_t chunk : {std::int64_t{0}, std::int64_t{1}, kChunks - 1}) {
      NpsFragment late{chunk, 0};
      late.retransmit = true;
      receiver.OnFragment(late);
    }
    EXPECT_EQ(receiver.stats().duplicate_fragments, 4);
    EXPECT_EQ(receiver.stats().chunks_received, kChunks);
    EXPECT_EQ(receiver.stats().bytes_received, bytes);
    EXPECT_EQ(receiver.incomplete_chunks(), 0u);
  });
}

TEST(ReliableReceiver, FinishedRecordStaysBoundedOverALongStream) {
  // 10,000 chunks; every hundredth finishes three chunks late. The record
  // of finished chunks keeps a low-water mark plus only those finished
  // ahead of a pending chunk, so it never holds more than three.
  RxRig rig([](std::int64_t chunk) { return chunk % 100 == 0 ? 2 : 1; });
  rig.ForEachReceiver([](auto& receiver) {
    constexpr std::int64_t kChunks = 10000;
    std::size_t most_above = 0;
    for (std::int64_t chunk = 0; chunk < kChunks; ++chunk) {
      receiver.OnFragment(NpsFragment{chunk, 0});
      most_above = std::max(most_above, receiver.finished_above());
      if (chunk % 100 == 3) {
        receiver.OnFragment(NpsFragment{chunk - 3, 1});
      }
    }
    EXPECT_EQ(receiver.stats().chunks_received, kChunks);
    EXPECT_EQ(receiver.incomplete_chunks(), 0u);
    EXPECT_EQ(most_above, 3u);
    EXPECT_EQ(receiver.finished_above(), 0u);
  });
}

TEST(NpsReassembly, BestEffortAbandonsIncompleteChunkAfterGrace) {
  // Without a reverse link there is no repair: an incomplete chunk is
  // abandoned once the reordering grace expires.
  RxRig rig([](std::int64_t chunk) { return chunk == 0 ? 2 : 1; });
  rig.receiver.OnFragment(NpsFragment{0, 0});
  rig.kernel.engine().RunFor(kNakDelay * 2);
  EXPECT_EQ(rig.receiver.stats().chunks_received, 0);
  EXPECT_EQ(rig.receiver.stats().chunks_abandoned, 1);
  EXPECT_EQ(rig.receiver.incomplete_chunks(), 0u);
  EXPECT_EQ(rig.receiver.stats().naks_sent, 0);
}

// ---------------------------------------------------------------------------
// End to end over an impaired link: CRAS -> NPS -> lossy wire -> repair.

struct LossyQtPlayRig {
  cras::VolumeTestbed server_host;
  crrt::Kernel client_host;
  Link forward;
  Link reverse;
  NpsReceiver receiver;
  NpsSender sender;

  explicit LossyQtPlayRig(const LinkImpairments& impairments, bool reliability)
      : server_host(Traced()),
        client_host(server_host.engine(), crrt::Kernel::Options{}),
        forward(server_host.engine(), ImpairedOptions(impairments)),
        reverse(server_host.engine()),
        receiver(client_host),
        sender(server_host.kernel, server_host.cras_server, forward, receiver) {
    if (reliability) {
      receiver.ConnectReverse(reverse, sender);
    }
    server_host.StartServers();
  }

  static Link::Options ImpairedOptions(const LinkImpairments& impairments) {
    Link::Options options;  // the default 10 Mb/s Ethernet
    options.impairments = impairments;
    return options;
  }

  // Frame tracing on, so a test can see how each frame was resolved.
  static cras::VolumeTestbedOptions Traced() {
    cras::VolumeTestbedOptions options;
    options.obs.frames.enabled = true;
    return options;
  }
};

struct PlayResult {
  std::int64_t frames_ok = 0;
  std::int64_t frames_missing = 0;
};

// A movie streaming through the rig: the session, the tasks that serve and
// play it, and what the player saw so far.
struct Playback {
  cras::SessionId session = cras::kInvalidSession;
  PlayResult result;
  std::vector<crsim::Task> tasks;
};

// Opens+starts a session and streams `movie` through the rig; the client
// host consumes every frame by logical time, its playout clock about 250 ms
// behind the session's. The rig's engine has run 50 ms on return.
void StartMovie(LossyQtPlayRig& rig, const crmedia::MediaFile& movie, Playback* play) {
  play->tasks.push_back(rig.server_host.kernel.Spawn(
      "qtserver", crrt::kPriorityClient,
      [&rig, &movie, play](crrt::ThreadContext&) -> crsim::Task {
        cras::OpenParams params;
        params.inode = movie.inode;
        params.index = movie.index;
        auto opened = co_await rig.server_host.cras_server.Open(std::move(params));
        CRAS_CHECK(opened.ok());
        play->session = *opened;
        (void)co_await rig.server_host.cras_server.StartStream(
            play->session, rig.server_host.cras_server.SuggestedInitialDelay());
      }));
  rig.server_host.engine().RunFor(Milliseconds(50));
  CRAS_CHECK(play->session != cras::kInvalidSession);
  play->tasks.push_back(rig.sender.Start(play->session, &movie.index));

  play->tasks.push_back(rig.client_host.Spawn(
      "qtclient", crrt::kPriorityClient,
      [&rig, &movie, play](crrt::ThreadContext& ctx) -> crsim::Task {
        const crbase::Duration delay =
            rig.server_host.cras_server.SuggestedInitialDelay() + Milliseconds(200);
        rig.receiver.clock().Start(delay);
        co_await ctx.Sleep(delay);
        for (const crmedia::Chunk& chunk : movie.index.chunks()) {
          while (rig.receiver.clock().Now() < chunk.timestamp) {
            co_await ctx.Sleep(Milliseconds(2));
          }
          if (rig.receiver.Get(chunk.timestamp).has_value()) {
            ++play->result.frames_ok;
          } else {
            ++play->result.frames_missing;
          }
        }
      }));
}

// StartMovie, then runs the rig for `run_for`.
PlayResult StreamMovie(LossyQtPlayRig& rig, const crmedia::MediaFile& movie,
                       crbase::Duration run_for) {
  Playback play;
  StartMovie(rig, movie, &play);
  rig.server_host.engine().RunFor(run_for);
  return play.result;
}

TEST(NpsReliability, RetransmitRepairsIidLoss) {
  LinkImpairments impairments;
  impairments.loss_probability = 0.02;
  LossyQtPlayRig rig(impairments, /*reliability=*/true);
  auto movie = crmedia::WriteMpeg1File(rig.server_host.fs, "movie", Seconds(6));
  ASSERT_TRUE(movie.ok());
  Playback play;
  StartMovie(rig, *movie, &play);
  // The sender retains its last kRepairWindowChunks chunks and never more,
  // however long the stream runs.
  std::size_t most_retained = 0;
  for (int step = 0; step < 120; ++step) {
    rig.server_host.engine().RunFor(Milliseconds(100));
    most_retained = std::max(most_retained, rig.sender.retained_chunks());
  }
  const PlayResult result = play.result;
  ASSERT_GT(rig.sender.stats().chunks_sent, kRepairWindowChunks);
  EXPECT_EQ(most_retained, static_cast<std::size_t>(kRepairWindowChunks));

  EXPECT_EQ(result.frames_missing, 0);
  EXPECT_EQ(result.frames_ok, static_cast<std::int64_t>(movie->index.count()));
  // The repair machinery actually ran: losses were detected and NAKed.
  EXPECT_GT(rig.forward.stats().wire_drops, 0);
  EXPECT_GT(rig.receiver.stats().naks_sent, 0);
  EXPECT_GT(rig.sender.stats().fragments_retransmitted, 0);
  EXPECT_EQ(rig.sender.stats().naks_received, rig.receiver.stats().naks_sent);
}

TEST(NpsReliability, WithoutRepairLossLosesFrames) {
  LinkImpairments impairments;
  impairments.loss_probability = 0.02;
  LossyQtPlayRig rig(impairments, /*reliability=*/false);
  auto movie = crmedia::WriteMpeg1File(rig.server_host.fs, "movie", Seconds(6));
  ASSERT_TRUE(movie.ok());
  const PlayResult result = StreamMovie(rig, *movie, Seconds(12));

  EXPECT_GT(result.frames_missing, 0);
  EXPECT_EQ(rig.receiver.stats().naks_sent, 0);
  EXPECT_EQ(rig.sender.stats().fragments_retransmitted, 0);
}

TEST(NpsReliability, BlackoutTriggersDeadlineGiveUpThenRecovery) {
  // A total loss window mid-stream: repair cannot succeed (retransmits are
  // lost too), so both ends must give up on the dead chunks — and resume
  // cleanly when the wire heals. Every chunk sent into the blackout was
  // wholly lost; the viewer learns of the gap only when the wire heals,
  // and by then its clock has passed the oldest ones.
  LossyQtPlayRig rig(LinkImpairments{}, /*reliability=*/true);
  crfault::FaultPlan plan;
  plan.LinkLoss(Seconds(3), 1.0).LinkRecover(Seconds(4));
  crfault::FaultInjector injector(rig.server_host.engine(), nullptr, &rig.forward, plan);
  injector.Arm();

  auto movie = crmedia::WriteMpeg1File(rig.server_host.fs, "movie", Seconds(6));
  ASSERT_TRUE(movie.ok());
  const PlayResult result = StreamMovie(rig, *movie, Seconds(12));

  // Frames inside the blackout are gone; everything else plays. ~30 frames
  // fall in the one-second window (logical lag shifts its edges slightly).
  EXPECT_GT(result.frames_missing, 10);
  EXPECT_LT(result.frames_missing, 60);
  EXPECT_EQ(result.frames_ok + result.frames_missing,
            static_cast<std::int64_t>(movie->index.count()));
  // The receiver walked away from unrepairable chunks. Each wholly lost
  // chunk is a gap that knows its deadline, so the receiver stops NAKing
  // it there and the sender never has a late NAK to refuse.
  EXPECT_EQ(rig.receiver.stats().chunks_abandoned, 23);
  EXPECT_EQ(result.frames_missing, 25);
  EXPECT_EQ(rig.receiver.stats().naks_sent, 11);
  EXPECT_EQ(rig.sender.stats().naks_received, rig.receiver.stats().naks_sent);
  EXPECT_EQ(rig.sender.stats().retransmits_abandoned, 0);
  // Each give-up names its frame from the control file: every missed frame
  // is resolved as missed.
  const crobs::StageAttribution& frames = rig.server_host.hub.frames().Totals();
  EXPECT_EQ(frames.frames_missed, result.frames_missing);
  EXPECT_EQ(frames.frames_delivered, result.frames_ok);
  // After recovery the stream runs clean again: the last frames all played.
  EXPECT_GT(result.frames_ok, 0);
}

// The sender judges a NAK by the viewer's clock reading it carries, never
// by the server's session clock: this rig's viewer plays about 250 ms
// behind its session. The NAKs are handed to the sender as the reverse link
// would deliver them. Each names fragment 0 of a one-fragment chunk.
TEST(NpsReliability, SenderJudgesANakByTheViewersClockReading) {
  LossyQtPlayRig rig(LinkImpairments{}, /*reliability=*/true);
  auto movie = crmedia::WriteMpeg1File(rig.server_host.fs, "movie", Seconds(6));
  ASSERT_TRUE(movie.ok());
  Playback play;
  StartMovie(rig, *movie, &play);
  rig.server_host.engine().RunFor(Seconds(3));
  ASSERT_EQ(rig.sender.stats().chunks_skipped, 0);
  const crbase::Time server_now = rig.server_host.cras_server.LogicalNow(play.session);
  const crbase::Time viewer_now = rig.receiver.clock().Now();
  auto deadline_of = [&](std::int64_t chunk) {
    return ChunkDeadline(movie->index.at(static_cast<std::size_t>(chunk)));
  };
  const std::int64_t playing = movie->index.FindByTime(server_now);

  // A chunk whose deadline the server's clock has passed, but the viewer's
  // has not, is resent.
  const std::int64_t behind = playing - 2;
  ASSERT_LT(deadline_of(behind), server_now);
  ASSERT_LE(viewer_now, deadline_of(behind));
  rig.sender.OnNak(NpsNak{behind, {0}, viewer_now});
  EXPECT_EQ(rig.sender.stats().fragments_retransmitted, 1);
  EXPECT_EQ(rig.sender.stats().retransmits_abandoned, 0);

  // A chunk already sent (the sender ships 250 ms ahead of the session
  // clock) whose deadline the server's clock has not passed is refused once
  // the reading is past it. The refused chunk is not forgotten: it ages out
  // of the window like any other.
  const std::int64_t ahead = playing + 1;
  ASSERT_LT(ahead, rig.sender.stats().chunks_sent);
  ASSERT_LE(server_now, deadline_of(ahead));
  const std::size_t retained = rig.sender.retained_chunks();
  rig.sender.OnNak(NpsNak{ahead, {0}, deadline_of(ahead) + 1});
  EXPECT_EQ(rig.sender.stats().fragments_retransmitted, 1);
  EXPECT_EQ(rig.sender.stats().retransmits_abandoned, 1);
  EXPECT_EQ(rig.sender.retained_chunks(), retained);
  // Asked for at the deadline itself, the same chunk is still resent.
  rig.sender.OnNak(NpsNak{ahead, {0}, deadline_of(ahead)});
  EXPECT_EQ(rig.sender.stats().fragments_retransmitted, 2);
  EXPECT_EQ(rig.sender.stats().retransmits_abandoned, 1);

  rig.server_host.engine().RunFor(Seconds(6));
  EXPECT_EQ(play.result.frames_missing, 0);
  EXPECT_EQ(rig.receiver.stats().retransmitted_fragments, 2);
}

// Loses `chunk` whole: the link draws each packet's fate when it accepts
// it, and the sender hands it all of a chunk's fragments at once, so full
// loss from just before that send to just after it drops exactly them.
// Assumes the sender skips nothing, so its count of sent chunks is the index
// of the next chunk it sends.
void LoseChunkWhole(LossyQtPlayRig& rig, std::int64_t chunk) {
  crsim::Engine& engine = rig.server_host.engine();
  while (rig.sender.stats().chunks_sent < chunk) {
    engine.RunFor(crbase::Microseconds(100));
  }
  rig.forward.SetLoss(1.0);
  while (rig.sender.stats().chunks_sent == chunk) {
    engine.RunFor(crbase::Microseconds(100));
  }
  rig.forward.SetLoss(0.0);
}

// A chunk lost whole is a gap the receiver already knows from its control
// file: the entry it opens has the chunk's size, fragment count and deadline
// before any fragment arrives, so every NAK it sends names every fragment.
// Only the first NAK's resends are needed; a later one's may arrive as
// duplicates.
TEST(NpsReliability, GapNakNamesEveryFragmentOfItsChunk) {
  LossyQtPlayRig rig(LinkImpairments{}, /*reliability=*/true);
  auto movie = crmedia::WriteMpeg2File(rig.server_host.fs, "movie", Seconds(4));
  ASSERT_TRUE(movie.ok());
  const int fragments = FragmentCount(movie->index.at(30).size);
  ASSERT_EQ(fragments, 4);
  Playback play;
  StartMovie(rig, *movie, &play);
  LoseChunkWhole(rig, 30);
  ASSERT_EQ(rig.forward.stats().wire_drops, fragments);
  rig.server_host.engine().RunFor(Seconds(8));

  const std::int64_t naks = rig.receiver.stats().naks_sent;
  EXPECT_GT(naks, 0);
  EXPECT_EQ(rig.sender.stats().naks_received, naks);
  EXPECT_EQ(rig.sender.stats().fragments_retransmitted, naks * fragments);
  EXPECT_EQ(rig.receiver.stats().retransmitted_fragments, naks * fragments);
  EXPECT_LE(rig.receiver.stats().duplicate_fragments, (naks - 1) * fragments);
  EXPECT_EQ(rig.receiver.stats().chunks_abandoned, 0);
  EXPECT_EQ(rig.receiver.stats().bytes_received, movie->index.total_bytes());
  EXPECT_EQ(play.result.frames_missing, 0);
}

// With no reverse link nothing is repaired, but a chunk lost whole is still
// a gap the receiver names itself: its give-up resolves the frame as missed
// on arrival, with no word from the sender.
TEST(NpsReliability, BestEffortResolvesAWhollyLostChunkAsMissed) {
  LossyQtPlayRig rig(LinkImpairments{}, /*reliability=*/false);
  auto movie = crmedia::WriteMpeg1File(rig.server_host.fs, "movie", Seconds(4));
  ASSERT_TRUE(movie.ok());
  Playback play;
  StartMovie(rig, *movie, &play);
  LoseChunkWhole(rig, 30);
  ASSERT_EQ(rig.forward.stats().wire_drops, 1);
  rig.server_host.engine().RunFor(Seconds(8));

  EXPECT_EQ(play.result.frames_missing, 1);
  EXPECT_EQ(rig.receiver.stats().chunks_abandoned, 1);
  const crobs::SessionTrace* trace = rig.server_host.cras_server.FrameTrace(play.session);
  ASSERT_NE(trace, nullptr);
  const crobs::FrameRecord* record = trace->Find(30);
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->outcome, crobs::FrameOutcome::kMissed);
  EXPECT_EQ(record->miss_stage, crobs::FrameStage::kArrived);
  const crobs::StageAttribution& frames = rig.server_host.hub.frames().Totals();
  EXPECT_EQ(frames.frames_missed, 1);
  EXPECT_EQ(frames.frames_resolved(), static_cast<std::int64_t>(movie->index.count()));
}

// A chunk the sender skips, because it never reached the session's buffer,
// is a gap like any other: the receiver NAKs it until the chunk's deadline
// passes on its clock, then gives up. The frame stays resolved as missed
// where it was lost, at the send.
TEST(NpsReliability, SkippedChunkIsAnOrdinaryGap) {
  LossyQtPlayRig rig(LinkImpairments{}, /*reliability=*/true);
  rig.receiver.AttachObs(&rig.server_host.hub, "viewer");
  auto movie = crmedia::WriteMpeg1File(rig.server_host.fs, "movie", Seconds(6));
  ASSERT_TRUE(movie.ok());
  Playback play;
  StartMovie(rig, *movie, &play);
  // At 2 s the server's session jumps 600 ms ahead and drops its buffer, so
  // the chunks in between never reach it: the sender skips each one.
  crsim::Engine& engine = rig.server_host.engine();
  engine.RunFor(Seconds(2));
  cras::CrasServer& server = rig.server_host.cras_server;
  play.tasks.push_back(rig.server_host.kernel.Spawn(
      "seeker", crrt::kPriorityClient, [&server, &play](crrt::ThreadContext&) -> crsim::Task {
        const crbase::Time to = server.LogicalNow(play.session) + Milliseconds(600);
        CRAS_CHECK_OK(co_await server.Seek(play.session, to));
      }));
  engine.RunFor(Seconds(8));

  const std::int64_t skipped = rig.sender.stats().chunks_skipped;
  ASSERT_GT(skipped, 0);
  EXPECT_EQ(play.result.frames_missing, skipped);
  EXPECT_EQ(rig.receiver.stats().chunks_abandoned, skipped);
  EXPECT_GT(rig.receiver.stats().naks_sent, 0);
  EXPECT_EQ(rig.sender.stats().naks_received, rig.receiver.stats().naks_sent);
  EXPECT_EQ(rig.sender.stats().fragments_retransmitted, 0);
  EXPECT_EQ(rig.sender.stats().retransmits_abandoned, 0);
  const crobs::SessionTrace* trace = server.FrameTrace(play.session);
  ASSERT_NE(trace, nullptr);
  std::int64_t give_ups = 0;
  for (const crobs::FlightEvent& event : rig.server_host.hub.flight().events()) {
    if (event.kind != crobs::FlightEventKind::kNakGiveUp) {
      continue;
    }
    ++give_ups;
    EXPECT_EQ(event.detail, "receiver");
    // The deadline ended the NAKs, not their cap of ten.
    EXPECT_LT(event.b, 10) << "chunk " << event.a;
    const crobs::FrameRecord* record = trace->Find(event.a);
    ASSERT_NE(record, nullptr);
    EXPECT_EQ(record->outcome, crobs::FrameOutcome::kMissed);
    EXPECT_EQ(record->miss_stage, crobs::FrameStage::kSent);
  }
  EXPECT_EQ(give_ups, skipped);
}

// ---------------------------------------------------------------------------
// Session leases.

struct LeaseRig {
  cras::VolumeTestbedOptions options;
  std::unique_ptr<cras::VolumeTestbed> bed;
  Link loop;  // heartbeat path (client -> server)
  cras::SessionId session = cras::kInvalidSession;

  LeaseRig() : LeaseRig(Milliseconds(200)) {}

  explicit LeaseRig(crbase::Duration lease_period)
      : options(WithLease(lease_period)),
        bed(std::make_unique<cras::VolumeTestbed>(options)),
        loop(bed->engine()) {
    bed->StartServers();
  }

  static cras::VolumeTestbedOptions WithLease(crbase::Duration period) {
    cras::VolumeTestbedOptions options;
    options.cras.lease_period = period;
    return options;
  }

  void OpenAndStart(const crmedia::MediaFile& movie) {
    crsim::Task opener = bed->kernel.Spawn(
        "client", crrt::kPriorityClient, [&](crrt::ThreadContext&) -> crsim::Task {
          cras::OpenParams params;
          params.inode = movie.inode;
          params.index = movie.index;
          auto opened = co_await bed->cras_server.Open(std::move(params));
          CRAS_CHECK(opened.ok());
          session = *opened;
          (void)co_await bed->cras_server.StartStream(
              session, bed->cras_server.SuggestedInitialDelay());
        });
    bed->engine().RunFor(Milliseconds(50));
    CRAS_CHECK(session != cras::kInvalidSession);
  }
};

TEST(Lease, HeartbeatsKeepSessionAlive) {
  LeaseRig rig;
  auto movie = crmedia::WriteMpeg1File(rig.bed->fs, "movie", Seconds(8));
  ASSERT_TRUE(movie.ok());
  rig.OpenAndStart(*movie);

  LeaseClient::Options hb;
  hb.period = Milliseconds(80);  // renew ~2.5x per lease period
  LeaseClient lease(rig.bed->kernel, rig.bed->cras_server, rig.loop, rig.session, hb);
  crsim::Task heartbeat = lease.Start();
  rig.bed->engine().RunFor(Seconds(2));

  EXPECT_EQ(rig.bed->cras_server.open_sessions(), 1u);
  EXPECT_GT(rig.bed->cras_server.stats().lease_renewals, 0);
  EXPECT_EQ(rig.bed->cras_server.stats().sessions_reaped, 0);
  EXPECT_FALSE(rig.bed->cras_server.WasReaped(rig.session));
  EXPECT_GT(lease.heartbeats_sent(), 20);
}

TEST(Lease, SilentClientReapedWithinTwoPeriods) {
  LeaseRig rig;  // 200 ms lease period
  auto movie = crmedia::WriteMpeg1File(rig.bed->fs, "movie", Seconds(8));
  ASSERT_TRUE(movie.ok());
  rig.OpenAndStart(*movie);
  const std::int64_t reserved = rig.bed->cras_server.buffer_bytes_reserved();
  ASSERT_GT(reserved, 0);

  LeaseClient::Options hb;
  hb.period = Milliseconds(80);
  LeaseClient lease(rig.bed->kernel, rig.bed->cras_server, rig.loop, rig.session, hb);
  crsim::Task heartbeat = lease.Start();
  rig.bed->engine().RunFor(Seconds(1));
  ASSERT_EQ(rig.bed->cras_server.open_sessions(), 1u);

  // The client dies: heartbeats stop. Within two lease periods the server
  // must have reaped the session and returned its buffer reservation.
  lease.Stop();
  rig.bed->engine().RunFor(2 * rig.options.cras.lease_period + hb.period);

  EXPECT_EQ(rig.bed->cras_server.open_sessions(), 0u);
  EXPECT_TRUE(rig.bed->cras_server.WasReaped(rig.session));
  EXPECT_EQ(rig.bed->cras_server.stats().sessions_reaped, 1);
  EXPECT_EQ(rig.bed->cras_server.buffer_bytes_reserved(), 0);
  EXPECT_EQ(rig.bed->cras_server.resumable_sessions(), 1u);
}

TEST(Lease, ReconnectResumesReapedSessionAtItsPosition) {
  LeaseRig rig;
  auto movie = crmedia::WriteMpeg1File(rig.bed->fs, "movie", Seconds(8));
  ASSERT_TRUE(movie.ok());
  rig.OpenAndStart(*movie);
  // Play (with heartbeats) for a while, then go silent and get reaped.
  LeaseClient::Options hb;
  hb.period = Milliseconds(80);
  LeaseClient lease(rig.bed->kernel, rig.bed->cras_server, rig.loop, rig.session, hb);
  crsim::Task heartbeat = lease.Start();
  rig.bed->engine().RunFor(Seconds(2));
  const crbase::Time position = rig.bed->cras_server.LogicalNow(rig.session);
  EXPECT_GT(position, 0);
  lease.Stop();
  rig.bed->engine().RunFor(Seconds(1));
  ASSERT_EQ(rig.bed->cras_server.open_sessions(), 0u);
  ASSERT_TRUE(rig.bed->cras_server.WasReaped(rig.session));

  // Reconnect-and-resume by the original session id.
  bool reconnected = false;
  crsim::Task reconnecter = rig.bed->kernel.Spawn(
      "client-reconnect", crrt::kPriorityClient, [&](crrt::ThreadContext&) -> crsim::Task {
        crbase::Status st = co_await rig.bed->cras_server.Reconnect(rig.session);
        CRAS_CHECK(st.ok()) << st.ToString();
        reconnected = true;
      });
  rig.bed->engine().RunFor(Milliseconds(50));
  ASSERT_TRUE(reconnected);
  EXPECT_EQ(rig.bed->cras_server.open_sessions(), 1u);
  EXPECT_EQ(rig.bed->cras_server.stats().sessions_resumed, 1);
  EXPECT_EQ(rig.bed->cras_server.resumable_sessions(), 0u);
  EXPECT_GT(rig.bed->cras_server.buffer_bytes_reserved(), 0);
  // Keep the resumed lease alive for the rest of the test.
  LeaseClient lease2(rig.bed->kernel, rig.bed->cras_server, rig.loop, rig.session, hb);
  crsim::Task heartbeat2 = lease2.Start();

  // The clock resumes from roughly where the reaper froze it (backed off by
  // the restart pipeline-fill delay), not from zero.
  rig.bed->engine().RunFor(rig.bed->cras_server.SuggestedInitialDelay() + Milliseconds(100));
  const crbase::Time resumed = rig.bed->cras_server.LogicalNow(rig.session);
  EXPECT_GT(resumed, position);
  // And data flows again.
  rig.bed->engine().RunFor(Seconds(1));
  auto stats = rig.bed->cras_server.GetSessionStats(rig.session);
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->chunks_published, 0);
}

TEST(Lease, HistoryEvictsTheEarliestReap) {
  // The oldest session outlives kResumeHistory younger ones, each reaped in
  // turn, and is reaped last: the history then holds the later reaps, so
  // the first younger one is evicted and the oldest id is kept.
  LeaseRig rig;
  auto movie = crmedia::WriteMpeg1File(rig.bed->fs, "movie", Seconds(8));
  ASSERT_TRUE(movie.ok());
  rig.OpenAndStart(*movie);
  const cras::SessionId older = rig.session;
  LeaseClient::Options hb;
  hb.period = Milliseconds(80);
  LeaseClient lease(rig.bed->kernel, rig.bed->cras_server, rig.loop, older, hb);
  crsim::Task heartbeat = lease.Start();

  std::vector<cras::SessionId> younger;
  for (std::size_t i = 0; i < cras::kResumeHistory; ++i) {
    rig.OpenAndStart(*movie);
    younger.push_back(rig.session);
    rig.bed->engine().RunFor(Milliseconds(400));
    ASSERT_TRUE(rig.bed->cras_server.WasReaped(rig.session));
    ASSERT_EQ(rig.bed->cras_server.open_sessions(), 1u);
  }
  ASSERT_FALSE(rig.bed->cras_server.WasReaped(older));
  lease.Stop();
  rig.bed->engine().RunFor(Seconds(1));
  ASSERT_TRUE(rig.bed->cras_server.WasReaped(older));
  EXPECT_EQ(rig.bed->cras_server.resumable_sessions(), cras::kResumeHistory);

  crbase::Status older_status = crbase::InternalError("not run");
  crbase::Status younger_status = crbase::InternalError("not run");
  crsim::Task reconnecter = rig.bed->kernel.Spawn(
      "client-reconnect", crrt::kPriorityClient, [&](crrt::ThreadContext&) -> crsim::Task {
        older_status = co_await rig.bed->cras_server.Reconnect(older);
        younger_status = co_await rig.bed->cras_server.Reconnect(younger.front());
      });
  rig.bed->engine().RunFor(Milliseconds(50));
  EXPECT_TRUE(older_status.ok()) << older_status.ToString();
  EXPECT_EQ(younger_status.code(), crbase::StatusCode::kNotFound);
}

TEST(Lease, ReconnectOnLiveSessionJustRenews) {
  LeaseRig rig;
  auto movie = crmedia::WriteMpeg1File(rig.bed->fs, "movie", Seconds(8));
  ASSERT_TRUE(movie.ok());
  rig.OpenAndStart(*movie);
  bool ok = false;
  crsim::Task reconnecter = rig.bed->kernel.Spawn(
      "client-reconnect", crrt::kPriorityClient, [&](crrt::ThreadContext&) -> crsim::Task {
        ok = (co_await rig.bed->cras_server.Reconnect(rig.session)).ok();
      });
  rig.bed->engine().RunFor(Milliseconds(50));
  EXPECT_TRUE(ok);
  EXPECT_EQ(rig.bed->cras_server.open_sessions(), 1u);
  EXPECT_EQ(rig.bed->cras_server.stats().sessions_resumed, 0);
}

TEST(Lease, ReconnectUnknownSessionIsNotFound) {
  LeaseRig rig;
  bool not_found = false;
  crsim::Task reconnecter = rig.bed->kernel.Spawn(
      "client-reconnect", crrt::kPriorityClient, [&](crrt::ThreadContext&) -> crsim::Task {
        crbase::Status st = co_await rig.bed->cras_server.Reconnect(999);
        not_found = !st.ok();
      });
  rig.bed->engine().RunFor(Milliseconds(50));
  EXPECT_TRUE(not_found);
}

// ---------------------------------------------------------------------------
// Remote post-mortem: DumpQuery pulls the flight recorder over the wire.

TEST(FlightDump, RemoteDumpQueryCapturesFailureAutopsy) {
  // A member of a 2-disk striped (no parity) volume fail-stops mid-playback:
  // nothing is admissible on the survivor, so the server sheds every stream.
  // The operator on the client host then pulls a flight-recorder dump over
  // the link and must see the whole causal chain — the injected fault, the
  // member-state change, and the shed decisions — plus the budget-ledger
  // tail, without any access to the server host.
  cras::VolumeTestbedOptions options;
  options.volume.disks = 2;
  cras::VolumeTestbed bed(options);
  bed.StartServers();

  constexpr int kStreams = 4;
  std::vector<crmedia::MediaFile> files;
  for (int i = 0; i < kStreams; ++i) {
    auto movie = crmedia::WriteMpeg1File(bed.fs, "movie" + std::to_string(i), Seconds(6));
    ASSERT_TRUE(movie.ok());
    files.push_back(std::move(*movie));
  }
  std::vector<std::unique_ptr<cras::PlayerStats>> player_stats;
  std::vector<crsim::Task> players;
  cras::PlayerOptions player_options;
  player_options.play_length = Seconds(4);
  for (int i = 0; i < kStreams; ++i) {
    player_options.start_delay = Milliseconds(37) * i;
    player_stats.push_back(std::make_unique<cras::PlayerStats>());
    players.push_back(cras::SpawnCrasPlayer(bed.kernel, bed.cras_server,
                                            files[static_cast<std::size_t>(i)],
                                            player_options, player_stats.back().get()));
  }

  Link link(bed.engine());  // the default 10 Mb/s segment
  StatsQueryService stats(bed.kernel, bed.hub, &link);
  stats.Start();

  crfault::FaultPlan plan;
  plan.FailStop(Milliseconds(1500), 0);
  crfault::FaultInjector injector(bed.engine(), bed.volume, plan);
  injector.AttachObs(&bed.hub);
  injector.Arm();

  std::string dump;
  crsim::Task operator_task = bed.kernel.Spawn(
      "operator", crrt::kPriorityClient, [&](crrt::ThreadContext& ctx) -> crsim::Task {
        co_await ctx.Sleep(Seconds(3));  // notice the outage, then pull
        dump = co_await stats.DumpQuery("operator_pull");
      });
  bed.engine().RunFor(Seconds(5));

  // The failure actually bit: every stream was shed.
  ASSERT_EQ(injector.events_fired(), 1);
  EXPECT_EQ(bed.cras_server.stats().streams_shed, kStreams);

  ASSERT_FALSE(dump.empty());
  EXPECT_NE(dump.find("\"reason\": \"operator_pull\""), std::string::npos);
  EXPECT_NE(dump.find("\"fault_injected\""), std::string::npos);
  EXPECT_NE(dump.find("\"member_change\""), std::string::npos);
  EXPECT_NE(dump.find("\"detail\": \"failed\""), std::string::npos);
  EXPECT_NE(dump.find("\"stream_shed\""), std::string::npos);
  EXPECT_NE(dump.find("\"ledger_tail\""), std::string::npos);
  EXPECT_NE(dump.find("\"metrics\""), std::string::npos);
  // The dump rode the link as ordinary traffic.
  EXPECT_EQ(stats.stats().queries, 1);
  EXPECT_EQ(stats.stats().reply_bytes, static_cast<std::int64_t>(dump.size()));
}

TEST(Lease, DisabledByDefaultNothingReaps) {
  cras::VolumeTestbed bed;  // lease_period = 0: the classic trusting server
  bed.StartServers();
  auto movie = crmedia::WriteMpeg1File(bed.fs, "movie", Seconds(8));
  ASSERT_TRUE(movie.ok());
  cras::SessionId session = cras::kInvalidSession;
  crsim::Task opener = bed.kernel.Spawn(
      "client", crrt::kPriorityClient, [&](crrt::ThreadContext&) -> crsim::Task {
        cras::OpenParams params;
        params.inode = movie->inode;
        params.index = movie->index;
        auto opened = co_await bed.cras_server.Open(std::move(params));
        CRAS_CHECK(opened.ok());
        session = *opened;
      });
  bed.engine().RunFor(Seconds(5));  // no heartbeats, no reaper
  EXPECT_EQ(bed.cras_server.open_sessions(), 1u);
  EXPECT_EQ(bed.cras_server.stats().sessions_reaped, 0);
  EXPECT_FALSE(bed.cras_server.WasReaped(session));
}

// ---------------------------------------------------------------------------
// One end path: a close, a shed and a reap end a session the same way.

enum class Ending { kClose, kShed, kReap };

const char* EndingName(Ending how) {
  switch (how) {
    case Ending::kClose:
      return "Close";
    case Ending::kShed:
      return "Shed";
    case Ending::kReap:
      return "Reap";
  }
  return "?";
}

void PrintTo(Ending how, std::ostream* os) { *os << EndingName(how); }

// Sessions of one title, opened and never started: no batch is published,
// so a data listener runs only when its session ends. A keeper renews
// every lease in `renewed` each 80 ms (the lease period is 200 ms).
struct EndRig {
  std::unique_ptr<cras::VolumeTestbed> bed;
  crmedia::MediaFile movie;
  std::vector<cras::SessionId> renewed;
  std::vector<crsim::Task> tasks;
  std::unique_ptr<crfault::FaultInjector> injector;

  EndRig(int disks, bool parity) {
    cras::VolumeTestbedOptions options;
    options.volume.disks = disks;
    options.volume.parity = parity;
    options.cras.lease_period = Milliseconds(200);
    options.cras.mcast.enabled = true;
    bed = std::make_unique<cras::VolumeTestbed>(options);
    bed->StartServers();
    movie = *crmedia::WriteMpeg1File(bed->fs, "movie", Seconds(8));
    tasks.push_back(bed->kernel.Spawn(
        "keeper", crrt::kPriorityClient, [this](crrt::ThreadContext& ctx) -> crsim::Task {
          for (;;) {
            co_await ctx.Sleep(Milliseconds(80));
            for (const cras::SessionId id : renewed) {
              bed->cras_server.RenewLease(id);
            }
          }
        }));
  }

  cras::SessionId Open(bool grouped) {
    cras::SessionId id = cras::kInvalidSession;
    tasks.push_back(bed->kernel.Spawn(
        "client", crrt::kPriorityClient, [&](crrt::ThreadContext&) -> crsim::Task {
          cras::OpenParams params;
          params.inode = movie.inode;
          params.index = movie.index;
          params.grouped = grouped;
          auto opened = co_await bed->cras_server.Open(std::move(params));
          CRAS_CHECK(opened.ok()) << opened.status().ToString();
          id = *opened;
        }));
    bed->engine().RunFor(Milliseconds(5));
    CRAS_CHECK(id != cras::kInvalidSession);
    renewed.push_back(id);
    return id;
  }

  // Closes `id`, fails member 1 of the array, or stops renewing `id`; then
  // runs a second, long past the lease grace.
  void End(Ending how, cras::SessionId id) {
    switch (how) {
      case Ending::kClose:
        tasks.push_back(bed->kernel.Spawn(
            "closer", crrt::kPriorityClient, [this, id](crrt::ThreadContext&) -> crsim::Task {
              CRAS_CHECK((co_await bed->cras_server.Close(id)).ok());
            }));
        break;
      case Ending::kShed: {
        crfault::FaultPlan plan;
        plan.FailStop(bed->engine().Now(), /*disk=*/1);
        injector = std::make_unique<crfault::FaultInjector>(bed->engine(), bed->volume, plan);
        injector->Arm();
        break;
      }
      case Ending::kReap:
        std::erase(renewed, id);
        break;
    }
    bed->engine().RunFor(Seconds(1));
  }
};

class SessionEnd : public ::testing::TestWithParam<Ending> {};

TEST_P(SessionEnd, ReleasesTheSessionOnceAndRecordsHowItEnded) {
  // The 4-disk parity array of the degradation tests, filled to one stream
  // past its degraded capacity: a member failure sheds exactly the
  // youngest stream, the one this test ends.
  const Ending how = GetParam();
  EndRig rig(/*disks=*/4, /*parity=*/true);
  cras::CrasServer& server = rig.bed->cras_server;
  crvol::VolumeAdmissionModel degraded = server.volume_admission();
  degraded.SetMemberFailed(1, true);
  cras::StreamDemand demand;
  demand.rate_bytes_per_sec = rig.movie.index.WorstRate(server.options().interval);
  demand.chunk_bytes = rig.movie.index.max_chunk_bytes();
  std::size_t capacity = 0;
  while (degraded.Admissible(std::vector<cras::StreamDemand>(capacity + 1, demand),
                             server.options().memory_budget_bytes)) {
    ++capacity;
  }
  for (std::size_t i = 0; i < capacity; ++i) {
    rig.Open(/*grouped=*/false);
  }
  const std::int64_t reserved = server.buffer_bytes_reserved();
  const cras::SessionId id = rig.Open(/*grouped=*/false);
  ASSERT_GT(server.buffer_bytes_reserved(), reserved);
  int listener_calls = 0;
  bool open_in_listener = false;
  server.SetDataListener(id, [&] {
    ++listener_calls;
    open_in_listener = server.HasSession(id);
  });

  rig.End(how, id);

  EXPECT_FALSE(server.HasSession(id));
  EXPECT_EQ(server.open_sessions(), capacity);
  EXPECT_EQ(listener_calls, 1);
  EXPECT_FALSE(open_in_listener);
  EXPECT_EQ(server.WasShed(id), how == Ending::kShed);
  EXPECT_EQ(server.WasReaped(id), how == Ending::kReap);
  EXPECT_EQ(server.resumable_sessions(), how == Ending::kReap ? 1u : 0u);
  EXPECT_EQ(server.buffer_bytes_reserved(), reserved);
  ASSERT_EQ(rig.bed->hub.flight().dropped(), 0u);
  int shed_events = 0;
  int reap_events = 0;
  for (const crobs::FlightEvent& event : rig.bed->hub.flight().events()) {
    shed_events += event.kind == crobs::FlightEventKind::kStreamShed && event.a == id;
    reap_events += event.kind == crobs::FlightEventKind::kLeaseReap && event.a == id;
  }
  EXPECT_EQ(shed_events, how == Ending::kShed ? 1 : 0);
  EXPECT_EQ(reap_events, how == Ending::kReap ? 1 : 0);
}

TEST_P(SessionEnd, LastGroupMemberTakesItsFeedWithIt) {
  // A 2-disk striped array without parity: a member failure leaves nothing
  // admissible, and the shed takes the group member before its feed.
  const Ending how = GetParam();
  EndRig rig(/*disks=*/2, /*parity=*/false);
  cras::CrasServer& server = rig.bed->cras_server;
  const cras::SessionId id = rig.Open(/*grouped=*/true);
  const crmcast::GroupManager& groups = *server.mcast_groups();
  const crmcast::GroupId group = groups.GroupOf(id);
  ASSERT_NE(group, crmcast::kNoGroup);
  const cras::SessionId feed = groups.FeedOf(group);
  ASSERT_TRUE(server.HasSession(feed));

  rig.End(how, id);

  EXPECT_EQ(groups.GroupOf(id), crmcast::kNoGroup);
  EXPECT_EQ(groups.group_count(), 0u);
  EXPECT_FALSE(server.HasSession(id));
  EXPECT_FALSE(server.HasSession(feed));
  EXPECT_EQ(server.WasShed(id), how == Ending::kShed);
  EXPECT_EQ(server.WasReaped(id), how == Ending::kReap);
  // The emptied feed is closed, neither shed nor reaped.
  EXPECT_FALSE(server.WasShed(feed));
  EXPECT_FALSE(server.WasReaped(feed));
  EXPECT_EQ(server.buffer_bytes_reserved(), 0);
  // The member's one group_left event names how it ended.
  const char* const left_as[] = {"close", "shed", "reap"};
  std::vector<std::string> left;
  for (const crobs::FlightEvent& event : rig.bed->hub.flight().events()) {
    if (event.kind == crobs::FlightEventKind::kGroupLeft && event.a == id) {
      left.push_back(event.detail);
    }
  }
  EXPECT_EQ(left, std::vector<std::string>{left_as[static_cast<int>(how)]});
}

INSTANTIATE_TEST_SUITE_P(Endings, SessionEnd,
                         ::testing::Values(Ending::kClose, Ending::kShed, Ending::kReap),
                         [](const ::testing::TestParamInfo<Ending>& info) {
                           return std::string(EndingName(info.param));
                         });

}  // namespace
}  // namespace crnet
