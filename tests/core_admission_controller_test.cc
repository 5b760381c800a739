// cras::AdmissionController on a bare kernel: no rig, volume or file system.
// The controller owns the admitted set, the cache-aware charge (memory-only
// streams share one fallback reserve) and the wired buffer memory; a seeded
// random sequence compares every verdict and estimate with a reference that
// rebuilds the whole demand list on each call.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <vector>

#include "src/base/bytes.h"
#include "src/base/random.h"
#include "src/core/admission_controller.h"
#include "src/obs/obs.h"
#include "src/rtmach/kernel.h"
#include "src/sim/engine.h"

namespace cras {
namespace {

using crbase::Milliseconds;
using Estimate = AdmissionController::Estimate;

crvol::VolumeAdmissionModel Model(int disks, bool parity = false) {
  crvol::VolumeAdmissionModel model(DiskParams{}, disks, Milliseconds(500), 256 * crbase::kKiB,
                                    256 * crbase::kKiB);
  model.set_parity(parity);
  return model;
}

// An MPEG1 stream (B_i = 200,000 B at 1x) played at `factor` times its rate.
StreamDemand Mpeg1(double factor = 1.0) { return StreamDemand{187500 * factor, 6250}; }

void ExpectSameEstimate(const Estimate& got, const Estimate& want) {
  EXPECT_EQ(got.bytes, want.bytes);
  EXPECT_EQ(got.buffer_bytes, want.buffer_bytes);
  ASSERT_EQ(got.per_disk.size(), want.per_disk.size());
  for (std::size_t d = 0; d < got.per_disk.size(); ++d) {
    EXPECT_EQ(got.per_disk[d].requests, want.per_disk[d].requests) << "disk " << d;
    EXPECT_EQ(got.per_disk[d].bytes, want.per_disk[d].bytes) << "disk " << d;
    EXPECT_EQ(got.per_disk[d].overhead, want.per_disk[d].overhead) << "disk " << d;
    EXPECT_EQ(got.per_disk[d].transfer, want.per_disk[d].transfer) << "disk " << d;
  }
}

// The model's estimate for `streams` with the buffer memory replaced.
Estimate WithBuffer(const crvol::VolumeAdmissionModel& model,
                    const std::vector<StreamDemand>& streams, std::int64_t buffer_bytes) {
  Estimate estimate = model.Evaluate(streams);
  estimate.buffer_bytes = buffer_bytes;
  return estimate;
}

TEST(AdmissionController, TryCommitReleaseAndReRate) {
  crrt::Kernel kernel;
  const crvol::VolumeAdmissionModel model = Model(1);
  AdmissionController controller(kernel, model, 12 * crbase::kMiB);

  // Try changes nothing; Commit admits and wires B_i.
  const AdmissionController::Verdict first = controller.Try(1, Mpeg1(), false);
  EXPECT_TRUE(first.admit);
  ExpectSameEstimate(first.estimate, model.Evaluate({Mpeg1()}));
  EXPECT_EQ(controller.reserved_bytes(), 0);
  EXPECT_EQ(controller.Commit(1, Mpeg1(), false), 200000);
  EXPECT_EQ(controller.reserved_bytes(), 200000);
  EXPECT_EQ(kernel.wired_bytes(), 200000);

  // The paper's disk carries 14 MPEG1 streams at T = 0.5 s; the 15th is
  // refused.
  for (SessionId id = 2; id <= 14; ++id) {
    ASSERT_TRUE(controller.Try(id, Mpeg1(), false).admit) << id;
    controller.Commit(id, Mpeg1(), false);
  }
  const AdmissionController::Verdict fifteenth = controller.Try(15, Mpeg1(), false);
  EXPECT_FALSE(fifteenth.admit);
  ExpectSameEstimate(fifteenth.estimate,
                     model.Evaluate(std::vector<StreamDemand>(15, Mpeg1())));
  EXPECT_TRUE(controller.Admissible());

  // Re-rating replaces the stream's demand rather than adding a stream: 3x
  // (B_i = 575,000 B) does not fit beside 13 others, but does beside 11.
  const AdmissionController::Verdict crowded = controller.Try(1, Mpeg1(3.0), false);
  EXPECT_FALSE(crowded.admit);
  std::vector<StreamDemand> want(13, Mpeg1());
  want.push_back(Mpeg1(3.0));
  ExpectSameEstimate(crowded.estimate, WithBuffer(model, want, 13 * 200000 + 575000));
  controller.Release(14);
  controller.Release(13);
  ASSERT_TRUE(controller.Try(1, Mpeg1(3.0), false).admit);
  EXPECT_EQ(controller.Commit(1, Mpeg1(3.0), false), 575000);
  EXPECT_EQ(controller.reserved_bytes(), 11 * 200000 + 575000);

  // Slowing back down keeps the larger buffer wired, and charged.
  ASSERT_TRUE(controller.Try(1, Mpeg1(), false).admit);
  EXPECT_EQ(controller.Commit(1, Mpeg1(), false), 575000);
  ExpectSameEstimate(controller.Evaluate(),
                     WithBuffer(model, std::vector<StreamDemand>(12, Mpeg1()),
                                11 * 200000 + 575000));
  EXPECT_EQ(kernel.wired_bytes(), controller.reserved_bytes());

  for (SessionId id = 1; id <= 12; ++id) {
    controller.Release(id);
  }
  EXPECT_EQ(controller.reserved_bytes(), 0);
  EXPECT_EQ(kernel.wired_bytes(), 0);
}

TEST(AdmissionController, MemoryOnlyStreamsShareOneFallbackReserve) {
  crrt::Kernel kernel;
  const crvol::VolumeAdmissionModel model = Model(4);
  AdmissionController controller(kernel, model, 64 * crbase::kMiB);
  const StreamDemand disk = Mpeg1();
  const StreamDemand small = Mpeg1(0.5);
  const StreamDemand large = Mpeg1(3.0);
  controller.Commit(1, disk, false);
  controller.Commit(2, small, true);
  controller.Commit(3, large, true);
  controller.Commit(4, small, true);
  const std::int64_t buffers = model.BufferBytes(disk) + 2 * model.BufferBytes(small) +
                               model.BufferBytes(large);

  // Disk time for the disk stream plus one reserve (the largest memory-only
  // window); buffer memory for all four.
  EXPECT_TRUE(controller.memory_only(3));
  EXPECT_FALSE(controller.memory_only(1));
  ExpectSameEstimate(controller.Evaluate(), WithBuffer(model, {disk, large}, buffers));

  // A memory-only candidate rides the same reserve; a larger one becomes it.
  ExpectSameEstimate(controller.Try(5, small, true).estimate,
                     WithBuffer(model, {disk, large}, buffers + model.BufferBytes(small)));
  const StreamDemand huge = Mpeg1(4.0);
  ExpectSameEstimate(controller.Try(5, huge, true).estimate,
                     WithBuffer(model, {disk, huge}, buffers + model.BufferBytes(huge)));

  // A fallback flips the class once: the fallen stream is charged its own
  // window and the reserve moves to the next-largest memory-only one.
  EXPECT_TRUE(controller.ChargeDisk(3));
  EXPECT_FALSE(controller.ChargeDisk(3));
  EXPECT_FALSE(controller.ChargeDisk(1));
  EXPECT_FALSE(controller.ChargeDisk(99));
  EXPECT_FALSE(controller.memory_only(3));
  ExpectSameEstimate(controller.Evaluate(), WithBuffer(model, {disk, large, small}, buffers));

  // With no memory-only stream left there is no reserve.
  controller.Release(2);
  controller.Release(4);
  ExpectSameEstimate(controller.Evaluate(),
                     WithBuffer(model, {disk, large},
                                model.BufferBytes(disk) + model.BufferBytes(large)));
}

TEST(AdmissionController, SlowedStreamKeepsChargingItsWiredBuffer) {
  // A 400,000 B budget: one stream at 2x (387,500 B) fits. Slowed to 1x it
  // keeps its buffer, so a second 1x stream (200,000 B) must not fit.
  crrt::Kernel kernel;
  AdmissionController controller(kernel, Model(1), 400000);
  ASSERT_TRUE(controller.Try(1, Mpeg1(2.0), false).admit);
  EXPECT_EQ(controller.Commit(1, Mpeg1(2.0), false), 387500);
  ASSERT_TRUE(controller.Try(1, Mpeg1(), false).admit);
  EXPECT_EQ(controller.Commit(1, Mpeg1(), false), 387500);
  const AdmissionController::Verdict second = controller.Try(2, Mpeg1(), false);
  EXPECT_FALSE(second.admit);
  EXPECT_EQ(second.estimate.buffer_bytes, 587500);
  EXPECT_EQ(controller.reserved_bytes(), 387500);
  EXPECT_EQ(kernel.wired_bytes(), 387500);
}

TEST(AdmissionController, CommitPastTheMemoryBudgetIsABug) {
  crrt::Kernel kernel;
  AdmissionController controller(kernel, Model(1), 300000);
  controller.Commit(1, Mpeg1(), false);
  EXPECT_DEATH(controller.Commit(2, Mpeg1(), false), "against a budget of 300000");
}

TEST(AdmissionController, MemberFailureOnNonParityArrayRejectsAnyNonEmptySet) {
  crrt::Kernel kernel;
  AdmissionController striped(kernel, Model(4), 64 * crbase::kMiB);
  striped.model().SetMemberFailed(2, true);
  EXPECT_TRUE(striped.Admissible());  // the empty set loses nothing
  EXPECT_FALSE(striped.Try(1, Mpeg1(), false).admit);
  EXPECT_FALSE(striped.Try(1, Mpeg1(), true).admit);
  striped.model().SetMemberFailed(2, false);
  ASSERT_TRUE(striped.Try(1, Mpeg1(), true).admit);
  striped.Commit(1, Mpeg1(), true);
  striped.model().SetMemberFailed(0, true);
  EXPECT_FALSE(striped.Admissible());
  striped.Release(1);
  EXPECT_TRUE(striped.Admissible());

  // A parity array survives one failure, not two.
  AdmissionController parity(kernel, Model(4, /*parity=*/true), 64 * crbase::kMiB);
  parity.Commit(1, Mpeg1(), false);
  parity.model().SetMemberFailed(1, true);
  EXPECT_TRUE(parity.Admissible());
  parity.model().SetMemberFailed(3, true);
  EXPECT_FALSE(parity.Admissible());
  EXPECT_FALSE(parity.Try(2, Mpeg1(), true).admit);
}

TEST(AdmissionController, RecordsVerdictsNotEstimates) {
  crsim::Engine engine;
  crobs::Hub hub(engine);
  crrt::Kernel kernel;
  AdmissionController controller(kernel, Model(1), 12 * crbase::kMiB);
  controller.AttachObs(&hub);
  ASSERT_TRUE(controller.Try(1, Mpeg1(), false).admit);
  controller.Commit(1, Mpeg1(), false);
  (void)controller.Evaluate();
  EXPECT_TRUE(controller.Admissible());
  EXPECT_FALSE(controller.Try(2, Mpeg1(100.0), false).admit);
  crobs::Registry& metrics = hub.metrics();
  EXPECT_EQ(metrics.GetCounter("admission.decisions", {{"outcome", "accept"}})->value(), 2);
  EXPECT_EQ(metrics.GetCounter("admission.decisions", {{"outcome", "reject"}})->value(), 1);
}

// ---------------------------------------------------------------------------
// Randomized: every verdict and estimate against a from-scratch reference.

struct ReferenceStream {
  StreamDemand demand;
  bool memory_only = false;
  std::int64_t wired = 0;
};
using ReferenceSet = std::map<SessionId, ReferenceStream>;

// The cache-aware test, rebuilt from the full demand list on every call:
// the plain per-disk model over the disk-charged streams plus one fallback
// reserve (the largest memory-only window), and memory as the bytes wired.
Estimate ReferenceEstimate(const crvol::VolumeAdmissionModel& model, const ReferenceSet& set) {
  std::vector<StreamDemand> charged;
  std::int64_t buffer_bytes = 0;
  const ReferenceStream* reserve = nullptr;
  for (const auto& [id, stream] : set) {
    buffer_bytes += stream.wired;
    if (!stream.memory_only) {
      charged.push_back(stream.demand);
    } else if (reserve == nullptr || model.BytesPerInterval(stream.demand) >
                                         model.BytesPerInterval(reserve->demand)) {
      reserve = &stream;
    }
  }
  if (reserve != nullptr) {
    charged.push_back(reserve->demand);
  }
  return WithBuffer(model, charged, buffer_bytes);
}

bool ReferenceAdmit(const crvol::VolumeAdmissionModel& model, const Estimate& estimate,
                    std::size_t streams, std::int64_t budget) {
  if (estimate.buffer_bytes > budget) {
    return false;
  }
  if (streams > 0 && model.failed_members() > (model.parity() ? 1 : 0)) {
    return false;
  }
  for (int d = 0; d < model.disks(); ++d) {
    if (estimate.per_disk[static_cast<std::size_t>(d)].io_time() > model.disk_model(d).interval()) {
      return false;
    }
  }
  return true;
}

struct SequenceCounts {
  int admitted = 0;
  int rejected = 0;
  int over_memory = 0;  // rejections with the buffer budget exceeded
  int rerated = 0;
  int flipped = 0;
  int shed = 0;
};

SequenceCounts RunRandomSequence(crvol::VolumeAdmissionModel array, std::uint64_t seed) {
  constexpr std::int64_t kBudget = 6 * crbase::kMiB;
  crrt::Kernel kernel;
  AdmissionController controller(kernel, std::move(array), kBudget);
  const crvol::VolumeAdmissionModel& model = controller.model();
  ReferenceSet reference;
  crbase::Rng rng(seed);
  SessionId next_id = 1;
  SequenceCounts counts;
  const bool failed_before = testing::Test::HasFailure();

  const auto pick = [&] {
    auto it = reference.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(rng.NextBelow(reference.size())));
    return it->first;
  };
  // Tries `id` at `stream` against the reference; commits it if admitted.
  const auto try_and_commit = [&](SessionId id, const ReferenceStream& stream) {
    ReferenceSet with = reference;
    with[id] = stream;
    const Estimate want = ReferenceEstimate(model, with);
    const bool want_admit = ReferenceAdmit(model, want, with.size(), kBudget);
    const AdmissionController::Verdict got = controller.Try(id, stream.demand, stream.memory_only);
    ExpectSameEstimate(got.estimate, want);
    EXPECT_EQ(got.admit, want_admit);
    counts.over_memory += want.buffer_bytes > kBudget ? 1 : 0;
    if (got.admit) {
      EXPECT_EQ(controller.Commit(id, stream.demand, stream.memory_only), stream.wired);
      reference = std::move(with);
    }
    return got.admit;
  };
  const auto charge_disk = [&](SessionId id) {
    EXPECT_EQ(controller.ChargeDisk(id), reference.at(id).memory_only);
    reference.at(id).memory_only = false;
  };

  for (int op = 0; op < 1200; ++op) {
    const std::uint64_t kind = rng.NextBelow(100);
    if (kind >= 94) {
      // A member fails (a parity array may lose a second) or is repaired;
      // then the settle loop sheds the highest-rate stream until the set
      // passes again.
      const int disk = static_cast<int>(rng.NextBelow(static_cast<std::uint64_t>(model.disks())));
      if (model.failed_members() == 0 ? rng.NextBelow(3) == 0
                                      : model.parity() && rng.NextBelow(4) == 0) {
        controller.model().SetMemberFailed(disk, true);
      } else {
        for (int d = 0; d < model.disks(); ++d) {
          controller.model().SetMemberFailed(d, false);
        }
      }
      for (;;) {
        const bool want =
            ReferenceAdmit(model, ReferenceEstimate(model, reference), reference.size(), kBudget);
        EXPECT_EQ(controller.Admissible(), want);
        if (want) {
          break;
        }
        const auto victim = std::max_element(
            reference.begin(), reference.end(), [](const auto& a, const auto& b) {
              return a.second.demand.rate_bytes_per_sec < b.second.demand.rate_bytes_per_sec;
            });
        controller.Release(victim->first);
        reference.erase(victim);
        ++counts.shed;
      }
    } else if (kind < 40 || reference.empty()) {
      const StreamDemand demand{50000.0 + static_cast<double>(rng.NextBelow(350000)),
                                1024 + static_cast<std::int64_t>(rng.NextBelow(64 * 1024))};
      const bool memory_only = rng.NextBelow(3) == 0;
      if (try_and_commit(next_id++, {demand, memory_only, model.BufferBytes(demand)})) {
        ++counts.admitted;
      } else {
        ++counts.rejected;
      }
    } else if (kind < 62) {
      const SessionId id = pick();
      controller.Release(id);
      reference.erase(id);
    } else if (kind < 78) {
      // Re-rate, as the server does it: the stream is disk-charged first.
      const SessionId id = pick();
      charge_disk(id);
      static constexpr double kFactors[] = {0.5, 0.75, 1.5, 2.0};
      ReferenceStream stream = reference.at(id);
      stream.demand.rate_bytes_per_sec *= kFactors[rng.NextBelow(4)];
      stream.wired = std::max(stream.wired, model.BufferBytes(stream.demand));
      if (try_and_commit(id, stream)) {
        ++counts.rerated;
      }
    } else {
      const SessionId id = pick();
      counts.flipped += reference.at(id).memory_only ? 1 : 0;
      charge_disk(id);
    }

    // After every call: the whole set's estimate, its charge classes, and
    // wired bytes equal to the reservation, within the budget.
    std::int64_t wired = 0;
    for (const auto& [id, stream] : reference) {
      wired += stream.wired;
      EXPECT_EQ(controller.memory_only(id), stream.memory_only) << "session " << id;
    }
    ExpectSameEstimate(controller.Evaluate(), ReferenceEstimate(model, reference));
    EXPECT_EQ(controller.reserved_bytes(), wired);
    EXPECT_EQ(kernel.wired_bytes(), wired);
    EXPECT_LE(wired, kBudget);
    if (!failed_before && testing::Test::HasFailure()) {
      ADD_FAILURE() << "first mismatch at operation " << op;
      break;
    }
  }
  return counts;
}

TEST(AdmissionController, RandomSequenceMatchesTheReference) {
  struct Case {
    const char* name;
    crvol::VolumeAdmissionModel model;
  };
  const Case cases[] = {{"1 disk", Model(1)},
                        {"4 disks", Model(4)},
                        {"4-disk parity", Model(4, /*parity=*/true)}};
  std::uint64_t seed = 1601;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const SequenceCounts counts = RunRandomSequence(c.model, seed++);
    // Every path ran: admits and rejects (on four disks, some on memory),
    // re-rates, class flips and sheds.
    EXPECT_GT(counts.admitted, 200);
    EXPECT_GT(counts.rejected, 100);
    EXPECT_GT(counts.over_memory, c.model.disks() > 1 ? 0 : -1);
    EXPECT_GT(counts.rerated, 50);
    EXPECT_GT(counts.flipped, 10);
    EXPECT_GT(counts.shed, 0);
  }
}

}  // namespace
}  // namespace cras
