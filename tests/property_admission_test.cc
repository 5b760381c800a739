// Property tests (parameterized sweeps) for the admission model and its
// central soundness claim: any stream set the test admits plays with zero
// deadline misses and zero frame misses on the simulated hardware.

#include <gtest/gtest.h>

#include "src/base/random.h"
#include "src/core/player.h"
#include "src/core/testbed.h"
#include "src/media/load.h"
#include "src/media/media_file.h"
#include "src/volume/admission.h"

namespace cras {
namespace {

using crbase::Milliseconds;
using crbase::Seconds;

// ---------------------------------------------------------------------------
// Pure-model properties over a grid of intervals and request counts.
// ---------------------------------------------------------------------------

class AdmissionFormulaProperty : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(AdmissionFormulaProperty, OverheadDecomposesPerAppendixC) {
  const std::int64_t n = GetParam();
  const DiskParams params = MeasuredSt32550nParams();
  AdmissionModel model(params, Seconds(1), 256 * crbase::kKiB);
  const crbase::Duration o_total = model.TotalOverhead(n);
  // Recompute from the individual formulas (9)-(13).
  const crbase::Duration o_other = params.t_cmd + params.t_seek_max + params.t_rot +
                                   crbase::TransferTime(params.b_other, params.transfer_rate);
  const crbase::Duration o_cmd = n * params.t_cmd;
  const crbase::Duration o_rot = n * params.t_rot;
  const crbase::Duration o_seek =
      n == 1 ? params.t_seek_max
             : 2 * params.t_seek_max + (n - 2) * params.t_seek_min;
  EXPECT_NEAR(static_cast<double>(o_total),
              static_cast<double>(o_other + o_cmd + o_rot + o_seek), 2.0)
      << "N=" << n;
}

TEST_P(AdmissionFormulaProperty, EstimateScalesLinearlyInStreams) {
  const std::int64_t n = GetParam();
  AdmissionModel model(MeasuredSt32550nParams(), Milliseconds(500), 256 * crbase::kKiB);
  const StreamDemand demand{187500.0, 6250};
  std::vector<StreamDemand> streams(static_cast<std::size_t>(n), demand);
  const AdmissionEstimate estimate = model.Evaluate(streams);
  EXPECT_EQ(estimate.bytes, n * model.BytesPerInterval(demand));
  EXPECT_EQ(estimate.buffer_bytes, n * model.BufferBytes(demand));
  EXPECT_EQ(estimate.requests, n * model.RequestsPerInterval(demand));
}

INSTANTIATE_TEST_SUITE_P(RequestCounts, AdmissionFormulaProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------------------------------------------------------------------------
// Soundness: admitted => plays cleanly. Swept over intervals and mixes.
// ---------------------------------------------------------------------------

struct SoundnessCase {
  const char* name;
  double interval_s;
  int mpeg1;        // how many 1.5 Mb/s streams to attempt
  int mpeg2;        // how many 6 Mb/s streams to attempt
  bool background;  // cat readers present
};

class AdmissionSoundness : public ::testing::TestWithParam<SoundnessCase> {};

TEST_P(AdmissionSoundness, AdmittedStreamsNeverMissDeadlines) {
  const SoundnessCase& c = GetParam();
  VolumeTestbedOptions options;
  options.cras.interval = crbase::SecondsF(c.interval_s);
  options.cras.memory_budget_bytes = 32 * crbase::kMiB;
  VolumeTestbed bed(options);
  bed.StartServers();

  const crbase::Duration play = Seconds(6);
  std::vector<crmedia::MediaFile> files;
  for (int i = 0; i < c.mpeg1; ++i) {
    files.push_back(*crmedia::WriteMpeg1File(bed.fs, "m1_" + std::to_string(i), play + Seconds(8)));
  }
  for (int i = 0; i < c.mpeg2; ++i) {
    files.push_back(*crmedia::WriteMpeg2File(bed.fs, "m2_" + std::to_string(i), play + Seconds(8)));
  }
  std::vector<crsim::Task> cats;
  if (c.background) {
    auto food = crmedia::WriteMpeg1File(bed.fs, "catfood", Seconds(60));
    cats.push_back(crmedia::SpawnCat(bed.kernel, bed.unix_server, food->inode, "cat"));
  }

  std::vector<std::unique_ptr<PlayerStats>> stats;
  std::vector<crsim::Task> players;
  PlayerOptions player_options;
  player_options.play_length = play;
  int i = 0;
  for (const auto& file : files) {
    player_options.start_delay = Milliseconds(113) * i++;
    stats.push_back(std::make_unique<PlayerStats>());
    players.push_back(
        SpawnCrasPlayer(bed.kernel, bed.cras_server, file, player_options, stats.back().get()));
  }
  bed.engine().RunFor(play + Seconds(10) + Milliseconds(113) * i);

  int admitted = 0;
  for (const auto& s : stats) {
    if (s->open_rejected) {
      continue;
    }
    ++admitted;
    // The guarantee: every admitted stream delivers every frame, within
    // half a frame period (the residual delay is client-side CPU queueing
    // among the many players, not data lateness — data lateness shows up
    // as frames_missed or deadline misses).
    EXPECT_EQ(s->frames_missed, 0);
    EXPECT_LE(s->max_delay(), Milliseconds(16));
  }
  EXPECT_GT(admitted, 0) << "test case admitted nothing; not exercising the property";
  EXPECT_EQ(bed.cras_server.stats().deadline_misses, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, AdmissionSoundness,
    ::testing::Values(SoundnessCase{"five_mpeg1", 0.5, 5, 0, false},
                      SoundnessCase{"capacity_mpeg1", 0.5, 14, 0, false},
                      SoundnessCase{"overload_mpeg1", 0.5, 20, 0, false},
                      SoundnessCase{"mpeg2_pair", 1.0, 0, 2, false},
                      SoundnessCase{"mixed_unloaded", 1.0, 6, 2, false},
                      SoundnessCase{"mixed_loaded", 1.0, 6, 2, true},
                      SoundnessCase{"long_interval", 3.0, 10, 1, true}),
    [](const ::testing::TestParamInfo<SoundnessCase>& info) { return info.param.name; });

// ---------------------------------------------------------------------------
// VBR safety: a stream admitted at its worst-case rate plays cleanly even
// though its instantaneous rate fluctuates (paper §3.2 problem 1 is about
// the memory cost of this, not its correctness).
// ---------------------------------------------------------------------------

class VbrSoundness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VbrSoundness, WorstRateDeclarationCoversFluctuations) {
  VolumeTestbedOptions options;
  VolumeTestbed bed(options);
  bed.StartServers();
  crbase::Rng rng(GetParam());
  crmedia::ChunkIndex index =
      crmedia::BuildVbrIndex(crmedia::kMpeg1BytesPerSec, 0.6, 30.0, Seconds(14), rng);
  auto file = crmedia::WriteMediaFile(bed.fs, "vbr", std::move(index));
  ASSERT_TRUE(file.ok());
  PlayerStats stats;
  PlayerOptions player_options;
  player_options.play_length = Seconds(10);
  crsim::Task player =
      SpawnCrasPlayer(bed.kernel, bed.cras_server, *file, player_options, &stats);
  bed.engine().RunFor(Seconds(16));
  ASSERT_FALSE(stats.open_rejected);
  EXPECT_EQ(stats.frames_missed, 0);
  EXPECT_LE(stats.max_delay(), Milliseconds(5));
  const TimeDrivenBufferStats* buffer = nullptr;
  (void)buffer;  // buffer closed with the session; overflow shows in misses
  EXPECT_EQ(bed.cras_server.stats().deadline_misses, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VbrSoundness, ::testing::Values(1u, 7u, 42u, 1234u, 99999u));

}  // namespace
}  // namespace cras
