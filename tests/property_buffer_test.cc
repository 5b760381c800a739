// Property tests for the time-driven shared buffer: invariants under random
// operation sequences, swept over capacities and jitter allowances.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <optional>
#include <vector>

#include "src/base/random.h"
#include "src/core/time_driven_buffer.h"

namespace cras {
namespace {

using crbase::Duration;
using crbase::Milliseconds;
using crbase::Time;

struct BufferCase {
  const char* name;
  std::int64_t capacity_frames;
  std::int64_t jitter_ms;
  std::uint64_t seed;
};

// The listed test name shows the case name; gtest's default prints raw
// bytes, pointer included, which change from build to build.
void PrintTo(const BufferCase& c, std::ostream* os) { *os << c.name; }

class BufferInvariants : public ::testing::TestWithParam<BufferCase> {};

TEST_P(BufferInvariants, RandomOperationSequencePreservesInvariants) {
  const BufferCase& c = GetParam();
  const Duration frame = Milliseconds(33);
  const std::int64_t frame_bytes = 6250;
  TimeDrivenBuffer buffer(c.capacity_frames * frame_bytes, Milliseconds(c.jitter_ms));
  const Duration jitter = buffer.jitter_allowance();
  crbase::Rng rng(c.seed);

  // A reference model: the buffer's rules over a map keyed by timestamp.
  // Chunks age out once they end at or before logical - J, a chunk already
  // that old is rejected, a put at a resident timestamp replaces it, and the
  // capacity bound evicts the oldest resident chunks first.
  struct ModelChunk {
    std::int64_t index;
    std::int64_t size;
  };
  std::map<Time, ModelChunk> model;
  std::int64_t model_bytes = 0;
  TimeDrivenBufferStats expected;
  auto model_discard = [&](Time logical_now) {
    while (!model.empty() && model.begin()->first + frame <= logical_now - jitter) {
      model_bytes -= model.begin()->second.size;
      model.erase(model.begin());
      ++expected.discarded_obsolete;
    }
  };
  auto model_put = [&](std::int64_t index, std::int64_t size, Time logical_now) {
    model_discard(logical_now);
    const Time timestamp = index * frame;
    if (timestamp + frame <= logical_now - jitter) {
      ++expected.rejected_late;
      return;
    }
    if (auto it = model.find(timestamp); it != model.end()) {
      model_bytes -= it->second.size;
      model.erase(it);
      ++expected.replaced;
    }
    while (model_bytes + size > buffer.capacity_bytes() && !model.empty()) {
      model_bytes -= model.begin()->second.size;
      model.erase(model.begin());
      ++expected.overflow_evictions;
    }
    model[timestamp] = ModelChunk{index, size};
    model_bytes += size;
    expected.max_resident_bytes = std::max(expected.max_resident_bytes, model_bytes);
    ++expected.puts;
  };
  auto model_get = [&](Time t) -> std::optional<ModelChunk> {
    auto it = model.upper_bound(t);
    if (it == model.begin() || t >= std::prev(it)->first + frame) {
      return std::nullopt;
    }
    return std::prev(it)->second;
  };

  // The producer runs at most `lead` ahead of logical time, a little more
  // than the buffer holds, so capacity eviction, aging out and late arrival
  // all happen, and gets probe both resident and absent chunks.
  const Duration lead = (c.capacity_frames + 2) * frame;
  const std::int64_t lead_ms = lead / Milliseconds(1);
  Time logical = 0;
  std::int64_t produced = 0;
  std::vector<std::int64_t> skipped;  // jumped over; put later, out of order

  for (int step = 0; step < 3000; ++step) {
    const std::uint64_t op = rng.NextBelow(100);
    if (op < 50) {
      // Mostly the next chunk in order. Sometimes (and always when the
      // producer is a full lead ahead) a repeat of a recent chunk, resident
      // or already aged out; a jump ahead that leaves a gap; or a chunk from
      // such a gap arriving out of order.
      const bool ahead = produced * frame > logical + lead;
      std::int64_t index;
      if ((op < 5 || ahead) && produced > 0) {
        const auto recent = static_cast<std::uint64_t>(
            std::min<std::int64_t>(produced, 2 * (c.capacity_frames + 2)));
        index = produced - 1 - static_cast<std::int64_t>(rng.NextBelow(recent));
      } else if (op < 10 && !skipped.empty()) {
        const std::size_t pick = rng.NextBelow(skipped.size());
        index = skipped[pick];
        skipped.erase(skipped.begin() + static_cast<std::ptrdiff_t>(pick));
      } else {
        if (op < 15) {
          for (std::uint64_t gap = 1 + rng.NextBelow(3); gap > 0; --gap) {
            skipped.push_back(produced++);
          }
        }
        index = produced++;
      }
      BufferedChunk chunk;
      chunk.chunk_index = index;
      chunk.timestamp = index * frame;
      chunk.duration = frame;
      chunk.size = frame_bytes / 2 + static_cast<std::int64_t>(
                                         rng.NextBelow(static_cast<std::uint64_t>(frame_bytes)));
      buffer.Put(chunk, logical);
      model_put(index, chunk.size, logical);
    } else if (op < 75) {
      // Advance logical time and sweep: small steps, and now and then a jump
      // that ages out the resident chunks and leaves the producer behind.
      const Duration advance = rng.NextBelow(50) == 0
                                   ? static_cast<Duration>(rng.NextBelow(10)) * Milliseconds(100)
                                   : static_cast<Duration>(rng.NextBelow(40)) * Milliseconds(1);
      logical += advance;
      buffer.DiscardObsolete(logical);
      model_discard(logical);
    } else {
      // Random get: the same hit or miss as the model, and the same chunk.
      const Time t =
          logical + rng.NextInRange(-(c.jitter_ms + 200), lead_ms + 200) * Milliseconds(1);
      std::optional<BufferedChunk> got = buffer.Get(t);
      std::optional<ModelChunk> want = model_get(t);
      if (want.has_value()) {
        ++expected.get_hits;
      } else {
        ++expected.get_misses;
      }
      ASSERT_EQ(got.has_value(), want.has_value()) << "step " << step << ", t = " << t;
      if (got.has_value()) {
        EXPECT_EQ(got->chunk_index, want->index) << "step " << step;
        EXPECT_EQ(got->timestamp, want->index * frame);
        EXPECT_EQ(got->size, want->size);
        EXPECT_LE(got->timestamp, t);
        EXPECT_GT(got->timestamp + got->duration, t);
      }
    }

    // Invariants: the buffer holds exactly the model's chunks, and resident
    // bytes never exceed capacity.
    ASSERT_EQ(buffer.resident_chunks(), model.size()) << "step " << step;
    EXPECT_EQ(buffer.resident_bytes(), model_bytes);
    EXPECT_LE(buffer.resident_bytes(), buffer.capacity_bytes());
  }
  const TimeDrivenBufferStats& stats = buffer.stats();
  EXPECT_EQ(stats.puts, expected.puts);
  EXPECT_EQ(stats.get_hits, expected.get_hits);
  EXPECT_EQ(stats.get_misses, expected.get_misses);
  EXPECT_EQ(stats.discarded_obsolete, expected.discarded_obsolete);
  EXPECT_EQ(stats.overflow_evictions, expected.overflow_evictions);
  EXPECT_EQ(stats.rejected_late, expected.rejected_late);
  EXPECT_EQ(stats.replaced, expected.replaced);
  EXPECT_EQ(stats.max_resident_bytes, expected.max_resident_bytes);
  // Accounting identity over the whole run: every accepted put is resident,
  // aged out, capacity-evicted, or replaced by a duplicate.
  EXPECT_EQ(stats.puts,
            static_cast<std::int64_t>(buffer.resident_chunks()) + stats.discarded_obsolete +
                stats.overflow_evictions + stats.replaced);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BufferInvariants,
    ::testing::Values(BufferCase{"tiny_no_jitter", 4, 0, 11},
                      BufferCase{"tiny_jittered", 4, 100, 22},
                      BufferCase{"interval_sized", 32, 100, 33},
                      BufferCase{"interval_sized_alt_seed", 32, 100, 44},
                      BufferCase{"large_long_jitter", 256, 500, 55},
                      BufferCase{"large_no_jitter", 256, 0, 66}),
    [](const ::testing::TestParamInfo<BufferCase>& info) { return info.param.name; });

}  // namespace
}  // namespace cras
