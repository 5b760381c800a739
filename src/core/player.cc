#include "src/core/player.h"

#include <algorithm>

#include "src/base/logging.h"
#include "src/sim/awaitables.h"

namespace cras {

namespace {

// Polling grain while waiting for late data, and the give-up horizon. The
// give-up must not exceed the server's jitter allowance J: a frame later
// than J is discarded by the time-driven rule anyway, and a player that
// keeps waiting for it slips so far that every subsequent chunk has aged out
// before it asks (an unrecoverable spiral). Give up, count the miss, and
// stay on schedule — which is what crs_get semantics imply.
constexpr crbase::Duration kPoll = crbase::Milliseconds(2);
constexpr crbase::Duration kGiveUp = crbase::Milliseconds(100);
// CPU charged per rendered frame (decode/display stand-in).
constexpr crbase::Duration kCpuPerFrame = crbase::Microseconds(200);

}  // namespace

crbase::Duration PlayerStats::max_delay() const {
  crbase::Duration worst = 0;
  for (const FrameRecord& f : frames) {
    worst = std::max(worst, f.delay());
  }
  return worst;
}

std::int64_t PlayerStats::OnTimeBytes(crbase::Duration threshold) const {
  std::int64_t bytes = 0;
  for (const FrameRecord& f : frames) {
    if (f.delay() <= threshold) {
      bytes += f.bytes;
    }
  }
  return bytes;
}

crbase::Duration PlayerStats::mean_delay() const {
  if (frames.empty()) {
    return 0;
  }
  crbase::Duration total = 0;
  for (const FrameRecord& f : frames) {
    total += f.delay();
  }
  return total / static_cast<crbase::Duration>(frames.size());
}

crsim::Task SpawnCrasPlayer(crrt::Kernel& kernel, CrasServer& server,
                            const crmedia::MediaFile& file, const PlayerOptions& options,
                            PlayerStats* stats) {
  return kernel.Spawn(
      "player-" + file.name, crrt::kPriorityClient,
      [&server, &file, options, stats](crrt::ThreadContext& ctx) -> crsim::Task {
        if (options.start_delay > 0) {
          co_await ctx.Sleep(options.start_delay);
        }
        OpenParams params;
        params.inode = file.inode;
        params.index = file.index;
        auto opened = co_await server.Open(std::move(params));
        if (!opened.ok()) {
          stats->open_rejected = true;
          co_return;
        }
        const SessionId id = *opened;
        const crbase::Duration initial_delay =
            options.initial_delay >= 0 ? options.initial_delay : server.SuggestedInitialDelay();
        (void)co_await server.StartStream(id, initial_delay);
        const crbase::Time logical_zero_at = ctx.Now() + initial_delay;
        // The frame-trace ring, if the hub has frame tracing on: the player
        // owns the playout verdict for a locally consumed stream.
        crobs::SessionTrace* ftrace = server.FrameTrace(id);

        const auto& chunks = file.index.chunks();
        const std::int64_t frame_count = static_cast<std::int64_t>(chunks.size());
        for (std::int64_t frame = 0; frame < frame_count; frame += options.frame_step) {
          const crmedia::Chunk& chunk = chunks[static_cast<std::size_t>(frame)];
          if (chunk.timestamp > options.play_length) {
            break;
          }
          const crbase::Time due_at = logical_zero_at + chunk.timestamp;
          if (due_at > ctx.Now()) {
            co_await ctx.Sleep(due_at - ctx.Now());
          }
          // The application must get the CPU before it can fetch the frame:
          // under contention this wait is part of the measured delay (the
          // paper's Figure 10 effect).
          co_await ctx.Compute(kCpuPerFrame);
          // crs_get touches only the shared buffer; poll until the frame
          // lands or the give-up horizon passes.
          bool got = false;
          while (ctx.Now() - due_at < kGiveUp) {
            if (server.WasShed(id)) {
              // The degradation controller closed the session; the stream is
              // over, not late.
              stats->shed = true;
              co_return;
            }
            std::optional<BufferedChunk> buffered = server.Get(id, chunk.timestamp);
            if (buffered.has_value()) {
              FrameRecord record;
              record.frame = frame;
              record.bytes = buffered->size;
              record.due_at = due_at;
              record.obtained_at = std::max(due_at, ctx.Now());
              stats->frames.push_back(record);
              ++stats->frames_played;
              stats->bytes_consumed += buffered->size;
              if (ftrace != nullptr) {
                ftrace->Deliver(frame);
              }
              got = true;
              break;
            }
            co_await ctx.Sleep(kPoll);
          }
          if (!got) {
            if (server.WasShed(id)) {
              stats->shed = true;
              co_return;
            }
            ++stats->frames_missed;
            if (ftrace != nullptr) {
              ftrace->Miss(frame, crobs::FrameStage::kPlayout);
            }
            continue;
          }
        }
        (void)co_await server.StopStream(id);
        (void)co_await server.Close(id);
      });
}

crsim::Task SpawnUfsPlayer(crrt::Kernel& kernel, crufs::UnixServer& server,
                           const crmedia::MediaFile& file, const PlayerOptions& options,
                           PlayerStats* stats) {
  return kernel.Spawn(
      "ufs-player-" + file.name, crrt::kPriorityClient,
      [&server, &file, options, stats](crrt::ThreadContext& ctx) -> crsim::Task {
        if (options.start_delay > 0) {
          co_await ctx.Sleep(options.start_delay);
        }
        const crbase::Time start = ctx.Now();
        const auto& chunks = file.index.chunks();
        const std::int64_t frame_count = static_cast<std::int64_t>(chunks.size());
        for (std::int64_t frame = 0; frame < frame_count; frame += options.frame_step) {
          const crmedia::Chunk& chunk = chunks[static_cast<std::size_t>(frame)];
          if (chunk.timestamp > options.play_length) {
            break;
          }
          const crbase::Time due_at = start + chunk.timestamp;
          if (due_at > ctx.Now()) {
            co_await ctx.Sleep(due_at - ctx.Now());
          }
          co_await ctx.Compute(kCpuPerFrame);
          crbase::Status st = co_await server.Read(file.inode, chunk.offset, chunk.size);
          if (!st.ok()) {
            ++stats->frames_missed;
            continue;
          }
          FrameRecord record;
          record.frame = frame;
          record.bytes = chunk.size;
          record.due_at = due_at;
          record.obtained_at = ctx.Now();
          stats->frames.push_back(record);
          ++stats->frames_played;
          stats->bytes_consumed += chunk.size;
        }
      });
}

}  // namespace cras
