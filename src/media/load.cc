#include "src/media/load.h"

#include "src/base/logging.h"

namespace crmedia {

namespace {

// Bytes per read() call: `cat` on an 8 KiB-block FFS reads a block at a time.
constexpr std::int64_t kCatReadSize = 8 * 1024;
// Each burst of CPU work, back to back: a pure compute-bound loop.
constexpr crbase::Duration kHogBurst = crbase::Milliseconds(20);

}  // namespace

crsim::Task SpawnCat(crrt::Kernel& kernel, crufs::UnixServer& server, crufs::InodeNumber inode,
                     const std::string& name, const CatOptions& options) {
  return kernel.Spawn(name, crrt::kPriorityTimesharing,
                      [&server, inode, options](crrt::ThreadContext& ctx) -> crsim::Task {
                        std::int64_t offset = 0;
                        for (;;) {
                          crbase::Status st =
                              co_await server.Read(inode, offset, kCatReadSize);
                          if (!st.ok()) {
                            // Past EOF: wrap around and keep streaming.
                            offset = 0;
                            continue;
                          }
                          offset += kCatReadSize;
                          if (options.think_time > 0) {
                            co_await ctx.Sleep(options.think_time);
                          }
                        }
                      });
}

crsim::Task SpawnCpuHog(crrt::Kernel& kernel, const std::string& name) {
  return kernel.Spawn(name, crrt::kPriorityTimesharing,
                      [](crrt::ThreadContext& ctx) -> crsim::Task {
                        for (;;) {
                          co_await ctx.Compute(kHogBurst);
                        }
                      });
}

}  // namespace crmedia
