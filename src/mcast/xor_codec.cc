#include "src/mcast/xor_codec.h"

#include <algorithm>

namespace crmcast {

std::int64_t XorParityBytes(const std::vector<std::int64_t>& fragment_bytes) {
  std::int64_t longest = 0;
  for (const std::int64_t bytes : fragment_bytes) {
    longest = std::max(longest, bytes);
  }
  return longest;
}

}  // namespace crmcast
