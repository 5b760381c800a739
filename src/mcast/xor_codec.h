// XOR parity codec for grouped repair.
//
// A repair packet carries the bytewise XOR of a *window* of previously sent
// fragments (zero-padded to the longest member). Any receiver that holds all
// but one window fragment recovers the missing one by XOR-ing the parity
// with everything it has — so a single multicast repair packet can fix a
// *different* loss at each receiver, as long as the sender partitions the
// reported gaps so that no receiver is missing two fragments of the same
// window (see GroupSender::RepairTick). The simulation carries no payload,
// so only a parity packet's wire size is computed; GroupReceiver::OnRepair
// applies the decode rule (exactly one window member absent).

#ifndef SRC_MCAST_XOR_CODEC_H_
#define SRC_MCAST_XOR_CODEC_H_

#include <cstdint>
#include <vector>

namespace crmcast {

// Wire size of a parity packet over fragments of the given sizes: the
// longest fragment (the zero-padding never travels compressed — parity is
// as long as its biggest member).
std::int64_t XorParityBytes(const std::vector<std::int64_t>& fragment_bytes);

}  // namespace crmcast

#endif  // SRC_MCAST_XOR_CODEC_H_
