// Delivery groups: batching same-title viewers onto one disk feed.
//
// A *delivery group* is a set of viewer sessions of one title whose playout
// positions are compatible enough to share a single server-side *feed*
// session. The feed is the only disk-charged stream of the group — it reads
// each interval once and the multicast layer (GroupSender, src/mcast/
// group_transport.h) fans the chunks out to every member. Members are
// admission-charged like cache-served streams: their buffer memory is real,
// their disk time is not, and the shared fallback reserve covers the
// transition window when a member is demoted back to unicast disk service.
// The feed itself is admitted at 1.05 times the stream rate, the margin
// reserved for XOR repair traffic (kRepairOverhead in src/core/cras.cc).
//
// Joining is position-aware. A group that has not shipped anything yet
// accepts any newcomer (the classic batching window before the first viewer
// starts). Once the feed is rolling, a late joiner may only join when the
// pinned prefix of the title (PR 6 prefix cache) covers the *bridge*: the
// chunks between the newcomer's start and the merge point just ahead of the
// feed's shipping cursor. The bridge is served unicast from the prefix
// cache (zero disk I/O) until the member merges into the multicast stream
// at `merge_chunk`.
//
// The manager is pure bookkeeping — no I/O, no timers — so CrasServer can
// consult it synchronously inside admission, and the transport can poll it
// between shipping rounds. It is the one record of membership: the server
// asks it which group a session is in (GroupOf), where a member merges
// (MergeChunkOf) and which sessions are feeds (IsFeed). Demotion/teardown
// policy lives in CrasServer (DemoteGroupMember, EndSession); the manager
// only records membership and emits the group_formed / group_joined /
// group_left flight events.

#ifndef SRC_MCAST_GROUP_MANAGER_H_
#define SRC_MCAST_GROUP_MANAGER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"

namespace crmcast {

using SessionId = std::int64_t;
using TitleId = std::int64_t;
using GroupId = std::int64_t;

inline constexpr SessionId kNoSession = -1;
inline constexpr GroupId kNoGroup = -1;
// Slack added to the feed's shipping cursor when computing a late joiner's
// merge point, covering fragments already past the cursor but still in
// flight.
inline constexpr std::int64_t kMergeMarginChunks = 2;

struct McastOptions {
  bool enabled = false;
};

// Outcome of PlanJoin / the feed-creation path in CrasServer::HandleOpen.
struct JoinPlan {
  bool joined = false;
  GroupId group = kNoGroup;
  SessionId feed = kNoSession;
  // Members schedule their own (cache-bridged) I/O only for chunks
  // [0, merge_chunk); everything at or past it arrives via multicast.
  std::int64_t merge_chunk = 0;
};

struct GroupManagerStats {
  std::int64_t groups_formed = 0;
  std::int64_t groups_dissolved = 0;
  std::int64_t members_joined = 0;
  std::int64_t members_left = 0;
};

class GroupManager {
 public:
  GroupManager() = default;
  GroupManager(const GroupManager&) = delete;
  GroupManager& operator=(const GroupManager&) = delete;

  void AttachObs(crobs::Hub* hub);

  // Whether (and where) a new viewer of `title` can join an existing group.
  // `prefix_end_chunk` is the pinned-prefix coverage of the title (0 when
  // nothing is pinned); the newest group whose merge point the prefix can
  // bridge wins. Returns joined=false when the caller must open a feed and
  // form a fresh group.
  JoinPlan PlanJoin(TitleId title, std::int64_t prefix_end_chunk) const;

  GroupId CreateGroup(TitleId title, SessionId feed);
  void AddMember(GroupId group, SessionId member, std::int64_t merge_chunk);

  // Removes a member (close, shed, or demote-to-unicast). Returns the
  // group's feed session when the departure emptied the group — the caller
  // owns closing it — else kNoSession.
  SessionId RemoveMember(SessionId member, const std::string& reason);

  // The feed session is going away: the whole group dissolves. Returns the
  // members that were attached; the caller demotes each to unicast disk
  // service (never a silent miss).
  std::vector<SessionId> DissolveByFeed(SessionId feed);

  GroupId GroupOf(SessionId member) const;
  bool IsFeed(SessionId session) const { return feed_group_.count(session) != 0; }
  SessionId FeedOf(GroupId group) const;
  std::int64_t MergeChunkOf(SessionId member) const;
  bool Alive(GroupId group) const { return groups_.count(group) != 0; }

  // The transport reports how far the feed has multicast; PlanJoin uses the
  // cursor to place merge points for late joiners.
  void NoteShipCursor(GroupId group, std::int64_t next_chunk);

  std::size_t group_count() const { return groups_.size(); }
  const GroupManagerStats& stats() const { return stats_; }

 private:
  struct Group {
    GroupId id = kNoGroup;
    TitleId title = 0;
    SessionId feed = kNoSession;
    std::int64_t ship_cursor = 0;
    std::vector<SessionId> members;
  };

  struct ObsState {
    crobs::Hub* hub = nullptr;
    crobs::Gauge* groups = nullptr;
    crobs::Gauge* group_size = nullptr;
  };

  void UpdateGauges();

  std::map<GroupId, Group> groups_;
  std::map<SessionId, GroupId> member_group_;
  std::map<SessionId, std::int64_t> member_merge_;
  std::map<SessionId, GroupId> feed_group_;
  GroupId next_group_ = 1;
  GroupManagerStats stats_;
  // The mcast.groups_formed / members_joined / members_left series.
  crobs::Bindings bound_;
  ObsState obs_;
};

}  // namespace crmcast

#endif  // SRC_MCAST_GROUP_MANAGER_H_
