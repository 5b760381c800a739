#include "src/mcast/group_manager.h"

#include <algorithm>

namespace crmcast {

void GroupManager::AttachObs(crobs::Hub* hub) {
  bound_.Release();
  if (hub == nullptr) {
    obs_ = ObsState{};
    return;
  }
  crobs::Registry& metrics = hub->metrics();
  obs_.hub = hub;
  obs_.groups = metrics.GetGauge("mcast.groups");
  obs_.group_size = metrics.GetGauge("mcast.group_size");
  bound_.Counter(metrics, "mcast.groups_formed", {}, stats_.groups_formed);
  bound_.Counter(metrics, "mcast.members_joined", {}, stats_.members_joined);
  bound_.Counter(metrics, "mcast.members_left", {}, stats_.members_left);
  UpdateGauges();
}

void GroupManager::UpdateGauges() {
  if (obs_.groups != nullptr) {
    obs_.groups->Set(static_cast<double>(groups_.size()));
  }
  if (obs_.group_size != nullptr) {
    std::size_t largest = 0;
    for (const auto& [id, group] : groups_) {
      largest = std::max(largest, group.members.size());
    }
    obs_.group_size->Set(static_cast<double>(largest));
  }
}

JoinPlan GroupManager::PlanJoin(TitleId title, std::int64_t prefix_end_chunk) const {
  JoinPlan plan;
  // Newest group first: its cursor is the least advanced, so its merge
  // point needs the least prefix coverage.
  for (auto it = groups_.rbegin(); it != groups_.rend(); ++it) {
    const Group& group = it->second;
    if (group.title != title) {
      continue;
    }
    std::int64_t merge = 0;
    if (group.ship_cursor > 0) {
      // Feed already rolling: the joiner must bridge [0, merge) from the
      // pinned prefix — no coverage, no group.
      merge = group.ship_cursor + kMergeMarginChunks;
      if (merge > prefix_end_chunk) {
        continue;
      }
    }
    plan.joined = true;
    plan.group = group.id;
    plan.feed = group.feed;
    plan.merge_chunk = merge;
    return plan;
  }
  return plan;
}

GroupId GroupManager::CreateGroup(TitleId title, SessionId feed) {
  const GroupId id = next_group_++;
  Group group;
  group.id = id;
  group.title = title;
  group.feed = feed;
  groups_.emplace(id, std::move(group));
  feed_group_.emplace(feed, id);
  ++stats_.groups_formed;
  if (obs_.hub != nullptr) {
    obs_.hub->flight().Record(crobs::FlightEventKind::kGroupFormed, id, feed);
  }
  UpdateGauges();
  return id;
}

void GroupManager::AddMember(GroupId group, SessionId member, std::int64_t merge_chunk) {
  auto it = groups_.find(group);
  if (it == groups_.end()) {
    return;
  }
  it->second.members.push_back(member);
  member_group_[member] = group;
  member_merge_[member] = merge_chunk;
  ++stats_.members_joined;
  if (obs_.hub != nullptr) {
    obs_.hub->flight().Record(crobs::FlightEventKind::kGroupJoined, member, group,
                              static_cast<double>(merge_chunk));
  }
  UpdateGauges();
}

SessionId GroupManager::RemoveMember(SessionId member, const std::string& reason) {
  auto mit = member_group_.find(member);
  if (mit == member_group_.end()) {
    return kNoSession;
  }
  const GroupId group_id = mit->second;
  member_group_.erase(mit);
  member_merge_.erase(member);
  ++stats_.members_left;
  if (obs_.hub != nullptr) {
    obs_.hub->flight().Record(crobs::FlightEventKind::kGroupLeft, member, group_id, 0,
                              reason);
  }
  SessionId feed_to_close = kNoSession;
  auto git = groups_.find(group_id);
  if (git != groups_.end()) {
    Group& group = git->second;
    group.members.erase(std::remove(group.members.begin(), group.members.end(), member),
                        group.members.end());
    if (group.members.empty()) {
      feed_to_close = group.feed;
      feed_group_.erase(group.feed);
      groups_.erase(git);
      ++stats_.groups_dissolved;
    }
  }
  UpdateGauges();
  return feed_to_close;
}

std::vector<SessionId> GroupManager::DissolveByFeed(SessionId feed) {
  std::vector<SessionId> members;
  auto fit = feed_group_.find(feed);
  if (fit == feed_group_.end()) {
    return members;
  }
  const GroupId group_id = fit->second;
  feed_group_.erase(fit);
  auto git = groups_.find(group_id);
  if (git != groups_.end()) {
    members = git->second.members;
    groups_.erase(git);
    ++stats_.groups_dissolved;
  }
  for (const SessionId member : members) {
    member_group_.erase(member);
    member_merge_.erase(member);
    ++stats_.members_left;
    if (obs_.hub != nullptr) {
      obs_.hub->flight().Record(crobs::FlightEventKind::kGroupLeft, member, group_id, 0,
                                "dissolved");
    }
  }
  UpdateGauges();
  return members;
}

GroupId GroupManager::GroupOf(SessionId member) const {
  auto it = member_group_.find(member);
  return it == member_group_.end() ? kNoGroup : it->second;
}

SessionId GroupManager::FeedOf(GroupId group) const {
  auto it = groups_.find(group);
  return it == groups_.end() ? kNoSession : it->second.feed;
}

std::int64_t GroupManager::MergeChunkOf(SessionId member) const {
  auto it = member_merge_.find(member);
  return it == member_merge_.end() ? 0 : it->second;
}

void GroupManager::NoteShipCursor(GroupId group, std::int64_t next_chunk) {
  auto it = groups_.find(group);
  if (it != groups_.end()) {
    it->second.ship_cursor = std::max(it->second.ship_cursor, next_chunk);
  }
}

}  // namespace crmcast
