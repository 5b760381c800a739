#include "src/net/stats_query.h"

#include <memory>
#include <sstream>
#include <utility>

namespace crnet {

namespace {
// Baselines retained for delta queries. Small and bounded: a client that
// falls more than this many polls behind simply re-anchors on a full
// snapshot.
constexpr std::size_t kMaxBaselines = 8;
}  // namespace

StatsQueryService::StatsQueryService(crrt::Kernel& kernel, const crobs::Hub& hub, Link* link,
                                     const Options& options)
    : kernel_(&kernel), hub_(&hub), link_(link), options_(options), port_(kernel.engine()) {}

StatsQueryService::StatsQueryService(crrt::Kernel& kernel, const crobs::Hub& hub, Link* link)
    : StatsQueryService(kernel, hub, link, Options{}) {}

StatsQueryService::~StatsQueryService() {
  // Queries still queued hold their clients' parked chains; draining them
  // lets each message's ParkedHandle reclaim its client.
  QueryMsg msg;
  while (port_.TryReceive(&msg)) {
  }
}

void StatsQueryService::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  thread_ = kernel_->Spawn("stats-query", options_.priority,
                           [this](crrt::ThreadContext& ctx) { return ServiceThread(ctx); });
}

std::string StatsQueryService::RenderDelta(std::uint64_t since) {
  const crbase::Time now = kernel_->Now();
  crobs::RegistrySnapshot current = hub_->metrics().Snapshot();

  const Baseline* base = nullptr;
  for (const Baseline& b : baselines_) {
    if (b.cursor == since) {
      base = &b;
      break;
    }
  }

  std::ostringstream out;
  out << "{\"sim_time_ns\": " << now << ", \"cursor\": " << next_cursor_
      << ", \"since\": " << since << ", \"window_ns\": "
      << (base != nullptr ? now - base->at : now) << ", \"baseline_missing\": "
      << (base == nullptr ? "true" : "false") << ", \"metrics\": ";
  if (base != nullptr) {
    crobs::DeltaSnapshot(base->snapshot, current).WriteJson(out);
  } else {
    current.WriteJson(out);
  }
  out << "}";

  Baseline next;
  next.cursor = next_cursor_++;
  next.at = now;
  next.snapshot = std::move(current);
  baselines_.push_back(std::move(next));
  while (baselines_.size() > kMaxBaselines) {
    baselines_.pop_front();
  }
  return std::move(out).str();
}

crsim::Task StatsQueryService::ServiceThread(crrt::ThreadContext& ctx) {
  for (;;) {
    QueryMsg msg = co_await port_.Receive();
    co_await ctx.Compute(options_.cpu_per_query);
    std::string json;
    if (msg.dump) {
      json = hub_->flight().RenderDump(msg.reason);
    } else if (msg.slo) {
      json = hub_->slo().StateJson();
    } else if (msg.delta) {
      json = RenderDelta(msg.since);
    } else {
      json = hub_->MetricsJson(msg.prefix);
    }
    ++stats_.queries;
    stats_.reply_bytes += static_cast<std::int64_t>(json.size());
    if (link_ == nullptr) {
      msg.Complete(std::move(json));
      continue;
    }
    // The reply is real traffic: it serializes onto the wire behind any
    // stream packets already queued. One logical packet — fragmentation
    // would not change the arrival time of the final byte on a FIFO link.
    auto reply = std::make_shared<QueryMsg>(std::move(msg));
    auto payload = std::make_shared<std::string>(std::move(json));
    const std::int64_t bytes = static_cast<std::int64_t>(payload->size());
    const bool sent = link_->Send(bytes, [reply, payload] {
      reply->Complete(std::move(*payload));
    });
    if (!sent) {
      // Transmit queue full: fail the query with an empty reply rather than
      // leaving the client parked forever.
      reply->Complete(std::string());
    }
  }
}

}  // namespace crnet
