#include "src/net/link.h"

#include <algorithm>
#include <utility>

#include "src/base/bytes.h"
#include "src/base/logging.h"

namespace crnet {

Link::Link(crsim::Engine& engine, const Options& options)
    : engine_(&engine),
      options_(options),
      impairments_(options.impairments),
      rng_(options.impairment_seed) {
  CRAS_CHECK(options.bandwidth_bytes_per_sec > 0);
  CRAS_CHECK(options.propagation_delay >= 0);
  CRAS_CHECK(impairments_.bandwidth_derating >= 1.0);
}

Link::Link(crsim::Engine& engine) : Link(engine, Options{}) {}

std::optional<Time> Link::Accept(std::int64_t bytes) {
  CRAS_CHECK(bytes > 0);
  const Time now = engine_->Now();
  while (!unfinished_.empty() && unfinished_.front() <= now) {
    unfinished_.pop_front();
  }
  // The packet on the wire does not count against the queue bound.
  const std::size_t queued = unfinished_.empty() ? 0 : unfinished_.size() - 1;
  if (options_.queue_limit != 0 && queued >= options_.queue_limit) {
    ++stats_.packets_dropped;
    ++stats_.tx_queue_drops;
    return std::nullopt;
  }
  const double rate = options_.bandwidth_bytes_per_sec / impairments_.bandwidth_derating;
  const Duration wire_time = crbase::TransferTime(bytes + options_.per_packet_overhead, rate);
  free_at_ = std::max(now, free_at_) + wire_time;
  committed_wire_time_ += wire_time;
  unfinished_.push_back(free_at_);
  stats_.max_queue_depth = std::max(stats_.max_queue_depth, unfinished_.size());
  stats_.bytes_sent += bytes;
  return free_at_;
}

bool Link::Send(std::int64_t bytes, std::function<void()> deliver) {
  const std::optional<Time> end = Accept(bytes);
  if (!end.has_value()) {
    return false;
  }
  ++stats_.packets_sent;
  if (DrawWireLoss()) {
    ++stats_.packets_dropped;
    ++stats_.wire_drops;
  } else {
    DeliverOne(*end, bytes, std::move(deliver), /*multicast=*/false);
  }
  return true;
}

bool Link::Multicast(std::int64_t bytes, std::vector<std::function<void()>> delivers) {
  CRAS_CHECK(!delivers.empty());
  const std::optional<Time> end = Accept(bytes);
  if (!end.has_value()) {
    return false;
  }
  ++stats_.mcast_packets_sent;
  // One serialized packet, N receivers: the shared loss state advances
  // once, then every receiver draws its fate (and jitter) on its own.
  StepLossState();
  for (std::function<void()>& deliver : delivers) {
    if (DrawLossNow()) {
      ++stats_.mcast_receiver_drops;
    } else {
      DeliverOne(*end, bytes, std::move(deliver), /*multicast=*/true);
    }
  }
  return true;
}

LinkStats Link::stats() const {
  LinkStats stats = stats_;
  stats.busy_time = SpentWireTime();
  return stats;
}

std::size_t Link::queue_depth() const {
  const auto ended = std::upper_bound(unfinished_.begin(), unfinished_.end(), engine_->Now());
  return static_cast<std::size_t>(unfinished_.end() - ended);
}

void Link::SetLoss(double probability) {
  CRAS_CHECK(probability >= 0.0 && probability <= 1.0);
  impairments_.loss_probability = probability;
  impairments_.gilbert_elliott = false;
}

void Link::SetBurstLoss(double p_enter_bad, double p_exit_bad, double loss_bad) {
  CRAS_CHECK(p_enter_bad >= 0.0 && p_enter_bad <= 1.0);
  CRAS_CHECK(p_exit_bad > 0.0 && p_exit_bad <= 1.0);
  CRAS_CHECK(loss_bad >= 0.0 && loss_bad <= 1.0);
  impairments_.gilbert_elliott = true;
  impairments_.ge_p_enter_bad = p_enter_bad;
  impairments_.ge_p_exit_bad = p_exit_bad;
  impairments_.ge_loss_bad = loss_bad;
}

void Link::SetJitter(Duration jitter) {
  CRAS_CHECK(jitter >= 0);
  impairments_.jitter = jitter;
}

void Link::SetReordering(double probability, Duration delay) {
  CRAS_CHECK(probability >= 0.0 && probability <= 1.0);
  CRAS_CHECK(delay >= 0);
  impairments_.reorder_probability = probability;
  impairments_.reorder_delay = delay;
}

void Link::SetDuplication(double probability, Duration delay) {
  CRAS_CHECK(probability >= 0.0 && probability <= 1.0);
  CRAS_CHECK(delay >= 0);
  impairments_.duplicate_probability = probability;
  impairments_.duplicate_delay = delay;
}

void Link::SetBandwidthDerating(double factor) {
  CRAS_CHECK(factor >= 1.0);
  impairments_.bandwidth_derating = factor;
}

void Link::ClearImpairments() {
  impairments_ = LinkImpairments{};
  ge_in_bad_state_ = false;
}

void Link::StepLossState() {
  if (!impairments_.gilbert_elliott) {
    return;
  }
  if (ge_in_bad_state_) {
    if (rng_.NextDouble() < impairments_.ge_p_exit_bad) {
      ge_in_bad_state_ = false;
    }
  } else {
    if (rng_.NextDouble() < impairments_.ge_p_enter_bad) {
      ge_in_bad_state_ = true;
    }
  }
}

bool Link::DrawLossNow() {
  if (impairments_.gilbert_elliott) {
    return ge_in_bad_state_ && impairments_.ge_loss_bad > 0.0 &&
           rng_.NextDouble() < impairments_.ge_loss_bad;
  }
  return impairments_.loss_probability > 0.0 &&
         rng_.NextDouble() < impairments_.loss_probability;
}

bool Link::DrawWireLoss() {
  // Step the chain, then draw against the state the packet sees.
  StepLossState();
  return DrawLossNow();
}

Duration Link::DrawExtraDelay() {
  Duration extra = 0;
  if (impairments_.jitter > 0) {
    extra += static_cast<Duration>(rng_.NextBelow(
        static_cast<std::uint64_t>(impairments_.jitter) + 1));
  }
  if (impairments_.reorder_probability > 0.0 &&
      rng_.NextDouble() < impairments_.reorder_probability) {
    extra += impairments_.reorder_delay;
  }
  return extra;
}

void Link::DeliverOne(Time end, std::int64_t bytes, std::function<void()> deliver,
                      bool multicast) {
  // Duplication: the receiver sees the same unicast packet again shortly
  // after the original — drawn here so the copy shares the original's
  // jitter fate and costs no extra wire time (the bits only went out once;
  // the switch replayed them).
  const Time arrival = end + options_.propagation_delay;
  if (!multicast && impairments_.duplicate_probability > 0.0 &&
      rng_.NextDouble() < impairments_.duplicate_probability) {
    engine_->ScheduleAt(arrival + impairments_.duplicate_delay, [this, deliver] {
      ++stats_.duplicate_deliveries;
      if (deliver) {
        deliver();
      }
    });
  }
  engine_->ScheduleAt(arrival + DrawExtraDelay(),
                      [this, bytes, multicast, deliver = std::move(deliver)] {
                        if (multicast) {
                          ++stats_.mcast_deliveries;
                        } else {
                          ++stats_.packets_delivered;
                        }
                        stats_.bytes_delivered += bytes;
                        if (deliver) {
                          deliver();
                        }
                      });
}

}  // namespace crnet
