#include "src/core/admission_controller.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/base/logging.h"

namespace cras {

AdmissionController::AdmissionController(crrt::Kernel& kernel, crvol::VolumeAdmissionModel model,
                                         std::int64_t memory_budget_bytes)
    : kernel_(&kernel), model_(std::move(model)), memory_budget_bytes_(memory_budget_bytes) {}

AdmissionController::Verdict AdmissionController::Try(SessionId id, const StreamDemand& demand,
                                                      bool memory_only) const {
  // A re-rated stream keeps at least the buffer it has wired.
  auto it = admitted_.find(id);
  const bool admitted = it != admitted_.end();
  const std::int64_t wired = admitted ? it->second.wired_bytes : 0;
  const Stream candidate{demand, memory_only, std::max(wired, model_.BufferBytes(demand))};
  Verdict verdict;
  verdict.estimate = EvaluateWith(id, &candidate);
  verdict.admit = Record(verdict.estimate, admitted_.size() + (admitted ? 0 : 1));
  return verdict;
}

std::int64_t AdmissionController::Commit(SessionId id, const StreamDemand& demand,
                                         bool memory_only) {
  Stream& stream = admitted_[id];
  const std::int64_t grown = std::max(stream.wired_bytes, model_.BufferBytes(demand)) -
                             stream.wired_bytes;
  kernel_->WireMemory("cras-buffer", grown);
  reserved_bytes_ += grown;
  CRAS_CHECK(reserved_bytes_ <= memory_budget_bytes_)
      << "wired " << reserved_bytes_ << " buffer bytes against a budget of "
      << memory_budget_bytes_;
  stream = Stream{demand, memory_only, stream.wired_bytes + grown};
  return stream.wired_bytes;
}

void AdmissionController::Release(SessionId id) {
  auto it = admitted_.find(id);
  CRAS_CHECK(it != admitted_.end()) << "session " << id << " was never admitted";
  kernel_->UnwireMemory("cras-buffer", it->second.wired_bytes);
  reserved_bytes_ -= it->second.wired_bytes;
  admitted_.erase(it);
}

bool AdmissionController::ChargeDisk(SessionId id) {
  auto it = admitted_.find(id);
  return it != admitted_.end() && std::exchange(it->second.memory_only, false);
}

AdmissionController::Estimate AdmissionController::EvaluateWith(SessionId id,
                                                                const Stream* candidate) const {
  std::vector<StreamDemand> charged;
  charged.reserve(admitted_.size() + 2);
  std::int64_t buffer_bytes = 0;
  const Stream* reserve = nullptr;  // the largest memory-only window
  const auto charge = [&](const Stream& s) {
    buffer_bytes += s.wired_bytes;
    if (!s.memory_only) {
      charged.push_back(s.demand);
    } else if (reserve == nullptr || model_.BytesPerInterval(s.demand) >
                                         model_.BytesPerInterval(reserve->demand)) {
      reserve = &s;
    }
  };
  for (const auto& [stream_id, stream] : admitted_) {
    if (stream_id != id) {
      charge(stream);
    }
  }
  if (candidate != nullptr) {
    charge(*candidate);
  }
  if (reserve != nullptr) {
    // The fallback reserve: disk time for one memory-only stream's fallback.
    charged.push_back(reserve->demand);
  }
  Estimate estimate = model_.Evaluate(charged);
  estimate.buffer_bytes = buffer_bytes;
  return estimate;
}

bool AdmissionController::Record(const Estimate& estimate, std::size_t stream_count) const {
  const bool admit = model_.Fits(estimate, stream_count, memory_budget_bytes_);
  if (obs_ != nullptr) {
    const double worst_ms = crobs::ToMillis(estimate.WorstIoTime());
    (admit ? obs_->accepted : obs_->rejected)->Add();
    obs_->worst_io_ms->Record(worst_ms);
    obs_->hub->flight().Record(admit ? crobs::FlightEventKind::kAdmissionAccept
                                     : crobs::FlightEventKind::kAdmissionReject,
                               static_cast<std::int64_t>(stream_count), 0, worst_ms);
  }
  return admit;
}

void AdmissionController::AttachObs(crobs::Hub* hub) {
  if (hub == nullptr) {
    obs_.reset();
    return;
  }
  auto obs = std::make_unique<ObsState>();
  obs->hub = hub;
  crobs::Registry& metrics = hub->metrics();
  obs->accepted = metrics.GetCounter("admission.decisions", {{"outcome", "accept"}});
  obs->rejected = metrics.GetCounter("admission.decisions", {{"outcome", "reject"}});
  obs->worst_io_ms = metrics.GetHistogram("admission.worst_io_ms", {}, crobs::LatencyBucketsMs());
  obs_ = std::move(obs);
}

}  // namespace cras
