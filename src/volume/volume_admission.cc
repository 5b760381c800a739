#include "src/volume/volume_admission.h"

#include <algorithm>

#include "src/base/bytes.h"
#include "src/base/logging.h"

namespace crvol {

VolumeAdmissionModel::VolumeAdmissionModel(const cras::DiskParams& params, int disks,
                                           Duration interval, std::int64_t max_read_bytes,
                                           std::int64_t stripe_unit_bytes)
    : VolumeAdmissionModel(std::vector<cras::DiskParams>(static_cast<std::size_t>(disks), params),
                           interval, max_read_bytes, stripe_unit_bytes) {}

VolumeAdmissionModel::VolumeAdmissionModel(std::vector<cras::DiskParams> per_disk,
                                           Duration interval, std::int64_t max_read_bytes,
                                           std::int64_t stripe_unit_bytes)
    : stripe_unit_bytes_(stripe_unit_bytes) {
  CRAS_CHECK(!per_disk.empty()) << "a volume needs at least one disk";
  CRAS_CHECK(stripe_unit_bytes > 0);
  models_.reserve(per_disk.size());
  for (const cras::DiskParams& params : per_disk) {
    models_.emplace_back(params, interval, max_read_bytes);
  }
  failed_.assign(per_disk.size(), 0);
}

void VolumeAdmissionModel::SetMemberFailed(int disk, bool failed) {
  CRAS_CHECK(disk >= 0 && disk < disks()) << "no such disk: " << disk;
  failed_[static_cast<std::size_t>(disk)] = failed ? 1 : 0;
}

int VolumeAdmissionModel::failed_members() const {
  int count = 0;
  for (char f : failed_) {
    count += f;
  }
  return count;
}

void VolumeAdmissionModel::SetMemberParams(int disk, const cras::DiskParams& params) {
  CRAS_CHECK(disk >= 0 && disk < disks()) << "no such disk: " << disk;
  cras::AdmissionModel& model = models_[static_cast<std::size_t>(disk)];
  model = cras::AdmissionModel(params, model.interval(), model.max_read_bytes());
}

Duration VolumeAdmissionModel::Estimate::WorstIoTime() const {
  Duration worst = 0;
  for (const DiskEstimate& d : per_disk) {
    worst = std::max(worst, d.io_time());
  }
  return worst;
}

int VolumeAdmissionModel::Estimate::BottleneckDisk() const {
  int worst = 0;
  for (int d = 1; d < static_cast<int>(per_disk.size()); ++d) {
    if (per_disk[static_cast<std::size_t>(d)].io_time() >
        per_disk[static_cast<std::size_t>(worst)].io_time()) {
      worst = d;
    }
  }
  return worst;
}

VolumeAdmissionModel::Estimate VolumeAdmissionModel::Evaluate(
    const std::vector<cras::StreamDemand>& streams) const {
  Estimate estimate;
  const int n = disks();
  const int failed = failed_members();
  std::int64_t total_bytes = 0;
  std::int64_t total_requests = 0;
  std::int64_t largest_window = 0;
  for (const cras::StreamDemand& s : streams) {
    const std::int64_t a_i = models_.front().BytesPerInterval(s);
    total_bytes += a_i;
    total_requests += models_.front().RequestsPerInterval(s);
    largest_window = std::max(largest_window, a_i);
    estimate.buffer_bytes += models_.front().BufferBytes(s);
  }
  estimate.bytes = total_bytes;
  if (total_requests == 0) {
    estimate.per_disk.assign(static_cast<std::size_t>(n), DiskEstimate{});
    return estimate;
  }

  // Balanced share plus skew allowance — one extra window of bytes, two
  // extra requests (a window parked on this disk plus a boundary-straddling
  // split landing here); never more than the whole demand. On one disk the
  // cap leaves exactly A_total and N_total: the paper's single-disk test.
  std::int64_t bytes_d =
      std::min(total_bytes,
               (total_bytes + n - 1) / n + std::min(largest_window, stripe_unit_bytes_));
  std::int64_t requests_d = std::min(total_requests, (total_requests + n - 1) / n + 2);
  if (failed > 0 && parity_) {
    // Degraded parity array: each logical read that would have landed on the
    // failed member (1/N of the demand) becomes one same-sized
    // reconstruction read on every survivor, so each survivor's worst-case
    // share doubles.
    bytes_d *= 2;
    requests_d *= 2;
  }
  for (int d = 0; d < n; ++d) {
    if (failed_[static_cast<std::size_t>(d)] != 0) {
      // A failed member serves nothing (its share is what the survivors'
      // doubled share absorbs).
      estimate.per_disk.push_back(DiskEstimate{});
      continue;
    }
    const cras::AdmissionModel& model = models_[static_cast<std::size_t>(d)];
    DiskEstimate disk;
    disk.requests = requests_d;
    disk.bytes = bytes_d;
    disk.terms = model.Overheads(requests_d);
    disk.overhead = disk.terms.total();
    disk.transfer = crbase::TransferTime(bytes_d, model.params().transfer_rate);
    estimate.per_disk.push_back(disk);
  }
  return estimate;
}

bool VolumeAdmissionModel::Admissible(const std::vector<cras::StreamDemand>& streams,
                                      std::int64_t memory_budget_bytes) const {
  return Fits(Evaluate(streams), streams.size(), memory_budget_bytes);
}

bool VolumeAdmissionModel::Fits(const Estimate& estimate, std::size_t stream_count,
                                std::int64_t memory_budget_bytes) const {
  // An unprotected failure (no parity) or a second failure of a parity
  // array loses data outright: no non-empty stream set is admissible.
  if (estimate.buffer_bytes > memory_budget_bytes ||
      (stream_count != 0 && failed_members() > (parity_ ? 1 : 0))) {
    return false;
  }
  for (int d = 0; d < disks(); ++d) {
    if (estimate.per_disk[static_cast<std::size_t>(d)].io_time() >
        models_[static_cast<std::size_t>(d)].interval()) {
      return false;
    }
  }
  return true;
}

}  // namespace crvol
