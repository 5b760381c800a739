#include "src/obs/ledger.h"

#include <algorithm>

#include "src/base/logging.h"
#include "src/obs/json.h"

namespace crobs {

namespace {

void WriteTerms(std::ostream& out, const BudgetTerms& terms) {
  out << "{\"command_ms\": ";
  WriteJsonNumber(out, terms.command_ms);
  out << ", \"seek_ms\": ";
  WriteJsonNumber(out, terms.seek_ms);
  out << ", \"rotation_ms\": ";
  WriteJsonNumber(out, terms.rotation_ms);
  out << ", \"transfer_ms\": ";
  WriteJsonNumber(out, terms.transfer_ms);
  out << ", \"other_ms\": ";
  WriteJsonNumber(out, terms.other_ms);
  out << ", \"total_ms\": ";
  WriteJsonNumber(out, terms.total_ms());
  out << "}";
}

}  // namespace

void BudgetLedger::RecordUtil(int disk, UtilTerm term, double actual_ms, double predicted_ms) {
  if (predicted_ms <= 0) {
    return;  // term absent from this interval's budget; nothing to audit
  }
  CRAS_CHECK(disk >= 0);
  if (static_cast<std::size_t>(disk) >= util_.size()) {
    util_.resize(static_cast<std::size_t>(disk) + 1);
  }
  // Resolved on first use only, so a series appears in the registry exactly
  // when it first gets a sample.
  Histogram*& hist = util_[static_cast<std::size_t>(disk)][term];
  if (hist == nullptr) {
    static constexpr const char* kNames[kUtilTerms] = {"command", "seek", "rotation",
                                                       "transfer", "total"};
    hist = metrics_->GetHistogram(
        "ledger.util_pct", {{"disk", "disk" + std::to_string(disk)}, {"term", kNames[term]}},
        UtilizationBucketsPct());
  }
  hist->Record(100.0 * actual_ms / predicted_ms);
}

BudgetLedger::BudgetLedger(Registry* metrics) : BudgetLedger(metrics, Options{}) {}

BudgetLedger::BudgetLedger(Registry* metrics, const Options& options)
    : metrics_(metrics), options_(options) {
  if (options_.max_intervals == 0) {
    options_.max_intervals = 1;
  }
  c_intervals_ = metrics_->GetCounter("ledger.intervals");
  c_overruns_ = metrics_->GetCounter("ledger.overruns");
  c_late_ = metrics_->GetCounter("ledger.late_attributions");
}

BudgetLedger::IntervalRow* BudgetLedger::FindRow(std::int64_t slot) {
  // Attribution targets the newest few rows; search from the back.
  for (auto it = rows_.rbegin(); it != rows_.rend(); ++it) {
    if (it->slot == slot) {
      return &*it;
    }
  }
  return nullptr;
}

BudgetLedger::IntervalRow* BudgetLedger::OpenRow(std::int64_t slot) {
  IntervalRow* row = FindRow(slot);
  if (row == nullptr || row->closed) {
    ++late_attributions_;
    c_late_->Add();
    return nullptr;
  }
  return row;
}

BudgetLedger::DiskRow& BudgetLedger::DiskOf(IntervalRow& row, int disk) {
  for (DiskRow& d : row.disks) {
    if (d.disk == disk) {
      return d;
    }
  }
  row.disks.push_back(DiskRow{});
  row.disks.back().disk = disk;
  return row.disks.back();
}

void BudgetLedger::BeginInterval(std::int64_t slot, crbase::Time now) {
  rows_.push_back(IntervalRow{});
  rows_.back().slot = slot;
  rows_.back().began_at = now;
  while (rows_.size() > options_.max_intervals) {
    if (!rows_.front().closed) {
      // Evicted before its I/O was all in: audit what it has, and don't let
      // the eviction masquerade as a clean interval.
      Audit(rows_.front());
      ++late_attributions_;
      c_late_->Add();
    }
    rows_.pop_front();
  }
}

void BudgetLedger::SetPrediction(std::int64_t slot, int disk, const BudgetTerms& terms,
                                 std::int64_t requests) {
  if (IntervalRow* row = OpenRow(slot)) {
    DiskRow& d = DiskOf(*row, disk);
    d.predicted = terms;
    d.predicted_requests = requests;
  }
}

void BudgetLedger::AddIssued(std::int64_t slot, int disk) {
  if (IntervalRow* row = OpenRow(slot)) {
    ++DiskOf(*row, disk).issued_requests;
  }
}

void BudgetLedger::AddActual(std::int64_t slot, int disk, const BudgetTerms& terms) {
  IntervalRow* row = OpenRow(slot);
  if (row == nullptr) {
    return;
  }
  DiskRow& d = DiskOf(*row, disk);
  d.actual.command_ms += terms.command_ms;
  d.actual.seek_ms += terms.seek_ms;
  d.actual.rotation_ms += terms.rotation_ms;
  d.actual.transfer_ms += terms.transfer_ms;
  d.actual.other_ms += terms.other_ms;
  ++d.actual_requests;
  AuditIfDone(*row);
}

void BudgetLedger::AuditIfDone(IntervalRow& row) {
  // A request still in flight audits the row when it completes.
  const auto in = [](const DiskRow& d) { return d.actual_requests >= d.issued_requests; };
  if (row.due && std::all_of(row.disks.begin(), row.disks.end(), in)) {
    Audit(row);
  }
}

void BudgetLedger::Audit(IntervalRow& row) {
  row.closed = true;
  ++intervals_closed_;
  c_intervals_->Add();
  for (const DiskRow& d : row.disks) {
    RecordUtil(d.disk, kCommand, d.actual.command_ms, d.predicted.command_ms);
    RecordUtil(d.disk, kSeek, d.actual.seek_ms, d.predicted.seek_ms);
    RecordUtil(d.disk, kRotation, d.actual.rotation_ms, d.predicted.rotation_ms);
    RecordUtil(d.disk, kTransfer, d.actual.transfer_ms, d.predicted.transfer_ms);
    RecordUtil(d.disk, kTotal, d.actual.total_ms(), d.predicted.total_ms());
    if (d.overrun()) {
      ++overruns_;
      c_overruns_->Add();
    }
  }
}

void BudgetLedger::CloseInterval(std::int64_t slot) {
  IntervalRow* row = FindRow(slot);
  if (row == nullptr || row->closed) {
    return;
  }
  row->due = true;
  AuditIfDone(*row);
}

void BudgetLedger::CloseAll() {
  for (IntervalRow& row : rows_) {
    if (!row.closed) {
      Audit(row);
    }
  }
}

void BudgetLedger::WriteJsonTail(std::ostream& out, std::size_t max_rows) const {
  const std::size_t skip = rows_.size() > max_rows ? rows_.size() - max_rows : 0;
  out << "[";
  bool first = true;
  std::size_t index = 0;
  for (const IntervalRow& row : rows_) {
    if (index++ < skip) {
      continue;
    }
    if (!first) {
      out << ",";
    }
    first = false;
    out << "\n  {\"slot\": " << row.slot << ", \"began_at_ns\": " << row.began_at
        << ", \"closed\": " << (row.closed ? "true" : "false") << ", \"disks\": [";
    bool first_disk = true;
    for (const DiskRow& d : row.disks) {
      if (!first_disk) {
        out << ",";
      }
      first_disk = false;
      out << "\n   {\"disk\": " << d.disk
          << ", \"predicted_requests\": " << d.predicted_requests
          << ", \"actual_requests\": " << d.actual_requests
          << ", \"overrun\": " << (d.overrun() ? "true" : "false")
          << ", \"predicted\": ";
      WriteTerms(out, d.predicted);
      out << ", \"actual\": ";
      WriteTerms(out, d.actual);
      out << "}";
    }
    out << "]}";
  }
  out << "\n ]";
}

}  // namespace crobs
