// Budget ledger: the admission-audit side of the deadline autopsy, and the
// server's one per-interval record.
//
// The CRAS guarantee rests on a worst-case per-interval disk-time budget
// (formulas (1)-(15)): per member disk, a command term (10), a seek term
// (11)/(12), a rotation term (13), the non-real-time interference allowance
// B_other/D from (9), and the data transfer A_d/D. The ledger records, for
// every scheduler interval, the model's per-term *prediction* per disk at
// issue time, counts the requests issued to each disk, and accumulates the
// measured per-term *actuals* from each request's DiskCompletion phase
// breakdown. Auditing an interval emits per-term utilization
// (actual/predicted, percent) histograms keyed {disk, term}, so every
// deadline miss — and every unit of unused slack — is attributed to a
// specific term on a specific disk; a disk-interval whose measured total
// exceeds its predicted total is an *overrun*, the event the admission proof
// says can never happen.
//
// Rows live in a bounded deque (newest kept), serialized by WriteJsonTail
// into flight-recorder dumps; evicting a row not yet audited audits it as it
// stands and counts it as late. The ledger registers its instruments on the
// owning hub's registry but is owned by the instrumented server, which
// points the hub at it (Hub::SetLedger) and unregisters on destruction.

#ifndef SRC_OBS_LEDGER_H_
#define SRC_OBS_LEDGER_H_

#include <array>
#include <cstdint>
#include <deque>
#include <ostream>
#include <string>
#include <vector>

#include "src/base/time_units.h"
#include "src/obs/metrics.h"

namespace crobs {

// One interval's disk-time budget, split by mechanism (milliseconds).
struct BudgetTerms {
  double command_ms = 0;   // formula (10): N * T_cmd
  double seek_ms = 0;      // formulas (11)/(12) plus O_other's wrap seek
  double rotation_ms = 0;  // formula (13) plus O_other's rotation
  double transfer_ms = 0;  // A_d / D
  double other_ms = 0;     // B_other / D: one maximal NR request in flight
  double total_ms() const {
    return command_ms + seek_ms + rotation_ms + transfer_ms + other_ms;
  }
};

// Percent bins for utilization (actual/predicted) histograms; the overflow
// bucket past 150% would mean a badly broken budget.
inline std::vector<double> UtilizationBucketsPct() {
  return {10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 125, 150};
}

class BudgetLedger {
 public:
  struct Options {
    std::size_t max_intervals = 256;  // rows retained; oldest dropped first
  };

  struct DiskRow {
    int disk = -1;
    std::int64_t predicted_requests = 0;
    std::int64_t issued_requests = 0;  // submitted to this disk
    std::int64_t actual_requests = 0;  // completions attributed so far
    BudgetTerms predicted;
    BudgetTerms actual;
    bool overrun() const { return actual.total_ms() > predicted.total_ms(); }
  };

  struct IntervalRow {
    std::int64_t slot = -1;  // scheduler interval index
    crbase::Time began_at = 0;
    bool due = false;     // deadline passed: audited once its issued I/O is in
    bool closed = false;  // audited; the verdict is final
    std::vector<DiskRow> disks;
  };

  explicit BudgetLedger(Registry* metrics);
  BudgetLedger(Registry* metrics, const Options& options);

  // Scheduler side: open a row at the interval boundary, then declare the
  // model's worst case per member disk for that interval.
  void BeginInterval(std::int64_t slot, crbase::Time now);
  void SetPrediction(std::int64_t slot, int disk, const BudgetTerms& terms,
                     std::int64_t requests);

  // Submit side: one request issued to `disk` for the interval.
  void AddIssued(std::int64_t slot, int disk);

  // Completion side: fold one request's measured times into its interval's
  // row, however late it lands. An attribution for an audited or evicted row
  // is counted (ledger.late_attributions) rather than applied.
  void AddActual(std::int64_t slot, int disk, const BudgetTerms& terms);

  // Marks the row's deadline as passed (idempotent; unknown slots are
  // ignored). The row is audited — per-term utilization histograms and the
  // interval/overrun counters — once every issued request has completed.
  void CloseInterval(std::int64_t slot);
  // Audits every row not yet audited (end of a bench run).
  void CloseAll();

  std::int64_t intervals_closed() const { return intervals_closed_; }
  std::int64_t overruns() const { return overruns_; }
  std::int64_t late_attributions() const { return late_attributions_; }
  const std::deque<IntervalRow>& rows() const { return rows_; }

  // JSON array of the newest `max_rows` rows, oldest first — the dump tail.
  void WriteJsonTail(std::ostream& out, std::size_t max_rows) const;

 private:
  // The audited terms, each with a ledger.util_pct{disk, term} histogram.
  enum UtilTerm { kCommand, kSeek, kRotation, kTransfer, kTotal, kUtilTerms };

  IntervalRow* FindRow(std::int64_t slot);
  // The row for `slot` if it is not yet audited; otherwise counts a late
  // attribution and returns null.
  IntervalRow* OpenRow(std::int64_t slot);
  DiskRow& DiskOf(IntervalRow& row, int disk);  // created on first use
  // Audits a due row whose issued I/O is all in.
  void AuditIfDone(IntervalRow& row);
  void Audit(IntervalRow& row);
  void RecordUtil(int disk, UtilTerm term, double actual_ms, double predicted_ms);

  Registry* metrics_;
  Options options_;
  std::deque<IntervalRow> rows_;
  std::int64_t intervals_closed_ = 0;
  std::int64_t overruns_ = 0;
  std::int64_t late_attributions_ = 0;
  Counter* c_intervals_ = nullptr;
  Counter* c_overruns_ = nullptr;
  Counter* c_late_ = nullptr;
  std::vector<std::array<Histogram*, kUtilTerms>> util_;  // [disk][term], null until used
};

}  // namespace crobs

#endif  // SRC_OBS_LEDGER_H_
