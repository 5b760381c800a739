// Admission-test formulas validated against hand-computed values.

#include "src/volume/admission.h"

#include <gtest/gtest.h>

#include "src/base/bytes.h"
#include "src/base/time_units.h"

namespace cras {
namespace {

using crbase::kKiB;
using crbase::Milliseconds;
using crbase::Seconds;
using crbase::ToMilliseconds;

StreamDemand Mpeg1() { return StreamDemand{187500.0, 6250}; }
StreamDemand Mpeg2() { return StreamDemand{750000.0, 25000}; }

AdmissionModel DefaultModel(crbase::Duration interval = Milliseconds(500)) {
  return AdmissionModel(MeasuredSt32550nParams(), interval, 256 * kKiB);
}

TEST(Admission, BytesPerIntervalIsFormula3) {
  AdmissionModel model = DefaultModel();
  // A_i = T*R_i + C_i = 0.5*187500 + 6250 = 100000.
  EXPECT_EQ(model.BytesPerInterval(Mpeg1()), 100000);
  // MPEG2: 0.5*750000 + 25000 = 400000.
  EXPECT_EQ(model.BytesPerInterval(Mpeg2()), 400000);
}

TEST(Admission, RequestsCeilByMaxRead) {
  AdmissionModel model = DefaultModel();
  EXPECT_EQ(model.RequestsPerInterval(Mpeg1()), 1);  // 100000 < 256 KiB
  EXPECT_EQ(model.RequestsPerInterval(Mpeg2()), 2);  // 400000 / 262144 -> 2
}

TEST(Admission, BufferIsDoubleBuffered) {
  AdmissionModel model = DefaultModel();
  EXPECT_EQ(model.BufferBytes(Mpeg1()), 200000);  // B_i = 2*A_i (formula 7)
}

TEST(Admission, OverheadFormula14SingleRequest) {
  AdmissionModel model = DefaultModel();
  // O_total(1) = B_other/D + 2*(T_seek_max + T_rot + T_cmd)
  //            = 65536/6.5e6 s + 2*(17 + 8.33 + 2) ms = 10.082 + 54.66 ms.
  EXPECT_NEAR(ToMilliseconds(model.TotalOverhead(1)), 64.74, 0.05);
}

TEST(Admission, OverheadFormula15ManyRequests) {
  AdmissionModel model = DefaultModel();
  // O_total(N) = B_other/D + 3*T_seek_max + (N-2)*T_seek_min
  //              + (N+1)*(T_rot + T_cmd)
  // N=10: 10.082 + 51 + 32 + 113.63 = 206.71 ms.
  EXPECT_NEAR(ToMilliseconds(model.TotalOverhead(10)), 206.71, 0.1);
  EXPECT_EQ(model.TotalOverhead(0), 0);
}

TEST(Admission, OverheadIsMonotonicInRequests) {
  AdmissionModel model = DefaultModel();
  crbase::Duration prev = model.TotalOverhead(1);
  for (int n = 2; n < 40; ++n) {
    const crbase::Duration cur = model.TotalOverhead(n);
    EXPECT_GT(cur, prev) << "n=" << n;
    prev = cur;
  }
}

TEST(Admission, EvaluateAggregates) {
  AdmissionModel model = DefaultModel();
  std::vector<StreamDemand> streams(5, Mpeg1());
  const AdmissionEstimate estimate = model.Evaluate(streams);
  EXPECT_EQ(estimate.requests, 5);
  EXPECT_EQ(estimate.bytes, 500000);
  EXPECT_EQ(estimate.buffer_bytes, 1000000);
  // Transfer = 500000/6.5e6 = 76.92 ms.
  EXPECT_NEAR(ToMilliseconds(estimate.transfer), 76.92, 0.05);
  EXPECT_EQ(estimate.io_time(), estimate.overhead + estimate.transfer);
}

TEST(Admission, Mpeg1CapacityAtHalfSecondInterval) {
  // io_time(N) = 63.41 ms + N*29.71 ms for MPEG1 at T=0.5 s; the 500 ms
  // deadline admits 14 streams and rejects the 15th.
  AdmissionModel model = DefaultModel();
  std::vector<StreamDemand> streams;
  int admitted = 0;
  while (admitted < 50) {
    streams.push_back(Mpeg1());
    if (!model.Admissible(streams, 64 * crbase::kMiB)) {
      break;
    }
    ++admitted;
  }
  EXPECT_EQ(admitted, 14);
}

TEST(Admission, LongerIntervalAdmitsMoreStreams) {
  // The paper: with a longer initial delay (longer interval), CRAS supports
  // more streams — overhead amortizes over more transfer time.
  auto capacity = [](crbase::Duration interval) {
    AdmissionModel model = DefaultModel(interval);
    std::vector<StreamDemand> streams;
    int admitted = 0;
    while (admitted < 60) {
      streams.push_back(Mpeg1());
      if (!model.Admissible(streams, 1LL << 40)) {
        break;
      }
      ++admitted;
    }
    return admitted;
  };
  const int at_half = capacity(Milliseconds(500));
  const int at_three = capacity(Seconds(3));
  EXPECT_GT(at_three, at_half);
  EXPECT_GE(at_three, 20);  // the paper reports >25 at 70% bandwidth; shape holds
}

TEST(Admission, MemoryBudgetBindsIndependently) {
  AdmissionModel model = DefaultModel();
  std::vector<StreamDemand> streams(5, Mpeg1());  // B_total = 1 MB
  EXPECT_TRUE(model.Admissible(streams, 1000000));
  EXPECT_FALSE(model.Admissible(streams, 999999));
}

TEST(Admission, Mpeg2CapacityAtOneSecondInterval) {
  AdmissionModel model = DefaultModel(Seconds(1));
  std::vector<StreamDemand> streams;
  int admitted = 0;
  while (admitted < 10) {
    streams.push_back(Mpeg2());
    if (!model.Admissible(streams, 64 * crbase::kMiB)) {
      break;
    }
    ++admitted;
  }
  // io_time(N) = 63.4 + 162.2*N ms <= 1000 -> 5 streams (Figure 9's range).
  EXPECT_EQ(admitted, 5);
}

TEST(Admission, MinimalIntervalSatisfiesFormula1) {
  AdmissionModel model = DefaultModel();
  std::vector<StreamDemand> streams(10, Mpeg1());
  const crbase::Duration t_min = model.MinimalInterval(streams);
  ASSERT_GT(t_min, 0);
  // The minimal interval must itself be feasible...
  AdmissionModel at_min(MeasuredSt32550nParams(), t_min + Milliseconds(1), 256 * kKiB);
  EXPECT_LE(at_min.Evaluate(streams).io_time(), t_min + Milliseconds(1));
  // ...and anything much smaller must not be.
  AdmissionModel below(MeasuredSt32550nParams(),
                       t_min - std::max<crbase::Duration>(t_min / 10, Milliseconds(2)),
                       256 * kKiB);
  EXPECT_GT(below.Evaluate(streams).io_time(), below.interval());
}

TEST(Admission, MinimalIntervalInfeasibleWhenRateExceedsDisk) {
  AdmissionModel model = DefaultModel();
  std::vector<StreamDemand> streams(40, Mpeg2());  // 30 MB/s >> 6.5 MB/s
  EXPECT_LT(model.MinimalInterval(streams), 0);
}

}  // namespace
}  // namespace cras
