// Unit tests for the util module: strong ids, contracts, units, results,
// and statistics helpers (the worker pool has thread_pool_test.cpp).
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <unordered_set>
#include <vector>

#include "mdc/util/expect.hpp"
#include "mdc/util/ids.hpp"
#include "mdc/util/result.hpp"
#include "mdc/util/stats.hpp"
#include "mdc/util/units.hpp"

namespace mdc {
namespace {

TEST(StrongId, DefaultConstructedIsInvalid) {
  ServerId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id, ServerId::invalid());
}

TEST(StrongId, ValueRoundTrips) {
  ServerId id{42};
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(id.value(), 42u);
  EXPECT_EQ(id.index(), 42u);
}

TEST(StrongId, Ordering) {
  EXPECT_LT(VmId{1}, VmId{2});
  EXPECT_EQ(VmId{7}, VmId{7});
  EXPECT_NE(VmId{7}, VmId{8});
}

TEST(StrongId, HashableInUnorderedSet) {
  std::unordered_set<AppId> set;
  set.insert(AppId{1});
  set.insert(AppId{2});
  set.insert(AppId{1});
  EXPECT_EQ(set.size(), 2u);
}

TEST(StrongId, StreamOutput) {
  std::ostringstream os;
  os << PodId{5} << " " << PodId{};
  EXPECT_EQ(os.str(), "5 <invalid>");
}

TEST(IdAllocator, AllocatesDenselyFromZero) {
  IdAllocator<VipId> alloc;
  EXPECT_EQ(alloc.next(), VipId{0});
  EXPECT_EQ(alloc.next(), VipId{1});
  EXPECT_EQ(alloc.allocated(), 2u);
}

TEST(Expect, PreconditionThrows) {
  EXPECT_THROW(MDC_EXPECT(false, "boom"), PreconditionError);
  EXPECT_NO_THROW(MDC_EXPECT(true, "fine"));
}

TEST(Expect, InvariantThrowsWithMessage) {
  try {
    MDC_ENSURE(1 == 2, "numbers drifted");
    FAIL() << "should have thrown";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("numbers drifted"),
              std::string::npos);
  }
}

TEST(CapacityVec, Arithmetic) {
  CapacityVec a{2.0, 4.0, 1.0};
  CapacityVec b{1.0, 1.0, 0.5};
  EXPECT_EQ((a + b).cpu(), 3.0);
  EXPECT_EQ((a - b).memory(), 3.0);
  EXPECT_EQ((a * 2.0).network(), 2.0);
  EXPECT_EQ((2.0 * a).cpu(), 4.0);
}

TEST(CapacityVec, FitsWithin) {
  CapacityVec small{1.0, 1.0, 1.0};
  CapacityVec big{2.0, 2.0, 2.0};
  EXPECT_TRUE(small.fitsWithin(big));
  EXPECT_FALSE(big.fitsWithin(small));
  EXPECT_TRUE(small.fitsWithin(small));
}

TEST(CapacityVec, NonNegative) {
  EXPECT_TRUE((CapacityVec{0.0, 0.0, 0.0}).nonNegative());
  EXPECT_FALSE((CapacityVec{1.0, -0.1, 0.0}).nonNegative());
}

TEST(CapacityVec, MaxRatioFindsBindingResource) {
  CapacityVec use{1.0, 8.0, 0.5};
  CapacityVec cap{4.0, 16.0, 1.0};
  EXPECT_DOUBLE_EQ(use.maxRatio(cap), 0.5);  // memory and net tie at 0.5
}

TEST(CapacityVec, MaxRatioInfiniteWhenDenomZero) {
  CapacityVec use{1.0, 0.0, 0.0};
  CapacityVec cap{0.0, 16.0, 1.0};
  EXPECT_TRUE(std::isinf(use.maxRatio(cap)));
}

TEST(CapacityVec, IndexByResourceEnum) {
  CapacityVec c{1.0, 2.0, 3.0};
  EXPECT_EQ(c[Resource::Cpu], 1.0);
  EXPECT_EQ(c[Resource::Memory], 2.0);
  EXPECT_EQ(c[Resource::Network], 3.0);
  c[Resource::Cpu] = 9.0;
  EXPECT_EQ(c.cpu(), 9.0);
}

TEST(Result, SuccessAndError) {
  Result<int> good{7};
  EXPECT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 7);

  Result<int> bad{Error{"full", "table exhausted"}};
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, "full");
  EXPECT_THROW((void)bad.value(), PreconditionError);
}

TEST(Status, OkAndFail) {
  EXPECT_TRUE(Status::okStatus().ok());
  const Status s = Status::fail("nope", "reason");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, "nope");
  EXPECT_THROW((void)Status::okStatus().error(), PreconditionError);
}

TEST(Stats, MeanAndStddev) {
  std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(xs), 5.0);
  EXPECT_DOUBLE_EQ(stddev(xs), 2.0);
}

TEST(Stats, EmptyInputsAreSafe) {
  std::vector<double> empty;
  EXPECT_EQ(mean(empty), 0.0);
  EXPECT_EQ(stddev(empty), 0.0);
  EXPECT_EQ(coefficientOfVariation(empty), 0.0);
  EXPECT_EQ(jainFairness(empty), 1.0);
  EXPECT_EQ(maxOverMean(empty), 1.0);
}

TEST(Stats, JainFairnessBounds) {
  std::vector<double> balanced{3.0, 3.0, 3.0};
  EXPECT_DOUBLE_EQ(jainFairness(balanced), 1.0);
  std::vector<double> skewed{9.0, 0.0, 0.0};
  EXPECT_NEAR(jainFairness(skewed), 1.0 / 3.0, 1e-12);
}

TEST(Stats, MaxOverMean) {
  std::vector<double> xs{1.0, 1.0, 4.0};
  EXPECT_DOUBLE_EQ(maxOverMean(xs), 2.0);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> xs{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 25.0);
}

TEST(Stats, PercentilePreconditions) {
  std::vector<double> empty;
  EXPECT_THROW((void)percentile(empty, 50.0), PreconditionError);
  std::vector<double> one{1.0};
  EXPECT_THROW((void)percentile(one, 101.0), PreconditionError);
}

TEST(Units, Helpers) {
  EXPECT_DOUBLE_EQ(gbps(4.0), 4.0);
  EXPECT_DOUBLE_EQ(mbps(500.0), 0.5);
  EXPECT_DOUBLE_EQ(minutes(2.0), 120.0);
  EXPECT_DOUBLE_EQ(hours(1.0), 3600.0);
}

}  // namespace
}  // namespace mdc
