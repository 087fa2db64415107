// Intra-pod application placement.
//
// The paper applies "existing solutions" ([23] Tang et al., [28] Zhang et
// al.) inside each pod and leans on their published scalability limits
// (~30 s for 7,000 servers / 17,500 apps, superlinear growth) to justify
// the pod decomposition.  We provide two implementations:
//
//  * PlacementController — a demand-satisfying, change-minimizing,
//    load-balancing controller in the spirit of [23]: it first grows
//    allocations on servers that already host an application (no new
//    placements), then starts new instances where capacity remains, then
//    runs an iterative rebalancing phase until the server-utilization
//    imbalance drops below tolerance.  Decision quality is high but cost
//    grows superlinearly with problem size — exactly the property E3
//    measures.
//  * FirstFitPlacement — a cheap first-fit-decreasing baseline: near-
//    linear time, worse balance and more placement churn.
//
// Both consume an abstract PlacementInput so the same code serves pod
// managers, the centralized whole-DC baseline, and unit tests.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "mdc/app/app_registry.hpp"
#include "mdc/util/units.hpp"

namespace mdc {

struct PlacementServer {
  CapacityVec capacity;
};

struct PlacementApp {
  AppSla sla;
  double demandRps = 0.0;
};

/// One application instance: `rps` of app `app` served on `server`.
struct Assignment {
  std::uint32_t app = 0;
  std::uint32_t server = 0;
  double rps = 0.0;
};

/// An assignment's (app, server) instance key; orders like the pair.
[[nodiscard]] constexpr std::uint64_t instanceKey(
    const Assignment& a) noexcept {
  return (std::uint64_t{a.app} << 32) | a.server;
}

struct PlacementInput {
  std::vector<PlacementServer> servers;
  std::vector<PlacementApp> apps;
  /// Existing instances (for change minimization); may violate the new
  /// demands but must reference valid servers/apps.
  std::vector<Assignment> current;
};

struct PlacementResult {
  /// In ascending, unique (app, server) order.
  std::vector<Assignment> assignment;
  double satisfiedRps = 0.0;
  double demandRps = 0.0;
  /// Instances started/stopped relative to `current` (placement churn,
  /// which the paper says "must be minimized", §IV-D).
  std::uint32_t instancesStarted = 0;
  std::uint32_t instancesStopped = 0;
  std::uint32_t iterations = 0;

  [[nodiscard]] double satisfactionRatio() const noexcept {
    return demandRps > 0.0 ? satisfiedRps / demandRps : 1.0;
  }
};

class PlacementAlgorithm {
 public:
  virtual ~PlacementAlgorithm() = default;
  [[nodiscard]] virtual PlacementResult place(
      const PlacementInput& input) const = 0;
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
};

/// First-fit decreasing: apps by descending demand, servers in index
/// order.  Ignores `current` except for churn accounting.
class FirstFitPlacement final : public PlacementAlgorithm {
 public:
  [[nodiscard]] PlacementResult place(
      const PlacementInput& input) const override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "first-fit";
  }
};

/// Tang-style controller: grow in place, then place, then rebalance.
class PlacementController final : public PlacementAlgorithm {
 public:
  struct Options {
    /// Stop rebalancing once max/mean server utilization <= this.
    double balanceTolerance = 1.10;
    /// Hard cap on rebalance iterations as a multiple of server count.
    double maxBalancePassesPerServer = 2.0;
    /// Maximum simultaneous instances of one app (VIP/RIP economics).
    std::uint32_t maxInstancesPerApp = 256;
  };

  PlacementController();
  explicit PlacementController(Options options);

  [[nodiscard]] PlacementResult place(
      const PlacementInput& input) const override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "controller";
  }

 private:
  Options options_;
};

/// Validates that `result.assignment` respects every server's capacity in
/// `input` (including per-instance memory footprints) and that satisfied
/// demand is consistent.  Throws InvariantError on violation; used by
/// tests and by pod managers in debug runs.
void validatePlacement(const PlacementInput& input,
                       const PlacementResult& result);

}  // namespace mdc
