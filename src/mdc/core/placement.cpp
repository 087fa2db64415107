#include "mdc/core/placement.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include "mdc/util/expect.hpp"
#include "mdc/util/flat_map.hpp"

namespace mdc {

namespace {

/// Mutable working state shared by both algorithms.
class WorkingState {
 public:
  explicit WorkingState(const PlacementInput& input) : input_(input) {
    used_.resize(input.servers.size());
    perApp_.resize(input.apps.size());
    for (const Assignment& a : input.current) {
      MDC_EXPECT(a.app < input.apps.size() && a.server < input.servers.size(),
                 "current assignment references unknown app/server");
    }
  }

  [[nodiscard]] const PlacementInput& input() const { return input_; }

  [[nodiscard]] double rpsOf(std::uint32_t app, std::uint32_t server) const {
    const auto it = perApp_[app].find(server);
    return it == perApp_[app].end() ? 0.0 : it->second;
  }

  [[nodiscard]] CapacityVec freeOn(std::uint32_t server) const {
    return input_.servers[server].capacity - used_[server];
  }

  [[nodiscard]] double utilization(std::uint32_t server) const {
    return used_[server].maxRatio(input_.servers[server].capacity);
  }

  [[nodiscard]] std::size_t instanceCount(std::uint32_t app) const {
    return perApp_[app].size();
  }

  [[nodiscard]] const FlatMap<std::uint32_t, double>& instances(
      std::uint32_t app) const {
    return perApp_[app];
  }

  /// Additional rps of `app` the server could absorb.  If the app has no
  /// instance there, the memory footprint must also fit.
  [[nodiscard]] double growableRps(std::uint32_t app,
                                   std::uint32_t server) const {
    const AppSla& sla = input_.apps[app].sla;
    CapacityVec free = freeOn(server);
    const bool resident = perApp_[app].contains(server);
    if (!resident) {
      if (free.memory() < sla.memPerInstanceGb) return 0.0;
    }
    // Memory is a footprint, not rate-proportional: make it available for
    // the rate computation by pretending it is already paid.  Shave an
    // ulp-scale margin so boundary allocations stay within capacity under
    // floating-point round-off.
    free[Resource::Memory] = sla.memPerInstanceGb;
    return sla.servableRps(free) * (1.0 - 1e-12);
  }

  /// Adds `rps` of `app` on `server` (creating the instance if needed).
  void grow(std::uint32_t app, std::uint32_t server, double rps) {
    MDC_EXPECT(rps >= 0.0, "grow: negative rps");
    if (rps == 0.0) return;
    const AppSla& sla = input_.apps[app].sla;
    auto& inst = perApp_[app];
    const auto it = inst.find(server);
    if (it == inst.end()) {
      inst[server] = rps;
      used_[server] += sla.demandFor(rps);
    } else {
      // Only the rate-proportional part grows; memory is already paid.
      CapacityVec delta = sla.demandFor(rps);
      delta[Resource::Memory] = 0.0;
      used_[server] += delta;
      it->second += rps;
    }
    MDC_ENSURE(used_[server].fitsWithin(input_.servers[server].capacity *
                                        (1.0 + 1e-9)),
               "grow oversubscribed a server");
  }

  /// Removes `rps` of `app` from `server`; drops the instance at zero.
  void shrink(std::uint32_t app, std::uint32_t server, double rps) {
    auto& inst = perApp_[app];
    const auto it = inst.find(server);
    MDC_EXPECT(it != inst.end() && it->second >= rps - 1e-9,
               "shrink below zero");
    const AppSla& sla = input_.apps[app].sla;
    const double newRps = std::max(0.0, it->second - rps);
    if (newRps <= 1e-9) {
      used_[server] -= sla.demandFor(it->second);
      inst.erase(server);
    } else {
      CapacityVec delta = sla.demandFor(rps);
      delta[Resource::Memory] = 0.0;
      used_[server] -= delta;
      it->second = newRps;
    }
  }

  [[nodiscard]] PlacementResult finish(std::uint32_t iterations) const {
    PlacementResult out;
    out.iterations = iterations;
    for (std::uint32_t a = 0; a < perApp_.size(); ++a) {
      out.demandRps += input_.apps[a].demandRps;
      for (const auto& [server, rps] : perApp_[a]) {
        out.assignment.push_back(Assignment{a, server, rps});
        out.satisfiedRps += rps;
      }
    }
    // Churn vs input.current (an instance = an (app, server) pair).  The
    // assignment is already in ascending unique key order; the current
    // instances are sorted and deduplicated, then the two are merged.
    std::vector<std::uint64_t> before;
    before.reserve(input_.current.size());
    for (const Assignment& a : input_.current) {
      if (a.rps > 0.0) before.push_back(instanceKey(a));
    }
    std::sort(before.begin(), before.end());
    before.erase(std::unique(before.begin(), before.end()), before.end());
    auto b = before.begin();
    for (const Assignment& a : out.assignment) {
      const std::uint64_t k = instanceKey(a);
      for (; b != before.end() && *b < k; ++b) ++out.instancesStopped;
      if (b != before.end() && *b == k) {
        ++b;
      } else {
        ++out.instancesStarted;
      }
    }
    out.instancesStopped +=
        static_cast<std::uint32_t>(std::distance(b, before.end()));
    return out;
  }

 private:
  const PlacementInput& input_;
  std::vector<CapacityVec> used_;
  // app -> (server -> rps), sorted by server: an app has few instances,
  // and the iteration order is deterministic.
  std::vector<FlatMap<std::uint32_t, double>> perApp_;
};

std::vector<std::uint32_t> appsByDescendingDemand(const PlacementInput& in) {
  std::vector<std::uint32_t> order(in.apps.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return in.apps[a].demandRps > in.apps[b].demandRps;
                   });
  return order;
}

}  // namespace

PlacementResult FirstFitPlacement::place(const PlacementInput& input) const {
  WorkingState st{input};
  std::uint32_t iterations = 0;
  for (std::uint32_t app : appsByDescendingDemand(input)) {
    double residual = input.apps[app].demandRps;
    for (std::uint32_t s = 0; s < input.servers.size() && residual > 1e-9;
         ++s) {
      ++iterations;
      const double can = st.growableRps(app, s);
      const double take = std::min(residual, can);
      if (take > 1e-9) {
        st.grow(app, s, take);
        residual -= take;
      }
    }
  }
  return st.finish(iterations);
}

PlacementController::PlacementController() : PlacementController(Options{}) {}

PlacementController::PlacementController(Options options)
    : options_(options) {
  MDC_EXPECT(options.balanceTolerance >= 1.0, "tolerance below 1.0");
  MDC_EXPECT(options.maxInstancesPerApp > 0, "maxInstancesPerApp == 0");
}

PlacementResult PlacementController::place(const PlacementInput& input) const {
  WorkingState st{input};
  std::uint32_t iterations = 0;

  // Phase 0: re-adopt the existing placement, clipped to demand, to
  // minimize churn (each kept instance is zero placement changes).
  {
    std::vector<double> residual(input.apps.size());
    for (std::uint32_t a = 0; a < input.apps.size(); ++a) {
      residual[a] = input.apps[a].demandRps;
    }
    for (const Assignment& a : input.current) {
      ++iterations;
      const double can = std::min({a.rps, residual[a.app],
                                   st.growableRps(a.app, a.server)});
      if (can > 1e-9) {
        st.grow(a.app, a.server, can);
        residual[a.app] -= can;
      }
    }
  }

  // Phase 1+2: satisfy residual demand — first grow resident instances,
  // then start new ones on the emptiest servers.
  std::vector<std::uint32_t> byUtil(input.servers.size());
  std::iota(byUtil.begin(), byUtil.end(), 0u);
  for (std::uint32_t app : appsByDescendingDemand(input)) {
    double residual = input.apps[app].demandRps;
    for (const auto& [server, rps] : st.instances(app)) residual -= rps;
    if (residual <= 1e-9) continue;

    // Grow in place (no churn).
    std::vector<std::uint32_t> resident;
    for (const auto& [server, rps] : st.instances(app)) {
      resident.push_back(server);
    }
    for (std::uint32_t s : resident) {
      if (residual <= 1e-9) break;
      ++iterations;
      const double take = std::min(residual, st.growableRps(app, s));
      if (take > 1e-9) {
        st.grow(app, s, take);
        residual -= take;
      }
    }
    if (residual <= 1e-9) continue;

    // New placements on least-utilized servers.
    std::stable_sort(byUtil.begin(), byUtil.end(),
                     [&](std::uint32_t x, std::uint32_t y) {
                       return st.utilization(x) < st.utilization(y);
                     });
    for (std::uint32_t s : byUtil) {
      if (residual <= 1e-9) break;
      if (st.instanceCount(app) >= options_.maxInstancesPerApp) break;
      ++iterations;
      const double take = std::min(residual, st.growableRps(app, s));
      if (take > 1e-9) {
        st.grow(app, s, take);
        residual -= take;
      }
    }
  }

  // Phase 3: rebalance — move load off the hottest server onto the
  // coldest one that can take it, until the imbalance tolerance holds.
  const auto maxPasses = static_cast<std::uint32_t>(
      options_.maxBalancePassesPerServer *
      static_cast<double>(input.servers.size()));
  for (std::uint32_t pass = 0; pass < maxPasses; ++pass) {
    ++iterations;
    // Identify hottest and mean utilization.
    double sum = 0.0;
    std::uint32_t hot = 0;
    double hotUtil = 0.0;
    for (std::uint32_t s = 0; s < input.servers.size(); ++s) {
      const double u = st.utilization(s);
      sum += u;
      if (u > hotUtil) {
        hotUtil = u;
        hot = s;
      }
    }
    const double meanUtil = sum / static_cast<double>(input.servers.size());
    if (meanUtil <= 0.0 || hotUtil <= options_.balanceTolerance * meanUtil) {
      break;
    }

    // Choose the app with the largest allocation on the hot server and
    // try to move a slice of it to the coldest feasible server.
    std::uint32_t bestApp = 0;
    double bestRps = 0.0;
    for (std::uint32_t a = 0; a < input.apps.size(); ++a) {
      const double rps = st.rpsOf(a, hot);
      if (rps > bestRps) {
        bestRps = rps;
        bestApp = a;
      }
    }
    if (bestRps <= 1e-9) break;

    std::uint32_t cold = hot;
    double coldUtil = hotUtil;
    for (std::uint32_t s = 0; s < input.servers.size(); ++s) {
      if (s == hot) continue;
      const double u = st.utilization(s);
      if (u < coldUtil && st.growableRps(bestApp, s) > 1e-9) {
        const bool newInstance = st.rpsOf(bestApp, s) == 0.0;
        if (newInstance &&
            st.instanceCount(bestApp) >= options_.maxInstancesPerApp) {
          continue;
        }
        coldUtil = u;
        cold = s;
      }
    }
    if (cold == hot) break;  // nowhere to move

    const double targetShift = bestRps * (hotUtil - coldUtil) /
                               (2.0 * std::max(hotUtil, 1e-9));
    const double shift =
        std::min({bestRps, std::max(targetShift, bestRps * 0.1),
                  st.growableRps(bestApp, cold)});
    if (shift <= 1e-9) break;
    st.shrink(bestApp, hot, shift);
    st.grow(bestApp, cold, shift);
  }

  return st.finish(iterations);
}

void validatePlacement(const PlacementInput& input,
                       const PlacementResult& result) {
  std::vector<CapacityVec> used(input.servers.size());
  std::vector<double> served(input.apps.size(), 0.0);
  std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
  for (const Assignment& a : result.assignment) {
    MDC_ENSURE(a.app < input.apps.size(), "assignment: bad app index");
    MDC_ENSURE(a.server < input.servers.size(), "assignment: bad server");
    MDC_ENSURE(a.rps >= 0.0, "assignment: negative rps");
    MDC_ENSURE(seen.emplace(a.app, a.server).second,
               "duplicate (app, server) assignment");
    used[a.server] += input.apps[a.app].sla.demandFor(a.rps);
    served[a.app] += a.rps;
  }
  constexpr double kSlack = 1e-6;
  for (std::uint32_t s = 0; s < input.servers.size(); ++s) {
    const CapacityVec cap = input.servers[s].capacity;
    MDC_ENSURE(used[s].cpu() <= cap.cpu() + kSlack &&
                   used[s].memory() <= cap.memory() + kSlack &&
                   used[s].network() <= cap.network() + kSlack,
               "server oversubscribed by placement");
  }
  double total = 0.0;
  for (std::uint32_t a = 0; a < input.apps.size(); ++a) {
    MDC_ENSURE(served[a] <= input.apps[a].demandRps + kSlack,
               "app served more than its demand");
    total += served[a];
  }
  MDC_ENSURE(std::abs(total - result.satisfiedRps) <=
                 kSlack * (1.0 + total),
             "satisfiedRps inconsistent with assignment");
}

}  // namespace mdc
