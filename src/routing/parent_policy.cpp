#include "src/routing/parent_policy.h"

#include <algorithm>
#include <stdexcept>

#include "src/routing/link_estimator.h"

namespace essat::routing {

ParentPolicy& default_policy() {
  static MinHopPolicy policy;
  return policy;
}

// ------------------------------------------------------------------- etx

EtxPolicy::EtxPolicy(const LinkEstimator& estimator, EtxParams params)
    : estimator_{estimator}, params_{params} {}

double EtxPolicy::link_cost(net::NodeId child, net::NodeId parent) {
  return std::min(params_.max_link_etx, estimator_.etx(child, parent));
}

double EtxPolicy::path_cost(const Tree& tree, net::NodeId n) {
  double cost = 0.0;
  net::NodeId u = n;
  while (u != tree.root() && u != net::kNoNode) {
    const net::NodeId p = tree.parent(u);
    if (p == net::kNoNode) break;
    cost += link_cost(u, p);
    u = p;
  }
  return cost;
}

// ------------------------------------------------------------------ spec

std::unique_ptr<ParentPolicy> RoutingSpec::build(const PolicyContext& ctx) const {
  if (policy == MinHopPolicy::kName) return std::make_unique<MinHopPolicy>();
  if (policy == EtxPolicy::kName) {
    if (ctx.estimator == nullptr) {
      throw std::invalid_argument{std::string{"RoutingSpec: \""} + EtxPolicy::kName +
                                  "\" needs a LinkEstimator in the context"};
    }
    return std::make_unique<EtxPolicy>(*ctx.estimator, etx);
  }
  throw std::invalid_argument{"RoutingSpec: unknown parent policy \"" + policy +
                              "\"; known policies: " + MinHopPolicy::kName + " " +
                              EtxPolicy::kName};
}

}  // namespace essat::routing
