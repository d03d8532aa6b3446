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

// -------------------------------------------------------------- registry

ParentPolicyRegistry& ParentPolicyRegistry::instance() {
  static ParentPolicyRegistry* registry = [] {
    auto* r = new ParentPolicyRegistry();
    r->add("min-hop", [](const PolicyContext&) {
      return std::make_unique<MinHopPolicy>();
    });
    r->add("etx", [](const PolicyContext& ctx) -> std::unique_ptr<ParentPolicy> {
      if (ctx.estimator == nullptr) {
        throw std::invalid_argument{
            "ParentPolicyRegistry: \"etx\" needs a LinkEstimator in the context"};
      }
      return std::make_unique<EtxPolicy>(*ctx.estimator, ctx.etx);
    });
    return r;
  }();
  return *registry;
}

void ParentPolicyRegistry::add(std::string name, Factory factory) {
  std::lock_guard<std::mutex> lock{mu_};
  for (const auto& [existing, _] : entries_) {
    if (existing == name) {
      throw std::invalid_argument{"ParentPolicyRegistry: duplicate policy \"" +
                                  name + "\""};
    }
  }
  entries_.emplace_back(std::move(name), std::move(factory));
}

bool ParentPolicyRegistry::contains(const std::string& name) const {
  std::lock_guard<std::mutex> lock{mu_};
  for (const auto& [existing, _] : entries_) {
    if (existing == name) return true;
  }
  return false;
}

std::vector<std::string> ParentPolicyRegistry::names() const {
  std::lock_guard<std::mutex> lock{mu_};
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, _] : entries_) out.push_back(name);
  std::sort(out.begin(), out.end());
  return out;
}

std::unique_ptr<ParentPolicy> ParentPolicyRegistry::create(
    const std::string& name, const PolicyContext& ctx) const {
  Factory factory;
  {
    std::lock_guard<std::mutex> lock{mu_};
    for (const auto& [existing, f] : entries_) {
      if (existing == name) {
        factory = f;
        break;
      }
    }
  }
  if (!factory) {
    std::string msg = "ParentPolicyRegistry: unknown policy \"" + name +
                      "\"; known policies:";
    for (const std::string& known : names()) msg += " " + known;
    throw std::invalid_argument{msg};
  }
  std::unique_ptr<ParentPolicy> policy = factory(ctx);
  if (policy == nullptr) {
    throw std::invalid_argument{"ParentPolicyRegistry: \"" + name +
                                "\" built no policy"};
  }
  return policy;
}

ParentPolicyRegistrar::ParentPolicyRegistrar(std::string name,
                                             ParentPolicyRegistry::Factory factory) {
  ParentPolicyRegistry::instance().add(std::move(name), std::move(factory));
}

// ------------------------------------------------------------------ spec

std::unique_ptr<ParentPolicy> RoutingSpec::build(const PolicyContext& ctx) const {
  PolicyContext full = ctx;
  full.etx = etx;
  return ParentPolicyRegistry::instance().create(policy, full);
}

}  // namespace essat::routing
