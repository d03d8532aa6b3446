// Pluggable parent-selection policies for tree construction and repair.
//
// Two sites choose parents: the central build (build_policy_tree) and the
// repair service. A ParentPolicy puts that decision behind two quantities
// both selection sites compose the same way:
//
//   score(candidate) = path_cost(candidate) + link_cost(child, candidate)
//
// choosing the candidate with the lowest score (ties keep the incumbent /
// first candidate in ascending-id order).
//
// The two policies, named by RoutingSpec::policy:
//  * "min-hop" — link_cost 1, path_cost = tree level: the paper's "lowest
//    level wins" rule, and the default at both selection sites.
//  * "etx"     — link_cost = the hop's bidirectional expected transmission
//    count from a LinkEstimator over the channel's loss statistics,
//    path_cost = the candidate's summed link ETX to the root. Routes around
//    gray-zone links that min-hop happily takes.
#pragma once

#include <memory>
#include <string>

#include "src/net/types.h"
#include "src/routing/tree.h"

namespace essat::routing {

class LinkEstimator;

class ParentPolicy {
 public:
  virtual ~ParentPolicy() = default;
  virtual const char* name() const = 0;
  // Cost of the hop child -> parent; lower is better, must be positive.
  virtual double link_cost(net::NodeId child, net::NodeId parent) = 0;
  // Cost of member `n`'s current path to the root (0 at the root) — the
  // quantity candidates advertise and selections compare.
  virtual double path_cost(const Tree& tree, net::NodeId n) = 0;
  // True when the policy reads the LinkEstimator: the harness then keeps
  // the channel's per-link frame statistics on (they cost a hash-map update
  // per in-range receiver, so estimator-free runs switch them off).
  virtual bool uses_link_estimator() const { return false; }
};

// Every hop costs 1 and a member's path cost is its level, so "lowest
// score" is exactly "lowest level".
class MinHopPolicy : public ParentPolicy {
 public:
  static constexpr const char* kName = "min-hop";
  const char* name() const override { return kName; }
  double link_cost(net::NodeId, net::NodeId) override { return 1.0; }
  double path_cost(const Tree& tree, net::NodeId n) override {
    return static_cast<double>(tree.level(n));
  }
};

// The shared MinHopPolicy that selection sites use when no policy is
// installed. Stateless, so one instance serves every trial and thread.
ParentPolicy& default_policy();

struct EtxParams {
  // LinkEstimator smoothing: pseudo-frame weight of the model prior, and
  // the per-direction PRR floor.
  double prior_weight = 8.0;
  double min_prr = 0.05;
  // Hard cap on a single hop's cost, so one dead link cannot dominate an
  // entire path sum.
  double max_link_etx = 16.0;
};

class EtxPolicy : public ParentPolicy {
 public:
  static constexpr const char* kName = "etx";

  EtxPolicy(const LinkEstimator& estimator, EtxParams params);

  const char* name() const override { return kName; }
  double link_cost(net::NodeId child, net::NodeId parent) override;
  // Sum of link costs along `n`'s ancestor chain.
  double path_cost(const Tree& tree, net::NodeId n) override;
  bool uses_link_estimator() const override { return true; }

 private:
  const LinkEstimator& estimator_;
  EtxParams params_;
};

// What RoutingSpec::build may need. Only `estimator` is read: "etx" needs
// it (null when the harness has none to offer), and takes its EtxParams
// from the spec itself.
struct PolicyContext {
  const net::Topology* topo = nullptr;
  const LinkEstimator* estimator = nullptr;
  EtxParams etx;
};

// ---------------------------------------------------------------------------
// Declarative routing description, carried on harness::ScenarioConfig and
// sweepable as a unit (exp::SweepSpec::axis_routing).

struct RoutingSpec {
  // The parent-selection policy: MinHopPolicy::kName or EtxPolicy::kName.
  std::string policy = MinHopPolicy::kName;

  // "etx" knobs.
  EtxParams etx;

  // Never returns null. Throws std::invalid_argument on an unknown key,
  // listing both names, and on "etx" without an estimator.
  std::unique_ptr<ParentPolicy> build(const PolicyContext& ctx) const;

  // Sink/axis label: the policy key.
  std::string label() const { return policy; }
};

}  // namespace essat::routing
