// EC2 instance types.
//
// The paper runs exclusively on Cluster Compute Eight Extra Large (CC2)
// instances — "we use the spot market to run only CC2 instances and ignore
// other inferior clusters" (Section 2.3) — billed at $2.40/hr on-demand.
// Other 2013-era HPC-ish types are listed for the examples and ablations.
#pragma once

#include <string>
#include <vector>

#include "common/money.hpp"

namespace redspot {

struct InstanceType {
  std::string api_name;     ///< e.g. "cc2.8xlarge"
  std::string description;
  Money on_demand_rate;     ///< $/hour, fixed (Section 2.1)
  int vcpus = 0;
  double memory_gib = 0.0;
};

/// The paper's instance: cc2.8xlarge at $2.40/hr.
const InstanceType& cc2_instance();

/// 2013-era catalog (for examples; the evaluation uses only CC2).
const std::vector<InstanceType>& instance_catalog();

}  // namespace redspot
