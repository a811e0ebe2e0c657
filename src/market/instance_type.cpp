#include "market/instance_type.hpp"

namespace redspot {

const InstanceType& cc2_instance() {
  static const InstanceType cc2{
      .api_name = "cc2.8xlarge",
      .description = "Cluster Compute Eight Extra Large",
      .on_demand_rate = Money::dollars(2.40),
      .vcpus = 32,
      .memory_gib = 60.5,
  };
  return cc2;
}

const std::vector<InstanceType>& instance_catalog() {
  static const std::vector<InstanceType> catalog{
      cc2_instance(),
      {"cr1.8xlarge", "High Memory Cluster Eight Extra Large",
       Money::dollars(3.50), 32, 244.0},
      {"cg1.4xlarge", "Cluster GPU Quadruple Extra Large",
       Money::dollars(2.10), 16, 22.5},
      {"m1.xlarge", "General purpose (I/O server class)",
       Money::dollars(0.48), 4, 15.0},
  };
  return catalog;
}

}  // namespace redspot
