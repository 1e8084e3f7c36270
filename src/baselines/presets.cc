#include "baselines/presets.h"

namespace gpm::baselines {

core::GammaOptions GammaDefaultOptions() {
  core::GammaOptions options;
  options.access.placement = core::GraphPlacement::kHybridAdaptive;
  options.extension.write_strategy = core::WriteStrategy::kDynamicAlloc;
  options.extension.pre_merge = true;
  options.sort.method = core::SortMethod::kGammaMultiMerge;
  options.device_resident_tables = false;
  return options;
}

core::GammaOptions PangolinGpuOptions() {
  core::GammaOptions options;
  options.access.placement = core::GraphPlacement::kDeviceResident;
  options.extension.write_strategy = core::WriteStrategy::kNaiveTwoPass;
  options.extension.pre_merge = false;
  options.sort.method = core::SortMethod::kGammaMultiMerge;
  options.sort.in_core_only = true;
  options.device_resident_tables = true;
  return options;
}

core::GammaOptions GsiOptions() {
  core::GammaOptions options;
  options.access.placement = core::GraphPlacement::kDeviceResident;
  options.extension.write_strategy = core::WriteStrategy::kPreAlloc;
  options.extension.pre_merge = false;
  options.sort.in_core_only = true;
  options.device_resident_tables = true;
  return options;
}

}  // namespace gpm::baselines
