#ifndef GAMMA_BASELINES_PRESETS_H_
#define GAMMA_BASELINES_PRESETS_H_

#include "core/gamma.h"

namespace gpm::baselines {

/// GAMMA as evaluated in the paper: out-of-core, self-adaptive hybrid
/// access, dynamic allocation, pre-merge grouping, multi-merge aggregation
/// sort. Every preset compacts the table after filtering.
core::GammaOptions GammaDefaultOptions();

/// Pangolin's GPU design point: everything in-core (graph + embedding
/// tables in device memory), count-then-write extension, no grouping,
/// in-core-only aggregation sort.
core::GammaOptions PangolinGpuOptions();

/// GSI's design point: in-core with worst-case preallocation
/// ("prealloc-combine") instead of joining twice.
core::GammaOptions GsiOptions();

}  // namespace gpm::baselines

#endif  // GAMMA_BASELINES_PRESETS_H_
