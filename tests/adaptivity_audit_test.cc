// Adaptivity-audit tests: the counterfactual shadow models are validated
// against ground truth (a hybrid run's est_unified/est_zerocopy totals
// must match pure --placement runs' actual counters exactly, and their
// cycle sums bit-for-bit), the audit is proven cost-free (bit-identical
// clock and counters with the observer on or off), record bookkeeping is
// checked (one record per extension, decision snapshots filled), and the
// gamma.adaptivity.v1 document shape is parsed back.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "core/adaptivity_audit.h"
#include "core/compiled_engine.h"
#include "core/gamma.h"
#include "core/pattern_compiler.h"
#include "graph/generators.h"
#include "gpusim/device.h"
#include "gpusim/sim_params.h"
#include "minijson.h"

namespace gpm::core {
namespace {

gpusim::SimParams TestParams() {
  gpusim::SimParams p;
  // The page buffer holds only a fraction of the graph, so faults, hits,
  // and evictions all occur and the LRU order matters.
  p.device_memory_bytes = 8 << 20;
  p.um_device_buffer_bytes = 32 << 10;
  return p;
}

graph::Graph TestGraph() {
  Rng rng(11);
  graph::Graph g = graph::PowerLaw(500, 4000, 0.9, &rng);
  g.EnsureEdgeIndex();
  return g;
}

/// Everything a run leaves behind once the engine is destroyed.
struct RunOutcome {
  uint64_t cliques = 0;
  double now_cycles = 0;
  gpusim::DeviceStats stats;
  bool has_audit = false;
  AdaptivitySummary summary;
  ShadowCounters est_unified;
  ShadowCounters est_zerocopy;
  std::vector<AdaptivityRecord> records;
  std::string json;  // gamma.adaptivity.v1: every record plus the totals
};

/// Runs 4-clique counting on a fresh device under `placement`, capturing
/// the audit state (when enabled) before the engine goes away.
RunOutcome RunKClique(const graph::Graph& g, GraphPlacement placement,
                      bool audit, int host_threads = 1) {
  gpusim::SimParams params = TestParams();
  params.host_threads = host_threads;
  gpusim::Device device(params);
  GammaOptions options;
  options.access.placement = placement;
  options.adaptivity_audit = audit;
  GammaEngine engine(&device, &g, options);
  EXPECT_TRUE(engine.Prepare().ok());
  auto r = CompiledEngine(&engine).Run(
      PatternCompiler(&g).CompileKClique(4, false).value());
  EXPECT_TRUE(r.ok());

  RunOutcome out;
  out.cliques = r.ok() ? r.value().embeddings : 0;
  out.now_cycles = device.now_cycles();
  out.stats = device.stats().Snapshot();
  if (engine.audit() != nullptr) {
    out.has_audit = true;
    out.summary = engine.audit()->Summary();
    out.est_unified = engine.audit()->unified_shadow_totals();
    out.est_zerocopy = engine.audit()->zerocopy_shadow_totals();
    out.records = engine.audit()->records();
    out.json = engine.audit()->ToJson();
  }
  return out;
}

// --- Shadow vs. ground truth -----------------------------------------------
//
// Functional execution is placement-independent: the hybrid run and the
// pure runs issue the identical logical access stream. The audit replays
// that stream through shadow models that mirror the real cost arithmetic,
// so the hybrid's counterfactual totals must equal the pure runs' actual
// counters EXACTLY — not approximately. (The comparison is on access-
// charge sums, the only cost component that depends on placement.)

TEST(AdaptivityAuditTest, ShadowUnifiedMatchesPureUnifiedGroundTruth) {
  graph::Graph g = TestGraph();
  RunOutcome hybrid = RunKClique(g, GraphPlacement::kHybridAdaptive, true);
  RunOutcome unified = RunKClique(g, GraphPlacement::kUnifiedOnly, true);
  ASSERT_TRUE(hybrid.has_audit);
  ASSERT_TRUE(unified.has_audit);
  EXPECT_EQ(hybrid.cliques, unified.cliques);

  // Counter-exact: the shadow LRU walked the same pages in the same order
  // as the pure run's real page buffer.
  EXPECT_EQ(hybrid.est_unified.stats.um_page_faults,
            unified.stats.um_page_faults);
  EXPECT_EQ(hybrid.est_unified.stats.um_page_hits,
            unified.stats.um_page_hits);
  EXPECT_EQ(hybrid.est_unified.stats.um_migrated_bytes,
            unified.stats.um_migrated_bytes);
  EXPECT_EQ(hybrid.est_unified.stats.um_evictions,
            unified.stats.um_evictions);
  // The pure-unified run still zero-copies what stays zero-copy under
  // every placement (the start table's scan kernel in
  // GammaEngine::InitVertexTable); the shadow replays those too.
  EXPECT_EQ(hybrid.est_unified.stats.zc_transactions,
            unified.stats.zc_transactions);
  EXPECT_EQ(hybrid.est_unified.stats.zc_bytes, unified.stats.zc_bytes);

  // Cycle-exact: same charges in the same order, accumulated the same way.
  EXPECT_DOUBLE_EQ(hybrid.est_unified.cycles,
                   unified.summary.actual_access_cycles);
}

TEST(AdaptivityAuditTest, ShadowZeroCopyMatchesPureZeroCopyGroundTruth) {
  graph::Graph g = TestGraph();
  RunOutcome hybrid = RunKClique(g, GraphPlacement::kHybridAdaptive, true);
  RunOutcome zc = RunKClique(g, GraphPlacement::kZeroCopyOnly, true);
  ASSERT_TRUE(hybrid.has_audit);
  ASSERT_TRUE(zc.has_audit);
  EXPECT_EQ(hybrid.cliques, zc.cliques);

  EXPECT_EQ(hybrid.est_zerocopy.stats.zc_transactions,
            zc.stats.zc_transactions);
  EXPECT_EQ(hybrid.est_zerocopy.stats.zc_bytes, zc.stats.zc_bytes);
  // Non-graph data (labels, packed edges, table columns) stays unified
  // under every host placement, so the zero-copy shadow carries the same
  // unified traffic the pure run actually paid.
  EXPECT_EQ(hybrid.est_zerocopy.stats.um_page_faults,
            zc.stats.um_page_faults);
  EXPECT_EQ(hybrid.est_zerocopy.stats.um_page_hits, zc.stats.um_page_hits);
  EXPECT_EQ(hybrid.est_zerocopy.stats.um_migrated_bytes,
            zc.stats.um_migrated_bytes);
  EXPECT_EQ(hybrid.est_zerocopy.stats.um_evictions, zc.stats.um_evictions);

  EXPECT_DOUBLE_EQ(hybrid.est_zerocopy.cycles,
                   zc.summary.actual_access_cycles);
}

TEST(AdaptivityAuditTest, PureRunShadowIsSelfConsistent) {
  graph::Graph g = TestGraph();
  // A pure run's matching shadow replays exactly the charges the real
  // buffer made: estimate == actual, and its committed-mode regret is the
  // gap to the other pure mode only (zero when it is itself the best).
  RunOutcome unified = RunKClique(g, GraphPlacement::kUnifiedOnly, true);
  ASSERT_TRUE(unified.has_audit);
  EXPECT_DOUBLE_EQ(unified.est_unified.cycles,
                   unified.summary.actual_access_cycles);
  EXPECT_EQ(unified.est_unified.stats.um_page_faults,
            unified.stats.um_page_faults);
  EXPECT_EQ(unified.est_unified.stats.um_evictions,
            unified.stats.um_evictions);
  EXPECT_DOUBLE_EQ(unified.summary.est_unified_cycles,
                   unified.est_unified.cycles);
  // Pure runs plan nothing, so plan_cycles stays zero and regret reduces
  // to actual - min(est): never negative for the run's own mode.
  EXPECT_DOUBLE_EQ(unified.summary.plan_cycles, 0.0);
  EXPECT_GE(unified.summary.regret_cycles, 0.0);

  RunOutcome zc = RunKClique(g, GraphPlacement::kZeroCopyOnly, true);
  ASSERT_TRUE(zc.has_audit);
  EXPECT_DOUBLE_EQ(zc.est_zerocopy.cycles, zc.summary.actual_access_cycles);
  EXPECT_EQ(zc.est_zerocopy.stats.zc_transactions, zc.stats.zc_transactions);
  EXPECT_DOUBLE_EQ(zc.summary.plan_cycles, 0.0);
  EXPECT_GE(zc.summary.regret_cycles, 0.0);
}

// --- Zero-cost observing ---------------------------------------------------

TEST(AdaptivityAuditTest, AuditDoesNotPerturbSimulation) {
  graph::Graph g = TestGraph();
  for (GraphPlacement placement :
       {GraphPlacement::kHybridAdaptive, GraphPlacement::kUnifiedOnly,
        GraphPlacement::kZeroCopyOnly}) {
    RunOutcome off = RunKClique(g, placement, false);
    RunOutcome on = RunKClique(g, placement, true);
    EXPECT_FALSE(off.has_audit);
    EXPECT_TRUE(on.has_audit);
    EXPECT_EQ(off.cliques, on.cliques);
    // Bit-identical simulated time and counters: observing is read-only.
    EXPECT_EQ(off.now_cycles, on.now_cycles)
        << GraphPlacementName(placement);
    for (const gpusim::DeviceStats::Field& f :
         gpusim::DeviceStats::Fields()) {
      EXPECT_EQ(off.stats.*f.member, on.stats.*f.member)
          << GraphPlacementName(placement) << " " << f.name;
    }
  }
}

// The taps fire while the launching thread replays each task's log, so a
// parallel run replays the same stream into the shadows in the same order.
TEST(AdaptivityAuditTest, RecordsIdenticalAcrossHostThreads) {
  graph::Graph g = TestGraph();
  for (GraphPlacement placement :
       {GraphPlacement::kHybridAdaptive, GraphPlacement::kUnifiedOnly,
        GraphPlacement::kZeroCopyOnly}) {
    RunOutcome serial = RunKClique(g, placement, true, 1);
    RunOutcome parallel = RunKClique(g, placement, true, 4);
    ASSERT_TRUE(serial.has_audit);
    ASSERT_TRUE(parallel.has_audit);
    const char* name = GraphPlacementName(placement);
    EXPECT_EQ(serial.records.size(), parallel.records.size()) << name;
    // %.17g round-trips every double, so equal documents mean every
    // record field and summary total is bit-identical.
    EXPECT_EQ(serial.json, parallel.json) << name;
    EXPECT_EQ(serial.est_unified.cycles, parallel.est_unified.cycles)
        << name;
    EXPECT_EQ(serial.est_zerocopy.cycles, parallel.est_zerocopy.cycles)
        << name;
    for (const gpusim::DeviceStats::Field& f :
         gpusim::DeviceStats::Fields()) {
      EXPECT_EQ(serial.est_unified.stats.*f.member,
                parallel.est_unified.stats.*f.member)
          << name << " " << f.name;
      EXPECT_EQ(serial.est_zerocopy.stats.*f.member,
                parallel.est_zerocopy.stats.*f.member)
          << name << " " << f.name;
    }
  }
}

TEST(AdaptivityAuditTest, DeviceResidentPlacementGetsNoAudit) {
  graph::Graph g = TestGraph();
  // Nothing to audit when the graph is device-resident: the option is
  // accepted but no observer is attached.
  RunOutcome dev = RunKClique(g, GraphPlacement::kDeviceResident, true);
  EXPECT_FALSE(dev.has_audit);
}

// --- Record bookkeeping ----------------------------------------------------

TEST(AdaptivityAuditTest, OneRecordPerExtensionWithDecisionSnapshots) {
  graph::Graph g = TestGraph();
  RunOutcome hybrid = RunKClique(g, GraphPlacement::kHybridAdaptive, true);
  ASSERT_TRUE(hybrid.has_audit);
  // 4-clique = vertex init + 3 vertex extensions.
  ASSERT_EQ(hybrid.records.size(), 3u);
  EXPECT_EQ(hybrid.summary.extensions, 3u);
  for (std::size_t i = 0; i < hybrid.records.size(); ++i) {
    const AdaptivityRecord& rec = hybrid.records[i];
    EXPECT_EQ(rec.extension, static_cast<int>(i) + 1);
    EXPECT_GT(rec.frontier_vertices, 0u);
    EXPECT_GT(rec.planned_bytes, 0.0);
    EXPECT_GT(rec.unified_pages, 0u);
    EXPECT_GT(rec.plan_cycles, 0.0);
    EXPECT_GE(rec.w_spatial, 0.0);
    EXPECT_LE(rec.w_spatial, 1.0);
    EXPECT_GT(rec.heat_nonzero_pages, 0u);
    uint64_t histogram_total = 0;
    for (uint64_t bucket : rec.heat_histogram) histogram_total += bucket;
    EXPECT_EQ(histogram_total, rec.heat_nonzero_pages);
    EXPECT_GT(rec.est_unified.cycles, 0.0);
    EXPECT_GT(rec.est_zerocopy.cycles, 0.0);
  }
  // The first plan has no history: spatial locality gets all the weight.
  EXPECT_DOUBLE_EQ(hybrid.records[0].w_spatial, 1.0);
  // Per-record actuals sum to the recorded totals minus pre-extension
  // traffic (InitVertexTable runs before the first plan).
  double recorded = 0;
  for (const AdaptivityRecord& rec : hybrid.records) {
    recorded += rec.actual_access_cycles;
  }
  EXPECT_LE(recorded, hybrid.summary.actual_access_cycles);
}

TEST(AdaptivityAuditTest, PureRunsCarryRecordsWithoutPlans) {
  graph::Graph g = TestGraph();
  RunOutcome unified = RunKClique(g, GraphPlacement::kUnifiedOnly, true);
  ASSERT_TRUE(unified.has_audit);
  ASSERT_EQ(unified.records.size(), 3u);
  for (const AdaptivityRecord& rec : unified.records) {
    EXPECT_EQ(rec.unified_pages, 0u);  // no hybrid plan ran
    EXPECT_DOUBLE_EQ(rec.plan_cycles, 0.0);
    EXPECT_GT(rec.frontier_vertices, 0u);
  }
}

// --- JSON export -----------------------------------------------------------

TEST(AdaptivityAuditTest, ToJsonMatchesSchema) {
  graph::Graph g = TestGraph();
  gpusim::Device device(TestParams());
  GammaOptions options;
  options.adaptivity_audit = true;
  GammaEngine engine(&device, &g, options);
  ASSERT_TRUE(engine.Prepare().ok());
  ASSERT_TRUE(CompiledEngine(&engine)
                  .Run(PatternCompiler(&g).CompileKClique(4, false).value())
                  .ok());
  ASSERT_NE(engine.audit(), nullptr);

  std::string json = engine.audit()->ToJson();
  minijson::Value doc;
  ASSERT_TRUE(minijson::Parse(json, &doc)) << json;
  EXPECT_EQ(doc.Find("schema")->str, "gamma.adaptivity.v1");
  EXPECT_EQ(doc.Find("placement")->str, "hybrid-adaptive");
  const minijson::Value* totals = doc.Find("totals");
  ASSERT_NE(totals, nullptr);
  const std::string best = totals->Find("best_pure")->str;
  EXPECT_TRUE(best == "unified" || best == "zerocopy") << best;

  const minijson::Value* records = doc.Find("records");
  ASSERT_NE(records, nullptr);
  ASSERT_EQ(records->array.size(),
            static_cast<std::size_t>(doc.Find("extensions")->number));
  const minijson::Value& rec = records->array[0];
  EXPECT_DOUBLE_EQ(rec.Find("extension")->number, 1.0);
  ASSERT_NE(rec.Find("heat"), nullptr);
  EXPECT_EQ(rec.Find("heat")->Find("histogram")->array.size(),
            kHeatHistogramBuckets);
  ASSERT_NE(rec.Find("actual"), nullptr);
  EXPECT_GT(rec.Find("actual")->Find("access_cycles")->number, 0.0);
  EXPECT_GT(rec.Find("est_unified")->Find("cycles")->number, 0.0);
  EXPECT_GT(rec.Find("est_zerocopy")->Find("cycles")->number, 0.0);

  // The summary mirrors the document totals.
  AdaptivitySummary summary = engine.audit()->Summary();
  EXPECT_DOUBLE_EQ(totals->Find("regret_cycles")->number,
                   summary.regret_cycles);
}

}  // namespace
}  // namespace gpm::core
