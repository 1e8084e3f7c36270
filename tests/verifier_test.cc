// Static plan-verifier suite: every compiler-emitted preset plan must
// discharge every proof obligation; every count-changing corruption must
// be refuted naming the violated obligation; the engine's Run gate must
// refuse refuted plans with kFailedPrecondition; gamma.plan.v1 documents
// must round-trip byte-identically (rationale included); and the hardened
// pattern parsers must reject malformed input with structured errors.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/compiled_engine.h"
#include "core/gamma.h"
#include "core/pattern_compiler.h"
#include "core/plan_io.h"
#include "core/plan_verifier.h"
#include "graph/generators.h"
#include "graph/isomorphism.h"
#include "graph/pattern.h"
#include "gpusim/device.h"

namespace gpm {
namespace {

gpusim::SimParams TestParams() {
  gpusim::SimParams p;
  p.device_memory_bytes = 16 << 20;
  p.um_device_buffer_bytes = 2 << 20;
  return p;
}

graph::Graph RandomLabeled(uint64_t seed, graph::VertexId n,
                           std::size_t m) {
  Rng rng(seed);
  graph::Graph g = graph::ErdosRenyi(n, m, &rng);
  graph::AssignLabelsZipf(&g, 3, 0.3, &rng);
  g.EnsureEdgeIndex();
  return g;
}

core::VerifyReport Verify(const graph::Graph& g,
                          const core::CompiledPlan& plan) {
  core::VerifyOptions vopts;
  vopts.graph = &g;
  core::ExtensionOptions default_extension;
  vopts.engine_extension = &default_extension;
  return core::PlanVerifier(vopts).Verify(plan);
}

// True when some finding carries the given obligation name.
bool HasObligation(const core::VerifyReport& report,
                   const std::string& obligation) {
  for (const core::VerifyFinding& f : report.findings) {
    if (f.obligation == obligation) return true;
  }
  return false;
}

// Asserts the corrupted plan is refuted and the report names `obligation`.
void ExpectRefuted(const graph::Graph& g, const core::CompiledPlan& plan,
                   const std::string& obligation) {
  const core::VerifyReport report = Verify(g, plan);
  EXPECT_FALSE(report.verified) << "expected refutation naming "
                                << obligation;
  EXPECT_TRUE(HasObligation(report, obligation))
      << "wanted obligation '" << obligation << "', report:\n"
      << report.ReportText();
}

TEST(VerifierCleanTest, PresetPlansDischargeEveryObligation) {
  graph::Graph g = RandomLabeled(11, 60, 500);
  core::PatternCompiler compiler(&g);
  std::vector<std::pair<std::string, core::CompiledPlan>> plans;
  for (int k : {3, 4, 5}) {
    plans.emplace_back("kclique" + std::to_string(k),
                       compiler.CompileKClique(k, true).value());
    plans.emplace_back("motif" + std::to_string(k),
                       compiler.CompileMotifCensus(k).value());
  }
  plans.emplace_back("fpm", compiler.CompileFpm(3, 40).value());
  plans.emplace_back(
      "edge-join",
      compiler.CompileEdgeJoin(graph::Pattern::Diamond()).value());
  const std::vector<graph::Pattern> queries = {
      graph::Pattern::SmQuery(1, g.num_labels()),
      graph::Pattern::SmQuery(2, g.num_labels()),
      graph::Pattern::SmQuery(3, g.num_labels()),
      graph::Pattern::Triangle(),
      graph::Pattern::Diamond(),
      graph::Pattern::TailedTriangle(),
      graph::Pattern::Cycle(4),
  };
  for (std::size_t i = 0; i < queries.size(); ++i) {
    core::CompileOptions plain;
    plans.emplace_back("sm" + std::to_string(i),
                       compiler.CompileMatch(queries[i], plain).value());
    core::CompileOptions symmetric;
    symmetric.break_symmetry = true;
    plans.emplace_back(
        "sm-sym" + std::to_string(i),
        compiler.CompileMatch(queries[i], symmetric).value());
    core::CompileOptions autoplan;
    autoplan.plan_strategy = core::PlanStrategy::kGreedyCardinality;
    autoplan.break_symmetry = true;
    autoplan.fold_ascending = true;
    autoplan.input_aware = true;
    plans.emplace_back(
        "sm-auto" + std::to_string(i),
        compiler.CompileMatch(queries[i], autoplan).value());
  }

  for (const auto& [name, plan] : plans) {
    const core::VerifyReport report = Verify(g, plan);
    EXPECT_TRUE(report.verified)
        << name << ":\n"
        << report.ReportText();
    EXPECT_EQ(report.errors, 0) << name;
    EXPECT_TRUE(report.structural_checked && report.structural_passed)
        << name;
    EXPECT_TRUE(report.resources_checked && report.resources_passed)
        << name;
    EXPECT_GT(report.obligations_checked, 0) << name;
    // gamma.verify.v1 serialization stays well-formed for clean reports.
    const std::string json = report.ToJson();
    EXPECT_NE(json.find("\"schema\": \"gamma.verify.v1\""),
              std::string::npos)
        << name;
  }
}

TEST(VerifierRefutationTest, StructuralObligations) {
  graph::Graph g = RandomLabeled(11, 60, 500);
  core::PatternCompiler compiler(&g);
  core::CompileOptions sym;
  sym.break_symmetry = true;
  const core::CompiledPlan tailed =
      compiler.CompileMatch(graph::Pattern::TailedTriangle(), sym).value();

  {  // duplicate matching-order entry
    core::CompiledPlan bad = tailed;
    bad.order[0] = bad.order[1];
    ExpectRefuted(g, bad, "order-permutation");
  }
  {  // disconnected pattern under an otherwise size-consistent plan
    core::CompiledPlan bad = tailed;
    graph::Pattern split(4);
    split.AddEdge(0, 1);
    split.AddEdge(2, 3);
    bad.pattern = split;
    ExpectRefuted(g, bad, "pattern-connected");
  }
  {  // candidate label contradicting the pattern
    core::CompiledPlan bad = tailed;
    bad.levels[0].candidate_label = 7;
    ExpectRefuted(g, bad, "label-consistent");
  }
  {  // missing level
    core::CompiledPlan bad = tailed;
    bad.levels.pop_back();
    ExpectRefuted(g, bad, "level-count");
  }
  {  // intersect column referencing an unbound position
    core::CompiledPlan bad = tailed;
    bad.levels.back().intersect_positions.push_back(7);
    ExpectRefuted(g, bad, "intersect-bounds");
  }
  {  // empty intersect set on a subgraph-match level
    core::CompiledPlan bad = tailed;
    bad.levels[0].intersect_positions.clear();
    ExpectRefuted(g, bad, "prefix-connected");
  }
  {  // restriction not anchored at its own level
    core::CompiledPlan bad = tailed;
    bad.levels.back().restrictions.push_back({0, 1});
    ExpectRefuted(g, bad, "restriction-bounds");
  }
  {  // count-only before the final level
    core::CompiledPlan bad = tailed;
    bad.levels[0].count_only = true;
    ExpectRefuted(g, bad, "count-only-last");
  }
  {  // frequent mining with no edge budget
    core::CompiledPlan bad = compiler.CompileFpm(3, 40).value();
    bad.max_edges = 0;
    ExpectRefuted(g, bad, "fpm-params");
  }
  {  // frequent mining past the largest pattern (8 edges can span 9
     // vertices)
    core::CompiledPlan bad = compiler.CompileFpm(3, 40).value();
    bad.max_edges = core::CompiledPlan::kMaxFpmEdges + 1;
    ExpectRefuted(g, bad, "fpm-params");
  }
  {  // edge-join step that is not a pattern edge (diamond lacks 1-3)
    core::CompiledPlan bad =
        compiler.CompileEdgeJoin(graph::Pattern::Diamond()).value();
    bad.edge_order[1] = {1, 3};
    ExpectRefuted(g, bad, "edge-order");
  }
  {  // motif plans must stay unlabeled union extensions
    core::CompiledPlan bad = compiler.CompileMotifCensus(3).value();
    bad.levels[0].intersect_positions.push_back(0);
    ExpectRefuted(g, bad, "motif-shape");
  }
}

TEST(VerifierRefutationTest, SemanticObligations) {
  graph::Graph g = RandomLabeled(11, 60, 500);
  core::PatternCompiler compiler(&g);
  core::CompileOptions sym;
  sym.break_symmetry = true;
  const core::CompiledPlan clique =
      compiler.CompileMatch(graph::Pattern::Triangle(), sym).value();
  ASSERT_TRUE(Verify(g, clique).verified);

  {  // wrong automorphism count
    core::CompiledPlan bad = clique;
    bad.automorphisms += 1;
    ExpectRefuted(g, bad, "automorphism-count");
  }
  {  // dropping a restriction leaves an orbit with two representatives
    core::CompiledPlan bad = clique;
    bool dropped = false;
    for (auto& level : bad.levels) {
      if (!level.restrictions.empty() && !dropped) {
        level.restrictions.pop_back();
        dropped = true;
      }
    }
    ASSERT_TRUE(dropped);
    ExpectRefuted(g, bad, "restriction-complete");
  }
  {  // a contradictory restriction empties an orbit entirely
    core::CompiledPlan bad = clique;
    const int last = static_cast<int>(bad.order.size()) - 1;
    bad.levels.back().restrictions.push_back({last, 0});  // M_last < M_0
    ExpectRefuted(g, bad, "restriction-sound");
  }
  {  // filtering without claiming symmetry_broken undercounts
    core::CompiledPlan bad = clique;
    bad.symmetry_broken = false;
    ExpectRefuted(g, bad, "restriction-unclaimed");
  }
  {  // intersecting a non-edge drops valid embeddings
    core::CompiledPlan bad =
        compiler
            .CompileMatch(graph::Pattern::TailedTriangle(),
                          core::CompileOptions{})
            .value();
    // Find a level whose intersect set misses some bound position (the
    // tail vertex has one backward neighbor) and add the non-edge.
    bool corrupted = false;
    const int fd = bad.first_depth();
    for (std::size_t i = 0; i < bad.levels.size() && !corrupted; ++i) {
      const int d = fd + static_cast<int>(i);
      if (static_cast<int>(bad.levels[i].intersect_positions.size()) < d) {
        for (int pos = 0; pos < d; ++pos) {
          auto& v = bad.levels[i].intersect_positions;
          if (std::find(v.begin(), v.end(), pos) == v.end()) {
            v.push_back(pos);
            corrupted = true;
            break;
          }
        }
      }
    }
    ASSERT_TRUE(corrupted);
    ExpectRefuted(g, bad, "edge-coverage");
  }
  {  // disabling injectivity without an implying restriction chain
    core::CompiledPlan bad =
        compiler
            .CompileMatch(graph::Pattern::Path(3), core::CompileOptions{})
            .value();
    for (auto& level : bad.levels) level.enforce_injective = false;
    ExpectRefuted(g, bad, "injective-required");
  }
  {  // k-clique folding implies injectivity: disabling the filter is fine
    core::CompiledPlan folded = compiler.CompileKClique(4, false).value();
    for (auto& level : folded.levels) level.enforce_injective = false;
    EXPECT_TRUE(Verify(g, folded).verified);
  }
}

TEST(VerifierWarningTest, AdvisoryFindingsDoNotRefute) {
  graph::Graph g = RandomLabeled(11, 60, 500);
  core::PatternCompiler compiler(&g);

  {  // pre_merge pinned on with a single intersect column
    core::CompiledPlan plan =
        compiler
            .CompileMatch(graph::Pattern::Path(3), core::CompileOptions{})
            .value();
    plan.levels.back().pre_merge = true;
    const core::VerifyReport report = Verify(g, plan);
    EXPECT_TRUE(report.verified) << report.ReportText();
    EXPECT_GE(report.warnings, 1);
    EXPECT_TRUE(HasObligation(report, "pre-merge-width"));
  }
  {  // prealloc reservation that cannot fit the pool is advisory: the
    // runtime reproduces the paper's failure mode as device-out-of-memory
    core::CompiledPlan plan = compiler.CompileKClique(3, false).value();
    core::ExtensionOptions tiny;
    tiny.write_strategy = core::WriteStrategy::kPreAlloc;
    tiny.pool_bytes = 8;  // one table entry
    core::VerifyOptions vopts;
    vopts.graph = &g;
    vopts.engine_extension = &tiny;
    const core::VerifyReport report =
        core::PlanVerifier(vopts).Verify(plan);
    EXPECT_TRUE(report.verified) << report.ReportText();
    EXPECT_TRUE(HasObligation(report, "prealloc-overflow"))
        << report.ReportText();
    EXPECT_TRUE(report.resources_passed);
    // The abstract interpretation recorded the oversized reservation.
    bool overflow_recorded = false;
    for (const core::VerifyAbstractLevel& a : report.abstract_levels) {
      if (a.prealloc_entries > a.pool_entries) overflow_recorded = true;
    }
    EXPECT_TRUE(overflow_recorded);
  }
}

TEST(VerifierGateTest, EngineRefusesRefutedPlans) {
  graph::Graph g = RandomLabeled(11, 60, 500);
  core::PatternCompiler compiler(&g);
  core::CompileOptions sym;
  sym.break_symmetry = true;
  core::CompiledPlan bad =
      compiler.CompileMatch(graph::Pattern::Triangle(), sym).value();
  bad.automorphisms = 99;

  gpusim::Device device(TestParams());
  core::GammaEngine engine(&device, &g, {});
  ASSERT_TRUE(engine.Prepare().ok());
  auto run = core::CompiledEngine(&engine).Run(bad);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), ErrorCode::kFailedPrecondition);
  EXPECT_NE(run.status().message().find("automorphism-count"),
            std::string::npos)
      << run.status().message();
  // The gate is pure analysis: the refused run charged no cycles.
  EXPECT_EQ(device.stats().kernel_launches, 0u);
}

TEST(VerifierGateTest, VerifiedPlanWitnessRuns) {
  graph::Graph g = RandomLabeled(11, 60, 500);
  core::PatternCompiler compiler(&g);
  core::CompiledPlan plan = compiler.CompileKClique(3, true).value();

  gpusim::Device device(TestParams());
  core::GammaEngine engine(&device, &g, {});
  ASSERT_TRUE(engine.Prepare().ok());
  core::CompiledEngine compiled(&engine);
  auto verified =
      core::VerifiedPlan::Make(plan, compiled.MakeVerifyOptions());
  ASSERT_TRUE(verified.ok()) << verified.status().message();
  EXPECT_TRUE(verified.value().report().verified);
  auto run = compiled.Run(verified.value());
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run.value().embeddings,
            graph::CountInstances(g, graph::Pattern::Triangle()));
}

TEST(PlanRoundTripTest, AllKindsSerializeByteIdentically) {
  graph::Graph g = RandomLabeled(11, 60, 500);
  core::PatternCompiler compiler(&g);
  std::vector<core::CompiledPlan> plans;
  plans.push_back(compiler.CompileKClique(4, true).value());
  plans.push_back(compiler.CompileMotifCensus(4).value());
  plans.push_back(compiler.CompileFpm(3, 40).value());
  plans.push_back(
      compiler.CompileEdgeJoin(graph::Pattern::Diamond()).value());
  core::CompileOptions plain;
  plans.push_back(
      compiler.CompileMatch(graph::Pattern::SmQuery(2, g.num_labels()), plain)
          .value());
  // Input-aware compilation fills every rationale field; byte identity
  // here proves the parser re-derives them rather than dropping them.
  core::CompileOptions autoplan;
  autoplan.plan_strategy = core::PlanStrategy::kGreedyCardinality;
  autoplan.break_symmetry = true;
  autoplan.fold_ascending = true;
  autoplan.input_aware = true;
  plans.push_back(
      compiler.CompileMatch(graph::Pattern::Diamond(), autoplan).value());

  for (const core::CompiledPlan& plan : plans) {
    const std::string doc = plan.ToJson();
    auto reparsed = core::ParsePlanJson(doc);
    ASSERT_TRUE(reparsed.ok())
        << plan.DebugString() << ": " << reparsed.status().message();
    EXPECT_EQ(reparsed.value().ToJson(), doc) << plan.DebugString();
    // And the reparsed plan still verifies.
    EXPECT_TRUE(Verify(g, reparsed.value()).verified);
  }
}

std::string ReplaceOnce(std::string doc, const std::string& from,
                        const std::string& to) {
  const auto pos = doc.find(from);
  EXPECT_NE(pos, std::string::npos) << from;
  if (pos != std::string::npos) doc.replace(pos, from.size(), to);
  return doc;
}

TEST(PlanParseTest, RejectsMalformedDocuments) {
  graph::Graph g = RandomLabeled(11, 60, 500);
  core::PatternCompiler compiler(&g);
  const std::string doc = compiler.CompileKClique(3, false).value().ToJson();
  ASSERT_TRUE(core::ParsePlanJson(doc).ok());

  EXPECT_FALSE(core::ParsePlanJson("").ok());
  EXPECT_FALSE(core::ParsePlanJson("{}").ok());
  EXPECT_FALSE(core::ParsePlanJson("not json").ok());
  EXPECT_FALSE(
      core::ParsePlanJson(
          ReplaceOnce(doc, "\"gamma.plan.v1\"", "\"gamma.plan.v2\""))
          .ok());
  EXPECT_FALSE(
      core::ParsePlanJson(
          ReplaceOnce(doc, "\"subgraph-match\"", "\"bogus-kind\""))
          .ok());
  // A label spelled as the numeric wildcard sentinel would re-serialize
  // as "*": rejected to preserve byte identity.
  EXPECT_FALSE(
      core::ParsePlanJson(ReplaceOnce(doc, "\"*\"", "4294967295")).ok());
  // Out-of-range order entry.
  EXPECT_FALSE(core::ParsePlanJson(ReplaceOnce(doc,
                                               "\"order\": [\n    0,",
                                               "\"order\": [\n    99,"))
                   .ok());
}

// An external plan document can ask for an edge budget the compiler
// refuses; the gate must stop it before any kernel (an 8-edge pattern
// with 9 vertices would abort in Pattern's size check).
TEST(VerifierGateTest, EngineRefusesOversizedFpmDocument) {
  graph::Graph g = RandomLabeled(11, 60, 500);
  const std::string doc =
      core::PatternCompiler(&g).CompileFpm(3, 1).value().ToJson();
  auto parsed =
      core::ParsePlanJson(ReplaceOnce(doc, "\"max_edges\": 3",
                                      "\"max_edges\": 8"));
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  ASSERT_EQ(parsed.value().max_edges, 8);

  gpusim::Device device(TestParams());
  core::GammaEngine engine(&device, &g, {});
  ASSERT_TRUE(engine.Prepare().ok());
  auto run = core::CompiledEngine(&engine).Run(parsed.value());
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), ErrorCode::kFailedPrecondition);
  EXPECT_NE(run.status().message().find("fpm-params"), std::string::npos)
      << run.status().message();
  EXPECT_EQ(device.stats().kernel_launches, 0u);
}

TEST(PatternHardeningTest, InlineSpecRejectsAbuse) {
  EXPECT_TRUE(graph::ParsePattern("0-1,1-2,2-0").ok());
  EXPECT_TRUE(graph::ParsePattern("0-1,1-2;labels=5,*,7").ok());
  // Duplicate edges, in either orientation.
  EXPECT_FALSE(graph::ParsePattern("0-1,1-0").ok());
  EXPECT_FALSE(graph::ParsePattern("0-1,1-2,0-1").ok());
  // Gap in the vertex id range (vertex 1 appears in no edge).
  EXPECT_FALSE(graph::ParsePattern("0-2").ok());
  // Labels must be integers below the wildcard sentinel.
  EXPECT_FALSE(graph::ParsePattern("0-1;labels=a,b").ok());
  EXPECT_FALSE(graph::ParsePattern("0-1;labels=4294967295,0").ok());
  EXPECT_FALSE(graph::ParsePattern("0-1;labels=-3,0").ok());
  EXPECT_FALSE(graph::ParsePattern("0-1;labels=").ok());
  // Self loops and range abuse still refused.
  EXPECT_FALSE(graph::ParsePattern("3-3").ok());
  EXPECT_FALSE(graph::ParsePattern("0-99999999999999999999").ok());
  EXPECT_FALSE(graph::ParsePattern("-1-2").ok());
}

class PatternFileTest : public ::testing::Test {
 protected:
  // Writes `text` to a fresh temp file and parses it.
  Result<graph::Pattern> Parse(const std::string& text) {
    const std::string path =
        ::testing::TempDir() + "pattern_" +
        std::to_string(reinterpret_cast<uintptr_t>(this)) + "_" +
        std::to_string(counter_++) + ".txt";
    std::ofstream out(path);
    out << text;
    out.close();
    auto result = graph::ParsePatternFile(path);
    std::remove(path.c_str());
    return result;
  }
  int counter_ = 0;
};

TEST_F(PatternFileTest, ParsesWellFormedFiles) {
  auto p = Parse("# triangle with a tail\n0 1\n1 2\n2 0\n0 3\n"
                 "labels 1 * 2 *\n");
  ASSERT_TRUE(p.ok()) << p.status().message();
  EXPECT_EQ(p.value().num_vertices(), 4);
  EXPECT_EQ(p.value().num_edges(), 4);
  EXPECT_EQ(p.value().label(0), 1u);
  EXPECT_EQ(p.value().label(1), graph::Pattern::kAnyLabel);
}

TEST_F(PatternFileTest, RejectsMalformedFiles) {
  EXPECT_FALSE(Parse("").ok());                    // no edges
  EXPECT_FALSE(Parse("0 0\n").ok());               // self loop
  EXPECT_FALSE(Parse("0 1\n0 1\n").ok());          // duplicate edge
  EXPECT_FALSE(Parse("0 1\n1 0\n").ok());          // duplicate, flipped
  EXPECT_FALSE(Parse("0 2\n").ok());               // id gap
  EXPECT_FALSE(Parse("0 1 2\n").ok());             // trailing token
  EXPECT_FALSE(Parse("0\n").ok());                 // missing endpoint
  EXPECT_FALSE(Parse("0 x\n").ok());               // non-integer vertex
  EXPECT_FALSE(Parse("1O 2\n").ok());              // atoi would accept '1'
  EXPECT_FALSE(Parse("0 1\nlabels 1\n").ok());     // label count
  EXPECT_FALSE(Parse("0 1\nlabels a b\n").ok());   // non-integer label
  EXPECT_FALSE(
      Parse("0 1\nlabels 1 2\nlabels 1 2\n").ok());  // two label lines
  EXPECT_FALSE(Parse("0 9\n").ok());               // vertex out of range
}

TEST(VerifierFuzzTest, RandomPatternsMatchOracleThroughTheGate) {
  graph::Graph g = RandomLabeled(5, 64, 256);
  core::PatternCompiler compiler(&g);
  Rng rng(17);
  for (int iter = 0; iter < 30; ++iter) {
    const int n = 2 + static_cast<int>(rng.NextBounded(3));
    graph::Pattern p(n);
    for (int i = 1; i < n; ++i) {
      p.AddEdge(i, static_cast<int>(rng.NextBounded(i)));
    }
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        if (!p.HasEdge(i, j) && rng.NextBool(0.35)) p.AddEdge(i, j);
      }
    }
    core::CompileOptions copts;
    copts.break_symmetry = rng.NextBool(0.5);
    auto compiled = compiler.CompileMatch(p, copts);
    ASSERT_TRUE(compiled.ok()) << p.DebugString();
    const core::VerifyReport report = Verify(g, compiled.value());
    EXPECT_TRUE(report.verified)
        << p.DebugString() << "\n"
        << report.ReportText();

    gpusim::Device device(TestParams());
    core::GammaEngine engine(&device, &g, {});
    ASSERT_TRUE(engine.Prepare().ok());
    auto run = core::CompiledEngine(&engine).Run(compiled.value());
    ASSERT_TRUE(run.ok()) << run.status().message();
    EXPECT_EQ(run.value().instances, graph::CountInstances(g, p))
        << p.DebugString();
  }
}

}  // namespace
}  // namespace gpm
