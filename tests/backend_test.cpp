// Tests for the pluggable SAT-backend seam (sat/backend.hpp): the
// subprocess DIMACS backend must agree with the native CDCL engine on
// random formulas and under assumptions, and a pinned Table-1 campaign
// row must produce byte-identical stable JSON on either backend.
//
// The battery resolves its external solver in this order: an explicit
// SEPE_EXTERNAL_SOLVER, then the build's own sepe-dimacs frontend in the
// working directory (ctest runs from the build tree), then the PATH
// probe for kissat/cadical. When nothing resolves, the equivalence tests
// skip — unavailability is never a failure (docs/SOLVER.md).
#include <gtest/gtest.h>

#include <limits.h>
#include <stdlib.h>
#include <unistd.h>

#include <cstdint>
#include <string>
#include <vector>

#include "engine/campaign.hpp"
#include "engine/pinned_table.hpp"
#include "engine/workload.hpp"
#include "proc/mutations.hpp"
#include "sat/dimacs_backend.hpp"
#include "sat/solver.hpp"
#include "util/fault.hpp"

namespace sepe {
namespace {

using sat::BackendKind;
using sat::Lit;
using sat::SolveResult;

/// splitmix64 — deterministic instance generator (same recipe as the
/// solver's internal Rng).
struct Rng {
  std::uint64_t state;
  explicit Rng(std::uint64_t seed) : state(seed) {}
  std::uint64_t next() {
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  unsigned below(unsigned n) { return static_cast<unsigned>(next() % n); }
};

std::vector<std::vector<Lit>> random_instance(Rng& rng, int nvars, int nclauses) {
  std::vector<std::vector<Lit>> clauses;
  for (int i = 0; i < nclauses; ++i) {
    const int width = 1 + static_cast<int>(rng.below(3));
    std::vector<Lit> clause;
    for (int j = 0; j < width; ++j)
      clause.emplace_back(static_cast<int>(rng.below(static_cast<unsigned>(nvars))),
                          rng.below(2) == 1);
    clauses.push_back(std::move(clause));
  }
  return clauses;
}

bool model_satisfies(const sat::Backend& backend,
                     const std::vector<std::vector<Lit>>& clauses) {
  for (const auto& clause : clauses) {
    bool satisfied = false;
    for (const Lit l : clause) satisfied = satisfied || backend.model_value(l);
    if (!satisfied) return false;
  }
  return true;
}

/// Resolve an external DIMACS solver for the battery (see file header).
/// Memoized: the probe and any setenv happen once per process.
bool ensure_external_solver() {
  static const bool resolved = [] {
    if (const char* env = std::getenv("SEPE_EXTERNAL_SOLVER"); env == nullptr) {
      char frontend[PATH_MAX];
      if (::realpath("./sepe-dimacs", frontend) != nullptr &&
          ::access(frontend, X_OK) == 0)
        ::setenv("SEPE_EXTERNAL_SOLVER", frontend, 1);
    }
    return sat::DimacsBackend().available();
  }();
  return resolved;
}

#define REQUIRE_EXTERNAL_SOLVER()                                              \
  if (!ensure_external_solver())                                               \
  GTEST_SKIP() << "no external DIMACS solver (SEPE_EXTERNAL_SOLVER, "          \
                  "./sepe-dimacs, or kissat/cadical on PATH)"

TEST(BackendFactory, KindNamesRoundTrip) {
  EXPECT_STREQ(sat::backend_kind_name(BackendKind::Native), "native");
  EXPECT_STREQ(sat::backend_kind_name(BackendKind::Dimacs), "dimacs");
  EXPECT_EQ(sat::backend_kind_from_name("native"), BackendKind::Native);
  EXPECT_EQ(sat::backend_kind_from_name("dimacs"), BackendKind::Dimacs);
  EXPECT_FALSE(sat::backend_kind_from_name("minisat").has_value());
  EXPECT_FALSE(sat::backend_kind_from_name("").has_value());
}

TEST(BackendFactory, BuildsTheRequestedKind) {
  const auto native = sat::make_backend(BackendKind::Native, sat::SolverConfig{});
  EXPECT_NE(dynamic_cast<sat::Solver*>(native.get()), nullptr);
  // The DIMACS backend constructs even on a host with no external solver;
  // it just reports unavailable.
  const auto dimacs = sat::make_backend(BackendKind::Dimacs, sat::SolverConfig{});
  EXPECT_NE(dynamic_cast<sat::DimacsBackend*>(dimacs.get()), nullptr);
}

/// The crash-only stop is process-global: every test leaves it cleared.
class BackendDimacs : public ::testing::Test {
 protected:
  void TearDown() override { fault::clear_global_stop(); }
};

TEST_F(BackendDimacs, ReportsTheResolvedSolverPath) {
  REQUIRE_EXTERNAL_SOLVER();
  const sat::DimacsBackend backend;
  EXPECT_TRUE(backend.available());
  EXPECT_FALSE(backend.solver_path().empty());
}

TEST_F(BackendDimacs, PresetStopFlagAbortsWithUnknown) {
  REQUIRE_EXTERNAL_SOLVER();
  sat::DimacsBackend backend;
  const int x = backend.new_var();
  backend.add_clause(Lit(x, false));
  fault::request_global_stop();
  EXPECT_EQ(backend.solve(), SolveResult::Unknown);
  fault::clear_global_stop();
  EXPECT_EQ(backend.solve(), SolveResult::Sat);
}

TEST(BackendEquivalence, RandomFormulasAgree) {
  REQUIRE_EXTERNAL_SOLVER();
  Rng rng(20240808);
  int sat_seen = 0, unsat_seen = 0;
  for (int round = 0; round < 120; ++round) {
    const int nvars = 4 + static_cast<int>(rng.below(9));
    const int nclauses =
        nvars + static_cast<int>(rng.below(static_cast<unsigned>(3 * nvars)));
    const auto clauses = random_instance(rng, nvars, nclauses);

    sat::Solver native;
    sat::DimacsBackend dimacs;
    for (int v = 0; v < nvars; ++v) {
      native.new_var();
      dimacs.new_var();
    }
    for (const auto& clause : clauses) {
      native.add_clause(clause);
      dimacs.add_clause(clause);
    }
    const SolveResult a = native.solve();
    const SolveResult b = dimacs.solve();
    ASSERT_EQ(a, b) << "round " << round << ": backends disagree";
    if (a == SolveResult::Sat) {
      ++sat_seen;
      EXPECT_TRUE(model_satisfies(native, clauses)) << "round " << round;
      EXPECT_TRUE(model_satisfies(dimacs, clauses)) << "round " << round;
    } else {
      ++unsat_seen;
    }
  }
  // The generator must exercise both outcomes or the test proves little.
  EXPECT_GT(sat_seen, 0);
  EXPECT_GT(unsat_seen, 0);
}

TEST(BackendEquivalence, IncrementalSolvesUnderAssumptionsAgree) {
  REQUIRE_EXTERNAL_SOLVER();
  Rng rng(7);
  for (int round = 0; round < 20; ++round) {
    const int nvars = 6 + static_cast<int>(rng.below(6));
    sat::Solver native;
    sat::DimacsBackend dimacs;
    for (int v = 0; v < nvars; ++v) {
      native.new_var();
      dimacs.new_var();
    }
    std::vector<std::vector<Lit>> so_far;
    for (int batch = 0; batch < 4; ++batch) {
      for (auto& clause : random_instance(rng, nvars, nvars)) {
        native.add_clause(clause);
        dimacs.add_clause(clause);
        so_far.push_back(std::move(clause));
      }
      std::vector<Lit> assumptions;
      const int nassume = 1 + static_cast<int>(rng.below(3));
      for (int i = 0; i < nassume; ++i)
        assumptions.emplace_back(
            static_cast<int>(rng.below(static_cast<unsigned>(nvars))),
            rng.below(2) == 1);
      const SolveResult a = native.solve(assumptions);
      const SolveResult b = dimacs.solve(assumptions);
      ASSERT_EQ(a, b) << "round " << round << " batch " << batch;
      if (a == SolveResult::Sat) {
        EXPECT_TRUE(model_satisfies(native, so_far));
        EXPECT_TRUE(model_satisfies(dimacs, so_far));
        for (const Lit l : assumptions) {
          EXPECT_TRUE(native.model_value(l));
          EXPECT_TRUE(dimacs.model_value(l));
        }
      }
    }
  }
}

// The acceptance row: one pinned Table-1 mutation through the whole
// engine stack on each backend. Stable JSON must be byte-identical —
// verdict, trace length, and bad label are model-independent, and the
// witness of a non-native winner is re-derived by the native
// default-config replay (engine/campaign.cpp).
TEST(BackendEquivalence, PinnedTableRowStableJsonIsByteIdentical) {
  REQUIRE_EXTERNAL_SOLVER();
  engine::CampaignMatrix matrix;
  matrix.xlen = 4;
  matrix.modes = {qed::QedMode::EdsepV};
  const auto pinned = engine::make_pinned_table(4);
  matrix.equivalences = &pinned->table;
  for (const proc::Mutation& m : proc::table1_single_instruction_bugs())
    if (m.name == "xor_as_or") matrix.mutations.push_back(m);
  ASSERT_EQ(matrix.mutations.size(), 1u);
  matrix.budget.max_bound = 6;
  matrix.budget.max_k = 2;

  const engine::CampaignReport native = engine::run_campaign(engine::expand(matrix, 1));
  matrix.budget.backend = BackendKind::Dimacs;
  const engine::CampaignReport dimacs = engine::run_campaign(engine::expand(matrix, 1));
  const std::string native_json = native.to_json(/*include_timing=*/false);
  EXPECT_EQ(native_json, dimacs.to_json(/*include_timing=*/false));
  EXPECT_NE(native_json.find("FALSIFIED"), std::string::npos);
  // The DIMACS backend is the path into canonical_witness: the rendered
  // trace table matches the native one too.
  ASSERT_EQ(native.jobs.size(), 1u);
  ASSERT_EQ(dimacs.jobs.size(), 1u);
  EXPECT_FALSE(native.jobs[0].witness.empty());
  EXPECT_EQ(native.jobs[0].witness, dimacs.jobs[0].witness);
}

}  // namespace
}  // namespace sepe
