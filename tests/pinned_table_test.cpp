// Tests for the pinned EDSEP-V equivalence table (engine/pinned_table.hpp).
//
// The golden file tests/pinned_table_xlen4.txt holds the 15 programs
// make_pinned_table(4) synthesizes, as EquivalenceTable::to_string()
// prints them. A synthesis change that moves a pinned program fails
// here, and the new table is written to pinned_table_xlen4.actual.txt in
// the test's working directory: review it, then copy it over the golden
// file. Every row is also re-proved by SAT, which PinnedTable::add does
// only under assert (compiled out of Release builds).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "engine/pinned_table.hpp"

namespace sepe::engine {
namespace {

std::string read_file(const char* path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(PinnedTable, MatchesTheGoldenTableAndReproves) {
  const auto pinned = make_pinned_table(4);
  ASSERT_NE(pinned, nullptr);
  const std::string actual = pinned->table.to_string();
  const std::string golden = read_file(SEPE_PINNED_TABLE_GOLDEN);
  ASSERT_FALSE(golden.empty()) << "cannot read " << SEPE_PINNED_TABLE_GOLDEN;
  if (actual != golden) std::ofstream("pinned_table_xlen4.actual.txt") << actual;
  EXPECT_EQ(actual, golden);

  ASSERT_EQ(pinned->specs.size(), 15u);
  EXPECT_EQ(pinned->table.size(), pinned->specs.size());
  for (const synth::SynthSpec& spec : pinned->specs) {
    const auto* programs = pinned->table.find(spec.name);
    ASSERT_NE(programs, nullptr) << spec.name;
    ASSERT_EQ(programs->size(), 1u) << spec.name;
    EXPECT_EQ(programs->front().spec, &spec) << spec.name;
    EXPECT_TRUE(synth::verify_program(programs->front(), 4)) << spec.name;
  }
}

TEST(PinnedTable, UnknownComponentFailsTheRow) {
  PinnedTable t;
  EXPECT_EQ(t.comp("NO_SUCH_COMPONENT"), nullptr);
  EXPECT_FALSE(t.add("SUB", synth::make_spec(isa::Opcode::SUB),
                     {"NOT", "NO_SUCH_COMPONENT", "NOT"}, 4));
  EXPECT_TRUE(t.specs.empty());
  EXPECT_EQ(t.table.size(), 0u);
}

TEST(PinnedTable, EarlyRowsSurviveManyLaterRows) {
  // Programs point into `specs`; rows added later must not move the
  // specs of earlier ones (a vector would reallocate past its capacity).
  PinnedTable t;
  constexpr unsigned kRows = 80;
  for (unsigned i = 0; i < kRows; ++i)
    ASSERT_TRUE(t.add("SUB" + std::to_string(i), synth::make_spec(isa::Opcode::SUB),
                      {"NOT", "ADD", "NOT"}, 4));
  ASSERT_EQ(t.table.size(), kRows);
  for (unsigned i : {0u, kRows / 2, kRows - 1}) {
    const synth::SynthProgram* p = t.table.first("SUB" + std::to_string(i));
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->spec, &t.specs[i]);
    EXPECT_TRUE(synth::verify_program(*p, 4));
  }
}

}  // namespace
}  // namespace sepe::engine
