// Tests for the pinned EDSEP-V equivalence table (engine/pinned_table.hpp).
//
// The golden table is the compiled-in xlen-4 text, pinned_table_text():
// the 15 programs, as EquivalenceTable::to_string() prints them. A
// synthesis change that moves a pinned program fails here, and the newly
// synthesized table is written to pinned_table_xlen4.actual.txt in the
// test's working directory: review it, then paste it over the text in
// src/engine/pinned_table.cpp. Every loaded row is also re-proved by SAT,
// which the loader never does (it sweeps).
#include <gtest/gtest.h>

#include <fstream>

#include "engine/pinned_table.hpp"
#include "util/fault.hpp"

namespace sepe::engine {
namespace {

TEST(PinnedTable, MatchesTheGoldenTableAndReproves) {
  const std::string golden(pinned_table_text());
  const auto synthesized = synthesize_pinned_table(kPinnedTextXlen);
  ASSERT_NE(synthesized, nullptr);
  const std::string actual = synthesized->table.to_string();
  if (actual != golden) std::ofstream("pinned_table_xlen4.actual.txt") << actual;
  EXPECT_EQ(actual, golden);

  const auto pinned = make_pinned_table(kPinnedTextXlen);
  ASSERT_NE(pinned, nullptr);
  EXPECT_EQ(pinned->table.to_string(), golden);
  ASSERT_EQ(pinned->specs.size(), 15u);
  EXPECT_EQ(pinned->table.size(), pinned->specs.size());
  for (const synth::SynthSpec& spec : pinned->specs) {
    const auto* programs = pinned->table.find(spec.name);
    ASSERT_NE(programs, nullptr) << spec.name;
    ASSERT_EQ(programs->size(), 1u) << spec.name;
    EXPECT_EQ(programs->front().spec, &spec) << spec.name;
    EXPECT_TRUE(synth::verify_program(programs->front(), kPinnedTextXlen)) << spec.name;
  }
}

TEST(PinnedTable, LoadsWithoutASolver) {
  // Every SAT solve fails as out of memory: CEGIS cannot synthesize a
  // row, but the compiled-in table loads.
  ASSERT_TRUE(fault::configure("point=solver.alloc:oom"));
  std::string failed;
  const auto loaded = make_pinned_table(kPinnedTextXlen, &failed);
  const auto synthesized = synthesize_pinned_table(kPinnedTextXlen, &failed);
  fault::configure("");
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->table.to_string(), pinned_table_text());
  EXPECT_EQ(synthesized, nullptr);
  EXPECT_EQ(failed, "ADD");
}

TEST(PinnedTable, RefusesATamperedTextAndNamesTheRow) {
  struct Tamper {
    const char* what;
    std::string from, to;
    const char* key;
  };
  const std::string xor_row =
      "# XOR (1 equivalent program)\n    AND v0, in0, in1\n    OR v1, in0, in1\n"
      "    SUB v2, v1, v0\n    --\n";
  const Tamper tampers[] = {
      // Renders back canonically, so only the sweep can refuse it.
      {"a wrong constant", "XORI v0, in0, 0x008", "XORI v0, in0, 0x004", "SLT"},
      {"an unknown component", "MULHSU_C v1", "MULHSU_X v1", "MULH"},
      // Reads as the same program, so only the byte comparison refuses it.
      {"a non-canonical spelling", "XORI v0, in1, 0x007", "XORI v0, in1, 0x7", "SLTU"},
      {"an input read before it is written", "SUB v1, v0, in0", "SUB v1, v2, in0",
       "ADD"},
      {"a missing row", xor_row, "", "XOR"},
      {"a repeated row", xor_row, xor_row + xor_row, "XOR"},
      {"an unknown row", "# XORI (", "# XORJ (", "XORJ"},
  };
  for (const Tamper& t : tampers) {
    std::string text(pinned_table_text());
    const std::size_t at = text.find(t.from);
    ASSERT_NE(at, std::string::npos) << t.what;
    text.replace(at, t.from.size(), t.to);
    std::string failed;
    EXPECT_EQ(load_pinned_table(text, kPinnedTextXlen, &failed), nullptr) << t.what;
    EXPECT_EQ(failed, t.key) << t.what;
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
