// pinned_table.cpp — the pinned rows, and their xlen-4 programs as text.
#include "engine/pinned_table.hpp"

namespace sepe::engine {

namespace {

/// The xlen-4 table, as EquivalenceTable::to_string() prints it. A
/// synthesis change that moves a program fails pinned_table_test, which
/// writes the newly synthesized text to pinned_table_xlen4.actual.txt in
/// its working directory: review it, paste it here, and say which
/// programs moved.
constexpr std::string_view kXlen4Text = R"(# ADD (1 equivalent program)
    NOT v0, in1
    SUB v1, v0, in0
    NOT v2, v1
    --
# ADDI (1 equivalent program)
    NOT v0, in0
    NOT v1, v0
    ADDI v2, v1, imm[1]
    --
# AND (1 equivalent program)
    ADD v0, in0, in1
    OR v1, in1, in0
    SUB v2, v0, v1
    --
# LW_ADDR (1 equivalent program)
    ADDI v0, in0, imm[1]
    NOT v1, v0
    NOT v2, v1
    --
# MULH (1 equivalent program)
    SIGNSEL v0, in0, in1
    MULHSU_C v1, in1, in0
    SUB v2, v1, v0
    --
# OR (1 equivalent program)
    AND v0, in1, in0
    SUB v1, in1, v0
    ADD v2, v1, in0
    --
# SLLI (1 equivalent program)
    XOR v0, in0, in0
    ADDI v1, v0, imm[1]
    SLL v2, in0, v1
    --
# SLT (1 equivalent program)
    XORI v0, in0, 0x008
    XORI v1, in1, 0x008
    SLTU v2, v0, v1
    --
# SLTU (1 equivalent program)
    XORI v0, in1, 0x007
    XORI v1, in0, 0x007
    SLT v2, v0, v1
    --
# SRA (1 equivalent program)
    NOT v0, in0
    SRA v1, v0, in1
    NOT v2, v1
    --
# SRAI (1 equivalent program)
    NOT v0, in0
    SRAI v1, v0, imm[1]
    NOT v2, v1
    --
# SUB (1 equivalent program)
    NOT v0, in0
    ADD v1, in1, v0
    NOT v2, v1
    --
# SW_ADDR (1 equivalent program)
    ADDI v0, in0, imm[1]
    NOT v1, v0
    NOT v2, v1
    --
# XOR (1 equivalent program)
    AND v0, in0, in1
    OR v1, in0, in1
    SUB v2, v1, v0
    --
# XORI (1 equivalent program)
    NOT v0, in0
    NOT v1, v0
    XORI v2, v1, imm[1]
    --
)";

struct Row {
  synth::SynthSpec spec;  // its name is the row key
  std::vector<std::string> multiset;
};

std::vector<Row> pinned_rows() {
  using isa::Opcode;
  auto spec = [](Opcode op) { return synth::make_spec(op); };
  return {
      {spec(Opcode::ADD), {"NOT", "SUB", "NOT"}},
      {spec(Opcode::SUB), {"NOT", "ADD", "NOT"}},     // Listing 1
      {spec(Opcode::XOR), {"OR", "AND", "SUB"}},
      {spec(Opcode::OR), {"ADD", "AND", "SUB"}},      // a+b-(a&b)
      {spec(Opcode::AND), {"ADD", "OR", "SUB"}},      // a+b-(a|b)
      {spec(Opcode::SLT), {"XORI", "XORI", "SLTU"}},  // sign-flip
      {spec(Opcode::SLTU), {"XORI", "XORI", "SLT"}},
      // complement conjugation
      {spec(Opcode::SRA), {"NOT", "SRA", "NOT"}},
      {spec(Opcode::MULH), {"MULHSU_C", "SIGNSEL", "SUB"}},
      {spec(Opcode::XORI), {"NOT", "XORI", "NOT"}},
      {spec(Opcode::SLLI), {"XOR", "ADDI", "SLL"}},  // materialized shamt
      {spec(Opcode::SRAI), {"NOT", "SRAI", "NOT"}},
      // conjugated passthrough
      {spec(Opcode::ADDI), {"NOT", "NOT", "ADDI"}},
      {synth::make_address_spec(Opcode::LW), {"NOT", "NOT", "ADDI"}},
      {synth::make_address_spec(Opcode::SW), {"NOT", "NOT", "ADDI"}},
  };
}

std::unique_ptr<PinnedTable> refuse(const std::string& key, std::string* failed) {
  if (failed) *failed = key;
  return nullptr;
}

}  // namespace

std::string_view pinned_table_text() { return kXlen4Text; }

std::unique_ptr<PinnedTable> make_pinned_table(unsigned duv_xlen, std::string* failed) {
  return duv_xlen == kPinnedTextXlen ? load_pinned_table(kXlen4Text, duv_xlen, failed)
                                     : synthesize_pinned_table(duv_xlen, failed);
}

std::unique_ptr<PinnedTable> synthesize_pinned_table(unsigned duv_xlen,
                                                     std::string* failed) {
  auto t = std::make_unique<PinnedTable>();
  for (Row& r : pinned_rows()) {
    const std::string key = r.spec.name;
    if (!t->add(key, std::move(r.spec), r.multiset, duv_xlen)) return refuse(key, failed);
  }
  return t;
}

std::unique_ptr<PinnedTable> load_pinned_table(std::string_view text, unsigned duv_xlen,
                                               std::string* failed) {
  auto t = std::make_unique<PinnedTable>();
  for (Row& r : pinned_rows()) t->specs.push_back(std::move(r.spec));
  const auto spec_of = [&](const std::string& key) -> const synth::SynthSpec* {
    for (const synth::SynthSpec& s : t->specs)
      if (s.name == key) return &s;
    return nullptr;
  };
  auto table = synth::EquivalenceTable::parse(text, spec_of, t->lib, failed);
  if (!table) return nullptr;
  for (const synth::SynthSpec& s : t->specs) {
    const auto* programs = table->find(s.name);
    if (!programs) return refuse(s.name, failed);
    for (const synth::SynthProgram& p : *programs)
      if (!synth::sweep_proves_equivalent(p, duv_xlen)) return refuse(s.name, failed);
  }
  t->table = std::move(*table);
  return t;
}

}  // namespace sepe::engine
