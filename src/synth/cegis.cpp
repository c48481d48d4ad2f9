#include "synth/cegis.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <iterator>
#include <set>
#include <sstream>

#include "util/parse.hpp"
#include "util/stopwatch.hpp"

namespace sepe::synth {

namespace {

/// One row of EquivalenceTable::to_string(): a header, then each
/// program's lines indented four spaces, each program closed by "--".
std::string render_row(const std::string& name,
                       const std::vector<SynthProgram>& programs) {
  std::ostringstream os;
  os << "# " << name << " (" << programs.size() << " equivalent program"
     << (programs.size() == 1 ? "" : "s") << ")\n";
  for (const SynthProgram& p : programs) {
    std::istringstream lines(p.to_string());
    std::string line;
    while (std::getline(lines, line)) os << "    " << line << "\n";
    os << "    --\n";
  }
  return os.str();
}

/// Reads line `index` of a program over `spec`, as SynthProgram::to_string
/// prints it ("SLTU v2, v0, v1", "ADDI v1, v0, imm[1]", "XORI v0, in0,
/// 0x008"). False when the component is unknown, an operand is missing
/// or malformed, or an input reads a later line. The spelling is left to
/// the caller's re-rendering, so the destination is not read.
bool parse_line(std::string_view text, const SynthSpec& spec,
                const std::vector<Component>& lib, unsigned index, SynthLine* out) {
  std::string fields(text);
  std::replace(fields.begin(), fields.end(), ',', ' ');
  std::istringstream is(fields);
  const std::vector<std::string> tok{std::istream_iterator<std::string>(is), {}};
  if (tok.empty()) return false;
  const auto comp = std::find_if(lib.begin(), lib.end(),
                                 [&](const Component& c) { return c.name == tok[0]; });
  if (comp == lib.end() || tok.size() != 2 + comp->num_inputs + comp->attrs.size())
    return false;
  out->comp = &*comp;

  const unsigned m = spec.num_reg_inputs();
  const auto number_after = [](const std::string& t, std::string_view prefix) {
    return t.starts_with(prefix) ? parse_u64_strict(t.substr(prefix.size()))
                                 : std::nullopt;
  };
  for (unsigned k = 0; k < comp->num_inputs; ++k) {
    const std::string& t = tok[2 + k];
    if (const auto in = number_after(t, "in"); in && *in < m)
      out->input_locs.push_back(static_cast<unsigned>(*in));
    else if (const auto v = number_after(t, "v"); v && *v < index)
      out->input_locs.push_back(m + static_cast<unsigned>(*v));
    else
      return false;
  }
  for (unsigned a = 0; a < comp->attrs.size(); ++a) {
    const std::string& t = tok[2 + comp->num_inputs + a];
    const unsigned width = attr_class_width(comp->attrs[a]);
    AttrBinding ab;
    if (t.starts_with("imm[") && t.ends_with("]")) {
      // A passthrough reads an immediate input no wider than the
      // attribute (immediate widths do not depend on xlen).
      const auto i = parse_u64_strict(t.substr(4, t.size() - 5));
      if (!i || *i >= spec.inputs.size() || spec.inputs[*i] == InputClass::Reg ||
          input_class_width(spec.inputs[*i], 0) > width)
        return false;
      ab.passthrough = true;
      ab.input_index = static_cast<unsigned>(*i);
    } else {
      char* end = nullptr;
      const std::uint64_t value = std::strtoull(t.c_str(), &end, 16);
      if (!t.starts_with("0x") || end != t.c_str() + t.size()) return false;
      ab.constant = BitVec(width, value);
    }
    out->attrs.push_back(ab);
  }
  return true;
}

}  // namespace

std::vector<std::vector<unsigned>> combinations_with_replacement(unsigned lib_size,
                                                                 unsigned n) {
  std::vector<std::vector<unsigned>> out;
  std::vector<unsigned> cur(n, 0);
  for (;;) {
    out.push_back(cur);
    // Advance the non-decreasing index tuple.
    int i = static_cast<int>(n) - 1;
    while (i >= 0 && cur[i] == lib_size - 1) --i;
    if (i < 0) break;
    const unsigned v = cur[i] + 1;
    for (unsigned j = static_cast<unsigned>(i); j < n; ++j) cur[j] = v;
  }
  return out;
}

PriorityDict::PriorityDict(std::size_t num_components, const HpfOptions& opts)
    : opts_(opts),
      choice_(num_components, opts.initial_choice_weight),
      exclusion_(num_components, opts.initial_exclusion_weight) {}

double PriorityDict::priority(const std::vector<unsigned>& multiset,
                              const SynthSpec& spec,
                              const std::vector<Component>& lib) const {
  // priority = Σ_j (c_j − α·χ_j) / Σ_j e_j   (paper §4.2)
  double num = 0.0, den = 0.0;
  for (unsigned j : multiset) {
    const bool same_name = lib[j].opcode == spec.opcode;
    num += choice_[j] - (opts_.enable_alpha_penalty && same_name ? opts_.alpha : 0);
    den += exclusion_[j];
  }
  return den > 0 ? num / den : num;
}

void PriorityDict::reward(const std::vector<unsigned>& multiset) {
  if (!opts_.enable_choice_updates) return;
  for (unsigned j : multiset) choice_[j] += opts_.weight_increment;
}

void PriorityDict::penalize(const std::vector<unsigned>& multiset) {
  if (!opts_.enable_exclusion_updates) return;
  for (unsigned j : multiset) exclusion_[j] += opts_.weight_increment;
}

namespace {

std::vector<const Component*> to_pointers(const std::vector<unsigned>& multiset,
                                          const std::vector<Component>& lib) {
  std::vector<const Component*> ptrs;
  ptrs.reserve(multiset.size());
  for (unsigned j : multiset) ptrs.push_back(&lib[j]);
  return ptrs;
}

/// Shared per-multiset attempt: run CEGIS, dedupe, account.
bool attempt_multiset(const SynthSpec& spec, const std::vector<unsigned>& multiset,
                      const std::vector<Component>& lib, const DriverOptions& opts,
                      SynthesisResult& result, std::set<std::string>& seen) {
  ++result.multisets_tried;
  auto program = cegis_multiset(spec, to_pointers(multiset, lib), opts.cegis);
  if (!program) return false;
  ++result.multisets_succeeded;
  const std::string fp = program->fingerprint();
  if (seen.insert(fp).second) result.programs.push_back(std::move(*program));
  return true;
}

bool reached_target(const SynthesisResult& result, const DriverOptions& opts,
                    const Stopwatch& clock) {
  if (result.programs.size() >= opts.target_programs) return true;
  if (opts.max_seconds > 0 && clock.seconds() >= opts.max_seconds) return true;
  return false;
}

}  // namespace

SynthesisResult hpf_cegis(const SynthSpec& spec, const std::vector<Component>& lib,
                          const DriverOptions& opts, const HpfOptions& hpf,
                          PriorityDict* shared_dict) {
  Stopwatch clock;
  SynthesisResult result;
  std::set<std::string> seen;

  PriorityDict local_dict(lib.size(), hpf);
  PriorityDict& dict = shared_dict ? *shared_dict : local_dict;

  // MULTISETS <- COMBINATIONSWITHREPLACEMENT(B, n)   (Algorithm 1, line 5)
  auto multisets = combinations_with_replacement(static_cast<unsigned>(lib.size()),
                                                 opts.multiset_size);

  while (!multisets.empty() && !reached_target(result, opts, clock)) {
    // SORTED(MULTISETS, PRIORITY_DICT, g); S <- MULTISETS[0]  (lines 9-10)
    // A full sort is what the paper specifies; taking max_element is the
    // same selection with one pass. The chosen multiset is then removed so
    // each is attempted at most once per instruction.
    auto best = std::max_element(
        multisets.begin(), multisets.end(),
        [&](const std::vector<unsigned>& a, const std::vector<unsigned>& b) {
          return dict.priority(a, spec, lib) < dict.priority(b, spec, lib);
        });
    const std::vector<unsigned> chosen = *best;
    *best = std::move(multisets.back());
    multisets.pop_back();

    if (attempt_multiset(spec, chosen, lib, opts, result, seen)) {
      dict.reward(chosen);     // line 16
    } else {
      dict.penalize(chosen);   // line 13
    }
  }
  result.exhausted = multisets.empty();
  result.seconds = clock.seconds();
  return result;
}

SynthesisResult iterative_cegis(const SynthSpec& spec, const std::vector<Component>& lib,
                                const DriverOptions& opts) {
  Stopwatch clock;
  SynthesisResult result;
  std::set<std::string> seen;

  auto multisets = combinations_with_replacement(static_cast<unsigned>(lib.size()),
                                                 opts.multiset_size);
  // §6.1: "we shuffle all multisets before synthesis to prevent the
  // clustering of similar data types".
  Rng rng(opts.shuffle_seed);
  for (std::size_t i = multisets.size(); i > 1; --i)
    std::swap(multisets[i - 1], multisets[rng.below(i)]);

  for (const auto& multiset : multisets) {
    if (reached_target(result, opts, clock)) break;
    attempt_multiset(spec, multiset, lib, opts, result, seen);
  }
  result.exhausted = true;
  result.seconds = clock.seconds();
  return result;
}

SynthesisResult classical_cegis(const SynthSpec& spec, const std::vector<Component>& lib,
                                const DriverOptions& opts, unsigned instances) {
  Stopwatch clock;
  SynthesisResult result;
  std::set<std::string> seen;

  // One monolithic multiset: `instances` copies of every component.
  std::vector<unsigned> all;
  for (unsigned rep = 0; rep < instances; ++rep)
    for (unsigned j = 0; j < lib.size(); ++j) all.push_back(j);

  attempt_multiset(spec, all, lib, opts, result, seen);
  result.exhausted = true;
  result.seconds = clock.seconds();
  return result;
}

void EquivalenceTable::add(const std::string& instr_name, SynthProgram program) {
  table_[instr_name].push_back(std::move(program));
}

const std::vector<SynthProgram>* EquivalenceTable::find(
    const std::string& instr_name) const {
  const auto it = table_.find(instr_name);
  return it != table_.end() ? &it->second : nullptr;
}

const SynthProgram* EquivalenceTable::first(const std::string& instr_name) const {
  const auto* v = find(instr_name);
  return v && !v->empty() ? &v->front() : nullptr;
}

const SynthProgram* EquivalenceTable::first_avoiding(const std::string& instr_name,
                                                     isa::Opcode op) const {
  const auto* v = find(instr_name);
  if (!v) return nullptr;
  for (const SynthProgram& p : *v)
    if (!p.uses_opcode(op)) return &p;
  return nullptr;
}

EquivalenceTable EquivalenceTable::select_distinct() const {
  EquivalenceTable out;
  for (const auto& [name, programs] : table_) {
    const SynthProgram* chosen = nullptr;
    // Prefer a program that avoids the instruction's own opcode — it
    // maximizes datapath separation, the property §4.2's α-penalty aims
    // for.
    for (const SynthProgram& p : programs) {
      if (!p.uses_opcode(p.spec->opcode)) {
        chosen = &p;
        break;
      }
    }
    if (!chosen && !programs.empty()) chosen = &programs.front();
    if (chosen) out.add(name, *chosen);
  }
  return out;
}

std::string EquivalenceTable::to_string() const {
  std::string out;
  for (const auto& [name, programs] : table_) out += render_row(name, programs);
  return out;
}

std::optional<EquivalenceTable> EquivalenceTable::parse(
    std::string_view text,
    const std::function<const SynthSpec*(const std::string&)>& spec_of,
    const std::vector<Component>& lib, std::string* failed) {
  EquivalenceTable table;
  std::string key;
  const auto refuse = [&]() -> std::optional<EquivalenceTable> {
    if (failed) *failed = key;
    return std::nullopt;
  };
  // Each row is checked on its own: its re-rendering must equal its text,
  // and its key must follow the previous one in to_string()'s ascending
  // order. Together that is the whole text rendered back byte for byte.
  while (!text.empty()) {
    const std::size_t next = text.find("\n# ");
    const std::string_view row = text.substr(0, next == text.npos ? next : next + 1);
    text.remove_prefix(row.size());
    if (!row.starts_with("# ")) return refuse();
    key = row.substr(2, row.find_first_of(" \n", 2) - 2);
    const SynthSpec* spec = spec_of(key);
    const std::size_t header_end = row.find('\n');
    if (!spec || header_end == row.npos ||
        (!table.table_.empty() && key <= table.table_.rbegin()->first))
      return refuse();

    std::vector<SynthProgram> programs;
    SynthProgram program{spec, {}};
    for (std::string_view body = row.substr(header_end + 1); !body.empty();) {
      const std::string_view line = body.substr(0, body.find('\n'));
      body.remove_prefix(std::min(body.size(), line.size() + 1));
      SynthLine parsed;
      if (line == "    --" && !program.lines.empty()) {
        programs.push_back(std::move(program));
        program = SynthProgram{spec, {}};
      } else if (parse_line(line, *spec, lib, program.lines.size(), &parsed)) {
        program.lines.push_back(std::move(parsed));
      } else {
        return refuse();
      }
    }
    if (!program.lines.empty() || render_row(key, programs) != row) return refuse();
    table.table_.emplace(key, std::move(programs));
  }
  return table;
}

EquivalenceTable build_equivalence_table(const std::vector<SynthSpec>& specs,
                                         const std::vector<Component>& lib,
                                         const DriverOptions& opts,
                                         unsigned programs_per_instr) {
  EquivalenceTable table;
  HpfOptions hpf;
  PriorityDict dict(lib.size(), hpf);
  for (const SynthSpec& spec : specs) {
    DriverOptions per = opts;
    per.target_programs = programs_per_instr;
    // Escalate the multiset size when the configured one cannot express
    // the instruction (the iterative-CEGIS idea of growing multisets).
    for (unsigned n = opts.multiset_size; n <= opts.multiset_size + 2; ++n) {
      per.multiset_size = n;
      auto result = hpf_cegis(spec, lib, per, hpf, &dict);
      if (!result.programs.empty()) {
        for (SynthProgram& p : result.programs) table.add(spec.name, std::move(p));
        break;
      }
    }
  }
  return table;
}

}  // namespace sepe::synth
