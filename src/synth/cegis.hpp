// cegis.hpp — synthesis drivers: classical CEGIS, iterative CEGIS, and the
// paper's HPF-CEGIS (Algorithm 1), plus the equivalence table they fill.
//
// All three drivers answer the same question — "give me up to k programs
// semantically equivalent to original instruction g" — but explore the
// component search space differently:
//
//   * classical [Gulwani'11]  : one monolithic encoding over the entire
//     library (every component instantiated); kept as the baseline the
//     paper reports as failing outright on a 29-component library;
//   * iterative [Buchwald'18] : enumerate combinations-with-replacement
//     multisets of fixed size n in (shuffled) order;
//   * HPF (this paper, §4.2)  : maintain choice weights c_j and exclusion
//     weights e_j per component, score each multiset by
//     priority = Σ(c_j − α·χ_j) / Σ e_j, always attempt the highest-
//     priority multiset next, and update weights from success/failure.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "synth/component.hpp"
#include "synth/encoding.hpp"
#include "synth/spec.hpp"
#include "util/rng.hpp"

namespace sepe::synth {

/// Result of one driver run for one original instruction.
struct SynthesisResult {
  std::vector<SynthProgram> programs;   // deduplicated, verified
  unsigned multisets_tried = 0;
  unsigned multisets_succeeded = 0;
  double seconds = 0.0;
  bool exhausted = false;               // stopped because no multisets left
};

/// Common driver configuration.
struct DriverOptions {
  CegisOptions cegis;
  unsigned multiset_size = 3;   // n: components per multiset ("at least
                                // three components", §6.1)
  unsigned target_programs = 20;  // k: early-stop threshold (§6.1)
  std::uint64_t shuffle_seed = 1; // iterative baseline shuffles multisets
  double max_seconds = 0.0;       // wall-clock cap (0 = none)
};

/// Weights of HPF-CEGIS. Paper §6.1: all initialized to 1, incremented by
/// 1 per update, α = 1.
struct HpfOptions {
  int initial_choice_weight = 1;
  int initial_exclusion_weight = 1;
  int weight_increment = 1;
  int alpha = 1;
  bool enable_choice_updates = true;     // ablation knobs
  bool enable_exclusion_updates = true;
  bool enable_alpha_penalty = true;
};

/// HPF-CEGIS weight state (PRIORITY_DICT of Algorithm 1), shared across
/// the original-instruction loop so learning transfers between cases.
class PriorityDict {
 public:
  PriorityDict(std::size_t num_components, const HpfOptions& opts);

  double priority(const std::vector<unsigned>& multiset, const SynthSpec& spec,
                  const std::vector<Component>& lib) const;
  void reward(const std::vector<unsigned>& multiset);   // choice weight +=
  void penalize(const std::vector<unsigned>& multiset); // exclusion weight +=

  int choice_weight(unsigned j) const { return choice_[j]; }
  int exclusion_weight(unsigned j) const { return exclusion_[j]; }

 private:
  HpfOptions opts_;
  std::vector<int> choice_;
  std::vector<int> exclusion_;
};

/// Enumerate all size-n multisets of component indices
/// (combinations-with-replacement over [0, lib_size)).
std::vector<std::vector<unsigned>> combinations_with_replacement(unsigned lib_size,
                                                                 unsigned n);

/// HPF-CEGIS (Algorithm 1) for one original instruction.
SynthesisResult hpf_cegis(const SynthSpec& spec, const std::vector<Component>& lib,
                          const DriverOptions& opts, const HpfOptions& hpf,
                          PriorityDict* shared_dict = nullptr);

/// Iterative CEGIS baseline [Buchwald'18]: multisets in shuffled order.
SynthesisResult iterative_cegis(const SynthSpec& spec, const std::vector<Component>& lib,
                                const DriverOptions& opts);

/// Classical CEGIS baseline [Gulwani'11]: one encoding over the whole
/// library, `instances` copies of each component. Expected to time out on
/// realistic libraries — kept for the Fig. 3 "classical" comparison.
SynthesisResult classical_cegis(const SynthSpec& spec, const std::vector<Component>& lib,
                                const DriverOptions& opts, unsigned instances = 1);

/// instruction name -> verified equivalent programs (the R of Algorithm 1).
class EquivalenceTable {
 public:
  void add(const std::string& instr_name, SynthProgram program);
  const std::vector<SynthProgram>* find(const std::string& instr_name) const;
  /// First (preferred) program for an instruction; nullptr if absent.
  const SynthProgram* first(const std::string& instr_name) const;
  /// First program whose lowering avoids `op` (needed when `op` itself is
  /// suspected buggy); falls back to nullptr if none exists.
  const SynthProgram* first_avoiding(const std::string& instr_name, isa::Opcode op) const;
  /// A copy of this table with exactly one program per instruction,
  /// preferring programs that avoid the instruction's own opcode.
  EquivalenceTable select_distinct() const;
  std::size_t size() const { return table_.size(); }

  std::string to_string() const;

  /// Reads back the text to_string() prints. Each row key resolves
  /// through `spec_of` to the spec its programs implement (nullptr
  /// refuses the key; the spec must outlive the table), and each
  /// component name resolves in `lib`. Accepts only text that the loaded
  /// table renders back byte for byte. Otherwise returns nullopt and names
  /// the refused row's key in `*failed`, empty when the text does not
  /// open with a row header.
  static std::optional<EquivalenceTable> parse(
      std::string_view text,
      const std::function<const SynthSpec*(const std::string&)>& spec_of,
      const std::vector<Component>& lib, std::string* failed = nullptr);

 private:
  std::map<std::string, std::vector<SynthProgram>> table_;
};

/// Run HPF-CEGIS over a set of specs and collect the table used by the
/// EDSEP-V transformation. `programs_per_instr` bounds table entries.
/// Grows the multiset size (up to +2) for instructions the configured
/// size cannot express. NOTE: programs hold pointers into `specs` — the
/// caller must keep the spec vector alive as long as the table is used.
EquivalenceTable build_equivalence_table(const std::vector<SynthSpec>& specs,
                                         const std::vector<Component>& lib,
                                         const DriverOptions& opts,
                                         unsigned programs_per_instr = 1);

}  // namespace sepe::synth
