// ablate_hpf — ablation of the HPF-CEGIS priority components: how much
// of the speedup comes from each ingredient of the priority function
// priority = Σ(c_j − α·χ_j) / Σ e_j ?
//
//   full        — choice + exclusion updates + α-penalty (the paper)
//   no-alpha    — α-penalty off (same-name components not demoted)
//   no-choice   — choice-weight rewards off
//   no-excl     — exclusion-weight penalties off
//   static      — all updates off: fixed uniform priorities
//
// Flags: --k N (default 3), --cap SEC (default 20), --cases "A,B,..."
// (default SUB,SLT,SRA,XORI,MULH).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "synth/cegis.hpp"
#include "util/stopwatch.hpp"

using namespace sepe;
using namespace sepe::synth;

int main(int argc, char** argv) {
  unsigned k = 3;
  double cap = 20.0;
  std::string case_list = "SUB,SLT,SRA,XORI,MULH";
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--k") && i + 1 < argc) k = std::atoi(argv[++i]);
    if (!std::strcmp(argv[i], "--cap") && i + 1 < argc) cap = std::atof(argv[++i]);
    if (!std::strcmp(argv[i], "--cases") && i + 1 < argc) case_list = argv[++i];
  }

  std::vector<SynthSpec> cases;
  {
    std::istringstream ss(case_list);
    std::string tok;
    while (std::getline(ss, tok, ',')) {
      const auto op = isa::opcode_from_name(tok);
      if (op) cases.push_back(make_spec(*op));
    }
  }

  struct Variant {
    const char* name;
    HpfOptions opts;
  };
  std::vector<Variant> variants;
  {
    HpfOptions full;
    variants.push_back({"full", full});
    HpfOptions v = full;
    v.enable_alpha_penalty = false;
    variants.push_back({"no-alpha", v});
    v = full;
    v.enable_choice_updates = false;
    variants.push_back({"no-choice", v});
    v = full;
    v.enable_exclusion_updates = false;
    variants.push_back({"no-excl", v});
    v = full;
    v.enable_alpha_penalty = false;
    v.enable_choice_updates = false;
    v.enable_exclusion_updates = false;
    variants.push_back({"static", v});
  }

  const auto lib = make_standard_library();
  DriverOptions opts;
  opts.cegis.xlen = 8;
  opts.multiset_size = 3;
  opts.target_programs = k;
  opts.max_seconds = cap;

  std::printf("HPF-CEGIS ablation (k=%u, cap=%.0fs/case)\n\n", k, cap);
  std::printf("%-10s", "case");
  for (const Variant& v : variants) std::printf(" | %-16s", v.name);
  std::printf("\n");

  std::vector<double> totals(variants.size(), 0.0);
  for (const SynthSpec& spec : cases) {
    std::printf("%-10s", spec.name.c_str());
    for (std::size_t vi = 0; vi < variants.size(); ++vi) {
      // Fresh dict per (variant, case): isolates the priority policy.
      PriorityDict dict(lib.size(), variants[vi].opts);
      Stopwatch sw;
      const SynthesisResult r = hpf_cegis(spec, lib, opts, variants[vi].opts, &dict);
      const double t = sw.seconds();
      totals[vi] += t;
      std::printf(" | %6.2fs %3zu prog", t, r.programs.size());
      std::fflush(stdout);
    }
    std::printf("\n");
  }

  std::printf("\n%-10s", "total");
  for (std::size_t vi = 0; vi < variants.size(); ++vi)
    std::printf(" | %6.2fs         ", totals[vi]);
  std::printf("\n");
  if (totals[0] > 0) {
    std::printf("%-10s", "vs full");
    for (std::size_t vi = 0; vi < variants.size(); ++vi)
      std::printf(" | %6.2fx         ", totals[vi] / totals[0]);
    std::printf("\n");
  }
  return 0;
}
