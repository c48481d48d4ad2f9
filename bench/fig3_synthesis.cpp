// fig3_synthesis — reproduces Figure 3: per-case synthesis time of
// HPF-CEGIS vs iterative CEGIS over the 26 original-instruction cases,
// on the 29-component standard library.
//
// Paper setup (§6.1): weights and α initialized to 1, increment 1;
// early-stop once k semantically equivalent programs of >= 3 components
// are synthesized; iterative CEGIS visits the same multisets in shuffled
// order. The absolute times depend on the in-repo SMT core (measured
// runs are in README.md, "Performance"); the reported *shape* is the
// per-case and average HPF/iterative ratio.
//
// Flags: --k N (programs per case, default 3), --cap SEC (per-case
// per-algorithm wall cap, default 20), --cases N (first N cases only),
// --xlen W (synthesis width, default 8).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "synth/cegis.hpp"
#include "util/stopwatch.hpp"

using namespace sepe;
using namespace sepe::synth;

int main(int argc, char** argv) {
  unsigned k = 3, cases_limit = 26, xlen = 8;
  double cap = 20.0;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--k") && i + 1 < argc) k = std::atoi(argv[++i]);
    if (!std::strcmp(argv[i], "--cap") && i + 1 < argc) cap = std::atof(argv[++i]);
    if (!std::strcmp(argv[i], "--cases") && i + 1 < argc)
      cases_limit = std::atoi(argv[++i]);
    if (!std::strcmp(argv[i], "--xlen") && i + 1 < argc) xlen = std::atoi(argv[++i]);
  }

  const auto lib = make_standard_library();
  const auto cases = make_figure3_cases();

  DriverOptions opts;
  opts.cegis.xlen = xlen;
  opts.multiset_size = 3;  // "at least three components"
  opts.target_programs = k;
  opts.max_seconds = cap;

  HpfOptions hpf;  // paper defaults: weights 1, increments 1, alpha 1
  PriorityDict shared_dict(lib.size(), hpf);  // Algorithm 1 line 2: one dict for all g

  std::printf("Figure 3 — synthesis time, HPF-CEGIS vs iterative CEGIS\n");
  std::printf("library: 29 components (10 NIC / 10 DIC / 9 CIC), n=3, k=%u, xlen=%u, "
              "cap=%.0fs/case\n\n", k, xlen, cap);
  std::printf("%-8s | %-10s %-9s %-7s | %-10s %-9s %-7s | %s\n", "case", "HPF(s)",
              "tried", "found", "iter(s)", "tried", "found", "iter/HPF");
  std::printf("---------+--------------------------------+----------------------------"
              "----+---------\n");

  double hpf_total = 0, iter_total = 0, ratio_sum = 0;
  unsigned measured = 0;
  for (unsigned i = 0; i < cases.size() && i < cases_limit; ++i) {
    const SynthSpec& spec = cases[i];

    Stopwatch sw1;
    const SynthesisResult hr = hpf_cegis(spec, lib, opts, hpf, &shared_dict);
    const double ht = sw1.seconds();

    Stopwatch sw2;
    const SynthesisResult ir = iterative_cegis(spec, lib, opts);
    const double it = sw2.seconds();

    const double ratio = ht > 0 ? it / ht : 0.0;
    std::printf("%-8s | %-10.2f %-9u %-7zu | %-10.2f %-9u %-7zu | %.2fx\n",
                spec.name.c_str(), ht, hr.multisets_tried, hr.programs.size(), it,
                ir.multisets_tried, ir.programs.size(), ratio);
    std::fflush(stdout);
    hpf_total += ht;
    iter_total += it;
    if (!hr.programs.empty() && !ir.programs.empty()) {
      ratio_sum += ratio;
      ++measured;
    }
  }

  std::printf("\ntotals: HPF %.1fs, iterative %.1fs", hpf_total, iter_total);
  if (iter_total > 0)
    std::printf("  =>  overall time reduction %.0f%% (paper reports ~50%%)\n",
                100.0 * (1.0 - hpf_total / iter_total));
  if (measured > 0)
    std::printf("mean per-case iterative/HPF speedup: %.2fx over %u cases\n",
                ratio_sum / measured, measured);
  return 0;
}
