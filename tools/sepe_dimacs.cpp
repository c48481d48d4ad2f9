// sepe_dimacs.cpp — DIMACS CNF frontend over the native CDCL solver.
//
// Speaks the standard SAT-competition protocol: reads a `p cnf` file
// (or stdin), prints "s SATISFIABLE" / "s UNSATISFIABLE" with "v" model
// lines, and exits 10 / 20 accordingly (0 on unknown, 1 on input
// errors, including a literal or variable count beyond 2^30, the most a
// sat::Lit can index). That makes the binary a drop-in SEPE_EXTERNAL_SOLVER target,
// so the DIMACS subprocess backend and its equivalence tests run even on
// hosts without kissat or cadical — the backend_test battery points the
// subprocess bridge at this binary and cross-checks it against the
// in-process native engine.
//
// Usage: sepe-dimacs [FILE.cnf]

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "sat/solver.hpp"

namespace {

using sepe::sat::Lit;
using sepe::sat::SolveResult;
using sepe::sat::Solver;

// The largest variable count a Lit can index: its code 2*var + sign
// must fit an int.
constexpr long kMaxVars = 1L << 30;

int run(std::istream& in) {
  Solver solver;
  long num_vars = 0;
  const auto grow_to = [&](long vars) {
    for (; num_vars < vars; ++num_vars) solver.new_var();
  };
  bool header_seen = false;
  std::vector<Lit> clause;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == 'c' || line[0] == '%') continue;
    if (line[0] == 'p') {
      std::istringstream header(line);
      std::string p, cnf;
      long declared_vars = 0, clause_count = 0;
      if (!(header >> p >> cnf >> declared_vars >> clause_count) || cnf != "cnf" ||
          declared_vars < 0 || declared_vars > kMaxVars) {
        std::fprintf(stderr, "sepe-dimacs: malformed header: %s\n", line.c_str());
        return 1;
      }
      header_seen = true;
      grow_to(declared_vars);
      continue;
    }
    if (!header_seen) {
      std::fprintf(stderr, "sepe-dimacs: clause before 'p cnf' header\n");
      return 1;
    }
    std::istringstream lits(line);
    long lit = 0;
    while (lits >> lit) {
      if (lit == 0) {
        solver.add_clause(clause);
        clause.clear();
        continue;
      }
      if (lit < -kMaxVars || lit > kMaxVars) {
        std::fprintf(stderr, "sepe-dimacs: literal %ld out of range (|lit| <= %ld)\n",
                     lit, kMaxVars);
        return 1;
      }
      const long var = (lit > 0 ? lit : -lit) - 1;
      grow_to(var + 1);  // tolerate var overflow
      clause.push_back(Lit(static_cast<int>(var), lit < 0));
    }
    if (!lits.eof()) {
      std::fprintf(stderr, "sepe-dimacs: malformed clause line: %s\n", line.c_str());
      return 1;
    }
  }
  if (!clause.empty()) solver.add_clause(clause);  // unterminated final clause

  const SolveResult result = solver.solve();
  if (result == SolveResult::Sat) {
    std::printf("s SATISFIABLE\n");
    std::string vline = "v";
    for (int v = 0; v < num_vars; ++v) {
      vline += ' ';
      if (!solver.model_value(v)) vline += '-';
      vline += std::to_string(v + 1);
      if (vline.size() > 72) {
        std::printf("%s\n", vline.c_str());
        vline = "v";
      }
    }
    std::printf("%s 0\n", vline.c_str());
    return 10;
  }
  if (result == SolveResult::Unsat) {
    std::printf("s UNSATISFIABLE\n");
    return 20;
  }
  std::printf("s UNKNOWN\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 2) {
    std::fprintf(stderr, "usage: sepe-dimacs [FILE.cnf]\n");
    return 1;
  }
  if (argc == 2) {
    std::ifstream file(argv[1]);
    if (!file) {
      std::fprintf(stderr, "sepe-dimacs: cannot open %s\n", argv[1]);
      return 1;
    }
    return run(file);
  }
  return run(std::cin);
}
