#include "engine/workload.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <sstream>

#include "engine/report_io.hpp"
#include "synth/encoding.hpp"
#include "ts/btor2_parser.hpp"
#include "util/digest.hpp"

namespace sepe::engine {

std::optional<CampaignSpec> expand_source(const JobSource& source, std::uint64_t seed,
                                          std::string* error) {
  CampaignSpec spec;
  spec.seed = seed;
  if (!source.expand(&spec.jobs, error)) return std::nullopt;
  return spec;
}

// --- QED family ---

const char* mode_tag(qed::QedMode mode) {
  return mode == qed::QedMode::EddiV ? "EDDI-V" : "EDSEP-V";
}

JobSpec make_qed_job(std::string name, qed::QedMode mode, const proc::ProcConfig& config,
                     std::optional<proc::Mutation> mutation,
                     const synth::EquivalenceTable* equivalences, const JobBudget& budget,
                     unsigned queue_capacity, unsigned counter_bits) {
  assert((mode != qed::QedMode::EdsepV || equivalences != nullptr) &&
         "EDSEP-V requires an equivalence table");
  JobSpec job;
  job.name = std::move(name);
  job.provenance.family = kQedFamily;
  job.provenance.mode = mode_tag(mode);
  job.provenance.source = mutation ? mutation->name : "healthy";
  job.budget = budget;
  job.build = [mode, config, mutation = std::move(mutation), equivalences,
               queue_capacity, counter_bits](ts::TransitionSystem& ts, std::string*) {
    qed::QedOptions qo;
    qo.mode = mode;
    qo.queue_capacity = queue_capacity;
    qo.counter_bits = counter_bits;
    qo.equivalences = equivalences;
    qed::build_qed_model(ts, config, qo, mutation ? &*mutation : nullptr);
    return true;
  };
  return job;
}

std::vector<isa::Opcode> replay_opcodes(const synth::EquivalenceTable& table,
                                        isa::Opcode op) {
  const bool memory = isa::is_load(op) || isa::is_store(op);
  const std::string key =
      memory ? std::string(isa::opcode_name(op)) + "_ADDR" : isa::opcode_name(op);
  std::vector<isa::Opcode> ops;
  const synth::SynthProgram* prog = table.first(key);
  if (!prog) return ops;
  const auto push_unique = [&](isa::Opcode o) {
    for (isa::Opcode existing : ops)
      if (existing == o) return;
    ops.push_back(o);
  };
  for (const synth::SynthLine& line : prog->lines)
    for (const synth::ExpansionInstr& e : line.comp->expansion) push_unique(e.op);
  if (memory) push_unique(op);
  return ops;
}

proc::ProcConfig derive_duv_config(const CampaignMatrix& matrix,
                                   const proc::Mutation* mutation) {
  assert(matrix.xlen >= 2 && "DUV datapath needs at least 2 bits");
  proc::ProcConfig config;
  config.xlen = std::max(2u, matrix.xlen);
  // Largest power-of-two memory the address space supports (cap at the
  // requested size) — mirrors the Table-1 bench sizing.
  config.mem_words = config.xlen >= 5
                         ? matrix.mem_words
                         : std::min(matrix.mem_words, 1u << (config.xlen - 2));
  const auto add = [&](isa::Opcode op) {
    if (!config.supports(op)) config.opcodes.push_back(op);
  };
  if (mutation && mutation->target != isa::Opcode::NOP) add(mutation->target);
  for (isa::Opcode op : matrix.extra_opcodes) add(op);
  // The DUV must also implement every opcode the EDSEP replays of its
  // instructions issue.
  if (matrix.equivalences) {
    for (isa::Opcode base : std::vector<isa::Opcode>(config.opcodes))
      for (isa::Opcode op : replay_opcodes(*matrix.equivalences, base)) add(op);
  }
  return config;
}

bool QedMatrixSource::expand(std::vector<JobSpec>* out, std::string* error) const {
  if (error) error->clear();
  const auto add_jobs_for = [&](const proc::Mutation* mutation,
                                const std::string& base) {
    const proc::ProcConfig config = derive_duv_config(matrix_, mutation);
    for (qed::QedMode mode : matrix_.modes) {
      out->push_back(make_qed_job(
          base + "/" + mode_tag(mode), mode, config,
          mutation ? std::optional<proc::Mutation>(*mutation) : std::nullopt,
          matrix_.equivalences, matrix_.budget, matrix_.queue_capacity,
          matrix_.counter_bits));
    }
  };

  if (matrix_.mutations.empty()) {
    add_jobs_for(nullptr, "healthy");
  } else {
    for (const proc::Mutation& m : matrix_.mutations) add_jobs_for(&m, m.name);
  }
  return true;
}

CampaignSpec expand(const CampaignMatrix& matrix, std::uint64_t seed) {
  CampaignSpec spec;
  spec.seed = seed;
  std::string error;
  [[maybe_unused]] const bool ok = QedMatrixSource(matrix).expand(&spec.jobs, &error);
  assert(ok && "matrix expansion cannot fail");
  return spec;
}

// --- BTOR2 corpus family ---

namespace {

/// Count `<id> bad <cond>` lines with the parser's own tokenization
/// (comment stripped first), so the fan-out matches what parse_btor2
/// will see. Garbled files just miscount into >= 1 job whose build then
/// reports the real diagnostic.
unsigned count_bad_properties(const std::string& text) {
  std::istringstream in(text);
  std::string raw;
  unsigned n = 0;
  while (std::getline(in, raw)) {
    const std::size_t semi = raw.find(';');
    if (semi != std::string::npos) raw = raw.substr(0, semi);
    std::istringstream ls(raw);
    std::string id, kw;
    if (ls >> id >> kw && kw == "bad") ++n;
  }
  return n;
}

}  // namespace

bool Btor2CorpusSource::expand(std::vector<JobSpec>* out, std::string* error) const {
  namespace fs = std::filesystem;
  if (error) error->clear();
  const auto fail = [&](std::string what) {
    if (error && error->empty()) *error = std::move(what);
    return false;
  };

  std::error_code ec;
  if (!fs::is_directory(directory_, ec) || ec)
    return fail("corpus '" + directory_ + "' is not a readable directory");

  // Deterministic enumeration: relative paths with '/' separators,
  // sorted, so job names (= shard/merge ids) are identical on any host.
  std::vector<std::string> files;
  for (fs::recursive_directory_iterator it(directory_, ec), end;
       !ec && it != end; it.increment(ec)) {
    std::error_code file_ec;
    if (!it->is_regular_file(file_ec) || file_ec) continue;
    if (it->path().extension() != ".btor2") continue;
    files.push_back(fs::relative(it->path(), directory_, file_ec).generic_string());
  }
  if (ec) return fail("cannot enumerate corpus '" + directory_ + "': " + ec.message());
  std::sort(files.begin(), files.end());
  if (files.empty())
    return fail("corpus '" + directory_ + "' contains no .btor2 files");

  for (const std::string& rel : files) {
    const std::string path = (fs::path(directory_) / rel).string();
    const auto text = read_text_file(path);
    // Unreadable at expansion time is a setup error, not a model error:
    // without the bytes there is nothing to hash, so the verdict journal
    // could not tell this corpus from an edited one.
    if (!text) return fail("cannot read corpus file '" + rel + "'");
    // The per-file content fingerprint the verdict-journal key covers.
    const std::string digest = hex16(fnv1a(*text));
    const unsigned properties = std::max(1u, count_bad_properties(*text));
    for (unsigned p = 0; p < properties; ++p) {
      JobSpec job;
      job.name = rel + ":b" + std::to_string(p);
      job.provenance.family = kBtor2Family;
      job.provenance.source = rel;
      job.provenance.property = p;
      job.provenance.content_digest = digest;
      job.provenance.mode.clear();
      job.budget = budget_;
      // The family's encoding default: Plaisted–Greenbaum wins on BTOR2
      // corpora (−11% conflicts on the committed mini-corpus), unlike
      // on the native QED models — see JobBudget::plaisted_greenbaum.
      if (!job.budget.plaisted_greenbaum) job.budget.plaisted_greenbaum = true;
      // The worker re-reads and re-parses the file itself: the campaign
      // never holds a whole corpus resident (a sharded run of a large
      // corpus would otherwise pin every file's bytes in every process),
      // and the digest check turns a file edited mid-run into a
      // deterministic diagnostic row instead of a silent drift between
      // what was hashed and what was verified.
      job.build = [path, digest, p](ts::TransitionSystem& ts,
                                    std::string* build_error) {
        const auto bytes = read_text_file(path);
        if (!bytes) {
          *build_error = "corpus file vanished or became unreadable";
          return false;
        }
        if (hex16(fnv1a(*bytes)) != digest) {
          *build_error = "corpus file changed since campaign expansion "
                         "(content digest mismatch)";
          return false;
        }
        const ts::Btor2ParseResult r = ts::parse_btor2(*bytes, ts);
        if (!r.ok) {
          *build_error = r.error;
          return false;
        }
        if (ts.bads().empty()) {
          *build_error = "no bad property to check";
          return false;
        }
        if (p >= ts.bads().size()) {
          *build_error = "bad-property index " + std::to_string(p) +
                         " out of range (file has " +
                         std::to_string(ts.bads().size()) + ")";
          return false;
        }
        if (ts.bads().size() > 1) ts.retain_bad(p);
        return true;
      };
      out->push_back(std::move(job));
    }
  }
  return true;
}

}  // namespace sepe::engine
