// workload.hpp — the workload-family abstraction: where campaign jobs
// come from.
//
// The engine core (engine/campaign.hpp) runs JobSpecs without knowing
// what they verify; a JobSource is a named *family* of workloads that
// expands into those JobSpecs, stamping each with provenance (family
// tag, source id, bad-property index, content digest) that flows into
// reports and verdict-journal keys. Mature checkers owe much of their
// reach to exactly this seam — the solver layers never learn which
// frontend produced the model — and every future scenario family here
// is one JobSource subclass, not another copy of the campaign plumbing.
//
// Two families ship today:
//   * QedMatrixSource — the paper's experiments: instruction classes ×
//     QED mode {EDDI-V, EDSEP-V} × injected mutation, expanded from a
//     declarative CampaignMatrix cross-product;
//   * Btor2CorpusSource — HWMCC-style corpora (the paper's §6.2
//     Yosys→BTOR2→Pono flow): every `.btor2` file under a directory,
//     fanned out into one job per bad property and parsed with
//     ts::parse_btor2 on the worker thread. Malformed files become
//     per-job parse-error rows, never campaign aborts.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "engine/campaign.hpp"
#include "proc/mutations.hpp"
#include "qed/qed_module.hpp"
#include "synth/cegis.hpp"

namespace sepe::engine {

/// A named workload family that expands into campaign jobs.
class JobSource {
 public:
  virtual ~JobSource() = default;

  /// Family tag stamped into every expanded job's provenance
  /// (kQedFamily, kBtor2Family, ...).
  virtual std::string family() const = 0;

  /// Append this source's jobs to *out. Returns false and sets *error
  /// when the source itself is unusable (unreadable corpus directory,
  /// no files). Individually malformed corpus files do NOT fail
  /// expansion: they become jobs whose build fails on the worker, which
  /// the engine reports as Verdict::Unknown rows with the diagnostic in
  /// JobResult::note while the rest of the campaign proceeds.
  virtual bool expand(std::vector<JobSpec>* out, std::string* error) const = 0;
};

/// Expand one source into a runnable campaign (seed recorded in the
/// report). nullopt + *error when the source fails to expand.
std::optional<CampaignSpec> expand_source(const JobSource& source, std::uint64_t seed,
                                          std::string* error);

// --- the QED family (the paper's experiments) ---

/// Short QED-mode tag for job names and report columns ("EDDI-V" /
/// "EDSEP-V"; contrast qed::qed_mode_name's long display form).
const char* mode_tag(qed::QedMode mode);

/// Convenience constructor for the standard QED job: DUV(config, mutation)
/// + QED module in `mode`. The mutation is captured by value; the
/// equivalence table (required for EDSEP-V) is captured by pointer and
/// must outlive the campaign — it is only ever read. Mostly a private
/// detail of QedMatrixSource; the paper-experiment benches also use it
/// directly for per-row budgets the matrix cannot express.
JobSpec make_qed_job(std::string name, qed::QedMode mode, const proc::ProcConfig& config,
                     std::optional<proc::Mutation> mutation,
                     const synth::EquivalenceTable* equivalences, const JobBudget& budget,
                     unsigned queue_capacity = 2, unsigned counter_bits = 3);

/// Declarative cross-product: one job per (mutation × mode). Instruction
/// classes enter through the mutations (each targets one instruction) and
/// the per-job DUV opcode set, which is derived from the mutation target
/// plus everything its EDSEP replay issues.
struct CampaignMatrix {
  unsigned xlen = 4;
  unsigned mem_words = 8;
  std::vector<qed::QedMode> modes;
  std::vector<proc::Mutation> mutations;
  const synth::EquivalenceTable* equivalences = nullptr;
  /// Opcodes always present in the DUV besides the derived ones.
  std::vector<isa::Opcode> extra_opcodes;
  unsigned queue_capacity = 2;
  unsigned counter_bits = 3;
  JobBudget budget;
};

/// The QED workload family: expands a CampaignMatrix cross-product.
class QedMatrixSource final : public JobSource {
 public:
  explicit QedMatrixSource(CampaignMatrix matrix) : matrix_(std::move(matrix)) {}

  std::string family() const override { return kQedFamily; }
  bool expand(std::vector<JobSpec>* out, std::string* error) const override;

 private:
  CampaignMatrix matrix_;
};

/// Matrix expansion without the JobSource ceremony (cannot fail).
CampaignSpec expand(const CampaignMatrix& matrix, std::uint64_t seed = 1);

/// The DUV configuration expand() gives a job: mutation target + extra
/// opcodes + every opcode their EDSEP replays issue, memory sized to the
/// address space. Exposed for drivers (e.g. the Table-1 bench) that build
/// per-job budgets expand() cannot express. Requires xlen >= 2.
proc::ProcConfig derive_duv_config(const CampaignMatrix& matrix,
                                   const proc::Mutation* mutation);

/// Opcodes an EDSEP replay of `op` issues: the lowering of its table
/// entry plus, for memory instructions, the shadow access itself. Used to
/// size per-job DUV opcode sets.
std::vector<isa::Opcode> replay_opcodes(const synth::EquivalenceTable& table,
                                        isa::Opcode op);

// --- the BTOR2 corpus family (§6.2 interchange format) ---

/// Every `.btor2` file under a directory (recursive, sorted by relative
/// path so expansion is deterministic on any host), one job per bad
/// property: a file with N >= 2 bad lines fans out into N jobs named
/// `<file>:b<i>`, each checking only property i. File content is read
/// and hashed at expansion time (the hash lands in the provenance and
/// hence the verdict-journal key; an edited file misses the journal and
/// is re-solved), but parsed with ts::parse_btor2 on the worker thread — a
/// malformed file costs a parse-error row, not the campaign.
class Btor2CorpusSource final : public JobSource {
 public:
  Btor2CorpusSource(std::string directory, JobBudget budget)
      : directory_(std::move(directory)), budget_(budget) {}

  std::string family() const override { return kBtor2Family; }
  bool expand(std::vector<JobSpec>* out, std::string* error) const override;

 private:
  std::string directory_;
  JobBudget budget_;
};

}  // namespace sepe::engine
