// report_io.hpp — reading campaign reports back from their JSON form.
//
// The scale-out seam (engine/shard.hpp) moves reports between processes
// and hosts as JSON files: shard runs write them, `sepe-run merge` reads
// them back. This is the reader side: it parses with the shared JSON
// reader (util/json.hpp) and takes the fields of the dialect
// CampaignReport::to_json emits (the timing or the stable form, with or
// without shard metadata). It reads the stable fields only: a timing
// report parses to its run's stable form. Unknown fields are skipped so
// newer writers stay readable by older readers.
#pragma once

#include <optional>
#include <string>

#include "engine/campaign.hpp"

namespace sepe::engine {

/// Parse a report previously produced by CampaignReport::to_json.
/// Returns false and sets *error (with a byte offset) on malformed
/// input or on values outside the report schema (unknown verdict names,
/// non-numeric counts, counts above their 32-bit fields, a jobs entry
/// without a name, ...).
bool parse_report(const std::string& json, CampaignReport* out, std::string* error);

/// Slurp a file; nullopt when it cannot be opened/read.
std::optional<std::string> read_text_file(const std::string& path);

/// Write `text` to `path` atomically (temp file + rename) so readers
/// never observe a torn report. Transient failures — including ones
/// injected through the optional `fault_point` (docs/ROBUSTNESS.md,
/// e.g. "report.write") — are retried a bounded
/// number of times with a short deterministic backoff before the write
/// is given up on. Returns false on persistent I/O failure.
bool write_text_file_atomic(const std::string& path, const std::string& text,
                            const char* fault_point = nullptr);

}  // namespace sepe::engine
