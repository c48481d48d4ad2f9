#include "engine/witness.hpp"

#include <cstdio>
#include <cstring>
#include <optional>
#include <sstream>

#include "engine/report_io.hpp"
#include "sim/ts_sim.hpp"
#include "smt/eval.hpp"
#include "ts/btor2_parser.hpp"
#include "util/json.hpp"
#include "util/parse.hpp"

namespace sepe::engine {

namespace {

/// Artifact format version: bump whenever the line layout changes, so
/// files written by an older binary are refused instead of misread.
constexpr int kWitnessVersion = 1;

std::uint64_t fnv1a(const char* data, std::size_t n,
                    std::uint64_t h = 1469598103934665603ull) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Inverse of sepe::json_escape for the exact dialect it emits (same
/// contract as the verdict-journal reader): returns false on malformed
/// input — a hand-edited line that de-syncs the quoting.
bool unescape(const std::string& s, std::size_t* pos, std::string* out) {
  std::size_t i = *pos;
  if (i >= s.size() || s[i] != '"') return false;
  ++i;
  out->clear();
  while (i < s.size()) {
    const char c = s[i++];
    if (c == '"') {
      *pos = i;
      return true;
    }
    if (c != '\\') {
      out->push_back(c);
      continue;
    }
    if (i >= s.size()) return false;
    const char esc = s[i++];
    switch (esc) {
      case '"': out->push_back('"'); break;
      case '\\': out->push_back('\\'); break;
      case '/': out->push_back('/'); break;
      case 'b': out->push_back('\b'); break;
      case 'f': out->push_back('\f'); break;
      case 'n': out->push_back('\n'); break;
      case 'r': out->push_back('\r'); break;
      case 't': out->push_back('\t'); break;
      case 'u': {
        if (i + 4 > s.size()) return false;
        unsigned code = 0;
        for (int k = 0; k < 4; ++k) {
          const char h = s[i++];
          code <<= 4;
          if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
          else return false;
        }
        if (code > 0x7f) return false;  // the writer only escapes control bytes
        out->push_back(static_cast<char>(code));
        break;
      }
      default: return false;
    }
  }
  return false;  // unterminated string
}

/// Positional scanner over one artifact line. The self-check digest
/// already guarantees the bytes are exactly what the renderer emitted,
/// so the scan is strict: any deviation is corruption, not dialect
/// drift (verdict-journal style).
struct Scanner {
  const std::string& s;
  std::size_t pos = 0;

  bool expect(const char* lit) {
    const std::size_t n = std::strlen(lit);
    if (s.compare(pos, n, lit) != 0) return false;
    pos += n;
    return true;
  }
  bool number(std::uint64_t* out) {
    const std::size_t start = pos;
    while (pos < s.size() && s[pos] >= '0' && s[pos] <= '9') ++pos;
    const auto v = parse_u64_strict(s.substr(start, pos - start));
    if (!v) return false;
    *out = *v;
    return true;
  }
  bool string_field(const char* name, std::string* out) {
    return expect(",\"") && expect(name) && expect("\":") && unescape(s, &pos, out);
  }
  bool u64_field(const char* name, std::uint64_t* out) {
    return expect(",\"") && expect(name) && expect("\":") && number(out);
  }
  bool done() const { return pos == s.size(); }
};

/// Strict inverse of BitVec::to_hex: "0x" + exactly (width+3)/4
/// lowercase nibbles whose value fits the width.
bool parse_hex_value(const std::string& s, unsigned width, BitVec* out) {
  const unsigned nibbles = (width + 3) / 4;
  if (s.size() != 2 + nibbles || s[0] != '0' || s[1] != 'x') return false;
  std::uint64_t v = 0;
  for (unsigned i = 2; i < s.size(); ++i) {
    const char c = s[i];
    v <<= 4;
    if (c >= '0' && c <= '9') v |= static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') v |= static_cast<std::uint64_t>(c - 'a' + 10);
    else return false;
  }
  if (v & ~BitVec::mask(width)) return false;  // top nibble overflows the width
  *out = BitVec(width, v);
  return true;
}

/// The deterministic "effective stimulus length": the last step with any
/// non-zero input value, 0 when the whole stimulus is zero.
unsigned effective_length(const WitnessTrace& trace) {
  unsigned last = 0;
  for (unsigned t = 0; t < trace.inputs.size(); ++t)
    for (const BitVec& v : trace.inputs[t])
      if (!v.is_zero()) last = t;
  return last;
}

/// One step row, {"step":t,"in":[…]} plus ,"st":[…] when the trace
/// records a state row for step t — the grammar artifacts and the verdict
/// journal share.
void render_step_row(std::ostream& os, const WitnessTrace& trace, unsigned t) {
  const auto values = [&](const std::vector<BitVec>& row) {
    for (std::size_t i = 0; i < row.size(); ++i)
      os << (i ? ",\"" : "\"") << row[i].to_hex() << "\"";
  };
  os << "{\"step\":" << t << ",\"in\":[";
  values(trace.inputs[t]);
  os << "]";
  if (t < trace.states.size()) {
    os << ",\"st\":[";
    values(trace.states[t]);
    os << "]";
  }
  os << "}";
}

/// Inverse of render_step_row at sc.pos: exactly `inputs` input values
/// and, when `states` is set, a state row of exactly that many values,
/// each parsed against `model`'s declared width. Appends to *trace.
bool parse_step_row(Scanner& sc, unsigned t, const ts::TransitionSystem& model,
                    std::size_t inputs, std::optional<std::size_t> states,
                    WitnessTrace* trace) {
  const auto values = [&](const std::vector<smt::TermRef>& vars, std::size_t n,
                          std::vector<BitVec>* row) {
    for (std::size_t i = 0; i < n; ++i) {
      std::string hex;
      BitVec v;
      if ((i && !sc.expect(",")) || !unescape(sc.s, &sc.pos, &hex) ||
          !parse_hex_value(hex, model.mgr().width(vars[i]), &v))
        return false;
      row->push_back(v);
    }
    return sc.expect("]");
  };
  if (!sc.expect(("{\"step\":" + std::to_string(t) + ",\"in\":[").c_str()))
    return false;
  trace->inputs.emplace_back();
  if (!values(model.inputs(), inputs, &trace->inputs.back())) return false;
  if (states) {
    if (!sc.expect(",\"st\":[")) return false;
    trace->states.emplace_back();
    if (!values(model.states(), *states, &trace->states.back())) return false;
  }
  return sc.expect("}");
}

}  // namespace

WitnessTrace extract_trace(const ts::TransitionSystem& ts, const bmc::Witness& w) {
  WitnessTrace trace;
  trace.length = w.length;
  trace.bad_index = w.bad_index;
  trace.bad_label = w.bad_label;
  trace.inputs.reserve(w.inputs.size());
  trace.states.reserve(w.states.size());
  for (unsigned t = 0; t <= w.length; ++t) {
    std::vector<BitVec> in_row, st_row;
    in_row.reserve(ts.inputs().size());
    st_row.reserve(ts.states().size());
    for (smt::TermRef in : ts.inputs()) in_row.push_back(w.inputs[t].at(in));
    for (smt::TermRef s : ts.states()) st_row.push_back(w.states[t].at(s));
    trace.inputs.push_back(std::move(in_row));
    trace.states.push_back(std::move(st_row));
  }
  return trace;
}

WitnessReplay replay_trace(const ts::TransitionSystem& ts, const WitnessTrace& trace) {
  const auto fail = [](std::string what) { return WitnessReplay{false, std::move(what)}; };
  const auto at = [](unsigned t) { return " at step " + std::to_string(t); };
  const std::vector<smt::TermRef>& ins = ts.inputs();
  const std::vector<smt::TermRef>& sts = ts.states();

  if (trace.bad_index >= ts.bads().size())
    return fail("bad index " + std::to_string(trace.bad_index) +
                " out of range (model declares " + std::to_string(ts.bads().size()) +
                " bad properties)");
  if (trace.inputs.size() != static_cast<std::size_t>(trace.length) + 1)
    return fail("trace claims length " + std::to_string(trace.length) + " but has " +
                std::to_string(trace.inputs.size()) + " input rows");
  for (unsigned t = 0; t < trace.inputs.size(); ++t) {
    if (trace.inputs[t].size() > ins.size())
      return fail("input row wider than the model" + at(t));
    for (std::size_t i = 0; i < trace.inputs[t].size(); ++i)
      if (trace.inputs[t][i].width() != ts.mgr().width(ins[i]))
        return fail("input width mismatch" + at(t));
  }
  if (trace.states.size() > static_cast<std::size_t>(trace.length) + 1)
    return fail("more state rows than steps");
  for (unsigned t = 0; t < trace.states.size(); ++t) {
    if (trace.states[t].size() > sts.size())
      return fail("state row wider than the model" + at(t));
    for (std::size_t i = 0; i < trace.states[t].size(); ++i)
      if (trace.states[t][i].width() != ts.mgr().width(sts[i]))
        return fail("state width mismatch" + at(t));
  }

  sim::TsSim sim(ts);
  if (!trace.states.empty()) {
    for (std::size_t i = 0; i < trace.states[0].size(); ++i) {
      if (ts.init_of(sts[i]) != smt::kNullTerm) {
        // Init-pinned states cannot be overridden; a recorded value that
        // disagrees is a tampered or mis-extracted trace.
        if (sim.state(sts[i]) != trace.states[0][i])
          return fail("recorded initial state disagrees with the model's init value");
      } else {
        sim.set_state(sts[i], trace.states[0][i]);
      }
    }
  }

  for (unsigned t = 0; t <= trace.length; ++t) {
    smt::Assignment in;
    for (std::size_t i = 0; i < trace.inputs[t].size(); ++i)
      in.emplace(ins[i], trace.inputs[t][i]);
    if (t > 0 && t < trace.states.size())
      for (std::size_t i = 0; i < trace.states[t].size(); ++i)
        if (sim.state(sts[i]) != trace.states[t][i])
          return fail("replayed state diverges from the recorded row" + at(t));
    if (t == 0)
      for (smt::TermRef c : ts.init_constraints())
        if (!sim.eval(c, in).is_true())
          return fail("initial-state constraint violated");
    if (!sim.constraints_ok(in)) return fail("step constraint violated" + at(t));
    if (t == trace.length) {
      if (!sim.eval(ts.bads()[trace.bad_index], in).is_true())
        return fail("bad condition does not fire at the reported bound " +
                    std::to_string(trace.length));
      const std::string& label = ts.bad_labels()[trace.bad_index];
      if (!label.empty() && !trace.bad_label.empty() && label != trace.bad_label)
        return fail("bad label '" + trace.bad_label +
                    "' disagrees with the model's '" + label + "'");
    } else {
      sim.step(in);
    }
  }
  return WitnessReplay{true, ""};
}

unsigned shrink_trace(const ts::TransitionSystem& ts, WitnessTrace* trace) {
  // Recorded intermediate state rows would pin the original stimulus
  // (zeroing an input changes every downstream state), so shrinking
  // keeps only row 0 — replay recomputes the rest.
  if (trace->states.size() > 1) trace->states.resize(1);
  const auto still_falsifies = [&] { return replay_trace(ts, *trace).ok; };

  // Pass 1: neutralize whole steps, latest first — trailing steps (e.g.
  // pipeline-drain bubbles) go first, which is what usually shortens the
  // effective stimulus.
  for (unsigned t = static_cast<unsigned>(trace->inputs.size()); t-- > 0;) {
    std::vector<BitVec>& row = trace->inputs[t];
    bool any = false;
    for (const BitVec& v : row) any = any || !v.is_zero();
    if (!any) continue;
    const std::vector<BitVec> saved = row;
    for (BitVec& v : row) v = BitVec::zeros(v.width());
    if (!still_falsifies()) row = saved;
  }
  // Pass 2: individual values, earliest first — catches partial
  // reductions inside steps pass 1 had to keep.
  for (unsigned t = 0; t < trace->inputs.size(); ++t) {
    for (BitVec& v : trace->inputs[t]) {
      if (v.is_zero()) continue;
      const BitVec saved = v;
      v = BitVec::zeros(v.width());
      if (!still_falsifies()) v = saved;
    }
  }
  trace->shrunk = true;
  return effective_length(*trace);
}

std::string render_stimulus(const WitnessTrace& trace) {
  std::ostringstream os;
  os << "{\"form\":\"" << (trace.shrunk ? "shrunk" : "raw") << "\"";
  os << ",\"bad\":" << trace.bad_index;
  os << ",\"steps\":[";
  for (unsigned t = 0; t < trace.inputs.size(); ++t) {
    if (t) os << ",";
    render_step_row(os, trace, t);
  }
  os << "]}";
  return os.str();
}

bool parse_stimulus(const ts::TransitionSystem& ts, const std::string& text,
                    WitnessTrace* out, std::string* error) {
  const auto fail = [&](std::string what) {
    if (error) *error = std::move(what);
    return false;
  };
  Scanner sc{text};
  WitnessTrace trace;
  std::string form;
  std::uint64_t bad = 0;
  if (!sc.expect("{\"form\":") || !unescape(text, &sc.pos, &form) ||
      (form != "shrunk" && form != "raw"))
    return fail("malformed stimulus marker");
  trace.shrunk = form == "shrunk";
  if (!sc.u64_field("bad", &bad) || !sc.expect(",\"steps\":["))
    return fail("malformed stimulus header");
  trace.bad_index = static_cast<std::size_t>(bad);
  // A shrunk trace records the step-0 state row only, a raw one every row.
  for (unsigned t = 0; t == 0 || !sc.expect("]"); ++t) {
    const std::optional<std::size_t> states =
        t == 0 || !trace.shrunk ? std::optional(ts.states().size()) : std::nullopt;
    if ((t && !sc.expect(",")) ||
        !parse_step_row(sc, t, ts, ts.inputs().size(), states, &trace))
      return fail("malformed stimulus step " + std::to_string(t));
  }
  if (!sc.expect("}") || !sc.done()) return fail("trailing bytes after the stimulus");
  trace.length = static_cast<unsigned>(trace.inputs.size() - 1);
  *out = std::move(trace);
  if (error) error->clear();
  return true;
}

std::string render_witness_artifact(const ts::TransitionSystem& ts,
                                    const std::string& job_name,
                                    const JobProvenance& provenance,
                                    const WitnessTrace& trace, unsigned shrunk) {
  std::ostringstream os;
  os << "{\"sepe_witness\":" << kWitnessVersion;
  os << ",\"name\":";
  json_escape(os, job_name);
  os << ",\"family\":";
  json_escape(os, provenance.family);
  os << ",\"source\":";
  json_escape(os, provenance.source);
  os << ",\"property\":" << provenance.property;
  os << ",\"mode\":";
  json_escape(os, provenance.mode);
  os << ",\"length\":" << trace.length;
  os << ",\"shrunk\":" << shrunk;
  os << ",\"bad\":" << trace.bad_index;
  os << ",\"bad_label\":";
  json_escape(os, trace.bad_label);
  os << ",\"inputs\":" << ts.inputs().size();
  os << ",\"states\":" << (trace.states.empty() ? 0 : trace.states[0].size());
  os << "}\n";
  os << "{\"model\":";
  json_escape(os, to_btor2(ts));
  os << "}\n";
  for (unsigned t = 0; t < trace.inputs.size(); ++t) {
    render_step_row(os, trace, t);
    os << "\n";
  }
  const std::string payload = os.str();
  return payload + "{\"check\":\"" + witness_self_check(payload) + "\"}\n";
}

std::string witness_self_check(const std::string& payload) {
  return hex16(fnv1a(payload.data(), payload.size()));
}

bool check_witness_text(const std::string& text, WitnessHeader* header,
                        std::string* error) {
  const auto fail = [&](std::string what) {
    if (error) *error = std::move(what);
    return false;
  };

  // 1. The trailing self-check seals everything above it. rfind, not
  // find: an escaped model line could legitimately contain the marker.
  static constexpr char kCheck[] = "{\"check\":\"";
  constexpr std::size_t kCheckLen = sizeof kCheck - 1;
  const std::size_t at = text.rfind(kCheck);
  if (at == std::string::npos || at == 0 || text[at - 1] != '\n' ||
      text.size() != at + kCheckLen + 16 + 3 ||
      text.compare(text.size() - 3, 3, "\"}\n") != 0)
    return fail("missing or malformed self-check trailer");
  const std::string recorded = text.substr(at + kCheckLen, 16);
  if (recorded != witness_self_check(text.substr(0, at)))
    return fail("self-check digest mismatch (truncated or edited artifact)");

  // 2. Split the sealed payload into its lines.
  std::vector<std::string> lines;
  for (std::size_t pos = 0; pos < at;) {
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos || nl >= at) return fail("unterminated line");
    lines.push_back(text.substr(pos, nl - pos));
    pos = nl + 1;
  }
  if (lines.size() < 3) return fail("artifact too short (header, model, steps)");

  // 3. Header line — strict positional parse.
  WitnessHeader h;
  std::uint64_t n = 0, input_count = 0, state_count = 0;
  {
    Scanner sc{lines[0]};
    if (!sc.expect("{\"sepe_witness\":")) return fail("not a witness artifact");
    if (!sc.number(&n)) return fail("malformed header");
    if (n != static_cast<std::uint64_t>(kWitnessVersion))
      return fail("unsupported witness format version " + std::to_string(n));
    if (!sc.string_field("name", &h.name) ||
        !sc.string_field("family", &h.family) ||
        !sc.string_field("source", &h.source) || !sc.u64_field("property", &n))
      return fail("malformed header");
    h.property = static_cast<unsigned>(n);
    if (!sc.string_field("mode", &h.mode) || !sc.u64_field("length", &n))
      return fail("malformed header");
    h.length = static_cast<unsigned>(n);
    if (!sc.u64_field("shrunk", &n)) return fail("malformed header");
    h.shrunk = static_cast<unsigned>(n);
    if (!sc.u64_field("bad", &n)) return fail("malformed header");
    h.bad_index = static_cast<std::size_t>(n);
    if (!sc.string_field("bad_label", &h.bad_label) ||
        !sc.u64_field("inputs", &input_count) ||
        !sc.u64_field("states", &state_count) || !sc.expect("}") || !sc.done())
      return fail("malformed header");
  }
  if (h.shrunk > h.length) return fail("recorded shrunk length exceeds the bound");
  if (lines.size() != 2 + static_cast<std::size_t>(h.length) + 1)
    return fail("step count disagrees with the recorded length");

  // 4. Embedded model.
  std::string model_text;
  {
    Scanner sc{lines[1]};
    if (!sc.expect("{\"model\":") || !unescape(lines[1], &sc.pos, &model_text) ||
        !sc.expect("}") || !sc.done())
      return fail("malformed model line");
  }
  smt::TermManager mgr;
  ts::TransitionSystem model(mgr);
  const ts::Btor2ParseResult parsed = parse_btor2(model_text, model);
  if (!parsed.ok) return fail("embedded model: " + parsed.error);
  // The recorded rows may cover a prefix of the parsed declarations (the
  // round-tripped dump appends the writer's at-init flag state), never
  // more than them.
  if (input_count > model.inputs().size())
    return fail("header declares more inputs than the embedded model");
  if (state_count > model.states().size())
    return fail("header declares more states than the embedded model");
  if (h.bad_index >= model.bads().size())
    return fail("header bad index outside the embedded model");

  // 5. Step lines.
  WitnessTrace trace;
  trace.length = h.length;
  trace.bad_index = h.bad_index;
  trace.bad_label = h.bad_label;
  for (unsigned t = 0; t <= h.length; ++t) {
    Scanner sc{lines[2 + t]};
    const std::optional<std::size_t> states =
        t == 0 && state_count > 0 ? std::optional(state_count) : std::nullopt;
    if (!parse_step_row(sc, t, model, input_count, states, &trace) || !sc.done())
      return fail("malformed step line " + std::to_string(t));
  }

  // 6. Replay with the simulator only, then recompute the shrunk length
  // the header claims — an edited stimulus that still falsifies but
  // disagrees with its own metadata is rejected too.
  const WitnessReplay replay = replay_trace(model, trace);
  if (!replay.ok) return fail("replay: " + replay.error);
  if (effective_length(trace) != h.shrunk)
    return fail("recorded shrunk length disagrees with the stimulus");

  if (header) *header = h;
  if (error) error->clear();
  return true;
}

std::string witness_artifact_filename(const std::string& job_name) {
  std::string safe;
  safe.reserve(job_name.size());
  for (char c : job_name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    safe.push_back(ok ? c : '_');
  }
  char digest[9];
  std::snprintf(digest, sizeof digest, "%08llx",
                static_cast<unsigned long long>(
                    fnv1a(job_name.data(), job_name.size()) & 0xffffffffull));
  return safe + "-" + digest + ".witness";
}

void witness_post_pass(const JobSpec& job, const WitnessOptions& options,
                       JobResult* result) {
  if (!options.check || result->verdict != Verdict::Falsified) return;
  const auto demote = [&](const std::string& detail) {
    // The stable note is a fixed string so demoted rows are byte-
    // deterministic wherever the check ran (a solved or a journaled
    // row); the specific divergence goes to stderr.
    result->verdict = Verdict::Unknown;
    result->note = "witness: replay mismatch";
    result->witness.clear();
    result->witness_checked = false;
    result->trace_length_shrunk = 0;
    result->trace.reset();
    result->stimulus.clear();
    std::fprintf(stderr, "sepe: witness: job '%s': %s\n", result->name.c_str(),
                 detail.c_str());
  };

  smt::TermManager mgr;
  ts::TransitionSystem ts(mgr);
  std::string build_error;
  if (!job.build(ts, &build_error))
    return demote("model rebuild failed: " + build_error);

  // The trace comes from the row: run_job's when the job was solved here,
  // the journaled stimulus when it was served from a verdict cache. A
  // cached FALSIFIED row is hearsay until that stimulus replays, so a
  // row with neither, or with a stimulus that does not parse against the
  // rebuilt model, is demoted rather than re-solved.
  WitnessTrace trace;
  if (result->trace) {
    trace = *result->trace;
  } else if (!result->stimulus.empty()) {
    std::string why;
    if (!parse_stimulus(ts, result->stimulus, &trace, &why))
      return demote("journaled stimulus: " + why);
    trace.bad_label = result->bad_label;  // replay checks it against the model
  } else {
    return demote("no counterexample trace to replay");
  }

  if (trace.length != result->trace_length)
    return demote("trace length " + std::to_string(trace.length) +
                  " disagrees with the reported " +
                  std::to_string(result->trace_length));
  if (!trace.bad_label.empty() && !result->bad_label.empty() &&
      trace.bad_label != result->bad_label)
    return demote("trace violates '" + trace.bad_label + "', row claims '" +
                  result->bad_label + "'");
  const WitnessReplay replay = replay_trace(ts, trace);
  if (!replay.ok) return demote(replay.error);

  if (!trace.shrunk) shrink_trace(ts, &trace);
  result->trace_length_shrunk = effective_length(trace);
  result->witness_checked = true;
  result->stimulus.clear();

  if (!options.artifact_dir.empty()) {
    const std::string path =
        options.artifact_dir + "/" + witness_artifact_filename(job.name);
    const std::string text = render_witness_artifact(
        ts, job.name, job.provenance, trace, result->trace_length_shrunk);
    // Fault point "witness.write" (docs/ROBUSTNESS.md): torn/enospc
    // degrade to a missing artifact and a diagnostic — the checked
    // verdict itself is never at stake.
    if (!write_text_file_atomic(path, text, "witness.write"))
      std::fprintf(stderr,
                   "sepe: witness: cannot write artifact '%s'; the verdict is "
                   "unaffected\n",
                   path.c_str());
  }
  // Kept for the verdict journal (shard.cpp), which records it so a warm
  // run replays this exact stimulus instead of re-solving the job.
  result->trace = std::make_shared<const WitnessTrace>(std::move(trace));
}

}  // namespace sepe::engine
