#include "engine/witness.hpp"

#include <cstdio>
#include <optional>
#include <sstream>

#include "engine/report_io.hpp"
#include "sim/ts_sim.hpp"
#include "smt/eval.hpp"
#include "ts/btor2_parser.hpp"
#include "util/digest.hpp"
#include "util/json.hpp"

namespace sepe::engine {

namespace {

/// Artifact format version: bump whenever the line layout changes, so
/// files written by an older binary are refused instead of misread.
constexpr int kWitnessVersion = 1;

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

/// Inverse of render_step_row for one parsed row: step `t` with exactly
/// `inputs` input values and, when `states` is set, a state row of
/// exactly that many values, each read against `model`'s declared width.
/// Appends to *trace.
bool read_step_row(const JsonValue& row, unsigned t, const ts::TransitionSystem& model,
                   std::size_t inputs, std::optional<std::size_t> states,
                   WitnessTrace* trace) {
  const auto values = [&](const char* key, const std::vector<smt::TermRef>& vars,
                          std::size_t n, std::vector<std::vector<BitVec>>* rows) {
    const JsonValue* list = row.find(key);
    if (!list || list->kind != JsonValue::Kind::Array || list->items.size() != n)
      return false;
    rows->emplace_back();
    for (std::size_t i = 0; i < n; ++i) {
      BitVec v;
      if (list->items[i].kind != JsonValue::Kind::String ||
          !parse_hex_value(list->items[i].text, model.mgr().width(vars[i]), &v))
        return false;
      rows->back().push_back(v);
    }
    return true;
  };
  unsigned step = 0;
  return read_uint(row, "step", &step) && step == t &&
         values("in", model.inputs(), inputs, &trace->inputs) &&
         (!states || values("st", model.states(), *states, &trace->states));
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
  const auto fail = [](std::string what) {
    return WitnessReplay{false, std::move(what)};
  };
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
  JsonValue root;
  std::string why;
  if (!parse_json(text, &root, &why)) return fail("malformed stimulus: " + why);
  WitnessTrace trace;
  std::string form;
  if (!read_string(root, "form", &form) || (form != "shrunk" && form != "raw"))
    return fail("malformed stimulus marker");
  trace.shrunk = form == "shrunk";
  const JsonValue* steps = root.find("steps");
  if (!read_uint(root, "bad", &trace.bad_index) || !steps ||
      steps->kind != JsonValue::Kind::Array || steps->items.empty())
    return fail("malformed stimulus header");
  // A shrunk trace records the step-0 state row only, a raw one every row.
  for (unsigned t = 0; t < steps->items.size(); ++t) {
    std::optional<std::size_t> states;
    if (t == 0 || !trace.shrunk) states = ts.states().size();
    if (!read_step_row(steps->items[t], t, ts, ts.inputs().size(), states, &trace))
      return fail("malformed stimulus step " + std::to_string(t));
  }
  trace.length = static_cast<unsigned>(trace.inputs.size() - 1);
  if (render_stimulus(trace) != text)
    return fail("stimulus is not in the exact form render_stimulus writes");
  *out = std::move(trace);
  if (error) error->clear();
  return true;
}

std::string render_witness_artifact(const WitnessArtifact& artifact) {
  const WitnessHeader& h = artifact.header;
  const WitnessTrace& trace = artifact.trace;
  std::ostringstream os;
  os << "{\"sepe_witness\":" << kWitnessVersion;
  os << ",\"name\":";
  json_escape(os, h.name);
  os << ",\"family\":";
  json_escape(os, h.family);
  os << ",\"source\":";
  json_escape(os, h.source);
  os << ",\"property\":" << h.property;
  os << ",\"mode\":";
  json_escape(os, h.mode);
  os << ",\"length\":" << h.length;
  os << ",\"shrunk\":" << h.shrunk;
  os << ",\"bad\":" << h.bad_index;
  os << ",\"bad_label\":";
  json_escape(os, h.bad_label);
  os << ",\"inputs\":" << (trace.inputs.empty() ? 0 : trace.inputs[0].size());
  os << ",\"states\":" << (trace.states.empty() ? 0 : trace.states[0].size());
  os << "}\n";
  os << "{\"model\":";
  json_escape(os, artifact.model);
  os << "}\n";
  for (unsigned t = 0; t < trace.inputs.size(); ++t) {
    render_step_row(os, trace, t);
    os << "\n";
  }
  const std::string payload = os.str();
  return payload + "{\"check\":\"" + witness_self_check(payload) + "\"}\n";
}

std::string render_witness_artifact(const ts::TransitionSystem& ts,
                                    const std::string& job_name,
                                    const JobProvenance& provenance,
                                    const WitnessTrace& trace, unsigned shrunk) {
  const WitnessHeader header{job_name, provenance.family, provenance.source,
                             provenance.property, provenance.mode, trace.length, shrunk,
                             trace.bad_index, trace.bad_label};
  return render_witness_artifact(WitnessArtifact{header, to_btor2(ts), trace});
}

std::string witness_self_check(const std::string& payload) {
  return hex16(fnv1a(payload));
}

bool check_witness_text(const std::string& text, WitnessArtifact* artifact,
                        std::string* error) {
  const auto fail = [&](std::string what) {
    if (error) *error = std::move(what);
    return false;
  };

  // 1. The last line, {"check":"<16 hex>"}, seals everything above it.
  constexpr std::size_t kTrailer = 29;
  const std::size_t at = text.size() > kTrailer ? text.size() - kTrailer : 0;
  const std::string seal = witness_self_check(text.substr(0, at));
  if (at == 0 || text[at - 1] != '\n' ||
      text.compare(at, kTrailer, "{\"check\":\"" + seal + "\"}\n") != 0)
    return fail("missing or stale self-check trailer (truncated or edited artifact)");

  // 2. Split the sealed payload into its lines, each one JSON value.
  std::vector<JsonValue> lines;
  for (std::size_t pos = 0; pos < at;) {
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos || nl >= at) return fail("unterminated line");
    lines.emplace_back();
    if (!parse_json(std::string_view(text).substr(pos, nl - pos), &lines.back(), nullptr))
      lines.back() = JsonValue{};  // a null: every read below refuses it
    pos = nl + 1;
  }
  if (lines.size() < 3) return fail("artifact too short (header, model, steps)");

  // 3. Header line.
  WitnessArtifact a;
  WitnessHeader& h = a.header;
  std::uint64_t version = 0;
  std::size_t input_count = 0, state_count = 0;
  if (!read_uint(lines[0], "sepe_witness", &version))
    return fail("not a witness artifact");
  if (version != static_cast<std::uint64_t>(kWitnessVersion))
    return fail("unsupported witness format version " + std::to_string(version));
  if (!read_string(lines[0], "name", &h.name) ||
      !read_string(lines[0], "family", &h.family) ||
      !read_string(lines[0], "source", &h.source) ||
      !read_uint(lines[0], "property", &h.property) ||
      !read_string(lines[0], "mode", &h.mode) ||
      !read_uint(lines[0], "length", &h.length) ||
      !read_uint(lines[0], "shrunk", &h.shrunk) ||
      !read_uint(lines[0], "bad", &h.bad_index) ||
      !read_string(lines[0], "bad_label", &h.bad_label) ||
      !read_uint(lines[0], "inputs", &input_count) ||
      !read_uint(lines[0], "states", &state_count))
    return fail("malformed header");
  if (h.shrunk > h.length) return fail("recorded shrunk length exceeds the bound");
  if (lines.size() != 2 + static_cast<std::size_t>(h.length) + 1)
    return fail("step count disagrees with the recorded length");

  // 4. Embedded model.
  if (!read_string(lines[1], "model", &a.model)) return fail("malformed model line");
  smt::TermManager mgr;
  ts::TransitionSystem model(mgr);
  const ts::Btor2ParseResult parsed = parse_btor2(a.model, model);
  if (!parsed.ok) return fail("embedded model: " + parsed.error);
  // The recorded rows may cover a prefix of the parsed declarations (the
  // round-tripped dump appends the writer's at-init flag state), never
  // more than them.
  if (input_count > model.inputs().size())
    return fail("header declares more inputs than the embedded model");
  if (state_count > model.states().size())
    return fail("header declares more states than the embedded model");

  // 5. Step lines; step 0 records the state row when the trace has one.
  WitnessTrace& trace = a.trace;
  trace.length = h.length;
  trace.bad_index = h.bad_index;
  trace.bad_label = h.bad_label;
  for (unsigned t = 0; t <= h.length; ++t) {
    const JsonValue& row = lines[2 + t];
    std::optional<std::size_t> states;
    if (t == 0 && row.find("st")) states = state_count;
    if (!read_step_row(row, t, model, input_count, states, &trace))
      return fail("malformed step line " + std::to_string(t));
  }

  // 6. Only the writer's exact bytes: what was read must render back to
  // the text, seal included, so a re-sealed edit that reorders, respaces
  // or re-escapes anything is refused.
  if (render_witness_artifact(a) != text)
    return fail("not the exact bytes the artifact writer renders");

  // 7. Replay with the simulator only, then recompute the shrunk length
  // the header claims — an edited stimulus that still falsifies but
  // disagrees with its own metadata is rejected too.
  const WitnessReplay replay = replay_trace(model, trace);
  if (!replay.ok) return fail("replay: " + replay.error);
  if (effective_length(trace) != h.shrunk)
    return fail("recorded shrunk length disagrees with the stimulus");

  if (artifact) *artifact = std::move(a);
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
  // The digest's low 32 bits: its last 8 hex digits.
  return safe + "-" + hex16(fnv1a(job_name)).substr(8) + ".witness";
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

std::string witness_table(const JobSpec& job, const JobResult& result) {
  if (result.verdict != Verdict::Falsified || !result.trace) return "";
  smt::TermManager mgr;
  ts::TransitionSystem ts(mgr);
  std::string build_error;
  if (!job.build(ts, &build_error)) return "";
  const WitnessTrace& trace = *result.trace;
  std::ostringstream os;
  os << "counterexample of length " << trace.length;
  if (!trace.bad_label.empty()) os << " violating [" << trace.bad_label << "]";
  os << "\n";
  const auto rows = [&](const char* tag, const std::vector<smt::TermRef>& vars,
                        const std::vector<std::vector<BitVec>>& values, unsigned t) {
    if (t >= values.size()) return;
    for (std::size_t i = 0; i < values[t].size() && i < vars.size(); ++i)
      os << "    " << tag << "  " << ts.mgr().node(vars[i]).name << " = "
         << values[t][i].to_hex() << "\n";
  };
  for (unsigned t = 0; t <= trace.length; ++t) {
    os << "  step " << t << ":\n";
    rows("in", ts.inputs(), trace.inputs, t);
    rows("st", ts.states(), trace.states, t);
  }
  return os.str();
}

}  // namespace sepe::engine
