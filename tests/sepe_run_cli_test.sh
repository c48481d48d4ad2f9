#!/usr/bin/env bash
# CLI contract test for sepe-run: malformed arguments are usage errors
# (exit 2, diagnostic on stderr), the shard/merge round trip reproduces
# the unsharded stable JSON byte-for-byte, the BTOR2 corpus workload
# (sepe-run corpus DIR) is deterministic, shardable, and survives
# malformed files as per-job diagnostic rows, interrupted and crashed
# runs resume from the verdict journal (--cache), and the witness pipeline
# (--witness-dir / check-witness) emits self-checking artifacts that
# re-validate without the SAT stack and reject tampering loudly.
#
# Usage: sepe_run_cli_test.sh /path/to/sepe-run [/path/to/tests/corpus]
set -u

SEPE_RUN=${1:?usage: sepe_run_cli_test.sh /path/to/sepe-run [corpus-dir]}
COMMITTED_CORPUS=${2:-}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
FAILURES=0

# expect_usage_error NAME -- ARGS...: the invocation must exit 2 and
# print a diagnostic on stderr.
expect_usage_error() {
  local name=$1
  shift 2
  local stderr_file="$WORK/$name.stderr"
  "$SEPE_RUN" "$@" >/dev/null 2>"$stderr_file"
  local status=$?
  if [ "$status" -ne 2 ]; then
    echo "FAIL: $name: expected exit 2, got $status ($*)"
    FAILURES=$((FAILURES + 1))
  elif [ ! -s "$stderr_file" ]; then
    echo "FAIL: $name: no diagnostic on stderr ($*)"
    FAILURES=$((FAILURES + 1))
  else
    echo "ok: $name"
  fi
}

expect_usage_error threads_zero      -- --threads 0
expect_usage_error threads_garbage   -- --threads abc
expect_usage_error threads_negative  -- --threads -2
expect_usage_error threads_missing   -- --threads
expect_usage_error bound_garbage     -- --bound 6x
expect_usage_error xlen_too_small    -- --xlen 1
expect_usage_error rows_zero         -- --rows 0
expect_usage_error seed_garbage      -- --seed 1.5
expect_usage_error time_cap_negative -- --time-cap -1
expect_usage_error time_cap_nan      -- --time-cap nan
expect_usage_error merge_dash_input  -- merge -
expect_usage_error bad_bug_name      -- --bugs no_such_bug
expect_usage_error duplicate_bug     -- --bugs add_carry_stuck,add_carry_stuck
expect_usage_error bad_mode          -- --modes sideways
expect_usage_error shard_malformed   -- --shard 4of4
expect_usage_error shard_range       -- --shard 4/4
expect_usage_error retired_portfolio -- --portfolio 2
expect_usage_error retired_sharing   -- --share-clauses on
expect_usage_error retired_race      -- --no-race
expect_usage_error checkpoint_retired -- --checkpoint f
expect_usage_error unknown_flag      -- --frobnicate
expect_usage_error merge_no_inputs   -- merge
expect_usage_error corpus_no_dir     -- corpus
expect_usage_error corpus_two_dirs   -- corpus a b
expect_usage_error corpus_bad_flag   -- corpus dir --frobnicate
expect_usage_error corpus_bad_shard  -- corpus dir --shard 9/9
expect_usage_error memory_zero       -- --memory-mb 0
expect_usage_error memory_garbage    -- --memory-mb lots
expect_usage_error memory_missing    -- --memory-mb
expect_usage_error witness_no_files         -- check-witness
expect_usage_error witness_flag_operand     -- check-witness --frobnicate
expect_usage_error witness_contradiction    -- --witness-dir wd --no-witness-check
expect_usage_error witness_print_unchecked  -- --witness --no-witness-check
expect_usage_error retired_backend          -- --backend native
expect_usage_error retired_dispatch         -- dispatch

# --help and --list-bugs succeed.
for flag in --help --list-bugs; do
  if "$SEPE_RUN" "$flag" >/dev/null 2>&1; then
    echo "ok: $flag exits 0"
  else
    echo "FAIL: $flag should exit 0"
    FAILURES=$((FAILURES + 1))
  fi
done

# Shard/merge round trip on a small campaign (EDDI-only: no synthesis
# cost): 3 shards, merged in shuffled order, byte-identical to the
# unsharded --threads 1 reference.
CAMPAIGN=(--bugs table1 --rows 2 --modes eddi --bound 4 --max-k 2 --stable-json)
if ! "$SEPE_RUN" "${CAMPAIGN[@]}" --threads 1 --json "$WORK/reference.json" >/dev/null; then
  echo "FAIL: unsharded reference run"
  FAILURES=$((FAILURES + 1))
fi
for i in 0 1 2; do
  if ! "$SEPE_RUN" "${CAMPAIGN[@]}" --shard "$i/3" --json "$WORK/shard$i.json" >/dev/null; then
    echo "FAIL: shard $i/3 run"
    FAILURES=$((FAILURES + 1))
  fi
done
if ! "$SEPE_RUN" merge --output "$WORK/merged.json" \
    "$WORK/shard2.json" "$WORK/shard0.json" "$WORK/shard1.json" 2>/dev/null; then
  echo "FAIL: merge of complete shard set"
  FAILURES=$((FAILURES + 1))
fi
if cmp -s "$WORK/reference.json" "$WORK/merged.json"; then
  echo "ok: merged stable JSON is byte-identical to the unsharded run"
else
  echo "FAIL: merged JSON differs from the unsharded reference:"
  diff "$WORK/reference.json" "$WORK/merged.json"
  FAILURES=$((FAILURES + 1))
fi

# Merge rejects incomplete and overlapping shard sets with exit 1.
for bad in "shard0.json shard1.json" "shard0.json shard0.json shard1.json"; do
  inputs=()
  for f in $bad; do inputs+=("$WORK/$f"); done
  "$SEPE_RUN" merge "${inputs[@]}" >/dev/null 2>&1
  status=$?
  if [ "$status" -eq 1 ]; then
    echo "ok: merge rejects bad set ($bad)"
  else
    echo "FAIL: merge of ($bad) should exit 1, got $status"
    FAILURES=$((FAILURES + 1))
  fi
done

# Merge refuses a leg of another campaign: the same jobs at another
# --bound (stable JSON carries no bound, so a merged report could not
# show the mix) differ in the shard object's campaign digest.
"$SEPE_RUN" "${CAMPAIGN[@]}" --bound 3 --shard 2/3 --json "$WORK/shard2-bound3.json" \
    >/dev/null
"$SEPE_RUN" merge "$WORK/shard0.json" "$WORK/shard1.json" "$WORK/shard2-bound3.json" \
    >/dev/null 2>"$WORK/merge-mixed.log"
status=$?
if [ "$status" -eq 1 ] && grep -q "different campaigns" "$WORK/merge-mixed.log"; then
  echo "ok: merge rejects shards of different campaigns"
else
  echo "FAIL: merge of shards at different --bound should exit 1, got $status"
  cat "$WORK/merge-mixed.log"
  FAILURES=$((FAILURES + 1))
fi

# --- the verdict journal (--cache) ---

# A rerun against the same --cache directory resumes: it serves every
# job from the journal (saying so on stderr) and the stable JSON is
# byte-identical to the reference.
if ! "$SEPE_RUN" "${CAMPAIGN[@]}" --threads 1 --cache "$WORK/cache-dir" \
    --json "$WORK/cache-cold.json" >/dev/null; then
  echo "FAIL: cold cached run"
  FAILURES=$((FAILURES + 1))
fi
if ! "$SEPE_RUN" "${CAMPAIGN[@]}" --threads 1 --cache "$WORK/cache-dir" \
    --json "$WORK/cache-warm.json" >/dev/null 2>"$WORK/cache-warm.log"; then
  echo "FAIL: warm cached run"
  FAILURES=$((FAILURES + 1))
fi
if ! grep -q "2 of 2 job(s) served from the verdict journal" "$WORK/cache-warm.log"; then
  echo "FAIL: the warm run did not report serving both jobs from the journal:"
  cat "$WORK/cache-warm.log"
  FAILURES=$((FAILURES + 1))
elif cmp -s "$WORK/reference.json" "$WORK/cache-cold.json" \
    && cmp -s "$WORK/reference.json" "$WORK/cache-warm.json"; then
  echo "ok: --cache warm rerun is byte-identical to the uncached reference"
else
  echo "FAIL: cached report differs from the uncached reference"
  diff "$WORK/reference.json" "$WORK/cache-warm.json"
  FAILURES=$((FAILURES + 1))
fi

# A poisoned journal (hand-edited verdict, appended garbage) degrades to
# misses with a diagnostic — the run still completes with a report that
# is byte-identical to the reference, never a wrong verdict.
sed -i '1s/"verdict":"./"verdict":"X/' "$WORK/cache-dir/verdicts.jsonl"
echo 'this is not a journal line' >> "$WORK/cache-dir/verdicts.jsonl"
if ! "$SEPE_RUN" "${CAMPAIGN[@]}" --threads 1 --cache "$WORK/cache-dir" \
    --json "$WORK/cache-poisoned.json" >/dev/null 2>"$WORK/cache-poisoned.log"; then
  echo "FAIL: run against a poisoned cache"
  cat "$WORK/cache-poisoned.log"
  FAILURES=$((FAILURES + 1))
fi
if ! grep -q "verdict cache: ignoring corrupt entry" "$WORK/cache-poisoned.log"; then
  echo "FAIL: no corrupt-entry diagnostic on stderr:"
  cat "$WORK/cache-poisoned.log"
  FAILURES=$((FAILURES + 1))
elif cmp -s "$WORK/reference.json" "$WORK/cache-poisoned.json"; then
  echo "ok: poisoned cache entries are re-solved, diagnostic printed"
else
  echo "FAIL: post-poisoning report differs from the reference:"
  diff "$WORK/reference.json" "$WORK/cache-poisoned.json"
  FAILURES=$((FAILURES + 1))
fi

# An unusable cache directory is a hard error, not a silent no-cache run.
: > "$WORK/cache-blocker"
"$SEPE_RUN" "${CAMPAIGN[@]}" --cache "$WORK/cache-blocker/sub" \
    >/dev/null 2>"$WORK/cache-bad.log"
status=$?
if [ "$status" -ne 0 ] && grep -q "verdict cache" "$WORK/cache-bad.log"; then
  echo "ok: unusable --cache directory is a hard error"
else
  echo "FAIL: unusable --cache dir should fail with a diagnostic, got $status"
  FAILURES=$((FAILURES + 1))
fi

# --- scale-out with plain processes ---

# Two shard legs run at the same time on one journal; one is SIGKILLed
# (worker.job_done:kill@1) right after journaling its first job. Rerunning
# both legs with the same flags completes the campaign: the killed leg
# serves its journaled job, the journal ends with one line per job, and
# the merge is byte-identical to the unsharded reference.
KILL_CAMPAIGN=(--bugs table1 --rows 4 --modes eddi --bound 4 --max-k 2 --stable-json)
KILL_JOURNAL="$WORK/kill-cache/verdicts.jsonl"
if ! "$SEPE_RUN" "${KILL_CAMPAIGN[@]}" --threads 1 --json "$WORK/kill-ref.json" \
    >/dev/null; then
  echo "FAIL: unsharded reference run of the kill drill"
  FAILURES=$((FAILURES + 1))
fi
SEPE_FAULT="point=worker.job_done:kill@1" "$SEPE_RUN" "${KILL_CAMPAIGN[@]}" \
    --threads 1 --shard 0/2 --cache "$WORK/kill-cache" \
    --json "$WORK/kill-leg0.json" >/dev/null 2>&1 &
LEG0_PID=$!
"$SEPE_RUN" "${KILL_CAMPAIGN[@]}" --threads 1 --shard 1/2 --cache "$WORK/kill-cache" \
    --json "$WORK/kill-leg1.json" >/dev/null 2>&1 &
LEG1_PID=$!
{ wait "$LEG0_PID"; } 2>/dev/null  # no "Killed" job notice
LEG0_STATUS=$?
wait "$LEG1_PID"
LEG1_STATUS=$?
if [ "$LEG0_STATUS" -ne 137 ] || [ "$LEG1_STATUS" -ne 0 ]; then
  echo "FAIL: the killed leg should exit 137 and the other 0," \
       "got $LEG0_STATUS and $LEG1_STATUS"
  FAILURES=$((FAILURES + 1))
fi
for i in 0 1; do
  if ! "$SEPE_RUN" "${KILL_CAMPAIGN[@]}" --threads 1 --shard "$i/2" \
      --cache "$WORK/kill-cache" --json "$WORK/kill-rerun$i.json" \
      >/dev/null 2>"$WORK/kill-rerun$i.log"; then
    echo "FAIL: rerun of leg $i/2"
    cat "$WORK/kill-rerun$i.log"
    FAILURES=$((FAILURES + 1))
  fi
done
"$SEPE_RUN" merge --output "$WORK/kill-merged.json" \
    "$WORK/kill-rerun1.json" "$WORK/kill-rerun0.json" 2>/dev/null
KILL_LINES=$(wc -l < "$KILL_JOURNAL" 2>/dev/null || echo 0)
if ! grep -q "1 of 2 job(s) served from the verdict journal" "$WORK/kill-rerun0.log"; then
  echo "FAIL: the killed leg's rerun should serve its journaled job:"
  cat "$WORK/kill-rerun0.log"
  FAILURES=$((FAILURES + 1))
elif [ "$KILL_LINES" -ne 4 ]; then
  echo "FAIL: the shared journal should hold one line per job (4), holds $KILL_LINES"
  FAILURES=$((FAILURES + 1))
elif cmp -s "$WORK/kill-ref.json" "$WORK/kill-merged.json"; then
  echo "ok: a killed shard leg reruns from the shared journal, byte-identical merge"
else
  echo "FAIL: the merge after the kill drill differs from the reference:"
  diff "$WORK/kill-ref.json" "$WORK/kill-merged.json"
  FAILURES=$((FAILURES + 1))
fi

# A malformed fault plan must never take down a production run: the run
# proceeds un-instrumented with a diagnostic on stderr.
if SEPE_FAULT="point=frobnicate" "$SEPE_RUN" "${CAMPAIGN[@]}" --threads 1 \
    --json "$WORK/badplan.json" >/dev/null 2>"$WORK/badplan.log" \
    && grep -q "ignoring malformed SEPE_FAULT" "$WORK/badplan.log" \
    && cmp -s "$WORK/reference.json" "$WORK/badplan.json"; then
  echo "ok: malformed SEPE_FAULT is diagnosed and ignored"
else
  echo "FAIL: malformed SEPE_FAULT should be diagnosed and leave the run intact"
  cat "$WORK/badplan.log"
  FAILURES=$((FAILURES + 1))
fi

# --- crash-only envelope: SIGTERM mid-campaign ---

# One worker thread hangs (interruptibly) after its first journaled job
# while the other may still be solving; SIGTERM must write the partial
# report, exit 143, and leave a journal from which a clean rerun
# reproduces the reference byte-for-byte. The job the stop wound down is
# neither reported nor journaled: the partial report's rows, the journal's
# lines and the count on stderr agree.
TERM_JOURNAL="$WORK/term-cache/verdicts.jsonl"
SEPE_FAULT="point=worker.job_done:hang@1" "$SEPE_RUN" "${CAMPAIGN[@]}" \
    --threads 2 --cache "$WORK/term-cache" \
    --json "$WORK/term-partial.json" >/dev/null 2>"$WORK/term.log" &
RUN_PID=$!
for _ in $(seq 1 200); do
  [ -s "$TERM_JOURNAL" ] && break
  sleep 0.1
done
kill -TERM "$RUN_PID" 2>/dev/null
wait "$RUN_PID"
status=$?
TERM_ROWS=$(grep -c '"name"' "$WORK/term-partial.json" 2>/dev/null)
TERM_LINES=$(wc -l < "$TERM_JOURNAL" 2>/dev/null)
TERM_SAID=$(sed -n 's/.*interrupted[^0-9]*\([0-9]*\) job(s) finished.*/\1/p' "$WORK/term.log")
if [ "$status" -ne 143 ]; then
  echo "FAIL: SIGTERM'd run should exit 143, got $status"
  FAILURES=$((FAILURES + 1))
elif [ ! -s "$TERM_JOURNAL" ] || [ ! -s "$WORK/term-partial.json" ]; then
  echo "FAIL: SIGTERM'd run left no journal/partial report"
  FAILURES=$((FAILURES + 1))
elif [ -z "$TERM_SAID" ] || [ "$TERM_ROWS" != "$TERM_LINES" ] \
    || [ "$TERM_SAID" != "$TERM_LINES" ]; then
  echo "FAIL: partial rows ($TERM_ROWS), journal lines ($TERM_LINES) and the" \
       "stderr count (${TERM_SAID:-none}) should agree:"
  cat "$WORK/term.log"
  FAILURES=$((FAILURES + 1))
else
  echo "ok: SIGTERM writes the partial report and journals exactly its $TERM_ROWS row(s), exits 143"
fi
if "$SEPE_RUN" "${CAMPAIGN[@]}" --threads 2 --cache "$WORK/term-cache" \
    --json "$WORK/term-resumed.json" >/dev/null 2>&1 \
    && cmp -s "$WORK/reference.json" "$WORK/term-resumed.json"; then
  echo "ok: resume after SIGTERM is byte-identical to the uninterrupted run"
else
  echo "FAIL: post-SIGTERM resume differs from the reference:"
  diff "$WORK/reference.json" "$WORK/term-resumed.json"
  FAILURES=$((FAILURES + 1))
fi

# --- per-job memory ceiling ---

# A starved job degrades to a *diagnosed* UNKNOWN row (exit 3), never an
# abort; the diagnosis travels in the stable report.
OOM_RUN=(--bugs table1 --rows 1 --modes eddi --bound 8 --max-k 2
         --memory-mb 1 --stable-json)
"$SEPE_RUN" "${OOM_RUN[@]}" --threads 1 --json "$WORK/oom.json" >/dev/null 2>&1
status=$?
if [ "$status" -eq 3 ] && grep -q '"error": "resource: memory"' "$WORK/oom.json"; then
  echo "ok: --memory-mb starvation degrades to a diagnosed UNKNOWN row"
else
  echo "FAIL: --memory-mb run should exit 3 with a 'resource: memory' row, got $status"
  cat "$WORK/oom.json" 2>/dev/null
  FAILURES=$((FAILURES + 1))
fi

# At a width without a compiled-in table (every width but 4), a QED run
# synthesizes the pinned equivalence table with the SAT solver before any
# job. When that synthesis fails (here every solver runs out of memory)
# the run exits 1 and names the equivalence and width, never a crash.
SEPE_FAULT="point=solver.alloc:oom" "$SEPE_RUN" --xlen 8 --bugs table1 --rows 1 \
  --bound 2 --max-k 0 --threads 1 >/dev/null 2>"$WORK/table-oom.stderr"
status=$?
if [ "$status" -eq 1 ] \
    && grep -q "pinned equivalence for ADD failed to synthesize at xlen 8" \
      "$WORK/table-oom.stderr"; then
  echo "ok: a pinned table that fails to synthesize exits 1 with a diagnostic"
else
  echo "FAIL: pinned-table synthesis under OOM should exit 1 naming ADD at xlen 8, got $status"
  cat "$WORK/table-oom.stderr"
  FAILURES=$((FAILURES + 1))
fi

# At xlen 4 the table is compiled in and loads without a solver, so a warm
# QED run starts none: under the same fault it serves every job from the
# journal and prints the cold run's stable JSON.
OOM_WARM=(--bugs table1 --rows 2 --modes edsep --bound 6 --max-k 0 --threads 1
          --cache "$WORK/oom-warm-cache" --stable-json)
"$SEPE_RUN" "${OOM_WARM[@]}" --json "$WORK/oom-cold.json" >/dev/null 2>&1
SEPE_FAULT="point=solver.alloc:oom" "$SEPE_RUN" "${OOM_WARM[@]}" \
  --json "$WORK/oom-warm.json" >/dev/null 2>"$WORK/oom-warm.stderr"
status=$?
if [ "$status" -eq 0 ] && [ -s "$WORK/oom-cold.json" ] \
    && cmp -s "$WORK/oom-cold.json" "$WORK/oom-warm.json"; then
  echo "ok: a warm QED run starts no solver"
else
  echo "FAIL: a warm QED run under solver OOM should exit 0 with the cold JSON, got $status"
  cat "$WORK/oom-warm.stderr"
  diff "$WORK/oom-cold.json" "$WORK/oom-warm.json"
  FAILURES=$((FAILURES + 1))
fi

# --witness prints the same tables warm as cold: a served row's table is
# rendered from the trace the post-pass replayed from the journal, the
# shrunk one the cold run checked.
WITNESS_RUN=(--bugs table1 --rows 2 --modes edsep --bound 6 --max-k 0 --threads 1
             --cache "$WORK/witness-cache" --witness)
"$SEPE_RUN" "${WITNESS_RUN[@]}" 2>/dev/null | sed -n '/^\[/,$p' >"$WORK/witness-cold.txt"
"$SEPE_RUN" "${WITNESS_RUN[@]}" 2>/dev/null | sed -n '/^\[/,$p' >"$WORK/witness-warm.txt"
if [ "$(grep -c '^\[' "$WORK/witness-cold.txt")" -eq 2 ] \
    && cmp -s "$WORK/witness-cold.txt" "$WORK/witness-warm.txt"; then
  echo "ok: a warm --witness run prints the cold run's tables"
else
  echo "FAIL: --witness should print 2 tables cold and the same tables warm"
  diff "$WORK/witness-cold.txt" "$WORK/witness-warm.txt"
  FAILURES=$((FAILURES + 1))
fi

# --- BTOR2 corpus workload ---

# A nonexistent corpus directory is an I/O failure (exit 1).
"$SEPE_RUN" corpus "$WORK/no-such-dir" >/dev/null 2>&1
if [ $? -eq 1 ]; then
  echo "ok: corpus rejects a missing directory with exit 1"
else
  echo "FAIL: corpus of a missing directory should exit 1"
  FAILURES=$((FAILURES + 1))
fi

# Temp corpus: a single-property file, a multi-property file (fans out)
# and a malformed file (must become an UNKNOWN row, not an abort).
CORPUS="$WORK/corpus"
mkdir -p "$CORPUS"
cat > "$CORPUS/counter.btor2" <<'EOF'
1 sort bitvec 4
2 sort bitvec 1
10 state 1 cnt
11 constd 1 0
12 init 1 10 11
13 constd 1 1
14 add 1 10 13
15 next 1 10 14
16 constd 1 5
17 eq 2 10 16
18 bad 17 ; cnt-five
EOF
cat > "$CORPUS/multi.btor2" <<'EOF'
1 sort bitvec 4
2 sort bitvec 1
10 state 1 cnt
11 constd 1 0
12 init 1 10 11
13 constd 1 1
14 add 1 10 13
15 next 1 10 14
16 constd 1 3
17 eq 2 10 16
18 bad 17 ; cnt-three
20 state 2 frozen
21 zero 2
22 init 2 20 21
23 next 2 20 20
24 one 2
25 eq 2 20 24
26 bad 25 ; frozen-one
EOF
cat > "$CORPUS/broken.btor2" <<'EOF'
1 sort bitvec 4
10 state 1 s
11 frobnicate 1 10
EOF

CORPUS_RUN=(corpus "$CORPUS" --bound 8 --max-k 3 --stable-json)
"$SEPE_RUN" "${CORPUS_RUN[@]}" --threads 1 --json "$WORK/corpus-ref.json" >/dev/null
status=$?
if [ "$status" -eq 3 ]; then
  echo "ok: corpus campaign with a malformed file exits 3 (UNKNOWN rows)"
else
  echo "FAIL: corpus campaign should exit 3, got $status"
  FAILURES=$((FAILURES + 1))
fi
if grep -q '"workload": "btor2"' "$WORK/corpus-ref.json" \
    && grep -q '"name": "multi.btor2:b1"' "$WORK/corpus-ref.json" \
    && grep -q '"error": "line 3' "$WORK/corpus-ref.json"; then
  echo "ok: corpus report carries workload provenance, fan-out, and the parse error"
else
  echo "FAIL: corpus stable JSON is missing expected rows:"
  cat "$WORK/corpus-ref.json"
  FAILURES=$((FAILURES + 1))
fi

# Byte-determinism across thread counts.
"$SEPE_RUN" "${CORPUS_RUN[@]}" --threads 4 --json "$WORK/corpus-t4.json" >/dev/null
if cmp -s "$WORK/corpus-ref.json" "$WORK/corpus-t4.json"; then
  echo "ok: corpus stable JSON is byte-identical across thread counts"
else
  echo "FAIL: corpus report differs across thread counts"
  FAILURES=$((FAILURES + 1))
fi

# Shard/merge round trip on the corpus campaign.
for i in 0 1; do
  "$SEPE_RUN" "${CORPUS_RUN[@]}" --shard "$i/2" \
    --json "$WORK/corpus-shard$i.json" >/dev/null
done
if "$SEPE_RUN" merge --output "$WORK/corpus-merged.json" \
    "$WORK/corpus-shard1.json" "$WORK/corpus-shard0.json" 2>/dev/null; then
  : # merge exits 3 on UNKNOWN rows, caught below via the byte diff
fi
if cmp -s "$WORK/corpus-ref.json" "$WORK/corpus-merged.json"; then
  echo "ok: merged corpus shards are byte-identical to the unsharded run"
else
  echo "FAIL: merged corpus report differs from the unsharded reference:"
  diff "$WORK/corpus-ref.json" "$WORK/corpus-merged.json"
  FAILURES=$((FAILURES + 1))
fi

# Editing a corpus file changes its content digest, which is part of the
# journal key: on resume that file's job misses and is re-solved (the
# violation moves from 5 to 4), while the other three jobs are served.
"$SEPE_RUN" "${CORPUS_RUN[@]}" --cache "$WORK/corpus-journal" >/dev/null 2>&1
sed -i 's/constd 1 5/constd 1 4/' "$CORPUS/counter.btor2"
"$SEPE_RUN" "${CORPUS_RUN[@]}" --cache "$WORK/corpus-journal" \
    --json "$WORK/corpus-edited.json" >/dev/null 2>"$WORK/corpus-edited.stderr"
status=$?
if [ "$status" -eq 3 ] \
    && grep -q "3 of 4 job(s) served from the verdict journal" "$WORK/corpus-edited.stderr" \
    && grep '"source": "counter.btor2"' "$WORK/corpus-edited.json" \
      | grep -q '"trace_length": 4'; then
  echo "ok: an edited corpus file misses the journal and is re-solved"
else
  echo "FAIL: edited-corpus resume should re-solve counter.btor2 to length 4, got $status"
  cat "$WORK/corpus-edited.stderr" "$WORK/corpus-edited.json"
  FAILURES=$((FAILURES + 1))
fi

# --- witness artifacts ---

# A fresh two-file corpus with known-falsifiable properties (the earlier
# one was edited by the journal-invalidation drill).
WITCORPUS="$WORK/witcorpus"
mkdir -p "$WITCORPUS"
sed 's/constd 1 4/constd 1 5/' "$CORPUS/counter.btor2" > "$WITCORPUS/counter.btor2"
cp "$CORPUS/multi.btor2" "$WITCORPUS/multi.btor2"
WITRUN=(corpus "$WITCORPUS" --bound 8 --max-k 3 --stable-json)

# A campaign with --witness-dir writes one artifact per FALSIFIED row
# (counter.btor2 and multi.btor2:b0 falsify; b1 holds) and the stable
# JSON is byte-identical with witness checking on (the default), off
# (--no-witness-check), and with artifact emission enabled.
if ! "$SEPE_RUN" "${WITRUN[@]}" --threads 1 --witness-dir "$WORK/witnesses" \
    --json "$WORK/wit-on.json" >/dev/null; then
  echo "FAIL: corpus campaign with --witness-dir"
  FAILURES=$((FAILURES + 1))
fi
if ! "$SEPE_RUN" "${WITRUN[@]}" --threads 1 --no-witness-check \
    --json "$WORK/wit-off.json" >/dev/null; then
  echo "FAIL: corpus campaign with --no-witness-check"
  FAILURES=$((FAILURES + 1))
fi
if cmp -s "$WORK/wit-on.json" "$WORK/wit-off.json"; then
  echo "ok: witness checking is observationally invisible in the stable JSON"
else
  echo "FAIL: stable JSON differs with witness checking on vs off:"
  diff "$WORK/wit-on.json" "$WORK/wit-off.json"
  FAILURES=$((FAILURES + 1))
fi
ARTIFACTS=("$WORK"/witnesses/*.witness)
if [ ${#ARTIFACTS[@]} -eq 2 ] && [ -s "${ARTIFACTS[0]}" ]; then
  echo "ok: one artifact per FALSIFIED row (${#ARTIFACTS[@]} total)"
else
  echo "FAIL: expected 2 witness artifacts, found: ${ARTIFACTS[*]}"
  FAILURES=$((FAILURES + 1))
fi

# check-witness re-validates every artifact with the simulator only.
if "$SEPE_RUN" check-witness "${ARTIFACTS[@]}" > "$WORK/check.out" 2>&1 \
    && grep -q "valid witness" "$WORK/check.out"; then
  echo "ok: check-witness validates the emitted artifacts"
else
  echo "FAIL: check-witness should accept freshly emitted artifacts:"
  cat "$WORK/check.out"
  FAILURES=$((FAILURES + 1))
fi

# A tampered artifact (header edit breaks the self-check seal) and a
# missing file are rejections: exit 1 with a REJECTED diagnostic, never
# silent.
cp "${ARTIFACTS[0]}" "$WORK/tampered.witness"
sed -i '1s/"name":"/"name":"x/' "$WORK/tampered.witness"
"$SEPE_RUN" check-witness "$WORK/tampered.witness" "${ARTIFACTS[1]}" \
    >/dev/null 2>"$WORK/tamper.log"
status=$?
if [ "$status" -eq 1 ] && grep -q "REJECTED" "$WORK/tamper.log"; then
  echo "ok: a tampered artifact is rejected loudly (exit 1)"
else
  echo "FAIL: tampered artifact should exit 1 with REJECTED, got $status:"
  cat "$WORK/tamper.log"
  FAILURES=$((FAILURES + 1))
fi
"$SEPE_RUN" check-witness "$WORK/no-such.witness" >/dev/null 2>&1
if [ $? -eq 1 ]; then
  echo "ok: check-witness of a missing file exits 1"
else
  echo "FAIL: check-witness of a missing file should exit 1"
  FAILURES=$((FAILURES + 1))
fi

# Artifact-write faults degrade to a diagnostic: the run completes, the
# verdicts and stable JSON are untouched, only the artifact is missing.
if SEPE_FAULT="point=witness.write:enospc" "$SEPE_RUN" "${WITRUN[@]}" \
    --threads 1 --witness-dir "$WORK/witnesses-enospc" \
    --json "$WORK/wit-enospc.json" >/dev/null 2>"$WORK/wit-enospc.log" \
    && grep -q "cannot write artifact" "$WORK/wit-enospc.log" \
    && cmp -s "$WORK/wit-on.json" "$WORK/wit-enospc.json" \
    && [ -z "$(ls "$WORK/witnesses-enospc" 2>/dev/null)" ]; then
  echo "ok: witness.write fault degrades to a diagnostic, verdicts unaffected"
else
  echo "FAIL: witness.write fault should leave the run intact minus artifacts:"
  cat "$WORK/wit-enospc.log"
  FAILURES=$((FAILURES + 1))
fi

# Shard legs sharing one --witness-dir write one artifact per FALSIFIED
# row between them; check-witness accepts every one, and the merge stays
# byte-identical.
for i in 0 1; do
  "$SEPE_RUN" "${WITRUN[@]}" --shard "$i/2" --witness-dir "$WORK/wit-shards" \
      --json "$WORK/wit-shard$i.json" >/dev/null 2>&1
done
"$SEPE_RUN" merge --output "$WORK/wit-merged.json" \
    "$WORK/wit-shard0.json" "$WORK/wit-shard1.json" 2>/dev/null
SHARD_ARTIFACTS=("$WORK"/wit-shards/*.witness)
if [ ${#SHARD_ARTIFACTS[@]} -eq 2 ] && cmp -s "$WORK/wit-on.json" "$WORK/wit-merged.json" \
    && "$SEPE_RUN" check-witness "${SHARD_ARTIFACTS[@]}" >/dev/null 2>&1; then
  echo "ok: sharded witness artifacts check and merge byte-identically"
else
  echo "FAIL: sharded witness run differs from the unsharded reference:"
  diff "$WORK/wit-on.json" "$WORK/wit-merged.json"
  FAILURES=$((FAILURES + 1))
fi

# The committed mini-corpus (QED dumps included) must expand and stay
# deterministic too; a shallow bound keeps this Debug-build friendly.
if [ -n "$COMMITTED_CORPUS" ] && [ -d "$COMMITTED_CORPUS" ]; then
  MINI=(corpus "$COMMITTED_CORPUS" --bound 2 --max-k 1 --stable-json)
  "$SEPE_RUN" "${MINI[@]}" --threads 1 --json "$WORK/mini-ref.json" >/dev/null \
    || { echo "FAIL: committed mini-corpus run"; FAILURES=$((FAILURES + 1)); }
  "$SEPE_RUN" "${MINI[@]}" --threads 2 --json "$WORK/mini-t2.json" >/dev/null \
    || { echo "FAIL: committed mini-corpus threaded run"; FAILURES=$((FAILURES + 1)); }
  if cmp -s "$WORK/mini-ref.json" "$WORK/mini-t2.json" \
      && grep -q '"source": "qed_edsep_xor_as_or.btor2"' "$WORK/mini-ref.json"; then
    echo "ok: committed mini-corpus is deterministic and includes the QED dumps"
  else
    echo "FAIL: committed mini-corpus report is wrong:"
    cat "$WORK/mini-ref.json"
    FAILURES=$((FAILURES + 1))
  fi
fi

# --- the on-disk bytes (tests/golden) ---

# A journal and an artifact written by the journal-v7 / witness-v1
# binary. A copy of the journal must serve every committed-corpus job
# (keys, content digests and seals unchanged) with the cold run's stable
# JSON, and append nothing; the artifact must still check.
GOLDEN=${COMMITTED_CORPUS:+$(dirname "$COMMITTED_CORPUS")/golden}
if [ -n "$GOLDEN" ] && [ -d "$GOLDEN" ]; then
  GOLDEN_RUN=(corpus "$COMMITTED_CORPUS" --bound 6 --max-k 2 --threads 2 --stable-json)
  mkdir -p "$WORK/golden-cache"
  cp "$GOLDEN/corpus_verdicts.jsonl" "$WORK/golden-cache/verdicts.jsonl"
  "$SEPE_RUN" "${GOLDEN_RUN[@]}" --json "$WORK/golden-cold.json" >/dev/null 2>&1
  "$SEPE_RUN" "${GOLDEN_RUN[@]}" --cache "$WORK/golden-cache" \
      --json "$WORK/golden-warm.json" >/dev/null 2>"$WORK/golden-warm.log"
  if grep -q "7 of 7 job(s) served from the verdict journal" "$WORK/golden-warm.log" \
      && cmp -s "$WORK/golden-cold.json" "$WORK/golden-warm.json" \
      && cmp -s "$GOLDEN/corpus_verdicts.jsonl" "$WORK/golden-cache/verdicts.jsonl"; then
    echo "ok: the committed journal serves every corpus job with the cold bytes"
  else
    echo "FAIL: the committed journal no longer serves the corpus campaign:"
    cat "$WORK/golden-warm.log"
    diff "$WORK/golden-cold.json" "$WORK/golden-warm.json"
    FAILURES=$((FAILURES + 1))
  fi
  if "$SEPE_RUN" check-witness "$GOLDEN/counter_sat.witness" \
      >"$WORK/golden-check.out" 2>&1; then
    echo "ok: the committed witness artifact checks"
  else
    echo "FAIL: check-witness rejects the committed artifact:"
    cat "$WORK/golden-check.out"
    FAILURES=$((FAILURES + 1))
  fi
fi

if [ "$FAILURES" -ne 0 ]; then
  echo "$FAILURES CLI check(s) failed"
  exit 1
fi
echo "all CLI checks passed"
