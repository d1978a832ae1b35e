#!/usr/bin/env bash
# Offline CI gate: build, test, format, lint.
#
#   scripts/ci.sh              # everything (what a PR must pass)
#   scripts/ci.sh --quick      # skip the release build, run debug tests only
#   scripts/ci.sh bench-smoke  # only the benchmark/ package gate
#   scripts/ci.sh events-smoke # only the qlog export + forensic replay gate
#   scripts/ci.sh scenario-smoke
#                              # only the post-2021 scenario-tier gate
#   scripts/ci.sh experiments-smoke
#                              # only the paper-artifact runner gate
#   scripts/ci.sh paper-smoke  # only the paper-scale reproduction gate:
#                              # EXPERIMENTS.md and figures/ regenerate
#                              # byte for byte (~75 s, release)
#   scripts/ci.sh rss-smoke [quicsand-binary]
#                              # only the analyze + live peak-RSS gate (on
#                              # another build's binary when one is named)
#   scripts/ci.sh table-model  # only the session-table model tests, at
#                              # 1024 cases each
#
# The repo vendors all third-party dependencies (vendor/), so this runs
# without network access.
set -euo pipefail
cd "$(dirname "$0")/.."

bench_smoke() {
  # benchmark/ is a standalone package outside the workspace, so the
  # --workspace lanes never see it: format, lint and test it here. The
  # test is the selftest over `run --quick` — correctness checks on
  # every workload, no timing threshold.
  echo "==> bench-smoke: benchmark/ fmt, clippy, selftest"
  cargo fmt --check --manifest-path benchmark/Cargo.toml
  cargo clippy --offline --manifest-path benchmark/Cargo.toml -- -D warnings
  cargo test --release --offline --manifest-path benchmark/Cargo.toml
  echo "bench-smoke: benchmark/ formatted, lint-clean, selftest green — OK"
}

events_smoke() {
  # Typed-event export gate: one live run on a reference trace emits the
  # qlog event stream, exports every closed alert as a forensic slice and
  # replays each through a fresh detector (--replay hard-fails on any
  # verdict divergence); then the RFC 7464 JSON-SEQ framing of the
  # stream and of one slice is validated. The benchmark gates the
  # complementary claim: `live_rps` times the no-subscriber path and
  # `events.qlog.overhead_share` the export, so event emission costs
  # nothing when nobody listens.
  echo "==> events-smoke: qlog export + forensic replay gate"
  local events_dir profile
  profile="${profile_flag---release}"
  events_dir="$(mktemp -d)"
  # shellcheck disable=SC2064
  trap "rm -rf '$events_dir'" RETURN
  cargo run -q $profile -- generate --out "$events_dir/ref.qscp" --scale test --seed 7
  events_out="$(cargo run -q $profile -- live "$events_dir/ref.qscp" \
    --shards 2 --events-out "$events_dir/ref.qlog" \
    --forensics-out "$events_dir/slices" --replay 2>&1)"
  echo "$events_out" | grep -qE '^events: [1-9][0-9]* event\(s\)' || {
    echo "events-smoke: live --events-out reported no events" >&2
    echo "$events_out" | tail -5 >&2
    exit 1
  }
  cargo run -q $profile -- forensics check "$events_dir/ref.qlog" \
    | grep -q 'valid qlog JSON-SEQ' || {
    echo "events-smoke: exported qlog failed framing validation" >&2
    exit 1
  }
  # The slice lines of the same run.
  forensics_out="$events_out"
  echo "$forensics_out" | grep -qE '^forensics: [1-9][0-9]* alert slice\(s\) exported' || {
    echo "events-smoke: no alert slices exported" >&2
    echo "$forensics_out" | tail -5 >&2
    exit 1
  }
  echo "$forensics_out" | grep -qE '[1-9][0-9]* replay\(s\) verified' || {
    echo "events-smoke: replays did not verify" >&2
    echo "$forensics_out" | tail -5 >&2
    exit 1
  }
  # One slice is itself a valid JSON-SEQ document.
  first_slice="$(find "$events_dir/slices" -name 'alert-*.qlog' | sort | head -1)"
  cargo run -q $profile -- forensics check "$first_slice" >/dev/null
  # The same slices from an engine that continued from its own restored
  # checkpoints (4 on this capture of ~440 k records): a restored
  # detector rebuilds every closed flood and its per-victim index.
  restored_out="$(cargo run -q $profile -- live "$events_dir/ref.qscp" \
    --shards 2 --checkpoint-every 100000 \
    --forensics-out "$events_dir/slices-restored" 2>&1)"
  checkpoints="$(echo "$restored_out" | sed -nE 's/.* ([0-9]+) checkpoint\(s\) verified$/\1/p')"
  if [[ "${checkpoints:-0}" -lt 2 ]]; then
    echo "events-smoke: the checkpointed leg took ${checkpoints:-no} checkpoint(s), want at least 2" >&2
    echo "$restored_out" | tail -5 >&2
    exit 1
  fi
  diff -r "$events_dir/slices" "$events_dir/slices-restored" || {
    echo "events-smoke: slices differ after $checkpoints checkpoint/restore cycle(s)" >&2
    exit 1
  }
  # The batch event re-pass on the same capture: one thread and two
  # write the same bytes, and the stream is framing-valid qlog.
  for threads in 1 2; do
    cargo run -q $profile -- analyze "$events_dir/ref.qscp" --threads "$threads" \
      --events-out "$events_dir/analyze-$threads.qlog" >/dev/null
  done
  cmp "$events_dir/analyze-1.qlog" "$events_dir/analyze-2.qlog" || {
    echo "events-smoke: analyze --events-out differs between --threads 1 and 2" >&2
    exit 1
  }
  cargo run -q $profile -- forensics check "$events_dir/analyze-2.qlog" \
    | grep -q 'valid qlog JSON-SEQ' || {
    echo "events-smoke: analyze --events-out failed framing validation" >&2
    exit 1
  }
  echo "events-smoke: qlog framing valid, every closed alert replayed, slices checkpoint-invariant, analyze events thread-invariant — OK"
}

scenario_smoke() {
  # Post-2021 scenario-tier gate: every ScenarioKind must generate,
  # analyze, stream shard-invariantly through the live engine, and
  # export a framing-valid qlog event stream — the CLI face of the
  # conformance suite in tests/scenarios.rs (which pins the goldens
  # and the full {1,2,8}-shard alert equivalence).
  echo "==> scenario-smoke: post-2021 scenario tier end-to-end gate"
  local scenario_dir profile kind one two
  profile="${profile_flag---release}"
  scenario_dir="$(mktemp -d)"
  # shellcheck disable=SC2064
  trap "rm -rf '$scenario_dir'" RETURN
  for kind in migration-abuse evolving-scanners version-drift retry-amplification; do
    echo "==> scenario-smoke: $kind"
    cargo run -q $profile -- generate --out "$scenario_dir/$kind.qscp" \
      --scale test --seed 7 --scenario "$kind"
    cargo run -q $profile -- analyze "$scenario_dir/$kind.qscp" \
      >"$scenario_dir/$kind.analyze"
    grep -qE '^QUIC floods: [1-9]' "$scenario_dir/$kind.analyze" || {
      echo "scenario-smoke: $kind analysis reported no QUIC floods" >&2
      tail -5 "$scenario_dir/$kind.analyze" >&2
      exit 1
    }
    one="$(cargo run -q $profile -- live "$scenario_dir/$kind.qscp" --shards 1 \
      | grep -E '^live: [0-9]+ QUIC flood')"
    two="$(cargo run -q $profile -- live "$scenario_dir/$kind.qscp" --shards 2 \
      --events-out "$scenario_dir/$kind.qlog" 2>/dev/null \
      | grep -E '^live: [0-9]+ QUIC flood')"
    [[ "$one" == "$two" ]] || {
      echo "scenario-smoke: $kind live summary diverges across shard counts" >&2
      echo "  shards=1: $one" >&2
      echo "  shards=2: $two" >&2
      exit 1
    }
    cargo run -q $profile -- forensics check "$scenario_dir/$kind.qlog" \
      | grep -q 'valid qlog JSON-SEQ' || {
      echo "scenario-smoke: $kind exported qlog failed framing validation" >&2
      exit 1
    }
  done
  echo "scenario-smoke: all 4 kinds generate, analyze, stream shard-invariantly, export valid qlog — OK"
}

experiments_smoke() {
  # The one experiment runner over the whole catalog at the test scale:
  # EXPERIMENTS.md must hold findings for every catalog id (read from the
  # source, not from the runner's own output), and figures/ exactly the
  # SVGs pinned under tests/golden/, byte for byte.
  echo "==> experiments-smoke: every paper artifact regenerates"
  runner_pin
  fold_pin
  local exp_dir profile ids id written pinned stem
  profile="${profile_flag---release}"
  exp_dir="$(mktemp -d)"
  # shellcheck disable=SC2064
  trap "rm -rf '$exp_dir'" RETURN
  ids="$(sed -n 's/^    \(scenario\|standalone\)("\([a-z0-9_]*\)",.*/\2/p' \
    crates/core/src/experiments/mod.rs)"
  pinned="$(find tests/golden -name '*.svg' -printf '%f\n' | sort)"
  if [[ -z "$ids" || -z "$pinned" ]]; then
    echo "experiments-smoke: could not read the catalog ids or the SVG goldens" >&2
    exit 1
  fi
  cargo run -q $profile -- experiments --scale test --out "$exp_dir" >/dev/null 2>&1
  for id in $ids; do
    grep -q "^| $id | " "$exp_dir/EXPERIMENTS.md" || {
      echo "experiments-smoke: no findings for \`$id\` in EXPERIMENTS.md" >&2
      exit 1
    }
  done
  written="$({ find "$exp_dir/figures" -name '*.svg' -printf '%f\n' 2>/dev/null || true; } | sort)"
  if [[ "$written" != "$pinned" ]]; then
    echo "experiments-smoke: the SVGs written (<) are not the SVG goldens (>):" >&2
    diff <(echo "$written") <(echo "$pinned") >&2 || true
    exit 1
  fi
  for stem in $written; do
    cmp "$exp_dir/figures/$stem" "tests/golden/$stem" >&2 || {
      echo "experiments-smoke: figures/$stem differs from tests/golden/$stem" >&2
      exit 1
    }
  done
  echo "experiments-smoke: findings for all $(echo "$ids" | wc -w) catalog ids," \
    "$(echo "$written" | wc -l) SVG figures identical to tests/golden — OK"
}

paper_smoke() {
  # The published reproduction is what this tree produces: EXPERIMENTS.md
  # and figures/*.svg regenerate byte for byte with EXPERIMENTS.md's own
  # command, at the paper scale the PR-level gates never run. Always in
  # release (a paper-scale debug run takes many minutes).
  echo "==> paper-smoke: EXPERIMENTS.md and figures/ are what this tree produces"
  local paper_dir written committed stem
  paper_dir="$(mktemp -d)"
  # shellcheck disable=SC2064
  trap "rm -rf '$paper_dir'" RETURN
  cargo run -q --release -- experiments --scale paper --seed 0x20210401 \
    --out "$paper_dir" >/dev/null 2>&1
  diff EXPERIMENTS.md "$paper_dir/EXPERIMENTS.md" >&2 || {
    echo "paper-smoke: EXPERIMENTS.md (<) differs from what this tree produces (>)" >&2
    exit 1
  }
  committed="$(find figures -name '*.svg' -printf '%f\n' | sort)"
  written="$({ find "$paper_dir/figures" -name '*.svg' -printf '%f\n' 2>/dev/null || true; } | sort)"
  if [[ -z "$written" || "$written" != "$committed" ]]; then
    echo "paper-smoke: the SVGs written (<) are not the committed figures/ (>):" >&2
    diff <(echo "$written") <(echo "$committed") >&2 || true
    exit 1
  fi
  for stem in $written; do
    cmp "$paper_dir/figures/$stem" "figures/$stem" >&2 || {
      echo "paper-smoke: figures/$stem differs from what this tree produces" >&2
      exit 1
    }
  done
  echo "paper-smoke: EXPERIMENTS.md and $(echo "$written" | wc -l) SVG figures regenerate byte for byte — OK"
}

runner_pin() {
  echo "==> one experiment runner: the catalog is the only list of artifact runners"
  # `experiments::CATALOG` maps every artifact id to its runner, and
  # `quicsand experiments` runs it; a `figNN::run(` call anywhere else is
  # a second list to keep in step by hand (tests/determinism.rs compares
  # two runs of one figure, which is no list). The `quicsand-bench` crate
  # held two more, behind three environment variables. A figure runner
  # returns its plots with its report: `experiments::figures` derived
  # every plotted figure a second time from the same analysis.
  if [[ -e crates/bench ]]; then
    echo "runner pin: crates/bench exists; \`quicsand experiments\` is the one runner" >&2
    exit 1
  fi
  local callers
  callers="$(grep -rlE --include='*.rs' --exclude-dir=target --exclude-dir=.git 'fig[0-9]{2}::run\(' . \
    | sed 's|^\./||' | grep -vE '^(crates/core/src/experiments/|tests/determinism\.rs$)' || true)"
  if [[ -n "$callers" ]]; then
    echo "runner pin: \`figNN::run(\` outside crates/core/src/experiments/ and tests/determinism.rs, in:" >&2
    echo "$callers" >&2
    exit 1
  fi
  if [[ -e crates/core/src/experiments/figures.rs ]] \
    || grep -rnF --include='*.rs' --exclude-dir=target --exclude-dir=.git 'figures::all' .; then
    echo "runner pin: \`experiments::figures\` is back; each figure runner returns its own plots" >&2
    exit 1
  fi
}

fold_pin() {
  echo "==> fold pin: the batch analysis keeps no QUIC observation per packet"
  # `Analysis` holds per-source, per-session and per-attack state plus one
  # `(ts, src)` arrival per sanitized packet. A field of the observations
  # themselves (56 B and a heap message list each) is what the admit-loop
  # fold replaced, and `attack_observations` was the reader that needed it.
  local analysis fields users
  analysis="$(sed -n '/^pub struct Analysis {/,/^}/p' crates/core/src/analysis.rs)"
  if [[ -z "$analysis" ]]; then
    echo "fold pin: no \`pub struct Analysis\` in crates/core/src/analysis.rs" >&2
    exit 1
  fi
  fields="$(echo "$analysis" | grep -E 'Vec<[^;]*QuicObservation' || true)"
  if [[ -n "$fields" ]]; then
    echo "fold pin: \`Analysis\` declares a field of QUIC observations:" >&2
    echo "$fields" >&2
    exit 1
  fi
  users="$(grep -rlF --include='*.rs' --exclude-dir=target --exclude-dir=.git \
    'attack_observations' . || true)"
  if [[ -n "$users" ]]; then
    echo "fold pin: \`attack_observations\` is back, in:" >&2
    echo "$users" >&2
    exit 1
  fi
}

table_model() {
  # The session table's eviction index and sweep are held by two
  # model-based proptests against naive full-scan oracles: one on the
  # table itself, one a level up on the live detector across a JSON
  # checkpoint. A third holds the alert phase a checkpoint rebuilds to
  # the one a channel holds. A tier-1 run gives each the default case
  # count; this lane gives all three a longer hunt.
  echo "==> table-model: session-table and live-channel model oracles, 1024 cases each"
  local crate test out
  for crate_test in "quicsand-sessions window::tests::prop_table_matches_a_naive_oracle" \
    "quicsand-live detector::tests::prop_channel_matches_a_naive_oracle" \
    "quicsand-live detector::tests::prop_the_held_phase_is_the_phase_of_the_window"; do
    read -r crate test <<<"$crate_test"
    out="$(PROPTEST_CASES=1024 cargo test -q --release -p "$crate" --lib "$test" -- --exact 2>&1)" || {
      echo "$out" >&2
      exit 1
    }
    # A renamed test would match nothing and pass silently.
    echo "$out" | grep -q '^test result: ok\. 1 passed' || {
      echo "table-model: \`$test\` did not run in $crate" >&2
      echo "$out" >&2
      exit 1
    }
  done
  echo "table-model: all three model tests agree over 1024 cases — OK"
}

rss_smoke() {
  # `analyze` and `live` stream the capture: what stays resident is the
  # capture arena and per-source, per-session and per-attack state plus
  # one 16-byte arrival per sanitized QUIC packet (or the detector state),
  # never a decoded copy of the capture and never a second arena. The
  # process's own peak-RSS gauge (Linux VmHWM) must therefore stay below
  # arena + one decoded copy — capture bytes + 48 B per record (the size
  # of a `PacketRecord`); a build that materialises the records once
  # lands near the bound, one that also buffers the admitted TCP/ICMP
  # records (as `analyze` did before the streaming fold) or copies the
  # read buffer into the arena instead of taking it over well above it.
  echo "==> rss-smoke: analyze and live peak RSS below capture + one decoded copy"
  local rss_dir profile bytes records peak bound command
  local -a run
  profile="${profile_flag---release}"
  rss_dir="$(mktemp -d)"
  # shellcheck disable=SC2064
  trap "rm -rf '$rss_dir'" RETURN
  cargo run -q $profile -- generate --out "$rss_dir/ref.qscp" --scale test --seed 7 >/dev/null 2>&1
  if [[ -n "${1:-}" ]]; then run=("$1"); else run=(cargo run -q $profile --); fi
  bytes="$(wc -c <"$rss_dir/ref.qscp")"
  records="$("${run[@]}" analyze "$rss_dir/ref.qscp" --scale test --seed 7 \
    --metrics-out "$rss_dir/analyze.json" 2>/dev/null \
    | sed -n 's/^ingest: \([0-9][0-9]*\) records.*/\1/p')"
  if [[ -z "$records" ]]; then
    echo "rss-smoke: analyze printed no ingest line" >&2
    exit 1
  fi
  "${run[@]}" live "$rss_dir/ref.qscp" --shards 2 \
    --metrics-out "$rss_dir/live.json" >/dev/null 2>&1
  bound=$((bytes + 48 * records))
  for command in analyze live; do
    # Canonical JSON: one series per line.
    peak="$(sed -n '/"quicsand_process_peak_rss_bytes"/s/.*"value": \([0-9][0-9]*\).*/\1/p' \
      "$rss_dir/$command.json")"
    if [[ -z "$peak" ]]; then
      if [[ -r /proc/self/status ]]; then
        echo "rss-smoke: no quicsand_process_peak_rss_bytes gauge in $command --metrics-out" >&2
        exit 1
      fi
      echo "rss-smoke: no /proc/self/status on this platform, gauge not registered — skipped"
      return
    fi
    if ((peak >= bound)); then
      echo "rss-smoke: $command peak RSS $peak B >= bound $bound B ($bytes capture bytes + 48 B x $records records)" >&2
      exit 1
    fi
    echo "rss-smoke: $command peak RSS $peak B < bound $bound B ($bytes capture bytes + 48 B x $records records) — OK"
  done
}

if [[ "${1:-}" == "bench-smoke" ]]; then
  bench_smoke
  exit 0
fi

if [[ "${1:-}" == "events-smoke" ]]; then
  events_smoke
  exit 0
fi

if [[ "${1:-}" == "scenario-smoke" ]]; then
  scenario_smoke
  exit 0
fi

if [[ "${1:-}" == "experiments-smoke" ]]; then
  experiments_smoke
  exit 0
fi

if [[ "${1:-}" == "paper-smoke" ]]; then
  paper_smoke
  exit 0
fi

if [[ "${1:-}" == "rss-smoke" ]]; then
  rss_smoke "${2:-}"
  exit 0
fi

if [[ "${1:-}" == "table-model" ]]; then
  table_model
  exit 0
fi

quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

echo "==> cargo fmt --check"
cargo fmt --all --check

if [[ $quick -eq 0 ]]; then
  echo "==> cargo build --release --workspace"
  cargo build --release --workspace
  echo "==> cargo test -q --release --workspace"
  cargo test -q --release --workspace
else
  echo "==> cargo test -q --workspace"
  cargo test -q --workspace
fi

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo clippy (ingest crates, zero-copy strict lane)"
# The capture/dissect path is the zero-copy hot loop: a reintroduced
# clone or by-value pass is a silent perf regression, so those lints
# are hard errors here.
cargo clippy -p quicsand-net -p quicsand-dissect --all-targets -- \
  -D warnings -D clippy::redundant_clone -D clippy::needless_pass_by_value

nontest_code() { sed '/^#\[cfg(test)\]/,$d' "$1" | grep -v '^ *//'; }

echo "==> serde: typed reads pull from the source, no tree and no clone on the way"
# A `Value` between the text and the type it is read into is an
# allocation per key and per node, built to be torn down (what made a
# victim_churn checkpoint cycle 800 ms), and a `.clone()` in the emitted
# code a deep copy per field per nesting level (2.5 s, before that).
# Everything below the banner is code generation.
if sed -n '/^\/\/ Code generation/,$p' vendor/serde_derive/src/lib.rs \
  | grep -nE 'take_value|Value::|clone'; then
  echo "serde_derive: the code generators must not emit or use a tree or a clone" >&2
  exit 1
fi
if nontest_code vendor/serde/src/lib.rs | grep -n 'fn take('; then
  echo "serde: Value::take is the tree-walking read side; it stays deleted" >&2
  exit 1
fi
if nontest_code crates/live/src/multi.rs \
  | grep -nE 'serde_json::from_str::<serde::Value>|: serde::Value ='; then
  echo "live::multi: a checkpoint is read into its types, not into a tree first" >&2
  exit 1
fi

echo "==> one sharded-run path: fan-out and partition live in telescope::parallel only"
# scatter/gather/admit_each are the one place a record slice is split by
# source, run per shard and put back in capture order; a second
# `thread::scope` or `partition_by_source(` call in non-test code under
# crates/ is a second copy of that decision.
for needle in 'thread::scope' 'partition_by_source('; do
  users="$(find crates -path '*/src/*' -name '*.rs' | sort | while read -r file; do
    # Not `grep -q`: leaving at the first match can SIGPIPE the writers,
    # and under pipefail that reads as "no match".
    sed '/^#\[cfg(test)\]/,$d' "$file" | grep -v '^ *//' | grep -F "$needle" >/dev/null && echo "$file"
  done || true)"
  if [[ "$users" != "crates/telescope/src/parallel.rs" ]]; then
    echo "sharded-run pin: \`$needle\` must appear in crates/telescope/src/parallel.rs only, found in:" >&2
    echo "${users:-nowhere}" >&2
    exit 1
  fi
done

echo "==> live path: QUIC payloads are checked, not dissected, over one walk"
# The live engine reads a QUIC record's direction and message kinds only,
# so it admits with `MessageKinds` (`check_udp_payload`: no Client Hello
# trial decryption, no allocation); a `dissect_udp_payload` or
# `DissectedPacket` in its non-test code brings both back. The two
# extractions share the dissector's one structural walk.
for needle in 'dissect_udp_payload' 'DissectedPacket'; do
  if nontest_code crates/live/src/engine.rs | grep -nF "$needle"; then
    echo "live pin: \`$needle\` in non-test code of crates/live/src/engine.rs" >&2
    exit 1
  fi
done
walks="$(nontest_code crates/dissect/src/quic.rs | { grep -oF 'walk_datagram(' || true; } | wc -l)"
if [[ "$walks" -ne 1 ]]; then
  echo "dissect pin: $walks \`walk_datagram(\` call(s) in non-test code of crates/dissect/src/quic.rs, want exactly 1" >&2
  exit 1
fi
# An Initial is opened in one place, the visitor that `open` gates (the
# batch extraction opens backscatter only, `dissect_udp_payload` every
# Initial); a second call opens Initials on a path that never reads them.
opens="$(nontest_code crates/dissect/src/quic.rs | { grep -v 'fn initial_carries_client_hello(' || true; } \
  | { grep -oF 'initial_carries_client_hello(' || true; } | wc -l)"
if [[ "$opens" -ne 1 ]]; then
  echo "dissect pin: $opens \`initial_carries_client_hello(\` call(s) in non-test code of crates/dissect/src/quic.rs, want exactly 1" >&2
  exit 1
fi

echo "==> live detector: a victim's evidence ring waits for evidence a close could emit"
# Every spoofed source is a tracked victim and almost none qualifies, so
# `AlertState::fresh` allocates nothing: the ring reserves its capacity on
# its first push, and the detector pushes only packets that can end up in
# a closed alert. A `with_capacity` in `fresh` is a ring per victim again.
if nontest_code crates/live/src/detector.rs | sed -n '/fn fresh(/,/^    }/p' | grep -n 'with_capacity'; then
  echo "evidence pin: \`AlertState::fresh\` calls \`with_capacity\` in crates/live/src/detector.rs" >&2
  exit 1
fi

echo "==> live detector: a closed flood is recorded once, where it closes"
# The table's close step settles a close: it pushes the lifecycle events
# and records the flood in the detector's `ClosedFloods`, one record per
# flood. An event relay (`ChannelEvent` + `settle`) is a second pass over
# every close; index-aligned close arrays (`common_profiles` beside
# `closed_common`) are three copies of one flood's order, held together
# by nothing.
for needle in 'enum ChannelEvent' 'fn settle' 'fn common_profiles'; do
  if nontest_code crates/live/src/detector.rs | grep -nF "$needle"; then
    echo "close pin: \`$needle\` in non-test code of crates/live/src/detector.rs" >&2
    exit 1
  fi
done
# The checkpoint (schema v4) writes the state in the shape the runtime
# holds it, each fact once, and reads it in one typed pass: a victim is
# its window's profile (no `VictimState` copy of its fields, no
# `minute_map` of its profile), a closed common flood one record (no `common_evidence`
# array beside `closed_common`), the version read where it stands (no
# `VersionProbe` pass first), and the guard thresholds written once in
# `LiveSnapshot` (no `guard` in each shard's `PipelineSnapshot`).
for file in crates/live/src/*.rs; do
  for needle in 'mod minute_map' 'struct VictimState' 'VersionProbe' 'common_evidence'; do
    if nontest_code "$file" | grep -nF "$needle"; then
      echo "checkpoint pin: \`$needle\` in non-test code of $file" >&2
      exit 1
    fi
  done
done
# An open victim is its profile and evidence ring: the rest of its
# window and its alert phase are derived from the profile and rebuilt on
# restore, so `VictimEntry` has no `window` or `phase` field to disagree
# with it, and `AlertPhase` no serde form to write one with.
victim_entry="$(nontest_code crates/live/src/detector.rs | sed -n '/^struct VictimEntry {/,/^}/p')"
if [[ -z "$victim_entry" ]]; then
  echo "checkpoint pin: no \`struct VictimEntry\` in crates/live/src/detector.rs" >&2
  exit 1
fi
if echo "$victim_entry" | grep -nE '^ *(pub(\([a-z]+\))? )?(window|phase):'; then
  echo "checkpoint pin: \`VictimEntry\` has a \`window\` or \`phase\` field again; both are rebuilt from its profile" >&2
  exit 1
fi
if nontest_code crates/live/src/detector.rs \
  | grep -B3 -E '^(pub(\([a-z]+\))? )?enum AlertPhase' | grep -nE 'derive\(.*(Serialize|Deserialize)' \
  || nontest_code crates/live/src/detector.rs | grep -nE 'impl.*(Serialize|Deserialize).* for AlertPhase'; then
  echo "checkpoint pin: \`AlertPhase\` has a serde form again; a checkpoint does not write the phase" >&2
  exit 1
fi
pipeline_snapshot="$(sed -n '/^pub struct PipelineSnapshot {/,/^}/p' crates/telescope/src/pipeline.rs)"
if [[ -z "$pipeline_snapshot" ]]; then
  echo "checkpoint pin: no \`pub struct PipelineSnapshot\` in crates/telescope/src/pipeline.rs" >&2
  exit 1
fi
if echo "$pipeline_snapshot" | grep -nE '^ *pub guard:'; then
  echo "checkpoint pin: \`PipelineSnapshot\` has a \`guard\` field again; \`LiveSnapshot.guard\` is the one copy" >&2
  exit 1
fi

echo "==> streaming batch path: no decoded-capture vector comes back"
# The CLI feeds the pipeline `read_batch` slices and the pipeline keeps
# no record (nor, `fold_pin` holds, a QUIC observation list); a
# `read_to_end` in the CLI or a record vector in the analysis is the copy
# this pins out.
if nontest_code src/main.rs | grep -n 'read_to_end'; then
  echo "streaming pin: src/main.rs must not call read_to_end" >&2
  exit 1
fi
for needle in 'Vec<PacketRecord>' 'baseline.push'; do
  if nontest_code crates/core/src/analysis.rs | grep -nF "$needle"; then
    echo "streaming pin: \`$needle\` in non-test code of crates/core/src/analysis.rs" >&2
    exit 1
  fi
done

echo "==> one copy of the capture, none of a record: the arena takes the read buffer over, admit borrows"
# `Bytes::from(Vec)` takes the vector over, so a file read into a `Vec` is
# the arena; a `read_from` beside it is the workaround for a copying
# `From`, and means the copy is back. A baseline product that clones its
# record copies every TCP/ICMP record the admit loop sees, only for its
# caller to read two fields of it; the callers that keep one clone it.
if nontest_code vendor/bytes/src/lib.rs | grep -n 'fn read_from'; then
  echo "bytes pin: \`fn read_from\` in non-test code of vendor/bytes/src/lib.rs" >&2
  exit 1
fi
if nontest_code crates/telescope/src/pipeline.rs | grep -nF 'Baseline(record.clone())'; then
  echo "admit pin: \`Baseline(record.clone())\` in non-test code of crates/telescope/src/pipeline.rs" >&2
  exit 1
fi

echo "==> one implementation per input job: one capture reader, one flow-merge core, one client-Initial encoder"
# `ZeroCopyCaptureReader` is the one QSCP decoder; a second reader is a
# second copy of the format's error contract, held to the first only by
# tests. The lazy trace models are flows merged by `traffic::streaming`;
# a heap or a splitmix beside it is a second copy of that machine.
if grep -rnF 'struct CaptureReader' crates; then
  echo "capture pin: \`struct CaptureReader\` under crates/; ZeroCopyCaptureReader is the one reader" >&2
  exit 1
fi
for file in crates/traffic/src/*.rs; do
  [[ "$file" == crates/traffic/src/streaming.rs ]] && continue
  if nontest_code "$file" | grep -nE 'BinaryHeap|fn splitmix'; then
    echo "generator pin: \`BinaryHeap\` or \`fn splitmix\` in non-test code of $file; the flow merge lives in streaming.rs" >&2
    exit 1
  fi
done
# Every client Initial (scan probes, research probes, scenario probes,
# the Table 1 corpus, the handshake client, their test fixtures) is
# sealed by `packet::seal_client_initial`; an `encode_padded(` outside
# crates/wire/src/packet.rs is another copy of that encoder.
users="$(grep -rlF --include='*.rs' 'encode_padded(' crates src examples tests \
  | grep -vx 'crates/wire/src/packet.rs' || true)"
if [[ -n "$users" ]]; then
  echo "client-Initial pin: \`encode_padded(\` outside crates/wire/src/packet.rs, in:" >&2
  echo "$users" >&2
  exit 1
fi

echo "==> one event hook: each event is built once, as an \`Event\`, and handed to \`Subscriber::on\`"
# A typed hook per event kind (\`fn on_*\`) makes every subscriber and
# every wrapper around one forward each kind by hand, and a collector
# type with a replay (\`VecSubscriber\`, \`fn dispatch\`) clones each
# event back into an \`Event\` it already was.
for file in crates/*/src/*.rs src/*.rs; do
  if nontest_code "$file" | grep -nE 'fn on_|VecSubscriber|fn dispatch|replay_into'; then
    echo "event-hook pin: a typed hook or a replaying collector in non-test code of $file" >&2
    exit 1
  fi
done

echo "==> one live front end: alert slices come from the live run's own engine"
# `live --forensics-out` writes the slices from the engine that raised the
# alerts. A `LiveEngine::new(` in the CLI is a second driver loop beside
# `MultiSourceLive`, with a failure contract of its own.
if grep -nF 'LiveEngine::new(' src/main.rs; then
  echo "live front-end pin: \`LiveEngine::new(\` in src/main.rs; \`live\` is the one engine driver" >&2
  exit 1
fi

echo "==> counters catch up to the stats they mirror: no delta cursors, no mirror checks"
# A metric bundle publishes a stats reading with one `publish`: each
# counter catches up to its field (`Counter::catch_up`) and is its own
# cursor. A `synced_*` reading kept beside the counters is a third copy
# of the counts; an `add_delta` or a field-by-field `verify` is a second
# copy of the field pairing, held to the first only by a check.
for file in crates/live/src/engine.rs crates/live/src/multi.rs; do
  if nontest_code "$file" | grep -nF 'synced_'; then
    echo "metrics pin: \`synced_\` in non-test code of $file" >&2
    exit 1
  fi
done
for file in crates/telescope/src/metrics.rs crates/live/src/metrics.rs; do
  if nontest_code "$file" | grep -nE 'fn add_delta|fn verify\('; then
    echo "metrics pin: \`fn add_delta\` or \`fn verify(\` in non-test code of $file" >&2
    exit 1
  fi
done

echo "==> one stage clock: the stage wall times are recorded once, where they are measured"
# `StageMetrics` (crates/telescope/src/metrics.rs) holds the stage labels
# and the slowest-shard rule; the batch shards and the live chunks record
# into it, and the CLI prints its `pipeline:` and `stages:` lines from it.
# A `PipelineStats` struct beside it (with its `max_stage` merge and its
# `stage_summary` line) and an `observe_frontend` copy step are a second
# record of the same times, and drift from the first. A `data_value` is a
# serde tree built per qlog record only to be written out and dropped.
for file in crates/*/src/*.rs src/*.rs; do
  if nontest_code "$file" | grep -nE 'PipelineStats|max_stage|stage_summary|observe_frontend|data_value'; then
    echo "stage-clock pin: a second stage record or a per-record qlog tree in non-test code of $file" >&2
    exit 1
  fi
done

if [[ $quick -eq 0 ]]; then
  echo "==> checkpoint allocation pin"
  # The counts the tree-free reader and the tree-free writer are held
  # to, in the profile the checkpoint is measured in.
  cargo test -q --release --test checkpoint_allocations
  echo "==> analysis allocation pin"
  # Bytes allocated by Analysis::run on a TCP/ICMP capture follow its
  # sources and minutes, not its packet count.
  cargo test -q --release --test analysis_allocations
  echo "==> live allocation pin"
  # Bytes allocated by LiveEngine::offer_chunk over QUIC backscatter
  # follow its victims and minutes, not its packet count.
  cargo test -q --release --test live_allocations
fi

echo "==> golden-figure regression suite"
if [[ $quick -eq 0 ]]; then
  cargo test -q --release --test golden
else
  cargo test -q --test golden
fi

echo "==> faulted-smoke: CLI under the standard fault profile"
# The pipeline must survive a seeded adversarial fault mix (exit 0) and
# visibly quarantine it (nonzero per-kind counters in the breakdown).
profile_flag=""
[[ $quick -eq 0 ]] && profile_flag="--release"
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
cargo run -q $profile_flag -- generate --out "$smoke_dir/smoke.qscp" --scale test --seed 7
smoke_out="$(cargo run -q $profile_flag -- analyze "$smoke_dir/smoke.qscp" \
  --scale test --seed 7 --fault-profile standard --fault-seed 7 2>&1)"
echo "$smoke_out" | grep -E '^quarantine: ' || {
  echo "faulted-smoke: no quarantine breakdown in output" >&2
  echo "$smoke_out" >&2
  exit 1
}
quarantined="$(echo "$smoke_out" | sed -n 's/.* \([0-9][0-9]*\) quarantined$/\1/p')"
if [[ -z "$quarantined" || "$quarantined" -eq 0 ]]; then
  echo "faulted-smoke: expected nonzero quarantine count, got '${quarantined:-none}'" >&2
  exit 1
fi
echo "faulted-smoke: $quarantined records quarantined, exit 0 — OK"

echo "==> live-smoke: streaming engine over the same capture"
# The live engine must stream the capture cleanly (exit 0), emit at
# least one closed alert, and self-verify a mid-stream JSON checkpoint.
live_out="$(cargo run -q $profile_flag -- live "$smoke_dir/smoke.qscp" \
  --shards 2 --chunk 2048 --checkpoint-every 100000 2>&1)"
echo "$live_out" | grep -q ' CLOSE ' || {
  echo "live-smoke: no CLOSE alert in output" >&2
  echo "$live_out" | tail -20 >&2
  exit 1
}
echo "$live_out" | grep -E '^live: .* checkpoint\(s\) verified$' | grep -qv ' 0 checkpoint(s)' || {
  echo "live-smoke: checkpoint self-verification did not run" >&2
  echo "$live_out" | tail -5 >&2
  exit 1
}
closes="$(echo "$live_out" | grep -c ' CLOSE ')"
echo "live-smoke: $closes closed alert(s), checkpoints verified, exit 0 — OK"

echo "==> live-smoke: batch ≡ live leg (QUIC flood count on the same capture)"
# Both frontends sit on one session table, so on a clean capture the
# batch analysis and the sharded live run must count the same floods
# (scenario-smoke compares only live against live).
batch_floods="$(cargo run -q $profile_flag -- analyze "$smoke_dir/smoke.qscp" 2>/dev/null \
  | sed -n 's/^QUIC floods: \([0-9][0-9]*\) against .*/\1/p')"
live_floods="$(echo "$live_out" | sed -n 's/^live: \([0-9][0-9]*\) QUIC flood(s).*/\1/p')"
if [[ -z "$batch_floods" || "$batch_floods" != "$live_floods" ]]; then
  echo "live-smoke: analyze counts '${batch_floods:-none}' QUIC flood(s), live --shards 2 '${live_floods:-none}'" >&2
  exit 1
fi
echo "live-smoke: $batch_floods QUIC flood(s) in both analyze and live --shards 2 — OK"

echo "==> live-smoke: eviction leg (4-victim cap on the same capture)"
# Under a cap the capture overflows, the engine must still exit 0, count
# its evictions, and close the same alerts whatever the chunking and
# whether or not it was checkpointed and restored on the way: a restored
# engine starts with no activity index and builds it, with exact keys, at
# its next eviction, while a running one keeps the index it built after
# the last sweep, with stale keys; that difference must be invisible.
evict_run() {
  cargo run -q $profile_flag -- live "$smoke_dir/smoke.qscp" \
    --shards 1 --max-victims 4 "$@" 2>/dev/null
}
evict_out="$(evict_run --chunk 1024)"
echo "$evict_out" | grep -qE '^live: .* [1-9][0-9]* eviction\(s\)' || {
  echo "live-smoke: --max-victims 4 reported no evictions" >&2
  echo "$evict_out" | tail -5 >&2
  exit 1
}
evict_closes="$(echo "$evict_out" | grep ' CLOSE ')"
for variant in "--chunk 4096" "--chunk 1024 --checkpoint-every 20000"; do
  # shellcheck disable=SC2086
  [[ "$(evict_run $variant | grep ' CLOSE ')" == "$evict_closes" ]] || {
    echo "live-smoke: CLOSE lines under eviction differ with $variant" >&2
    exit 1
  }
done
echo "live-smoke: $(echo "$evict_out" | grep -oE '[0-9]+ eviction\(s\)'), CLOSE lines chunk- and checkpoint-invariant — OK"

echo "==> multi-source-smoke: the same capture through the multiplexer"
# Splitting the ingest across feeds must be invisible: the same capture
# plus an empty feed yields exactly the live-smoke alert count, the
# per-feed summary reports both feeds (one empty), and the v3
# checkpoint still self-verifies.
: > "$smoke_dir/empty.qscp"
multi_out="$(cargo run -q $profile_flag -- live \
  --input "$smoke_dir/smoke.qscp" --input "$smoke_dir/empty.qscp" \
  --shards 2 --chunk 2048 --checkpoint-every 100000 2>&1)"
multi_closes="$(echo "$multi_out" | grep -c ' CLOSE ')"
if [[ "$multi_closes" -ne "$closes" ]]; then
  echo "multi-source-smoke: $multi_closes closed alert(s), expected $closes" >&2
  echo "$multi_out" | tail -5 >&2
  exit 1
fi
echo "$multi_out" | grep -q '^sources: 2 feed' || {
  echo "multi-source-smoke: per-feed summary missing" >&2
  echo "$multi_out" | tail -5 >&2
  exit 1
}
echo "$multi_out" | grep -E '^live: .* checkpoint\(s\) verified$' | grep -qv ' 0 checkpoint(s)' || {
  echo "multi-source-smoke: checkpoint self-verification did not run" >&2
  echo "$multi_out" | tail -5 >&2
  exit 1
}
echo "multi-source-smoke: $multi_closes closed alert(s) across 2 feeds, checkpoints verified — OK"

echo "==> metrics-smoke: exposition + reconciliation on the same capture"
# `quicsand metrics` re-runs the pipeline and checks `verify_metrics`
# (a broken identity exits nonzero), and the Prometheus rendering must
# carry the core families.
metrics_out="$(cargo run -q $profile_flag -- metrics "$smoke_dir/smoke.qscp" \
  --scale test --seed 7 --threads 2 2>/dev/null)"
for family in quicsand_ingest_records_total quicsand_detect_attacks_total \
              quicsand_sessions_opened_total quicsand_stage_walltime_micros; do
  echo "$metrics_out" | grep -q "^$family" || {
    echo "metrics-smoke: family $family missing from exposition" >&2
    exit 1
  }
done
echo "metrics-smoke: exposition complete, counters reconcile, exit 0 — OK"

rss_smoke

table_model

events_smoke

experiments_smoke

if [[ $quick -eq 0 ]]; then
  paper_smoke
  bench_smoke
else
  echo "==> paper-smoke and bench-smoke skipped (--quick)"
fi

echo "CI green."
