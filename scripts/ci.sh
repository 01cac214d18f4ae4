#!/bin/sh
# Repo gate: build, full test suite, a warning-free clippy pass, a
# warning-free rustdoc pass, and a straight-lab smoke run producing a
# parseable machine-readable record.
# (crates/sim additionally denies unwrap/expect/panic via [lints] in
# its Cargo.toml — faults must travel as typed Traps, not panics.)
set -eux

cd "$(dirname "$0")/.."

cargo build --release --workspace

# The README examples must run to a clean exit, not only compile.
for example in quickstart rapid_recovery straight_assembly distance_profile; do
    cargo run --release -q -p straight-core --example "$example" > /dev/null
done

# Includes straight-bench's seeded chaos suite (store corruption,
# SIGKILL restarts, panic injection).
cargo test --workspace -q
cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# The benchmark harness is its own workspace on path dependencies into
# crates/: a change to a `pub` item it uses must fail here, not only in
# the benchmark run.
cargo check --locked --manifest-path perfbench/Cargo.toml --all-targets

# End-to-end smoke of the emulator and checkpoint path: perfbench's
# `emulate` workload runs the sampled, fig15 and fig16 cells and checks
# each record against its expected output, so the last line it prints
# must say every check passed. It writes `.perfbench/` under the working
# directory, so it runs in a temporary one.
PERFBENCH_DIR=$(mktemp -d)
REPO=$(pwd)
(cd "$PERFBENCH_DIR" && cargo run --release -q --manifest-path "$REPO/perfbench/Cargo.toml" -- \
    --workload emulate --seed 1 --seconds 2 --trace 0 --scale tiny) > "$PERFBENCH_DIR/out.txt"
python3 - "$PERFBENCH_DIR/out.txt" <<'EOF'
import json, sys
last = json.loads(open(sys.argv[1]).read().splitlines()[-1])
assert last["correct"] is True and last["failed"] == 0, last
print(f"perfbench emulate smoke OK: {last['attempted']} checks")
EOF
rm -rf "$PERFBENCH_DIR"

# The opt-in per-stage host profiler must keep compiling and passing.
cargo test -p straight-tests --features stage-profile -q --test stage_profile

# Smoke: the unified runner must produce a BENCH_fig11.json that its
# own validator accepts (parse + schema check + FromJson round-trip).
SMOKE_DIR=$(mktemp -d)
STRAIGHTD_PID=""
trap '{ [ -n "$STRAIGHTD_PID" ] && kill "$STRAIGHTD_PID" 2>/dev/null; } || true; rm -rf "$SMOKE_DIR"' EXIT
target/release/straight-lab --figure fig11 --quick --quiet --profile --out "$SMOKE_DIR" \
    > "$SMOKE_DIR/profile.txt"
test -s "$SMOKE_DIR/BENCH_fig11.json"
target/release/straight-lab --validate "$SMOKE_DIR/BENCH_fig11.json"

# Footprint gate: simulated memory is sparse (pages materialize on
# first write), so the smoke's peak resident set, which `--profile`
# reports where /proc/self/status exists, stays under 10 MB. A dense
# 4 MiB memory per emulator and core read 9.5–13.5 MB here.
python3 - "$SMOKE_DIR/profile.txt" <<'EOF'
import os, re, sys
text = open(sys.argv[1]).read()
m = re.search(r"^peak RSS \(VmHWM\): ([0-9.]+) MB$", text, re.M)
if os.path.exists("/proc/self/status"):
    assert m, "--profile must report the peak resident set"
    assert float(m.group(1)) < 10, f"peak RSS {m.group(1)} MB, want < 10 MB"
    print(f"peak RSS OK: {m.group(1)} MB")
EOF

# The record must carry the host-side throughput profile: every
# pipeline cell (stats != null) reports a positive sim wall time and
# kcycles/sec; non-pipeline cells report null.
python3 - "$SMOKE_DIR/BENCH_fig11.json" <<'EOF'
import json, sys
cells = json.load(open(sys.argv[1]))["cells"]
piped = [c for c in cells if c["stats"] is not None]
assert piped, "fig11 should contain pipeline cells"
for c in cells:
    if c["stats"] is not None:
        assert c["sim_wall_ms"] > 0, c["id"]
        assert c["ksim_cycles_per_sec"] > 0, c["id"]
    else:
        assert c["sim_wall_ms"] is None and c["ksim_cycles_per_sec"] is None, c["id"]
print(f"throughput fields OK on {len(piped)} pipeline cells")
EOF

# Golden gate: one live `--all --quick` run (git rev pinned) must print
# the committed report text byte for byte, and each of the records it
# writes, one per experiment, must be byte-identical after --normalize
# to its committed golden record. Any accidental change to simulated
# behaviour or to a report's layout fails here; intentional changes
# regenerate the golden files (tests/golden/README.md).
STRAIGHT_GIT_REV=golden target/release/straight-lab --all --quick \
    --out "$SMOKE_DIR/golden-live" > "$SMOKE_DIR/report_quick.txt"
cmp tests/golden/report_quick.txt "$SMOKE_DIR/report_quick.txt"
for live in "$SMOKE_DIR"/golden-live/BENCH_*.json; do
    name=$(basename "$live" .json)
    target/release/straight-lab --normalize "tests/golden/${name}_quick.json" \
        > "$SMOKE_DIR/golden.norm"
    target/release/straight-lab --normalize "$live" > "$SMOKE_DIR/golden-live.norm"
    cmp "$SMOKE_DIR/golden.norm" "$SMOKE_DIR/golden-live.norm"
done
test "$(ls "$SMOKE_DIR"/golden-live/BENCH_*.json | wc -l)" -eq 10

# Golden gate at a scale where the sampled grid thins: at 4000/40 each
# Dhrystone cell's first pass fills its 64-checkpoint grid and halves
# it, so checkpoint block sharing and the bounded STRAIGHT result ring
# run across many checkpoints and restores (a `--quick` sampled cell
# keeps at most two checkpoints). The record must be byte-identical
# after --normalize to the committed one.
STRAIGHT_GIT_REV=golden STRAIGHT_DHRY_ITERS=4000 STRAIGHT_CM_ITERS=40 \
    target/release/straight-lab --figure sampled --quiet --out "$SMOKE_DIR/golden-sampled"
target/release/straight-lab --normalize tests/golden/BENCH_sampled_4000_40.json \
    > "$SMOKE_DIR/golden.norm"
target/release/straight-lab --normalize "$SMOKE_DIR/golden-sampled/BENCH_sampled.json" \
    > "$SMOKE_DIR/golden-live.norm"
cmp "$SMOKE_DIR/golden.norm" "$SMOKE_DIR/golden-live.norm"

# Sampled-simulation smoke: the checkpoint-sampled methodology record
# the golden gate above produced must pass its own validator, with
# paired (full)/(sampled) cells per workload x machine and positive
# estimates.
test -s "$SMOKE_DIR/golden-live/BENCH_sampled.json"
target/release/straight-lab --validate "$SMOKE_DIR/golden-live/BENCH_sampled.json"
python3 - "$SMOKE_DIR/golden-live/BENCH_sampled.json" <<'EOF'
import json, sys
cells = json.load(open(sys.argv[1]))["cells"]
full = {c["id"].replace(" (full)", ""): c for c in cells if c["id"].endswith(" (full)")}
samp = {c["id"].replace(" (sampled)", ""): c for c in cells if c["id"].endswith(" (sampled)")}
assert full and set(full) == set(samp), (sorted(full), sorted(samp))
for key, f in full.items():
    s = samp[key]
    assert f["cycles"] > 0 and s["cycles"] > 0, key
    assert f["retired"] == s["retired"], key
    assert s["ipc"] > 0, key
print(f"sampled schema OK: {len(full)} (full)/(sampled) pairs")
EOF

# Daemon smoke: start straightd on a Unix socket, run the same figure
# through `straight-lab --remote`, and require the fetched record to be
# byte-identical (after normalization) to the in-process one above.
SOCK="$SMOKE_DIR/straightd.sock"
# Waits up to 10 s for a starting daemon's socket; fails if it never
# appears.
wait_for_socket() {
    for _ in $(seq 1 100); do
        [ -S "$1" ] && return 0
        sleep 0.1
    done
    test -S "$1"
}
target/release/straightd --listen "$SOCK" --jobs 2 &
STRAIGHTD_PID=$!
wait_for_socket "$SOCK"
target/release/straight-lab --remote "$SOCK" --figure fig11 --quick --quiet \
    --out "$SMOKE_DIR/remote"
target/release/straight-lab --normalize "$SMOKE_DIR/BENCH_fig11.json" \
    > "$SMOKE_DIR/local.norm"
target/release/straight-lab --normalize "$SMOKE_DIR/remote/BENCH_fig11.json" \
    > "$SMOKE_DIR/remote.norm"
cmp "$SMOKE_DIR/local.norm" "$SMOKE_DIR/remote.norm"

# SIGTERM must drain gracefully: exit 0 and remove the socket file.
kill -TERM "$STRAIGHTD_PID"
wait "$STRAIGHTD_PID"
test ! -e "$SOCK"
STRAIGHTD_PID=""

# Crash-recovery smoke: a SIGKILL mid-run must leave the record store
# either clean or quarantined — never serving torn bytes — and a
# restarted daemon must answer the same figure byte-identically from
# the store, without re-simulating.
# The git revision is stamped into records and stable within one CI
# run, so restarts compare byte-identically without pinning it.
STORE="$SMOKE_DIR/store"
target/release/straightd --listen "$SOCK" --jobs 2 --store "$STORE" &
STRAIGHTD_PID=$!
wait_for_socket "$SOCK"
# Kick off work, then SIGKILL the daemon mid-run; the client is
# expected to fail — only the store's integrity matters here.
target/release/straight-lab --remote "$SOCK" --figure fig11 --quiet --no-write \
    --remote-timeout-ms 2000 --remote-retries 2 &
CLIENT_PID=$!
sleep 0.4
kill -KILL "$STRAIGHTD_PID"
wait "$STRAIGHTD_PID" || true
wait "$CLIENT_PID" || true
STRAIGHTD_PID=""

# Restart over the same store: the boot scan must quarantine anything
# torn (typically nothing: writes are atomic), then serve the figure.
target/release/straightd --listen "$SOCK" --jobs 2 --store "$STORE" &
STRAIGHTD_PID=$!
wait_for_socket "$SOCK"
target/release/straight-lab --remote "$SOCK" --figure fig11 --quick --quiet \
    --remote-retries 6 --out "$SMOKE_DIR/recovered"
target/release/straight-lab --normalize "$SMOKE_DIR/recovered/BENCH_fig11.json" \
    > "$SMOKE_DIR/recovered.norm"
cmp "$SMOKE_DIR/local.norm" "$SMOKE_DIR/recovered.norm"

# Restart once more: the rerun must be answered from the warm store
# (store hits, zero simulations), the run cache must stay within its
# bound, the stats op must carry the durability counters, and no
# finished job may still count as active.
kill -TERM "$STRAIGHTD_PID"
wait "$STRAIGHTD_PID"
target/release/straightd --listen "$SOCK" --jobs 2 --store "$STORE" &
STRAIGHTD_PID=$!
wait_for_socket "$SOCK"
target/release/straight-lab --remote "$SOCK" --figure fig11 --quick --quiet --no-write
target/release/straight-lab --remote "$SOCK" --stats > "$SMOKE_DIR/stats.json"
RUN_CAPACITY=$(sed -n 's/^pub const RUN_CAPACITY: usize = \([0-9]*\);$/\1/p' crates/core/src/lab.rs)
python3 - "$SMOKE_DIR/stats.json" "$RUN_CAPACITY" <<'EOF'
import json, sys
stats = json.load(open(sys.argv[1]))
store = stats["store"]
assert store is not None, "stats must carry the store section"
assert store["entries"] > 0, store
assert store["quarantined"] == 0, store
assert store["hits"] > 0, "warm boot must serve the rerun from the store"
assert not store["memory_only"], store
assert stats["cache"]["run_misses"] == 0, "store hits must skip simulation"
assert stats["cache"]["runs_held"] <= int(sys.argv[2]), "RUN_CAPACITY bounds the run cache"
assert stats["worker_panics"] == 0, stats
assert stats["jobs_active"] == 0, "finished jobs must leave the active list"
assert "queue_full_refusals" in stats and "idle_reaped" in stats, stats
print("crash-recovery stats OK:", json.dumps(store))
EOF

# Bounded image cache: 20 fig16 requests at new Dhrystone counts build
# 20 Dhrystone images and one CoreMark image (reused by every request,
# so never evicted); the daemon must hold at most 16 of them. Bounded
# job table: `--remote` fetches each of the 21 jobs this daemon served,
# and a fetched job retires, so the table must be empty.
for iters in $(seq 51 70); do
    STRAIGHT_DHRY_ITERS=$iters STRAIGHT_CM_ITERS=1 target/release/straight-lab \
        --remote "$SOCK" --figure fig16 --no-write --quiet
done
target/release/straight-lab --remote "$SOCK" --stats > "$SMOKE_DIR/stats.json"
python3 - "$SMOKE_DIR/stats.json" <<'EOF'
import json, sys
stats = json.load(open(sys.argv[1]))
cache = stats["cache"]
assert cache["images_held"] <= 16, cache
assert cache["image_misses"] == 21, cache
assert stats["jobs_submitted"] == 21, stats
assert stats["jobs_held"] == 0, "every fetched job must retire"
print("bounded image cache OK:", json.dumps(cache))
print("bounded job table OK: 21 jobs submitted, 0 held")
EOF
kill -TERM "$STRAIGHTD_PID"
wait "$STRAIGHTD_PID"
STRAIGHTD_PID=""
