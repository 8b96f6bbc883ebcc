# Common development tasks. `just ci` is the gate PRs must pass.

# The CI gate: runs `ci.sh`, the one gate list (formatting, release
# build incl. examples and benches, every crate's tests, the benchmark's
# own tests, bench smoke, warning-free clippy and rustdoc, and the smoke
# runs below).
ci:
    ./ci.sh

# Fault-injection sweep: every standard plan (droop-storm,
# sensor-chaos, actuator-flap) replayed under three seeds. Each run
# asserts its own report coherence; reports are pure functions of
# (plan, seed), so output drift is a regression.
chaos:
    cargo run --release --example fault_campaign 42 3 4
    cargo run --release --example fault_campaign 7 3 4
    cargo run --release --example fault_campaign 1234 3 4

# Fleet determinism smoke: a small sharded fleet under two seeds, each
# run serially and on four workers and byte-compared (the example
# asserts identity, conservation, and drain discipline itself).
fleet:
    cargo run --release --example fleet 42
    cargo run --release --example fleet 7

# Drifting-lot adaptation smoke: two seeds of conservative deployments
# on aging silicon with the recharacterization loop closed. Each run
# asserts estimator convergence, SLO safety through re-tighten episodes,
# and serial ≡ 4-worker byte identity itself.
adapt:
    cargo run --release --example adapt 42
    cargo run --release --example adapt 7

# Power-capping smoke: two seeds through a brownout, a price curve and
# a budgeted fleet. Each run asserts the regulator's laws (no release
# while over budget, bounded integral, supervisor precedence), energy
# conservation, and serial ≡ 4-worker byte identity itself.
capping:
    cargo run --release --example capping 42
    cargo run --release --example capping 7

# Recovery smoke: a chip hard-failed mid-run under two seeds with the
# failover ladder armed. The example asserts exactly-once accounting
# with retries, SLO re-convergence after the failover, and serial ≡
# 4-worker byte identity itself.
recover:
    cargo run --release --example recovery

# Warning-free rustdoc over the workspace.
doc:
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Full-workspace test run (every crate, not just the facade).
test-all:
    cargo test --workspace

# Determinism suites: parallel characterization + the serving layer.
determinism:
    cargo test --test determinism
    cargo test --test serving

# Serial vs parallel characterization + memoized-rerun speedups.
bench-parallel:
    cargo bench -p atm-bench --bench parallel_charact

# Serving throughput and tail latency vs deployment size.
bench-serve:
    cargo bench -p atm-bench --bench serve_throughput

# Hot-path throughput trajectory: re-measures the stress-deploy and
# serving scenarios and refreshes BENCH_simperf.json (the `before`
# column is preserved from the pre-overhaul capture).
perf:
    cargo bench -p atm-bench --bench simperf
