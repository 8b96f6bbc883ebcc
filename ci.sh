#!/bin/sh
# The repo's CI gate: formatting, release build (examples and benches
# included), every crate's tests (the facade's among them), the
# benchmark's own tests, a bench smoke pass, warning-free workspace-wide clippy over every target, and
# warning-free rustdoc.
set -eux

cargo fmt --check
cargo build --release
cargo build --release --examples
cargo build --release --benches
cargo test --workspace -q
# The benchmark's own contract and mechanism tests (its own workspace).
# `--locked`: a facade dependency change fails here instead of silently
# rewriting the tracked perfbench/Cargo.lock.
cargo test --release --locked --manifest-path perfbench/Cargo.toml
# Smoke the perf harness end to end (tiny spans, no JSON update).
cargo bench -p atm-bench --bench simperf -- --test
cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
# Chaos sweep: the three standard fault plans under three seeds
# (mirrors `just chaos`).
for seed in 42 7 1234; do
    cargo run --release --example fault_campaign "$seed" 3 4
done
# Fleet smoke: small sharded fleets under two seeds, serial vs
# 4-worker runs byte-compared (mirrors `just fleet`).
for seed in 42 7; do
    cargo run --release --example fleet "$seed"
done
# Adaptation smoke: drifting lots with the recharacterization loop
# closed — convergence, SLO safety and byte determinism asserted by the
# example itself (mirrors `just adapt`).
for seed in 42 7; do
    cargo run --release --example adapt "$seed"
done
# Capping smoke: brownout, price-curve and budgeted-fleet scenarios
# under two seeds — regulator laws, energy conservation and serial ≡
# 4-worker byte identity asserted by the example itself (mirrors
# `just capping`).
for seed in 42 7; do
    cargo run --release --example capping "$seed"
done
# Recovery smoke: a chip hard-failed mid-run, both seeds driven inside
# the example — exactly-once accounting with retries, SLO
# re-convergence after failover, serial ≡ 4-worker byte identity
# (mirrors `just recover`).
cargo run --release --example recovery
