//! Telemetry contract tests: recording never perturbs results, the ring
//! bounds memory, and snapshots round-trip losslessly.
//!
//! The two "never perturbs" properties are the subsystem's core promise:
//! a characterization ([`LimitTable`]) and a full serving trace
//! ([`ServeReport`](power_atm::serve::ServeReport)) must be byte-identical
//! whether driven through a [`NullRecorder`] or a [`RingRecorder`].

use power_atm::core::SupervisorConfig;
use power_atm::experiments::perfref::serve_brownout_sim;
use power_atm::faults::{droop_storm, CampaignHook};
use power_atm::prelude::*;
use power_atm::serve::ArrivalPattern;
use power_atm::telemetry::NullRecorder;
use power_atm::telemetry::{SimTime, TelemetryEvent};
use power_atm::workloads::realistic_set;

const SEED: u64 = 42;

#[test]
fn ring_recorder_overflow_keeps_newest_and_counts_drops() {
    let mut rec = RingRecorder::with_capacity(8);
    for i in 0..20u64 {
        rec.advance_to(SimTime::from_nanos(i));
        rec.record(TelemetryEvent::Droop(power_atm::telemetry::DroopEvent {
            t: rec.now(),
            core: CoreId::new(0, 0),
            dip: MegaHz::new(25.0),
        }));
    }
    assert_eq!(rec.events().len(), 8);
    assert_eq!(rec.recorded_events(), 20);
    assert_eq!(rec.dropped_events(), 12);
    // The survivors are the 8 newest, in order.
    let times: Vec<u64> = rec.events().iter().map(|e| e.time().nanos()).collect();
    assert_eq!(times, (12..20).collect::<Vec<u64>>());
}

/// Wraparound under a real workload: a characterization campaign that
/// emits far more events than the ring holds must still leave a coherent
/// account — newest events kept in order, `recorded = retained +
/// dropped`, counters unaffected by eviction, and the resulting
/// [`TelemetrySnapshot`] round-trips through its text form.
#[test]
fn ring_wraparound_during_a_campaign_keeps_a_coherent_snapshot() {
    let apps = realistic_set();
    let apps: Vec<&Workload> = apps.into_iter().take(2).collect();
    let cfg = CharactConfig::quick();

    // Reference: a ring big enough to keep everything.
    let mut sys_big = System::new(ChipConfig::power7_plus(SEED));
    let mut big = RingRecorder::with_capacity(1 << 20);
    let table_big = LimitTable::characterize(&mut sys_big, &apps, &cfg, &mut big);
    assert_eq!(big.dropped_events(), 0, "reference ring must not wrap");
    let total = big.recorded_events();

    // The same campaign through a ring that must wrap many times over.
    let capacity = 32;
    assert!(
        total > 10 * capacity as u64,
        "campaign must overflow the ring"
    );
    let mut sys_small = System::new(ChipConfig::power7_plus(SEED));
    let mut small = RingRecorder::with_capacity(capacity);
    let table_small = LimitTable::characterize(&mut sys_small, &apps, &cfg, &mut small);

    // Recording is observation, never perturbation — capacity included.
    assert_eq!(table_big, table_small, "ring capacity perturbed results");

    // Exactly-once event accounting across the wrap.
    assert_eq!(small.events().len(), capacity);
    assert_eq!(small.recorded_events(), total);
    assert_eq!(small.dropped_events(), total - capacity as u64);

    // The survivors are the newest slice of the reference stream, in
    // order, with monotone timestamps.
    let tail: Vec<String> = big
        .events()
        .iter()
        .skip(big.events().len() - capacity)
        .map(|e| format!("{e:?}"))
        .collect();
    let kept: Vec<String> = small.events().iter().map(|e| format!("{e:?}")).collect();
    assert_eq!(kept, tail, "eviction must drop oldest-first");
    let times: Vec<u64> = small.events().iter().map(|e| e.time().nanos()).collect();
    assert!(
        times.windows(2).all(|w| w[0] <= w[1]),
        "time went backwards"
    );

    // Counters live outside the ring: eviction never uncounts, and the
    // snapshot stays coherent through its canonical text form.
    assert_eq!(
        small.counter("charact.trials"),
        big.counter("charact.trials")
    );
    let snap = small.snapshot();
    assert!(snap.counter("charact.trials").unwrap_or(0) > 0);
    let parsed = TelemetrySnapshot::parse(&snap.render()).expect("canonical text parses");
    assert_eq!(parsed, snap);
}

#[test]
fn snapshot_round_trips_through_text() {
    let sys = System::new(ChipConfig::power7_plus(SEED));
    let mut mgr = AtmManager::deploy(sys, Governor::Default, &CharactConfig::quick());
    let mut rec = RingRecorder::with_capacity(1024);
    let _ = mgr.evaluate_pair(
        by_name("squeezenet").unwrap(),
        by_name("x264").unwrap(),
        Strategy::ManagedBalanced(QosTarget::improvement_pct(10.0)),
        &mut rec,
    );
    let snap = rec.snapshot();
    assert!(snap.counter("chip.ticks").unwrap_or(0) > 0);
    assert!(snap.gauge("manager.budget_w").is_some());
    let text = snap.render();
    let parsed = TelemetrySnapshot::parse(&text).expect("canonical text parses");
    assert_eq!(parsed, snap);
    assert_eq!(parsed.render(), text);
}

#[test]
fn characterization_is_identical_under_null_and_ring_recorders() {
    let apps = realistic_set();
    let apps: Vec<&Workload> = apps.into_iter().take(2).collect();
    let cfg = CharactConfig::quick();

    let mut plain_sys = System::new(ChipConfig::power7_plus(SEED));
    let plain = LimitTable::characterize(&mut plain_sys, &apps, &cfg, &mut NullRecorder);

    let mut ring_sys = System::new(ChipConfig::power7_plus(SEED));
    let mut rec = RingRecorder::with_capacity(512);
    let ringed = LimitTable::characterize(&mut ring_sys, &apps, &cfg, &mut rec);

    assert_eq!(plain, ringed, "recording must not perturb the limit table");
    assert!(rec.counter("charact.trials").unwrap_or(0) > 0);
}

/// A short uncapped serving run over a quick-deployed chip.
fn plain_sim() -> ServeSim {
    let sys = System::new(ChipConfig::power7_plus(SEED));
    let mgr = AtmManager::deploy(sys, Governor::Default, &CharactConfig::quick());
    let streams = vec![
        StreamSpec::critical(
            by_name("squeezenet").unwrap(),
            ArrivalPattern::Poisson {
                mean_gap: 150_000_000,
            },
            250_000_000,
        ),
        StreamSpec::background(
            by_name("x264").unwrap(),
            ArrivalPattern::Poisson {
                mean_gap: 20_000_000,
            },
        ),
    ];
    let cfg = ServeConfig::builder(SEED)
        .epochs(4)
        .epoch_ns(200_000_000)
        .chip_trial(Nanos::new(1_000.0))
        .build()
        .expect("valid config");
    ServeSim::new(mgr, cfg, streams).expect("valid serving setup")
}

/// The capped brownout run (drift and the online adapter closed) with a
/// supervisor attached and a droop storm raging through its harvests:
/// every stage of the epoch body acts and records.
fn stormy_brownout_sim() -> ServeSim {
    let mut sim = serve_brownout_sim(SEED);
    sim.set_supervisor(MarginSupervisor::new(SupervisorConfig::default()));
    sim.set_fault_hook(Box::new(CampaignHook::resolve(&droop_storm(), SEED, 0)));
    sim
}

#[test]
fn serving_is_identical_under_null_and_ring_recorders() {
    for (name, build) in [
        ("plain", plain_sim as fn() -> ServeSim),
        ("stormy brownout", stormy_brownout_sim),
    ] {
        let plain = build().run(2, &mut NullRecorder);
        let mut rec = RingRecorder::with_capacity(4096);
        let ringed = build().run(2, &mut rec);

        assert_eq!(
            plain, ringed,
            "{name}: recording must not perturb the serve report"
        );
        assert!(plain.completed > 0, "{name}: the run must serve traffic");

        // The recorder saw the traffic the report accounts for.
        let accepted = rec.counter("serve.accepted").unwrap_or(0);
        assert_eq!(accepted, ringed.completed, "{name}");
        let shed = rec.counter("serve.shed").unwrap_or(0);
        assert_eq!(shed, ringed.shed, "{name}");
        let hist = rec
            .histogram("serve.latency_ns")
            .expect("latency histogram");
        assert_eq!(hist.count(), ringed.completed, "{name}");
        // The clock followed the virtual serving timeline into the last
        // epoch.
        let last_epoch = u64::from(ringed.epochs - 1) * ringed.epoch_ns;
        assert!(rec.now().nanos() > last_epoch, "{name}");
        // The epoch body recorded its chip harvests through the same
        // recorder: the last epoch's harvest runs on the clock the
        // previous epoch's traffic left, and its CPM readouts are in the
        // ring.
        let prev_epoch = last_epoch - ringed.epoch_ns;
        assert!(
            rec.events()
                .iter()
                .any(|e| matches!(e, TelemetryEvent::Cpm(_)) && e.time().nanos() > prev_epoch),
            "{name}: no harvest telemetry in the ring"
        );
    }
}

#[test]
fn builders_and_errors_cover_the_redesigned_api() {
    // Workload lookup failures carry the name.
    let err = by_name("no-such-app").unwrap_err();
    assert!(matches!(err, AtmError::UnknownWorkload { .. }));
    assert!(err.to_string().contains("no-such-app"));

    // Builder validation replaces panics with typed errors.
    assert!(CharactConfig::builder().repeats(0).build().is_err());
    assert!(ServeConfig::builder(SEED).epochs(0).build().is_err());

    // serve_posture rejects an empty background set as a typed error.
    let sys = System::new(ChipConfig::power7_plus(SEED));
    let mut mgr = AtmManager::deploy(sys, Governor::Default, &CharactConfig::quick());
    let err = mgr
        .serve_posture(
            by_name("squeezenet").unwrap(),
            &[],
            QosTarget::improvement_pct(10.0),
            &mut NullRecorder,
        )
        .unwrap_err();
    assert!(matches!(err, AtmError::InvalidConfig { .. }));
}
