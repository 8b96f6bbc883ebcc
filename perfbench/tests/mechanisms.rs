//! Each workload, at its tiny size, under the default seed and a held-out
//! one, still exercises the mechanism it exists to measure, and its output
//! checks pass.

use atm_perfbench::characterize::Characterize;
use atm_perfbench::fleet_failover::FleetFailover;
use atm_perfbench::metrics::{Metrics, PER_LAYER};
use atm_perfbench::serve_brownout::ServeBrownout;
use atm_perfbench::spans::Spans;
use atm_perfbench::{Rep, Size, Workload};

/// The default seed and a seed held out from tuning.
const SEEDS: [u64; 2] = [42, 7];

fn checked_rep<W: Workload>(w: &W) -> Rep {
    let state = w.setup();
    let rep = w.rep(&state, &mut Spans::off());
    if let Err(why) = &rep.check {
        panic!("output check failed: {why}");
    }
    let again = w.rep(&state, &mut Spans::off());
    assert_eq!(rep.digest, again.digest, "a repetition changed the output");
    rep
}

fn layer(rep: &Rep, name: &str) -> f64 {
    rep.layer
        .get(name)
        .unwrap_or_else(|| panic!("{name} not reported"))
}

#[test]
fn characterize_campaign_simulates_points() {
    for seed in SEEDS {
        let rep = checked_rep(&Characterize::new(seed, Size::Tiny, 2));
        assert!(layer(&rep, "core.charact.points") > 0.0, "seed {seed}");
        assert!(
            rep.sim.get("mean_atm_mhz").is_some_and(|f| f > 0.0),
            "seed {seed}"
        );
    }
}

#[test]
fn brownout_binds_only_inside_its_window() {
    for seed in SEEDS {
        // The output check itself requires the cap to throttle inside the
        // window and never before it.
        let rep = checked_rep(&ServeBrownout::new(seed, Size::Tiny, 2));
        assert!(layer(&rep, "capping.throttle_steps") > 0.0, "seed {seed}");
        assert!(layer(&rep, "serve.completed") > 0.0, "seed {seed}");
    }
}

#[test]
fn fleet_chips_fail_retry_resurrect_and_adapt() {
    for seed in SEEDS {
        let rep = checked_rep(&FleetFailover::new(seed, Size::Tiny, 2));
        for name in [
            "fleet.hard_failed_chips",
            "fleet.retried",
            "fleet.resurrected_chips",
            "adapt.probes_run",
            "faults.hook_ticks",
        ] {
            assert!(layer(&rep, name) > 0.0, "seed {seed}: {name} is 0");
        }
    }
}

#[test]
fn fleet_probe_steps_identically_at_one_and_two_workers() {
    let w = FleetFailover::new(42, Size::Tiny, 2);
    let state = w.setup();
    let mut ledger = Metrics::zeroed(PER_LAYER);
    w.probe(&state, &mut ledger).expect("the fleet probes pass");
    for name in [
        "fleet.parallel_eff",
        "recovery.fleet_checkpoint_ms",
        "chip.run_fixed_us",
    ] {
        assert!(
            ledger.get(name).is_some_and(|v| v != 0.0),
            "{name} not measured"
        );
    }
}

#[test]
fn brownout_check_rejects_broken_laws() {
    use power_atm::telemetry::NullRecorder;

    let w = ServeBrownout::new(7, Size::Tiny, 2);
    let state = w.setup();
    let report = w.sim(&state).run(2, &mut NullRecorder);
    assert_eq!(w.check(&report), Ok(()));

    let mut early = report.clone();
    early.cap.as_mut().expect("capped").depth[0] = 1;
    assert!(
        w.check(&early).is_err(),
        "a cap binding before the window passed"
    );

    let mut idle = report.clone();
    let cap = idle.cap.as_mut().expect("capped");
    cap.depth.iter_mut().for_each(|d| *d = 0);
    cap.throttle_steps = 0;
    assert!(w.check(&idle).is_err(), "a cap that never bound passed");

    let mut overfull = report;
    let stream = &mut overfull.streams[1];
    stream.shed = stream.offered + 1 - stream.completed;
    assert!(
        w.check(&overfull).is_err(),
        "more finished than offered passed"
    );
}

#[test]
fn fleet_check_rejects_broken_laws() {
    use power_atm::fleet::FleetSim;

    let report = FleetSim::new(FleetFailover::fleet(7, 16, 30))
        .expect("valid fleet")
        .run(2);
    assert_eq!(FleetFailover::check(&report), Ok(()));

    let mut leaky = report.clone();
    leaky.routing.generated += 1;
    assert!(
        FleetFailover::check(&leaky).is_err(),
        "unbalanced books passed"
    );

    let mut hot = report;
    hot.energy.total_pj += 1;
    assert!(
        FleetFailover::check(&hot).is_err(),
        "unconserved energy passed"
    );
}
