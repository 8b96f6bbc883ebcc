//! Seeded open-loop arrival generation.
//!
//! Every stream's arrival trace is a pure function of `(root seed, stream
//! index)`: each stream gets its own splitmix-derived [`StdRng`] and draws
//! exponential inter-arrival gaps (plus one uniform service-jitter draw
//! per request) completely independently of every other stream.
//! [`StreamArrivals`] draws one stream's trace lazily, and
//! [`MergedArrivals`] merges the streams on the fly into one timeline
//! ordered by `(time, stream, seq)`, so the serving loop never holds more
//! than one upcoming request per stream.

use std::iter::{FusedIterator, Peekable};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stream::{ArrivalPattern, StreamSpec};

/// One request on the open-loop timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Arrival time (virtual ns from trace start).
    pub time: u64,
    /// Index of the owning stream in the sim's stream list.
    pub stream: usize,
    /// Per-stream sequence number.
    pub seq: u32,
    /// Uniform draw in `[0, 1)` for the request's service-time jitter.
    pub draw: f64,
}

impl Request {
    /// The timeline order, `(time, stream, seq)`: unique per request, so
    /// every merge of the same traces yields the same timeline.
    #[must_use]
    pub fn key(&self) -> (u64, usize, u32) {
        (self.time, self.stream, self.seq)
    }
}

/// Derives the per-stream RNG seed from the root seed (splitmix64 of the
/// stream index, xored in — streams stay decorrelated even for adjacent
/// root seeds).
fn stream_seed(root: u64, stream: usize) -> u64 {
    let mut z = (stream as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    root ^ (z ^ (z >> 31))
}

/// Exponential gap with the given mean, floored at 1 ns.
fn exp_gap(rng: &mut StdRng, mean: u64) -> u64 {
    let u: f64 = rng.gen();
    let gap = -(mean as f64) * (1.0_f64 - u).ln();
    (gap.ceil() as u64).max(1)
}

/// One stream's arrivals over `[0, horizon)`, drawn lazily in time
/// order: the stream's own RNG, clock and sequence counter advance one
/// request per [`next`](Iterator::next), with exactly the draws
/// [`generate`] makes.
#[derive(Debug, Clone)]
pub struct StreamArrivals {
    rng: StdRng,
    pattern: ArrivalPattern,
    stream: usize,
    horizon: u64,
    t: u64,
    seq: u32,
}

impl StreamArrivals {
    /// The arrivals of stream `stream` (its index in the sim's stream
    /// list) under root seed `root_seed`.
    #[must_use]
    pub fn new(spec: &StreamSpec, root_seed: u64, stream: usize, horizon: u64) -> Self {
        StreamArrivals {
            rng: StdRng::seed_from_u64(stream_seed(root_seed, stream)),
            pattern: spec.pattern,
            stream,
            horizon,
            t: 0,
            seq: 0,
        }
    }
}

impl Iterator for StreamArrivals {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        // Past the horizon the clock stays put, so the stream stays
        // exhausted without further draws.
        if self.t >= self.horizon {
            return None;
        }
        let mean = match self.pattern {
            ArrivalPattern::Poisson { mean_gap } => mean_gap,
            ArrivalPattern::Bursty {
                mean_gap,
                burst_gap,
                phase,
            } => {
                if (self.t / phase).is_multiple_of(2) {
                    mean_gap
                } else {
                    burst_gap
                }
            }
        };
        self.t = self.t.saturating_add(exp_gap(&mut self.rng, mean));
        if self.t >= self.horizon {
            return None;
        }
        let draw: f64 = self.rng.gen();
        let request = Request {
            time: self.t,
            stream: self.stream,
            seq: self.seq,
            draw,
        };
        self.seq += 1;
        Some(request)
    }
}

impl FusedIterator for StreamArrivals {}

/// Generates one stream's trace over `[0, horizon)` ns.
#[must_use]
pub fn generate(spec: &StreamSpec, root_seed: u64, stream: usize, horizon: u64) -> Vec<Request> {
    StreamArrivals::new(spec, root_seed, stream, horizon).collect()
}

/// Every stream's arrivals merged lazily into one `(time, stream, seq)`
/// timeline. Each stream's trace is already in that order and the keys
/// are unique (each carries its stream index), so repeatedly taking the
/// smallest head among the streams yields exactly the stable sort of
/// all traces — while holding one pending request per stream instead of
/// the whole trace.
#[derive(Debug, Clone)]
pub struct MergedArrivals {
    sources: Vec<Peekable<StreamArrivals>>,
}

impl MergedArrivals {
    /// The merged timeline of `streams` over `[0, horizon)` ns.
    #[must_use]
    pub fn new(streams: &[StreamSpec], root_seed: u64, horizon: u64) -> Self {
        let sources = streams
            .iter()
            .enumerate()
            .map(|(i, s)| StreamArrivals::new(s, root_seed, i, horizon).peekable())
            .collect();
        MergedArrivals { sources }
    }
}

impl Iterator for MergedArrivals {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let (i, _) = self
            .sources
            .iter_mut()
            .enumerate()
            .filter_map(|(i, s)| s.peek().map(|r| (i, r.key())))
            .min_by_key(|&(_, key)| key)?;
        self.sources[i].next()
    }
}

impl FusedIterator for MergedArrivals {}

#[cfg(test)]
mod tests {
    use super::*;
    use atm_workloads::by_name;
    use proptest::prelude::*;

    fn specs() -> Vec<StreamSpec> {
        let sq = by_name("squeezenet").unwrap();
        let x264 = by_name("x264").unwrap();
        vec![
            StreamSpec::critical(
                sq,
                ArrivalPattern::Poisson {
                    mean_gap: 90_000_000,
                },
                0,
            ),
            StreamSpec::background(
                x264,
                ArrivalPattern::Bursty {
                    mean_gap: 30_000_000,
                    burst_gap: 8_000_000,
                    phase: 250_000_000,
                },
            ),
        ]
    }

    /// The merge oracle: every stream's trace materialized, concatenated
    /// and sorted by `(time, stream, seq)`.
    fn generate_all(streams: &[StreamSpec], root_seed: u64, horizon: u64) -> Vec<Request> {
        let mut merged: Vec<Request> = streams
            .iter()
            .enumerate()
            .flat_map(|(i, s)| generate(s, root_seed, i, horizon))
            .collect();
        merged.sort_by_key(Request::key);
        merged
    }

    fn merged(streams: &[StreamSpec], root_seed: u64, horizon: u64) -> Vec<Request> {
        MergedArrivals::new(streams, root_seed, horizon).collect()
    }

    #[test]
    fn traces_are_sorted_and_seeded() {
        let a = merged(&specs(), 7, 2_000_000_000);
        assert!(!a.is_empty());
        assert!(a.windows(2).all(|w| w[0].key() < w[1].key()));
        assert!(a.iter().all(|r| r.time < 2_000_000_000 && r.draw < 1.0));
        assert_eq!(a, merged(&specs(), 7, 2_000_000_000));
        assert_ne!(a, merged(&specs(), 8, 2_000_000_000));
    }

    #[test]
    fn an_arrival_on_the_horizon_is_excluded() {
        let long = generate_all(&specs(), 42, 3_000_000_000);
        let edge = long[long.len() / 2];
        let lazy = merged(&specs(), 42, edge.time);
        assert_eq!(lazy, generate_all(&specs(), 42, edge.time));
        let before: Vec<Request> = long
            .iter()
            .copied()
            .filter(|r| r.time < edge.time)
            .collect();
        assert_eq!(
            lazy, before,
            "the horizon cuts the trace at `time < horizon`"
        );
        assert!(!lazy.contains(&edge));
        let mut stream = StreamArrivals::new(&specs()[edge.stream], 42, edge.stream, edge.time);
        assert_eq!(stream.by_ref().count() as u32, edge.seq);
        assert_eq!(stream.next(), None, "an exhausted stream stays exhausted");
    }

    #[test]
    fn empty_horizon_and_no_streams_yield_nothing() {
        assert_eq!(merged(&specs(), 42, 0), Vec::new());
        assert_eq!(merged(&[], 42, 1_000_000_000), Vec::new());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The lazy k-way merge yields exactly the sorted timeline of the
        /// materialized traces, for Poisson and bursty streams alike.
        #[test]
        fn lazy_merge_equals_the_sorted_timeline(
            seed in any::<u64>(),
            gaps in prop::collection::vec(
                (100_000u64..5_000_000, 20_000u64..2_000_000, 1u64..50_000_000, any::<bool>()),
                1..5,
            ),
            horizon in 0u64..200_000_000,
        ) {
            let streams: Vec<StreamSpec> = gaps
                .iter()
                .enumerate()
                .map(|(i, &(mean_gap, burst_gap, phase, bursty))| {
                    let pattern = if bursty {
                        ArrivalPattern::Bursty { mean_gap, burst_gap, phase }
                    } else {
                        ArrivalPattern::Poisson { mean_gap }
                    };
                    let workload = by_name("x264").unwrap();
                    if i == 0 {
                        StreamSpec::critical(workload, pattern, 0)
                    } else {
                        StreamSpec::background(workload, pattern)
                    }
                })
                .collect();
            let oracle = generate_all(&streams, seed, horizon);
            prop_assert_eq!(merged(&streams, seed, horizon), oracle.clone());
            // Cut again exactly on an arrival: it must fall outside.
            if let Some(edge) = oracle.get(oracle.len() / 2) {
                let cut = merged(&streams, seed, edge.time);
                prop_assert_eq!(cut.clone(), generate_all(&streams, seed, edge.time));
                prop_assert!(cut.iter().all(|r| r.time < edge.time));
            }
        }
    }

    #[test]
    fn poisson_rate_is_roughly_the_mean() {
        let spec = StreamSpec::background(
            by_name("gcc").unwrap(),
            ArrivalPattern::Poisson {
                mean_gap: 1_000_000,
            },
        );
        let trace = generate(&spec, 3, 0, 1_000_000_000);
        let n = trace.len() as f64; // expect ~1000
        assert!((800.0..1200.0).contains(&n), "{n} arrivals");
    }

    #[test]
    fn bursts_arrive_faster_than_calm_phases() {
        let spec = StreamSpec::background(
            by_name("x264").unwrap(),
            ArrivalPattern::Bursty {
                mean_gap: 4_000_000,
                burst_gap: 400_000,
                phase: 100_000_000,
            },
        );
        let trace = generate(&spec, 11, 0, 1_000_000_000);
        let (mut calm, mut burst) = (0u64, 0u64);
        for r in &trace {
            if (r.time / 100_000_000).is_multiple_of(2) {
                calm += 1;
            } else {
                burst += 1;
            }
        }
        assert!(burst > calm * 3, "burst {burst} vs calm {calm}");
    }
}
