//! The per-cell measurement machinery: build an algorithm, feed it a
//! stream, take the paper's five measurements (§4.1.2).

use std::time::Instant;

use sqs_core::{
    gk::{GkAdaptive, GkArray, GkTheory},
    mrl98::Mrl98,
    mrl99::Mrl99,
    qdigest::QDigest,
    random::RandomSketch,
    sampled::ReservoirQuantiles,
    QuantileSummary,
};
use sqs_turnstile::{new_dcm, new_dcs, new_rss, PostProcessed, TurnstileQuantiles};
use sqs_util::exact::{observed_errors, probe_phis, ExactQuantiles};
use sqs_util::rng::SplitMix64;
use sqs_util::space::SpaceTracker;

/// How many evenly-spaced points along the stream the space tracker
/// samples (§4.1.2 measures the max over time).
const SPACE_SAMPLES: usize = 64;

/// The cash-register algorithms of the study (§2), by paper name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CashAlgo {
    /// GK with the analyzed banding COMPRESS.
    GkTheory,
    /// GK with the heap-located one-removal-per-insert heuristic.
    GkAdaptive,
    /// The buffered array GK (journal's new variant).
    GkArray,
    /// The paper's simplified randomized summary.
    Random,
    /// Manku–Rajagopalan–Lindsay '99.
    Mrl99,
    /// Manku–Rajagopalan–Lindsay '98 (deterministic, needs n hint).
    Mrl98,
    /// The fixed-universe q-digest.
    FastQDigest,
    /// The reservoir-sampling baseline.
    Reservoir,
}

impl CashAlgo {
    /// All algorithms, in the paper's usual legend order.
    pub const ALL: [CashAlgo; 8] = [
        CashAlgo::GkTheory,
        CashAlgo::GkAdaptive,
        CashAlgo::GkArray,
        CashAlgo::Random,
        CashAlgo::Mrl99,
        CashAlgo::Mrl98,
        CashAlgo::FastQDigest,
        CashAlgo::Reservoir,
    ];

    /// The paper's headline competitors (Figure 5's legend).
    pub const HEADLINE: [CashAlgo; 5] = [
        CashAlgo::GkAdaptive,
        CashAlgo::GkArray,
        CashAlgo::Random,
        CashAlgo::Mrl99,
        CashAlgo::FastQDigest,
    ];

    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            CashAlgo::GkTheory => "GKTheory",
            CashAlgo::GkAdaptive => "GKAdaptive",
            CashAlgo::GkArray => "GKArray",
            CashAlgo::Random => "Random",
            CashAlgo::Mrl99 => "MRL99",
            CashAlgo::Mrl98 => "MRL98",
            CashAlgo::FastQDigest => "FastQDigest",
            CashAlgo::Reservoir => "Reservoir",
        }
    }

    /// Whether the algorithm is randomized (needs trial averaging).
    pub fn randomized(&self) -> bool {
        matches!(
            self,
            CashAlgo::Random | CashAlgo::Mrl99 | CashAlgo::Reservoir
        )
    }

    /// Instantiates the summary. `log_u` parameterizes the fixed-
    /// universe q-digest; `n_hint` parameterizes MRL98; `seed` the
    /// randomized algorithms.
    pub fn build(
        &self,
        eps: f64,
        log_u: u32,
        n_hint: u64,
        seed: u64,
    ) -> Box<dyn QuantileSummary<u64>> {
        match self {
            CashAlgo::GkTheory => Box::new(GkTheory::new(eps)),
            CashAlgo::GkAdaptive => Box::new(GkAdaptive::new(eps)),
            CashAlgo::GkArray => Box::new(GkArray::new(eps)),
            CashAlgo::Random => Box::new(RandomSketch::new(eps, seed)),
            CashAlgo::Mrl99 => Box::new(Mrl99::new(eps, seed)),
            CashAlgo::Mrl98 => Box::new(Mrl98::new(eps, n_hint.max(1))),
            CashAlgo::FastQDigest => Box::new(QDigest::new(eps, log_u)),
            CashAlgo::Reservoir => Box::new(ReservoirQuantiles::new(eps, seed)),
        }
    }
}

/// The five measurements for one (algorithm × data × ε) cell,
/// averaged over trials.
#[derive(Debug, Clone)]
pub struct CashCell {
    /// Algorithm name.
    pub algo: &'static str,
    /// The ε parameter the algorithm was built with.
    pub eps: f64,
    /// Stream length.
    pub n: usize,
    /// Observed maximum error (KS divergence), §4.1.2.
    pub max_err: f64,
    /// Observed average error, §4.1.2.
    pub avg_err: f64,
    /// Maximum space over time, bytes (paper accounting).
    pub space_bytes: usize,
    /// Amortized wall-clock update time, nanoseconds per element.
    pub update_ns: f64,
}

/// Runs one cash-register cell: feeds `data`, samples space, measures
/// update time, probes the φ grid, scores against the exact oracle.
///
/// Randomized algorithms are averaged over `trials` seeded runs
/// (deterministic ones run once regardless).
pub fn run_cash_cell(
    algo: CashAlgo,
    data: &[u64],
    eps: f64,
    log_u: u32,
    trials: usize,
    seed: u64,
) -> CashCell {
    assert!(!data.is_empty(), "empty stream");
    let trials = if algo.randomized() { trials.max(1) } else { 1 };
    let oracle = ExactQuantiles::new(data.to_vec());
    let stride = (data.len() / SPACE_SAMPLES).max(1);

    let mut seeds = SplitMix64::new(seed);
    let mut max_err_sum = 0.0;
    let mut avg_err_sum = 0.0;
    let mut space_max = 0usize;
    let mut ns_sum = 0.0;
    for _ in 0..trials {
        let mut s = algo.build(eps, log_u, data.len() as u64, seeds.next_u64());
        let mut tracker = SpaceTracker::new();
        let t0 = Instant::now();
        for chunk in data.chunks(stride) {
            // Scalar `insert`, as the paper's update-time figures time
            // it — not the batched path.
            for &x in chunk {
                s.insert(x);
            }
            tracker.observe(s.space_bytes());
        }
        ns_sum += t0.elapsed().as_nanos() as f64 / data.len() as f64;
        space_max = space_max.max(tracker.max_bytes());

        let answers = s.quantile_grid(eps);
        assert!(!answers.is_empty(), "nonempty stream must answer the grid");
        let (me, ae) = observed_errors(&oracle, &answers);
        max_err_sum += me;
        avg_err_sum += ae;
    }
    CashCell {
        algo: algo.name(),
        eps,
        n: data.len(),
        max_err: max_err_sum / trials as f64,
        avg_err: avg_err_sum / trials as f64,
        space_bytes: space_max,
        update_ns: ns_sum / trials as f64,
    }
}

/// Runs a performance-only cell over a streaming generator (no oracle,
/// no materialization) — used by the stream-length scaling experiment
/// (Figure 7) where `n` outgrows memory.
pub fn run_cash_perf(
    algo: CashAlgo,
    stream: impl Iterator<Item = u64>,
    n: usize,
    eps: f64,
    log_u: u32,
    seed: u64,
) -> CashCell {
    let mut s = algo.build(eps, log_u, n as u64, seed);
    let mut tracker = SpaceTracker::new();
    let stride = (n / SPACE_SAMPLES).max(1);
    let t0 = Instant::now();
    for (i, x) in stream.take(n).enumerate() {
        s.insert(x);
        if i % stride == 0 {
            tracker.observe(s.space_bytes());
        }
    }
    let ns = t0.elapsed().as_nanos() as f64 / n as f64;
    tracker.observe(s.space_bytes());
    CashCell {
        algo: algo.name(),
        eps,
        n,
        max_err: f64::NAN,
        avg_err: f64::NAN,
        space_bytes: tracker.max_bytes(),
        update_ns: ns,
    }
}

/// The turnstile algorithms of the study (§3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TurnstileAlgo {
    /// Dyadic Count-Min.
    Dcm,
    /// Dyadic Count-Sketch (paper's new variant).
    Dcs,
    /// DCS + OLS post-processing with truncation constant η.
    Post(f64),
    /// Dyadic random-subset-sum.
    Rss,
}

impl TurnstileAlgo {
    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            TurnstileAlgo::Dcm => "DCM",
            TurnstileAlgo::Dcs => "DCS",
            TurnstileAlgo::Post(_) => "Post",
            TurnstileAlgo::Rss => "RSS",
        }
    }
}

/// Measurements for one turnstile cell.
#[derive(Debug, Clone)]
pub struct TurnstileCell {
    /// Algorithm name.
    pub algo: &'static str,
    /// The ε parameter.
    pub eps: f64,
    /// Stream length (insertions).
    pub n: usize,
    /// Observed maximum error.
    pub max_err: f64,
    /// Observed average error.
    pub avg_err: f64,
    /// Structure size, bytes (fixed at construction for sketches).
    pub space_bytes: usize,
    /// Amortized update time, ns/element.
    pub update_ns: f64,
}

/// Runs one turnstile cell on an insert-only stream (§4.3: deletions
/// don't affect accuracy, so accuracy cells use insertions; deletion
/// correctness is covered by tests and the churn throughput bench).
pub fn run_turnstile_cell(
    algo: TurnstileAlgo,
    data: &[u64],
    eps: f64,
    log_u: u32,
    trials: usize,
    seed: u64,
) -> TurnstileCell {
    assert!(!data.is_empty(), "empty stream");
    let oracle = ExactQuantiles::new(data.to_vec());
    let phis = probe_phis(eps);

    let mut seeds = SplitMix64::new(seed);
    let mut max_err_sum = 0.0;
    let mut avg_err_sum = 0.0;
    let mut space = 0usize;
    let mut ns_sum = 0.0;
    let trials = trials.max(1);
    for _ in 0..trials {
        let s = seeds.next_u64();
        let (me, ae, sp, ns) = run_turnstile_once(algo, data, eps, log_u, s, &oracle, &phis);
        max_err_sum += me;
        avg_err_sum += ae;
        space = space.max(sp);
        ns_sum += ns;
    }
    TurnstileCell {
        algo: algo.name(),
        eps,
        n: data.len(),
        max_err: max_err_sum / trials as f64,
        avg_err: avg_err_sum / trials as f64,
        space_bytes: space,
        update_ns: ns_sum / trials as f64,
    }
}

fn run_turnstile_once(
    algo: TurnstileAlgo,
    data: &[u64],
    eps: f64,
    log_u: u32,
    seed: u64,
    oracle: &ExactQuantiles<u64>,
    phis: &[f64],
) -> (f64, f64, usize, f64) {
    use sqs_util::SpaceUsage;
    match algo {
        TurnstileAlgo::Dcm => {
            let mut s = new_dcm(eps, log_u, seed);
            let t0 = Instant::now();
            for &x in data {
                s.insert(x);
            }
            let ns = t0.elapsed().as_nanos() as f64 / data.len() as f64;
            let answers: Vec<(f64, u64)> = phis
                .iter()
                .map(|&p| {
                    (
                        p,
                        s.quantile(p)
                            .expect("harness invariant: summary nonempty after feeding the stream"),
                    )
                })
                .collect();
            let (me, ae) = observed_errors(oracle, &answers);
            (me, ae, s.space_bytes(), ns)
        }
        TurnstileAlgo::Dcs => {
            let mut s = new_dcs(eps, log_u, seed);
            let t0 = Instant::now();
            for &x in data {
                s.insert(x);
            }
            let ns = t0.elapsed().as_nanos() as f64 / data.len() as f64;
            let answers: Vec<(f64, u64)> = phis
                .iter()
                .map(|&p| {
                    (
                        p,
                        s.quantile(p)
                            .expect("harness invariant: summary nonempty after feeding the stream"),
                    )
                })
                .collect();
            let (me, ae) = observed_errors(oracle, &answers);
            (me, ae, s.space_bytes(), ns)
        }
        TurnstileAlgo::Post(eta) => {
            let mut s = new_dcs(eps, log_u, seed);
            let t0 = Instant::now();
            for &x in data {
                s.insert(x);
            }
            let ns = t0.elapsed().as_nanos() as f64 / data.len() as f64;
            let post = PostProcessed::new(&s, eps, eta);
            let answers: Vec<(f64, u64)> = phis
                .iter()
                .map(|&p| {
                    (
                        p,
                        post.quantile(p)
                            .expect("harness invariant: summary nonempty after feeding the stream"),
                    )
                })
                .collect();
            let (me, ae) = observed_errors(oracle, &answers);
            // Post adds no streaming space or time (§4.3.4); its size
            // is the DCS it refines.
            (me, ae, s.space_bytes(), ns)
        }
        TurnstileAlgo::Rss => {
            let mut s = new_rss(eps, log_u, seed);
            let t0 = Instant::now();
            for &x in data {
                s.insert(x);
            }
            let ns = t0.elapsed().as_nanos() as f64 / data.len() as f64;
            let answers: Vec<(f64, u64)> = phis
                .iter()
                .map(|&p| {
                    (
                        p,
                        s.quantile(p)
                            .expect("harness invariant: summary nonempty after feeding the stream"),
                    )
                })
                .collect();
            let (me, ae) = observed_errors(oracle, &answers);
            (me, ae, s.space_bytes(), ns)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqs_data::Uniform;

    #[test]
    fn cash_cell_sane_for_each_algo() {
        let data: Vec<u64> = Uniform::new(20, 1).take(20_000).collect();
        for algo in CashAlgo::ALL {
            let cell = run_cash_cell(algo, &data, 0.05, 20, 2, 7);
            assert!(
                cell.max_err <= 0.15,
                "{}: max_err {}",
                cell.algo,
                cell.max_err
            );
            assert!(cell.avg_err <= cell.max_err + 1e-12);
            assert!(cell.space_bytes > 0);
            assert!(cell.update_ns > 0.0);
            assert_eq!(cell.n, 20_000);
        }
    }

    #[test]
    fn deterministic_algos_run_single_trial() {
        assert!(!CashAlgo::GkArray.randomized());
        assert!(CashAlgo::Random.randomized());
    }

    #[test]
    fn perf_cell_streams_without_materializing() {
        let cell = run_cash_perf(CashAlgo::Random, Uniform::new(32, 2), 100_000, 0.01, 32, 3);
        assert!(cell.max_err.is_nan());
        assert!(cell.space_bytes > 0);
        assert_eq!(cell.n, 100_000);
    }

    #[test]
    fn turnstile_cell_sane() {
        let data: Vec<u64> = Uniform::new(16, 4).take(20_000).collect();
        for algo in [
            TurnstileAlgo::Dcm,
            TurnstileAlgo::Dcs,
            TurnstileAlgo::Post(0.1),
        ] {
            let cell = run_turnstile_cell(algo, &data, 0.05, 16, 2, 9);
            assert!(cell.max_err <= 0.05, "{}: {}", cell.algo, cell.max_err);
            assert!(cell.space_bytes > 0);
        }
    }
}
