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
use sqs_sketch::FrequencySketch;
use sqs_turnstile::{new_dgm, new_rss, Dcm, Dcs, PostProcessed};
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
/// averaged over trials — the same for both models (§4.1.2).
#[derive(Debug, Clone)]
pub struct Cell {
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
) -> Cell {
    let trials = if algo.randomized() { trials } else { 1 };
    let n_hint = data.len() as u64;
    measure(
        algo.name(),
        data,
        eps,
        trials,
        &mut SplitMix64::new(seed),
        |seed| algo.build(eps, log_u, n_hint, seed),
        |s| s.quantile_grid(eps),
    )
}

/// The one measurement loop: per trial, builds a summary from the next
/// seed, feeds `data` by scalar `insert` (as the paper's update-time
/// figures time it — not the batched path) while sampling its space,
/// then scores `read`'s `(φ, answer)` grid against the exact oracle.
///
/// # Panics
/// Panics on an empty stream, or if `read` answers nothing.
pub fn measure<S: QuantileSummary<u64> + ?Sized>(
    algo: &'static str,
    data: &[u64],
    eps: f64,
    trials: usize,
    seeds: &mut SplitMix64,
    mut build: impl FnMut(u64) -> Box<S>,
    mut read: impl FnMut(&mut S) -> Vec<(f64, u64)>,
) -> Cell {
    assert!(!data.is_empty(), "empty stream");
    let trials = trials.max(1);
    let oracle = ExactQuantiles::new(data.to_vec());
    let stride = (data.len() / SPACE_SAMPLES).max(1);

    let mut max_err_sum = 0.0;
    let mut avg_err_sum = 0.0;
    let mut space_max = 0usize;
    let mut ns_sum = 0.0;
    for _ in 0..trials {
        let mut s = build(seeds.next_u64());
        let mut tracker = SpaceTracker::new();
        let t0 = Instant::now();
        for chunk in data.chunks(stride) {
            for &x in chunk {
                s.insert(x);
            }
            tracker.observe(s.space_bytes());
        }
        ns_sum += t0.elapsed().as_nanos() as f64 / data.len() as f64;
        space_max = space_max.max(tracker.max_bytes());

        let answers = read(&mut s);
        assert!(!answers.is_empty(), "nonempty stream must answer the grid");
        let (me, ae) = observed_errors(&oracle, &answers);
        max_err_sum += me;
        avg_err_sum += ae;
    }
    Cell {
        algo,
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
) -> Cell {
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
    Cell {
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
    /// Dyadic CR-precis (deterministic).
    Dgm,
}

impl TurnstileAlgo {
    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            TurnstileAlgo::Dcm => "DCM",
            TurnstileAlgo::Dcs => "DCS",
            TurnstileAlgo::Post(_) => "Post",
            TurnstileAlgo::Rss => "RSS",
            TurnstileAlgo::Dgm => "DGM",
        }
    }

    /// Whether the algorithm is randomized (needs trial averaging).
    pub fn randomized(&self) -> bool {
        *self != TurnstileAlgo::Dgm
    }

    /// Instantiates the summary over `[0, 2^log_u)`. Post streams into
    /// the DCS it refines, so it builds that.
    pub fn build(&self, eps: f64, log_u: u32, seed: u64) -> Box<dyn QuantileSummary<u64>> {
        match self {
            TurnstileAlgo::Dcm => Box::new(Dcm::dcm(eps, log_u, seed)),
            TurnstileAlgo::Dcs | TurnstileAlgo::Post(_) => Box::new(Dcs::dcs(eps, log_u, seed)),
            TurnstileAlgo::Rss => Box::new(new_rss(eps, log_u, seed)),
            TurnstileAlgo::Dgm => Box::new(new_dgm(eps, log_u)),
        }
    }
}

/// Runs one turnstile cell on an insert-only stream (§4.3: deletions
/// don't affect accuracy, so accuracy cells use insertions; deletion
/// correctness is covered by tests and the churn throughput bench),
/// through the cash-register cells' loop. Randomized algorithms are
/// averaged over `trials` seeded runs; DGM runs once.
pub fn run_turnstile_cell(
    algo: TurnstileAlgo,
    data: &[u64],
    eps: f64,
    log_u: u32,
    trials: usize,
    seed: u64,
) -> Cell {
    let name = algo.name();
    let trials = if algo.randomized() { trials } else { 1 };
    let seeds = &mut SplitMix64::new(seed);
    match algo {
        // Post is a read overlay on a DCS: it adds no streaming space
        // or time (§4.3.4), only another answer to the grid.
        TurnstileAlgo::Post(eta) => measure(
            name,
            data,
            eps,
            trials,
            seeds,
            |seed| Box::new(Dcs::dcs(eps, log_u, seed)),
            |dcs| post_grid(&PostProcessed::new(dcs, eps, eta), eps),
        ),
        _ => measure(
            name,
            data,
            eps,
            trials,
            seeds,
            |seed| algo.build(eps, log_u, seed),
            |s| s.quantile_grid(eps),
        ),
    }
}

/// Post's answers on the probe grid φ = ε, 2ε, …, 1−ε, as
/// [`QuantileSummary::quantile_grid`] pairs them.
pub fn post_grid<S: FrequencySketch>(post: &PostProcessed<'_, S>, eps: f64) -> Vec<(f64, u64)> {
    probe_phis(eps)
        .into_iter()
        .filter_map(|phi| post.quantile(phi).map(|q| (phi, q)))
        .collect()
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
