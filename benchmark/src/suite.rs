//! `paper_suite`: the paper's own axes on one thread, no sockets.
//!
//! Each pass feeds the same seeded stream to every algorithm through
//! the scalar `insert`, then asks for a 99-φ `quantiles` grid, and
//! records update time, query time, space and observed rank error —
//! the four measurements of the paper's Fig. 5 and Fig. 10. Passes
//! repeat until the run's time is up; every time reported is a
//! per-algorithm lower quartile over the passes, space and error a
//! median over all of them.

use std::time::Instant;

use sqs_core::gk::{GkAdaptive, GkArray};
use sqs_core::mrl99::Mrl99;
use sqs_core::qdigest::QDigest;
use sqs_core::random::RandomSketch;
use sqs_core::QuantileSummary;
use sqs_turnstile::TurnstileSummary;

use crate::gen::{derive_seed, interval_distance, phi_grid, Stream};
use crate::report::{Outcome, RunOpts, SUITE_ALGOS};
use crate::trace::{self, geometric_mean, median, quantile, Recorder, Samples};

/// Rows per pass. The paper streams far more; this is what lets six
/// passes of all seven algorithms fit a twenty-second run (q-digest
/// alone takes ~2 µs per row).
pub const ROWS: usize = 1 << 19;
pub const LOG_U: u32 = 32;
pub const EPS: f64 = 1e-3;
/// Insert time is sampled per block of this many scalar inserts, the
/// size of a service insert frame.
const BLOCK: usize = 4096;
const SETUP_REPEATS: usize = 9;

fn build(algo: &str, seed: u64) -> Box<dyn QuantileSummary<u64>> {
    match algo {
        "gkadaptive" => Box::new(GkAdaptive::new(EPS)),
        "gkarray" => Box::new(GkArray::new(EPS)),
        "random" => Box::new(RandomSketch::new(EPS, seed)),
        "mrl99" => Box::new(Mrl99::new(EPS, seed)),
        "qdigest" => Box::new(QDigest::new(EPS, LOG_U)),
        "dcm" => Box::new(TurnstileSummary::dcm(EPS, LOG_U, seed)),
        "dcs" => Box::new(TurnstileSummary::dcs(EPS, LOG_U, seed)),
        other => unreachable!("unknown suite algorithm {other}"),
    }
}

/// One algorithm's measurements in one pass.
struct AlgoPass {
    insert_secs: f64,
    block_ns: Vec<u64>,
    grid_ns: u64,
    space_bytes: usize,
    /// Largest rank error over the grid, as a multiple of `ε·n`.
    err_over_eps: f64,
}

fn run_algo(
    (_, algo, span): (&str, &str, &'static str),
    seed: u64,
    stream: &Stream,
    pass: u64,
    rec: &mut Recorder,
) -> AlgoPass {
    let phis = phi_grid();
    let mut summary = build(algo, seed);
    let mut block_ns = Vec::with_capacity(ROWS / BLOCK);
    rec.enter(span, pass);
    let began = Instant::now();
    for block in stream.values().chunks(BLOCK) {
        rec.enter("insert_block", pass);
        let t = Instant::now();
        for &x in block {
            summary.insert(x);
        }
        block_ns.push(t.elapsed().as_nanos() as u64);
        rec.exit();
    }
    let insert_secs = began.elapsed().as_secs_f64();
    rec.enter("grid_query", pass);
    let t = Instant::now();
    let answers = std::hint::black_box(summary.quantiles(&phis));
    let grid_ns = t.elapsed().as_nanos() as u64;
    rec.exit();
    rec.exit();

    let n = stream.len() as u64;
    let err = match answers.iter().copied().collect::<Option<Vec<u64>>>() {
        Some(xs) => phis
            .iter()
            .zip(stream.ranks_after(n, &xs))
            .map(|(&phi, (lt, le))| interval_distance(phi * n as f64, lt, le))
            .fold(0.0, f64::max),
        None => n as f64,
    };
    AlgoPass {
        insert_secs,
        block_ns,
        grid_ns,
        space_bytes: summary.space_bytes(),
        err_over_eps: err / (EPS * n as f64),
    }
}

/// Every pass of every algorithm, in the order of [`SUITE_ALGOS`].
pub struct Passes {
    per_algo: Vec<Vec<AlgoPass>>,
    /// Wall time of each pass and whether spans were recorded in it.
    pass_secs: Vec<(f64, bool)>,
}

/// Runs passes until `seconds` have gone by (always at least one). With
/// `rec`, every other pass records spans and there are at least two, so
/// that the two kinds of pass can be compared.
pub fn run_passes(
    stream: &Stream,
    seed: u64,
    seconds: f64,
    mut rec: Option<&mut Recorder>,
) -> Passes {
    let mut passes = Passes {
        per_algo: SUITE_ALGOS.iter().map(|_| Vec::new()).collect(),
        pass_secs: Vec::new(),
    };
    let began = Instant::now();
    let mut silent = Recorder::new(false);
    let min_passes = if rec.is_some() { 2 } else { 1 };
    let mut pass = 0u64;
    while pass < min_passes || began.elapsed().as_secs_f64() < seconds {
        let traced = rec.is_some() && pass % 2 == 1;
        let r = match (traced, rec.as_deref_mut()) {
            (true, Some(r)) => r,
            _ => &mut silent,
        };
        let t = Instant::now();
        r.enter("suite.pass", pass);
        for (i, algo) in SUITE_ALGOS.into_iter().enumerate() {
            let algo_seed = derive_seed(seed, 0x5017e + pass * 16 + i as u64);
            passes.per_algo[i].push(run_algo(algo, algo_seed, stream, pass, r));
        }
        r.exit();
        passes.pass_secs.push((t.elapsed().as_secs_f64(), traced));
        pass += 1;
    }
    passes
}

impl Passes {
    fn medians(&self, f: impl Fn(&AlgoPass) -> f64) -> Vec<f64> {
        self.per_algo
            .iter()
            .map(|ps| median(&ps.iter().map(&f).collect::<Vec<_>>()))
            .collect()
    }

    /// Per algorithm, the lower quartile of a time over its passes: a
    /// pass can only be slowed by the host, never sped up.
    fn quiet_times(&self, time: impl Fn(&AlgoPass) -> f64) -> Vec<f64> {
        self.per_algo
            .iter()
            .map(|ps| quantile(&ps.iter().map(&time).collect::<Vec<_>>(), 0.25))
            .collect()
    }

    /// Counts each algorithm's pass as one operation; it fails when its
    /// grid is off by more than `ε·n`.
    pub fn check(&self, out: &mut Outcome) {
        for ((_, algo, _), passes) in SUITE_ALGOS.iter().zip(&self.per_algo) {
            for p in passes {
                out.check(if p.err_over_eps <= 1.0 {
                    Ok(())
                } else {
                    Err(format!(
                        "{algo}: grid rank error is {:.3} × ε·n",
                        p.err_over_eps
                    ))
                });
            }
        }
    }

    /// The per-algorithm numbers, under their per-layer metric names.
    pub fn algo_metrics(&self, out: &mut Outcome) {
        let insert_ns = self.quiet_times(|p| p.insert_secs * 1e9 / ROWS as f64);
        let grid_us = self.quiet_times(|p| p.grid_ns as f64 / 1e3);
        let space = self.medians(|p| p.space_bytes as f64);
        let err = self.medians(|p| p.err_over_eps);
        for (i, (_, _, span)) in SUITE_ALGOS.iter().enumerate() {
            out.metric(format!("{span}.insert_ns"), insert_ns[i]);
            out.metric(format!("{span}.grid_query_us"), grid_us[i]);
            out.metric(format!("{span}.space_bytes"), space[i]);
            out.metric(format!("{span}.rank_err_over_eps"), err[i]);
        }
    }

    /// Geometric means over the algorithms of the per-algorithm times:
    /// a block of 4096 scalar inserts is the insert, a grid the query.
    fn end_to_end(&self, out: &mut Outcome) {
        let insert_secs = geometric_mean(&self.quiet_times(|p| p.insert_secs));
        out.metric("ingest_rows_per_s", ROWS as f64 / insert_secs);
        out.metric(
            "insert_ack_mean_us",
            insert_secs * 1e6 / (ROWS / BLOCK) as f64,
        );
        out.metric(
            "query_mean_us",
            geometric_mean(&self.quiet_times(|p| p.grid_ns as f64 / 1e3)),
        );
    }

    fn pass_count(&self) -> usize {
        self.pass_secs.len()
    }
}

fn make_stream(seed: u64) -> Stream {
    Stream::uniform(derive_seed(seed, 0x5017e), ROWS, 1 << LOG_U)
}

pub fn run(opts: &RunOpts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // Set-up: the stream and the oracle's sorted copy of it.
    let mut setup_secs = Vec::new();
    let mut stream = None;
    for _ in 0..SETUP_REPEATS {
        let began = Instant::now();
        stream = Some(make_stream(opts.seed));
        setup_secs.push(began.elapsed().as_secs_f64());
    }
    let stream = stream.expect("set-up ran at least once");

    if !opts.trace {
        let passes = run_passes(&stream, opts.seed, opts.seconds, None);
        passes.check(&mut out);
        out.metric("setup_s", median(&setup_secs));
        passes.end_to_end(&mut out);
        out.note(format!(
            "single thread, {} passes of {ROWS} rows through 7 algorithms",
            passes.pass_count()
        ));
        return Ok(out);
    }

    let mut rec = Recorder::new(true);
    let passes = run_passes(&stream, opts.seed, opts.seconds, Some(&mut rec));
    passes.check(&mut out);
    passes.algo_metrics(&mut out);

    // The request-level metrics, for a workload whose requests are
    // calls: a block of 4096 scalar inserts is the insert, a grid the
    // query. There is no socket, server or store: those counts are 0.
    let mut blocks = Samples::default();
    let mut grids = Samples::default();
    for p in passes.per_algo.iter().flatten() {
        p.block_ns.iter().for_each(|&ns| blocks.push(ns));
        grids.push(p.grid_ns);
    }
    out.metric(
        "service.insert_ack_p50_us",
        blocks.median_us().ok_or("no insert blocks")?,
    );
    out.metric("service.query_p50_us", grids.median_us().ok_or("no grids")?);
    let (level, tail) = blocks.tail_us().ok_or("no insert blocks")?;
    out.metric("service.insert_ack_p99_us", tail);
    out.note(format!(
        "insert tail is p{} of {} blocks",
        level * 100.0,
        blocks.count()
    ));
    let (level, tail) = grids.tail_us().ok_or("no grids")?;
    out.metric("service.query_p99_us", tail);
    out.note(format!(
        "query tail is p{} of {} grids",
        level * 100.0,
        grids.count()
    ));
    let wall: f64 = passes.pass_secs.iter().map(|&(s, _)| s).sum();
    out.metric("service.queries_per_s", grids.count() as f64 / wall);
    let secs_of = |traced: bool| {
        let v: Vec<f64> = passes
            .pass_secs
            .iter()
            .filter(|&&(_, t)| t == traced)
            .map(|&(s, _)| s)
            .collect();
        (!v.is_empty()).then(|| median(&v))
    };
    let (on, off) = (
        secs_of(true).ok_or("no traced pass")?,
        secs_of(false).ok_or("no untraced pass")?,
    );
    out.metric("bench.trace_overhead_share", 1.0 - off / on);
    for name in [
        "service.unattributed_share",
        "service.share_of_rtt",
        "service.busy_sheds",
        "service.proto_errors",
        "engine.snapshot_cache_hit_ratio",
        "engine.share_of_rtt",
        "store.checkpoints_written",
        "store.segments_deleted",
        "store.share_of_rtt",
        "window.cache_hit_ratio",
        "window.rollup_hits_per_query",
        "window.late_dropped",
        "window.share_of_rtt",
    ] {
        out.metric(name, 0.0);
    }
    let path = opts.out_dir.join("trace-paper_suite.json");
    trace::write_json(&path, "paper_suite", &[("passes".to_owned(), rec.spans())])
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(out)
}
