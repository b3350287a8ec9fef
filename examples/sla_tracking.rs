//! SLA tracking with the study's extension algorithms: *targeted*
//! quantiles (CKMS, [10] in the paper's §1 extension list) pin p50 and
//! p99.9 with different precisions, and a *sliding window* ([3]; the
//! `sqs-window` ring on a counting clock) keeps the percentile honest
//! over the last 100k requests instead of all time.
//!
//! ```text
//! cargo run --release --example sla_tracking
//! ```

use streaming_quantiles::prelude::*;
use streaming_quantiles::sqs_util::rng::Xoshiro256pp;

fn main() {
    // SLA: p50 within ±2% rank, p99.9 within ±0.05% rank — the tail
    // matters more than the middle.
    let targets = [(0.5, 0.02), (0.999, 0.0005)];
    let mut targeted: Ckms<u64> = Ckms::targeted(&targets);

    // And a 100k-request sliding window at ε = 2%: request `i` arrives
    // at time `i`, so a count-based window is a time-based one — twenty
    // buckets of 5 000 requests, one `Random` summary each.
    let window = 100_000u64;
    let mut windowed = WindowRing::new(WindowConfig::new(window / 20, 20), |bucket| {
        RandomSketch::new(0.02, bucket)
    });

    // Uniform-ε reference at the tail's precision, to show the space
    // the targeted invariant saves.
    let mut uniform: GkArray<u64> = GkArray::new(0.0005);

    let mut rng = Xoshiro256pp::new(7);
    let total = 1_000_000u64;
    let mut all: Vec<u64> = Vec::with_capacity(total as usize);
    println!("serving {total} requests; latency regime degrades mid-run...\n");
    for i in 0..total {
        // Latency: log-ish body + tail; a slow backend after 60%.
        let slow = i > 6 * total / 10;
        let base = 200.0 + 300.0 * (-rng.next_f64().ln());
        let lat = if rng.next_f64() < 0.01 {
            base + 5_000.0 + if slow { 20_000.0 } else { 0.0 } + 10_000.0 * rng.next_f64()
        } else if slow {
            base * 1.6
        } else {
            base
        };
        let lat = lat as u64;
        targeted.insert(lat);
        windowed.ingest(i, &[lat], i);
        uniform.insert(lat);
        all.push(lat);
    }

    let oracle_all = ExactQuantiles::new(all.clone());
    let in_window = windowed
        .query(WindowSpec::sliding(window), &[0.5, 0.999], total - 1)
        .expect("the span fits the ring");
    let (covered, win_p50, win_p999) = (
        in_window.n as usize,
        in_window.answers[0].unwrap(),
        in_window.answers[1].unwrap(),
    );
    let oracle_win = ExactQuantiles::new(all[all.len() - covered..].to_vec());

    println!("{:<28} {:>10} {:>10}", "view", "p50 (us)", "p99.9 (us)");
    println!("{}", "-".repeat(52));
    println!(
        "{:<28} {:>10} {:>10}",
        "exact, all time",
        oracle_all.quantile(0.5),
        oracle_all.quantile(0.999)
    );
    println!(
        "{:<28} {:>10} {:>10}",
        "targeted CKMS, all time",
        targeted.quantile(0.5).unwrap(),
        targeted.quantile(0.999).unwrap()
    );
    println!(
        "{:<28} {:>10} {:>10}",
        "exact, last window",
        oracle_win.quantile(0.5),
        oracle_win.quantile(0.999)
    );
    println!(
        "{:<28} {:>10} {:>10}",
        "sliding window summary", win_p50, win_p999
    );

    println!("\nerrors vs their own ground truth:");
    for &(phi, eps) in &targets {
        let err = oracle_all.quantile_error(phi, targeted.quantile(phi).unwrap());
        println!(
            "  targeted p{:<5} err {err:.6}  (budget {eps})",
            phi * 100.0
        );
    }
    let werr = oracle_win.quantile_error(0.5, win_p50);
    println!("  windowed p50   err {werr:.6}  (budget 0.02)");

    println!(
        "\nspace: targeted {:.1} KB vs uniform-eps-0.0005 GKArray {:.1} KB ({}x) — \
         the tail budget doesn't tax the middle.",
        targeted.space_bytes() as f64 / 1024.0,
        uniform.space_bytes() as f64 / 1024.0,
        uniform.space_bytes() / targeted.space_bytes().max(1)
    );
    println!(
        "window ring: {} live buckets covering the last {} requests.",
        windowed.stats().live_buckets,
        covered
    );
}
