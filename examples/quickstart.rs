//! Quickstart: the four headline summaries on one stream.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use streaming_quantiles::prelude::*;

fn main() {
    let n = 1_000_000u64;
    println!("stream: {n} uniform-ish values\n");

    // Ground truth for comparison (don't do this in production — the
    // whole point is not keeping the data).
    let data: Vec<u64> = (0..n)
        .map(|i| i.wrapping_mul(2654435761) % 10_000_000)
        .collect();
    let oracle = ExactQuantiles::new(data.clone());

    // 1. GKArray: deterministic ε = 0.001 guarantee.
    let mut gk = GkArray::new(0.001);
    for &x in &data {
        gk.insert(x);
    }

    // 2. Random: randomized, fixed footprint.
    let mut random = RandomSketch::new(0.001, /* seed */ 7);
    for &x in &data {
        random.insert(x);
    }

    // 3. q-digest: fixed universe (2^24 here), mergeable.
    let mut qd = QDigest::new(0.001, 24);
    for &x in &data {
        qd.insert(x);
    }

    // 4. DCS: turnstile — survives deletions.
    let mut dcs = new_dcs(0.001, 24, 7);
    for &x in &data {
        dcs.insert(x);
    }

    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>10}",
        "algorithm", "p50", "p95", "p99", "space KB"
    );
    println!("{}", "-".repeat(62));
    let truth = |phi: f64| oracle.quantile(phi);
    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>10}",
        "exact",
        truth(0.5),
        truth(0.95),
        truth(0.99),
        format!("{:.0}", (n * 8) as f64 / 1024.0)
    );
    for (name, p50, p95, p99, space) in [
        (
            "GKArray",
            gk.quantile(0.5).expect("non-empty stream"),
            gk.quantile(0.95).expect("non-empty stream"),
            gk.quantile(0.99).expect("non-empty stream"),
            gk.space_bytes(),
        ),
        (
            "Random",
            random.quantile(0.5).expect("non-empty stream"),
            random.quantile(0.95).expect("non-empty stream"),
            random.quantile(0.99).expect("non-empty stream"),
            random.space_bytes(),
        ),
        (
            "FastQDigest",
            qd.quantile(0.5).expect("non-empty stream"),
            qd.quantile(0.95).expect("non-empty stream"),
            qd.quantile(0.99).expect("non-empty stream"),
            qd.space_bytes(),
        ),
        (
            "DCS",
            dcs.quantile(0.5).expect("non-empty stream"),
            dcs.quantile(0.95).expect("non-empty stream"),
            dcs.quantile(0.99).expect("non-empty stream"),
            dcs.space_bytes(),
        ),
    ] {
        println!(
            "{name:<12} {p50:>12} {p95:>12} {p99:>12} {:>10.1}",
            space as f64 / 1024.0
        );
    }

    println!("\nobserved errors at p99 (fraction of n, guarantee was 0.001):");
    for (name, q) in [
        ("GKArray", gk.quantile(0.99).expect("non-empty stream")),
        ("Random", random.quantile(0.99).expect("non-empty stream")),
        ("FastQDigest", qd.quantile(0.99).expect("non-empty stream")),
        ("DCS", dcs.quantile(0.99).expect("non-empty stream")),
    ] {
        println!("  {name:<12} {:.6}", oracle.quantile_error(0.99, q));
    }
}
