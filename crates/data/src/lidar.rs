//! Surrogate for the Neuse River Basin LIDAR terrain data set
//! (§4.1.1 of the paper): ~100 million points measuring terrain
//! elevation.
//!
//! Elevation along a LIDAR scan line is *smooth and spatially
//! correlated* — consecutive readings differ by centimetres — and,
//! once quantized to survey precision, heavily duplicated (floodplains
//! are flat). The surrogate is a mean-reverting bounded random walk
//! (Ornstein–Uhlenbeck-like) over a 0–120 m elevation range quantized
//! to centimetres, with occasional scan-line jumps; this reproduces
//! the duplication level and the smooth semi-sorted local structure
//! that distinguish terrain data from i.i.d. streams.

#![expect(
    clippy::cast_possible_truncation,
    reason = "every draw is bounded by the value universe before it is narrowed"
)]

use sqs_util::rng::Xoshiro256pp;

/// Elevation range in centimetres (0–120 m — the Neuse basin is
/// coastal-plain terrain).
pub const LIDAR_UNIVERSE: u64 = 12_000;

/// `⌈log₂(LIDAR_UNIVERSE)⌉`.
pub const LIDAR_LOG_U: u32 = 14;

/// The LIDAR elevation surrogate generator (infinite, seeded).
#[derive(Debug, Clone)]
pub struct Lidar {
    rng: Xoshiro256pp,
    /// Current elevation (cm, floating for the walk).
    elevation: f64,
    /// Local mean the walk reverts to (changes at scan-line jumps).
    local_mean: f64,
    /// Readings left on the current scan line.
    line_left: usize,
}

impl Lidar {
    /// Creates the generator.
    pub fn new(seed: u64) -> Self {
        let mut rng = Xoshiro256pp::new(seed);
        let mean = 1_000.0 + rng.next_f64() * 6_000.0;
        Self {
            rng,
            elevation: mean,
            local_mean: mean,
            line_left: 0,
        }
    }

    fn jump_scan_line(&mut self) {
        self.line_left = 2_000 + self.rng.next_below(8_000) as usize;
        // New swath: nearby terrain, so the mean moves but modestly.
        self.local_mean = (self.local_mean + self.rng.next_standard_normal() * 800.0)
            .clamp(100.0, LIDAR_UNIVERSE as f64 - 100.0);
        self.elevation = self.local_mean;
    }
}

impl Iterator for Lidar {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.line_left == 0 {
            self.jump_scan_line();
        }
        self.line_left -= 1;
        // Mean-reverting walk with cm-scale noise.
        self.elevation +=
            0.02 * (self.local_mean - self.elevation) + self.rng.next_standard_normal() * 6.0;
        self.elevation = self.elevation.clamp(0.0, (LIDAR_UNIVERSE - 1) as f64);
        Some(self.elevation as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_in_universe() {
        assert!(Lidar::new(1).take(100_000).all(|v| v < LIDAR_UNIVERSE));
    }

    #[test]
    fn heavy_duplication() {
        let data: Vec<u64> = Lidar::new(2).take(100_000).collect();
        let mut uniq = data.clone();
        uniq.sort_unstable();
        uniq.dedup();
        // Terrain at cm quantization: far fewer distinct values than
        // readings.
        assert!(uniq.len() * 10 < data.len(), "distinct = {}", uniq.len());
    }

    #[test]
    fn smooth_locally() {
        let data: Vec<u64> = Lidar::new(3).take(50_000).collect();
        let small_steps = data.windows(2).filter(|w| w[0].abs_diff(w[1]) < 30).count();
        assert!(small_steps as f64 > 0.95 * (data.len() - 1) as f64);
    }

    #[test]
    fn wanders_globally() {
        let data: Vec<u64> = Lidar::new(4).take(500_000).collect();
        let min = *data.iter().min().unwrap();
        let max = *data.iter().max().unwrap();
        assert!(max - min > 1_000, "range = {}", max - min);
    }

    #[test]
    fn deterministic() {
        let a: Vec<u64> = Lidar::new(9).take(1000).collect();
        let b: Vec<u64> = Lidar::new(9).take(1000).collect();
        assert_eq!(a, b);
    }
}
