//! The shared timer of the release speed gates. A gate of this kind is
//! a ratio of two timed sides, so it holds on any machine; the sides
//! are timed in alternation, so a busy spell on a shared host slows
//! both, and the ratio is of each side's best round.

use std::hint::black_box;
use std::time::Instant;

/// Two sides timed in alternation: each side's best round and the
/// median of the rounds' ratios.
#[derive(Debug, Clone, Copy)]
pub struct Alternated {
    /// The first side's best round, in seconds.
    pub a: f64,
    /// The second side's best round, in seconds.
    pub b: f64,
    /// The median over the rounds of the first side's time over the
    /// second's.
    pub median_ratio: f64,
}

impl Alternated {
    /// The first side's best over the second side's best.
    pub fn ratio(&self) -> f64 {
        self.a / self.b
    }

    /// Prints `name ratio bound margin` (and the median ratio) and
    /// panics unless [`ratio`](Self::ratio) lies within `bound`. The
    /// margin is how many times over the ratio clears its bound: 1.0
    /// on the bound, below it when the gate fails.
    pub fn gate(&self, name: &str, bound: Bound) {
        let ratio = self.ratio();
        let (margin, shown) = match bound {
            Bound::AtLeast(floor) => (ratio / floor, format!(">={floor}")),
            Bound::AtMost(ceiling) => (ceiling / ratio, format!("<={ceiling}")),
        };
        println!(
            "{name} ratio {ratio:.3} bound {shown} margin {margin:.2} median {:.3}",
            self.median_ratio
        );
        assert!(margin >= 1.0, "{name}: ratio {ratio:.3}, bound {shown}");
    }
}

/// Where a gate's ratio must lie.
#[derive(Debug, Clone, Copy)]
pub enum Bound {
    /// At least this: a floor on a speed-up.
    AtLeast(f64),
    /// At most this: a ceiling on a cost.
    AtMost(f64),
}

/// Times `a`, then `b`, `rounds` times over. Each side is called
/// untimed to set up one round and returns the work to time; what the
/// work returns is dropped once the clock has stopped.
///
/// # Panics
/// Panics if `rounds` is 0.
pub fn alternate<WA, RA, WB, RB>(
    rounds: usize,
    mut a: impl FnMut() -> WA,
    mut b: impl FnMut() -> WB,
) -> Alternated
where
    WA: FnOnce() -> RA,
    WB: FnOnce() -> RB,
{
    fn time<R>(work: impl FnOnce() -> R) -> f64 {
        let start = Instant::now();
        let out = black_box(work());
        let secs = start.elapsed().as_secs_f64();
        drop(out);
        secs
    }
    assert!(rounds > 0, "no rounds to time");
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    let mut ratios: Vec<f64> = (0..rounds)
        .map(|_| {
            let (ta, tb) = (time(a()), time(b()));
            (best_a, best_b) = (best_a.min(ta), best_b.min(tb));
            ta / tb
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    Alternated {
        a: best_a,
        b: best_b,
        median_ratio: ratios.get(rounds / 2).copied().unwrap_or(f64::NAN),
    }
}
