//! The open-loop arrival schedule and its lateness accounting.
//!
//! Independent users make an open loop: requests fire on a schedule
//! whether or not earlier ones completed, so a stall queues later
//! arrivals instead of silently slowing the generator. Latency is charged
//! from the *scheduled* instant, and how late the generator actually
//! fired is reported beside it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `count` arrival instants (nanoseconds from the start of the phase)
/// with exponential inter-arrival gaps of mean `1 / rate_qps` — a Poisson
/// process, a pure function of `(seed, rate_qps, count)`.
pub fn poisson_schedule(seed: u64, rate_qps: f64, count: usize) -> Vec<u64> {
    assert!(rate_qps > 0.0, "arrival rate must be positive");
    let mut rng = StdRng::seed_from_u64(seed ^ rate_qps.to_bits());
    let mut t = 0.0f64;
    (0..count)
        .map(|_| {
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            t += -u.ln() / rate_qps;
            (t * 1e9) as u64
        })
        .collect()
}

/// What one open-loop request cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Charge {
    /// Completion minus the scheduled instant: includes the wait a busy
    /// client imposed on this arrival.
    pub latency_ns: u64,
    /// How late the generator fired (0 when on time).
    pub lag_ns: u64,
}

/// Charges a request scheduled at `scheduled_ns`, actually fired at
/// `fired_ns` and completed at `done_ns` (one clock).
pub fn charge(scheduled_ns: u64, fired_ns: u64, done_ns: u64) -> Charge {
    Charge {
        latency_ns: done_ns.saturating_sub(scheduled_ns),
        lag_ns: fired_ns.saturating_sub(scheduled_ns),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_its_seed() {
        let a = poisson_schedule(7, 2000.0, 500);
        assert_eq!(a, poisson_schedule(7, 2000.0, 500));
        assert_ne!(a, poisson_schedule(8, 2000.0, 500));
        assert_ne!(a, poisson_schedule(7, 1000.0, 500));
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "arrivals ascend");
    }

    #[test]
    fn schedule_keeps_the_offered_rate() {
        let n = 20_000;
        let s = poisson_schedule(3, 4000.0, n);
        let achieved = n as f64 / (*s.last().unwrap() as f64 / 1e9);
        assert!((achieved / 4000.0 - 1.0).abs() < 0.05, "rate {achieved}");
    }

    #[test]
    fn latency_is_charged_from_the_scheduled_instant() {
        // Fired 300 ns late behind a blocked client, served in 500 ns:
        // the user waited 800 ns, of which 300 were generator lag.
        assert_eq!(
            charge(1_000, 1_300, 1_800),
            Charge {
                latency_ns: 800,
                lag_ns: 300
            }
        );
        // Firing early never produces negative lag.
        assert_eq!(charge(1_000, 990, 1_400).lag_ns, 0);
    }
}
