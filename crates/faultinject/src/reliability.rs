//! Monte-Carlo reliability companion for the §3.2 detection-frequency
//! discussion.
//!
//! Latent sector errors are *latent* precisely because nobody reads the
//! block: the error sits undetected until the next access. Disk scrubbing
//! (eager detection) bounds that window at the scrub period. This module
//! simulates error arrival and detection under both strategies and reports
//! (a) the mean detection latency and (b) how often a *second* error strikes
//! the same redundancy group before the first was repaired — the double-
//! fault event that defeats single-copy redundancy (the paper's motivation
//! for scrubbing in RAID systems, and for the placement rules of ixt3's
//! replicas).

use iron_core::hash::splitmix64;

/// Parameters of a reliability simulation.
#[derive(Clone, Copy, Debug)]
pub struct ReliabilityParams {
    /// Number of blocks on the simulated disk.
    pub num_blocks: u64,
    /// Expected latent-error arrivals per block per hour.
    pub error_rate_per_block_hour: f64,
    /// Fraction of the disk the workload touches per hour (lazy detection).
    pub access_fraction_per_hour: f64,
    /// Scrub period in hours; `None` disables scrubbing.
    pub scrub_period_hours: Option<f64>,
    /// Blocks per redundancy group (e.g. a block and its replica ⇒ 2).
    pub redundancy_group: u64,
    /// Simulated duration in hours.
    pub duration_hours: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ReliabilityParams {
    fn default() -> Self {
        ReliabilityParams {
            num_blocks: 1 << 20,
            error_rate_per_block_hour: 1e-7,
            access_fraction_per_hour: 0.01,
            scrub_period_hours: None,
            redundancy_group: 2,
            duration_hours: 10_000.0,
            seed: 42,
        }
    }
}

/// Results of a reliability simulation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ReliabilityReport {
    /// Latent errors that arrived.
    pub errors_arrived: u64,
    /// Errors detected (by access or scrub) within the simulation.
    pub errors_detected: u64,
    /// Mean hours from arrival to detection, over detected errors.
    pub mean_detection_latency_hours: f64,
    /// Double faults: a second error arrived in a group that already had an
    /// undetected (hence unrepaired) error.
    pub double_faults: u64,
}

/// SplitMix64 — tiny deterministic RNG, sufficient for Monte-Carlo here.
#[derive(Clone, Debug)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.0)
    }

    /// Uniform in [0, 1).
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Poisson sample via inversion (small means only).
    fn poisson(&mut self, mean: f64) -> u64 {
        if mean <= 0.0 {
            return 0;
        }
        let limit = (-mean).exp();
        let mut product = self.next_f64();
        let mut count = 0u64;
        while product > limit {
            count += 1;
            product *= self.next_f64();
        }
        count
    }
}

/// Run the simulation in one-hour steps.
pub fn simulate(params: &ReliabilityParams) -> ReliabilityReport {
    let mut rng = SplitMix64(params.seed);
    let mut report = ReliabilityReport::default();
    // Undetected errors: (block, arrival_hour).
    let mut undetected: Vec<(u64, f64)> = Vec::new();
    let mut latency_sum = 0.0;

    let steps = params.duration_hours.ceil() as u64;
    let arrivals_per_hour = params.error_rate_per_block_hour * params.num_blocks as f64;

    for hour in 0..steps {
        let t = hour as f64;

        // Arrivals this hour.
        let n = rng.poisson(arrivals_per_hour);
        for _ in 0..n {
            let block = rng.next_u64() % params.num_blocks;
            let group = block / params.redundancy_group.max(1);
            let clash = undetected
                .iter()
                .any(|(b, _)| *b / params.redundancy_group.max(1) == group && *b != block);
            if clash {
                report.double_faults += 1;
            }
            undetected.push((block, t));
            report.errors_arrived += 1;
        }

        // Lazy detection: each undetected error is noticed this hour with
        // probability = fraction of disk accessed.
        let p_access = params.access_fraction_per_hour.clamp(0.0, 1.0);
        // Eager detection: a scrub pass completes at multiples of the period.
        let scrub_now = params
            .scrub_period_hours
            .is_some_and(|p| p > 0.0 && hour > 0 && (t / p).fract() < 1.0 / p);

        undetected.retain(|(_, arrived)| {
            let detected = scrub_now || rng.next_f64() < p_access;
            if detected {
                report.errors_detected += 1;
                latency_sum += t - arrived + 0.5;
                false
            } else {
                true
            }
        });
    }

    if report.errors_detected > 0 {
        report.mean_detection_latency_hours = latency_sum / report.errors_detected as f64;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> ReliabilityParams {
        ReliabilityParams {
            num_blocks: 1 << 16,
            error_rate_per_block_hour: 5e-6,
            access_fraction_per_hour: 0.002,
            scrub_period_hours: None,
            redundancy_group: 2,
            duration_hours: 5_000.0,
            seed: 7,
        }
    }

    #[test]
    fn errors_arrive_at_expected_order_of_magnitude() {
        let r = simulate(&base());
        let expected = 5e-6 * (1u64 << 16) as f64 * 5_000.0;
        assert!(r.errors_arrived > (expected * 0.5) as u64);
        assert!(r.errors_arrived < (expected * 1.5) as u64);
    }

    #[test]
    fn scrubbing_shortens_detection_latency() {
        let lazy = simulate(&base());
        let scrubbed = simulate(&ReliabilityParams {
            scrub_period_hours: Some(24.0),
            ..base()
        });
        assert!(lazy.mean_detection_latency_hours > 0.0);
        assert!(
            scrubbed.mean_detection_latency_hours < lazy.mean_detection_latency_hours / 2.0,
            "scrubbing ({:.1}h) should beat lazy ({:.1}h)",
            scrubbed.mean_detection_latency_hours,
            lazy.mean_detection_latency_hours
        );
    }

    #[test]
    fn scrubbing_reduces_double_faults() {
        // Crank the error rate so double faults are common when lazy.
        let hot = ReliabilityParams {
            error_rate_per_block_hour: 1e-4,
            access_fraction_per_hour: 0.0005,
            duration_hours: 2_000.0,
            ..base()
        };
        let lazy = simulate(&hot);
        let scrubbed = simulate(&ReliabilityParams {
            scrub_period_hours: Some(12.0),
            ..hot
        });
        assert!(
            lazy.double_faults > 0,
            "test needs double faults to compare"
        );
        assert!(
            scrubbed.double_faults < lazy.double_faults,
            "scrubbed {} !< lazy {}",
            scrubbed.double_faults,
            lazy.double_faults
        );
    }

    #[test]
    fn deterministic_given_seed() {
        assert_eq!(simulate(&base()), simulate(&base()));
    }

    #[test]
    fn zero_rate_produces_no_errors() {
        let r = simulate(&ReliabilityParams {
            error_rate_per_block_hour: 0.0,
            ..base()
        });
        assert_eq!(r.errors_arrived, 0);
        assert_eq!(r.double_faults, 0);
    }
}
