//! Seeded inputs: seed derivation and the `hexd_mix` query plan.
//!
//! Each `hexd_mix` client walks its own plan in blocks of [`BLOCK`] steps.
//! A block opens with a point both clients send at once (coalescing), then
//! sends [`SOLO_COLD`] new points of its own and warm repeats of points it
//! asked for earlier, in a seeded order. A quarter of all queries are new.

use hex_clock::Scenario;
use hex_des::SimRng;
use hex_sim::RunSpec;

/// Steps per block.
pub const BLOCK: usize = 16;
/// New points a client sends alone in each block.
pub const SOLO_COLD: usize = 3;
/// Runs per query: small batches keep per-batch fixed costs visible.
pub const QUERY_RUNS: usize = 16;

/// Table 1's four layer-0 scenarios.
pub const SCENARIOS: [Scenario; 4] = [
    Scenario::Zero,
    Scenario::RandomDMinus,
    Scenario::RandomDPlus,
    Scenario::Ramp,
];

/// SplitMix64's output function: a well-mixed 64-bit hash.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The spec seed of item `index` of input stream `stream`. 40 bits, so
/// `seed + run` never overflows and distinct items share no run seeds in
/// practice.
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    mix64(seed ^ mix64(stream.wrapping_mul(0xA24B_AED4_963E_E407) ^ index)) & ((1 << 40) - 1)
}

/// One Table-1 skew point: a fault-free single pulse on the 50×20 grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Point {
    pub seed: u64,
    pub scenario: u8,
}

impl Point {
    pub fn spec(self) -> RunSpec {
        RunSpec::paper()
            .scenario(SCENARIOS[usize::from(self.scenario)])
            .seed(self.seed)
            .runs(QUERY_RUNS)
    }
}

/// What a client sends next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// A new point both clients send at the same moment.
    Coalesce(Point),
    /// A new point only this client sends.
    Cold(Point),
    /// A point this client asked for earlier.
    Warm(Point),
}

/// One client's endless, seeded query plan.
pub struct ClientPlan {
    seed: u64,
    client: u64,
    block: u64,
    fresh: u64,
    rng: SimRng,
    known: Vec<Point>,
}

impl ClientPlan {
    pub fn new(seed: u64, client: u64) -> ClientPlan {
        ClientPlan {
            seed,
            client,
            block: 0,
            fresh: 0,
            rng: SimRng::seed_from_u64(derive(seed, 10 + client, 0)),
            known: Vec::new(),
        }
    }

    /// The next block of [`BLOCK`] steps. Warm steps only name points
    /// sent earlier in the plan, so in a closed loop they are answered
    /// from the cache.
    pub fn next_block(&mut self) -> Vec<Step> {
        let shared = Point {
            seed: derive(self.seed, 3, self.block),
            scenario: (self.block % 4) as u8,
        };
        self.block += 1;
        self.known.push(shared);
        let mut kinds = [false; BLOCK - 1];
        kinds[..SOLO_COLD].fill(true);
        for i in (1..kinds.len()).rev() {
            kinds.swap(i, self.rng.index(i + 1));
        }
        let mut steps = vec![Step::Coalesce(shared)];
        for cold in kinds {
            steps.push(if cold {
                let p = Point {
                    seed: derive(self.seed, 4 + self.client, self.fresh),
                    scenario: self.rng.index(4) as u8,
                };
                self.fresh += 1;
                self.known.push(p);
                Step::Cold(p)
            } else {
                Step::Warm(self.known[self.rng.index(self.known.len())])
            });
        }
        steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn blocks(seed: u64, client: u64, n: usize) -> Vec<Step> {
        let mut plan = ClientPlan::new(seed, client);
        (0..n).flat_map(|_| plan.next_block()).collect()
    }

    #[test]
    fn plan_is_a_function_of_its_seed() {
        assert_eq!(blocks(7, 0, 20), blocks(7, 0, 20));
        assert_ne!(blocks(7, 0, 20), blocks(8, 0, 20));
        assert_ne!(blocks(7, 0, 20), blocks(7, 1, 20));
    }

    #[test]
    fn plan_hits_its_warm_cold_and_coalesced_shares() {
        let steps = blocks(99, 1, 200);
        let n = steps.len() as f64;
        let count = |f: fn(&Step) -> bool| steps.iter().filter(|s| f(s)).count() as f64;
        let warm = count(|s| matches!(s, Step::Warm(_))) / n;
        let cold = count(|s| matches!(s, Step::Cold(_))) / n;
        let coalesced = count(|s| matches!(s, Step::Coalesce(_))) / n;
        assert_eq!(warm, 0.75);
        assert_eq!(cold + coalesced, 0.25);
        assert_eq!(coalesced, 1.0 / 16.0);
    }

    #[test]
    fn warm_steps_repeat_earlier_points_and_new_points_are_new() {
        let mut seen = BTreeSet::new();
        for step in blocks(5, 0, 100) {
            match step {
                Step::Warm(p) => assert!(seen.contains(&p), "warm step on unseen {p:?}"),
                Step::Cold(p) | Step::Coalesce(p) => assert!(seen.insert(p), "{p:?} repeated"),
            }
        }
    }

    #[test]
    fn both_clients_coalesce_on_the_same_points_and_never_share_solo_ones() {
        let (a, b) = (blocks(3, 0, 50), blocks(3, 1, 50));
        let shared = |s: &[Step]| -> Vec<Point> {
            s.iter()
                .filter_map(|s| match s {
                    Step::Coalesce(p) => Some(*p),
                    _ => None,
                })
                .collect()
        };
        let solo = |s: &[Step]| -> BTreeSet<Point> {
            s.iter()
                .filter_map(|s| match s {
                    Step::Cold(p) => Some(*p),
                    _ => None,
                })
                .collect()
        };
        assert_eq!(shared(&a), shared(&b));
        assert!(solo(&a).is_disjoint(&solo(&b)));
        // Every scenario is queried.
        let scenarios: BTreeSet<u8> = solo(&a).iter().map(|p| p.scenario).collect();
        assert_eq!(scenarios.len(), 4);
    }
}
