//! The benchmark's workloads, their seeded open-loop schedules, and the
//! oracle that checks every value a GET returns.

use mbal_balancer::PhaseSet;
use mbal_core::EngineKind;
use mbal_scenario::{origin_value, ScenarioGen, ScenarioPack, ScenarioSpec};
use mbal_workload::{Op, OpKind, Popularity, WorkloadGen, WorkloadSpec};
use std::collections::HashMap;

/// Load-generating threads; each owns one synchronous client, so at
/// most this many requests are in flight.
pub const SENDERS: usize = 2;

/// How the clients reach the workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Net {
    /// In-process mailboxes.
    InProc,
    /// TCP loopback through each worker's epoll loop.
    Tcp,
}

/// Where a workload's operations come from.
#[derive(Debug, Clone)]
pub enum Mix {
    /// A YCSB-style preset.
    Ycsb(WorkloadSpec),
    /// A scenario pack (weighted value sizes, TTLs, touches).
    Scenario(ScenarioSpec),
}

/// One benchmark workload: traffic mix plus the cluster it runs on.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// Client transport.
    pub net: Net,
    /// Storage engine of every worker.
    pub engine: EngineKind,
    /// Balancer phases allowed to run.
    pub phases: PhaseSet,
    /// Offered rate of the fixed-rate phase, ops/s; fixed, never derived
    /// from a run.
    pub fixed_rate: u64,
    /// The traffic.
    pub mix: Mix,
}

impl Workload {
    /// The workload called `name`.
    pub fn by_name(name: &str) -> Option<Self> {
        let w = match name {
            "hotspot-tcp" => Self {
                name: "hotspot-tcp",
                net: Net::Tcp,
                engine: EngineKind::SlabLru,
                phases: PhaseSet::none(),
                fixed_rate: 4_000,
                mix: Mix::Ycsb(WorkloadSpec::workload_b(10_000)),
            },
            "zipf-balance" => Self {
                name: "zipf-balance",
                net: Net::InProc,
                engine: EngineKind::SlabLru,
                phases: PhaseSet::all(),
                fixed_rate: 4_000,
                mix: Mix::Ycsb(WorkloadSpec::extreme_zipf(10_000)),
            },
            "session-seg" => Self {
                name: "session-seg",
                net: Net::InProc,
                engine: EngineKind::Seg,
                phases: PhaseSet::none(),
                fixed_rate: 8_000,
                mix: Mix::Scenario(ScenarioPack::SessionStore.spec(200_000)),
            },
            _ => return None,
        };
        Some(w)
    }

    /// The YCSB core of the mix (key space, popularity, load values).
    pub fn base(&self) -> &WorkloadSpec {
        match &self.mix {
            Mix::Ycsb(s) => s,
            Mix::Scenario(s) => &s.base,
        }
    }

    /// A generator over the load phase's records for `seed`. Both mixes
    /// load every record at the base value size.
    pub fn load_gen(&self, seed: u64) -> WorkloadGen {
        WorkloadGen::new(uniform(self.base()), seed)
    }
}

/// `spec` with uniform popularity: same keys and values, but no zipf
/// constants to precompute (only `key_of`/`make_value` are used).
fn uniform(spec: &WorkloadSpec) -> WorkloadSpec {
    WorkloadSpec {
        popularity: Popularity::Uniform,
        ..spec.clone()
    }
}

/// splitmix64: derives independent seeds from one.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The seed of the load phase for run seed `seed`.
pub fn load_seed(seed: u64) -> u64 {
    mix64(seed ^ 0x10AD)
}

/// The generator seed of sender `sender` in phase `phase` (0 is the
/// fixed-rate phase, `k` the k-th sweep step).
pub fn sender_seed(seed: u64, phase: u64, sender: usize) -> u64 {
    mix64(mix64(seed ^ phase.wrapping_mul(0xA24B_AED4_963E_E407)) ^ sender as u64)
}

/// One operation and the instant it is due, ns after the phase starts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sched {
    /// Due time, ns from the phase start.
    pub due_ns: u64,
    /// The operation.
    pub op: Op,
}

/// The open-loop schedule of one phase: `rate` ops/s for `secs`,
/// split evenly over [`SENDERS`] senders whose slots interleave, so the
/// combined arrivals are evenly spaced at `rate`.
pub fn schedule(w: &Workload, seed: u64, phase: u64, rate: u64, secs: f64) -> Vec<Vec<Sched>> {
    let per_sender = rate as f64 / SENDERS as f64;
    let period_ns = 1e9 / per_sender;
    let n = (per_sender * secs).floor() as usize;
    (0..SENDERS)
        .map(|t| {
            let s = sender_seed(seed, phase, t);
            let mut next: Box<dyn FnMut() -> Vec<Op>> = match &w.mix {
                Mix::Ycsb(spec) => {
                    let mut g = WorkloadGen::new(spec.clone(), s);
                    Box::new(move || vec![g.next_op()])
                }
                Mix::Scenario(spec) => {
                    let mut g = ScenarioGen::new(spec.clone(), s);
                    Box::new(move || g.next_burst())
                }
            };
            let offset = period_ns * t as f64 / SENDERS as f64;
            let mut out = Vec::with_capacity(n);
            while out.len() < n {
                let due_ns = (offset + period_ns * out.len() as f64) as u64;
                for op in next() {
                    out.push(Sched { due_ns, op });
                }
            }
            out.truncate(n);
            out
        })
        .collect()
}

/// FNV-1a digest over every scheduled operation, sender-major.
pub fn digest(sched: &[Vec<Sched>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for (t, ops) in sched.iter().enumerate() {
        eat(&(t as u64).to_le_bytes());
        for s in ops {
            eat(&s.due_ns.to_le_bytes());
            eat(&[s.op.kind as u8]);
            eat(&s.op.ttl_ms.to_le_bytes());
            eat(&s.op.key);
            eat(&s.op.value);
        }
    }
    h
}

/// Whether a value a GET returned was written for that key by the load
/// phase or by one of the run's schedules.
pub struct Oracle {
    mix: Mix,
    /// Value generators keyed by their one-byte value seed: the load
    /// phase's and every YCSB sender's.
    writers: HashMap<u8, WorkloadGen>,
}

impl Oracle {
    /// An oracle knowing the load phase of `seed`.
    pub fn new(w: &Workload, seed: u64) -> Self {
        let mut o = Self {
            mix: w.mix.clone(),
            writers: HashMap::new(),
        };
        o.add_writer(load_seed(seed));
        o
    }

    /// Registers the generator seed of a schedule whose SETs may be read
    /// back (only YCSB values depend on the seed).
    pub fn add_writer(&mut self, seed: u64) {
        let spec = uniform(match &self.mix {
            Mix::Ycsb(s) => s,
            // Scenario SETs write `origin_value(key, len)` whatever the
            // seed; only the load phase uses a seeded generator.
            Mix::Scenario(s) if self.writers.is_empty() => &s.base,
            Mix::Scenario(_) => return,
        });
        self.writers
            .entry((seed & 0xff) as u8)
            .or_insert_with(|| WorkloadGen::new(spec, seed));
    }

    /// Whether `value` is admissible for `key`.
    pub fn admissible(&self, key: &[u8], value: &[u8]) -> bool {
        let Some(idx) = key_index(key) else {
            return false;
        };
        if let Mix::Scenario(spec) = &self.mix {
            if spec.value_sizes.iter().any(|&(len, _)| len == value.len())
                && value == origin_value(key, value.len()).as_slice()
            {
                return true;
            }
        }
        // A YCSB value starts with `idx[0] ^ value_seed`.
        let Some(&first) = value.first() else {
            return false;
        };
        let seed_byte = first ^ idx.to_le_bytes()[0];
        self.writers
            .get(&seed_byte)
            .is_some_and(|g| g.make_value(idx) == value)
    }
}

/// The record index encoded in a workload key (`user000…123`).
fn key_index(key: &[u8]) -> Option<u64> {
    std::str::from_utf8(key.strip_prefix(b"user")?)
        .ok()?
        .parse()
        .ok()
}

/// Whether `op` is a write (SET, TOUCH, DELETE).
pub fn is_write(op: &Op) -> bool {
    op.kind != OpKind::Get
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all() -> Vec<Workload> {
        ["hotspot-tcp", "zipf-balance", "session-seg"]
            .iter()
            .map(|n| Workload::by_name(n).expect("known workload"))
            .collect()
    }

    #[test]
    fn same_seed_gives_the_same_schedule_digest() {
        for w in all() {
            let a = digest(&schedule(&w, 7, 0, 8_000, 0.5));
            let b = digest(&schedule(&w, 7, 0, 8_000, 0.5));
            let other_seed = digest(&schedule(&w, 8, 0, 8_000, 0.5));
            let other_phase = digest(&schedule(&w, 7, 1, 8_000, 0.5));
            assert_eq!(a, b, "{}", w.name);
            assert_ne!(a, other_seed, "{}", w.name);
            assert_ne!(a, other_phase, "{}", w.name);
        }
    }

    #[test]
    fn schedule_offers_the_rate_evenly_spaced() {
        let w = Workload::by_name("zipf-balance").expect("known");
        let s = schedule(&w, 1, 0, 8_000, 1.0);
        assert_eq!(s.len(), SENDERS);
        let mut dues: Vec<u64> = s.iter().flatten().map(|o| o.due_ns).collect();
        assert_eq!(dues.len(), 8_000);
        dues.sort_unstable();
        assert_eq!(dues[0], 0);
        assert_eq!(dues[1], 125_000, "senders interleave at 1/rate");
        assert!(dues[7_999] < 1_000_000_000);
    }

    #[test]
    fn oracle_accepts_written_values_only() {
        for w in all() {
            let seed = 3;
            let mut oracle = Oracle::new(&w, seed);
            let load = w.load_gen(load_seed(seed));
            let (k, v) = load.load_phase().nth(17).expect("record 17");
            assert!(oracle.admissible(&k, &v), "{}: load value", w.name);
            let (k2, _) = load.load_phase().nth(18).expect("record 18");
            assert!(
                !oracle.admissible(&k2, &v),
                "{}: another key's value",
                w.name
            );
            let mut corrupt = v.clone();
            corrupt[3] ^= 1;
            assert!(!oracle.admissible(&k, &corrupt), "{}: corrupted", w.name);

            let sched = schedule(&w, seed, 2, 8_000, 0.25);
            let set = sched[1]
                .iter()
                .find(|s| s.op.kind == OpKind::Set)
                .expect("a SET");
            if matches!(w.mix, Mix::Ycsb(_)) {
                let unknown =
                    (sender_seed(seed, 2, 1) & 0xff) as u8 != (load_seed(seed) & 0xff) as u8;
                if unknown {
                    assert!(!oracle.admissible(&set.op.key, &set.op.value));
                }
                oracle.add_writer(sender_seed(seed, 2, 1));
            }
            assert!(
                oracle.admissible(&set.op.key, &set.op.value),
                "{}: SET",
                w.name
            );
        }
    }
}
