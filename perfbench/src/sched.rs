//! Seeded schedules. Every workload's inputs and op order are pure
//! functions of the `--seed` argument: the same seed replays the same
//! models, query texts, edit targets and interleaving.

/// SplitMix64: small, fast, and fully determined by its seed. The
/// benchmark keeps its own generator so that a change to a workspace
/// crate's random stream cannot change the benchmark's inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed, so that adding a
    /// stream never shifts the draws of another.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

// ---------------------------------------------------------------- docgen

/// Model sizes of the docgen workload. Every cycle renders each size once,
/// in a seeded order, so every seed sees the same size mix: the median
/// falls inside the middle size and the tail inside the largest, never on
/// the boundary between two sizes. The XQuery render of a 150-node model
/// takes about half a second, so larger models would leave too few
/// renders in a run for a tail.
pub const DOCGEN_SIZES: [usize; 3] = [50, 75, 100];
/// Models of each size. The pool is the same for every seed; the seed
/// orders it. A run renders the whole pool many times over, so seeds
/// differ in order, not in the mix of model shapes they time.
pub const DOCGEN_POOL: usize = 4;

/// The generator seed of pool model `j` of size `size`.
fn pool_model_seed(size: usize, j: usize) -> u64 {
    (size * 1_000 + j) as u64
}

/// The docgen model sequence: `(about-nodes, model seed)` pairs, a seeded
/// order of the whole pool in cycles of one model per size.
pub fn docgen_models(seed: u64) -> Vec<(usize, u64)> {
    let mut rng = Rng::new(seed, 1);
    let per_size: Vec<Vec<usize>> = DOCGEN_SIZES
        .iter()
        .map(|_| {
            let mut order: Vec<usize> = (0..DOCGEN_POOL).collect();
            rng.shuffle(&mut order);
            order
        })
        .collect();
    let mut out = Vec::with_capacity(DOCGEN_POOL * DOCGEN_SIZES.len());
    for cycle in 0..DOCGEN_POOL {
        let mut sizes: Vec<usize> = (0..DOCGEN_SIZES.len()).collect();
        rng.shuffle(&mut sizes);
        for s in sizes {
            let size = DOCGEN_SIZES[s];
            out.push((size, pool_model_seed(size, per_size[s][cycle])));
        }
    }
    out
}

// --------------------------------------------------------------- service

/// Point-lookup texts in the hot set (one per person id).
pub const HOT_POINTS: usize = 64;
/// Element ids a `load` op may edit and query back.
pub const LOAD_TARGETS: usize = 8;

/// One request of the service workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceOp {
    /// Hot point lookup: one person's name by `@id` (text `k` of the set).
    Point(usize),
    /// Hot streamed prefix over a long item list.
    Stream,
    /// Hot value join between people and closed auctions.
    Join,
    /// A text never sent before: a point lookup on person `k` with a
    /// unique suffix, so it pays a compile.
    Cold(usize),
    /// Re-`LOAD` the client's small document with element `k` edited, then
    /// query that element back.
    Load(usize),
}

/// Per-mille shares of the service mix. Hot requests are 90%: points,
/// then the streamed prefix and the join, in a fixed ratio that puts the
/// hot median among the points and the hot p99 among the slowest shape.
pub const SERVICE_MIX: [(&str, usize); 5] = [
    ("point", 630),
    ("stream", 135),
    ("join", 135),
    ("cold", 80),
    ("load", 20),
];

/// The endless request stream of one client connection.
pub struct ServiceSchedule {
    rng: Rng,
    people: usize,
}

impl ServiceSchedule {
    pub fn new(seed: u64, client: usize, people: usize) -> ServiceSchedule {
        ServiceSchedule {
            rng: Rng::new(seed, 100 + client as u64),
            people,
        }
    }
}

impl Iterator for ServiceSchedule {
    type Item = ServiceOp;

    fn next(&mut self) -> Option<ServiceOp> {
        let mut draw = self.rng.below(1000);
        let mut kind = "";
        for (name, share) in SERVICE_MIX {
            if draw < share {
                kind = name;
                break;
            }
            draw -= share;
        }
        Some(match kind {
            "point" => ServiceOp::Point(self.rng.below(HOT_POINTS)),
            "stream" => ServiceOp::Stream,
            "join" => ServiceOp::Join,
            "cold" => ServiceOp::Cold(self.rng.below(self.people)),
            _ => ServiceOp::Load(self.rng.below(LOAD_TARGETS)),
        })
    }
}

// ------------------------------------------------------------------ edit

/// XMark items the store edits may touch.
pub const EDIT_ITEMS: usize = 32;

/// One operation of the edit workload. A store edit is always followed
/// by a read of the refrozen tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditOp {
    /// Change program `k`'s `language`, then bring the document up to date.
    Model(usize),
    /// Set an attribute on edit item `k` and refreeze, then read it back.
    Store(usize),
}

/// The endless edit-workload stream: one model edit for every two store
/// edits, in seeded order.
pub struct EditSchedule {
    rng: Rng,
    programs: usize,
}

impl EditSchedule {
    pub fn new(seed: u64, programs: usize) -> EditSchedule {
        EditSchedule {
            rng: Rng::new(seed, 200),
            programs,
        }
    }
}

impl Iterator for EditSchedule {
    type Item = EditOp;

    fn next(&mut self) -> Option<EditOp> {
        Some(if self.rng.below(3) == 0 {
            EditOp::Model(self.rng.below(self.programs))
        } else {
            EditOp::Store(self.rng.below(EDIT_ITEMS))
        })
    }
}

/// `count` distinct indices below `n`, in seeded order.
pub fn pick_distinct(seed: u64, stream: u64, n: usize, count: usize) -> Vec<usize> {
    let mut all: Vec<usize> = (0..n).collect();
    Rng::new(seed, stream).shuffle(&mut all);
    all.truncate(count);
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedules() {
        assert_eq!(docgen_models(7), docgen_models(7));
        let a: Vec<_> = ServiceSchedule::new(7, 0, 200).take(5_000).collect();
        let b: Vec<_> = ServiceSchedule::new(7, 0, 200).take(5_000).collect();
        assert_eq!(a, b);
        let a: Vec<_> = EditSchedule::new(7, 240).take(1_000).collect();
        let b: Vec<_> = EditSchedule::new(7, 240).take(1_000).collect();
        assert_eq!(a, b);
        assert_eq!(pick_distinct(7, 3, 200, 32), pick_distinct(7, 3, 200, 32));
    }

    #[test]
    fn seeds_and_clients_differ() {
        assert_ne!(docgen_models(1), docgen_models(2));
        let c0: Vec<_> = ServiceSchedule::new(7, 0, 200).take(200).collect();
        let c1: Vec<_> = ServiceSchedule::new(7, 1, 200).take(200).collect();
        assert_ne!(c0, c1);
        let s2: Vec<_> = ServiceSchedule::new(8, 0, 200).take(200).collect();
        assert_ne!(c0, s2);
    }

    #[test]
    fn every_seed_orders_the_same_pool() {
        let mut a = docgen_models(1);
        let b = docgen_models(2);
        assert_ne!(a, b);
        let mut b = b;
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        a.dedup();
        assert_eq!(a.len(), DOCGEN_POOL * DOCGEN_SIZES.len());
    }

    #[test]
    fn every_cycle_renders_every_size_once() {
        for seed in 0..20 {
            for cycle in docgen_models(seed).chunks(DOCGEN_SIZES.len()) {
                let mut sizes: Vec<usize> = cycle.iter().map(|&(s, _)| s).collect();
                sizes.sort_unstable();
                assert_eq!(sizes, DOCGEN_SIZES);
            }
        }
    }

    #[test]
    fn service_mix_matches_its_shares() {
        assert_eq!(SERVICE_MIX.iter().map(|&(_, s)| s).sum::<usize>(), 1000);
        let ops: Vec<_> = ServiceSchedule::new(3, 0, 200).take(100_000).collect();
        let share = |pred: fn(&ServiceOp) -> bool| {
            ops.iter().filter(|op| pred(op)).count() as f64 / ops.len() as f64
        };
        let hot = share(|op| {
            matches!(
                op,
                ServiceOp::Point(_) | ServiceOp::Stream | ServiceOp::Join
            )
        });
        assert!((hot - 0.90).abs() < 0.01);
        assert!((share(|op| matches!(op, ServiceOp::Cold(_))) - 0.08).abs() < 0.01);
        assert!((share(|op| matches!(op, ServiceOp::Load(_))) - 0.02).abs() < 0.005);
    }

    #[test]
    fn edit_mix_is_one_model_edit_per_two_store_edits() {
        let ops: Vec<_> = EditSchedule::new(5, 240).take(30_000).collect();
        let model = ops
            .iter()
            .filter(|op| matches!(op, EditOp::Model(_)))
            .count() as f64;
        assert!((model / ops.len() as f64 - 1.0 / 3.0).abs() < 0.02);
    }

    #[test]
    fn distinct_picks_are_distinct_and_in_range() {
        let mut picks = pick_distinct(11, 3, 200, 32);
        assert!(picks.iter().all(|&i| i < 200));
        picks.sort_unstable();
        picks.dedup();
        assert_eq!(picks.len(), 32);
    }
}
