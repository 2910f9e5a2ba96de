//! Host-speed samples. The hosts this benchmark runs on share their cores
//! with other machines' work: for seconds to minutes at a time every
//! instruction runs up to 1.5 times slower, and the slowdown is not steal
//! time, so neither thread CPU time nor any statistic within a run removes
//! it. The benchmark therefore times a fixed unit of reference work — its
//! own code, never the program's — at short intervals through the run, and
//! divides each measured time by how much slower than nominal the host ran
//! the reference work at that moment. A change to the program cannot
//! change the reference work, so it moves the normalized figures as it
//! would move the raw ones on an idle host.
//!
//! The reference work allocates nothing and keeps its data in 100 KB, so
//! its time does not depend on what the program left in the allocator or
//! on how much memory the program holds.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use crate::sched::Rng;

/// Keys one pass formats, hashes and sorts.
const KEYS: usize = 2_048;
/// Slots of the pointer chain one pass follows.
const CHAIN: usize = 8_192;
/// Passes in one unit.
const PASSES: usize = 3;

/// Milliseconds one reference unit takes at nominal host speed: about its
/// median on a lightly loaded 2-vCPU Intel Xeon (family 6, model 207) KVM
/// guest. Normalized times are the times the program would take there.
pub const NOMINAL_UNIT_MS: f64 = 0.4;

/// Seconds of the timed phase between two samples.
pub const SAMPLE_EVERY_S: f64 = 0.025;

/// The reference work and the buffers it runs in, allocated once: string
/// formatting, hashing into an open-addressing table, a sort and a
/// pointer chase — the kinds of work an XML store and a query engine
/// spend their time on.
pub struct Reference {
    keys: Vec<u64>,
    sorted: Vec<u64>,
    table: Vec<u64>,
    chain: Vec<u32>,
    text: String,
}

impl Default for Reference {
    fn default() -> Reference {
        let mut rng = Rng::new(0x5EED, 9);
        let keys: Vec<u64> = (0..KEYS).map(|_| rng.next_u64() % 1_000_000).collect();
        let mut chain: Vec<u32> = (0..CHAIN as u32).collect();
        rng.shuffle(&mut chain);
        let mut reference = Reference {
            sorted: keys.clone(),
            keys,
            table: vec![0; 2 * KEYS],
            chain,
            text: String::with_capacity(KEYS * 16),
        };
        // A first pass touches every buffer, so no sample pays for that.
        black_box(reference.pass());
        reference
    }
}

impl Reference {
    /// One unit of the work; returns a checksum so it cannot be optimized
    /// away.
    pub fn unit(&mut self) -> u64 {
        let mut sum = 0u64;
        for _ in 0..PASSES {
            sum = sum.wrapping_add(self.pass());
        }
        sum
    }

    fn pass(&mut self) -> u64 {
        self.text.clear();
        self.table.fill(0);
        let mask = self.table.len() - 1;
        for &k in &self.keys {
            let at = self.text.len();
            let _ = write!(self.text, "key-{k:x};");
            let mut h: u64 = 0xCBF2_9CE4_8422_2325;
            for &b in &self.text.as_bytes()[at..] {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01B3);
            }
            let mut slot = h as usize & mask;
            while self.table[slot] != 0 && self.table[slot] != h {
                slot = (slot + 1) & mask;
            }
            self.table[slot] = h;
        }
        self.sorted.copy_from_slice(&self.keys);
        self.sorted.sort_unstable();
        let mut p = 0u32;
        let mut sum = 0u64;
        for &k in &self.sorted {
            for _ in 0..3 {
                p = self.chain[p as usize];
            }
            sum = sum.wrapping_add(k ^ p as u64);
        }
        sum
    }

    /// Times one unit, in milliseconds.
    pub fn time_unit(&mut self) -> f64 {
        let t = Instant::now();
        black_box(self.unit());
        t.elapsed().as_secs_f64() * 1e3
    }
}

/// Reference-unit samples of one thread, each at a time into the timed
/// phase.
#[derive(Default)]
pub struct Sampler {
    pub samples: Vec<(f64, f64)>,
    reference: Reference,
    next_at_s: f64,
}

impl Sampler {
    /// Takes a sample when [`SAMPLE_EVERY_S`] has passed since the last.
    pub fn tick(&mut self, at_s: f64) {
        if at_s >= self.next_at_s {
            self.samples.push((at_s, self.reference.time_unit()));
            self.next_at_s = at_s + SAMPLE_EVERY_S;
        }
    }
}

/// How many times slower than nominal the host ran the reference work,
/// from a set of unit times: their median over [`NOMINAL_UNIT_MS`].
pub fn slowdown(unit_ms: &[f64]) -> f64 {
    if unit_ms.is_empty() {
        1.0
    } else {
        crate::stats::median(unit_ms) / NOMINAL_UNIT_MS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_unit_is_fixed_work() {
        let mut a = Reference::default();
        let first = a.unit();
        assert_eq!(a.unit(), first);
        assert_eq!(Reference::default().unit(), first);
    }

    #[test]
    fn slowdown_is_the_median_over_nominal() {
        let ms = [NOMINAL_UNIT_MS * 1.5, NOMINAL_UNIT_MS * 3.0, NOMINAL_UNIT_MS];
        assert!((slowdown(&ms) - 1.5).abs() < 1e-12);
        assert_eq!(slowdown(&[]), 1.0);
    }

    #[test]
    fn samples_are_spaced() {
        let mut s = Sampler::default();
        for k in 0..10 {
            s.tick(k as f64 * SAMPLE_EVERY_S / 2.0);
        }
        assert_eq!(s.samples.len(), 5);
    }
}
