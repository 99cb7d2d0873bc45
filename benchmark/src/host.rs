//! Host-noise probes: two fixed pieces of work that touch none of the
//! repo's code. If their times move during a session, the host moved —
//! a disagreement between two result sets can then be attributed to the
//! machine instead of argued about.

use std::hint::black_box;
use std::time::Instant;

/// Words in the pointer-chase buffer: 32 Mi × 4 B = 128 MiB, past every
/// private cache level of the hosts this runs on.
const CHASE_WORDS: usize = 1 << 25;
const CHASE_STEPS: u32 = 1 << 18;
const CPU_STEPS: u32 = 1 << 24;
/// A probe's max ÷ min over the session above this marks the host noisy.
const NOISY_RATIO: f64 = 1.15;

pub struct Probes {
    chase: Vec<u32>,
    pub cpu_s: Vec<f64>,
    pub mem_s: Vec<f64>,
}

impl Probes {
    pub fn new() -> Self {
        // An odd multiplier permutes the u32s, so the chase below wanders
        // over the whole buffer; every page is written, so none aliases
        // the kernel's shared zero page.
        let chase = (0..CHASE_WORDS as u32)
            .map(|i| i.wrapping_mul(0x9E37_79B1))
            .collect();
        Probes {
            chase,
            cpu_s: Vec::new(),
            mem_s: Vec::new(),
        }
    }

    pub fn sample(&mut self) {
        let t = Instant::now();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..CPU_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        black_box(x);
        self.cpu_s.push(t.elapsed().as_secs_f64());

        let t = Instant::now();
        let mask = CHASE_WORDS as u32 - 1;
        let mut idx = 0u32;
        for step in 0..CHASE_STEPS {
            idx = (self.chase[idx as usize] ^ step) & mask;
        }
        black_box(idx);
        self.mem_s.push(t.elapsed().as_secs_f64());
    }

    pub fn noisy(&self) -> bool {
        [&self.cpu_s, &self.mem_s].into_iter().any(|s| {
            let (lo, hi) = crate::min_max(s);
            hi > lo * NOISY_RATIO
        })
    }
}
