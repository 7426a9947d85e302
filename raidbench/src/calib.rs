//! The host-speed yardstick: a fixed calibration kernel timed between
//! passes.
//!
//! The host's speed drifts by tens of percent over tens of seconds with
//! load outside this process, and that drift moves every host-time
//! figure. The kernel is fixed code of the benchmark, so no change to the
//! simulator changes its cost; dividing a throughput by the host speed
//! measured at the same time cancels most of the drift and keeps the
//! program's own changes. Its work mixes what the simulator's host time
//! is made of: binary-heap and hash-map churn (the engine), 32 KB block
//! copies (the data plane) and dependent loads over a 16 MB table (the
//! cache misses of large engine and store tables). Set-up times are scaled
//! by it too.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// How often the measured phase stops to time the kernel.
pub const EVERY: Duration = Duration::from_millis(250);
/// Kernel time on the reference host: a set-up time `t` measured while
/// [`setup_kernel`] reads `cal` is `t * REFERENCE_S / cal` at reference
/// speed. About the kernel's time on the 2-vCPU virtual machine of the
/// baseline.
pub const REFERENCE_S: f64 = 0.0065;
/// Kernel runs per [`setup_kernel`] call.
const SETUP_RUNS: usize = 3;

const HEAP_OPS: u64 = 20_000;
const BLOCK: usize = 32 << 10;
const BLOCKS: usize = 128;
const COPY_ROUNDS: usize = 2;
/// Entries of the pointer-chasing table (4 bytes each: 16 MB).
const CHASE: usize = 4 << 20;
const CHASE_STEPS: usize = 20_000;

/// Buffers allocated once, so the timed kernel does no allocation of
/// its own beyond the heap and map it churns.
struct Buffers {
    blocks: Vec<Box<[u8]>>,
    src: Box<[u8]>,
    /// One cycle through every entry (Sattolo's algorithm).
    next: Vec<u32>,
}

thread_local! {
    static BUFFERS: RefCell<Option<Buffers>> = const { RefCell::new(None) };
}

fn buffers() -> Buffers {
    let mut next: Vec<u32> = (0..CHASE as u32).collect();
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    for i in (1..CHASE).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        next.swap(i, (x % i as u64) as usize);
    }
    Buffers {
        blocks: (0..BLOCKS).map(|_| vec![0u8; BLOCK].into_boxed_slice()).collect(),
        src: vec![7u8; BLOCK].into_boxed_slice(),
        next,
    }
}

/// Run the kernel once; returns its host time in seconds.
pub fn run() -> f64 {
    BUFFERS.with(|b| {
        let mut b = b.borrow_mut();
        let b = b.get_or_insert_with(buffers);
        let t = Instant::now();
        let mut heap = BinaryHeap::new();
        let mut map: HashMap<u64, u64> = HashMap::new();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for i in 0..HEAP_OPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            heap.push(Reverse(black_box(x) % 100_000));
            if i % 2 == 1 {
                black_box(heap.pop());
            }
            *map.entry(x % 4096).or_default() += i;
        }
        for r in 0..COPY_ROUNDS {
            for d in &mut b.blocks {
                d.copy_from_slice(black_box(&b.src));
                d[r] ^= 1;
            }
        }
        let mut at = 0u32;
        for _ in 0..CHASE_STEPS {
            at = b.next[at as usize];
        }
        black_box((&heap, &map, &b.blocks, at));
        t.elapsed().as_secs_f64()
    })
}

/// The host speed for a set-up: the median time of a few kernel runs.
pub fn setup_kernel() -> f64 {
    let mut t: Vec<f64> = (0..SETUP_RUNS).map(|_| run()).collect();
    t.sort_by(f64::total_cmp);
    t[SETUP_RUNS / 2]
}
