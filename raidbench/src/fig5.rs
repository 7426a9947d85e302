//! `fig5_trojans`: the paper's Figure 5 on the 16-node Trojans cluster.
//!
//! One cell per architecture (NFS, RAID-5, RAID-10, RAID-x). A pass runs
//! the four patterns in turn — large (2 MB) read, small (32 KB) read,
//! large write, small write — each as 16 barrier-synchronised clients
//! doing two bursts on private regions, then drains the write-behind
//! queue. Reads return what earlier passes wrote, so reads and writes
//! share the data plane. The block cache is off.

use cdd::{BlockStore, CddConfig, IoSystem};
use cluster::ClusterConfig;
use nfs_sim::{NfsConfig, NfsSystem};
use raidx_core::Arch;
use sim_core::plan::{barrier, seq};
use sim_core::rng::SplitMix64;
use sim_core::{BarrierId, Engine};

use crate::cell::{drain, run_engine, set_up, unmeasured, Built, Cell, PassOut};
use crate::model::{permutation, Shadow};
use crate::span;
use crate::store::{StoreCounts, Timed};

/// NFS, RAID-5, RAID-10, RAID-x.
pub const CELLS: usize = 4;
const CLIENTS: usize = 16;
/// Blocks of one large request: 2 MB of 32 KB blocks.
const LARGE: u64 = 64;
const BURSTS: u64 = 2;
/// Blocks read back after the measured phase.
const READ_BACK: usize = 64;

#[derive(Clone, Copy)]
enum Pattern {
    LargeRead,
    SmallRead,
    LargeWrite,
    SmallWrite,
}

const PATTERNS: [Pattern; 4] =
    [Pattern::LargeRead, Pattern::SmallRead, Pattern::LargeWrite, Pattern::SmallWrite];

impl Pattern {
    fn large(self) -> bool {
        matches!(self, Pattern::LargeRead | Pattern::LargeWrite)
    }

    fn write(self) -> bool {
        matches!(self, Pattern::LargeWrite | Pattern::SmallWrite)
    }

    fn label(self) -> &'static str {
        match self {
            Pattern::LargeRead => "large read",
            Pattern::SmallRead => "small read",
            Pattern::LargeWrite => "large write",
            Pattern::SmallWrite => "small write",
        }
    }
}

/// Build the store of `cell` on the Trojans cluster (shared with Andrew).
pub fn build_store(cell: usize) -> (Engine, Box<dyn BlockStore>) {
    let mut engine = Engine::new();
    let cc = ClusterConfig::trojans();
    let store: Box<dyn BlockStore> = match cell {
        0 => Box::new(NfsSystem::new(&mut engine, cc, NfsConfig::default())),
        1 => Box::new(IoSystem::new(&mut engine, cc, Arch::Raid5, CddConfig::default())),
        2 => Box::new(IoSystem::new(&mut engine, cc, Arch::Raid10, CddConfig::default())),
        _ => Box::new(IoSystem::new(&mut engine, cc, Arch::RaidX, CddConfig::default())),
    };
    (engine, store)
}

struct Fig5 {
    engine: Engine,
    store: Timed<Box<dyn BlockStore>>,
    model: Shadow,
    /// Region slot of each client, a seeded permutation.
    slot: Vec<usize>,
    barrier: u32,
    op: u64,
}

/// First block and length of burst `r` of the client in region `slot`.
fn region(p: Pattern, slot: usize, r: u64) -> (u64, u64) {
    let slot = slot as u64;
    if p.large() {
        (slot * LARGE * BURSTS + r * LARGE, LARGE)
    } else {
        (CLIENTS as u64 * LARGE * BURSTS + slot * BURSTS + r, 1)
    }
}

pub fn setup(cell: usize, seed: u64) -> Built {
    set_up(
        || build_store(cell),
        |(engine, store)| {
            let mut store = Timed::new(store);
            let bs = store.block_size();
            let slot = permutation(&mut SplitMix64::new(seed), CLIENTS);
            let total = CLIENTS as u64 * (LARGE + 1) * BURSTS;
            let mut model = Shadow::new(seed, bs, 0, total);
            for p in [Pattern::LargeWrite, Pattern::SmallWrite] {
                for (c, &s) in slot.iter().enumerate() {
                    for r in 0..BURSTS {
                        let (lb0, n) = region(p, s, r);
                        let payload = model.write(lb0, n);
                        let node = (c + 1) % store.nodes();
                        store.write(node, lb0, &payload).expect("seeding write failed");
                    }
                }
            }
            Box::new(Fig5 { engine, store, model, slot, barrier: 0, op: 0 })
        },
    )
}

impl Cell for Fig5 {
    fn pass(&mut self, _k: u64) -> PassOut {
        let mut out = PassOut::default();
        let nodes = self.store.nodes();
        for p in PATTERNS {
            let t0 = self.engine.now();
            self.barrier += 1;
            let bid = BarrierId(self.barrier);
            self.engine.register_barrier(bid, CLIENTS);
            let mut moved = 0;
            for c in 0..CLIENTS {
                let node = (c + 1) % nodes;
                let mut steps = Vec::with_capacity(2 * BURSTS as usize);
                for r in 0..BURSTS {
                    let (lb0, n) = region(p, self.slot[c], r);
                    self.op += 1;
                    span::set_op(self.op);
                    out.attempted += 1;
                    steps.push(barrier(bid));
                    let plan = if p.write() {
                        let payload = unmeasured(|| self.model.write(lb0, n));
                        self.store.write(node, lb0, &payload)
                    } else {
                        self.store.read(node, lb0, n).map(|(data, plan)| {
                            if !unmeasured(|| self.model.check(lb0, &data)) {
                                out.failed += 1;
                            }
                            plan
                        })
                    };
                    out.fingerprint.add(lb0 << 8 | c as u64);
                    out.fingerprint.add(self.model.stamp_of(lb0));
                    match plan {
                        Ok(plan) => {
                            steps.push(plan);
                            moved += n;
                            out.ops += 1;
                        }
                        Err(_) => out.failed += 1,
                    }
                }
                self.engine.spawn_job("fig5", seq(steps));
            }
            let ran =
                run_engine(&mut self.engine).and_then(|_| drain(&mut self.engine, &mut self.store));
            if ran.is_err() {
                out.failed += CLIENTS as u64 * BURSTS;
                out.guard.push(format!("{} {}: deadlocked", self.store.arch_name(), p.label()));
                return out;
            }
            out.sim_ns += self.engine.now().since(t0).as_nanos();
            let want = CLIENTS as u64 * BURSTS * region(p, 0, 0).1;
            let unfinished = self
                .engine
                .jobs()
                .iter()
                .rev()
                .take(CLIENTS + 1)
                .any(|j| j.try_latency().is_none());
            if moved != want || unfinished {
                out.guard.push(format!(
                    "{} {}: moved {moved} of {want} blocks",
                    self.store.arch_name(),
                    p.label()
                ));
            }
        }
        out
    }

    fn engine(&mut self) -> &mut Engine {
        &mut self.engine
    }

    fn counts(&self) -> StoreCounts {
        self.store.counts
    }

    fn read_back(&mut self, seed: u64) -> (u64, u64) {
        let written: Vec<u64> = self.model.written().collect();
        let mut rng = SplitMix64::new(seed ^ 0x5A5A);
        let nodes = self.store.nodes();
        let mut failed = 0;
        for _ in 0..READ_BACK {
            let lb = written[rng.next_below(written.len() as u64) as usize];
            let node = rng.next_below(nodes as u64) as usize;
            match self.store.inner.read(node, lb, 1) {
                Ok((data, _)) if self.model.check(lb, &data) => {}
                _ => failed += 1,
            }
        }
        (READ_BACK as u64, failed)
    }
}
