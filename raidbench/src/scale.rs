//! `scale256_raidx`: RAID-x on 256 nodes × 1 disk with 256 clients.
//!
//! Each client sends a closed-loop stream (one job whose requests run in
//! sequence, each waiting for the previous) of 1–4-block requests, 70%
//! reads and 30% writes, within an 8-block private region. The region is
//! small so peak memory stays low; the engine does most of the host work.
//! The block cache is off.

use cdd::{BlockStore, CddConfig, IoSystem};
use cluster::ClusterConfig;
use raidx_core::Arch;
use sim_core::plan::seq;
use sim_core::rng::SplitMix64;
use sim_core::Engine;

use crate::cell::{drain, run_engine, set_up, unmeasured, Built, Cell, PassOut};
use crate::model::{permutation, Shadow};
use crate::span;
use crate::store::{StoreCounts, Timed};

pub const CELLS: usize = 1;
const NODES: usize = 256;
/// Blocks in each client's private region.
const REGION: u64 = 8;
/// Requests per client per pass.
const REQUESTS: usize = 2;
const READ_BACK: usize = 128;

struct Scale {
    engine: Engine,
    store: Timed<IoSystem>,
    model: Shadow,
    slot: Vec<usize>,
    seed: u64,
    op: u64,
}

pub fn setup(_cell: usize, seed: u64) -> Built {
    set_up(
        || {
            let mut engine = Engine::new();
            let cc = ClusterConfig::shape(NODES, 1);
            let sys = IoSystem::new(&mut engine, cc, Arch::RaidX, CddConfig::default());
            (engine, sys)
        },
        |(engine, sys)| {
            let mut store = Timed::new(sys);
            let slot = permutation(&mut SplitMix64::new(seed), NODES);
            let mut model = Shadow::new(seed, store.block_size(), 0, NODES as u64 * REGION);
            for (c, &s) in slot.iter().enumerate() {
                let lb0 = s as u64 * REGION;
                let payload = model.write(lb0, REGION);
                store.write(c, lb0, &payload).expect("seeding write failed");
            }
            Box::new(Scale { engine, store, model, slot, seed, op: 0 })
        },
    )
}

impl Cell for Scale {
    fn pass(&mut self, k: u64) -> PassOut {
        let mut out = PassOut::default();
        let mut rng = SplitMix64::new(self.seed).substream(k + 1);
        let t0 = self.engine.now();
        let mut idle_clients = 0;
        for c in 0..NODES {
            let mut steps = Vec::with_capacity(REQUESTS);
            for _ in 0..REQUESTS {
                let n = 1 + rng.next_below(4);
                let lb0 = self.slot[c] as u64 * REGION + rng.next_below(REGION - n + 1);
                let read = rng.next_below(10) < 7;
                self.op += 1;
                span::set_op(self.op);
                out.attempted += 1;
                let plan = if read {
                    self.store.read(c, lb0, n).map(|(data, plan)| {
                        if !unmeasured(|| self.model.check(lb0, &data)) {
                            out.failed += 1;
                        }
                        plan
                    })
                } else {
                    let payload = unmeasured(|| self.model.write(lb0, n));
                    self.store.write(c, lb0, &payload)
                };
                out.fingerprint.add(lb0 << 16 | n << 8 | u64::from(read));
                out.fingerprint.add(self.model.stamp_of(lb0));
                match plan {
                    Ok(plan) => {
                        steps.push(plan);
                        out.ops += 1;
                    }
                    Err(_) => out.failed += 1,
                }
            }
            if steps.is_empty() {
                idle_clients += 1;
            }
            self.engine.spawn_job("scale", seq(steps));
        }
        if run_engine(&mut self.engine)
            .and_then(|_| drain(&mut self.engine, &mut self.store))
            .is_err()
        {
            out.failed += out.attempted;
            out.guard.push("scale256 pass deadlocked".into());
            return out;
        }
        out.sim_ns = self.engine.now().since(t0).as_nanos();
        if k == 0 {
            // A node is active when any of its resources (`node{n}/...`
            // or `disk{g}@node{n}`) served a demand in this pass.
            let mut active = vec![false; NODES];
            for (_, name, st) in self.engine.resources() {
                let node = name.rsplit("node").next().and_then(|t| t.split('/').next());
                if let Some(n) = node.and_then(|n| n.parse::<usize>().ok()) {
                    active[n] |= st.ops > 0;
                }
            }
            let nodes_active = active.iter().filter(|a| **a).count();
            if self.store.nodes() != NODES || idle_clients > 0 || nodes_active != NODES {
                out.guard.push(format!(
                    "scale256: {} nodes, {} of {NODES} clients and {nodes_active} nodes active",
                    self.store.nodes(),
                    NODES - idle_clients
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
        let mut rng = SplitMix64::new(seed ^ 0xB4C4);
        let mut failed = 0;
        for _ in 0..READ_BACK {
            let lb = rng.next_below(NODES as u64 * REGION);
            let node = rng.next_below(NODES as u64) as usize;
            match self.store.inner.read(node, lb, 1) {
                Ok((data, _)) if self.model.check(lb, &data) => {}
                _ => failed += 1,
            }
        }
        (READ_BACK as u64, failed)
    }
}
