//! `zipf_cached`: RAID-x on 16 nodes with the default 128-block
//! per-client cache.
//!
//! Four clients issue single-block ops drawn Zipf(1.0) over a 1024-block
//! region (8x one client's cache), about one write per eight ops. Each op
//! is compiled and run to completion before the next, so its host latency
//! (compile start to `Engine::run` return) and its simulated latency are
//! closed-loop figures. This is the only workload with the cache on: it
//! exercises cache hits, lock-group invalidation and the fixed cost of
//! one `Engine::run` call per op. The caches start empty at pass 0.

use std::collections::BTreeSet;
use std::time::Instant;

use cdd::{BlockStore, CacheConfig, CacheStats, CddConfig, IoSystem};
use cluster::ClusterConfig;
use raidx_core::Arch;
use sim_core::rng::SplitMix64;
use sim_core::Engine;

use crate::cell::{drain, run_engine, set_up, unmeasured, Built, Cell, PassOut};
use crate::model::{permutation, Shadow};
use crate::span;
use crate::store::{StoreCounts, Timed};

pub const CELLS: usize = 1;
const CLIENTS: u64 = 4;
const REGION: u64 = 1024;
/// Ops per pass: enough for a p99 with ten samples beyond it.
const OPS: usize = 1024;
/// One write per this many ops, on average.
const WRITE_ONE_IN: u64 = 8;
/// Blocks written by one seeding call.
const SEED_CHUNK: u64 = 32;
const READ_BACK: usize = 128;

struct Zipf {
    engine: Engine,
    store: Timed<IoSystem>,
    model: Shadow,
    /// Rank → block: hot ranks scatter over the layout.
    perm: Vec<usize>,
    /// Cumulative Zipf(1.0) weights of the ranks.
    cum: Vec<f64>,
    seed: u64,
    /// Blocks a write invalidated in some cache and no read has fetched since.
    invalidated: BTreeSet<u64>,
    op: u64,
}

pub fn setup(_cell: usize, seed: u64) -> Built {
    set_up(
        || {
            let mut engine = Engine::new();
            let cfg = CddConfig { cache: Some(CacheConfig::default()), ..CddConfig::default() };
            let sys = IoSystem::new(&mut engine, ClusterConfig::trojans(), Arch::RaidX, cfg);
            (engine, sys)
        },
        |(engine, sys)| {
            let mut store = Timed::new(sys);
            let mut model = Shadow::new(seed, store.block_size(), 0, REGION);
            for lb0 in (0..REGION).step_by(SEED_CHUNK as usize) {
                let payload = model.write(lb0, SEED_CHUNK);
                store.write(0, lb0, &payload).expect("seeding write failed");
            }
            let perm = permutation(&mut SplitMix64::new(seed), REGION as usize);
            let mut acc = 0.0;
            let cum = (0..REGION)
                .map(|k| {
                    acc += 1.0 / (k + 1) as f64;
                    acc
                })
                .collect();
            Box::new(Zipf {
                engine,
                store,
                model,
                perm,
                cum,
                seed,
                invalidated: BTreeSet::new(),
                op: 0,
            })
        },
    )
}

impl Zipf {
    fn draw(&self, rng: &mut SplitMix64) -> u64 {
        let total = *self.cum.last().expect("non-empty region");
        let u = rng.next_f64() * total;
        self.perm[self.cum.partition_point(|&c| c <= u).min(self.cum.len() - 1)] as u64
    }

    fn invalidations(&self) -> u64 {
        self.store.inner.cache_stats().map_or(0, |s| s.invalidations)
    }
}

impl Cell for Zipf {
    fn pass(&mut self, k: u64) -> PassOut {
        let mut out = PassOut::default();
        let mut rng = SplitMix64::new(self.seed).substream(k + 1);
        let before = self.store.inner.cache_stats().unwrap_or_default();
        let mut rereads = 0;
        let t0 = self.engine.now();
        for _ in 0..OPS {
            let write = rng.next_below(WRITE_ONE_IN) == 0;
            let node = 1 + rng.next_below(CLIENTS) as usize;
            let lb = self.draw(&mut rng);
            out.fingerprint.add(lb << 8 | (node as u64) << 1 | u64::from(write));
            self.op += 1;
            span::set_op(self.op);
            out.attempted += 1;
            let payload = write.then(|| unmeasured(|| self.model.write(lb, 1)));
            let inv0 = self.invalidations();
            let start = Instant::now();
            let compiled = match &payload {
                Some(p) => self.store.write(node, lb, p).map(|plan| (None, plan)),
                None => self.store.read(node, lb, 1).map(|(data, plan)| (Some(data), plan)),
            };
            let Ok((data, plan)) = compiled else {
                out.failed += 1;
                continue;
            };
            self.engine.spawn_job("zipf", plan);
            let ran = run_engine(&mut self.engine);
            out.op_host_ns.push(start.elapsed().as_nanos() as u64);
            if ran.is_err() {
                out.failed += 1;
                out.guard.push("zipf op deadlocked".into());
                return out;
            }
            out.ops += 1;
            let job = self.engine.jobs().last().and_then(|j| j.try_latency());
            out.op_sim_ns.push(job.map_or(0, |d| d.as_nanos()));
            match data {
                Some(data) => {
                    if !unmeasured(|| self.model.check(lb, &data)) {
                        out.failed += 1;
                    } else if self.invalidated.remove(&lb) {
                        rereads += 1;
                    }
                }
                None if self.invalidations() > inv0 => {
                    self.invalidated.insert(lb);
                }
                None => {}
            }
        }
        if drain(&mut self.engine, &mut self.store).is_err() {
            out.failed += 1;
            out.guard.push("zipf flush deadlocked".into());
            return out;
        }
        out.sim_ns = self.engine.now().since(t0).as_nanos();
        if k == 0 {
            let s = self.store.inner.cache_stats().unwrap_or_default();
            let (hits, inv) = (s.hits - before.hits, s.invalidations - before.invalidations);
            if hits == 0 || inv == 0 || rereads == 0 {
                out.guard.push(format!(
                    "zipf pass 0: {hits} cache hits, {inv} invalidations, \
                     {rereads} invalidated blocks re-read"
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

    fn cache_stats(&self) -> Option<CacheStats> {
        self.store.inner.cache_stats()
    }

    fn read_back(&mut self, seed: u64) -> (u64, u64) {
        let mut rng = SplitMix64::new(seed ^ 0x21BF);
        let mut failed = 0;
        for _ in 0..READ_BACK {
            let lb = rng.next_below(REGION);
            let node = rng.next_below(16) as usize;
            match self.store.inner.read(node, lb, 1) {
                Ok((data, _)) if self.model.check(lb, &data) => {}
                _ => failed += 1,
            }
        }
        (READ_BACK as u64, failed)
    }
}
