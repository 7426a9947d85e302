//! `andrew_cfs`: the paper's Figure 6 Andrew phases on `cfs`, one cell
//! per architecture (NFS, RAID-5, RAID-10, RAID-x), on the Trojans
//! cluster with 32 clients (client `c` on node `(c + 1) mod 16`).
//!
//! Set-up seeds each client's source tree under `/src`. Pass `k` works in
//! its own tree `/p{k}`: MakeDir, Copy (read each source, write the copy),
//! ScanDir, ReadAll and Make (read, 40 ms of CPU per source, one object
//! per directory), each phase barrier-synchronised across the clients,
//! then Clean unlinks the tree of pass `k - 1`. The last tree stays for the
//! read-back. Every read is checked for size and contents; ScanDir checks
//! entry counts and `stat` sizes. Metadata-heavy small-file traffic with
//! reads and writes: `cfs` is measured nowhere else.

use cdd::BlockStore;
use cfs::{Fs, FsError};
use sim_core::plan::{barrier, seq, use_res};
use sim_core::rng::SplitMix64;
use sim_core::{BarrierId, Demand, Engine, Plan, SimDuration};

use crate::cell::{drain, run_engine, set_up, unmeasured, Built, Cell, PassOut};
use crate::fig5::build_store;
use crate::model::{fill, holds, stamp};
use crate::span::{self, span};
use crate::store::{StoreCounts, Timed};

pub const CELLS: usize = 4;
const CLIENTS: usize = 32;
const DIRS: usize = 4;
const FILES: usize = 5;
/// Source sizes are drawn from `[SRC_MIN, SRC_MAX)`: one to four 32 KB
/// blocks, so the seed changes how many blocks each file moves.
const SRC_MIN: usize = 4 << 10;
const SRC_MAX: usize = 128 << 10;
/// Size of the object file Make writes per directory.
const OBJ_LEN: usize = 16 << 10;
const COMPILE_CPU: SimDuration = SimDuration::from_millis(40);
/// The source tree and two live trees of `CLIENTS * (1 + DIRS * (1 +
/// FILES + 1))` inodes each fit.
const INODES: u32 = 4096;
const READ_BACK: usize = 32;
/// Key offset of the per-directory object files.
const OBJECT: usize = 1000;

type Store = Timed<Box<dyn BlockStore>>;

struct Andrew {
    engine: Engine,
    fs: Fs<Store>,
    /// Source size of file `f` of client `c` at `[c][f]`.
    sizes: Vec<Vec<usize>>,
    seed: u64,
    barrier: u32,
    /// The tree the last pass left, cleaned by the next pass.
    live: Option<u64>,
    op: u64,
}

pub fn setup(cell: usize, seed: u64) -> Built {
    set_up(
        || build_store(cell),
        |(engine, store)| {
            let (mut fs, _) = Fs::format(Timed::new(store), INODES, 0).expect("format failed");
            let mut rng = SplitMix64::new(seed);
            let sizes: Vec<Vec<usize>> = (0..CLIENTS)
                .map(|_| {
                    (0..DIRS * FILES)
                        .map(|_| SRC_MIN + rng.next_below((SRC_MAX - SRC_MIN) as u64) as usize)
                        .collect()
                })
                .collect();
            let seeded = (|| -> Result<(), FsError> {
                fs.mkdir(0, "/src")?;
                for (c, sizes) in sizes.iter().enumerate() {
                    let node = (c + 1) % fs.store().nodes();
                    fs.mkdir(node, &format!("/src/c{c}"))?;
                    for d in 0..DIRS {
                        fs.mkdir(node, &format!("/src/c{c}/d{d}"))?;
                    }
                    for (f, &len) in sizes.iter().enumerate() {
                        fs.write_file(node, &src(SOURCE, c, f), &contents(seed, key(c, f), len))?;
                    }
                }
                Ok(())
            })();
            seeded.expect("seeding the source tree failed");
            Box::new(Andrew { engine, fs, sizes, seed, barrier: 0, live: None, op: 0 })
        },
    )
}

/// Tree index of the seeded sources: their paths are under `/src`.
const SOURCE: u64 = u64::MAX;

fn root(k: u64) -> String {
    if k == SOURCE {
        "/src".into()
    } else {
        format!("/p{k}")
    }
}

fn src(k: u64, c: usize, f: usize) -> String {
    format!("{}/c{c}/d{}/src{}.c", root(k), f / FILES, f % FILES)
}

fn obj(k: u64, c: usize, d: usize) -> String {
    format!("/p{k}/c{c}/d{d}/prog.o")
}

/// Contents key of source `f` of client `c` (copies keep their source's
/// bytes); objects use `f = OBJECT + d` and the pass in the high bits.
fn key(c: usize, f: usize) -> u64 {
    (c as u64) << 16 | f as u64
}

fn contents(seed: u64, key: u64, len: usize) -> Vec<u8> {
    let mut buf = vec![0u8; len];
    fill(&mut buf, key, stamp(seed, key, 1));
    buf
}

impl Andrew {
    /// Call into `cfs` inside a `cfs.<op>` span, counting the store calls
    /// it makes; a failed call counts as a failed op.
    fn call<R>(
        &mut self,
        out: &mut PassOut,
        name: &'static str,
        f: impl FnOnce(&mut Fs<Store>) -> Result<R, FsError>,
    ) -> Option<R> {
        self.op += 1;
        span::set_op(self.op);
        let calls = self.fs.store().counts.calls;
        let r = span(name, || f(&mut self.fs));
        out.cfs_store_calls += self.fs.store().counts.calls - calls;
        out.attempted += 1;
        out.ops += 1;
        if r.is_err() {
            out.failed += 1;
        }
        r.ok()
    }

    fn next_barrier(&mut self) -> BarrierId {
        self.barrier += 1;
        let bid = BarrierId(self.barrier);
        self.engine.register_barrier(bid, CLIENTS);
        bid
    }

    /// Spawn one job per client and run the phase; false on deadlock.
    fn run_phase(&mut self, jobs: Vec<Vec<Plan>>) -> bool {
        for steps in jobs {
            self.engine.spawn_job("andrew", seq(steps));
        }
        run_engine(&mut self.engine).is_ok()
    }

    /// Read file `f` of client `c` in tree `k` and check its size and bytes.
    fn read_src(
        &mut self,
        out: &mut PassOut,
        node: usize,
        (k, c, f): (u64, usize, usize),
    ) -> Option<(Vec<u8>, Plan)> {
        let read = self.call(out, "cfs.read_file", |fs| fs.read_file(node, &src(k, c, f)))?;
        let (key, want) = (key(c, f), self.sizes[c][f]);
        let stamp = stamp(self.seed, key, 1);
        out.fingerprint.add(stamp ^ want as u64);
        if !unmeasured(|| read.0.len() == want && holds(&read.0, key, stamp)) {
            out.failed += 1;
        }
        Some(read)
    }
}

impl Cell for Andrew {
    fn pass(&mut self, k: u64) -> PassOut {
        let mut out = PassOut::default();
        let t0 = self.engine.now();
        let meta0 = self.fs.cache_stats();
        let nodes = self.fs.store().nodes();
        let node_of = |c: usize| (c + 1) % nodes;
        for phase in 0..6 {
            if phase == 5 && self.live.is_none() {
                continue;
            }
            let bid = self.next_barrier();
            let mut jobs = Vec::with_capacity(CLIENTS);
            for c in 0..CLIENTS {
                let node = node_of(c);
                let mut steps = vec![barrier(bid)];
                let dir = format!("/p{k}/c{c}");
                match phase {
                    0 => {
                        if c == 0 {
                            steps.extend(self.call(&mut out, "cfs.mkdir", |fs| {
                                fs.mkdir(node, &format!("/p{k}"))
                            }));
                        }
                        steps.extend(self.call(&mut out, "cfs.mkdir", |fs| fs.mkdir(node, &dir)));
                        for d in 0..DIRS {
                            let path = format!("{dir}/d{d}");
                            steps.extend(
                                self.call(&mut out, "cfs.mkdir", |fs| fs.mkdir(node, &path)),
                            );
                        }
                    }
                    1 => {
                        for f in 0..DIRS * FILES {
                            let read = self.read_src(&mut out, node, (SOURCE, c, f));
                            let Some((data, plan)) = read else { continue };
                            steps.push(plan);
                            steps.extend(self.call(&mut out, "cfs.write_file", |fs| {
                                fs.write_file(node, &src(k, c, f), &data)
                            }));
                        }
                    }
                    2 => {
                        let listed =
                            self.call(&mut out, "cfs.readdir", |fs| fs.readdir(node, &dir));
                        if let Some((entries, plan)) = listed {
                            out.failed += u64::from(entries.len() != DIRS);
                            steps.push(plan);
                        }
                        for d in 0..DIRS {
                            let path = format!("{dir}/d{d}");
                            let listed =
                                self.call(&mut out, "cfs.readdir", |fs| fs.readdir(node, &path));
                            if let Some((entries, plan)) = listed {
                                out.failed += u64::from(entries.len() != FILES);
                                steps.push(plan);
                            }
                            for f in d * FILES..(d + 1) * FILES {
                                let stat = self
                                    .call(&mut out, "cfs.stat", |fs| fs.stat(node, &src(k, c, f)));
                                if let Some((inode, plan)) = stat {
                                    out.failed += u64::from(inode.size != self.sizes[c][f] as u64);
                                    steps.push(plan);
                                }
                            }
                        }
                    }
                    3 => {
                        for f in 0..DIRS * FILES {
                            steps.extend(self.read_src(&mut out, node, (k, c, f)).map(|r| r.1));
                        }
                    }
                    4 => {
                        let cpu = self.fs.store().cpu_of(node);
                        for f in 0..DIRS * FILES {
                            steps.extend(self.read_src(&mut out, node, (k, c, f)).map(|r| r.1));
                            steps.push(use_res(cpu, Demand::Busy(COMPILE_CPU)));
                        }
                        for d in 0..DIRS {
                            let key = k << 32 | key(c, OBJECT + d);
                            let data = unmeasured(|| contents(self.seed, key, OBJ_LEN));
                            steps.extend(self.call(&mut out, "cfs.write_file", |fs| {
                                fs.write_file(node, &obj(k, c, d), &data)
                            }));
                        }
                    }
                    _ => {
                        let p = self.live.expect("clean runs only with a previous tree");
                        for d in 0..DIRS {
                            for f in d * FILES..(d + 1) * FILES {
                                steps.extend(self.call(&mut out, "cfs.unlink", |fs| {
                                    fs.unlink(node, &src(p, c, f))
                                }));
                            }
                            steps.extend(
                                self.call(&mut out, "cfs.unlink", |fs| {
                                    fs.unlink(node, &obj(p, c, d))
                                }),
                            );
                            let path = format!("/p{p}/c{c}/d{d}");
                            steps.extend(
                                self.call(&mut out, "cfs.unlink", |fs| fs.unlink(node, &path)),
                            );
                        }
                        let path = format!("/p{p}/c{c}");
                        steps
                            .extend(self.call(&mut out, "cfs.unlink", |fs| fs.unlink(node, &path)));
                        if c == CLIENTS - 1 {
                            let root = format!("/p{p}");
                            steps.extend(
                                self.call(&mut out, "cfs.unlink", |fs| fs.unlink(node, &root)),
                            );
                        }
                    }
                }
                jobs.push(steps);
            }
            if !self.run_phase(jobs) {
                out.failed += 1;
                out.guard.push(format!(
                    "{} Andrew phase {phase} deadlocked",
                    self.fs.store().arch_name()
                ));
                return out;
            }
        }
        if drain(&mut self.engine, self.fs.store_mut()).is_err() {
            out.failed += 1;
            out.guard.push(format!("{} Andrew flush deadlocked", self.fs.store().arch_name()));
            return out;
        }
        self.live = Some(k);
        out.sim_ns = self.engine.now().since(t0).as_nanos();
        let (hits, _) = self.fs.cache_stats();
        if k == 0 && self.fs.store().caches_metadata() && hits == meta0.0 {
            out.guard
                .push(format!("{} Andrew: no metadata cache hits", self.fs.store().arch_name()));
        }
        out
    }

    fn engine(&mut self) -> &mut Engine {
        &mut self.engine
    }

    fn counts(&self) -> StoreCounts {
        self.fs.store().counts
    }

    fn meta_stats(&self) -> Option<(u64, u64)> {
        Some(self.fs.cache_stats())
    }

    fn read_back(&mut self, seed: u64) -> (u64, u64) {
        let Some(k) = self.live else { return (0, 0) };
        let mut rng = SplitMix64::new(seed ^ 0xA4D7);
        let mut failed = 0;
        for _ in 0..READ_BACK {
            let c = rng.next_below(CLIENTS as u64) as usize;
            let f = rng.next_below((DIRS * FILES) as u64) as usize;
            let key = key(c, f);
            match self.fs.read_file(0, &src(k, c, f)) {
                Ok((data, _))
                    if data.len() == self.sizes[c][f]
                        && holds(&data, key, stamp(self.seed, key, 1)) => {}
                _ => failed += 1,
            }
        }
        (READ_BACK as u64, failed)
    }
}
