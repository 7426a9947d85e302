//! The timing [`BlockStore`] wrapper every workload drives its store
//! through: it opens a `cdd.*` span around each store call (so store time
//! inside a `cfs.*` span is that span's child time) and counts calls and
//! blocks moved.

use cdd::{BlockStore, IoError};
use sim_core::{Plan, ResourceId};

use crate::span::span;

/// Calls and blocks that went through a [`Timed`] store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounts {
    pub calls: u64,
    pub blocks_written: u64,
    pub blocks_read: u64,
}

impl StoreCounts {
    pub fn since(self, before: StoreCounts) -> StoreCounts {
        StoreCounts {
            calls: self.calls - before.calls,
            blocks_written: self.blocks_written - before.blocks_written,
            blocks_read: self.blocks_read - before.blocks_read,
        }
    }
}

/// A [`BlockStore`] that times and counts every call into `inner`.
pub struct Timed<S> {
    pub inner: S,
    pub counts: StoreCounts,
}

impl<S> Timed<S> {
    pub fn new(inner: S) -> Self {
        Timed { inner, counts: StoreCounts::default() }
    }
}

impl<S: BlockStore> BlockStore for Timed<S> {
    fn block_size(&self) -> u64 {
        self.inner.block_size()
    }

    fn capacity_blocks(&self) -> u64 {
        self.inner.capacity_blocks()
    }

    fn nodes(&self) -> usize {
        self.inner.nodes()
    }

    fn arch_name(&self) -> String {
        self.inner.arch_name()
    }

    fn cpu_of(&self, client: usize) -> ResourceId {
        self.inner.cpu_of(client)
    }

    fn write(&mut self, client: usize, lb0: u64, data: &[u8]) -> Result<Plan, IoError> {
        self.counts.calls += 1;
        let plan = span("cdd.write", || self.inner.write(client, lb0, data))?;
        self.counts.blocks_written += data.len() as u64 / self.inner.block_size();
        Ok(plan)
    }

    fn read(&mut self, client: usize, lb0: u64, nblocks: u64) -> Result<(Vec<u8>, Plan), IoError> {
        self.counts.calls += 1;
        let out = span("cdd.read", || self.inner.read(client, lb0, nblocks))?;
        self.counts.blocks_read += nblocks;
        Ok(out)
    }

    fn flush(&mut self) -> Plan {
        self.counts.calls += 1;
        span("cdd.flush", || self.inner.flush())
    }

    fn caches_metadata(&self) -> bool {
        self.inner.caches_metadata()
    }
}
