//! The benchmark's shadow model: what every block and file must hold.
//!
//! Contents are a pure function of `(seed, key, version)`: eight bytes of
//! key, then an eight-byte stamp repeated. Writes bump a block's version;
//! reads compare byte for byte against the bytes the current version
//! implies. Nothing is copied from the store under test.

use sim_core::rng::SplitMix64;

/// The stamp of version `version` of `key` under `seed`.
pub fn stamp(seed: u64, key: u64, version: u64) -> u64 {
    let mut r = SplitMix64::new(seed ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    r.next_u64() ^ version.wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// Fill `buf` with the contents `(key, stamp)` implies.
pub fn fill(buf: &mut [u8], key: u64, stamp: u64) {
    let n = buf.len().min(8);
    buf[..n].copy_from_slice(&key.to_le_bytes()[..n]);
    let m = (buf.len() - n).min(8);
    buf[n..n + m].copy_from_slice(&stamp.to_le_bytes()[..m]);
    // Double the stamped span until the buffer is full.
    let mut filled = n + m;
    while filled < buf.len() {
        let take = (filled - 8).min(buf.len() - filled);
        buf.copy_within(8..8 + take, filled);
        filled += take;
    }
}

/// True if `buf` holds exactly the contents `(key, stamp)` implies: the
/// key, the stamp, then bytes that repeat with period 8 (one compare).
pub fn holds(buf: &[u8], key: u64, stamp: u64) -> bool {
    let n = buf.len().min(8);
    let m = (buf.len() - n).min(8);
    buf[..n] == key.to_le_bytes()[..n]
        && buf[n..n + m] == stamp.to_le_bytes()[..m]
        && (buf.len() <= 16 || buf[16..] == buf[8..buf.len() - 8])
}

/// Per-block versions of the blocks `base..base + len` of one store.
pub struct Shadow {
    seed: u64,
    bs: usize,
    base: u64,
    ver: Vec<u32>,
}

impl Shadow {
    pub fn new(seed: u64, bs: u64, base: u64, len: u64) -> Self {
        Shadow { seed, bs: bs as usize, base, ver: vec![0; len as usize] }
    }

    fn idx(&self, lb: u64) -> usize {
        (lb - self.base) as usize
    }

    /// The stamp block `lb` holds now.
    pub fn stamp_of(&self, lb: u64) -> u64 {
        stamp(self.seed, lb, u64::from(self.ver[self.idx(lb)]))
    }

    /// Record a write of `n` blocks at `lb0` and return its payload.
    pub fn write(&mut self, lb0: u64, n: u64) -> Vec<u8> {
        let mut buf = vec![0u8; n as usize * self.bs];
        for (k, block) in buf.chunks_mut(self.bs).enumerate() {
            let lb = lb0 + k as u64;
            let i = self.idx(lb);
            self.ver[i] += 1;
            fill(block, lb, stamp(self.seed, lb, u64::from(self.ver[i])));
        }
        buf
    }

    /// True if `data` is what a read of `data.len()` bytes at `lb0` must return.
    pub fn check(&self, lb0: u64, data: &[u8]) -> bool {
        data.len().is_multiple_of(self.bs)
            && data.chunks(self.bs).enumerate().all(|(k, block)| {
                let lb = lb0 + k as u64;
                holds(block, lb, self.stamp_of(lb))
            })
    }

    /// Blocks written at least once, for the read-back sample.
    pub fn written(&self) -> impl Iterator<Item = u64> + '_ {
        self.ver.iter().enumerate().filter(|(_, v)| **v > 0).map(|(i, _)| self.base + i as u64)
    }
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn permutation(rng: &mut SplitMix64, n: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    p
}

/// FNV-1a over a stream of integers: the op-stream fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    pub fn add(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shadow_tracks_versions() {
        let mut m = Shadow::new(7, 64, 10, 4);
        let first = m.write(10, 2);
        assert!(m.check(10, &first));
        let second = m.write(11, 1);
        assert!(!m.check(10, &first), "block 11 moved to version 2");
        assert!(m.check(11, &second));
        assert!(m.check(10, &first[..64]));
        assert_eq!(m.written().collect::<Vec<_>>(), vec![10, 11]);
    }

    #[test]
    fn fill_and_holds_agree_on_every_length() {
        for len in [0, 3, 8, 12, 16, 21, 64, 100] {
            let mut buf = vec![0u8; len];
            fill(&mut buf, 0x0102, 0xAABB_CCDD_EEFF_1122);
            assert!(holds(&buf, 0x0102, 0xAABB_CCDD_EEFF_1122), "len {len}");
            if len > 9 {
                buf[len - 1] ^= 1;
                assert!(!holds(&buf, 0x0102, 0xAABB_CCDD_EEFF_1122), "len {len} flipped");
            }
        }
    }
}
