//! FNV-1a fingerprints over replay outcomes: two passes of one run, and
//! two runs with one seed, must produce the same simulated results.

use h2push_testbed::ReplayOutcome;

/// 64-bit FNV-1a.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold raw bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold one integer in (little-endian).
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Fold one replay in: PLT, SpeedIndex, the main server's request
    /// order, pushed bytes and every network counter.
    pub fn outcome(&mut self, o: &ReplayOutcome) {
        self.u64(o.load.onload.map_or(u64::MAX, |t| t.since(o.load.connect_end).as_micros()));
        self.u64(o.load.speed_index().to_bits());
        self.u64(o.trace.order.len() as u64);
        for id in &o.trace.order {
            self.u64(id.0 as u64);
        }
        self.u64(o.server_pushed_bytes);
        let n = &o.net;
        for v in [
            n.data_packets,
            n.drops_queue,
            n.drops_random,
            n.drops_fault,
            n.drops_flap,
            n.reordered,
            n.retransmits,
        ] {
            self.u64(v);
        }
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }

    /// The top 53 bits of the digest: what a JSON number holds exactly
    /// (the provenance record's `outcome_fnv`).
    pub fn finish53(self) -> u64 {
        self.0 >> 11
    }

    /// The digest folded to 32 bits (reported as `testbed.outcome_fnv32`,
    /// which a JSON number holds exactly).
    pub fn finish32(self) -> u32 {
        (self.0 >> 32) as u32 ^ self.0 as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Reference FNV-1a 64 digests.
        let mut f = Fnv::default();
        assert_eq!(f.finish(), 0xcbf2_9ce4_8422_2325);
        f.bytes(b"a");
        assert_eq!(f.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut g = Fnv::default();
        g.bytes(b"foobar");
        assert_eq!(g.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn order_and_content_sensitive() {
        let digest = |vs: &[u64]| {
            let mut f = Fnv::default();
            vs.iter().for_each(|&v| f.u64(v));
            f.finish()
        };
        assert_eq!(digest(&[1, 2, 3]), digest(&[1, 2, 3]));
        assert_ne!(digest(&[1, 2, 3]), digest(&[3, 2, 1]));
        assert_ne!(digest(&[1, 2, 3]), digest(&[1, 2]));
    }
}
