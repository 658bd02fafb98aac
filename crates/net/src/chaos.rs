//! Deterministic network chaos injection.
//!
//! [`NetChaos`] is the wire-level sibling of the simulator's
//! `npcgra_sim::FaultPlan`: every draw is a pure hash of
//! `(seed, connection ordinal, frame ordinal)`, so a whole chaos soak is
//! **bit-identical across executions with the same seed**, while every
//! connection and every frame sees an independent draw — exactly how a
//! flaky network behaves in time.
//!
//! The injector sits on the *client* side of a connection (the attacker
//! model: the server must survive whatever the link or a hostile peer
//! does) and perturbs one frame write at a time:
//!
//! * **Byte corruption** — flip one bit of the encoded frame. The frame
//!   checksum (or magic) catches it; the server must answer with a typed
//!   [`WireError`](crate::frame::WireError) notice and close, never
//!   desync or panic.
//! * **Partial write + stall** — write a prefix, stall, then finish: the
//!   slow-loris shape. Short stalls must be tolerated (reassembly);
//!   stalls past the read timeout must get the connection evicted.
//! * **Stalled read** — the client stops draining replies, backing the
//!   server's write buffer up against the write-stall timeout.
//! * **Reset** — drop the connection mid-frame (a prefix is written, then
//!   a hard close), which must resolve in-flight tickets to tombstones
//!   without leaking reply slots.
//!
//! Rates are per-frame Bernoulli probabilities; with all rates zero the
//! injector is inert and the write path is byte-identical to no injector
//! at all (asserted by the zero-chaos control phase in CI).

use std::time::Duration;

/// Per-frame chaos rates; all zero (the default) is inert.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetChaosConfig {
    /// Seed for every draw; same seed → same chaos, bit for bit.
    pub seed: u64,
    /// Probability a frame has one bit flipped in transit.
    pub corrupt_rate: f64,
    /// Probability a frame is written in two halves with a stall between.
    pub partial_rate: f64,
    /// Probability the client stalls *reading* replies after a frame.
    pub stall_read_rate: f64,
    /// Probability the connection is hard-reset mid-frame.
    pub reset_rate: f64,
    /// How long partial-write and stalled-read stalls last.
    pub stall: Duration,
}

impl Default for NetChaosConfig {
    fn default() -> Self {
        NetChaosConfig {
            seed: 0,
            corrupt_rate: 0.0,
            partial_rate: 0.0,
            stall_read_rate: 0.0,
            reset_rate: 0.0,
            stall: Duration::from_millis(50),
        }
    }
}

impl NetChaosConfig {
    /// Whether any chaos can fire.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.corrupt_rate > 0.0 || self.partial_rate > 0.0 || self.stall_read_rate > 0.0 || self.reset_rate > 0.0
    }
}

/// What the injector decided to do to one frame write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosAction {
    /// Write the frame untouched.
    None,
    /// Flip bit `bit` of byte `offset % frame_len` before writing.
    CorruptBit {
        /// Raw offset entropy; reduce modulo the frame length.
        offset: u64,
        /// Bit position within the byte, 0–7.
        bit: u8,
    },
    /// Write `prefix % (frame_len - 1) + 1` bytes, stall, then the rest.
    PartialWrite {
        /// Raw split-point entropy; reduce modulo the frame length.
        prefix: u64,
        /// Stall between the halves.
        stall: Duration,
    },
    /// Write the frame, then stop reading replies for `stall`.
    StallRead {
        /// How long to stop draining replies.
        stall: Duration,
    },
    /// Write `prefix % frame_len` bytes, then hard-close the connection.
    Reset {
        /// Raw truncation-point entropy; reduce modulo the frame length.
        prefix: u64,
    },
}

/// `splitmix64` — the same mixer `sim::fault` uses for its point hashes.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Pure per-point hash: `(seed, conn, frame)` → 64 mixed bits.
fn point_hash(seed: u64, conn: u64, frame: u64) -> u64 {
    let mut x = splitmix64(seed ^ 0x4E45_5443_4841_4F53); // "NETCHAOS"
    x = splitmix64(x ^ conn);
    x = splitmix64(x ^ frame);
    x
}

/// Map 53 hash bits to a uniform draw in `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// The per-connection chaos stream: one [`ChaosAction`] draw per frame.
#[derive(Debug, Clone)]
pub struct NetChaos {
    cfg: NetChaosConfig,
    conn: u64,
    frame: u64,
}

impl NetChaos {
    /// The injector for connection ordinal `conn`.
    #[must_use]
    pub fn for_conn(cfg: NetChaosConfig, conn: u64) -> Self {
        NetChaos { cfg, conn, frame: 0 }
    }

    /// Draw the action for the next frame write. Pure in
    /// `(seed, conn, frame ordinal)`: re-running the same connection
    /// replays the same actions in the same order.
    pub fn next_action(&mut self) -> ChaosAction {
        let h = point_hash(self.cfg.seed, self.conn, self.frame);
        self.frame += 1;
        // Independent sub-draws off one point hash, checked in a fixed
        // order (reset is the most destructive, so it wins ties).
        let entropy = splitmix64(h ^ 0x0FF5);
        if unit(splitmix64(h ^ 0x1)) < self.cfg.reset_rate {
            return ChaosAction::Reset { prefix: entropy };
        }
        if unit(splitmix64(h ^ 0x2)) < self.cfg.corrupt_rate {
            return ChaosAction::CorruptBit {
                offset: entropy,
                bit: (h >> 5) as u8 & 7,
            };
        }
        if unit(splitmix64(h ^ 0x3)) < self.cfg.partial_rate {
            return ChaosAction::PartialWrite {
                prefix: entropy,
                stall: self.cfg.stall,
            };
        }
        if unit(splitmix64(h ^ 0x4)) < self.cfg.stall_read_rate {
            return ChaosAction::StallRead { stall: self.cfg.stall };
        }
        ChaosAction::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(seed: u64) -> NetChaosConfig {
        NetChaosConfig {
            seed,
            corrupt_rate: 0.2,
            partial_rate: 0.2,
            stall_read_rate: 0.2,
            reset_rate: 0.1,
            stall: Duration::from_millis(1),
        }
    }

    #[test]
    fn deterministic_in_the_seed() {
        let draw = |seed| {
            let mut c = NetChaos::for_conn(cfg(seed), 3);
            (0..64).map(|_| c.next_action()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8), "different seeds must differ somewhere");
    }

    #[test]
    fn connections_draw_independently() {
        let stream = |conn| {
            let mut c = NetChaos::for_conn(cfg(5), conn);
            (0..64).map(|_| c.next_action()).collect::<Vec<_>>()
        };
        assert_ne!(stream(0), stream(1));
    }

    #[test]
    fn zero_rates_are_inert() {
        let mut c = NetChaos::for_conn(NetChaosConfig::default(), 0);
        assert!(!NetChaosConfig::default().enabled());
        for _ in 0..1000 {
            assert_eq!(c.next_action(), ChaosAction::None);
        }
    }

    #[test]
    fn rates_roughly_respected() {
        let mut c = NetChaos::for_conn(
            NetChaosConfig {
                seed: 11,
                corrupt_rate: 0.5,
                ..NetChaosConfig::default()
            },
            0,
        );
        let hits = (0..2000)
            .filter(|_| matches!(c.next_action(), ChaosAction::CorruptBit { .. }))
            .count();
        assert!((800..1200).contains(&hits), "~50% corruption expected, got {hits}/2000");
    }
}
