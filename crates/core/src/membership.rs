//! Heartbeat membership: the one lease-plus-seeded-backoff failure
//! detector, shared by the chaos cluster workload
//! ([`run_chaos_distributed`](crate::run_chaos_distributed)) and the
//! replicated KV service (`shrimp_apps::kv`).
//!
//! # Protocol
//!
//! Every node exports a control buffer with one [`CTRL_SLOT`]-byte slot
//! per node id, `[heartbeat counter: u64][done flag: u64]` little-endian.
//! A node gossips its slot to its peers by deliberate update, bumping the
//! counter every [`HeartbeatConfig::period`]. As on SHRIMP, a receiver
//! that polls only reads its own memory: each period the monitor reads the
//! whole control buffer once and hands the bytes to [`Detector::sample`],
//! which parses the watched peers' slots. Nothing awaits between the read
//! and the parse, so one read sees exactly what a read per slot would.
//!
//! # Verdicts
//!
//! Per watched peer, in the order the peers were given, the detector
//! returns one [`Verdict`]:
//!
//! * a changed counter renews the peer's lease: [`Verdict::Heard`], with
//!   its done flag and whether the caller had it dead;
//! * a live peer silent past its deadline earns a [`node_backoff`]
//!   extension keyed by its node id: [`Verdict::Probe`];
//! * once [`HeartbeatConfig::max_probes`] probes are spent, the next
//!   missed deadline is [`Verdict::Dead`], carrying the silence since the
//!   peer was last heard;
//! * otherwise [`Verdict::Quiet`].
//!
//! The detector keeps only the lease state (last counter, last heard,
//! deadline, probe attempt). Whether a peer *is* dead belongs to the
//! caller, which asks the detector through a closure and reacts to the
//! verdicts: the chaos workload revives a peer it hears again, the KV
//! service never does and instead promotes itself when every lower rank
//! is dead.

use shrimp_faults::node_backoff;
use shrimp_sim::{time, Time};

/// Bytes of one node's slot in a control buffer:
/// `[heartbeat counter: u64][done flag: u64]`, little-endian.
pub const CTRL_SLOT: usize = 16;

/// Knobs of the lease-based heartbeat failure detector. Every node
/// gossips a monotonically increasing counter to one peer per `period`,
/// rotating round-robin, so each peer hears from it once per *cycle*
/// (`period * (nodes - 1)`). A peer silent past its `lease` gets up to
/// `max_probes` deadline extensions of [`node_backoff`] length (seeded
/// exponential backoff with deterministic jitter) before it is declared
/// dead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeartbeatConfig {
    /// Gap between consecutive heartbeat sends (to rotating targets).
    pub period: Time,
    /// Silence tolerated from one peer before probing begins.
    pub lease: Time,
    /// Base of the probe-extension backoff schedule.
    pub backoff_base: Time,
    /// Cap of the probe-extension backoff schedule.
    pub backoff_cap: Time,
    /// Probes granted past the lease before declaring a peer dead.
    pub max_probes: u32,
}

impl HeartbeatConfig {
    /// The default detector for an `n`-node cluster: 1 µs heartbeat
    /// period, a lease of three full gossip cycles, and three probes on a
    /// 5 µs-base / 40 µs-cap backoff.
    pub fn for_nodes(n: usize) -> Self {
        let period = time::us(1);
        HeartbeatConfig {
            period,
            lease: 3 * period * n.saturating_sub(1).max(1) as Time,
            backoff_base: time::us(5),
            backoff_cap: time::us(40),
            max_probes: 3,
        }
    }

    /// One full gossip rotation: the gap between two heartbeats arriving
    /// at the *same* peer.
    pub fn cycle(&self, n: usize) -> Time {
        self.period * n.saturating_sub(1).max(1) as Time
    }
}

/// What one sample concluded about one peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The counter changed since the last sample: the lease is renewed.
    Heard {
        /// The caller's view had the peer dead.
        was_dead: bool,
        /// The peer's done flag is set.
        done: bool,
    },
    /// A live peer missed its deadline and got a backoff extension.
    Probe,
    /// A live peer missed its deadline with every probe spent: declare it
    /// dead now. `silence` is the time since it was last heard.
    Dead {
        /// Time since the peer's counter last changed.
        silence: Time,
    },
    /// Nothing changed.
    Quiet,
}

/// Lease state of one watched peer.
struct Lease {
    node: usize,
    last_val: u64,
    last_heard: Time,
    deadline: Time,
    attempt: u32,
}

/// The lease-plus-backoff detector over a fixed set of peers (see the
/// module docs).
pub struct Detector {
    cfg: HeartbeatConfig,
    seed: u64,
    leases: Vec<Lease>,
    verdicts: Vec<(usize, Verdict)>,
}

impl Detector {
    /// Watches `peers` (node ids: each is both the peer's control-slot
    /// index and its [`node_backoff`] entity) from `start`, with every
    /// lease first expiring at `start + cfg.lease`. `seed` keys the probe
    /// jitter.
    pub fn new(
        cfg: HeartbeatConfig,
        seed: u64,
        start: Time,
        peers: impl IntoIterator<Item = usize>,
    ) -> Self {
        let leases: Vec<Lease> = peers
            .into_iter()
            .map(|node| Lease {
                node,
                last_val: 0,
                last_heard: start,
                deadline: start + cfg.lease,
                attempt: 0,
            })
            .collect();
        Detector {
            cfg,
            seed,
            verdicts: Vec::with_capacity(leases.len()),
            leases,
        }
    }

    /// Samples every watched peer's slot of `ctrl` (the control buffer's
    /// bytes) at `now` and returns one `(node, verdict)` per peer, in peer
    /// order. `is_dead(node)` is the caller's view of the peer.
    ///
    /// # Panics
    ///
    /// Panics when `ctrl` does not cover a watched peer's slot.
    pub fn sample(
        &mut self,
        now: Time,
        ctrl: &[u8],
        is_dead: impl Fn(usize) -> bool,
    ) -> &[(usize, Verdict)] {
        let cfg = &self.cfg;
        self.verdicts.clear();
        for l in &mut self.leases {
            let slot = &ctrl[l.node * CTRL_SLOT..(l.node + 1) * CTRL_SLOT];
            let (hb, done) = slot.split_at(8);
            let hb = u64::from_le_bytes(hb.try_into().expect("8 bytes"));
            let done = u64::from_le_bytes(done.try_into().expect("8 bytes")) != 0;
            let verdict = if hb != l.last_val {
                l.last_val = hb;
                l.last_heard = now;
                l.attempt = 0;
                l.deadline = now + cfg.lease;
                Verdict::Heard {
                    was_dead: is_dead(l.node),
                    done,
                }
            } else if now < l.deadline || is_dead(l.node) {
                Verdict::Quiet
            } else if l.attempt >= cfg.max_probes {
                Verdict::Dead {
                    silence: now - l.last_heard,
                }
            } else {
                l.deadline = now
                    + node_backoff(
                        self.seed,
                        l.node,
                        l.attempt,
                        cfg.backoff_base,
                        cfg.backoff_cap,
                    );
                l.attempt += 1;
                Verdict::Probe
            };
            self.verdicts.push((l.node, verdict));
        }
        &self.verdicts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED: u64 = 9;

    fn cfg() -> HeartbeatConfig {
        HeartbeatConfig::for_nodes(4)
    }

    /// A control buffer for `n` nodes with `(node, counter, done)` slots set.
    fn ctrl(n: usize, slots: &[(usize, u64, bool)]) -> Vec<u8> {
        let mut buf = vec![0u8; n * CTRL_SLOT];
        for &(node, hb, done) in slots {
            let at = node * CTRL_SLOT;
            buf[at..at + 8].copy_from_slice(&hb.to_le_bytes());
            buf[at + 8..at + 16].copy_from_slice(&u64::from(done).to_le_bytes());
        }
        buf
    }

    fn verdict_of(d: &mut Detector, now: Time, buf: &[u8], dead: bool) -> Verdict {
        let v = d.sample(now, buf, |_| dead);
        assert_eq!(v.len(), 1);
        v[0].1
    }

    /// A silent peer is probed on the `node_backoff` schedule (keyed by
    /// its node id) and declared dead at the first sample at or past the
    /// deadline after the last probe, with the silence since the start.
    #[test]
    fn silent_peer_is_probed_on_schedule_then_declared_dead() {
        let c = cfg();
        let start = time::us(3);
        let peer = 2;
        let mut d = Detector::new(c, SEED, start, [peer]);
        let buf = ctrl(4, &[]);
        let mut expect_at = start + c.lease;
        let mut now = start;
        let mut probes = 0;
        loop {
            now += c.period;
            let v = verdict_of(&mut d, now, &buf, false);
            if now < expect_at {
                assert_eq!(v, Verdict::Quiet, "early verdict at {now}");
                continue;
            }
            if probes < c.max_probes {
                assert_eq!(v, Verdict::Probe, "probe {probes} not at {now}");
                expect_at = now + node_backoff(SEED, peer, probes, c.backoff_base, c.backoff_cap);
                probes += 1;
            } else {
                assert_eq!(
                    v,
                    Verdict::Dead {
                        silence: now - start
                    }
                );
                // The first sample at or past the last deadline, no later.
                assert!(now >= expect_at && now - c.period < expect_at);
                break;
            }
        }
        // Once the caller has it dead, silence stays quiet.
        assert_eq!(
            verdict_of(&mut d, now + c.period, &buf, true),
            Verdict::Quiet
        );
    }

    /// A counter change resets the lease and the probe count, and says
    /// whether the caller had the peer dead.
    #[test]
    fn counter_change_renews_the_lease_and_reports_a_dead_peer() {
        let c = cfg();
        let mut d = Detector::new(c, SEED, 0, [1]);
        let silent = ctrl(4, &[]);
        // Spend every probe: samples far apart always find the deadline
        // passed.
        let mut t = 0;
        for _ in 0..c.max_probes {
            t += time::ms(1);
            assert_eq!(verdict_of(&mut d, t, &silent, false), Verdict::Probe);
        }
        t += time::ms(1);
        assert_eq!(
            verdict_of(&mut d, t, &silent, false),
            Verdict::Dead { silence: t }
        );
        let heard = ctrl(4, &[(1, 1, false)]);
        assert_eq!(
            verdict_of(&mut d, t, &heard, true),
            Verdict::Heard {
                was_dead: true,
                done: false
            }
        );
        // The lease restarts at the hearing: quiet until it runs out, then
        // probing begins again from the first probe.
        let heard_at = t;
        assert_eq!(
            verdict_of(&mut d, heard_at + c.lease - 1, &heard, false),
            Verdict::Quiet
        );
        assert_eq!(
            verdict_of(&mut d, heard_at + c.lease, &heard, false),
            Verdict::Probe
        );
        let again = ctrl(4, &[(1, 2, false)]);
        assert_eq!(
            verdict_of(&mut d, heard_at + c.lease + 1, &again, false),
            Verdict::Heard {
                was_dead: false,
                done: false
            }
        );
    }

    #[test]
    fn done_flag_is_reported_with_the_heartbeat() {
        let mut d = Detector::new(cfg(), SEED, 0, [3]);
        let buf = ctrl(4, &[(3, 7, true)]);
        assert_eq!(
            verdict_of(&mut d, 1, &buf, false),
            Verdict::Heard {
                was_dead: false,
                done: true
            }
        );
        // The same counter again is not a new heartbeat.
        assert_eq!(verdict_of(&mut d, 2, &buf, false), Verdict::Quiet);
    }

    /// Verdicts come out one per peer, in the order the peers were given,
    /// each read from that peer's own slot.
    #[test]
    fn verdicts_come_out_in_peer_order() {
        let c = cfg();
        let mut d = Detector::new(c, SEED, 0, [3, 0, 2]);
        let buf = ctrl(4, &[(0, 5, false), (2, 1, true)]);
        let got = d.sample(c.lease, &buf, |node| node == 2).to_vec();
        assert_eq!(
            got,
            vec![
                (3, Verdict::Probe),
                (
                    0,
                    Verdict::Heard {
                        was_dead: false,
                        done: false
                    }
                ),
                (
                    2,
                    Verdict::Heard {
                        was_dead: true,
                        done: true
                    }
                ),
            ]
        );
    }
}
