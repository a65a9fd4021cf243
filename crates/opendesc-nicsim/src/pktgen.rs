//! Workload generator: deterministic synthetic traffic for the
//! experiments (stand-in for the testbed traffic of the paper's setting).

use opendesc_softnic::testpkt;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Transport mix of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Transport {
    Udp,
    Tcp,
    /// UDP carrying memcached-style `get <key>` requests (the Fig. 1
    /// KVS scenario).
    KvsGet,
}

/// Fraction of total traffic each injected elephant flow carries. Two
/// elephants under the default config thus pin ~16% of all frames onto
/// (at most) two RSS buckets — the realistic heavy-hitter case RETA
/// rebalancing has to survive.
pub const ELEPHANT_SHARE: f64 = 0.08;

/// Workload description.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Number of distinct flows (5-tuples).
    pub flows: u32,
    /// Payload size range in bytes (inclusive).
    pub payload: (usize, usize),
    pub transport: Transport,
    /// Fraction \[0,1\] of frames carrying an 802.1Q tag.
    pub vlan_fraction: f64,
    pub seed: u64,
    /// Zipf skew exponent for flow popularity. `None` keeps the
    /// historical uniform flow choice; `Some(α)` makes flow `k` (0-based
    /// rank) carry probability ∝ 1/(k+1)^α — real traffic is α ≈ 0.9–1.3.
    pub zipf_alpha: Option<f64>,
    /// Injected elephant flows on top of the base distribution. Each
    /// elephant is an *extra* flow (id ≥ `flows`) carrying a fixed
    /// [`ELEPHANT_SHARE`] of total traffic.
    pub elephants: u32,
}

impl Default for Workload {
    fn default() -> Self {
        Workload {
            flows: 64,
            payload: (18, 1024),
            transport: Transport::Udp,
            vlan_fraction: 0.5,
            seed: 7,
            zipf_alpha: None,
            elephants: 0,
        }
    }
}

impl Workload {
    /// 64-byte-frame stress workload (min-size packets, the classic
    /// pps-bound case).
    pub fn min_size(flows: u32) -> Self {
        Workload {
            flows,
            payload: (18, 18), // 18B payload → 64B frame with UDP
            transport: Transport::Udp,
            vlan_fraction: 0.0,
            seed: 7,
            ..Workload::default()
        }
    }

    /// KVS request workload.
    pub fn kvs(flows: u32) -> Self {
        Workload {
            flows,
            payload: (0, 0), // ignored; keys drive size
            transport: Transport::KvsGet,
            vlan_fraction: 0.0,
            seed: 7,
            ..Workload::default()
        }
    }

    /// Skewed min-size workload: Zipf flow popularity plus injected
    /// elephants — the E18 adaptive-steering traffic.
    pub fn zipf(flows: u32, alpha: f64, elephants: u32) -> Self {
        Workload {
            zipf_alpha: Some(alpha),
            elephants,
            ..Workload::min_size(flows)
        }
    }

    /// Total probability mass the injected elephants take.
    fn elephant_mass(&self) -> f64 {
        (self.elephants as f64 * ELEPHANT_SHARE).min(0.5)
    }
}

/// Streaming frame generator.
pub struct PktGen {
    wl: Workload,
    rng: SmallRng,
    emitted: u64,
    /// Cumulative Zipf distribution over the base flows (empty when the
    /// workload is uniform): `zipf_cdf[k]` = P(flow rank ≤ k).
    zipf_cdf: Vec<f64>,
}

impl PktGen {
    pub fn new(wl: Workload) -> Self {
        let rng = SmallRng::seed_from_u64(wl.seed);
        let zipf_cdf = match wl.zipf_alpha {
            Some(alpha) => {
                let mut acc = 0.0f64;
                let mut cdf: Vec<f64> = (0..wl.flows)
                    .map(|k| {
                        acc += 1.0 / ((k + 1) as f64).powf(alpha);
                        acc
                    })
                    .collect();
                for c in &mut cdf {
                    *c /= acc;
                }
                if let Some(last) = cdf.last_mut() {
                    *last = 1.0; // seal float drift; sampling never overruns
                }
                cdf
            }
            None => Vec::new(),
        };
        PktGen {
            wl,
            rng,
            emitted: 0,
            zipf_cdf,
        }
    }

    /// Number of frames generated so far.
    pub fn count(&self) -> u64 {
        self.emitted
    }

    /// Pick the next frame's flow id: elephants first (fixed share of
    /// the unit interval each), then the base distribution — Zipf by
    /// rank when `zipf_alpha` is set, uniform otherwise. One RNG draw
    /// either way, so skewed streams stay seed-deterministic and
    /// regenerable per worker.
    fn next_flow(&mut self) -> u32 {
        if self.wl.zipf_alpha.is_none() && self.wl.elephants == 0 {
            return self.rng.random_range(0..self.wl.flows);
        }
        let r = self.rng.random::<f64>();
        let emass = self.wl.elephant_mass();
        if r < emass {
            // Elephant ids live above the base flow range.
            let share = emass / self.wl.elephants as f64;
            return self.wl.flows + ((r / share) as u32).min(self.wl.elephants - 1);
        }
        let u = (r - emass) / (1.0 - emass);
        if self.zipf_cdf.is_empty() {
            ((u * self.wl.flows as f64) as u32).min(self.wl.flows - 1)
        } else {
            self.zipf_cdf
                .partition_point(|&c| c < u)
                .min(self.wl.flows as usize - 1) as u32
        }
    }

    /// Generate the next frame.
    pub fn next_frame(&mut self) -> Vec<u8> {
        self.emitted += 1;
        let flow = self.next_flow();
        // Derive a stable 5-tuple from the flow id.
        let src_ip = [10, 0, (flow >> 8) as u8, flow as u8];
        let dst_ip = [10, 1, 0, 1];
        let src_port = 10_000 + (flow % 50_000) as u16;
        let vlan = if self.rng.random::<f64>() < self.wl.vlan_fraction {
            Some(0x2000 | (flow as u16 & 0x0FFF))
        } else {
            None
        };
        match self.wl.transport {
            Transport::Udp => {
                let len = self.rng.random_range(self.wl.payload.0..=self.wl.payload.1);
                let payload = self.payload_bytes(len);
                testpkt::udp4(src_ip, dst_ip, src_port, 9000, &payload, vlan)
            }
            Transport::Tcp => {
                let len = self.rng.random_range(self.wl.payload.0..=self.wl.payload.1);
                let payload = self.payload_bytes(len);
                testpkt::tcp4(src_ip, dst_ip, src_port, 443, &payload, vlan)
            }
            Transport::KvsGet => {
                let key_id = self.rng.random_range(0..10_000u32);
                let payload = testpkt::kvs_get_payload(&format!("key:{key_id}"));
                testpkt::udp4(src_ip, dst_ip, src_port, 11211, &payload, vlan)
            }
        }
    }

    /// Generate a batch of frames.
    pub fn batch(&mut self, n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|_| self.next_frame()).collect()
    }

    fn payload_bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.rng.random()).collect()
    }
}

/// One frame as it arrives at a queue: the bytes plus what the steering
/// stage learned on the way (the Toeplitz hash, when RSS steered it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardFrame {
    pub bytes: Vec<u8>,
    pub rss: Option<u32>,
}

/// Per-queue frame pools for the sharded RX engine. Generation is
/// deterministic per seed and steering is a pure function of (stream
/// position, bytes), so a worker that regenerated the full stream and
/// kept only its own queue's frames would hold exactly the pool
/// [`ShardedPktGen::generate`] hands it — the tests pin this.
pub struct ShardedPktGen {
    shards: Vec<Vec<ShardFrame>>,
}

impl ShardedPktGen {
    /// Sequentially generate `total` frames and split them across queues
    /// exactly as the device's steering stage would.
    pub fn generate(wl: Workload, steerer: &crate::multiqueue::Steerer, total: usize) -> Self {
        let mut shards: Vec<Vec<ShardFrame>> = (0..steerer.queues()).map(|_| Vec::new()).collect();
        let mut gen = PktGen::new(wl);
        for i in 0..total {
            let bytes = gen.next_frame();
            // The verdict's parse borrows the frame; keep only the copy-
            // able parts before moving the bytes into the shard.
            let (queue, rss) = {
                let v = steerer.steer(i as u64, &bytes);
                (v.queue, v.rss)
            };
            shards[queue].push(ShardFrame { bytes, rss });
        }
        ShardedPktGen { shards }
    }

    /// Pool for queue `q`.
    pub fn pool(&self, q: usize) -> &[ShardFrame] {
        &self.shards[q]
    }

    /// Tear into per-queue pools (one handed to each worker).
    pub fn into_pools(self) -> Vec<Vec<ShardFrame>> {
        self.shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opendesc_softnic::wire::ParsedFrame;
    use std::collections::HashSet;

    /// Regenerate the stream and keep only queue `q`'s frames: what a
    /// worker with no shared generator would compute for itself.
    fn shard_for(
        wl: &Workload,
        steerer: &crate::multiqueue::Steerer,
        total: usize,
        q: usize,
    ) -> Vec<ShardFrame> {
        let mut gen = PktGen::new(wl.clone());
        (0..total as u64)
            .map(|i| (i, gen.next_frame()))
            .filter_map(|(i, bytes)| {
                let (queue, rss) = {
                    let v = steerer.steer(i, &bytes);
                    (v.queue, v.rss)
                };
                (queue == q).then_some(ShardFrame { bytes, rss })
            })
            .collect()
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = PktGen::new(Workload::default());
        let mut b = PktGen::new(Workload::default());
        for _ in 0..50 {
            assert_eq!(a.next_frame(), b.next_frame());
        }
        let mut c = PktGen::new(Workload {
            seed: 99,
            ..Workload::default()
        });
        assert_ne!(a.next_frame(), c.next_frame());
    }

    #[test]
    fn frames_parse_and_respect_flow_count() {
        let mut g = PktGen::new(Workload {
            flows: 8,
            ..Workload::default()
        });
        let mut tuples = HashSet::new();
        for _ in 0..400 {
            let f = g.next_frame();
            let p = ParsedFrame::parse(&f).expect("generated frames parse");
            let ip = p.ipv4.expect("ipv4 present");
            tuples.insert((ip.src(), p.ports().unwrap().0));
        }
        assert_eq!(tuples.len(), 8, "exactly `flows` distinct 5-tuples");
    }

    #[test]
    fn min_size_workload_yields_64b_frames() {
        let mut g = PktGen::new(Workload::min_size(4));
        for _ in 0..20 {
            assert_eq!(
                g.next_frame().len(),
                60,
                "14 eth + 20 ip + 8 udp + 18 payload"
            );
        }
    }

    #[test]
    fn kvs_workload_carries_get_requests() {
        let mut g = PktGen::new(Workload::kvs(4));
        for _ in 0..20 {
            let f = g.next_frame();
            let p = ParsedFrame::parse(&f).unwrap();
            let pl = p.l4_payload().unwrap();
            assert!(
                pl.starts_with(b"get key:"),
                "{:?}",
                String::from_utf8_lossy(pl)
            );
            assert_eq!(p.ports().unwrap().1, 11211);
        }
    }

    #[test]
    fn sharded_generation_matches_worker_local_regeneration() {
        use crate::multiqueue::{SteerPolicy, Steerer};
        for policy in [
            SteerPolicy::Rss,
            SteerPolicy::RoundRobin,
            SteerPolicy::DstPort {
                table: vec![(9000, 2)],
                default: 1,
            },
        ] {
            let st = Steerer::new(policy, 4);
            let wl = Workload {
                flows: 16,
                ..Workload::default()
            };
            let seq = ShardedPktGen::generate(wl.clone(), &st, 200).into_pools();
            assert_eq!(seq.iter().map(Vec::len).sum::<usize>(), 200);
            for (q, pool) in seq.iter().enumerate() {
                let local = shard_for(&wl, &st, 200, q);
                assert_eq!(pool, &local, "queue {q}: lock-free split must match");
            }
        }
    }

    #[test]
    fn rss_shards_carry_the_steering_hash() {
        use crate::multiqueue::{SteerPolicy, Steerer};
        let st = Steerer::new(SteerPolicy::Rss, 2);
        let pools = ShardedPktGen::generate(Workload::default(), &st, 50).into_pools();
        for pool in &pools {
            for sf in pool {
                assert!(sf.rss.is_some(), "IPv4 traffic under RSS carries a hash");
            }
        }
    }

    #[test]
    fn zipf_skew_orders_flows_by_rank_and_stays_deterministic() {
        let wl = Workload::zipf(32, 1.1, 0);
        let mut counts = vec![0u64; 32];
        let mut g = PktGen::new(wl.clone());
        for _ in 0..4000 {
            let f = g.next_frame();
            let p = ParsedFrame::parse(&f).unwrap();
            // Flow id round-trips through the src port derivation.
            let flow = (p.ports().unwrap().0 - 10_000) as usize;
            counts[flow] += 1;
        }
        assert!(
            counts[0] > 3 * counts[8] && counts[0] > 6 * counts[31],
            "rank-0 flow dominates the tail: {counts:?}"
        );
        assert!(counts.iter().all(|&c| c > 0), "tail flows still appear");
        let mut a = PktGen::new(wl.clone());
        let mut b = PktGen::new(wl);
        for _ in 0..100 {
            assert_eq!(
                a.next_frame(),
                b.next_frame(),
                "skewed streams replay per seed"
            );
        }
    }

    #[test]
    fn elephants_carry_their_share() {
        let wl = Workload {
            elephants: 2,
            ..Workload::min_size(16)
        };
        let mut g = PktGen::new(wl);
        let (mut eleph, total) = (0u64, 5000u64);
        for _ in 0..total {
            let f = g.next_frame();
            let p = ParsedFrame::parse(&f).unwrap();
            let flow = (p.ports().unwrap().0 - 10_000) as u32;
            if flow >= 16 {
                assert!(flow < 18, "elephant ids sit just above the base range");
                eleph += 1;
            }
        }
        let share = eleph as f64 / total as f64;
        let want = 2.0 * ELEPHANT_SHARE;
        assert!(
            (share - want).abs() < 0.03,
            "elephant share {share} ≉ {want}"
        );
    }

    #[test]
    fn zipf_sharded_generation_matches_worker_local_regeneration() {
        use crate::multiqueue::{SteerPolicy, Steerer};
        let st = Steerer::new(SteerPolicy::Rss, 8);
        let wl = Workload::zipf(64, 1.3, 2);
        let seq = ShardedPktGen::generate(wl.clone(), &st, 300).into_pools();
        assert_eq!(seq.iter().map(Vec::len).sum::<usize>(), 300);
        for (q, pool) in seq.iter().enumerate() {
            let local = shard_for(&wl, &st, 300, q);
            assert_eq!(pool, &local, "queue {q}: skewed lock-free split must match");
        }
    }

    #[test]
    fn vlan_fraction_respected() {
        let mut g = PktGen::new(Workload {
            vlan_fraction: 1.0,
            ..Workload::default()
        });
        for _ in 0..20 {
            let f = g.next_frame();
            assert!(ParsedFrame::parse(&f).unwrap().vlan_tci.is_some());
        }
        let mut g = PktGen::new(Workload {
            vlan_fraction: 0.0,
            ..Workload::default()
        });
        for _ in 0..20 {
            let f = g.next_frame();
            assert!(ParsedFrame::parse(&f).unwrap().vlan_tci.is_none());
        }
    }
}
