//! The multi-node solve fabric: consistent-hash routing, single-hop
//! forwarding, and gossip membership.
//!
//! # Ring
//!
//! Ownership of a problem is a pure function of its
//! [`fingerprint`](mod@rasengan_problems::fingerprint) and the live member
//! set: each member contributes [`DEFAULT_VNODES`] points on a 64-bit
//! FNV-1a ring (the hash the cache shard selector streams),
//! and a fingerprint belongs to the first point clockwise from its own
//! hash. Every node that agrees on the member set agrees on every
//! owner — no coordinator, no handoff protocol.
//!
//! # Forwarding
//!
//! A `SOLVE` landing on a non-owner checks its local caches first,
//! then forwards the request to the owner over the ordinary line
//! protocol with a `via <node-id>` header. A request carrying `via` is
//! never forwarded again, so routing is bounded to one hop even while
//! two nodes briefly disagree about the ring. The owner serves from
//! its caches or computes and populates them; the forwarder returns
//! the owner's `result`/`timing`/`trace` sections byte-for-byte
//! (identity is the contract: any entry node yields the same bytes).
//! It reads the reply back into a `persist::Solved`, the form every
//! cache tier holds, and keeps that as a local read-through copy,
//! except for a request carrying `deadline-ms`, whose result the wall
//! clock may have cut short. A repeat served from the copy renders its
//! own `timing`, as every cache hit does. If the owner is unreachable
//! the forwarder falls back to computing locally — the solve is
//! deterministic, so the bytes are identical either way, only the
//! cache warmth differs.
//!
//! # Membership
//!
//! A std-only seeded push-pull gossip: every heartbeat interval each
//! node exchanges its member table with its non-dead peers (`GOSSIP`
//! verb), in an order rotated by a seeded SplitMix64 step so the
//! traffic pattern is reproducible. A member quiet past the suspect
//! timeout becomes *suspect* (still in the ring); quiet past the dead
//! timeout it becomes *dead* and leaves the ring, bumping the ring
//! version. Only direct contact revives a member. Peer lists are
//! deduped and self-entries dropped, so `--peers` listing the node
//! itself (or the same peer twice) is harmless.

use std::collections::BTreeMap;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rasengan_obs::json::Json;
use rasengan_obs::{fnv64, splitmix64};

use crate::client::exchange;
use crate::protocol::{GossipMember, GossipMessage, GossipState, Reply, ReplyStatus};

/// Virtual nodes per member. More points smooth the key distribution;
/// 64 keeps an 8-node ring's max/min share ratio small while the
/// build stays trivially cheap.
pub const DEFAULT_VNODES: usize = 64;

/// The ring position of a member's virtual node. Ring points are FNV-1a
/// 64 ([`fnv64`]), the hash the cache shard selector streams, so
/// ring placement is stable across builds and platforms.
fn ring_point(id: &str, vnode: u32) -> u64 {
    let mut bytes = Vec::with_capacity(id.len() + 5);
    bytes.extend_from_slice(id.as_bytes());
    bytes.push(b'#');
    bytes.extend_from_slice(&vnode.to_le_bytes());
    fnv64(bytes)
}

/// The ring position of a problem fingerprint.
pub fn key_point(fingerprint: u128) -> u64 {
    fnv64(fingerprint.to_le_bytes())
}

/// A consistent-hash ring over a member set. Building it sorts and
/// dedupes members by id, so any two nodes holding the same live set
/// build byte-identical rings regardless of discovery order.
#[derive(Clone, Debug)]
pub struct Ring {
    /// `(point, member index)`, sorted by point.
    points: Vec<(u64, usize)>,
    /// `(id, addr)`, sorted by id, deduped.
    members: Vec<(String, String)>,
}

impl Ring {
    /// Builds the ring from `(id, addr)` members with `vnodes` virtual
    /// nodes each. Duplicate ids keep their first address.
    pub fn build(members: &[(String, String)], vnodes: usize) -> Ring {
        let mut sorted: Vec<(String, String)> = members.to_vec();
        sorted.sort();
        sorted.dedup_by(|a, b| a.0 == b.0);
        let mut points = Vec::with_capacity(sorted.len() * vnodes);
        for (index, (id, _)) in sorted.iter().enumerate() {
            for vnode in 0..vnodes.max(1) as u32 {
                points.push((ring_point(id, vnode), index));
            }
        }
        points.sort();
        Ring {
            points,
            members: sorted,
        }
    }

    /// The members on the ring, sorted by id.
    pub fn members(&self) -> &[(String, String)] {
        &self.members
    }

    /// The `(id, addr)` owning a fingerprint: the first ring point at
    /// or after the key's own point, wrapping at the top. `None` only
    /// for an empty ring.
    pub fn owner_of(&self, fingerprint: u128) -> Option<(&str, &str)> {
        if self.points.is_empty() {
            return None;
        }
        let point = key_point(fingerprint);
        let index = match self.points.binary_search(&(point, 0)) {
            Ok(i) => i,
            Err(i) if i == self.points.len() => 0,
            Err(i) => i,
        };
        let (_, member) = self.points[index];
        let (id, addr) = &self.members[member];
        Some((id, addr))
    }
}

/// Fabric tuning knobs, carried inside
/// [`ServeConfig`](crate::server::ServeConfig).
#[derive(Clone, Debug)]
pub struct FabricConfig {
    /// This node's stable id (no whitespace); ring placement hashes it.
    pub node_id: String,
    /// Seed peer addresses (`host:port`). Self-entries and duplicates
    /// are dropped.
    pub peers: Vec<String>,
    /// Address peers should dial to reach this node. `None` uses the
    /// bound address — required with port 0, where the real port is
    /// only known after bind.
    pub advertise: Option<String>,
    /// Seed for the deterministic gossip target rotation.
    pub seed: u64,
    /// Virtual nodes per member on the ring.
    pub vnodes: usize,
    /// Gossip round interval.
    pub heartbeat: Duration,
    /// Quiet time before a member turns suspect.
    pub suspect_after: Duration,
    /// Quiet time before a member turns dead and leaves the ring.
    pub dead_after: Duration,
    /// Socket timeout for forwarded solves (connect, read, write).
    pub forward_timeout: Duration,
}

impl FabricConfig {
    /// A config for the named node with default timings: 250 ms
    /// heartbeat, 1 s suspect, 3 s dead.
    pub fn new(node_id: impl Into<String>) -> FabricConfig {
        FabricConfig {
            node_id: node_id.into(),
            peers: Vec::new(),
            advertise: None,
            seed: 0,
            vnodes: DEFAULT_VNODES,
            heartbeat: Duration::from_millis(250),
            suspect_after: Duration::from_secs(1),
            dead_after: Duration::from_secs(3),
            forward_timeout: Duration::from_secs(120),
        }
    }

    /// Sets the seed peer list.
    pub fn with_peers(mut self, peers: Vec<String>) -> Self {
        self.peers = peers;
        self
    }

    /// Sets the advertised address.
    pub fn with_advertise(mut self, addr: impl Into<String>) -> Self {
        self.advertise = Some(addr.into());
        self
    }

    /// Sets the gossip rotation seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the heartbeat interval and scales the suspect/dead
    /// timeouts with it (4x and 12x — churn tests shrink all three
    /// together).
    pub fn with_heartbeat(mut self, interval: Duration) -> Self {
        self.heartbeat = interval;
        self.suspect_after = interval * 4;
        self.dead_after = interval * 12;
        self
    }
}

/// A known peer: its dial address, health, and the last time this node
/// heard from it directly (a gossip exchange in either direction).
#[derive(Clone, Debug)]
struct PeerEntry {
    addr: String,
    state: GossipState,
    last_heard: Instant,
}

/// Point-in-time fabric counters, embedded in
/// [`ServeStats`](crate::server::ServeStats).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Whether the node runs in a fabric at all.
    pub enabled: bool,
    /// Live members (alive + suspect, self included) on the ring.
    pub members_alive: u64,
    /// Members currently suspect.
    pub members_suspect: u64,
    /// Members declared dead (off the ring, still remembered).
    pub members_dead: u64,
    /// Ring rebuilds since boot (0 = the boot ring).
    pub ring_version: u64,
    /// Requests this node forwarded to an owner.
    pub forwards_out: u64,
    /// Forwarded requests this node received as owner.
    pub forwards_in: u64,
    /// Replies served from the local read-through copy of a forwarded
    /// result.
    pub remote_hits: u64,
    /// Forward attempts that failed over to a local compute.
    pub forward_errors: u64,
    /// Alive → suspect transitions observed.
    pub peer_suspect: u64,
    /// → dead transitions observed.
    pub peer_dead: u64,
    /// Gossip rounds completed.
    pub gossip_rounds: u64,
}

/// Where a fingerprint should be served.
#[derive(Clone, Debug)]
pub struct Owner {
    /// Owning node's id.
    pub id: String,
    /// Owning node's dial address.
    pub addr: String,
    /// Whether this node is the owner.
    pub is_self: bool,
}

/// The per-node fabric state: membership table, current ring, and
/// counters. One lives inside the server's `Shared` when the config
/// carries a [`FabricConfig`].
pub struct Fabric {
    config: FabricConfig,
    /// This node's advertised address (resolved after bind).
    self_addr: String,
    /// Peers by id; never contains self.
    peers: Mutex<BTreeMap<String, PeerEntry>>,
    ring: Mutex<std::sync::Arc<Ring>>,
    ring_version: AtomicU64,
    forwards_out: AtomicU64,
    forwards_in: AtomicU64,
    remote_hits: AtomicU64,
    forward_errors: AtomicU64,
    peer_suspect: AtomicU64,
    peer_dead: AtomicU64,
    gossip_rounds: AtomicU64,
    forward_inflight: AtomicU64,
}

/// Permission for one worker to block on an outbound forward; dropped
/// when the forward (or its fallback) finishes. Bounding these below
/// the worker count keeps at least one worker computing, so two nodes
/// forwarding to each other can never deadlock both pools.
pub struct ForwardPermit<'a> {
    fabric: &'a Fabric,
}

impl Drop for ForwardPermit<'_> {
    fn drop(&mut self) {
        self.fabric.forward_inflight.fetch_sub(1, Ordering::Relaxed);
    }
}

impl Fabric {
    /// Builds the fabric for a node advertising `self_addr`. Seed
    /// peers start alive (the ring is useful from the first request);
    /// the heartbeat timers demote any that never answer. Seed entries
    /// naming this node's own address, and duplicates, are dropped.
    pub fn new(config: FabricConfig, self_addr: String) -> Fabric {
        let now = Instant::now();
        let mut peers = BTreeMap::new();
        for (index, addr) in config.peers.iter().enumerate() {
            let addr = addr.trim();
            if addr.is_empty() || addr == self_addr {
                continue;
            }
            if peers.values().any(|p: &PeerEntry| p.addr == addr) {
                continue;
            }
            // Seed peers have addresses but no ids yet; a placeholder
            // id keyed off the address keeps them on the ring until
            // the first gossip exchange teaches us their real id.
            let id = format!("seed-{index}-{addr}");
            peers.insert(
                id,
                PeerEntry {
                    addr: addr.to_string(),
                    state: GossipState::Alive,
                    last_heard: now,
                },
            );
        }
        let fabric = Fabric {
            self_addr,
            peers: Mutex::new(peers),
            ring: Mutex::new(std::sync::Arc::new(Ring::build(&[], 1))),
            ring_version: AtomicU64::new(0),
            forwards_out: AtomicU64::new(0),
            forwards_in: AtomicU64::new(0),
            remote_hits: AtomicU64::new(0),
            forward_errors: AtomicU64::new(0),
            peer_suspect: AtomicU64::new(0),
            peer_dead: AtomicU64::new(0),
            gossip_rounds: AtomicU64::new(0),
            forward_inflight: AtomicU64::new(0),
            config,
        };
        fabric.rebuild_ring(true);
        fabric
    }

    /// This node's id.
    pub fn node_id(&self) -> &str {
        &self.config.node_id
    }

    /// This node's advertised address.
    pub fn self_addr(&self) -> &str {
        &self.self_addr
    }

    /// The fabric config.
    pub fn config(&self) -> &FabricConfig {
        &self.config
    }

    /// The current ring.
    pub fn ring(&self) -> std::sync::Arc<Ring> {
        std::sync::Arc::clone(&self.ring.lock().unwrap())
    }

    /// The owner of a fingerprint under the current ring.
    pub fn owner(&self, fingerprint: u128) -> Option<Owner> {
        let ring = self.ring();
        let (id, addr) = ring.owner_of(fingerprint)?;
        Some(Owner {
            is_self: id == self.config.node_id,
            id: id.to_string(),
            addr: addr.to_string(),
        })
    }

    /// Counts a forwarded request arriving (the `via` header seen).
    pub fn count_forward_in(&self) {
        self.forwards_in.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a reply served from the read-through copy.
    pub fn count_remote_hit(&self) {
        self.remote_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks a peer unreachable right now (a forward failed): an alive
    /// peer turns suspect immediately instead of waiting for the
    /// heartbeat timer; the dead timer keeps running from the last
    /// time it was actually heard.
    pub fn note_unreachable(&self, id: &str) {
        self.forward_errors.fetch_add(1, Ordering::Relaxed);
        let mut peers = self.peers.lock().unwrap();
        if let Some(entry) = peers.get_mut(id) {
            if entry.state == GossipState::Alive {
                entry.state = GossipState::Suspect;
                self.peer_suspect.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// The member table this node would gossip: itself (alive, by
    /// construction) plus every known peer with its current state.
    fn gossip_message(&self) -> GossipMessage {
        let peers = self.peers.lock().unwrap();
        let mut members = vec![GossipMember {
            id: self.config.node_id.clone(),
            addr: self.self_addr.clone(),
            state: GossipState::Alive,
        }];
        for (id, entry) in peers.iter() {
            members.push(GossipMember {
                id: id.clone(),
                addr: entry.addr.clone(),
                state: entry.state,
            });
        }
        GossipMessage {
            from_id: self.config.node_id.clone(),
            from_addr: self.self_addr.clone(),
            members,
        }
    }

    /// Handles an inbound `GOSSIP` exchange: merge the sender's view,
    /// then answer with this node's own member table (push-pull).
    pub fn handle_gossip(&self, message: &GossipMessage) -> Reply {
        self.merge_remote(&message.from_id, &message.from_addr, &message.members);
        let own = self.gossip_message();
        let members = own
            .members
            .iter()
            .map(|m| {
                Json::obj(vec![
                    ("id", Json::Str(m.id.clone())),
                    ("addr", Json::Str(m.addr.clone())),
                    ("state", Json::Str(m.state.token().to_string())),
                ])
            })
            .collect();
        Reply::new(
            ReplyStatus::Ok,
            vec![(
                "gossip",
                Json::obj(vec![
                    ("from", Json::Str(self.config.node_id.clone())),
                    ("addr", Json::Str(self.self_addr.clone())),
                    (
                        "ring_version",
                        Json::Int(self.ring_version.load(Ordering::Relaxed) as i128),
                    ),
                    ("members", Json::Arr(members)),
                ]),
            )],
        )
    }

    /// Merges a remote member view. The sender itself is direct
    /// evidence and revives to alive; third-party rows can only add
    /// members or worsen their state (suspicion travels, liveness must
    /// be witnessed), and only when this node's own evidence is stale.
    fn merge_remote(&self, from_id: &str, from_addr: &str, members: &[GossipMember]) {
        if from_id == self.config.node_id {
            return;
        }
        let now = Instant::now();
        {
            let mut peers = self.peers.lock().unwrap();
            // A seed placeholder for this address is superseded by the
            // real id the peer just introduced.
            peers.retain(|id, entry| !(entry.addr == from_addr && id != from_id));
            let entry = peers.entry(from_id.to_string()).or_insert(PeerEntry {
                addr: from_addr.to_string(),
                state: GossipState::Alive,
                last_heard: now,
            });
            entry.addr = from_addr.to_string();
            entry.state = GossipState::Alive;
            entry.last_heard = now;
            for member in members {
                if member.id == self.config.node_id
                    || member.id == from_id
                    || member.addr == self.self_addr
                {
                    continue;
                }
                // Another node's seed placeholder for an address this
                // node already knows would put that node on the ring
                // twice, under a second id, until the dead timer fired.
                if member.id.starts_with("seed-")
                    && !peers.contains_key(&member.id)
                    && peers.values().any(|e| e.addr == member.addr)
                {
                    continue;
                }
                match peers.get_mut(&member.id) {
                    None => {
                        // Drop a seed placeholder the row supersedes.
                        peers.retain(|id, entry| {
                            !(entry.addr == member.addr && id.starts_with("seed-"))
                        });
                        peers.insert(
                            member.id.clone(),
                            PeerEntry {
                                addr: member.addr.clone(),
                                state: member.state,
                                last_heard: now,
                            },
                        );
                        if member.state == GossipState::Suspect {
                            self.peer_suspect.fetch_add(1, Ordering::Relaxed);
                        }
                        if member.state == GossipState::Dead {
                            self.peer_dead.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    Some(entry) => {
                        let stale =
                            now.duration_since(entry.last_heard) > self.config.suspect_after;
                        let worse = (member.state == GossipState::Suspect
                            && entry.state == GossipState::Alive)
                            || (member.state == GossipState::Dead
                                && entry.state != GossipState::Dead);
                        if stale && worse {
                            if member.state == GossipState::Suspect {
                                self.peer_suspect.fetch_add(1, Ordering::Relaxed);
                            }
                            if member.state == GossipState::Dead {
                                self.peer_dead.fetch_add(1, Ordering::Relaxed);
                            }
                            entry.state = member.state;
                        }
                    }
                }
            }
        }
        self.rebuild_ring(false);
    }

    /// One heartbeat round: gossip with every non-dead peer (order
    /// rotated by the seeded mixer), then apply the suspect/dead
    /// timers and rebuild the ring if the live set changed.
    pub fn tick(&self) {
        let round = self.gossip_rounds.fetch_add(1, Ordering::Relaxed);
        let targets: Vec<(String, String)> = {
            let peers = self.peers.lock().unwrap();
            peers
                .iter()
                .filter(|(_, e)| e.state != GossipState::Dead)
                .map(|(id, e)| (id.clone(), e.addr.clone()))
                .collect()
        };
        if !targets.is_empty() {
            // The workspace's bit mixer rotates the gossip target order
            // deterministically per round.
            let start = (splitmix64(self.config.seed ^ round) % targets.len() as u64) as usize;
            let message = self.gossip_message().render();
            for offset in 0..targets.len() {
                let (_, addr) = &targets[(start + offset) % targets.len()];
                if let Ok(reply) = self.gossip_roundtrip(addr, &message) {
                    self.merge_reply(&reply);
                }
            }
        }
        self.apply_timers();
    }

    /// Sends one gossip exchange and parses the reply. Failures are
    /// silent here — the timers are the authority on peer health.
    fn gossip_roundtrip(&self, addr: &str, message: &str) -> std::io::Result<Reply> {
        let timeout = self.config.heartbeat.max(Duration::from_millis(20));
        let sock_addr = addr
            .parse::<std::net::SocketAddr>()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
        let mut stream =
            TcpStream::connect_timeout(&sock_addr, timeout.max(Duration::from_millis(200)))?;
        stream.set_read_timeout(Some(timeout.max(Duration::from_millis(200))))?;
        stream.set_write_timeout(Some(timeout.max(Duration::from_millis(200))))?;
        exchange(&mut stream, message.as_bytes())
    }

    /// Merges the pull half of a gossip exchange (the peer's `gossip`
    /// reply section).
    fn merge_reply(&self, reply: &Reply) {
        let Ok(section) = reply.json("gossip") else {
            return;
        };
        let (Some(from), Some(addr)) = (
            section.get("from").and_then(Json::as_str),
            section.get("addr").and_then(Json::as_str),
        ) else {
            return;
        };
        let members: Vec<GossipMember> = section
            .get("members")
            .and_then(Json::as_arr)
            .map(|rows| {
                rows.iter()
                    .filter_map(|row| {
                        Some(GossipMember {
                            id: row.get("id")?.as_str()?.to_string(),
                            addr: row.get("addr")?.as_str()?.to_string(),
                            state: GossipState::parse(row.get("state")?.as_str()?)?,
                        })
                    })
                    .collect()
            })
            .unwrap_or_default();
        let from = from.to_string();
        let addr = addr.to_string();
        self.merge_remote(&from, &addr, &members);
    }

    /// Applies the suspect/dead timers and rebuilds the ring if the
    /// live set changed.
    fn apply_timers(&self) {
        let now = Instant::now();
        {
            let mut peers = self.peers.lock().unwrap();
            for entry in peers.values_mut() {
                let quiet = now.duration_since(entry.last_heard);
                match entry.state {
                    GossipState::Alive if quiet > self.config.suspect_after => {
                        entry.state = GossipState::Suspect;
                        self.peer_suspect.fetch_add(1, Ordering::Relaxed);
                    }
                    GossipState::Alive | GossipState::Suspect if quiet > self.config.dead_after => {
                        entry.state = GossipState::Dead;
                        self.peer_dead.fetch_add(1, Ordering::Relaxed);
                    }
                    _ => {}
                }
            }
        }
        self.rebuild_ring(false);
    }

    /// Rebuilds the ring from the live set (self + non-dead peers) and
    /// bumps the version if membership changed. `force` installs the
    /// boot ring without bumping.
    fn rebuild_ring(&self, force: bool) {
        let live: Vec<(String, String)> = {
            let peers = self.peers.lock().unwrap();
            std::iter::once((self.config.node_id.clone(), self.self_addr.clone()))
                .chain(
                    peers
                        .iter()
                        .filter(|(_, e)| e.state != GossipState::Dead)
                        .map(|(id, e)| (id.clone(), e.addr.clone())),
                )
                .collect()
        };
        let fresh = Ring::build(&live, self.config.vnodes);
        let mut current = self.ring.lock().unwrap();
        if force {
            *current = std::sync::Arc::new(fresh);
            return;
        }
        if current.members() != fresh.members() {
            *current = std::sync::Arc::new(fresh);
            self.ring_version.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A counter snapshot.
    pub fn stats(&self) -> FabricStats {
        let peers = self.peers.lock().unwrap();
        let suspect = peers
            .values()
            .filter(|e| e.state == GossipState::Suspect)
            .count() as u64;
        let dead = peers
            .values()
            .filter(|e| e.state == GossipState::Dead)
            .count() as u64;
        FabricStats {
            enabled: true,
            // Self is always alive, hence the +1.
            members_alive: peers.len() as u64 - suspect - dead + 1,
            members_suspect: suspect,
            members_dead: dead,
            ring_version: self.ring_version.load(Ordering::Relaxed),
            forwards_out: self.forwards_out.load(Ordering::Relaxed),
            forwards_in: self.forwards_in.load(Ordering::Relaxed),
            remote_hits: self.remote_hits.load(Ordering::Relaxed),
            forward_errors: self.forward_errors.load(Ordering::Relaxed),
            peer_suspect: self.peer_suspect.load(Ordering::Relaxed),
            peer_dead: self.peer_dead.load(Ordering::Relaxed),
            gossip_rounds: self.gossip_rounds.load(Ordering::Relaxed),
        }
    }

    /// The `fabric` object the STATS reply carries: counters plus the
    /// member table with states.
    pub fn stats_json(&self) -> Json {
        let s = self.stats();
        let members: Vec<Json> = {
            let peers = self.peers.lock().unwrap();
            std::iter::once(Json::obj(vec![
                ("id", Json::Str(self.config.node_id.clone())),
                ("addr", Json::Str(self.self_addr.clone())),
                ("state", Json::Str("alive".to_string())),
            ]))
            .chain(peers.iter().map(|(id, e)| {
                Json::obj(vec![
                    ("id", Json::Str(id.clone())),
                    ("addr", Json::Str(e.addr.clone())),
                    ("state", Json::Str(e.state.token().to_string())),
                ])
            }))
            .collect()
        };
        Json::obj(vec![
            ("enabled", Json::Bool(true)),
            ("node_id", Json::Str(self.config.node_id.clone())),
            ("addr", Json::Str(self.self_addr.clone())),
            ("ring_version", Json::Int(s.ring_version as i128)),
            ("members_alive", Json::Int(s.members_alive as i128)),
            ("members_suspect", Json::Int(s.members_suspect as i128)),
            ("members_dead", Json::Int(s.members_dead as i128)),
            ("forwards_out", Json::Int(s.forwards_out as i128)),
            ("forwards_in", Json::Int(s.forwards_in as i128)),
            ("remote_hits", Json::Int(s.remote_hits as i128)),
            ("forward_errors", Json::Int(s.forward_errors as i128)),
            ("peer_suspect", Json::Int(s.peer_suspect as i128)),
            ("peer_dead", Json::Int(s.peer_dead as i128)),
            ("gossip_rounds", Json::Int(s.gossip_rounds as i128)),
            ("members", Json::Arr(members)),
        ])
    }

    /// Tries to acquire one of `limit` outbound-forward slots. `None`
    /// means every slot is taken (or `limit` is 0, e.g. a one-worker
    /// node) and the caller should compute locally instead of waiting
    /// on the network.
    pub fn try_forward_permit(&self, limit: u64) -> Option<ForwardPermit<'_>> {
        let mut current = self.forward_inflight.load(Ordering::Relaxed);
        loop {
            if current >= limit {
                return None;
            }
            match self.forward_inflight.compare_exchange(
                current,
                current + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(ForwardPermit { fabric: self }),
                Err(live) => current = live,
            }
        }
    }

    /// Forwards a rendered solve request to the owner and returns the
    /// parsed reply. The caller decides what to do with a failure
    /// (fall back to a local compute).
    pub fn forward(&self, owner_addr: &str, request_text: &str) -> std::io::Result<Reply> {
        self.forwards_out.fetch_add(1, Ordering::Relaxed);
        let timeout = self.config.forward_timeout;
        let sock_addr = owner_addr
            .parse::<std::net::SocketAddr>()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
        let connect = self
            .config
            .heartbeat
            .max(Duration::from_millis(200))
            .min(timeout);
        let mut stream = TcpStream::connect_timeout(&sock_addr, connect)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        exchange(&mut stream, request_text.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn members(ids: &[&str]) -> Vec<(String, String)> {
        ids.iter()
            .map(|id| (id.to_string(), format!("127.0.0.1:0/{id}")))
            .collect()
    }

    #[test]
    fn ring_is_order_independent_and_deduped() {
        let forward = Ring::build(&members(&["a", "b", "c"]), 32);
        let mut shuffled = members(&["c", "a", "b", "b", "a"]);
        shuffled.push(("a".to_string(), "other-addr".to_string()));
        let backward = Ring::build(&shuffled, 32);
        assert_eq!(forward.members(), backward.members());
        for fp in 0..512u128 {
            assert_eq!(forward.owner_of(fp * 7919), backward.owner_of(fp * 7919));
        }
    }

    #[test]
    fn ring_owner_is_stable_across_builds() {
        // A fixed fingerprint maps to a fixed point forever: these
        // literals guard the ring hash against accidental edits.
        assert_eq!(key_point(0), 0x8820_1fb9_60ff_6465);
        assert_eq!(key_point(42), 0xbe4a_4087_bd2f_4ecf);
        assert_eq!(key_point(u128::MAX), 0xd660_7508_f5a1_e855);
        // Owners (the last digit of the member id) of 64 fixed
        // fingerprints on a 3-member ring.
        let ring = Ring::build(&members(&["n0", "n1", "n2"]), DEFAULT_VNODES);
        let owners: String = (0..64u128)
            .map(|i| {
                let fp = i.wrapping_mul(0x9e37_79b9_7f4a_7c15_f39c_c060_5ced_c834);
                let (id, _) = ring.owner_of(fp).unwrap();
                id.chars().last().unwrap()
            })
            .collect();
        assert_eq!(
            owners,
            "0222222222220220202011202222022200210220122221212111222020212211"
        );
        let ring = Ring::build(&members(&["n0", "n1"]), DEFAULT_VNODES);
        let first = ring.owner_of(42).map(|(id, _)| id.to_string());
        for _ in 0..8 {
            let again = Ring::build(&members(&["n0", "n1"]), DEFAULT_VNODES);
            assert_eq!(again.owner_of(42).map(|(id, _)| id.to_string()), first);
        }
    }

    #[test]
    fn empty_ring_owns_nothing() {
        let ring = Ring::build(&[], DEFAULT_VNODES);
        assert_eq!(ring.owner_of(7), None);
    }

    #[test]
    fn fabric_drops_self_and_duplicate_seed_peers() {
        let config = FabricConfig::new("n0").with_peers(vec![
            "127.0.0.1:9000".to_string(),
            "127.0.0.1:9000".to_string(),
            "127.0.0.1:9100".to_string(),
            "127.0.0.1:9100".to_string(),
            "127.0.0.1:9100".to_string(),
        ]);
        let fabric = Fabric::new(config, "127.0.0.1:9000".to_string());
        // Self (by address) and duplicates dropped: one real peer.
        assert_eq!(fabric.ring().members().len(), 2);
        let stats = fabric.stats();
        assert_eq!(stats.members_alive, 2);
        assert_eq!(stats.ring_version, 0);
    }

    #[test]
    fn gossip_merge_replaces_seed_placeholders_and_learns_members() {
        let config = FabricConfig::new("n0").with_peers(vec!["127.0.0.1:9100".to_string()]);
        let fabric = Fabric::new(config, "127.0.0.1:9000".to_string());
        let message = GossipMessage {
            from_id: "n1".to_string(),
            from_addr: "127.0.0.1:9100".to_string(),
            members: vec![
                GossipMember {
                    id: "n1".to_string(),
                    addr: "127.0.0.1:9100".to_string(),
                    state: GossipState::Alive,
                },
                GossipMember {
                    id: "n2".to_string(),
                    addr: "127.0.0.1:9200".to_string(),
                    state: GossipState::Alive,
                },
            ],
        };
        let reply = fabric.handle_gossip(&message);
        assert_eq!(reply.status, ReplyStatus::Ok);
        let ring = fabric.ring();
        let ids: Vec<&str> = ring.members().iter().map(|(id, _)| id.as_str()).collect();
        // The seed placeholder for :9100 was replaced by n1's real id,
        // and n2 was learned transitively.
        assert_eq!(ids, vec!["n0", "n1", "n2"]);
        // Our own row in the reply is alive.
        let section = reply.json("gossip").unwrap();
        assert_eq!(section.get("from").and_then(Json::as_str), Some("n0"),);
        assert_eq!(
            section
                .get("members")
                .and_then(Json::as_arr)
                .map(|m| m.len()),
            Some(3)
        );
    }

    #[test]
    fn another_nodes_seed_placeholder_for_a_known_address_is_ignored() {
        let fabric = Fabric::new(FabricConfig::new("n0"), "127.0.0.1:9000".to_string());
        let member = |id: &str, addr: &str| GossipMember {
            id: id.to_string(),
            addr: addr.to_string(),
            state: GossipState::Alive,
        };
        fabric.handle_gossip(&GossipMessage {
            from_id: "n1".to_string(),
            from_addr: "127.0.0.1:9100".to_string(),
            members: vec![],
        });
        // n2 booted with n1 as a seed and gossips before it learns
        // n1's id; a placeholder for an unknown address still teaches
        // that address.
        fabric.handle_gossip(&GossipMessage {
            from_id: "n2".to_string(),
            from_addr: "127.0.0.1:9200".to_string(),
            members: vec![
                member("seed-0-127.0.0.1:9100", "127.0.0.1:9100"),
                member("seed-1-127.0.0.1:9300", "127.0.0.1:9300"),
            ],
        });
        let ring = fabric.ring();
        let ids: Vec<&str> = ring.members().iter().map(|(id, _)| id.as_str()).collect();
        assert_eq!(ids, vec!["n0", "n1", "n2", "seed-1-127.0.0.1:9300"]);
    }

    #[test]
    fn timers_demote_quiet_peers_and_rebuild_the_ring() {
        let mut config = FabricConfig::new("n0").with_peers(vec!["127.0.0.1:9100".to_string()]);
        config.suspect_after = Duration::from_millis(0);
        config.dead_after = Duration::from_millis(0);
        let fabric = Fabric::new(config, "127.0.0.1:9000".to_string());
        assert_eq!(fabric.ring().members().len(), 2);
        std::thread::sleep(Duration::from_millis(5));
        // First pass: alive → suspect (still on the ring).
        fabric.apply_timers();
        let stats = fabric.stats();
        assert_eq!(stats.members_suspect, 1);
        assert_eq!(fabric.ring().members().len(), 2);
        // Second pass: suspect → dead, ring rebuilt without it.
        fabric.apply_timers();
        let stats = fabric.stats();
        assert_eq!(stats.members_dead, 1);
        assert_eq!(stats.peer_suspect, 1);
        assert_eq!(stats.peer_dead, 1);
        assert_eq!(fabric.ring().members().len(), 1);
        assert!(stats.ring_version >= 1, "death must rebuild the ring");
    }

    #[test]
    fn note_unreachable_suspects_immediately() {
        let config = FabricConfig::new("n0").with_peers(vec!["127.0.0.1:9100".to_string()]);
        let fabric = Fabric::new(config, "127.0.0.1:9000".to_string());
        let id = fabric.ring().members()[1].0.clone();
        assert_ne!(id, "n0");
        fabric.note_unreachable(&id);
        let stats = fabric.stats();
        assert_eq!(stats.members_suspect, 1);
        assert_eq!(stats.forward_errors, 1);
        // Suspect members stay on the ring until the dead timer fires.
        assert_eq!(fabric.ring().members().len(), 2);
    }

    #[test]
    fn third_party_liveness_is_not_believed_but_death_is() {
        let mut config = FabricConfig::new("n0").with_peers(vec![]);
        config.suspect_after = Duration::from_millis(0);
        let fabric = Fabric::new(config, "127.0.0.1:9000".to_string());
        // n1 introduces n2 as alive.
        fabric.handle_gossip(&GossipMessage {
            from_id: "n1".to_string(),
            from_addr: "127.0.0.1:9100".to_string(),
            members: vec![GossipMember {
                id: "n2".to_string(),
                addr: "127.0.0.1:9200".to_string(),
                state: GossipState::Alive,
            }],
        });
        assert_eq!(fabric.ring().members().len(), 3);
        std::thread::sleep(Duration::from_millis(5));
        // n1 now reports n2 dead; our evidence is stale, so believe it.
        fabric.handle_gossip(&GossipMessage {
            from_id: "n1".to_string(),
            from_addr: "127.0.0.1:9100".to_string(),
            members: vec![GossipMember {
                id: "n2".to_string(),
                addr: "127.0.0.1:9200".to_string(),
                state: GossipState::Dead,
            }],
        });
        assert_eq!(fabric.ring().members().len(), 2);
        // A third-party alive claim does not resurrect n2 …
        fabric.handle_gossip(&GossipMessage {
            from_id: "n1".to_string(),
            from_addr: "127.0.0.1:9100".to_string(),
            members: vec![GossipMember {
                id: "n2".to_string(),
                addr: "127.0.0.1:9200".to_string(),
                state: GossipState::Alive,
            }],
        });
        assert_eq!(fabric.ring().members().len(), 2);
        // … but direct contact from n2 itself does.
        fabric.handle_gossip(&GossipMessage {
            from_id: "n2".to_string(),
            from_addr: "127.0.0.1:9200".to_string(),
            members: vec![],
        });
        assert_eq!(fabric.ring().members().len(), 3);
    }
}
