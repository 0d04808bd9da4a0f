//! Multi-node fabric integration suite (mirrors the CI fabric-smoke
//! job): in-process clusters joined by the consistent-hash ring, with
//! byte-identity asserted from every entry node, cross-node cache
//! reuse observed through the wire counters, and owner-death churn
//! driven end to end — suspect, dead, ring rebuild, recompute.
//!
//! Every assertion here holds at any `RASENGAN_THREADS` (CI runs the
//! suite at 1 and 4): the solver is bit-deterministic, so a forwarded
//! solve, a local fallback, and an in-process baseline all produce the
//! same `result` bytes.

use rasengan::core::Rasengan;
use rasengan::problems::io::parse_problem;
use rasengan::serve::{
    key_point, render_outcome, serve, stats, submit, FabricConfig, ReplyStatus, ServeConfig,
    ServerHandle, SolveRequest, DEFAULT_VNODES,
};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn instance_texts() -> Vec<(String, String)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/instances");
    let mut instances: Vec<(String, String)> = std::fs::read_dir(&dir)
        .expect("examples/instances exists")
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            if path.extension()? != "problem" {
                return None;
            }
            let name = path.file_stem()?.to_string_lossy().into_owned();
            Some((name, std::fs::read_to_string(&path).ok()?))
        })
        .collect();
    instances.sort();
    assert!(
        instances.len() >= 5,
        "expected the committed example instances, found {}",
        instances.len()
    );
    instances
}

fn request_for(text: &str) -> SolveRequest {
    SolveRequest::new(text.to_string())
        .with_seed(11)
        .with_shots(128)
        .with_iterations(8)
}

/// The node id scheme every cluster here uses: `fab-n0`, `fab-n1`, …
fn node_id(i: usize) -> String {
    format!("fab-n{i}")
}

/// Spawns an `n`-node in-process cluster. Node `i` seeds its peer list
/// with every node bound before it; gossip closes the rest of the
/// mesh. Returns the handles once **every** node's member list has
/// converged to the real node ids (placeholder seed ids replaced), so
/// callers can compute ring ownership from `node_id(i)` deterministically.
fn spawn_cluster(
    n: usize,
    workers: usize,
    configure: impl Fn(FabricConfig) -> FabricConfig,
) -> Vec<ServerHandle> {
    let mut servers: Vec<ServerHandle> = Vec::new();
    for i in 0..n {
        let fabric = configure(
            FabricConfig::new(node_id(i))
                .with_seed(40 + i as u64)
                .with_heartbeat(Duration::from_millis(40))
                .with_peers(servers.iter().map(|s| s.addr().to_string()).collect()),
        );
        let server = serve(
            ServeConfig::default()
                .with_workers(workers)
                .with_fabric(fabric),
        )
        .expect("bind ephemeral port");
        servers.push(server);
    }
    wait_for_membership(&servers, (0..n).map(node_id).collect());
    servers
}

/// Polls each node's wire STATS until its ring members (every member
/// not dead) are exactly `expected` ids, all alive. Converged membership
/// means every node owns the same ring, so ownership computed in the
/// test matches what the servers route on. A suspect member is still on
/// the ring, so it keeps the wait going: a false suspicion under load
/// must heal, and a dead node's last rows must reach dead.
fn wait_for_membership(servers: &[ServerHandle], mut expected: Vec<String>) {
    expected.sort();
    let deadline = Instant::now() + Duration::from_secs(10);
    for server in servers {
        loop {
            let fabric = wire_fabric(server);
            let rows: Vec<(String, String)> = fabric
                .get("members")
                .and_then(|m| m.as_arr())
                .unwrap_or_default()
                .iter()
                .filter_map(|m| {
                    let field = |key: &str| m.get(key)?.as_str().map(str::to_string);
                    Some((field("id")?, field("state")?))
                })
                .collect();
            let mut ids: Vec<String> = rows
                .iter()
                .filter(|(_, state)| state != "dead")
                .map(|(id, _)| id.clone())
                .collect();
            ids.sort();
            let all_alive = rows
                .iter()
                .all(|(_, state)| state == "alive" || state == "dead");
            if ids == expected && all_alive {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "membership did not converge on {}: have {ids:?}, want {expected:?}",
                server.addr()
            );
            std::thread::sleep(Duration::from_millis(15));
        }
    }
}

/// The `fabric` object from a node's wire STATS reply.
fn wire_fabric(server: &ServerHandle) -> rasengan::obs::json::Json {
    let reply = stats(server.addr()).expect("stats");
    assert_eq!(reply.status, ReplyStatus::Ok);
    reply
        .json("stats")
        .expect("stats section")
        .get("fabric")
        .expect("fabric stats present")
        .clone()
}

fn wire_counter(server: &ServerHandle, name: &str) -> i128 {
    wire_fabric(server)
        .get(name)
        .and_then(|v| v.as_i128())
        .unwrap_or_else(|| panic!("fabric counter {name} missing"))
}

/// The index of the node that owns `text`'s problem on a ring over
/// nodes `0..n` — computed test-side from the exported [`Ring`], which
/// the servers must agree with once membership has converged.
fn owner_index(servers: &[ServerHandle], text: &str) -> usize {
    let members: Vec<(String, String)> = servers
        .iter()
        .enumerate()
        .map(|(i, s)| (node_id(i), s.addr().to_string()))
        .collect();
    let ring = rasengan::serve::Ring::build(&members, DEFAULT_VNODES);
    let problem = parse_problem(text).expect("fixture parses");
    let (owner, _) = ring
        .owner_of(problem.fingerprint())
        .expect("non-empty ring");
    servers
        .iter()
        .enumerate()
        .position(|(i, _)| node_id(i) == owner)
        .expect("owner is a cluster member")
}

/// (a) Every committed fixture, submitted through a node that does NOT
/// own it, returns `result` bytes identical to an in-process solve —
/// the fabric's core determinism contract, valid at any thread count.
#[test]
fn every_fixture_is_byte_identical_from_a_non_owner() {
    let servers = spawn_cluster(2, 2, |f| f);
    for (name, text) in instance_texts() {
        let request = request_for(&text);
        let problem = parse_problem(&text).expect("fixture parses");
        let baseline = render_outcome(
            &Rasengan::new(request.config())
                .solve(&problem)
                .expect("in-process solve"),
        );
        let non_owner = 1 - owner_index(&servers, &text);
        let reply = submit(servers[non_owner].addr(), &request).expect("submit");
        assert_eq!(reply.status, ReplyStatus::Ok, "{name} failed via non-owner");
        assert_eq!(
            reply.section("result").expect("result section"),
            baseline,
            "{name}: non-owner entry must be byte-identical to the in-process solve"
        );
        // key_point is total — every fingerprint lands somewhere on
        // the ring — so routing never rejects a problem.
        let _ = key_point(problem.fingerprint());
    }
    // Routing actually crossed the wire: at least one fixture was
    // forwarded out of its entry node and into its owner.
    let forwarded: i128 = servers
        .iter()
        .map(|s| wire_counter(s, "forwards_out"))
        .sum();
    let received: i128 = servers.iter().map(|s| wire_counter(s, "forwards_in")).sum();
    assert!(forwarded >= 1, "non-owner entry must forward");
    assert_eq!(forwarded, received, "every forward out lands on an owner");
    for server in servers {
        server.shutdown();
    }
}

/// (b) A second submit through a *different* node reuses the cluster's
/// work rather than recomputing: the owner answers from its result
/// cache on the forward, and the forwarder's read-through copy serves
/// the third hit without touching the wire. Observed via the STATS
/// counters on each node.
#[test]
fn cross_node_resubmission_hits_remote_and_local_caches() {
    let servers = spawn_cluster(2, 2, |f| f);
    let (_, text) = instance_texts().into_iter().next().unwrap();
    let request = request_for(&text);
    let owner = owner_index(&servers, &text);
    let other = 1 - owner;

    // Seed the owner directly: a plain local solve, no forwarding.
    let first = submit(servers[owner].addr(), &request).expect("owner submit");
    assert_eq!(first.status, ReplyStatus::Ok);
    assert_eq!(wire_counter(&servers[owner], "forwards_out"), 0);

    // Non-owner entry: forwarded, and the owner answers from cache.
    let second = submit(servers[other].addr(), &request).expect("non-owner submit");
    assert_eq!(second.status, ReplyStatus::Ok);
    let service = second.json("service").expect("service section");
    assert_eq!(
        service.get("cache").and_then(|c| c.as_str()),
        Some("forward-hit"),
        "the owner must serve the forward from its result cache"
    );
    assert_eq!(
        service.get("owner").and_then(|o| o.as_str()),
        Some(node_id(owner).as_str()),
        "the reply must name the owning node"
    );
    assert_eq!(wire_counter(&servers[other], "forwards_out"), 1);
    assert_eq!(wire_counter(&servers[owner], "forwards_in"), 1);

    // Same entry again: the read-through copy answers locally.
    let third = submit(servers[other].addr(), &request).expect("remote-hit submit");
    assert_eq!(third.status, ReplyStatus::Ok);
    assert_eq!(
        third
            .json("service")
            .expect("service section")
            .get("cache")
            .and_then(|c| c.as_str()),
        Some("remote-hit"),
        "the forwarder must keep a read-through copy"
    );
    assert_eq!(wire_counter(&servers[other], "remote_hits"), 1);
    assert_eq!(
        wire_counter(&servers[other], "forwards_out"),
        1,
        "a remote hit must not touch the wire again"
    );

    // All three paths return the same bytes.
    let bytes: Vec<&str> = [&first, &second, &third]
        .iter()
        .map(|r| r.section("result").expect("result section"))
        .collect();
    assert_eq!(bytes[0], bytes[1]);
    assert_eq!(bytes[1], bytes[2]);
    for server in servers {
        server.shutdown();
    }
}

/// (b') A forwarded miss leaves the forwarder a read-through copy, and
/// a repeat it answers renders its own `timing` like any other hit:
/// `cache_hit` is true, not the owner's `false` from the solve that
/// filled the copy.
#[test]
fn a_remote_hit_reports_its_own_timing() {
    let servers = spawn_cluster(2, 2, |f| f);
    let (_, text) = instance_texts().into_iter().next().unwrap();
    let request = request_for(&text);
    let other = 1 - owner_index(&servers, &text);
    let cache_hit = |reply: &rasengan::serve::Reply| {
        reply
            .json("timing")
            .expect("timing section")
            .get("cache_hit")
            .and_then(|hit| hit.as_bool())
    };
    let cache_note = |reply: &rasengan::serve::Reply| {
        reply
            .json("service")
            .expect("service section")
            .get("cache")
            .and_then(|c| c.as_str().map(str::to_string))
    };

    let forwarded = submit(servers[other].addr(), &request).expect("forward submit");
    assert_eq!(forwarded.status, ReplyStatus::Ok);
    assert_eq!(cache_note(&forwarded).as_deref(), Some("forward-miss"));
    assert_eq!(cache_hit(&forwarded), Some(false), "the owner solved it");

    let repeat = submit(servers[other].addr(), &request).expect("remote-hit submit");
    assert_eq!(repeat.status, ReplyStatus::Ok);
    assert_eq!(cache_note(&repeat).as_deref(), Some("remote-hit"));
    assert_eq!(
        cache_hit(&repeat),
        Some(true),
        "a remote hit is a cache hit"
    );
    assert_eq!(repeat.section("result"), forwarded.section("result"));
    for server in servers {
        server.shutdown();
    }
}

/// (c) Owner death: the cluster detects it (suspect → dead), rebuilds
/// the ring without the corpse, and keeps serving byte-identical
/// results throughout — first by local fallback while the death is
/// still undetected, then by re-routed ownership. Every submit carries
/// a seed of its own, so no cache tier can answer: each reply is
/// computed where routing sends it, and the `service.cache` note says
/// where that was.
#[test]
fn owner_death_rebuilds_the_ring_and_results_stay_identical() {
    let mut servers = spawn_cluster(3, 2, |f| f);
    let (_, text) = instance_texts().into_iter().next().unwrap();
    let problem = parse_problem(&text).expect("fixture parses");
    let request = |seed: u64| request_for(&text).with_seed(seed);
    let expected = |seed: u64| {
        render_outcome(
            &Rasengan::new(request(seed).config())
                .solve(&problem)
                .expect("in-process solve"),
        )
    };
    let note = |reply: &rasengan::serve::Reply| {
        let service = reply.json("service").expect("service section");
        let get = |key: &str| {
            service
                .get(key)
                .and_then(|v| v.as_str())
                .map(str::to_string)
        };
        (get("cache").expect("cache note"), get("owner"))
    };
    let owner = owner_index(&servers, &text);
    let mut ids: Vec<String> = (0..3).map(node_id).collect();
    let survivors: Vec<usize> = (0..3).filter(|i| *i != owner).collect();

    // Healthy cluster: a non-owner entry forwards to the owner, which
    // computes.
    let before = submit(servers[survivors[0]].addr(), &request(21)).expect("pre-death submit");
    assert_eq!(before.status, ReplyStatus::Ok);
    assert_eq!(before.section("result").expect("result"), expected(21));
    assert_eq!(
        note(&before),
        ("forward-miss".to_string(), Some(node_id(owner)))
    );
    // Each node versions its own ring, so the rebuild check is
    // per-survivor against that survivor's own pre-death version.
    let ring_before: Vec<i128> = survivors
        .iter()
        .map(|&i| wire_counter(&servers[i], "ring_version"))
        .collect();

    // Kill the owner. `remove` keeps the survivors' relative order, so
    // `ring_before[k]` and `ids[k]` still belong to `servers[k]`.
    let corpse = servers.remove(owner);
    ids.remove(owner);
    corpse.shutdown();

    // Immediately after death the survivors still route to the corpse;
    // the forward fails and the entry node falls back to computing
    // locally — same bytes, and the dead peer is suspected on the spot.
    let during = submit(servers[0].addr(), &request(22)).expect("fallback submit");
    assert_eq!(during.status, ReplyStatus::Ok);
    assert_eq!(
        during.section("result").expect("result"),
        expected(22),
        "local fallback must be byte-identical"
    );
    assert_eq!(note(&during), ("miss".to_string(), None));

    // The gossip timers take it from there: suspect → dead → ring
    // rebuild on every survivor.
    let deadline = Instant::now() + Duration::from_secs(10);
    for (server, &before_version) in servers.iter().zip(&ring_before) {
        while wire_counter(server, "members_dead") < 1
            || wire_counter(server, "ring_version") <= before_version
        {
            assert!(
                Instant::now() < deadline,
                "owner death was not detected within 10s"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(
            wire_counter(server, "peer_suspect") >= 1,
            "death must pass through the suspect state"
        );
    }

    // The counters above also move when load delays gossip past the
    // 40 ms heartbeat's timers and one survivor suspects, or declares
    // dead, the other. Route nothing until both rings hold exactly the
    // survivors again, alive.
    wait_for_membership(&servers, ids.clone());

    // Post-rebuild: the ring over the survivors names a new owner, and
    // every entry's solve runs there. So far only the fallback node
    // has compiled the problem.
    let members: Vec<(String, String)> = ids
        .iter()
        .cloned()
        .zip(servers.iter().map(|s| s.addr().to_string()))
        .collect();
    let new_owner = rasengan::serve::Ring::build(&members, DEFAULT_VNODES)
        .owner_of(problem.fingerprint())
        .map(|(id, _)| id.to_string())
        .expect("non-empty ring");
    let mut compiled = vec![ids[0].clone()];
    for (k, server) in servers.iter().enumerate() {
        let seed = 23 + k as u64;
        let after = submit(server.addr(), &request(seed)).expect("post-rebuild submit");
        assert_eq!(after.status, ReplyStatus::Ok);
        assert_eq!(
            after.section("result").expect("result"),
            expected(seed),
            "post-rebuild result must be byte-identical"
        );
        let compile = if compiled.contains(&new_owner) {
            "compile-hit"
        } else {
            "miss"
        };
        compiled.push(new_owner.clone());
        let want = if ids[k] == new_owner {
            (compile.to_string(), None)
        } else {
            (format!("forward-{compile}"), Some(new_owner.clone()))
        };
        assert_eq!(note(&after), want, "entry {}", ids[k]);
    }
    for server in servers {
        server.shutdown();
    }
}

/// (d) A peer list naming the node itself and repeating an address
/// collapses cleanly: one unique peer survives, and the node's own
/// advertise address never gossips to itself.
#[test]
fn self_and_duplicate_peers_dedupe() {
    let advertise = "127.0.0.1:45991";
    let fabric = FabricConfig::new("solo")
        .with_advertise(advertise)
        .with_heartbeat(Duration::from_millis(40))
        .with_peers(vec![
            advertise.to_string(),
            "127.0.0.1:45992".to_string(),
            "127.0.0.1:45992".to_string(),
            advertise.to_string(),
        ]);
    let server = serve(ServeConfig::default().with_workers(1).with_fabric(fabric))
        .expect("bind ephemeral port");
    let stats = wire_fabric(&server);
    let members = stats
        .get("members")
        .and_then(|m| m.as_arr())
        .map(|m| m.to_vec())
        .expect("members array");
    // Self plus exactly one deduped peer.
    assert_eq!(members.len(), 2, "members: {members:?}");
    let addrs: Vec<&str> = members
        .iter()
        .filter_map(|m| m.get("addr").and_then(|a| a.as_str()))
        .collect();
    assert!(addrs.contains(&advertise));
    assert!(addrs.contains(&"127.0.0.1:45992"));
    assert_eq!(
        stats.get("node_id").and_then(|v| v.as_str()),
        Some("solo"),
        "node id survives"
    );
    server.shutdown();
}
