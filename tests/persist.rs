//! Corruption-matrix tests for the persistent state tier.
//!
//! Every injected storage fault class — torn write, truncation, bit
//! flip, version skew — must be (a) quarantined by the restart
//! recovery scan, (b) invisible to correctness: the replayed request
//! recomputes and its `result` bytes are identical to a cold
//! in-process solve. The matrix runs at solver thread counts 1 and 4,
//! mirroring the CI `RASENGAN_THREADS` axis, via
//! `ServeConfig::with_solver_threads` so parallel test binaries don't
//! race on the environment.

use std::path::PathBuf;
use std::time::{SystemTime, UNIX_EPOCH};

use rasengan::core::Rasengan;
use rasengan::problems::io::write_problem;
use rasengan::problems::registry::{benchmark, BenchmarkId};
use rasengan::serve::{
    render_outcome, serve, submit, Reply, ReplyStatus, ServeConfig, SolveRequest, StorageFault,
    StorageFaultPlan,
};

const THREAD_MATRIX: [usize; 2] = [1, 4];
const FAULT_MATRIX: [StorageFault; 4] = [
    StorageFault::TornWrite,
    StorageFault::Truncation,
    StorageFault::BitFlip,
    StorageFault::VersionSkew,
];

fn instance_text() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/instances/F1.problem");
    std::fs::read_to_string(path).expect("committed example instance")
}

/// A fresh state directory under the system temp dir, unique per
/// (test, pid, call) so parallel tests never share disk state.
fn state_dir(tag: &str) -> PathBuf {
    let nonce = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap()
        .as_nanos();
    let dir = std::env::temp_dir().join(format!(
        "rasengan-persist-{tag}-{}-{nonce}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn request() -> SolveRequest {
    SolveRequest::new(instance_text())
        .with_seed(11)
        .with_shots(64)
        .with_iterations(4)
}

/// The ground truth a served recompute must match byte-for-byte: a
/// cold in-process solve with the request's own config at the given
/// thread count, rendered exactly as the server renders the `result`
/// section.
fn in_process_result_bytes(threads: usize) -> String {
    let request = request();
    let problem = rasengan::problems::io::parse_problem(&request.problem_text).expect("parses");
    let outcome = Rasengan::new(request.config().with_trace(false).with_threads(threads))
        .solve(&problem)
        .expect("in-process solve");
    render_outcome(&outcome)
}

#[test]
fn every_fault_class_quarantines_and_recomputes_identically() {
    for threads in THREAD_MATRIX {
        let expected = in_process_result_bytes(threads);
        for fault in FAULT_MATRIX {
            let dir = state_dir(&format!("matrix-{fault}-{threads}"));

            // Round one: a faulty server. The solved record it flushes
            // is corrupted on the way to disk, but the response itself
            // is computed in memory and must already be correct.
            let corrupt = serve(
                ServeConfig::default()
                    .with_workers(1)
                    .with_solver_threads(threads)
                    .with_state_dir(&dir)
                    .with_storage_faults(StorageFaultPlan::every_write(99, fault)),
            )
            .unwrap();
            let reply = submit(corrupt.addr(), &request()).expect("submit to faulty server");
            assert_eq!(reply.status, ReplyStatus::Ok, "{fault}/{threads}");
            assert_eq!(
                reply.section("result").unwrap(),
                expected,
                "{fault}/{threads}: faulty-server response must still be correct"
            );
            let stats = corrupt.stats();
            assert_eq!(
                stats.persist.flushes, 1,
                "{fault}/{threads}: the solved record flushed"
            );
            assert_eq!(
                stats.persist.faults_injected, 1,
                "{fault}/{threads}: the flush corrupted"
            );
            corrupt.shutdown();

            // Round two: a clean server on the same directory. The
            // recovery scan must quarantine the corrupt record — never
            // serve it — and the replayed request recomputes.
            let clean = serve(
                ServeConfig::default()
                    .with_workers(1)
                    .with_solver_threads(threads)
                    .with_state_dir(&dir),
            )
            .unwrap();
            let recovered = clean.stats();
            assert_eq!(
                recovered.persist.quarantined, 1,
                "{fault}/{threads}: the corrupt record quarantined at startup"
            );
            assert_eq!(
                recovered.persist.recovered, 0,
                "{fault}/{threads}: nothing corrupt survives recovery"
            );
            let quarantine: Vec<String> = std::fs::read_dir(dir.join("quarantine"))
                .expect("quarantine dir")
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect();
            assert_eq!(quarantine.len(), 1, "{fault}/{threads}");

            let reply = submit(clean.addr(), &request()).expect("replay after recovery");
            assert_eq!(reply.status, ReplyStatus::Ok, "{fault}/{threads}");
            let note = reply
                .json("service")
                .unwrap()
                .get("cache")
                .and_then(|c| c.as_str())
                .unwrap()
                .to_string();
            assert_eq!(
                note, "miss",
                "{fault}/{threads}: quarantined records must read as misses"
            );
            assert_eq!(
                reply.section("result").unwrap(),
                expected,
                "{fault}/{threads}: recompute must be byte-identical to in-process"
            );
            let stats = clean.stats();
            assert_eq!(stats.persist.disk_hits, 0, "{fault}/{threads}");
            assert!(stats.persist.disk_misses >= 1, "{fault}/{threads}");
            clean.shutdown();

            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn clean_records_survive_restart_across_the_thread_matrix() {
    // Control arm for the matrix: with no faults, the same two-server
    // dance produces a disk hit and byte-identical bytes — proving the
    // corruption tests exercise the quarantine path, not a tier that
    // never serves warm data.
    for threads in THREAD_MATRIX {
        let expected = in_process_result_bytes(threads);
        let dir = state_dir(&format!("control-{threads}"));

        let writer = serve(
            ServeConfig::default()
                .with_workers(1)
                .with_solver_threads(threads)
                .with_state_dir(&dir),
        )
        .unwrap();
        let reply = submit(writer.addr(), &request()).expect("cold submit");
        assert_eq!(reply.status, ReplyStatus::Ok);
        assert_eq!(reply.section("result").unwrap(), expected);
        writer.shutdown();

        let reader = serve(
            ServeConfig::default()
                .with_workers(1)
                .with_solver_threads(threads)
                .with_state_dir(&dir),
        )
        .unwrap();
        let recovered = reader.stats();
        assert_eq!(recovered.persist.recovered, 1, "threads {threads}");
        assert_eq!(recovered.persist.quarantined, 0, "threads {threads}");
        let reply = submit(reader.addr(), &request()).expect("warm submit");
        assert_eq!(reply.status, ReplyStatus::Ok);
        assert_eq!(
            reply
                .json("service")
                .unwrap()
                .get("cache")
                .and_then(|c| c.as_str()),
            Some("disk-hit"),
            "threads {threads}"
        );
        assert_eq!(
            reply.section("result").unwrap(),
            expected,
            "threads {threads}: disk-served bytes identical to in-process"
        );
        reader.shutdown();

        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn budget_stopped_results_are_never_cached() {
    // A 1 ms deadline (0.5 ms per budgeted stage) cuts this solve
    // short; `degrade` turns the cut into an `OK` reply. What such a
    // reply holds depends on the wall clock, not on its key, so neither
    // the result cache nor the disk tier may answer the repeat.
    let problem = benchmark(BenchmarkId::parse("K3").unwrap());
    let request = SolveRequest::new(write_problem(&problem))
        .with_seed(5)
        .with_shots(512)
        .with_iterations(200)
        .with_degrade()
        .with_deadline_ms(1);
    let dir = state_dir("deadline");
    let config = || ServeConfig::default().with_workers(1).with_state_dir(&dir);
    let cache_note = |reply: &Reply| {
        assert_eq!(reply.status, ReplyStatus::Ok, "{reply:?}");
        reply
            .json("service")
            .unwrap()
            .get("cache")
            .and_then(|c| c.as_str())
            .unwrap()
            .to_string()
    };

    let first = serve(config()).unwrap();
    let cut = submit(first.addr(), &request).expect("first submit");
    cache_note(&cut);
    let budget_stops = cut
        .json("result")
        .unwrap()
        .get("resilience")
        .and_then(|r| r.get("budget_stops"))
        .and_then(|n| n.as_i128())
        .unwrap();
    assert!(budget_stops > 0, "the deadline must cut the solve short");
    let repeat = submit(first.addr(), &request).expect("repeat submit");
    assert_ne!(cache_note(&repeat), "hit");
    first.shutdown();

    let restarted = serve(config()).unwrap();
    let replay = submit(restarted.addr(), &request).expect("submit after restart");
    assert_ne!(cache_note(&replay), "disk-hit");
    restarted.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
