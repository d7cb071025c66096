//! Byte-format pins: the CRC32 of three encodings a session produces,
//! recorded as constants. Snapshot bytes land on disk and results cross
//! the serving wire, so a refactor of the session engines must leave every
//! one of these bytes where it was.
//!
//! All three encodings come from DC-AI-C15, seed 1, after two epochs. The
//! trajectory is bitwise identical at any `AIBENCH_THREADS`, so the
//! constants hold at any thread count.

use aibench::registry::Registry;
use aibench::runner::RunConfig;
use aibench::session::TrainingSession;
use aibench_ckpt::{crc32, CheckpointSink, MemorySink, SnapshotFile};
use aibench_fault::{FaultSchedule, SupervisedSession, SupervisorConfig};

/// CRC32 of the `snapshot_run` bytes after two epochs.
const SNAPSHOT_CRC: u32 = 0x0a16_b5c8;
/// CRC32 of `RunResult::to_state()` after two epochs, with `wall_seconds`
/// zeroed, serialized as the single section of a `SnapshotFile`.
const RESULT_CRC: u32 = 0x4a57_344b;
/// CRC32 of the snapshot `SupervisedSession::park` writes after two epochs.
/// Supervision state never enters the snapshot, so it equals
/// [`SNAPSHOT_CRC`].
const PARK_CRC: u32 = 0x0a16_b5c8;

fn config() -> RunConfig {
    RunConfig {
        max_epochs: 4,
        eval_every: 1,
        ..RunConfig::default()
    }
}

#[test]
fn session_snapshot_and_result_bytes_are_pinned() {
    let registry = Registry::aibench();
    let b = registry.get("DC-AI-C15").unwrap();
    let mut session = TrainingSession::fresh(b, 1, &config());
    session.step();
    session.step();
    assert_eq!(session.epochs_run(), 2);

    let snapshot = session.snapshot();
    let mut result = session.result();
    result.wall_seconds = 0.0;
    let mut file = SnapshotFile::new();
    file.push("result", result.to_state());
    let result_bytes = file.to_bytes();
    assert_eq!(crc32(&snapshot), SNAPSHOT_CRC, "snapshot bytes moved");
    assert_eq!(crc32(&result_bytes), RESULT_CRC, "result bytes moved");
}

#[test]
fn supervised_park_snapshot_bytes_are_pinned() {
    let registry = Registry::aibench();
    let b = registry.get("DC-AI-C15").unwrap();
    let mut session = SupervisedSession::new(
        b,
        1,
        config(),
        FaultSchedule::empty(),
        SupervisorConfig::default(),
        MemorySink::new(),
    );
    session.tick();
    session.tick();
    assert_eq!(session.park().unwrap(), 2);
    let bytes = session.sink_mut().load(2).unwrap().unwrap();
    assert_eq!(crc32(&bytes), PARK_CRC, "park snapshot bytes moved");
}
