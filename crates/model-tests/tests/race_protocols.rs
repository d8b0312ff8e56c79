//! Race-detector checks for the two copy-on-write custody protocols.
//!
//! Unlike the seeded-bug suites gated on `model_mutation`, both polarities
//! here are *parameterized* transcriptions (see `registry`): the clean arm
//! proves the shipped ordering admits no data race over the exhausted
//! schedule space, and the broken arm proves the detector actually fires —
//! with a counterexample that names the location and replays from its
//! token.  Both arms run in every build of this crate.

use skiphash_model::{explore, replay, token_meta, MemoryModel, Options};
use skiphash_model_tests::registry::{orec_publish_body, snapshot_preserve_body};

fn opts() -> Options {
    Options::dfs().iterations(400_000).preemptions(Some(3))
}

/// The shipped orec unlock is a `Release` store: a reader validating at
/// the post-commit version is ordered after the payload install, so the
/// detector must stay quiet — exhaustively.
#[test]
fn orec_release_publish_is_race_free() {
    let report = explore(&opts(), orec_publish_body(true));
    assert!(
        report.failure.is_none(),
        "Release unlock must order installs before validated reads: {:?}",
        report.failure
    );
    assert!(
        report.exhausted,
        "expected bounded-exhaustive coverage, ran {} iterations",
        report.iterations
    );
}

/// Tearing the unlock down to `Relaxed` lets a reader validate at the new
/// version while keeping the displaced payload generation — a data race on
/// the payload slot, reported with a replayable token.
#[test]
fn orec_release_tear_is_detected_as_data_race() {
    let report = explore(&opts(), orec_publish_body(false));
    let failure = report
        .failure
        .expect("Relaxed unlock must admit a racy validated read");
    assert!(
        failure.message.contains("data race on `tcell.payload`"),
        "unexpected failure kind: {failure:?}"
    );
    let meta = token_meta(&failure.token).expect("token must carry a header");
    assert_eq!(meta.memory_model, MemoryModel::X86);
    let replayed = replay(&failure.token, orec_publish_body(false));
    assert!(
        replayed
            .failure
            .as_ref()
            .is_some_and(|f| f.message.contains("data race on `tcell.payload`")),
        "token must replay to the same race: {replayed:?}"
    );
}

/// The shipped commit path checks the pin count before recycling a
/// displaced payload; a live pin keeps the block out of the arena, so no
/// pinned read ever overlaps a fresh install.
#[test]
fn snapshot_preserve_is_race_free() {
    let report = explore(&opts(), snapshot_preserve_body(true));
    assert!(
        report.failure.is_none(),
        "pin check must keep recycling away from pinned readers: {:?}",
        report.failure
    );
    assert!(
        report.exhausted,
        "expected bounded-exhaustive coverage, ran {} iterations",
        report.iterations
    );
}

/// Skipping the pin check recycles the displaced block under a live pin:
/// the pinned read races with the next install into the same storage.
#[test]
fn snapshot_preserve_skip_is_detected_as_data_race() {
    let report = explore(&opts(), snapshot_preserve_body(false));
    let failure = report
        .failure
        .expect("skipping the pin check must race with a pinned reader");
    assert!(
        failure.message.contains("data race on `snapshot.gen0`"),
        "unexpected failure kind: {failure:?}"
    );
    let replayed = replay(&failure.token, snapshot_preserve_body(false));
    assert!(
        replayed
            .failure
            .as_ref()
            .is_some_and(|f| f.message.contains("data race on `snapshot.gen0`")),
        "token must replay to the same race: {replayed:?}"
    );
}
