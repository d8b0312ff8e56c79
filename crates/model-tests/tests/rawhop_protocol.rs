//! Model checks for the borrowed-hop dereference window.
//!
//! The scan cursor in `skiphash::skiplist` hops tower links through
//! `RawNode` handles: a link is loaded once and the resulting pointer is
//! dereferenced *later*, with nothing revalidated in between.  The only
//! thing standing between that dereference and a concurrent unstitch +
//! reclamation is the attempt's pinned epoch guard — exactly the contract
//! written on `RawNode::node()`.  `registry::rawhop_scan_body` transcribes
//! that borrow-then-dereference split against an unstitching remover whose
//! retirement defers to the guard census.
//!
//! Both polarities are parameterized and run in every build: the pinned
//! arm exhausts with no counterexample (the guard census and the
//! store-buffering pair close every window), the unpinned arm — a hop
//! dereferenced outside its guard — must produce the use-after-free as a
//! detected data race and replay from its token.

use skiphash_model::{explore, replay, Options};
use skiphash_model_tests::registry::rawhop_scan_body;

fn opts() -> Options {
    Options::dfs().iterations(400_000).preemptions(Some(3))
}

/// Under the guard, no interleaving of a borrowed hop and a concurrent
/// unstitch-and-retire ever frees the node mid-dereference.
#[test]
fn pinned_borrowed_hop_is_safe() {
    let report = explore(&opts(), rawhop_scan_body(true));
    assert!(
        report.failure.is_none(),
        "a pinned guard must keep reclamation off every borrowed hop: {:?}",
        report.failure
    );
    assert!(
        report.exhausted,
        "expected bounded-exhaustive coverage, ran {} iterations",
        report.iterations
    );
}

/// Dereferencing a borrowed hop outside the guard lets retirement recycle
/// the node between the borrow and the payload read.
#[test]
fn unpinned_hop_is_detected_as_use_after_free() {
    let report = explore(&opts(), rawhop_scan_body(false));
    let failure = report
        .failure
        .expect("an unguarded hop must race with reclamation");
    assert!(
        failure.message.contains("data race on `rawhop.node`"),
        "unexpected failure kind: {failure:?}"
    );
    let replayed = replay(&failure.token, rawhop_scan_body(false));
    assert!(
        replayed
            .failure
            .as_ref()
            .is_some_and(|f| f.message.contains("data race on `rawhop.node`")),
        "token must replay to the same race: {replayed:?}"
    );
}
