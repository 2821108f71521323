//! Offline index build determinism check (run by CI).
//!
//! Builds the seeded tiny data lake, constructs the pattern index with the
//! default configuration at several thread counts, and asserts the
//! persisted AVIX image digests match the pinned constant. Everything in
//! the chain is deterministic by design — lake generation is seeded, the
//! fixed-point accumulators make the parallel fold order-independent, and
//! persistence sorts entries by fingerprint — so a mismatch means the
//! on-disk format or the build semantics drifted silently. Bump the AVIX
//! version (and this constant) deliberately instead.
//!
//! ```text
//! cargo run --release --example index_build
//! ```

use av_corpus::{generate_lake, LakeProfile};
use av_index::{IndexConfig, PatternIndex};

/// Digest of `PatternIndex::to_bytes()` for `LakeProfile::tiny()`, seed 42,
/// default `IndexConfig` (AVIX v5, 64 shards). Pinned in `av-index`'s
/// persist tests too, next to the v4 pin the image minus its prefix
/// sections still hashes to.
const EXPECTED_DIGEST: u64 = 0xf9ab4454e0245fc7;
const EXPECTED_PATTERNS: usize = 45379;

fn main() {
    let corpus = generate_lake(&LakeProfile::tiny(), 42);
    let cols: Vec<_> = corpus.columns().collect();
    for num_threads in [1, 2, 8] {
        let config = IndexConfig {
            num_threads,
            ..Default::default()
        };
        let start = std::time::Instant::now();
        let index = PatternIndex::build(&cols, &config);
        let digest = index.content_digest();
        println!(
            "threads={num_threads}: {} columns -> {} patterns in {:.1?}, digest 0x{digest:016x}",
            cols.len(),
            index.len(),
            start.elapsed(),
        );
        assert_eq!(
            index.len(),
            EXPECTED_PATTERNS,
            "pattern count drifted from the pinned build"
        );
        assert_eq!(
            digest, EXPECTED_DIGEST,
            "persisted AVIX bytes drifted from the pinned build \
             (threads={num_threads}); if the format changed on purpose, \
             bump the AVIX version and re-pin"
        );
    }
    println!("ok: persisted index is bit-identical to the pinned digest");
}
