//! Stamp-ordered reconciliation for replicated model serving.
//!
//! Every publication a replica makes is stamped with a [`Stamp`]: the
//! application's per-lineage version (the same high-water number the
//! repository's [`ModelProvenance`](crate::ModelProvenance) tracks) plus
//! the id of the publishing replica. Stamps are totally ordered —
//! version first, publisher id as the tie-break — so *every* replica,
//! applying the same set of publications in any delivery order, picks
//! the same winner per application: the deterministic maximum. A
//! re-published drift patch bumps the version past everything it has
//! seen and therefore wins everywhere, regardless of how the transport
//! reorders, duplicates or delays it.
//!
//! A replica's view of that order is the stamp of its winning entry per
//! application: the highest stamp it has observed. Anti-entropy sync
//! (see [`crate::net::replica`]) exchanges [`ModelDigest`]s — cheap
//! (application, stamp, content-hash) triples — and ships full
//! [`ReplicatedModel`] payloads only for entries whose stamp actually
//! beats the receiver's.

use serde::{Deserialize, Serialize};

use kernels::Fnv1a;

/// The replication order of one publication: per-application version,
/// tie-broken by publisher replica id.
///
/// The derived `Ord` is lexicographic over `(version, publisher)` —
/// exactly the reconciliation rule. Two replicas that concurrently
/// publish version *v* for the same application conflict; the higher
/// replica id wins deterministically on every replica.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct Stamp {
    /// Per-application lineage version (1 for a first publication).
    pub version: u32,
    /// Id of the replica that made the publication.
    pub publisher: u32,
}

impl Stamp {
    /// Whether a publication stamped `self` supersedes one stamped
    /// `current` (or any publication at all, when `current` is `None`).
    pub fn wins_over(&self, current: Option<&Stamp>) -> bool {
        current.is_none_or(|c| self > c)
    }
}

impl std::fmt::Display for Stamp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}@r{}", self.version, self.publisher)
    }
}

/// A cheap summary of one replicated entry: enough for a peer to decide
/// whether it needs the full payload, without shipping the model JSON.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelDigest {
    /// Application the entry serves.
    pub application: String,
    /// The entry's publication stamp.
    pub stamp: Stamp,
    /// Content hash over the serialized model, its workload fingerprint
    /// and the stamp — two replicas hold the same entry iff the digests
    /// are equal.
    pub content: u64,
}

/// One replicated publication: the full payload anti-entropy sync ships
/// when a digest exchange shows the receiver is behind.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicatedModel {
    /// Application the model serves.
    pub application: String,
    /// Workload fingerprint of the benchmark the model was tuned for.
    pub fingerprint: u64,
    /// The tuning model in its serialized JSON wire form.
    pub model_json: String,
    /// Per-region energy expectations for drift detection (empty when
    /// the publisher recorded none).
    pub expected: Vec<(String, f64)>,
    /// The publication's reconciliation stamp.
    pub stamp: Stamp,
}

impl ReplicatedModel {
    /// The entry's digest, hashed through the workspace's shared FNV-1a.
    pub fn digest(&self) -> ModelDigest {
        let content = Fnv1a::new()
            .update(self.model_json.as_bytes())
            .update_u64(self.fingerprint)
            .update_u64(u64::from(self.stamp.version))
            .update_u64(u64::from(self.stamp.publisher))
            .finish();
        ModelDigest {
            application: self.application.clone(),
            stamp: self.stamp,
            content,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamp(version: u32, publisher: u32) -> Stamp {
        Stamp { version, publisher }
    }

    #[test]
    fn stamps_order_by_version_then_publisher() {
        assert!(stamp(2, 0) > stamp(1, 3), "version dominates");
        assert!(stamp(1, 1) > stamp(1, 0), "publisher breaks ties");
        assert!(stamp(1, 0).wins_over(None));
        assert!(
            !stamp(1, 0).wins_over(Some(&stamp(1, 0))),
            "equal never wins"
        );
        assert_eq!(format!("{}", stamp(3, 1)), "v3@r1");
    }

    #[test]
    fn digest_distinguishes_content_and_stamp() {
        let entry = ReplicatedModel {
            application: "app".into(),
            fingerprint: 7,
            model_json: "{}".into(),
            expected: vec![],
            stamp: stamp(1, 0),
        };
        let same = entry.digest();
        assert_eq!(same, entry.digest(), "digest is deterministic");

        let mut other_body = entry.clone();
        other_body.model_json = "{\"x\":1}".into();
        assert_ne!(same.content, other_body.digest().content);

        let mut other_stamp = entry.clone();
        other_stamp.stamp = stamp(2, 0);
        assert_ne!(same.content, other_stamp.digest().content);
        assert_eq!(other_stamp.digest().stamp, stamp(2, 0));
    }
}
