//! The length-framed, versioned wire format.
//!
//! A frame is `[length: u32 BE][version: u16 BE][payload]` where
//! `length` counts the version word plus the payload, and the payload is
//! the [`Message`] in its serde JSON wire form — the same serialization
//! family every other persisted artifact of this workspace uses, so a
//! captured frame is inspectable with any JSON tool. [`encode`] never
//! fails; [`decode`] returns `Result<_, NetError>` for every way real
//! bytes go wrong: truncation (with exactly how many bytes would be
//! needed, so a stream reader knows how much more to buffer), an
//! oversized length prefix, a version this build does not speak, and a
//! payload that is not a well-formed message.

use serde::{Deserialize, Serialize};

use super::reconcile::{ModelDigest, ReplicatedModel};

/// The one protocol version this build speaks.
pub const PROTOCOL_VERSION: u16 = 1;

/// Upper bound on `length` (version word + payload). Anything larger is
/// rejected before allocation — a corrupt length prefix must not look
/// like a 4 GiB message.
pub const MAX_FRAME: usize = 1 << 20;

/// Bytes of frame header preceding the payload: length word + version.
const HEADER: usize = 6;

/// Why a frame or a session operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetError {
    /// The buffer ends before the frame does. `needed` is the total
    /// byte count the frame requires (or the minimal header size when
    /// even the length prefix is incomplete).
    Truncated {
        /// Bytes the complete frame needs.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The length prefix exceeds [`MAX_FRAME`].
    FrameTooLarge {
        /// The claimed frame length.
        length: usize,
        /// The enforced bound.
        max: usize,
    },
    /// The frame speaks a protocol version this build does not.
    UnsupportedVersion {
        /// Version the frame (or peer) declared.
        version: u16,
        /// Version this build supports.
        supported: u16,
    },
    /// The payload is not a well-formed message.
    Malformed(String),
    /// A session was driven through a transition its state forbids.
    InvalidTransition {
        /// The state the session was in.
        state: &'static str,
        /// The operation that was attempted.
        event: &'static str,
    },
    /// A session exhausted its retransmit budget without an answer.
    SessionTimeout {
        /// Peer replica the session was talking to.
        peer: u32,
        /// The state the session gave up in.
        state: &'static str,
    },
    /// A message was addressed to a replica the set does not contain.
    UnknownReplica {
        /// The requested replica id.
        replica: u32,
        /// Number of replicas in the set.
        replicas: usize,
    },
    /// Anti-entropy sync did not quiesce within the tick budget.
    ConvergeTimeout {
        /// Virtual ticks spent before giving up.
        ticks: u64,
        /// The link the set blames for the stall, when one can be named.
        culprit: Option<ConvergeCulprit>,
    },
}

/// The link a [`NetError::ConvergeTimeout`] blames: the session that had
/// burned the most retransmit budget (or was otherwise unsettled) when
/// the tick budget ran out. Without this a hostile drop plan looks like
/// a silent spin — the culprit names exactly which replica pair and FSM
/// state to go look at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvergeCulprit {
    /// Replica whose client session stalled.
    pub replica: u32,
    /// Peer the session was talking to.
    pub peer: u32,
    /// Session FSM state at the timeout.
    pub state: &'static str,
    /// Times that session exhausted its retransmit budget and reset.
    pub resets: u64,
}

impl std::fmt::Display for ConvergeCulprit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "link {} -> {} stuck {} after {} session resets",
            self.replica, self.peer, self.state, self.resets
        )
    }
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Truncated { needed, have } => {
                write!(f, "truncated frame: need {needed} bytes, have {have}")
            }
            NetError::FrameTooLarge { length, max } => {
                write!(f, "frame length {length} exceeds the {max}-byte bound")
            }
            NetError::UnsupportedVersion { version, supported } => write!(
                f,
                "protocol version {version} not supported (this build speaks {supported})"
            ),
            NetError::Malformed(detail) => write!(f, "malformed message payload: {detail}"),
            NetError::InvalidTransition { state, event } => {
                write!(f, "session cannot {event} from the {state} state")
            }
            NetError::SessionTimeout { peer, state } => write!(
                f,
                "session to replica {peer} exhausted its retransmits while {state}"
            ),
            NetError::UnknownReplica { replica, replicas } => {
                write!(f, "no replica {replica} in a set of {replicas}")
            }
            NetError::ConvergeTimeout { ticks, culprit } => {
                write!(f, "replica set failed to quiesce within {ticks} ticks")?;
                if let Some(culprit) = culprit {
                    write!(f, " ({culprit})")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for NetError {}

/// Every message of the replication protocol.
///
/// The handshake triple (`Connect*`, `Negotiate*`) and the close pair
/// drive the client-session FSM in [`crate::net::session`]; the digest
/// exchange (`DigestOffer` → `DigestReply` → `PushModels`) is the
/// anti-entropy payload a session carries once `Established`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Message {
    /// Client → responder: open a session.
    ConnectRequest,
    /// Responder → client: session open, proceed to negotiation.
    ConnectAccept,
    /// Client → responder: propose a protocol version.
    NegotiateRequest {
        /// The version the client speaks.
        version: u16,
    },
    /// Responder → client: version agreed, session is established.
    NegotiateAccept {
        /// The agreed version (echoed back).
        version: u16,
    },
    /// Responder → client: version refused; the session closes.
    NegotiateReject {
        /// The version the responder supports instead.
        supported: u16,
    },
    /// Client → responder: everything I hold, as digests.
    DigestOffer {
        /// Digest of every replicated entry the sender holds.
        digests: Vec<ModelDigest>,
    },
    /// Responder → client: what I need from you, and what you need from
    /// me. An empty reply means the pair is in sync.
    DigestReply {
        /// Applications whose offered stamp beat the responder's — the
        /// client should push these entries.
        want: Vec<String>,
        /// Entries the responder holds that beat the offer.
        entries: Vec<ReplicatedModel>,
    },
    /// Client → responder: full payloads for requested applications.
    PushModels {
        /// The entries being shipped.
        entries: Vec<ReplicatedModel>,
    },
    /// Client → responder: read-repair — send me your entries for these
    /// applications (the requester missed in its local repository and a
    /// peer digest says you hold a model). Answered with
    /// [`Message::PushModels`] for whatever subset the responder holds.
    PullModels {
        /// Applications the requester wants filled in.
        applications: Vec<String>,
    },
    /// Client → responder: tear the session down.
    CloseRequest,
    /// Responder → client: teardown acknowledged.
    CloseAck,
}

/// Frame a message for the wire. Panics never: a message always has a
/// JSON form and [`MAX_FRAME`] comfortably exceeds any real payload.
pub fn encode(message: &Message) -> Vec<u8> {
    let payload = serde_json::to_string(message).expect("messages always serialize");
    let length = payload.len() + 2;
    debug_assert!(length <= MAX_FRAME, "oversized protocol message");
    let mut out = Vec::with_capacity(HEADER + payload.len());
    out.extend_from_slice(&(length as u32).to_be_bytes());
    out.extend_from_slice(&PROTOCOL_VERSION.to_be_bytes());
    out.extend_from_slice(payload.as_bytes());
    out
}

/// Decode one frame from the front of `bytes`. Returns the message and
/// the number of bytes consumed, so a stream reader can decode
/// back-to-back frames from one buffer.
pub fn decode(bytes: &[u8]) -> Result<(Message, usize), NetError> {
    if bytes.len() < HEADER {
        return Err(NetError::Truncated {
            needed: HEADER,
            have: bytes.len(),
        });
    }
    let length = u32::from_be_bytes(bytes[0..4].try_into().expect("4 bytes")) as usize;
    if length > MAX_FRAME {
        return Err(NetError::FrameTooLarge {
            length,
            max: MAX_FRAME,
        });
    }
    if length < 2 {
        return Err(NetError::Malformed(format!(
            "frame length {length} cannot hold the version word"
        )));
    }
    let total = 4 + length;
    if bytes.len() < total {
        return Err(NetError::Truncated {
            needed: total,
            have: bytes.len(),
        });
    }
    let version = u16::from_be_bytes(bytes[4..6].try_into().expect("2 bytes"));
    if version != PROTOCOL_VERSION {
        return Err(NetError::UnsupportedVersion {
            version,
            supported: PROTOCOL_VERSION,
        });
    }
    let payload = std::str::from_utf8(&bytes[6..total])
        .map_err(|e| NetError::Malformed(format!("payload is not UTF-8: {e}")))?;
    let message = serde_json::from_str(payload).map_err(|e| NetError::Malformed(format!("{e}")))?;
    Ok((message, total))
}

#[cfg(test)]
mod tests {
    use super::super::reconcile::Stamp;
    use super::*;

    fn sample() -> Message {
        Message::DigestOffer {
            digests: vec![ModelDigest {
                application: "miniMD".into(),
                stamp: Stamp {
                    version: 2,
                    publisher: 1,
                },
                content: 0xDEAD_BEEF,
            }],
        }
    }

    /// One message of every kind.
    fn every_message() -> Vec<Message> {
        vec![
            Message::ConnectRequest,
            Message::ConnectAccept,
            Message::NegotiateRequest { version: 1 },
            Message::NegotiateAccept { version: 1 },
            Message::NegotiateReject { supported: 1 },
            sample(),
            Message::DigestReply {
                want: vec!["miniMD".into()],
                entries: vec![ReplicatedModel {
                    application: "Lulesh".into(),
                    fingerprint: 9,
                    model_json: "{}".into(),
                    expected: vec![("r0".into(), 12.5)],
                    stamp: Stamp {
                        version: 1,
                        publisher: 0,
                    },
                }],
            },
            Message::PushModels { entries: vec![] },
            Message::PullModels {
                applications: vec!["miniMD".into(), "Lulesh".into()],
            },
            Message::CloseRequest,
            Message::CloseAck,
        ]
    }

    #[test]
    fn every_message_kind_round_trips() {
        for message in every_message() {
            let bytes = encode(&message);
            let (back, consumed) = decode(&bytes).expect("round trip");
            assert_eq!(back, message);
            assert_eq!(consumed, bytes.len(), "whole frame consumed");
        }
    }

    /// Seeded frame mutation over every message kind: truncations, bit
    /// flips and splices of two frames. Each mutated buffer must decode to
    /// a message or a [`NetError`], never panic, and a message that does
    /// decode must re-encode to a frame that decodes back to itself.
    #[test]
    fn mutated_frames_decode_to_a_message_or_an_error() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        const MUTATIONS: usize = 100_000;
        let frames: Vec<Vec<u8>> = every_message().iter().map(encode).collect();
        let mut rng = StdRng::seed_from_u64(0x00F4_A3E5);
        let (mut decoded, mut rejected) = (0, 0);
        for round in 0..MUTATIONS {
            let frame = &frames[round % frames.len()];
            let mutated = match (round / frames.len()) % 3 {
                0 => frame[..rng.gen_index(frame.len())].to_vec(),
                1 => {
                    let mut flipped = frame.clone();
                    for _ in 0..=rng.gen_index(4) {
                        let bit = rng.gen_index(flipped.len() * 8);
                        flipped[bit / 8] ^= 1 << (bit % 8);
                    }
                    flipped
                }
                _ => {
                    let other = &frames[rng.gen_index(frames.len())];
                    let mut spliced = frame[..rng.gen_index(frame.len() + 1)].to_vec();
                    spliced.extend_from_slice(&other[rng.gen_index(other.len() + 1)..]);
                    spliced
                }
            };
            match decode(&mutated) {
                Ok((message, used)) => {
                    assert!(used <= mutated.len(), "round {round} consumed past the end");
                    let again = encode(&message);
                    let (back, _) = decode(&again).expect("a decoded message re-encodes");
                    assert_eq!(encode(&back), again, "round {round}");
                    decoded += 1;
                }
                Err(_) => rejected += 1,
            }
        }
        assert!(
            decoded > 0 && rejected > 0,
            "{decoded} decoded, {rejected} rejected"
        );
    }

    #[test]
    fn back_to_back_frames_decode_in_sequence() {
        let mut stream = encode(&Message::ConnectRequest);
        stream.extend_from_slice(&encode(&sample()));
        let (first, used) = decode(&stream).unwrap();
        assert_eq!(first, Message::ConnectRequest);
        let (second, rest) = decode(&stream[used..]).unwrap();
        assert_eq!(second, sample());
        assert_eq!(used + rest, stream.len());
    }

    #[test]
    fn truncation_reports_how_much_is_needed() {
        let bytes = encode(&sample());
        assert_eq!(
            decode(&bytes[..3]),
            Err(NetError::Truncated { needed: 6, have: 3 })
        );
        assert_eq!(
            decode(&bytes[..bytes.len() - 1]),
            Err(NetError::Truncated {
                needed: bytes.len(),
                have: bytes.len() - 1,
            })
        );
    }

    #[test]
    fn version_and_length_guards_reject() {
        let mut bytes = encode(&Message::ConnectRequest);
        bytes[5] = 99; // version low byte
        assert_eq!(
            decode(&bytes),
            Err(NetError::UnsupportedVersion {
                version: 99,
                supported: PROTOCOL_VERSION,
            })
        );

        let huge = ((MAX_FRAME + 1) as u32).to_be_bytes();
        let mut oversized = huge.to_vec();
        oversized.extend_from_slice(&[0; 8]);
        assert_eq!(
            decode(&oversized),
            Err(NetError::FrameTooLarge {
                length: MAX_FRAME + 1,
                max: MAX_FRAME,
            })
        );

        let runt = 1u32.to_be_bytes();
        let mut short = runt.to_vec();
        short.extend_from_slice(&[0, 0]);
        assert!(matches!(decode(&short), Err(NetError::Malformed(_))));
    }

    #[test]
    fn garbage_payload_is_malformed_not_a_panic() {
        let payload = b"{not a message";
        let mut bytes = ((payload.len() + 2) as u32).to_be_bytes().to_vec();
        bytes.extend_from_slice(&PROTOCOL_VERSION.to_be_bytes());
        bytes.extend_from_slice(payload);
        assert!(matches!(decode(&bytes), Err(NetError::Malformed(_))));
    }

    #[test]
    fn errors_display_their_condition() {
        let cases: Vec<(NetError, &str)> = vec![
            (NetError::Truncated { needed: 6, have: 2 }, "truncated"),
            (NetError::FrameTooLarge { length: 9, max: 8 }, "exceeds"),
            (
                NetError::UnsupportedVersion {
                    version: 9,
                    supported: 1,
                },
                "version 9",
            ),
            (NetError::Malformed("x".into()), "malformed"),
            (
                NetError::InvalidTransition {
                    state: "Closed",
                    event: "close",
                },
                "Closed",
            ),
            (
                NetError::SessionTimeout {
                    peer: 3,
                    state: "Connecting",
                },
                "replica 3",
            ),
            (
                NetError::UnknownReplica {
                    replica: 7,
                    replicas: 2,
                },
                "replica 7",
            ),
            (
                NetError::ConvergeTimeout {
                    ticks: 10,
                    culprit: None,
                },
                "10 ticks",
            ),
            (
                NetError::ConvergeTimeout {
                    ticks: 10,
                    culprit: Some(ConvergeCulprit {
                        replica: 0,
                        peer: 1,
                        state: "Connecting",
                        resets: 4,
                    }),
                },
                "link 0 -> 1 stuck Connecting after 4 session resets",
            ),
        ];
        for (error, needle) in cases {
            let text = error.to_string();
            assert!(text.contains(needle), "{text:?} lacks {needle:?}");
        }
    }
}
