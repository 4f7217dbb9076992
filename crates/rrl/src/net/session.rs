//! The client-session finite state machine.
//!
//! Each replica runs one client [`Session`] per peer it syncs *to*
//! (the responder side is stateless — see [`crate::net::replica`]).
//! The FSM follows the framed-protocol idiom of PPP's LCP/IPCP control
//! machines: explicit states, an explicit message per transition, and
//! timeouts that retransmit a bounded number of times before giving up.
//!
//! ```text
//!          connect()            ConnectAccept          NegotiateAccept
//! Closed ────────────► Connecting ─────────► Negotiating ─────────► Established
//!    ▲                     │ timeout ×N           │ timeout ×N
//!    └─────────────────────┴──────────────────────┘
//! ```
//!
//! An `Established` session carries digest offers until either endpoint
//! crashes; the replica layer then replaces it with a fresh `Closed` one
//! and reconnects on a later round. There is no close handshake: the
//! responder holds no per-session state to release.
//!
//! The one *caller-driven* transition, [`Session::connect`], returns
//! `Result<_, NetError>` and refuses every state but `Closed`. Peer
//! messages are matched against the state: the expected answer advances
//! the FSM; a duplicate or stale message (the transport redelivers and
//! reorders by design) is tolerated and reported as
//! [`SessionEvent::Ignored`] rather than an error; an explicit protocol
//! refusal ([`Message::NegotiateReject`]) surfaces as
//! [`NetError::UnsupportedVersion`].
//!
//! Time is virtual: the caller passes the transport tick into every
//! operation, and [`Session::poll`] answers "retransmit this", "keep
//! waiting" or "give up" — a handshake timeout closes the session and
//! the replica layer reconnects on the next sync round.

use super::frame::{Message, NetError, PROTOCOL_VERSION};

/// The client FSM states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SessionState {
    /// No session. The only state a connect may start from.
    Closed,
    /// `ConnectRequest` sent, waiting for `ConnectAccept`.
    Connecting,
    /// `NegotiateRequest` sent, waiting for `NegotiateAccept`.
    Negotiating,
    /// Handshake complete: digest offers may flow. The state every
    /// live pair of a quiesced replica set is in.
    Established,
}

impl SessionState {
    /// The state's name, for errors and reports.
    pub fn name(self) -> &'static str {
        match self {
            SessionState::Closed => "Closed",
            SessionState::Connecting => "Connecting",
            SessionState::Negotiating => "Negotiating",
            SessionState::Established => "Established",
        }
    }
}

/// Retransmission policy, in virtual ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionConfig {
    /// Ticks to wait for the expected answer before retransmitting.
    pub timeout_ticks: u64,
    /// Retransmissions before the session gives up on the current
    /// exchange.
    pub max_retransmits: u32,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            timeout_ticks: 8,
            max_retransmits: 5,
        }
    }
}

/// What a peer message did to the session.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionEvent {
    /// The message advanced the FSM and `reply` must be sent.
    Advanced {
        /// The message to send to the peer.
        reply: Message,
    },
    /// The handshake completed: the session is `Established`.
    Established,
    /// A duplicate or stale message; nothing changed.
    Ignored,
}

/// What [`Session::poll`] decided at the current tick.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionPoll {
    /// Nothing due: keep waiting (or nothing pending at all).
    Idle,
    /// The pending message timed out within budget — resend this.
    Retransmit(Message),
    /// The retransmit budget is exhausted; the session closed itself.
    /// The peer is unreachable for now: reconnect on a later round.
    TimedOut {
        /// The state the session gave up in.
        state: SessionState,
    },
}

/// One directed client session to a peer replica.
#[derive(Debug, Clone)]
pub struct Session {
    peer: u32,
    state: SessionState,
    config: SessionConfig,
    pending: Option<Message>,
    deadline: Option<u64>,
    retransmits_left: u32,
    total_retransmits: u64,
    resets: u64,
}

impl Session {
    /// A closed session to `peer`.
    pub fn new(peer: u32, config: SessionConfig) -> Self {
        Self {
            peer,
            state: SessionState::Closed,
            config,
            pending: None,
            deadline: None,
            retransmits_left: 0,
            total_retransmits: 0,
            resets: 0,
        }
    }

    /// The peer this session talks to.
    pub fn peer(&self) -> u32 {
        self.peer
    }

    /// The current state.
    pub fn state(&self) -> SessionState {
        self.state
    }

    /// Retransmissions performed over the session's lifetime.
    pub fn total_retransmits(&self) -> u64 {
        self.total_retransmits
    }

    /// Times the session gave up and closed itself (handshake timeouts).
    pub fn resets(&self) -> u64 {
        self.resets
    }

    fn arm(&mut self, now: u64, message: Message) -> Message {
        self.pending = Some(message.clone());
        self.deadline = Some(now + self.config.timeout_ticks);
        self.retransmits_left = self.config.max_retransmits;
        message
    }

    fn disarm(&mut self) {
        self.pending = None;
        self.deadline = None;
    }

    /// Start the handshake. Only valid from `Closed`; returns the
    /// `ConnectRequest` to send.
    pub fn connect(&mut self, now: u64) -> Result<Message, NetError> {
        if self.state != SessionState::Closed {
            return Err(NetError::InvalidTransition {
                state: self.state.name(),
                event: "connect",
            });
        }
        self.state = SessionState::Connecting;
        Ok(self.arm(now, Message::ConnectRequest))
    }

    /// Feed a peer message into the FSM at virtual tick `now`.
    ///
    /// The expected answer for the current state advances the machine;
    /// anything else — duplicates from the transport, answers to an
    /// exchange the session already abandoned — is [`SessionEvent::Ignored`].
    /// A `NegotiateReject` is the one message that is an *error*: the
    /// peer explicitly refused the protocol version, so retrying cannot
    /// help.
    pub fn on_message(&mut self, message: &Message, now: u64) -> Result<SessionEvent, NetError> {
        match (self.state, message) {
            (SessionState::Connecting, Message::ConnectAccept) => {
                self.state = SessionState::Negotiating;
                let reply = self.arm(
                    now,
                    Message::NegotiateRequest {
                        version: PROTOCOL_VERSION,
                    },
                );
                Ok(SessionEvent::Advanced { reply })
            }
            (SessionState::Negotiating, Message::NegotiateAccept { version }) => {
                if *version != PROTOCOL_VERSION {
                    // An accept for a version we never proposed is a
                    // protocol violation, not a negotiation outcome.
                    return Err(NetError::Malformed(format!(
                        "NegotiateAccept for version {version}, proposed {PROTOCOL_VERSION}"
                    )));
                }
                self.state = SessionState::Established;
                self.disarm();
                Ok(SessionEvent::Established)
            }
            (SessionState::Negotiating, Message::NegotiateReject { supported }) => {
                self.state = SessionState::Closed;
                self.disarm();
                Err(NetError::UnsupportedVersion {
                    version: PROTOCOL_VERSION,
                    supported: *supported,
                })
            }
            _ => Ok(SessionEvent::Ignored),
        }
    }

    /// Check the retransmission timer at virtual tick `now`.
    pub fn poll(&mut self, now: u64) -> SessionPoll {
        let Some(deadline) = self.deadline else {
            return SessionPoll::Idle;
        };
        if now < deadline {
            return SessionPoll::Idle;
        }
        if self.retransmits_left > 0 {
            self.retransmits_left -= 1;
            self.total_retransmits += 1;
            self.deadline = Some(now + self.config.timeout_ticks);
            return SessionPoll::Retransmit(
                self.pending.clone().expect("armed deadline has a message"),
            );
        }
        // Budget exhausted: the session gives up — a reset the replica
        // layer retries on a later round.
        let state = self.state;
        self.resets += 1;
        self.state = SessionState::Closed;
        self.disarm();
        SessionPoll::TimedOut { state }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> SessionConfig {
        SessionConfig {
            timeout_ticks: 2,
            max_retransmits: 1,
        }
    }

    fn established() -> Session {
        let mut s = Session::new(1, quick());
        s.connect(0).unwrap();
        s.on_message(&Message::ConnectAccept, 0).unwrap();
        s.on_message(
            &Message::NegotiateAccept {
                version: PROTOCOL_VERSION,
            },
            0,
        )
        .unwrap();
        s
    }

    #[test]
    fn happy_path_walks_every_state() {
        let mut s = Session::new(1, SessionConfig::default());
        assert_eq!(s.state(), SessionState::Closed);

        assert_eq!(s.connect(0).unwrap(), Message::ConnectRequest);
        assert_eq!(s.state(), SessionState::Connecting);

        let event = s.on_message(&Message::ConnectAccept, 1).unwrap();
        assert_eq!(
            event,
            SessionEvent::Advanced {
                reply: Message::NegotiateRequest {
                    version: PROTOCOL_VERSION,
                },
            }
        );
        assert_eq!(s.state(), SessionState::Negotiating);

        let event = s
            .on_message(
                &Message::NegotiateAccept {
                    version: PROTOCOL_VERSION,
                },
                2,
            )
            .unwrap();
        assert_eq!(event, SessionEvent::Established);
        assert_eq!(s.state(), SessionState::Established);
        assert_eq!(s.total_retransmits(), 0);
        assert_eq!(s.resets(), 0);
    }

    #[test]
    fn invalid_caller_transitions_are_errors() {
        let mut s = Session::new(1, SessionConfig::default());
        s.connect(0).unwrap();
        assert!(matches!(
            s.connect(1),
            Err(NetError::InvalidTransition {
                state: "Connecting",
                event: "connect",
            })
        ));
        assert!(matches!(
            established().connect(1),
            Err(NetError::InvalidTransition {
                state: "Established",
                event: "connect",
            })
        ));
    }

    #[test]
    fn duplicates_and_stale_answers_are_ignored() {
        let mut s = Session::new(1, SessionConfig::default());
        s.connect(0).unwrap();
        s.on_message(&Message::ConnectAccept, 1).unwrap();
        // The transport redelivers the ConnectAccept: no state change.
        assert_eq!(
            s.on_message(&Message::ConnectAccept, 1).unwrap(),
            SessionEvent::Ignored
        );
        assert_eq!(s.state(), SessionState::Negotiating);
        // Handshake answers redelivered after establishment are ignored
        // too, including a reject for a negotiation that already ended.
        let mut s = established();
        for frame in [
            Message::ConnectAccept,
            Message::NegotiateAccept {
                version: PROTOCOL_VERSION,
            },
            Message::NegotiateReject { supported: 0 },
        ] {
            assert_eq!(s.on_message(&frame, 2).unwrap(), SessionEvent::Ignored);
            assert_eq!(s.state(), SessionState::Established);
        }
    }

    #[test]
    fn negotiate_reject_surfaces_the_supported_version() {
        let mut s = Session::new(1, SessionConfig::default());
        s.connect(0).unwrap();
        s.on_message(&Message::ConnectAccept, 1).unwrap();
        let err = s
            .on_message(&Message::NegotiateReject { supported: 0 }, 2)
            .unwrap_err();
        assert_eq!(
            err,
            NetError::UnsupportedVersion {
                version: PROTOCOL_VERSION,
                supported: 0,
            }
        );
        assert_eq!(s.state(), SessionState::Closed);
    }

    #[test]
    fn mismatched_accept_is_malformed() {
        let mut s = Session::new(1, SessionConfig::default());
        s.connect(0).unwrap();
        s.on_message(&Message::ConnectAccept, 1).unwrap();
        assert!(matches!(
            s.on_message(&Message::NegotiateAccept { version: 9 }, 2),
            Err(NetError::Malformed(_))
        ));
    }

    #[test]
    fn timeout_retransmits_then_gives_up() {
        let mut s = Session::new(1, quick());
        s.connect(0).unwrap();
        assert_eq!(s.poll(1), SessionPoll::Idle, "deadline not reached");
        assert_eq!(
            s.poll(2),
            SessionPoll::Retransmit(Message::ConnectRequest),
            "first deadline retransmits"
        );
        assert_eq!(s.total_retransmits(), 1);
        assert_eq!(s.poll(3), SessionPoll::Idle, "timer re-armed");
        assert_eq!(
            s.poll(4),
            SessionPoll::TimedOut {
                state: SessionState::Connecting,
            }
        );
        assert_eq!(s.state(), SessionState::Closed, "gave up cleanly");
        assert_eq!(s.resets(), 1, "handshake timeout counts as a reset");
        // A fresh connect is legal again.
        assert!(s.connect(5).is_ok());
    }

    /// After a session reset — a handshake timeout, or a crash that
    /// replaced the session with a fresh one — no flood of duplicated,
    /// delayed or stale answers to the abandoned exchange may move the
    /// FSM: `Closed` is absorbing until the caller reconnects, and the
    /// timer stays disarmed.
    #[test]
    fn post_reset_floods_leave_the_session_closed() {
        // Every answer the replica layer ever feeds a client session.
        let frames = [
            Message::ConnectAccept,
            Message::NegotiateAccept {
                version: PROTOCOL_VERSION,
            },
            Message::NegotiateReject { supported: 0 },
        ];
        for seed in 0..128u64 {
            let mut s = if seed % 2 == 0 {
                // Negotiation timed out: the answers were only late.
                let mut s = Session::new(1, quick());
                s.connect(0).unwrap();
                s.on_message(&Message::ConnectAccept, 0).unwrap();
                assert!(matches!(s.poll(8), SessionPoll::Retransmit(_)));
                assert!(matches!(s.poll(16), SessionPoll::TimedOut { .. }));
                assert_eq!(s.resets(), 1);
                s
            } else {
                // The peer crashed: the replica replaced the established
                // session with a fresh closed one.
                Session::new(1, quick())
            };

            // A seeded splitmix64 walk: duplicates and arbitrary
            // interleavings of every frame kind, delivered post-reset.
            let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            for step in 0..32u64 {
                x ^= x >> 30;
                x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x ^= x >> 27;
                let frame = &frames[(x % frames.len() as u64) as usize];
                let event = s
                    .on_message(frame, 20 + step)
                    .expect("post-reset frames never error the FSM");
                assert_eq!(event, SessionEvent::Ignored, "{frame:?}");
                assert_eq!(s.state(), SessionState::Closed, "{frame:?}");
            }
            assert_eq!(s.poll(1_000), SessionPoll::Idle);
            assert!(s.connect(1_001).is_ok(), "a reconnect is still legal");
        }
    }

    #[test]
    fn established_session_has_no_timer() {
        assert_eq!(established().poll(1_000), SessionPoll::Idle);
    }
}
