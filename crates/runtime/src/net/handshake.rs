//! The server side of the connection handshake, written once as a
//! sans-IO state machine: one frame goes in, frames to send and an
//! outcome come out. The worker daemon drives it over a blocking
//! stream under [`super::HANDSHAKE_TIMEOUT`]; the serve reactor drives
//! it from its incremental frame reader. The version check, the nonce,
//! the constant-time proof compare and the `auth_failures` count each
//! live here and nowhere else.
//!
//! ```text
//! AwaitHello ──HELLO, no PSK──▶ Accept [HELLO_ACK]
//!     │
//!     └──HELLO, PSK──▶ Continue [AUTH_CHALLENGE] ──▶ AwaitAuth
//!                                                       │
//!                  AUTH_RESPONSE, proof ok ──▶ Accept [AUTH_OK, HELLO_ACK]
//!
//! anything else, in either state ──▶ Reject(kind, message)
//! ```

use crate::auth::{ct_eq, fresh_nonce, Psk, NONCE_LEN};
use crate::wire::{
    self, AuthChallenge, AuthOk, AuthResponse, ErrorKind, Hello, HelloAck, PROTOCOL_VERSION,
};

/// Whom the server side of a handshake admits, and what it tells them.
pub(super) struct AcceptPolicy<'a> {
    pub(super) name: &'a str,
    pub(super) capacity: u32,
    pub(super) psk: Option<&'a Psk>,
}

/// One frame to send: `(tag, payload)`.
pub(super) type Frame = (u8, Vec<u8>);

/// What the driver does after feeding one frame to the core.
#[derive(Debug)]
pub(super) enum Step {
    /// Send the frame, then feed the peer's next frame.
    Continue(Frame),
    /// Send the frames, the last of which is `HELLO_ACK`: the
    /// connection is admitted.
    Accept(Vec<Frame>),
    /// Send this typed error, then close.
    Reject(ErrorKind, String),
}

/// Where the server side of one connection's handshake stands.
#[derive(Debug)]
pub(super) enum ServerHandshake {
    /// Waiting for the client's `HELLO`.
    AwaitHello,
    /// Challenge sent; waiting for the client's proof.
    AwaitAuth { server_nonce: [u8; NONCE_LEN] },
}

impl ServerHandshake {
    /// Feeds one frame from the peer.
    pub(super) fn step(&mut self, policy: &AcceptPolicy<'_>, tag: u8, payload: &[u8]) -> Step {
        match *self {
            ServerHandshake::AwaitHello => {
                if tag != wire::tag::HELLO {
                    return Step::Reject(
                        ErrorKind::Malformed,
                        format!("expected hello, got frame tag {tag:#04x}"),
                    );
                }
                let hello = match Hello::decode(payload) {
                    Ok(hello) => hello,
                    Err(e) => return Step::Reject(ErrorKind::Malformed, format!("bad hello: {e}")),
                };
                if hello.version != PROTOCOL_VERSION {
                    return Step::Reject(
                        ErrorKind::Version,
                        format!(
                            "server speaks v{PROTOCOL_VERSION}, client offered v{}",
                            hello.version
                        ),
                    );
                }
                if policy.psk.is_none() {
                    return Step::Accept(vec![hello_ack(policy)]);
                }
                let server_nonce = fresh_nonce();
                *self = ServerHandshake::AwaitAuth { server_nonce };
                let challenge = AuthChallenge {
                    server_nonce: server_nonce.to_vec(),
                };
                Step::Continue((wire::tag::AUTH_CHALLENGE, challenge.encode()))
            }
            ServerHandshake::AwaitAuth { server_nonce } => {
                let Some(psk) = policy.psk else {
                    return Step::Reject(
                        ErrorKind::AuthFailed,
                        "no pre-shared key configured".to_owned(),
                    );
                };
                if tag != wire::tag::AUTH_RESPONSE {
                    return Step::Reject(
                        ErrorKind::AuthFailed,
                        format!("expected auth response, got frame tag {tag:#04x}"),
                    );
                }
                let response = match AuthResponse::decode(payload) {
                    Ok(response) => response,
                    Err(e) => {
                        return Step::Reject(
                            ErrorKind::Malformed,
                            format!("bad auth response: {e}"),
                        )
                    }
                };
                let expected = psk.client_proof(&server_nonce, &response.client_nonce);
                if !ct_eq(&expected, &response.proof) {
                    crate::metrics::rt().auth_failures.inc();
                    // Wrong key, or a proof bound to some other
                    // connection's nonce (a replay): indistinguishable
                    // by design, and both are refused the same way.
                    return Step::Reject(
                        ErrorKind::AuthFailed,
                        "pre-shared-key proof mismatch".to_owned(),
                    );
                }
                let ok = AuthOk {
                    proof: psk
                        .server_proof(&server_nonce, &response.client_nonce)
                        .to_vec(),
                };
                Step::Accept(vec![(wire::tag::AUTH_OK, ok.encode()), hello_ack(policy)])
            }
        }
    }
}

fn hello_ack(policy: &AcceptPolicy<'_>) -> Frame {
    let ack = HelloAck {
        version: PROTOCOL_VERSION,
        capacity: policy.capacity,
        name: policy.name.to_owned(),
    };
    (wire::tag::HELLO_ACK, ack.encode())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn psk() -> Psk {
        Psk::new(b"handshake-core".to_vec()).unwrap()
    }

    fn policy(psk: Option<&Psk>) -> AcceptPolicy<'_> {
        AcceptPolicy {
            name: "core",
            capacity: 3,
            psk,
        }
    }

    fn hello() -> Vec<u8> {
        Hello {
            version: PROTOCOL_VERSION,
        }
        .encode()
    }

    /// A core in `AwaitAuth`, plus a valid response to its challenge.
    fn awaiting_auth(key: &Psk) -> (ServerHandshake, Vec<u8>) {
        let mut core = ServerHandshake::AwaitHello;
        let Step::Continue((tag, challenge)) =
            core.step(&policy(Some(key)), wire::tag::HELLO, &hello())
        else {
            panic!("a keyed server challenges");
        };
        assert_eq!(tag, wire::tag::AUTH_CHALLENGE);
        let challenge = AuthChallenge::decode(&challenge).unwrap();
        let client_nonce = [7u8; NONCE_LEN];
        let response = AuthResponse {
            client_nonce: client_nonce.to_vec(),
            proof: key
                .client_proof(&challenge.server_nonce, &client_nonce)
                .to_vec(),
        };
        (core, response.encode())
    }

    fn rejected(step: Step) -> Option<ErrorKind> {
        match step {
            Step::Reject(kind, _) => Some(kind),
            _ => None,
        }
    }

    proptest! {
        /// Arbitrary frames in either state are rejected with a typed
        /// kind (a random payload is never a valid `HELLO` or proof).
        #[test]
        fn arbitrary_frames_are_rejected(
            tag in any::<u8>(),
            payload in prop::collection::vec(any::<u8>(), 0..96),
        ) {
            let key = psk();
            for keyed in [None, Some(&key)] {
                let step = ServerHandshake::AwaitHello.step(&policy(keyed), tag, &payload);
                prop_assert!(rejected(step).is_some());
            }
            let (mut core, _) = awaiting_auth(&key);
            prop_assert!(rejected(core.step(&policy(Some(&key)), tag, &payload)).is_some());
        }

        /// Every strict prefix and every single-byte mutation of a valid
        /// `HELLO` or `AUTH_RESPONSE`, and the valid payload under any
        /// other tag, is rejected with a typed kind.
        #[test]
        fn truncated_mutated_and_mistagged_frames_are_rejected(
            flip in 1u8..=255,
            wrong_tag in any::<u8>(),
        ) {
            let key = psk();
            let (mut core, response) = awaiting_auth(&key);
            let accepted = core.step(&policy(Some(&key)), wire::tag::AUTH_RESPONSE, &response);
            prop_assert!(matches!(accepted, Step::Accept(frames) if frames.len() == 2));
            for (right_tag, keyed) in [
                (wire::tag::HELLO, None),
                (wire::tag::HELLO, Some(&key)),
                (wire::tag::AUTH_RESPONSE, Some(&key)),
            ] {
                // A core in the state that expects `right_tag`, and the
                // valid payload for that very core (its own nonce).
                let fresh = || {
                    if right_tag == wire::tag::HELLO {
                        (ServerHandshake::AwaitHello, hello())
                    } else {
                        awaiting_auth(&key)
                    }
                };
                let policy = policy(keyed);
                let len = fresh().1.len();
                for case in 0..=2 * len {
                    let (mut core, mut bytes) = fresh();
                    let mut tag = right_tag;
                    if case < len {
                        bytes.truncate(case);
                    } else if case < 2 * len {
                        bytes[case - len] ^= flip;
                    } else if wrong_tag != right_tag {
                        tag = wrong_tag;
                    } else {
                        continue;
                    }
                    let kind = rejected(core.step(&policy, tag, &bytes));
                    prop_assert!(
                        matches!(
                            kind,
                            Some(ErrorKind::Malformed | ErrorKind::Version | ErrorKind::AuthFailed)
                        ),
                        "case {case}, tag {tag:#04x}: {kind:?}"
                    );
                }
            }
        }
    }
}
