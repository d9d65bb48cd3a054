//! Error type for the migration framework.

use sgx_sim::SgxError;
use std::error::Error;
use std::fmt;

/// Errors surfaced by the Migration Library, the Migration Enclave, and
/// the untrusted hosts driving them.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MigError {
    /// An underlying simulated-SGX operation failed.
    Sgx(SgxError),
    /// The library was initialized from a blob whose freeze flag is set:
    /// this enclave incarnation has already been migrated away (§VI-B:
    /// "If this flag is active on initialization, the library will refuse
    /// to operate").
    Frozen,
    /// The persistent blob references monotonic counters that no longer
    /// exist — the signature of a fork attempt with stale state (§VII-A).
    StaleState,
    /// A bulk container is not the one its root names: returned with the
    /// persistent header, or relayed beside a migration message (an
    /// older, foreign or tampered container).
    BulkMismatch,
    /// The library has not completed initialization (`migration_init`).
    NotInitialized,
    /// The library is awaiting incoming migration data and cannot serve
    /// migratable operations yet.
    AwaitingMigration,
    /// No attested session with the local Migration Enclave exists.
    NoMeSession,
    /// An operation referenced an unknown library counter id.
    UnknownCounterId,
    /// The requested library counter id is already in use.
    CounterIdInUse,
    /// Adding the migration offset to the hardware counter would overflow
    /// (the §VI-B "checks to prevent an integer overflow due to the
    /// offset").
    EffectiveCounterOverflow,
    /// A migration is already in flight for this enclave.
    MigrationInProgress,
    /// The peer Migration Enclave failed authentication: bad credential,
    /// bad transcript signature, or wrong enclave identity.
    PeerAuthenticationFailed(&'static str),
    /// The migration policy denies this source/destination pairing.
    PolicyViolation(String),
    /// A protocol message arrived out of order or for an unknown session.
    Protocol(&'static str),
    /// A streamed state transfer violated the chunk protocol: wrong
    /// chunk index or length, a delta that does not apply, or
    /// inconsistent stream geometry.
    Transfer(&'static str),
    /// A session-layer state machine (`me::session::SenderFsm` /
    /// `me::session::ReceiverFsm`) was driven with an event its current
    /// state does not accept — e.g. announcing a stream that is already
    /// streaming, or resuming a migration that was never dispatched.
    InvalidTransition {
        /// The state the machine was in.
        state: &'static str,
        /// The event that does not apply in that state.
        event: &'static str,
    },
    /// A stream frame or acknowledgement referenced a transfer nonce
    /// that no active stream owns (stale, already completed, or forged).
    StaleNonce,
    /// A dirty-page delta referenced a base generation this enclave no
    /// longer retains (evicted from the byte-budgeted generation cache).
    BaseEvicted,
    /// The untrusted host was asked to do something its status forbids.
    HostState(&'static str),
    /// An attested ME-to-ME channel this operation requires is not open
    /// (never established, or torn down by a session reset).
    ChannelMissing {
        /// The missing peer's role from this enclave's point of view.
        peer: ChannelPeer,
    },
    /// A session-layer invariant that should hold by construction was
    /// violated at runtime. Converted panic sites from the enclave-panic
    /// triage land here: instead of aborting the enclave on corrupted
    /// internal state, the operation fails closed naming the invariant.
    SessionInvariant(&'static str),
}

/// Which side of an attested ME-to-ME channel was expected to exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelPeer {
    /// The migration source (inbound direction).
    Source,
    /// The migration destination (outbound direction).
    Destination,
}

impl fmt::Display for ChannelPeer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChannelPeer::Source => write!(f, "source"),
            ChannelPeer::Destination => write!(f, "destination"),
        }
    }
}

impl fmt::Display for MigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MigError::Sgx(e) => write!(f, "sgx: {e}"),
            MigError::Frozen => write!(f, "library state is frozen (already migrated)"),
            MigError::StaleState => {
                write!(
                    f,
                    "stale persistent state: referenced counters no longer exist"
                )
            }
            MigError::BulkMismatch => {
                write!(f, "bulk container does not match its root")
            }
            MigError::NotInitialized => write!(f, "migration library not initialized"),
            MigError::AwaitingMigration => {
                write!(f, "library is awaiting incoming migration data")
            }
            MigError::NoMeSession => {
                write!(f, "no attested session with the local migration enclave")
            }
            MigError::UnknownCounterId => write!(f, "unknown migratable counter id"),
            MigError::CounterIdInUse => write!(f, "migratable counter id already in use"),
            MigError::EffectiveCounterOverflow => {
                write!(f, "effective counter value would overflow")
            }
            MigError::MigrationInProgress => write!(f, "a migration is already in progress"),
            MigError::PeerAuthenticationFailed(what) => {
                write!(f, "peer migration enclave authentication failed: {what}")
            }
            MigError::PolicyViolation(why) => write!(f, "migration policy violation: {why}"),
            MigError::Protocol(what) => write!(f, "protocol error: {what}"),
            MigError::Transfer(what) => write!(f, "state-transfer error: {what}"),
            MigError::InvalidTransition { state, event } => {
                write!(f, "invalid session transition: {event} in state {state}")
            }
            MigError::StaleNonce => {
                write!(f, "stale transfer nonce: no active stream owns it")
            }
            MigError::BaseEvicted => {
                write!(f, "delta base generation no longer retained (evicted)")
            }
            MigError::HostState(what) => write!(f, "host state error: {what}"),
            MigError::ChannelMissing { peer } => {
                write!(f, "no attested channel to the migration {peer}")
            }
            MigError::SessionInvariant(what) => {
                write!(f, "session invariant violated: {what}")
            }
        }
    }
}

impl Error for MigError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MigError::Sgx(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SgxError> for MigError {
    fn from(e: SgxError) -> Self {
        MigError::Sgx(e)
    }
}

impl From<mig_crypto::CryptoError> for MigError {
    fn from(e: mig_crypto::CryptoError) -> Self {
        MigError::Sgx(e.into())
    }
}

/// Converts a `MigError` into the ECALL ABI error (`SgxError::Enclave`),
/// preserving the message. Needed because enclave code speaks `SgxError`
/// across the boundary.
impl From<MigError> for SgxError {
    fn from(e: MigError) -> Self {
        match e {
            MigError::Sgx(inner) => inner,
            other => SgxError::Enclave(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_nonempty() {
        let all = [
            MigError::Sgx(SgxError::MacMismatch),
            MigError::Frozen,
            MigError::StaleState,
            MigError::BulkMismatch,
            MigError::NotInitialized,
            MigError::AwaitingMigration,
            MigError::NoMeSession,
            MigError::UnknownCounterId,
            MigError::CounterIdInUse,
            MigError::EffectiveCounterOverflow,
            MigError::MigrationInProgress,
            MigError::PeerAuthenticationFailed("sig"),
            MigError::PolicyViolation("other dc".into()),
            MigError::Protocol("bad msg"),
            MigError::Transfer("chain broken"),
            MigError::InvalidTransition {
                state: "Idle",
                event: "on_ack",
            },
            MigError::StaleNonce,
            MigError::BaseEvicted,
            MigError::HostState("not ready"),
            MigError::ChannelMissing {
                peer: ChannelPeer::Source,
            },
            MigError::ChannelMissing {
                peer: ChannelPeer::Destination,
            },
            MigError::SessionInvariant("stream map entry vanished"),
        ];
        for e in all {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn sgx_error_round_trips_through_abi() {
        let e = MigError::Sgx(SgxError::CounterNotFound);
        let abi: SgxError = e.into();
        assert_eq!(abi, SgxError::CounterNotFound);

        let e = MigError::Frozen;
        let abi: SgxError = e.into();
        assert!(matches!(abi, SgxError::Enclave(msg) if msg.contains("frozen")));
    }

    #[test]
    fn source_chain_exposed() {
        let e = MigError::Sgx(SgxError::MacMismatch);
        assert!(e.source().is_some());
        assert!(MigError::Frozen.source().is_none());
    }
}
