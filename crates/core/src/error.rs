//! Error and abort types for the safe extension framework.

use ebpf::maps::MapError;

/// A recoverable error returned to extension code by the kernel crate.
///
/// Unlike the baseline, where a bad access *faults the kernel*, every
/// kernel-crate operation is checked and returns `ExtError` — the
/// extension decides how to proceed. Termination conditions (fuel,
/// deadline, watchdog) also arrive through this type so that `?`
/// propagation unwinds the extension promptly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExtError {
    /// An access outside the checked bounds of a packet/map/pool object.
    OutOfBounds {
        /// Attempted offset.
        offset: u64,
        /// Attempted length.
        len: u64,
        /// Size of the object.
        size: u64,
    },
    /// The extension has no packet context.
    NoPacket,
    /// A map operation failed.
    Map(MapError),
    /// Lookup missed / object not found.
    NotFound,
    /// Invalid argument to a kernel-crate API.
    Invalid(&'static str),
    /// The fuel budget is exhausted (watchdog).
    FuelExhausted,
    /// The virtual-time deadline passed (watchdog).
    DeadlineExceeded,
    /// The watchdog demanded termination asynchronously.
    Terminated,
    /// The stack-depth guard tripped.
    StackGuard,
    /// The scratch memory pool is exhausted.
    PoolExhausted,
    /// The fixed-capacity cleanup registry is full; the operation that
    /// would acquire another resource is refused.
    CleanupOverflow,
}

impl std::fmt::Display for ExtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExtError::OutOfBounds { offset, len, size } => {
                write!(
                    f,
                    "access [{offset}, +{len}) out of bounds of {size}-byte object"
                )
            }
            ExtError::NoPacket => write!(f, "no packet context"),
            ExtError::Map(e) => write!(f, "map error: {e}"),
            ExtError::NotFound => write!(f, "not found"),
            ExtError::Invalid(what) => write!(f, "invalid argument: {what}"),
            ExtError::FuelExhausted => write!(f, "fuel budget exhausted"),
            ExtError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ExtError::Terminated => write!(f, "terminated by watchdog"),
            ExtError::StackGuard => write!(f, "stack-depth guard tripped"),
            ExtError::PoolExhausted => write!(f, "memory pool exhausted"),
            ExtError::CleanupOverflow => write!(f, "cleanup registry full"),
        }
    }
}

impl std::error::Error for ExtError {}

impl From<MapError> for ExtError {
    fn from(e: MapError) -> Self {
        ExtError::Map(e)
    }
}

impl ExtError {
    /// Whether this error is a termination demand (the run must end).
    pub fn is_termination(&self) -> bool {
        matches!(
            self,
            ExtError::FuelExhausted
                | ExtError::DeadlineExceeded
                | ExtError::Terminated
                | ExtError::StackGuard
        )
    }
}

/// How an extension run ended abnormally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Abort {
    /// The fuel watchdog fired.
    WatchdogFuel,
    /// The virtual-time deadline watchdog fired.
    WatchdogDeadline,
    /// An asynchronous termination demand (host watchdog).
    WatchdogAsync,
    /// The stack guard fired.
    StackGuard,
    /// The extension panicked; the message is captured.
    Panic(String),
    /// The extension returned an unhandled error.
    Error(ExtError),
}

impl std::fmt::Display for Abort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Abort::WatchdogFuel => write!(f, "terminated: fuel exhausted"),
            Abort::WatchdogDeadline => write!(f, "terminated: deadline exceeded"),
            Abort::WatchdogAsync => write!(f, "terminated: async watchdog"),
            Abort::StackGuard => write!(f, "terminated: stack guard"),
            Abort::Panic(msg) => write!(f, "terminated: panic: {msg}"),
            Abort::Error(e) => write!(f, "failed: {e}"),
        }
    }
}

impl Abort {
    /// Whether the run was killed: a watchdog, the stack guard or a panic
    /// ended it. A kill counts toward the control plane's quarantine; an
    /// unhandled error does not.
    pub fn is_kill(&self) -> bool {
        matches!(
            self,
            Abort::WatchdogFuel
                | Abort::WatchdogDeadline
                | Abort::WatchdogAsync
                | Abort::StackGuard
                | Abort::Panic(_)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn termination_classification() {
        assert!(ExtError::FuelExhausted.is_termination());
        assert!(ExtError::Terminated.is_termination());
        assert!(ExtError::StackGuard.is_termination());
        assert!(!ExtError::NotFound.is_termination());
        assert!(!ExtError::NoPacket.is_termination());
    }

    #[test]
    fn every_abort_is_classified_as_a_kill_or_not() {
        // No wildcard arm: a new variant does not compile here until it
        // is classified.
        let kill = |abort: &Abort| match abort {
            Abort::WatchdogFuel
            | Abort::WatchdogDeadline
            | Abort::WatchdogAsync
            | Abort::StackGuard
            | Abort::Panic(_) => true,
            Abort::Error(_) => false,
        };
        let all = [
            Abort::WatchdogFuel,
            Abort::WatchdogDeadline,
            Abort::WatchdogAsync,
            Abort::StackGuard,
            Abort::Panic("boom".into()),
            Abort::Error(ExtError::NotFound),
        ];
        for abort in &all {
            assert_eq!(abort.is_kill(), kill(abort), "{abort}");
        }
    }

    #[test]
    fn display_is_informative() {
        let e = ExtError::OutOfBounds {
            offset: 10,
            len: 4,
            size: 12,
        };
        assert!(e.to_string().contains("10"));
        assert!(Abort::Panic("boom".into()).to_string().contains("boom"));
    }
}
