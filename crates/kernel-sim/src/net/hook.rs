//! XDP-style RX hook point: verdict codes and per-action counters.

use std::cell::Cell;

/// Verdict returned by an XDP-style program, using the Linux action codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XdpAction {
    /// Program errored; treated as a drop with an error counter bump.
    Aborted,
    /// Drop the frame.
    Drop,
    /// Pass the frame up the (simulated) stack.
    Pass,
    /// Transmit the (possibly rewritten) frame back out the same device.
    Tx,
    /// Redirect the frame to another device or CPU.
    Redirect,
}

impl XdpAction {
    /// The Linux `enum xdp_action` numeric value.
    pub fn code(self) -> u64 {
        match self {
            XdpAction::Aborted => 0,
            XdpAction::Drop => 1,
            XdpAction::Pass => 2,
            XdpAction::Tx => 3,
            XdpAction::Redirect => 4,
        }
    }

    /// Decodes a program return value; out-of-range values map to
    /// `Aborted`, as the kernel treats unknown XDP return codes.
    pub fn from_code(code: u64) -> XdpAction {
        match code {
            1 => XdpAction::Drop,
            2 => XdpAction::Pass,
            3 => XdpAction::Tx,
            4 => XdpAction::Redirect,
            _ => XdpAction::Aborted,
        }
    }

    /// Short lowercase name, used in audit details and reports.
    pub fn name(self) -> &'static str {
        match self {
            XdpAction::Aborted => "aborted",
            XdpAction::Drop => "drop",
            XdpAction::Pass => "pass",
            XdpAction::Tx => "tx",
            XdpAction::Redirect => "redirect",
        }
    }
}

/// Per-action counters for an RX hook, owned by one kernel.
#[derive(Debug, Default)]
pub struct RxStats {
    aborted: Cell<u64>,
    drop: Cell<u64>,
    pass: Cell<u64>,
    tx: Cell<u64>,
    redirect: Cell<u64>,
}

/// Point-in-time copy of [`RxStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RxSnapshot {
    /// Frames whose program errored.
    pub aborted: u64,
    /// Frames dropped.
    pub drop: u64,
    /// Frames passed up the stack.
    pub pass: u64,
    /// Frames transmitted back out.
    pub tx: u64,
    /// Frames redirected.
    pub redirect: u64,
}

impl RxSnapshot {
    /// Total frames seen by the hook.
    pub fn total(&self) -> u64 {
        self.aborted + self.drop + self.pass + self.tx + self.redirect
    }
}

impl RxStats {
    /// Records one verdict.
    pub fn record(&self, action: XdpAction) {
        let counter = match action {
            XdpAction::Aborted => &self.aborted,
            XdpAction::Drop => &self.drop,
            XdpAction::Pass => &self.pass,
            XdpAction::Tx => &self.tx,
            XdpAction::Redirect => &self.redirect,
        };
        counter.set(counter.get().wrapping_add(1));
    }

    /// Returns a snapshot for reporting.
    pub fn snapshot(&self) -> RxSnapshot {
        RxSnapshot {
            aborted: self.aborted.get(),
            drop: self.drop.get(),
            pass: self.pass.get(),
            tx: self.tx.get(),
            redirect: self.redirect.get(),
        }
    }

    /// Zeroes all counters.
    pub fn clear(&self) {
        self.aborted.set(0);
        self.drop.set(0);
        self.pass.set(0);
        self.tx.set(0);
        self.redirect.set(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip() {
        for action in [
            XdpAction::Aborted,
            XdpAction::Drop,
            XdpAction::Pass,
            XdpAction::Tx,
            XdpAction::Redirect,
        ] {
            assert_eq!(XdpAction::from_code(action.code()), action);
        }
        assert_eq!(XdpAction::from_code(99), XdpAction::Aborted);
    }

    #[test]
    fn stats_count_per_action() {
        let stats = RxStats::default();
        stats.record(XdpAction::Pass);
        stats.record(XdpAction::Pass);
        stats.record(XdpAction::Drop);
        let snap = stats.snapshot();
        assert_eq!(snap.pass, 2);
        assert_eq!(snap.drop, 1);
        assert_eq!(snap.total(), 3);
        stats.clear();
        assert_eq!(stats.snapshot().total(), 0);
    }
}
