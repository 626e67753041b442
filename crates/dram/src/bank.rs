//! Per-bank row-buffer state machine.

use crate::timing::{Cycle, TimingParams};

/// Row-buffer outcome of an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowEvent {
    /// The target row was already open: column access only.
    Hit,
    /// Another row was open: precharge + activate + column access.
    Miss,
    /// The bank was idle/closed: activate + column access.
    Empty,
}

/// State of one DRAM bank under an open-page policy.
///
/// The bank tracks which row (if any) its row buffer holds, when it will
/// next be able to accept a command, and when the current row was
/// activated (to honour `tRAS` before a precharge).
#[derive(Debug, Clone, Default)]
pub struct Bank {
    open_row: Option<u64>,
    ready_at: Cycle,
    last_activate: Cycle,
    /// Latest cycle up to which the bank was occupied by drained
    /// background (deferred-queue) work; lets the latency anatomy split
    /// a later access's queue wait into demand-induced and
    /// deferred-induced portions.
    deferred_until: Cycle,
}

/// Outcome of preparing a row for access in a bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowPrep {
    /// Cycle at which the bank actually started (>= requested time).
    pub start: Cycle,
    /// Cycle at which the target row is open and a column command may issue.
    pub row_open: Cycle,
    /// What the row buffer did.
    pub event: RowEvent,
}

impl Bank {
    /// Creates a closed, idle bank.
    #[must_use]
    pub fn new() -> Self {
        Bank::default()
    }

    /// The row currently held in the row buffer, if any.
    #[must_use]
    pub fn open_row(&self) -> Option<u64> {
        self.open_row
    }

    /// Earliest cycle the bank can accept a new command.
    #[must_use]
    pub fn ready_at(&self) -> Cycle {
        self.ready_at
    }

    /// Would an access to `row` at this moment hit the open row buffer?
    #[must_use]
    pub fn would_hit(&self, row: u64) -> bool {
        self.open_row == Some(row)
    }

    /// Opens `row` for access, precharging/activating as needed.
    ///
    /// Returns when the row is open and what the row buffer did. Leaves the
    /// bank ready (for a column command) at `row_open`.
    pub fn prepare_row(&mut self, row: u64, at: Cycle, t: &TimingParams) -> RowPrep {
        let start = at.max(self.ready_at);
        let (row_open, event) = match self.open_row {
            Some(open) if open == row => (start, RowEvent::Hit),
            Some(_) => {
                // Precharge may not begin before tRAS from the activate.
                let pre_start = start.max(self.last_activate + t.ras);
                let act_at = pre_start + t.rp;
                self.last_activate = act_at;
                (act_at + t.rcd, RowEvent::Miss)
            }
            None => {
                self.last_activate = start;
                (start + t.rcd, RowEvent::Empty)
            }
        };
        self.open_row = Some(row);
        self.ready_at = row_open;
        RowPrep {
            start,
            row_open,
            event,
        }
    }

    /// Occupies the bank until `until` (e.g. for the column/burst phase).
    pub fn occupy_until(&mut self, until: Cycle) {
        self.ready_at = self.ready_at.max(until);
    }

    /// Marks the occupancy ending at `until` as background (deferred)
    /// work.
    pub fn note_deferred(&mut self, until: Cycle) {
        self.deferred_until = self.deferred_until.max(until);
    }

    /// Latest cycle up to which the bank was held by background work.
    #[must_use]
    pub fn deferred_until(&self) -> Cycle {
        self.deferred_until
    }

    /// Drops the row buffer contents without timing cost (used when a
    /// refresh has already performed the precharge-all).
    pub fn discard_row(&mut self) {
        self.open_row = None;
    }

    /// Closes the row buffer with an explicit precharge.
    pub fn close(&mut self, at: Cycle, t: &TimingParams) {
        if self.open_row.is_some() {
            let pre_start = at.max(self.ready_at).max(self.last_activate + t.ras);
            self.ready_at = pre_start + t.rp;
            self.open_row = None;
        }
    }
}

impl bimodal_ckpt::Snapshot for Bank {
    fn save(&self, w: &mut bimodal_ckpt::SnapshotWriter) {
        self.open_row.save(w);
        w.u64(self.ready_at);
        w.u64(self.last_activate);
        w.u64(self.deferred_until);
    }

    fn load(r: &mut bimodal_ckpt::SnapshotReader<'_>) -> Result<Self, bimodal_ckpt::CkptError> {
        Ok(Bank {
            open_row: bimodal_ckpt::Snapshot::load(r)?,
            ready_at: r.u64()?,
            last_activate: r.u64()?,
            deferred_until: r.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing() -> TimingParams {
        TimingParams::ddr3_1600h(2).without_refresh()
    }

    #[test]
    fn first_access_is_row_empty() {
        let t = timing();
        let mut b = Bank::new();
        let prep = b.prepare_row(7, 100, &t);
        assert_eq!(prep.event, RowEvent::Empty);
        assert_eq!(prep.row_open, 100 + t.rcd);
        assert_eq!(b.open_row(), Some(7));
    }

    #[test]
    fn same_row_is_a_hit_with_no_delay() {
        let t = timing();
        let mut b = Bank::new();
        b.prepare_row(7, 0, &t);
        let at = b.ready_at() + 10;
        let prep = b.prepare_row(7, at, &t);
        assert_eq!(prep.event, RowEvent::Hit);
        assert_eq!(prep.row_open, at);
    }

    #[test]
    fn different_row_is_a_miss_paying_rp_and_rcd() {
        let t = timing();
        let mut b = Bank::new();
        b.prepare_row(7, 0, &t);
        // Far enough in the future that tRAS is already satisfied.
        let at = 10_000;
        let prep = b.prepare_row(8, at, &t);
        assert_eq!(prep.event, RowEvent::Miss);
        assert_eq!(prep.row_open, at + t.rp + t.rcd);
    }

    #[test]
    fn precharge_waits_for_tras() {
        let t = timing();
        let mut b = Bank::new();
        b.prepare_row(7, 0, &t); // activate at cycle 0
                                 // Immediately conflicting access: precharge cannot start before tRAS.
        let prep = b.prepare_row(9, b.ready_at(), &t);
        assert!(prep.row_open >= t.ras + t.rp + t.rcd);
    }

    #[test]
    fn busy_bank_delays_start() {
        let t = timing();
        let mut b = Bank::new();
        b.prepare_row(7, 0, &t);
        b.occupy_until(500);
        let prep = b.prepare_row(7, 100, &t);
        assert_eq!(prep.start, 500);
    }

    #[test]
    fn close_empties_row_buffer() {
        let t = timing();
        let mut b = Bank::new();
        b.prepare_row(7, 0, &t);
        b.close(10_000, &t);
        assert_eq!(b.open_row(), None);
        let prep = b.prepare_row(7, 20_000, &t);
        assert_eq!(prep.event, RowEvent::Empty);
    }

    #[test]
    fn close_on_closed_bank_is_noop() {
        let t = timing();
        let mut b = Bank::new();
        b.close(100, &t);
        assert_eq!(b.ready_at(), 0);
    }
}
