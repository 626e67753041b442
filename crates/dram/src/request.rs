//! Request and completion types exchanged with a [`crate::DramModule`].

use crate::timing::Cycle;
use crate::RowEvent;

/// Direction of a DRAM data transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Read data out of the row buffer.
    Read,
    /// Write data into the row buffer.
    Write,
}

/// A physical location inside a DRAM module: which bank, and which row.
///
/// Callers that manage placement themselves (the DRAM cache lays its sets
/// out explicitly) construct `Location`s directly; off-chip accesses go
/// through [`crate::AddressMapping`] instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Location {
    /// Channel index.
    pub channel: u32,
    /// Rank index within the channel.
    pub rank: u32,
    /// Bank index within the rank.
    pub bank: u32,
    /// Row (DRAM page) index within the bank.
    pub row: u64,
}

impl Location {
    /// Creates a location from its four coordinates.
    #[must_use]
    pub fn new(channel: u32, rank: u32, bank: u32, row: u64) -> Self {
        Location {
            channel,
            rank,
            bank,
            row,
        }
    }
}

/// A single timed DRAM transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Request {
    /// Target bank and row.
    pub loc: Location,
    /// Bytes moved over the data bus (one or more bursts).
    pub bytes: u32,
    /// Transfer direction.
    pub op: Op,
    /// Cycle at which the request reaches the controller.
    pub arrival: Cycle,
}

impl Request {
    /// Convenience constructor for a read.
    #[must_use]
    pub fn read(loc: Location, bytes: u32, arrival: Cycle) -> Self {
        Request {
            loc,
            bytes,
            op: Op::Read,
            arrival,
        }
    }

    /// Convenience constructor for a write.
    #[must_use]
    pub fn write(loc: Location, bytes: u32, arrival: Cycle) -> Self {
        Request {
            loc,
            bytes,
            op: Op::Write,
            arrival,
        }
    }
}

/// Timing outcome of a serviced request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Completion {
    /// When the request arrived (copied from the request).
    pub arrival: Cycle,
    /// When the bank began working on the request (after queueing).
    pub start: Cycle,
    /// When the full data transfer finished.
    pub done: Cycle,
    /// Row-buffer outcome observed by the request.
    pub row_event: RowEvent,
}

impl Completion {
    /// Total latency from arrival to last data beat.
    #[must_use]
    pub fn latency(&self) -> Cycle {
        self.done.saturating_sub(self.arrival)
    }

    /// Time spent waiting before the bank started servicing the request.
    #[must_use]
    pub fn queue_delay(&self) -> Cycle {
        self.start.saturating_sub(self.arrival)
    }
}

impl bimodal_ckpt::Snapshot for Location {
    fn save(&self, w: &mut bimodal_ckpt::SnapshotWriter) {
        w.u32(self.channel);
        w.u32(self.rank);
        w.u32(self.bank);
        w.u64(self.row);
    }

    fn load(r: &mut bimodal_ckpt::SnapshotReader<'_>) -> Result<Self, bimodal_ckpt::CkptError> {
        Ok(Location {
            channel: r.u32()?,
            rank: r.u32()?,
            bank: r.u32()?,
            row: r.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completion_latency_and_queue_delay() {
        let c = Completion {
            arrival: 100,
            start: 120,
            done: 160,
            row_event: RowEvent::Hit,
        };
        assert_eq!(c.latency(), 60);
        assert_eq!(c.queue_delay(), 20);
    }

    #[test]
    fn request_constructors_set_op() {
        let loc = Location::new(0, 0, 0, 0);
        assert_eq!(Request::read(loc, 64, 5).op, Op::Read);
        assert_eq!(Request::write(loc, 64, 5).op, Op::Write);
    }
}
