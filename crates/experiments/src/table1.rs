//! Table I — datacenter thread oversubscription, and the scheduling
//! consequence the introduction derives from it.
//!
//! The table itself is external data (Google traces); we quote it and
//! compute the paper's §I corollary: with a 5 ms minimum kernel time
//! slice and hundreds of threads per core, one round-robin scheduler
//! cycle takes *seconds*, while LibPreemptible's 3 us slice keeps it in
//! the millisecond range.

use lp_sim::SimDur;
use lp_stats::Table;

/// One application row from the Google traces (paper Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OversubRow {
    /// Application code name.
    pub app: &'static str,
    /// Threads observed.
    pub threads: u64,
    /// Cores assigned.
    pub cores: u64,
}

impl OversubRow {
    /// Threads per core.
    fn threads_per_core(&self) -> u64 {
        self.threads / self.cores
    }

    /// Worst-case scheduler cycle: every runnable thread takes a full
    /// `slice` before the first gets CPU again.
    fn scheduler_cycle(&self, slice: SimDur) -> SimDur {
        slice * self.threads_per_core()
    }
}

/// The four applications of Table I.
pub const GOOGLE_TRACE_ROWS: [OversubRow; 4] = [
    OversubRow {
        app: "charlie",
        threads: 4842,
        cores: 10,
    },
    OversubRow {
        app: "delta",
        threads: 300,
        cores: 4,
    },
    OversubRow {
        app: "merced",
        threads: 5470,
        cores: 110,
    },
    OversubRow {
        app: "whiskey",
        threads: 1352,
        cores: 8,
    },
];

/// Renders Table I plus the derived scheduler-cycle columns.
pub fn run() -> Table {
    let mut t = Table::new(&[
        "App (code name)",
        "# threads",
        "# cores",
        "Threads/core",
        "cycle @5ms slice",
        "cycle @3us slice",
    ])
    .with_title("Table I: thread oversubscription (Google traces) + scheduler-cycle corollary");
    for row in GOOGLE_TRACE_ROWS {
        t.row(&[
            row.app.to_string(),
            row.threads.to_string(),
            row.cores.to_string(),
            row.threads_per_core().to_string(),
            row.scheduler_cycle(SimDur::millis(5)).to_string(),
            row.scheduler_cycle(SimDur::micros(3)).to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_match_paper() {
        assert_eq!(GOOGLE_TRACE_ROWS[0].threads_per_core(), 484);
        assert_eq!(GOOGLE_TRACE_ROWS[1].threads_per_core(), 75);
        assert_eq!(GOOGLE_TRACE_ROWS[2].threads_per_core(), 49); // 5470/110
        assert_eq!(GOOGLE_TRACE_ROWS[3].threads_per_core(), 169);
    }

    #[test]
    fn intro_corollary_holds() {
        // §I: "if the minimum time slice is 5ms and there are 200
        // threads on average per core, the scheduler cycle will be
        // increased to 1 second".
        let row = OversubRow {
            app: "x",
            threads: 200,
            cores: 1,
        };
        assert_eq!(row.scheduler_cycle(SimDur::millis(5)), SimDur::secs(1));
        // With the 3us UINTR slice the same cycle is 600us.
        assert_eq!(row.scheduler_cycle(SimDur::micros(3)), SimDur::micros(600));
    }

    #[test]
    fn table_renders() {
        let t = run();
        assert_eq!(t.len(), 4);
        let s = t.render();
        assert!(s.contains("charlie"));
        assert!(s.contains("484"));
    }
}
