//! The record-path oracle shared by the fuzzers: a run traced in full
//! must tell the same story in its report, its JSONL trace and its
//! tail attribution.

use libpreemptible::RunReport;
use lp_sim::obs::TimedEvent;
use lp_sim::SimDur;

/// A trace capacity a run cannot wrap: every request, and every slice
/// expiry on every worker, emits at most a few dozen events. `slice`
/// is the nominal quantum ([`SimDur::MAX`] for none).
pub fn ring_for(rate_rps: f64, duration: SimDur, workers: usize, slice: SimDur) -> usize {
    let arrivals = 2.0 * rate_rps * duration.as_secs_f64() + 64.0;
    let slices = workers as u64 * (duration.as_nanos() / slice.as_nanos().max(1_000));
    32 * (arrivals as usize + slices as usize)
}

/// Checks a run traced with a ring sized by [`ring_for`]: nothing was
/// evicted, the report totals equal the counts recomputed from the
/// JSONL (`arrival`, `task_finish`, `drop` + `shed`, `preempt`,
/// `spurious_preempt`), and every exemplar's phases sum exactly to its
/// latency.
pub fn check_record_path(r: &RunReport) -> Result<(), String> {
    if r.events_dropped != 0 {
        return Err(format!("the ring evicted {} events", r.events_dropped));
    }
    let mut traced = [0u64; 5];
    for line in r.events_jsonl().lines() {
        let te = TimedEvent::parse_jsonl(line).ok_or_else(|| format!("unparsable: {line}"))?;
        match te.ev.name() {
            "arrival" => traced[0] += 1,
            "task_finish" => traced[1] += 1,
            "drop" | "shed" => traced[2] += 1,
            "preempt" => traced[3] += 1,
            "spurious_preempt" => traced[4] += 1,
            _ => {}
        }
    }
    let totals = [
        r.arrivals,
        r.completions,
        r.dropped,
        r.preemptions,
        r.spurious_preemptions,
    ];
    if traced != totals {
        return Err(format!(
            "JSONL counts {traced:?} != report totals {totals:?} \
             (arrivals, completions, dropped, preemptions, spurious)"
        ));
    }
    match r
        .phases
        .exemplars()
        .into_iter()
        .find(|ex| ex.phase_sum() != ex.latency_ns)
    {
        Some(ex) => Err(format!("exemplar phases do not sum to its latency: {ex:?}")),
        None => Ok(()),
    }
}
