//! The campaign manifest: one record per job saying how it got done.
//!
//! The manifest is the campaign's graceful-degradation contract: a job
//! that exhausted its retry budget is reported [`JobOutcome::GaveUp`]
//! here while the rest of the matrix completes, and every observed
//! worker kill, timeout, checkpoint resume, cache hit, and quarantined
//! cache entry is recorded per job. The JSON rendering is deterministic
//! (canonical job order, no timings) so fixed-seed chaos campaigns can
//! be diffed in CI.

use crate::serve::json::escape;
use std::fmt;

/// How one campaign job reached its final state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome {
    /// Served from the content-addressed result cache.
    Cached,
    /// Computed by a worker with no intervention.
    Completed,
    /// Computed after `n` worker deaths/timeouts (rescheduled, resuming
    /// from the last good checkpoint where one existed).
    Resumed(u32),
    /// Retry budget exhausted; the job has no result but the campaign
    /// carried on.
    GaveUp,
    /// The job itself reported a deterministic error (retries would not
    /// help); the campaign carried on.
    Failed,
    /// The job's per-request deadline expired before it finished; its
    /// worker (if any) was SIGKILLed and the job was not retried. Only
    /// `repro serve` attaches deadlines; plain campaigns never produce
    /// this outcome.
    DeadlineExceeded,
}

impl JobOutcome {
    /// Stable machine-readable tag.
    pub fn tag(&self) -> &'static str {
        match self {
            JobOutcome::Cached => "cached",
            JobOutcome::Completed => "completed",
            JobOutcome::Resumed(_) => "resumed",
            JobOutcome::GaveUp => "gave-up",
            JobOutcome::Failed => "failed",
            JobOutcome::DeadlineExceeded => "deadline-exceeded",
        }
    }
}

impl fmt::Display for JobOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobOutcome::Cached => f.write_str("cached"),
            JobOutcome::Completed => f.write_str("completed"),
            JobOutcome::Resumed(n) => write!(f, "completed after {n} worker intervention(s)"),
            JobOutcome::GaveUp => f.write_str("gave up (retry budget exhausted)"),
            JobOutcome::Failed => f.write_str("failed (job-level error)"),
            JobOutcome::DeadlineExceeded => f.write_str("deadline exceeded (request cancelled)"),
        }
    }
}

/// Per-job supervision record.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Artifact name.
    pub name: String,
    /// Job identity fingerprint (cache key).
    pub fingerprint: u64,
    /// Final outcome.
    pub outcome: JobOutcome,
    /// Worker attempts consumed by deaths/timeouts (0 = first attempt
    /// succeeded or the job was served from cache).
    pub attempts: u32,
    /// Worker processes observed dead (chaos aborts, crashes, and
    /// coordinator kills alike).
    pub kills: u32,
    /// Subset of `kills` delivered by the coordinator for a wall-clock
    /// timeout or a stale heartbeat.
    pub timeouts: u32,
    /// True when a rescheduled attempt found an on-disk checkpoint from
    /// the killed attempt to resume from.
    pub resumed_from_checkpoint: bool,
    /// True when the result came from the cache.
    pub cache_hit: bool,
    /// True when a corrupt cache entry for this job was quarantined.
    pub quarantined: bool,
    /// Job-level error message (outcomes `Failed`/`GaveUp`).
    pub error: Option<String>,
}

/// The whole campaign's supervision summary.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Scale name the campaign ran at.
    pub scale: String,
    /// Worker process count.
    pub workers: usize,
    /// Chaos kill rate (`None` = chaos off).
    pub chaos_kill_every: Option<u64>,
    /// Chaos seed.
    pub seed: u64,
    /// Per-job records in canonical artifact order.
    pub jobs: Vec<JobRecord>,
}

impl Manifest {
    /// Total worker deaths observed.
    pub fn kills_total(&self) -> u32 {
        self.jobs.iter().map(|j| j.kills).sum()
    }

    /// Jobs served from the result cache.
    pub fn cache_hits(&self) -> usize {
        self.jobs.iter().filter(|j| j.cache_hit).count()
    }

    /// Jobs that resumed from an on-disk checkpoint after a kill.
    pub fn resumes(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| j.resumed_from_checkpoint)
            .count()
    }

    /// Jobs that exhausted their retry budget.
    pub fn gave_up(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| j.outcome == JobOutcome::GaveUp)
            .count()
    }

    /// Jobs that reported a deterministic job-level error.
    pub fn failed(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| j.outcome == JobOutcome::Failed)
            .count()
    }

    /// Jobs cancelled because their deadline expired.
    pub fn deadline_exceeded(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| j.outcome == JobOutcome::DeadlineExceeded)
            .count()
    }

    /// Corrupt cache entries quarantined during the campaign.
    pub fn quarantined(&self) -> usize {
        self.jobs.iter().filter(|j| j.quarantined).count()
    }

    /// Worker attempts consumed by retries across all jobs.
    pub fn retries_total(&self) -> u32 {
        self.jobs.iter().map(|j| j.attempts).sum()
    }

    /// Coordinator-delivered SIGKILLs (wall-clock timeouts and stale
    /// heartbeats) across all jobs.
    pub fn timeouts_total(&self) -> u32 {
        self.jobs.iter().map(|j| j.timeouts).sum()
    }

    /// Deterministic JSON rendering (hand-rolled: the offline serde shim
    /// has no serializer).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"scale\": \"{}\",\n", escape(&self.scale)));
        s.push_str(&format!("  \"workers\": {},\n", self.workers));
        match self.chaos_kill_every {
            Some(k) => s.push_str(&format!("  \"chaos_kill_every\": {k},\n")),
            None => s.push_str("  \"chaos_kill_every\": null,\n"),
        }
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str("  \"jobs\": [\n");
        for (i, j) in self.jobs.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"fingerprint\": \"{:016x}\", \"outcome\": \"{}\", \
                 \"attempts\": {}, \"kills\": {}, \"timeouts\": {}, \
                 \"resumed_from_checkpoint\": {}, \"cache_hit\": {}, \"quarantined\": {}, \
                 \"error\": {}}}{}\n",
                escape(&j.name),
                j.fingerprint,
                j.outcome.tag(),
                j.attempts,
                j.kills,
                j.timeouts,
                j.resumed_from_checkpoint,
                j.cache_hit,
                j.quarantined,
                match &j.error {
                    Some(e) => format!("\"{}\"", escape(e)),
                    None => "null".to_string(),
                },
                if i + 1 < self.jobs.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        s.push_str(&format!(
            "  \"kills_total\": {}, \"resumes\": {}, \"cache_hits\": {}, \
             \"gave_up\": {}, \"failed\": {}, \"deadline_exceeded\": {}, \
             \"quarantined\": {}, \"retries_total\": {}, \"timeouts_total\": {}\n",
            self.kills_total(),
            self.resumes(),
            self.cache_hits(),
            self.gave_up(),
            self.failed(),
            self.deadline_exceeded(),
            self.quarantined(),
            self.retries_total(),
            self.timeouts_total()
        ));
        s.push_str("}\n");
        s
    }
}

impl fmt::Display for Manifest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "campaign: {} job(s), {} worker(s), chaos {}",
            self.jobs.len(),
            self.workers,
            match self.chaos_kill_every {
                Some(k) => format!("kill-every {k} seed {}", self.seed),
                None => "off".to_string(),
            }
        )?;
        for j in &self.jobs {
            write!(f, "  {:<8} {}", j.name, j.outcome)?;
            if j.cache_hit {
                write!(f, " [cache]")?;
            }
            if j.quarantined {
                write!(f, " [quarantined corrupt entry]")?;
            }
            if j.kills > 0 {
                write!(
                    f,
                    " [{} kill(s), {} timeout(s){}]",
                    j.kills,
                    j.timeouts,
                    if j.resumed_from_checkpoint {
                        ", resumed from checkpoint"
                    } else {
                        ""
                    }
                )?;
            }
            if let Some(e) = &j.error {
                write!(f, ": {e}")?;
            }
            writeln!(f)?;
        }
        write!(
            f,
            "campaign: {} kill(s) observed, {} resume(s), {} cache hit(s), \
             {} gave up, {} failed, {} deadline-exceeded; degradation: \
             {} cache entr(y/ies) quarantined, {} attempt(s) retried, \
             {} coordinator SIGKILL(s)",
            self.kills_total(),
            self.resumes(),
            self.cache_hits(),
            self.gave_up(),
            self.failed(),
            self.deadline_exceeded(),
            self.quarantined(),
            self.retries_total(),
            self.timeouts_total()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(name: &str, outcome: JobOutcome) -> JobRecord {
        JobRecord {
            name: name.to_string(),
            fingerprint: 0x1234,
            outcome,
            attempts: 0,
            kills: 0,
            timeouts: 0,
            resumed_from_checkpoint: false,
            cache_hit: false,
            quarantined: false,
            error: None,
        }
    }

    #[test]
    fn totals_and_json_render() {
        let mut gave_up = record("fig9", JobOutcome::GaveUp);
        gave_up.attempts = 4;
        gave_up.kills = 4;
        gave_up.error = Some("worker died (abort)".to_string());
        let mut resumed = record("fig3", JobOutcome::Resumed(1));
        resumed.kills = 1;
        resumed.resumed_from_checkpoint = true;
        let mut cached = record("table1", JobOutcome::Cached);
        cached.cache_hit = true;
        let m = Manifest {
            scale: "quick".to_string(),
            workers: 2,
            chaos_kill_every: Some(1),
            seed: 7,
            jobs: vec![cached, resumed, gave_up],
        };
        assert_eq!(m.kills_total(), 5);
        assert_eq!(m.resumes(), 1);
        assert_eq!(m.cache_hits(), 1);
        assert_eq!(m.gave_up(), 1);
        assert_eq!(m.failed(), 0);
        let json = m.to_json();
        assert!(json.contains("\"outcome\": \"gave-up\""));
        assert!(json.contains("\"resumed_from_checkpoint\": true"));
        assert!(json.contains("\"chaos_kill_every\": 1"));
        let text = m.to_string();
        assert!(text.contains("gave up"));
        assert!(text.contains("resumed from checkpoint"));
    }
}
