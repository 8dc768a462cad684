//! Correctness checks on each workload's outputs. A check returns
//! `Err` with the reason; the run then reports `correct: false` and
//! exits non-zero. Every check has a negative control below that feeds
//! it a known-bad input and asserts that it trips.

use vcu_media::Video;
use vcu_regions::PlanetReport;
use vcu_serve::ServeReport;

/// A decode must return the source's frame count and dimensions.
pub fn check_decode(source: &Video, decoded: &Video) -> Result<(), String> {
    if decoded.frames.len() != source.frames.len() {
        return Err(format!(
            "decode returned {} frames, source has {}",
            decoded.frames.len(),
            source.frames.len()
        ));
    }
    if (decoded.width(), decoded.height()) != (source.width(), source.height()) {
        return Err(format!(
            "decode returned {}x{}, source is {}x{}",
            decoded.width(),
            decoded.height(),
            source.width(),
            source.height()
        ));
    }
    Ok(())
}

/// Decoded-vs-source luma PSNR must clear `floor_db`.
pub fn check_psnr(psnr_db: f64, floor_db: f64) -> Result<(), String> {
    if psnr_db.is_finite() && psnr_db >= floor_db {
        Ok(())
    } else {
        Err(format!("PSNR {psnr_db} dB below the {floor_db} dB floor"))
    }
}

/// The session and cache tallies of one serving run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionCounts {
    pub arrivals: u64,
    pub admitted: u64,
    pub shed: u64,
    pub completed: u64,
    pub aborted: u64,
    pub hits: u64,
    pub misses: u64,
    /// Segment requests, counted from the session protocol: a session
    /// has one request outstanding at a time, so every request was
    /// either delivered or was the one an aborted session waited on.
    pub lookups: u64,
}

impl From<&ServeReport> for SessionCounts {
    fn from(r: &ServeReport) -> Self {
        SessionCounts {
            arrivals: r.arrivals,
            admitted: r.admitted,
            shed: r.shed_sessions,
            completed: r.completed_sessions,
            aborted: r.aborted_sessions,
            hits: r.cache_hits,
            misses: r.cache_misses,
            lookups: r.segments_served + r.aborted_sessions,
        }
    }
}

/// arrivals = admitted + shed, admitted = completed + aborted, and
/// hits + misses = lookups.
pub fn check_sessions(c: &SessionCounts) -> Result<(), String> {
    if c.arrivals != c.admitted + c.shed {
        return Err(format!(
            "{} arrivals != {} admitted + {} shed",
            c.arrivals, c.admitted, c.shed
        ));
    }
    if c.admitted != c.completed + c.aborted {
        return Err(format!(
            "{} admitted != {} completed + {} aborted",
            c.admitted, c.completed, c.aborted
        ));
    }
    if c.hits + c.misses != c.lookups {
        return Err(format!(
            "{} hits + {} misses != {} lookups",
            c.hits, c.misses, c.lookups
        ));
    }
    Ok(())
}

/// Job and routing tallies of one region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionCounts {
    pub jobs: u64,
    pub completed: u64,
    pub failed: u64,
    pub routed_out: u64,
    pub routed_in: u64,
}

/// Job and routing tallies of one planet run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanetCounts {
    pub jobs: u64,
    pub routed_jobs: u64,
    pub regions: Vec<RegionCounts>,
}

impl From<&PlanetReport> for PlanetCounts {
    fn from(r: &PlanetReport) -> Self {
        PlanetCounts {
            jobs: r.jobs,
            routed_jobs: r.routed_jobs,
            regions: r
                .regions
                .iter()
                .map(|g| RegionCounts {
                    jobs: g.jobs,
                    completed: g.completed,
                    failed: g.failed,
                    routed_out: g.routed_out,
                    routed_in: g.routed_in,
                })
                .collect(),
        }
    }
}

/// Σ region jobs = planet jobs = Σ completed + Σ failed, and
/// Σ routed_out = Σ routed_in = routed_jobs.
pub fn check_planet(c: &PlanetCounts) -> Result<(), String> {
    let sum = |f: fn(&RegionCounts) -> u64| c.regions.iter().map(f).sum::<u64>();
    let (jobs, completed, failed) = (sum(|r| r.jobs), sum(|r| r.completed), sum(|r| r.failed));
    if jobs != c.jobs || jobs != completed + failed {
        return Err(format!(
            "region jobs {jobs} (planet {}) != {completed} completed + {failed} failed",
            c.jobs
        ));
    }
    let (out, inn) = (sum(|r| r.routed_out), sum(|r| r.routed_in));
    if out != c.routed_jobs || inn != c.routed_jobs {
        return Err(format!(
            "routed out {out} / in {inn} != routed_jobs {}",
            c.routed_jobs
        ));
    }
    Ok(())
}

/// The traced run must model exactly what the untraced run modelled.
pub fn check_digests(traced: u64, untraced: u64) -> Result<(), String> {
    if traced == untraced {
        Ok(())
    } else {
        Err(format!(
            "traced report digest {traced:016x} != untraced {untraced:016x}"
        ))
    }
}

/// Threads `pool` has run batches on: the submitting thread plus the
/// workers it spawned for the widest batch so far.
pub fn threads_used(pool: &vcu_exec::Pool) -> usize {
    pool.workers_spawned() + 1
}

/// The executor must have run at the thread count the workload asked
/// for. An unparsable `VCU_THREADS` silently becomes one thread, which
/// would make a two-thread run measure one thread.
pub fn check_threads(asked: usize, ran: usize) -> Result<(), String> {
    if asked == ran {
        Ok(())
    } else {
        Err(format!(
            "asked for {asked} executor threads, the pool ran on {ran}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcu_media::synth::{ContentClass, SynthSpec};
    use vcu_media::Resolution;

    fn clip(frames: usize) -> Video {
        SynthSpec::new(Resolution::R144, frames, ContentClass::talking_head(), 7).generate()
    }

    #[test]
    fn decode_check_trips_on_a_missing_frame() {
        let src = clip(3);
        assert!(check_decode(&src, &src).is_ok());
        let mut short = src.clone();
        short.frames.pop();
        assert!(check_decode(&src, &short).is_err());
    }

    #[test]
    fn decode_check_trips_on_wrong_dimensions() {
        let src = clip(2);
        let other = SynthSpec::new(Resolution::R240, 2, ContentClass::talking_head(), 7).generate();
        assert!(check_decode(&src, &other).is_err());
    }

    #[test]
    fn psnr_check_trips_below_the_floor_and_on_nan() {
        assert!(check_psnr(35.0, 25.0).is_ok());
        assert!(check_psnr(24.9, 25.0).is_err());
        assert!(check_psnr(f64::NAN, 25.0).is_err());
    }

    fn good_sessions() -> SessionCounts {
        SessionCounts {
            arrivals: 100,
            admitted: 90,
            shed: 10,
            completed: 88,
            aborted: 2,
            hits: 600,
            misses: 400,
            lookups: 1_000,
        }
    }

    #[test]
    fn session_check_trips_on_one_dropped_session() {
        assert!(check_sessions(&good_sessions()).is_ok());
        let dropped = SessionCounts {
            completed: 87,
            ..good_sessions()
        };
        assert!(check_sessions(&dropped).is_err());
        let lost_arrival = SessionCounts {
            arrivals: 101,
            ..good_sessions()
        };
        assert!(check_sessions(&lost_arrival).is_err());
    }

    #[test]
    fn session_check_trips_on_an_uncounted_lookup() {
        let c = SessionCounts {
            lookups: 1_001,
            ..good_sessions()
        };
        assert!(check_sessions(&c).is_err());
    }

    fn good_planet() -> PlanetCounts {
        let region = |jobs, routed_out, routed_in| RegionCounts {
            jobs,
            completed: jobs - 1,
            failed: 1,
            routed_out,
            routed_in,
        };
        PlanetCounts {
            jobs: 300,
            routed_jobs: 7,
            regions: vec![region(100, 7, 0), region(200, 0, 7)],
        }
    }

    #[test]
    fn planet_check_trips_on_a_mismatched_routed_count() {
        assert!(check_planet(&good_planet()).is_ok());
        let mut c = good_planet();
        c.regions[1].routed_in = 6;
        assert!(check_planet(&c).is_err());
        let mut c = good_planet();
        c.routed_jobs = 8;
        assert!(check_planet(&c).is_err());
    }

    #[test]
    fn planet_check_trips_on_an_unresolved_job() {
        let mut c = good_planet();
        c.regions[0].completed -= 1;
        assert!(check_planet(&c).is_err());
    }

    #[test]
    fn digest_check_trips_on_differing_digests() {
        assert!(check_digests(42, 42).is_ok());
        assert!(check_digests(42, 43).is_err());
    }

    #[test]
    fn thread_guard_trips_when_the_pool_ran_narrower() {
        let batch = |pool: &vcu_exec::Pool, p: usize| {
            pool.run_batch(p, (0..4).map(|i| move || i).collect::<Vec<_>>());
        };
        let wide = vcu_exec::Pool::new();
        batch(&wide, 2);
        assert!(check_threads(2, threads_used(&wide)).is_ok());
        // What an unparsable VCU_THREADS leads to: every batch inline.
        let narrow = vcu_exec::Pool::new();
        batch(&narrow, 1);
        assert_eq!(threads_used(&narrow), 1);
        assert!(check_threads(2, threads_used(&narrow)).is_err());
    }
}
