//! Configuration: indexing mode and the §IV parameters.

use crate::prefix::PrefixScheme;
use simnet::SimTime;

/// Parameters of the group indexing algorithm (§IV-A). Field names follow
/// the paper's symbol table (Fig. 3).
#[derive(Clone, Copy, Debug)]
pub struct GroupConfig {
    /// How `Lp` is derived from the network size (§V-C's Schemes 1–3).
    /// `Nn` is the true membership count, as in the paper's experiments,
    /// which configure `Lp` from the known network size.
    pub scheme: PrefixScheme,
    /// `Lmin` — lower bound on `Lp` so bootstrap-era networks do not
    /// degenerate to near-individual indexing (§IV-A.1).
    pub l_min: usize,
    /// `Tmax` — maximum width of a capture window; guarantees timely
    /// indexing when volume is low (§IV-A.1).
    pub t_max: SimTime,
    /// `Nmax` — maximum number of objects per window; bounds the size of
    /// one indexing message (§IV-A.1).
    pub n_max: usize,
    /// `α` — fraction of a gateway's earliest records delegated to the
    /// two triangle children when delegation triggers (Fig. 5,
    /// `update_index`). `0 < α ≤ 1`.
    pub alpha: f64,
    /// Delegation triggers when a prefix's local record count exceeds
    /// this ("whether the local storage for this prefix exceeds a certain
    /// amount"). `None` disables Data-Triangle delegation.
    pub delegate_threshold: Option<usize>,
    /// Apply the splitting-merging process eagerly when `Lp` changes
    /// (§IV-A.2). When `false`, inconsistencies are repaired lazily by
    /// `refresh_from_ascent`/`_descent` at the next indexing cycle.
    pub eager_split_merge: bool,
}

impl Default for GroupConfig {
    fn default() -> Self {
        GroupConfig {
            scheme: PrefixScheme::Scheme2,
            l_min: 3,
            t_max: SimTime::from_millis(500),
            n_max: 1024,
            alpha: 0.5,
            delegate_threshold: Some(4096),
            eager_split_merge: true,
        }
    }
}

impl GroupConfig {
    /// Validate parameter ranges; called by the network builder.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.alpha > 0.0 && self.alpha <= 1.0) {
            return Err(format!("alpha must be in (0, 1], got {}", self.alpha));
        }
        if self.n_max == 0 {
            return Err("n_max must be positive".into());
        }
        if self.t_max == SimTime::ZERO {
            return Err("t_max must be positive".into());
        }
        if self.l_min > ids::prefix::MAX_PREFIX_BITS {
            return Err(format!("l_min {} exceeds max prefix length", self.l_min));
        }
        Ok(())
    }
}

/// Which of the paper's two indexing algorithms a network runs.
#[derive(Clone, Copy, Debug)]
pub enum IndexingMode {
    /// §III: one index message plus two IOP updates per arrival.
    Individual,
    /// §IV: windowed, prefix-grouped indexing with Data Triangles.
    Group(GroupConfig),
}

impl IndexingMode {
    /// Shorthand for the default group configuration.
    pub fn group_default() -> IndexingMode {
        IndexingMode::Group(GroupConfig::default())
    }

    /// Is this the group mode?
    pub fn is_group(&self) -> bool {
        matches!(self, IndexingMode::Group(_))
    }
}

/// Timeout/retry/backoff parameters for the at-least-once delivery
/// layer. When enabled, every networked protocol message is sequenced
/// and acknowledged; unacked messages are retransmitted with exponential
/// backoff and retransmissions are charged to
/// [`simnet::MsgClass::Retrans`] (acks to [`simnet::MsgClass::Ack`]).
/// Disabled by default — the clean path stays byte-identical to a build
/// without the retry layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryConfig {
    /// Master switch. `false` sends no acks, arms no timers and adds no
    /// metrics.
    pub enabled: bool,
    /// Time to wait for an ack before the first retransmission.
    pub timeout: SimTime,
    /// Timeout multiplier per successive retransmission (1 = constant).
    pub backoff: u32,
    /// Total delivery attempts (first send included) before giving up
    /// and counting `retries_exhausted`.
    pub max_attempts: u32,
}

impl RetryConfig {
    /// The disabled configuration.
    pub fn disabled() -> RetryConfig {
        RetryConfig {
            enabled: false,
            timeout: SimTime::from_millis(200),
            backoff: 2,
            max_attempts: 6,
        }
    }

    /// Default enabled configuration: 200 ms initial timeout, doubling,
    /// six attempts.
    pub fn enabled() -> RetryConfig {
        RetryConfig { enabled: true, ..RetryConfig::disabled() }
    }

    /// Validate parameter ranges; called by the network builder.
    pub fn validate(&self) -> Result<(), String> {
        if !self.enabled {
            return Ok(());
        }
        if self.timeout == SimTime::ZERO {
            return Err("retry timeout must be positive".into());
        }
        if self.backoff == 0 {
            return Err("retry backoff must be >= 1".into());
        }
        if self.max_attempts == 0 {
            return Err("retry max_attempts must be >= 1".into());
        }
        Ok(())
    }

    /// Delay before the retransmission that makes delivery attempt
    /// number `attempt + 1` (so `attempt = 1` after the initial send):
    /// `timeout * backoff^(attempt - 1)`, saturating.
    pub fn delay_after(&self, attempt: u32) -> SimTime {
        let factor = (self.backoff as u64).saturating_pow(attempt.saturating_sub(1));
        SimTime::from_micros(self.timeout.as_micros().saturating_mul(factor))
    }
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig::disabled()
    }
}

/// K-successor replication of IOP and group-index state. With
/// `replicas = K > 1`, every key range a node owns is mirrored onto its
/// `K−1` Chord successors: writes fan out to the replica set (the
/// primary acks after its local apply), replicas converge via periodic
/// digest exchange over the canonical state encoding, reads fall back
/// to replicas when the primary is gone, and a permanent failure
/// promotes the next successor. `replicas = 1` (the default) is the
/// seed behaviour: no replica stores, no extra messages or timers, and
/// figure CSVs stay byte-identical.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplicationConfig {
    /// Total copies of each key range, primary included. 1 disables
    /// replication entirely.
    pub replicas: usize,
    /// How long after a mutation the primary schedules a digest
    /// exchange with its replica set (anti-entropy). One-shot: armed by
    /// a write, re-armed by the next write after it fires.
    pub anti_entropy_period: SimTime,
}

impl ReplicationConfig {
    /// The disabled configuration (single copy, the seed behaviour).
    pub fn disabled() -> ReplicationConfig {
        ReplicationConfig { replicas: 1, anti_entropy_period: SimTime::from_millis(500) }
    }

    /// `K` total copies with the default anti-entropy period.
    pub fn with_replicas(k: usize) -> ReplicationConfig {
        ReplicationConfig { replicas: k, ..ReplicationConfig::disabled() }
    }

    /// Is replication on (more than one copy)?
    pub fn enabled(&self) -> bool {
        self.replicas > 1
    }

    /// Validate parameter ranges; called by the network builder.
    pub fn validate(&self) -> Result<(), String> {
        if self.replicas == 0 {
            return Err("replicas must be >= 1 (1 disables replication)".into());
        }
        if self.replicas > 1 && self.anti_entropy_period == SimTime::ZERO {
            return Err("anti_entropy_period must be positive".into());
        }
        Ok(())
    }
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        ReplicationConfig::disabled()
    }
}

/// How chord identifiers are assigned to sites — the gateway placement
/// policy (DESIGN.md §17).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Placement {
    /// Uniform SHA-1 identifiers: the flat ring of the paper (and of
    /// every pre-geo build). Always the default.
    #[default]
    Flat,
    /// Proximity-aware placement: each site's identifier is forced into
    /// its region's contiguous arc of the ring (`geo::clustered_id`),
    /// so K-successor replica sets and group-index flush fan-out stay
    /// same-region without any protocol change. Requires a topology
    /// (`Builder::geo`); with one region it degenerates to `Flat`'s
    /// distribution (one arc = the whole ring).
    Proximity,
}

/// Full network configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Indexing algorithm.
    pub mode: IndexingMode,
    /// RNG seed for the run (node ids, latency jitter, workload draws).
    pub seed: u64,
    /// At-least-once delivery layer (off by default).
    pub retry: RetryConfig,
    /// K-successor replication (off by default: one copy).
    pub replication: ReplicationConfig,
    /// Per-node locate-answer cache capacity (DESIGN.md §15). `None`
    /// (the default) disables caching entirely: no caches are
    /// allocated, no epochs are tracked, and query dispatch is
    /// byte-identical to a build without the cache layer. `Some(n)`
    /// caches up to `n` answers per node, invalidated by movement-epoch
    /// mismatch and cleared wholesale on membership change.
    pub locate_cache: Option<usize>,
    /// Gateway placement policy (`Flat` is the seed behaviour; see
    /// [`Placement`]).
    pub placement: Placement,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            mode: IndexingMode::group_default(),
            seed: 0x9E3779B9,
            retry: RetryConfig::disabled(),
            replication: ReplicationConfig::disabled(),
            locate_cache: None,
            placement: Placement::Flat,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_group_config_is_valid() {
        GroupConfig::default().validate().unwrap();
    }

    #[test]
    fn alpha_bounds_enforced() {
        let with_alpha = |alpha| GroupConfig { alpha, ..GroupConfig::default() };
        assert!(with_alpha(0.0).validate().is_err());
        assert!(with_alpha(1.0).validate().is_ok());
        assert!(with_alpha(1.5).validate().is_err());
    }

    #[test]
    fn zero_window_rejected() {
        let c = GroupConfig { n_max: 0, ..GroupConfig::default() };
        assert!(c.validate().is_err());
        let c = GroupConfig { t_max: SimTime::ZERO, ..GroupConfig::default() };
        assert!(c.validate().is_err());
    }

    #[test]
    fn mode_predicates() {
        assert!(IndexingMode::group_default().is_group());
        assert!(!IndexingMode::Individual.is_group());
    }

    #[test]
    fn replication_validation() {
        assert!(ReplicationConfig::disabled().validate().is_ok());
        assert!(!ReplicationConfig::disabled().enabled());
        assert!(ReplicationConfig::with_replicas(3).validate().is_ok());
        assert!(ReplicationConfig::with_replicas(3).enabled());
        assert!(ReplicationConfig::with_replicas(0).validate().is_err());
        let bad = ReplicationConfig {
            replicas: 2,
            anti_entropy_period: SimTime::ZERO,
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn retry_validation_and_backoff_schedule() {
        assert!(RetryConfig::disabled().validate().is_ok());
        assert!(RetryConfig::enabled().validate().is_ok());
        let bad = RetryConfig { max_attempts: 0, ..RetryConfig::enabled() };
        assert!(bad.validate().is_err());
        let bad = RetryConfig { timeout: SimTime::ZERO, ..RetryConfig::enabled() };
        assert!(bad.validate().is_err());

        let r = RetryConfig {
            enabled: true,
            timeout: SimTime::from_millis(100),
            backoff: 2,
            max_attempts: 4,
        };
        assert_eq!(r.delay_after(1), SimTime::from_millis(100));
        assert_eq!(r.delay_after(2), SimTime::from_millis(200));
        assert_eq!(r.delay_after(3), SimTime::from_millis(400));
        // Constant-backoff variant.
        let c = RetryConfig { backoff: 1, ..r };
        assert_eq!(c.delay_after(3), SimTime::from_millis(100));
    }
}
