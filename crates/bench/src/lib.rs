//! Experiment harness: regenerates every figure of §V.
//!
//! | Experiment | Paper figure | Module |
//! |---|---|---|
//! | E1 | Fig. 6a — indexing cost vs data volume | [`fig6`] |
//! | E2 | Fig. 6b — indexing cost vs network size | [`fig6`] |
//! | E3 | Fig. 7a — query time vs network size | [`fig7`] |
//! | E4 | Fig. 7b — query time vs data volume | [`fig7`] |
//! | E5 | Fig. 8a — load balance per `Lp` scheme | [`fig8`] |
//! | E6 | Fig. 8b — indexing cost per `Lp` scheme | [`fig8`] |
//!
//! Each module exposes a `run(scale)` returning typed rows plus a CSV
//! writer; the `all_experiments` binary drives everything and prints the
//! paper-shaped series. [`Scale`] lets CI run the same code at reduced
//! size; the committed EXPERIMENTS.md numbers use [`Scale::Full`].
//!
//! Sweeps fan out across OS threads (one deterministic `Sim` per point,
//! results joined in order) via [`parallel_sweep`] — the experiments are
//! embarrassingly parallel and the engine is single-threaded by design.

#![forbid(unsafe_code)]

pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod report;

use peertrack::{GroupConfig, IndexingMode};
use std::str::FromStr;

/// The group configuration the experiments run: the paper's §IV-C cost
/// analysis assumes capture windows large relative to the group count
/// ("the number of received objects No can be very large, while
/// 2^Lp ... is relatively small"), so `Nmax` is set high enough that a
/// site's whole inventory wave fits one indexing cycle. All other
/// parameters are the library defaults.
pub fn experiment_group_mode() -> IndexingMode {
    IndexingMode::Group(GroupConfig { n_max: 100_000, ..GroupConfig::default() })
}

/// Experiment size: `Full` is the paper's setup; `Quick` divides data
/// volume by 10 and network size by 4 for smoke tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The paper's parameters (512 nodes, 5 000 objects/node max).
    Full,
    /// Reduced parameters for fast runs.
    Quick,
}

impl Scale {
    /// The scale a `PEERTRACK_SCALE` value selects: unset means `Quick`,
    /// anything other than `full`/`quick` is an error.
    pub fn from_var(value: Option<&str>) -> Result<Scale, String> {
        value.map_or(Ok(Scale::Quick), str::parse)
    }

    /// Read the `PEERTRACK_SCALE` environment variable. An unknown value
    /// exits 2 rather than falling back: a typo must not regenerate the
    /// figures at quick scale under the paper's name.
    pub fn from_env() -> Scale {
        // Lossy, so a non-UTF-8 value is reported like any other typo.
        let var = std::env::var_os("PEERTRACK_SCALE").map(|v| v.to_string_lossy().into_owned());
        Scale::from_var(var.as_deref()).unwrap_or_else(|e| {
            eprintln!("PEERTRACK_SCALE: {e}");
            std::process::exit(2)
        })
    }

    /// Divide an object count by the scale factor.
    pub fn objects(&self, full: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Quick => (full / 10).max(10),
        }
    }

    /// Divide a node count by the scale factor.
    pub fn nodes(&self, full: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Quick => (full / 4).max(8),
        }
    }
}

impl FromStr for Scale {
    type Err = String;
    fn from_str(s: &str) -> Result<Scale, String> {
        match s.to_ascii_lowercase().as_str() {
            "full" => Ok(Scale::Full),
            "quick" => Ok(Scale::Quick),
            other => Err(format!("unknown scale {other:?} (want full|quick)")),
        }
    }
}

/// Run `f` over `inputs` on worker threads (one per input, capped at the
/// parallelism the OS reports), returning outputs in input order.
///
/// Each point builds its own deterministic `Sim`, so results are
/// identical to a sequential run — this only buys wall-clock.
pub fn parallel_sweep<I, O, F>(inputs: Vec<I>, f: F) -> Vec<O>
where
    I: Send + Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let n = inputs.len();
    if n == 0 {
        return Vec::new();
    }
    let workers =
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4).min(n);
    // Workers claim contiguous *chunks* of input indices from a shared
    // counter (4 chunks per worker keeps the tail balanced without
    // hammering the counter once per point) and stream (index, output)
    // pairs back; the scope owner reassembles in order.
    let chunk = n.div_ceil(workers * 4).max(1);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let (tx, rx) = std::sync::mpsc::channel::<(usize, O)>();
    let inputs = &inputs;
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            scope.spawn(move || loop {
                let start = next.fetch_add(chunk, std::sync::atomic::Ordering::Relaxed);
                if start >= n {
                    break;
                }
                for i in start..(start + chunk).min(n) {
                    tx.send((i, f(&inputs[i]))).expect("collector alive");
                }
            });
        }
        drop(tx);
        let mut out: Vec<Option<O>> = (0..n).map(|_| None).collect();
        for (i, o) in rx {
            out[i] = Some(o);
        }
        out.into_iter().map(|o| o.expect("all slots filled")).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!("full".parse::<Scale>().unwrap(), Scale::Full);
        assert_eq!("QUICK".parse::<Scale>().unwrap(), Scale::Quick);
        assert!("huge".parse::<Scale>().is_err());
        assert_eq!(Scale::from_var(None), Ok(Scale::Quick));
        assert_eq!(Scale::from_var(Some("full")), Ok(Scale::Full));
        assert!(Scale::from_var(Some("ful")).unwrap_err().contains("\"ful\""));
    }

    #[test]
    fn scale_factors() {
        assert_eq!(Scale::Full.objects(5000), 5000);
        assert_eq!(Scale::Quick.objects(5000), 500);
        assert_eq!(Scale::Quick.objects(50), 10);
        assert_eq!(Scale::Full.nodes(512), 512);
        assert_eq!(Scale::Quick.nodes(512), 128);
    }

    #[test]
    fn parallel_sweep_preserves_order_and_results() {
        let inputs: Vec<u64> = (0..50).collect();
        let out = parallel_sweep(inputs.clone(), |&x| x * x);
        let expect: Vec<u64> = inputs.iter().map(|x| x * x).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn parallel_sweep_empty() {
        let out: Vec<u32> = parallel_sweep(Vec::<u32>::new(), |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn parallel_sweep_chunking_covers_awkward_sizes() {
        // Sizes around the chunk boundaries: smaller than the worker
        // count, prime, one-off from a chunk multiple.
        for n in [1usize, 2, 3, 7, 31, 97, 103, 128] {
            let inputs: Vec<usize> = (0..n).collect();
            let out = parallel_sweep(inputs.clone(), |&x| x + 1);
            let expect: Vec<usize> = inputs.iter().map(|x| x + 1).collect();
            assert_eq!(out, expect, "n={n}");
        }
    }
}
