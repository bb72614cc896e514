#![warn(missing_docs)]

//! Experiment harness regenerating every table and figure of the survey's
//! evaluation (§5 and the appendices).
//!
//! Each paper artifact has one binary under `src/bin/` (see DESIGN.md's
//! experiment index); this library holds what they share:
//!
//! - [`datasets`]: the real-world stand-ins and Table 10 synthetic sets,
//!   with ground truth attached.
//! - [`runner`]: build reports, beam sweeps (recall / QPS / NDC / hops),
//!   and target-recall searches.
//! - [`report`]: aligned-table printing and CSV export to `results/`.
//!
//! Environment knobs (all binaries):
//! - `WEAVESS_SCALE` — cardinality scale for the stand-ins (default 0.003,
//!   i.e. SIFT1M → 3 000 points; raise on bigger machines).
//! - `WEAVESS_THREADS` — construction threads (default: all cores).
//! - `WEAVESS_QUERY_THREADS` — batch-serving worker threads for the
//!   threaded QPS/latency tables (default: all cores).
//! - `WEAVESS_ALGOS` — comma-separated algorithm filter (default: all).

pub mod datasets;
pub mod plot;
pub mod report;
pub mod runner;
pub mod tuning;

/// Reads the cardinality scale from `WEAVESS_SCALE`.
pub fn env_scale() -> f64 {
    std::env::var("WEAVESS_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.003)
}

/// Reads the construction thread count from `WEAVESS_THREADS`.
pub fn env_threads() -> usize {
    std::env::var("WEAVESS_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        })
}

/// Reads the batch-serving worker count from `WEAVESS_QUERY_THREADS`
/// (default: all cores). This is the thread count the serving tables
/// (`search_eval`'s QPS/latency columns) are measured at; construction
/// threads are governed separately by `WEAVESS_THREADS`.
pub fn env_query_threads() -> usize {
    std::env::var("WEAVESS_QUERY_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        })
}

/// Reads the algorithm filter from `WEAVESS_ALGOS` (names as in the
/// paper's tables, comma separated); `None` = all.
pub fn env_algos() -> Option<Vec<String>> {
    std::env::var("WEAVESS_ALGOS").ok().map(|s| {
        s.split(',')
            .map(|x| x.trim().to_string())
            .filter(|x| !x.is_empty())
            .collect()
    })
}

/// Reads the dataset filter from `WEAVESS_DATASETS` (names as in Table 3,
/// comma separated); `None` = all.
pub fn env_datasets() -> Option<Vec<String>> {
    std::env::var("WEAVESS_DATASETS").ok().map(|s| {
        s.split(',')
            .map(|x| x.trim().to_string())
            .filter(|x| !x.is_empty())
            .collect()
    })
}

/// Applies the `WEAVESS_DATASETS` filter to a dataset list.
pub fn select_datasets(sets: Vec<datasets::NamedDataset>) -> Vec<datasets::NamedDataset> {
    match env_datasets() {
        None => sets,
        Some(names) => sets
            .into_iter()
            .filter(|d| names.iter().any(|n| n.eq_ignore_ascii_case(&d.name)))
            .collect(),
    }
}

/// Selects algorithms honoring the `WEAVESS_ALGOS` filter.
pub fn select_algos(all: &[weavess_core::algorithms::Algo]) -> Vec<weavess_core::algorithms::Algo> {
    match env_algos() {
        None => all.to_vec(),
        Some(names) => all
            .iter()
            .copied()
            .filter(|a| names.iter().any(|n| n.eq_ignore_ascii_case(a.name())))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weavess_core::algorithms::Algo;

    /// One test mutates the process environment for all the env_* helpers
    /// (a single #[test] so parallel tests never race on env vars).
    #[test]
    fn env_knobs_parse_and_filter() {
        std::env::set_var("WEAVESS_SCALE", "0.25");
        assert_eq!(env_scale(), 0.25);
        std::env::remove_var("WEAVESS_SCALE");
        assert_eq!(env_scale(), 0.003);

        std::env::set_var("WEAVESS_THREADS", "3");
        assert_eq!(env_threads(), 3);
        std::env::remove_var("WEAVESS_THREADS");
        assert!(env_threads() >= 1);

        std::env::set_var("WEAVESS_QUERY_THREADS", "5");
        assert_eq!(env_query_threads(), 5);
        std::env::remove_var("WEAVESS_QUERY_THREADS");
        assert!(env_query_threads() >= 1);

        std::env::set_var("WEAVESS_ALGOS", "nsg, HNSW ,kgraph");
        let picked = select_algos(Algo::all());
        let names: Vec<&str> = picked.iter().map(|a| a.name()).collect();
        assert_eq!(names, vec!["KGraph", "HNSW", "NSG"]);
        std::env::remove_var("WEAVESS_ALGOS");
        assert_eq!(select_algos(Algo::all()).len(), Algo::all().len());

        std::env::set_var("WEAVESS_DATASETS", "sift1m");
        let sets = datasets::real_world_standins(0.002, 2);
        let picked = select_datasets(sets);
        assert_eq!(picked.len(), 1);
        assert_eq!(picked[0].name, "SIFT1M");
        std::env::remove_var("WEAVESS_DATASETS");
    }
}
