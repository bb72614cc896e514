//! The five named workloads. Sizes are fixed: no environment variable
//! scales them, so a number from one run means the same as from another.

mod churn;
mod serve_open;
mod static_index;
mod variants;

use crate::harness::{Env, RunOutput};

/// Runs the workload called `name`, or `None` for an unknown name.
pub fn run(name: &str, env: &Env) -> Option<RunOutput> {
    Some(match name {
        "hidim" => static_index::hidim(env),
        "lodim" => static_index::lodim(env),
        "variants" => variants::run(env),
        "serve-open" => serve_open::run(env),
        "churn" => churn::run(env),
        _ => return None,
    })
}
