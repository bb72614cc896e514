//! Build-phase spans: per-component wall time and distance computations
//! for index construction.
//!
//! The paper attributes construction cost per pipeline component (C1
//! init, C2 candidates, C3 selection, C4/C5 connectivity — Table 15 /
//! Figure 10); the builders here report the same attribution online.
//! Builders call [`span`] around each phase unconditionally; when no
//! profile collection is active on the calling thread the call is one
//! thread-local read and a branch, so the 17 builder APIs stay unchanged
//! and unprofiled builds pay nothing measurable.
//!
//! Scope is thread-local on the *orchestrating* thread: the parallel
//! helpers in [`crate::parallel`] block until their workers finish, so a
//! span around a `par_fill` records the phase's true wall time. Distance
//! computations performed inside worker closures are attributed by the
//! builder summing them (per-chunk returns or an atomic) and calling
//! [`add_span_ndc`] within the span. The orchestrating thread runs chunks
//! too, so a worker closure never calls [`span`] or [`add_span_ndc`]
//! itself: on that thread it would record into the build's profile.

use std::cell::RefCell;
use std::time::Instant;

/// One profiled construction phase.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildSpan {
    /// Component label, e.g. `"C1 init"` or `"C3 selection"`.
    pub component: &'static str,
    /// Wall-clock seconds spent in the phase.
    pub secs: f64,
    /// Distance computations attributed to the phase (0 when the phase
    /// does not flow its counters out of worker closures).
    pub ndc: u64,
}

/// A build's per-component cost attribution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BuildProfile {
    /// Algorithm or pipeline name the profile describes.
    pub name: String,
    /// Total wall-clock seconds of the profiled build.
    pub total_secs: f64,
    /// Phases in execution order. Nested spans appear after their parent.
    pub spans: Vec<BuildSpan>,
}

impl BuildProfile {
    /// Seconds of the first span with this component label.
    pub fn span_secs(&self, component: &str) -> Option<f64> {
        self.spans
            .iter()
            .find(|s| s.component == component)
            .map(|s| s.secs)
    }

    /// JSON rendering (hand-rolled; the workspace is dependency-free).
    pub fn to_json(&self) -> String {
        let mut spans = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                spans.push_str(", ");
            }
            spans.push_str(&format!(
                "{{\"component\": \"{}\", \"secs\": {:.6}, \"ndc\": {}}}",
                s.component, s.secs, s.ndc
            ));
        }
        format!(
            "{{\"name\": \"{}\", \"total_secs\": {:.6}, \"spans\": [{spans}]}}",
            self.name, self.total_secs
        )
    }
}

struct ActiveProfile {
    spans: Vec<BuildSpan>,
    /// Indices into `spans` of the currently open (nested) spans.
    open: Vec<usize>,
}

thread_local! {
    static ACTIVE: RefCell<Option<ActiveProfile>> = const { RefCell::new(None) };
}

/// Runs `f` with span collection active on this thread, returning its
/// result and the collected [`BuildProfile`]. Nested activations are not
/// supported: the inner activation wins and the outer profile records no
/// spans from the inner region (builders never nest in practice).
pub fn profile_build<R>(name: &str, f: impl FnOnce() -> R) -> (R, BuildProfile) {
    let prev = ACTIVE.with(|a| {
        a.borrow_mut().replace(ActiveProfile {
            spans: Vec::new(),
            open: Vec::new(),
        })
    });
    let t0 = Instant::now();
    let out = f();
    let total_secs = t0.elapsed().as_secs_f64();
    let state = ACTIVE.with(|a| std::mem::replace(&mut *a.borrow_mut(), prev));
    let spans = state.map(|s| s.spans).unwrap_or_default();
    (
        out,
        BuildProfile {
            name: name.to_string(),
            total_secs,
            spans,
        },
    )
}

/// Wraps one construction phase. When no [`profile_build`] is active on
/// this thread, this is a thread-local read plus a branch around `f`.
pub fn span<R>(component: &'static str, f: impl FnOnce() -> R) -> R {
    let idx = ACTIVE.with(|a| {
        let mut a = a.borrow_mut();
        a.as_mut().map(|state| {
            state.spans.push(BuildSpan {
                component,
                secs: 0.0,
                ndc: 0,
            });
            let idx = state.spans.len() - 1;
            state.open.push(idx);
            idx
        })
    });
    let Some(idx) = idx else {
        return f();
    };
    let t0 = Instant::now();
    let out = f();
    let secs = t0.elapsed().as_secs_f64();
    ACTIVE.with(|a| {
        let mut a = a.borrow_mut();
        if let Some(state) = a.as_mut() {
            if let Some(s) = state.spans.get_mut(idx) {
                s.secs = secs;
            }
            state.open.pop();
        }
    });
    out
}

/// Attributes `ndc` distance computations to the innermost open span (a
/// no-op outside any span or without active profiling). Builders use this
/// to flow worker-side counters into the phase that spent them.
pub fn add_span_ndc(ndc: u64) {
    ACTIVE.with(|a| {
        let mut a = a.borrow_mut();
        if let Some(state) = a.as_mut() {
            if let Some(&idx) = state.open.last() {
                state.spans[idx].ndc += ndc;
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_outside_profiling_are_transparent() {
        let v = span("unprofiled", || 41 + 1);
        assert_eq!(v, 42);
        add_span_ndc(10); // no-op, must not panic
    }

    #[test]
    fn profile_collects_spans_in_order_with_ndc() {
        let (out, profile) = profile_build("test", || {
            let a = span("C1 init", || {
                add_span_ndc(100);
                1
            });
            let b = span("C2 candidates", || {
                add_span_ndc(7);
                add_span_ndc(3);
                2
            });
            a + b
        });
        assert_eq!(out, 3);
        assert_eq!(profile.name, "test");
        assert_eq!(profile.spans.len(), 2);
        assert_eq!(profile.spans[0].component, "C1 init");
        assert_eq!(profile.spans[0].ndc, 100);
        assert_eq!(profile.spans[1].ndc, 10);
        assert!(profile.total_secs >= profile.spans.iter().map(|s| s.secs).sum::<f64>() * 0.5);
        assert!(profile.span_secs("C1 init").is_some());
        assert!(profile.span_secs("missing").is_none());
        let json = profile.to_json();
        assert!(json.contains("\"component\": \"C2 candidates\""));
    }

    #[test]
    fn nested_spans_attribute_ndc_to_the_innermost() {
        let (_, profile) = profile_build("nest", || {
            span("outer", || {
                add_span_ndc(1);
                span("inner", || add_span_ndc(5));
                add_span_ndc(2);
            })
        });
        let outer = profile
            .spans
            .iter()
            .find(|s| s.component == "outer")
            .unwrap();
        let inner = profile
            .spans
            .iter()
            .find(|s| s.component == "inner")
            .unwrap();
        assert_eq!(outer.ndc, 3);
        assert_eq!(inner.ndc, 5);
    }

    #[test]
    fn worker_threads_do_not_leak_into_the_profile() {
        let (_, profile) = profile_build("threads", || {
            span("phase", || {
                std::thread::scope(|s| {
                    s.spawn(|| {
                        // Worker thread: no active profile here.
                        add_span_ndc(999);
                        span("worker-span", || ());
                    });
                });
            })
        });
        assert_eq!(profile.spans.len(), 1);
        assert_eq!(profile.spans[0].ndc, 0);
    }
}
