//! Wall-clock spans around the benchmark's calls into each layer, kept in
//! memory and written out at the end as a Chrome trace.

use std::path::Path;
use std::time::Instant;

use gtw_desim::{chrome_trace, validate_chrome_trace, SimTime, Span, SpanRecorder, TraceCheck};

/// Span store with one wall-clock epoch; span times are host
/// nanoseconds since it, carried in [`SimTime`] as the trace exporter
/// expects.
pub struct Spans {
    epoch: Instant,
    recorder: SpanRecorder,
}

impl Default for Spans {
    fn default() -> Self {
        Spans { epoch: Instant::now(), recorder: SpanRecorder::with_capacity(1 << 16) }
    }
}

impl Spans {
    /// The current instant on the span clock.
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }

    /// Record a span from `begin` to now.
    pub fn record(&mut self, track: &str, name: &str, begin: SimTime) {
        let end = self.now();
        self.recorder.record(track, name, begin, end);
    }

    /// Add a span recorded on another clock whose zero is `origin` on
    /// this one (the FIRE pipeline's own stage spans).
    pub fn add_offset(&mut self, track: &str, span: &Span, origin: SimTime) {
        let shift = |t: SimTime| SimTime::from_nanos(origin.as_nanos() + t.as_nanos());
        self.recorder.record(track, span.name.clone(), shift(span.begin), shift(span.end));
    }

    /// Write the spans to `path` as Chrome trace-event JSON, read the
    /// file back and validate it.
    pub fn write_checked(&self, path: &Path) -> Result<TraceCheck, String> {
        let text = chrome_trace(self.recorder.spans()).dump();
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        std::fs::write(path, &text).map_err(|e| format!("write {}: {e}", path.display()))?;
        let back =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let check = validate_chrome_trace(&back)?;
        if check.spans != self.recorder.len() {
            return Err(format!(
                "trace holds {} spans, {} recorded",
                check.spans,
                self.recorder.len()
            ));
        }
        Ok(check)
    }
}
