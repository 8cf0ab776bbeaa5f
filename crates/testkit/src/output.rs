//! Routable output for the property runner.
//!
//! A bare `println!`/`eprintln!` cannot be captured and asserted on in
//! tests, so the runner's output flows through a process-wide sink: by
//! default lines still go to stdout/stderr, but [`set_sink`] (or the
//! [`capture`] convenience) redirects everything to any `Write`
//! implementor.

use std::fmt;
use std::io::Write;
use std::sync::{Arc, Mutex};

type Sink = Box<dyn Write + Send>;

static SINK: Mutex<Option<Sink>> = Mutex::new(None);

/// Install `sink` as the destination for all runner output (both the
/// stdout- and stderr-flavoured lines), returning the previous sink.
/// `None` restores the stdout/stderr default.
pub fn set_sink(sink: Option<Sink>) -> Option<Sink> {
    let mut guard = SINK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    std::mem::replace(&mut guard, sink)
}

fn write_line(args: fmt::Arguments<'_>, fallback_err: bool) {
    let mut guard = SINK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    match guard.as_mut() {
        Some(sink) => {
            // A broken sink must not panic the runner mid-report.
            let _ = writeln!(sink, "{args}");
        }
        None if fallback_err => eprintln!("{args}"),
        None => println!("{args}"),
    }
}

/// Write one stdout-flavoured line (report lines).
pub fn emit_line(args: fmt::Arguments<'_>) {
    write_line(args, false);
}

/// Write one stderr-flavoured line (failure diagnostics).
pub fn emit_err_line(args: fmt::Arguments<'_>) {
    write_line(args, true);
}

/// `println!` through the runner sink.
#[macro_export]
macro_rules! outln {
    ($($t:tt)*) => {
        $crate::output::emit_line(format_args!($($t)*))
    };
}

/// `eprintln!` through the runner sink.
#[macro_export]
macro_rules! errln {
    ($($t:tt)*) => {
        $crate::output::emit_err_line(format_args!($($t)*))
    };
}

/// A shared in-memory buffer usable as a sink.
#[derive(Clone, Debug, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Run `f` with runner output captured, returning `f`'s result and
/// everything written through the sink while it ran. The previous sink
/// is restored afterwards, even on panic.
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, String) {
    struct Restore(Option<Sink>);
    impl Drop for Restore {
        fn drop(&mut self) {
            set_sink(self.0.take());
        }
    }

    let buf = SharedBuf::default();
    let previous = set_sink(Some(Box::new(buf.clone())));
    let restore = Restore(previous);
    let r = f();
    drop(restore);
    let bytes = std::mem::take(
        &mut *buf
            .0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner),
    );
    (r, String::from_utf8_lossy(&bytes).into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sink is process-global; serialize the tests that swap it.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn capture_collects_both_flavours_and_restores() {
        let _g = LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let ((), text) = capture(|| {
            crate::outln!("plain {}", 1);
            crate::errln!("error {}", 2);
        });
        assert_eq!(text, "plain 1\nerror 2\n");
        // Restored: no sink installed afterwards.
        assert!(set_sink(None).is_none());
    }

    #[test]
    fn capture_nests() {
        let _g = LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let ((), outer) = capture(|| {
            crate::outln!("before");
            let ((), inner) = capture(|| crate::outln!("inner"));
            assert_eq!(inner, "inner\n");
            crate::outln!("after");
        });
        assert_eq!(outer, "before\nafter\n");
    }
}
