//! Byte-level line framing for the daemon's request streams.
//!
//! `BufRead::lines` has two failure modes a long-running daemon cannot
//! afford: a line of invalid UTF-8 surfaces as an `io::Error`
//! indistinguishable from a dead socket (so naive loops hang up, silently
//! dropping everything after it), and there is no line-length bound (so
//! one hostile client can balloon resident memory). [`FrameDecoder`]
//! frames raw bytes instead and makes both conditions *per-line
//! outcomes*:
//!
//! * a line that is not UTF-8 yields [`FrameError::InvalidUtf8`] — the
//!   decoder stays usable and the next line parses normally;
//! * a line longer than the configured bound yields
//!   [`FrameError::Oversized`] while consuming (and discarding) the rest
//!   of the line, never buffering more than the bound plus one read
//!   chunk;
//! * an unterminated final line (EOF without `\n`) is still delivered
//!   by [`FrameDecoder::finish`] — a client that forgets the trailing
//!   newline gets an answer, not a drop.
//!
//! The connection plane feeds every connection through one decoder —
//! TCP sockets and the stdin pipe alike — and maps each [`FrameError`]
//! to a typed `ok:false` response line, keeping the "every accepted line
//! is answered" invariant of the wire protocol. One grammar, one
//! implementation: the chunking-invariance tests below pin it.

use std::collections::VecDeque;
use std::fmt;

/// Default per-line byte bound (1 MiB): far above any legitimate request
/// (the largest registry job line is under 1 KiB) while bounding what a
/// misbehaving client can make the daemon buffer.
pub const DEFAULT_MAX_LINE: usize = 1 << 20;

/// A malformed frame (one line), reported per line — the stream
/// continues.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The line exceeded the configured byte bound; the overflow was
    /// discarded up to the next newline.
    Oversized {
        /// The configured bound the line broke.
        limit: usize,
    },
    /// The line is not valid UTF-8.
    InvalidUtf8,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Oversized { limit } => {
                write!(f, "request line exceeds {limit} bytes")
            }
            FrameError::InvalidUtf8 => write!(f, "request line is not valid UTF-8"),
        }
    }
}

impl std::error::Error for FrameError {}

/// One framed line.
#[derive(Debug, PartialEq, Eq)]
pub enum LineOutcome {
    /// A complete line (without its terminator). The final line is
    /// delivered even if the stream ended without `\n`.
    Line(String),
    /// A malformed line; the decoder has already resynchronized to the
    /// next line.
    Malformed(FrameError),
}

/// The framing grammar, push-based: feed it whatever bytes arrived, pop
/// complete [`LineOutcome`]s.
///
/// A readiness loop cannot block inside `Read`, so the decoder accepts
/// partial lines across any number of `feed` calls and holds at most
/// `max_line + 1` pending bytes (an overflowing line is discarded, not
/// buffered). The caller owns the transport and calls
/// [`finish`](Self::finish) when the peer half-closes, which delivers an
/// unterminated final line.
#[derive(Debug)]
pub struct FrameDecoder {
    max_line: usize,
    /// Bytes of the current (incomplete) line.
    line: Vec<u8>,
    /// The current line already broke the bound; discard until newline.
    overflowing: bool,
    /// Completed outcomes not yet popped.
    ready: VecDeque<LineOutcome>,
}

impl FrameDecoder {
    /// A decoder with a per-line bound of `max_line` bytes (clamped to
    /// at least 1).
    #[must_use]
    pub fn new(max_line: usize) -> Self {
        FrameDecoder {
            max_line: max_line.max(1),
            line: Vec::new(),
            overflowing: false,
            ready: VecDeque::new(),
        }
    }

    /// Feeds a chunk of raw bytes; completed lines become poppable via
    /// [`pop`](Self::pop). Carriage returns immediately before the
    /// newline are stripped (`\r\n` clients work transparently).
    pub fn feed(&mut self, mut chunk: &[u8]) {
        while let Some(nl) = chunk.iter().position(|&b| b == b'\n') {
            let (head, rest) = chunk.split_at(nl);
            chunk = &rest[1..];
            if self.overflowing || self.line.len() + head.len() > self.max_line {
                self.overflowing = false;
                self.line.clear();
                self.ready
                    .push_back(LineOutcome::Malformed(FrameError::Oversized {
                        limit: self.max_line,
                    }));
                continue;
            }
            self.line.extend_from_slice(head);
            let bytes = std::mem::take(&mut self.line);
            self.ready.push_back(Self::complete(bytes));
        }
        // Tail without a newline: fold into the pending line, or tip the
        // line into (unbuffered) overflow.
        if !self.overflowing {
            if self.line.len() + chunk.len() > self.max_line {
                self.overflowing = true;
                self.line.clear();
            } else {
                self.line.extend_from_slice(chunk);
            }
        }
    }

    /// The next completed outcome, if any.
    pub fn pop(&mut self) -> Option<LineOutcome> {
        self.ready.pop_front()
    }

    /// Ends the stream: delivers the unterminated final line (or its
    /// oversize error), or `None` when nothing was pending.
    pub fn finish(&mut self) -> Option<LineOutcome> {
        if self.overflowing {
            self.overflowing = false;
            return Some(LineOutcome::Malformed(FrameError::Oversized {
                limit: self.max_line,
            }));
        }
        if self.line.is_empty() {
            return None;
        }
        let bytes = std::mem::take(&mut self.line);
        Some(Self::complete(bytes))
    }

    /// Whether the decoder holds a partial line (bytes arrived since the
    /// last newline). Distinguishes "idle between requests" from "went
    /// quiet mid-request" — the connection plane's read-deadline signal.
    #[must_use]
    pub fn mid_line(&self) -> bool {
        self.overflowing || !self.line.is_empty()
    }

    fn complete(mut bytes: Vec<u8>) -> LineOutcome {
        if bytes.last() == Some(&b'\r') {
            bytes.pop();
        }
        match String::from_utf8(bytes) {
            Ok(s) => LineOutcome::Line(s),
            Err(_) => LineOutcome::Malformed(FrameError::InvalidUtf8),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feeds `data` to a decoder in `chunk`-byte pieces (simulating
    /// partial writes / small TCP segments), then finishes the stream;
    /// returns every outcome in order.
    fn outcomes(data: &[u8], chunk: usize, max_line: usize) -> Vec<LineOutcome> {
        let mut decoder = FrameDecoder::new(max_line);
        let mut out = Vec::new();
        for piece in data.chunks(chunk.max(1)) {
            decoder.feed(piece);
            while let Some(outcome) = decoder.pop() {
                out.push(outcome);
            }
        }
        out.extend(decoder.finish());
        out
    }

    fn line(s: &str) -> LineOutcome {
        LineOutcome::Line(s.to_string())
    }

    #[test]
    fn plain_lines_in_any_chunking() {
        let data = b"alpha\nbeta\ngamma\n";
        for chunk in [1, 2, 3, 5, 64] {
            assert_eq!(
                outcomes(data, chunk, 1024),
                vec![line("alpha"), line("beta"), line("gamma")],
                "chunk={chunk}"
            );
        }
    }

    #[test]
    fn unterminated_final_line_is_delivered() {
        assert_eq!(
            outcomes(b"alpha\nbeta", 3, 1024),
            vec![line("alpha"), line("beta")]
        );
        // A lone unterminated line too.
        assert_eq!(outcomes(b"solo", 1, 1024), vec![line("solo")]);
    }

    #[test]
    fn crlf_is_stripped() {
        assert_eq!(
            outcomes(b"alpha\r\nbeta\r\n", 4, 1024),
            vec![line("alpha"), line("beta")]
        );
    }

    #[test]
    fn invalid_utf8_poisons_one_line_only() {
        // 0xFF is never valid UTF-8; split across reads (chunk=2) the
        // line must still fail as a unit while its neighbours parse.
        let data = b"ok1\nbad\xFF\xFEline\nok2\n";
        for chunk in [1, 2, 7, 64] {
            assert_eq!(
                outcomes(data, chunk, 1024),
                vec![
                    line("ok1"),
                    LineOutcome::Malformed(FrameError::InvalidUtf8),
                    line("ok2")
                ],
                "chunk={chunk}"
            );
        }
        // Invalid UTF-8 on an unterminated final line is also reported.
        assert_eq!(
            outcomes(b"ok\nbad\xFF", 3, 1024),
            vec![line("ok"), LineOutcome::Malformed(FrameError::InvalidUtf8)]
        );
    }

    #[test]
    fn oversized_lines_are_rejected_and_skipped() {
        // Limit 8: the 12-byte line must come back Oversized, and the
        // decoder must resynchronize to the next line.
        let data = b"tiny\nAAAAAAAAAAAA\nafter\n";
        for chunk in [1, 3, 64] {
            assert_eq!(
                outcomes(data, chunk, 8),
                vec![
                    line("tiny"),
                    LineOutcome::Malformed(FrameError::Oversized { limit: 8 }),
                    line("after")
                ],
                "chunk={chunk}"
            );
        }
        // Oversized *unterminated* final line: reported at the end.
        assert_eq!(
            outcomes(b"ok\nAAAAAAAAAAAA", 4, 8),
            vec![
                line("ok"),
                LineOutcome::Malformed(FrameError::Oversized { limit: 8 })
            ]
        );
        // Memory bound: a huge line is discarded, not buffered. (The
        // buffer never holds more than the bound + one chunk; asserting
        // behaviour, not internals: outcome is one error.)
        let huge = vec![b'x'; 1 << 16];
        assert_eq!(
            outcomes(&huge, 8192, 64),
            vec![LineOutcome::Malformed(FrameError::Oversized { limit: 64 })]
        );
    }

    #[test]
    fn empty_lines_and_empty_stream() {
        assert_eq!(outcomes(b"", 4, 64), Vec::<LineOutcome>::new());
        assert_eq!(outcomes(b"\n\n", 4, 64), vec![line(""), line("")]);
    }

    #[test]
    fn push_decoder_tracks_partial_lines() {
        let mut decoder = FrameDecoder::new(64);
        assert!(!decoder.mid_line(), "fresh decoder is between lines");
        decoder.feed(b"half a requ");
        assert!(decoder.mid_line(), "bytes since the last newline");
        decoder.feed(b"est\n");
        assert!(!decoder.mid_line(), "newline completes the line");
        assert_eq!(decoder.pop(), Some(line("half a request")));
        assert_eq!(decoder.pop(), None);
        // An overflowing (discarded) line still counts as mid-line: the
        // peer owes us its terminating newline.
        decoder.feed(&[b'x'; 100]);
        assert!(decoder.mid_line());
        assert_eq!(
            decoder.finish(),
            Some(LineOutcome::Malformed(FrameError::Oversized { limit: 64 }))
        );
        assert!(!decoder.mid_line(), "finish drains the overflow state");
    }
}
