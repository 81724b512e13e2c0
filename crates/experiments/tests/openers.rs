//! Seeded fuzzing of the hand-rolled openers that read bytes from outside
//! the process: HTTP requests and responses, flat JSON request bodies,
//! journal entries, result frames and assembly source. Valid inputs are
//! mutated with a fixed-seed generator — bytes flipped or repeated, tails
//! truncated, two inputs spliced — and every opener must answer each mutant
//! with a value or an error: never a panic, and never an allocation above
//! its cap. A sealed frame that was mutated never opens; source that
//! assembles prints as source that assembles to the same program.

use experiments::campaign::cache::{open_result, seal_result, ResultMeta};
use experiments::serve::http::{read_request, read_response, MAX_BODY, MAX_RESPONSE_BODY};
use experiments::serve::journal::{open_entry, Journal};
use experiments::serve::json::parse_flat;
use simt_isa::codec::fnv1a64;
use simt_isa::{assemble, Program};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Mutants drawn per opener.
const MUTANTS: usize = 1500;

/// The system allocator, noting the largest single request each thread
/// makes.
struct Largest;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: Largest = Largest;

/// Runs `f`, returning its value and the largest single allocation it made.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|l| l.set(0));
    let value = f();
    (value, LARGEST.with(Cell::get))
}

/// Fixed-seed xorshift64 stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// One to three mutations of a corpus member: a flipped byte, a repeated
/// byte (which lengthens a number: `Content-Length: 65536` becomes
/// `655536`), a truncated tail, or the front of one member spliced onto
/// the back of another.
fn mutant(rng: &mut Rng, corpus: &[Vec<u8>]) -> Vec<u8> {
    let mut bytes = corpus[rng.below(corpus.len())].clone();
    for _ in 0..=rng.below(3) {
        match rng.below(4) {
            0 if !bytes.is_empty() => {
                let at = rng.below(bytes.len());
                bytes[at] ^= 1 + rng.below(255) as u8;
            }
            1 if !bytes.is_empty() => {
                let at = rng.below(bytes.len());
                bytes.insert(at, bytes[at]);
            }
            2 => bytes.truncate(rng.below(bytes.len())),
            _ => {
                let other = &corpus[rng.below(corpus.len())];
                let back = &other[rng.below(other.len() + 1)..];
                bytes.truncate(rng.below(bytes.len() + 1));
                bytes.extend_from_slice(back);
            }
        }
    }
    bytes
}

fn request(head: &str, body: &[u8]) -> Vec<u8> {
    let mut bytes = format!("{head}Content-Length: {}\r\n\r\n", body.len()).into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

#[test]
fn requests_open_or_fail_within_their_cap() {
    let corpus = vec![
        request(
            "POST /jobs?wait_ms=250 HTTP/1.1\r\nHost: x\r\n",
            b"{\"artifact\": \"fig3\", \"scale\": \"test\"}",
        ),
        request("GET /jobs/00000000000000ab HTTP/1.1\r\nHost: x\r\n", b""),
        b"POST /drain HTTP/1.1\nhost: x\ncontent-length: 0\n\n".to_vec(),
        request("POST /jobs HTTP/1.1\r\n", &vec![b'x'; MAX_BODY]),
    ];
    // A head announcing a body at the cap that never arrives.
    let announced = format!("POST /jobs HTTP/1.1\r\nContent-Length: {MAX_BODY}\r\n\r\n");
    for valid in &corpus {
        assert!(read_request(&mut valid.as_slice()).is_ok());
        // A strict prefix is never a shorter request; the long body is
        // sampled, not cut at every byte.
        let step = if valid.len() > 4096 { 997 } else { 1 };
        for cut in (0..valid.len()).step_by(step) {
            assert!(
                read_request(&mut &valid[..cut]).is_err(),
                "{cut}-byte prefix parsed"
            );
        }
    }
    let corpus = [corpus, vec![announced.into_bytes()]].concat();
    let mut rng = Rng(0x5eed_0001);
    for _ in 0..MUTANTS {
        let bytes = mutant(&mut rng, &corpus);
        let (got, largest) = largest_allocation(|| read_request(&mut bytes.as_slice()));
        assert!(largest <= MAX_BODY, "{largest}-byte allocation");
        if let Ok(req) = got {
            assert!(req.body.len() <= MAX_BODY);
        }
    }
}

#[test]
fn responses_open_or_fail_within_their_cap() {
    let corpus = vec![
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 15\r\nConnection: close\r\n\r\n{\"ready\": true}".to_vec(),
        b"HTTP/1.1 429 Too Many Requests\r\nContent-Length: 13\r\nRetry-After-Ms: 50\r\n\r\n{\"shed\":true}".to_vec(),
        // A head announcing a body at the cap that never arrives.
        format!("HTTP/1.1 200 OK\r\nContent-Length: {MAX_RESPONSE_BODY}\r\n\r\n").into_bytes(),
    ];
    let shed = read_response(&mut corpus[1].as_slice()).expect("valid response");
    assert_eq!((shed.status, shed.retry_after_ms), (429, Some(50)));
    let mut rng = Rng(0x5eed_0002);
    for _ in 0..MUTANTS {
        let bytes = mutant(&mut rng, &corpus);
        let (got, largest) = largest_allocation(|| read_response(&mut bytes.as_slice()));
        assert!(largest <= MAX_RESPONSE_BODY, "{largest}-byte allocation");
        if let Ok(resp) = got {
            assert!(resp.body.len() <= MAX_RESPONSE_BODY);
        }
    }
}

#[test]
fn flat_json_parses_or_fails_without_panicking() {
    let corpus: Vec<Vec<u8>> = [
        "{\"artifact\": \"fig7\", \"scale\": \"test\", \"json\": false, \"deadline_ms\": 5000}",
        "{}",
        " {\"a\": \"q\\\"uote\\\\d \\n\", \"n\": -12, \"t\": true, \"z\": null} ",
    ]
    .iter()
    .map(|s| s.as_bytes().to_vec())
    .collect();
    for valid in &corpus {
        assert!(parse_flat(std::str::from_utf8(valid).expect("utf-8")).is_ok());
    }
    let mut rng = Rng(0x5eed_0003);
    for _ in 0..MUTANTS {
        let bytes = mutant(&mut rng, &corpus);
        let _ = parse_flat(&String::from_utf8_lossy(&bytes));
    }
}

/// Mutants of sealed frames: none may open, and opening one allocates no
/// more than the frame's own length, give or take an error message.
fn assert_mutants_never_open<T>(
    seed: u64,
    corpus: &[Vec<u8>],
    open: impl Fn(&[u8]) -> Result<T, String>,
) {
    for valid in corpus {
        assert!(open(valid).is_ok(), "a sealed frame opens");
    }
    let mut rng = Rng(seed);
    for _ in 0..MUTANTS {
        let bytes = mutant(&mut rng, corpus);
        if corpus.contains(&bytes) {
            continue;
        }
        let (got, largest) = largest_allocation(|| open(&bytes));
        assert!(got.is_err(), "a mutated frame opened: {bytes:?}");
        assert!(largest <= bytes.len() + 1024, "{largest}-byte allocation");
    }
}

#[test]
fn mutated_journal_entries_never_open() {
    let dir = std::env::temp_dir().join(format!("openers-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (mut journal, _) = Journal::open(&dir).expect("journal opens");
    journal
        .append("fig3", "test", false, 0, 0xabc)
        .expect("append");
    journal
        .append("bvh@dynamic", "quick", true, 5000, u64::MAX)
        .expect("append");
    let corpus: Vec<Vec<u8>> = std::fs::read_dir(&dir)
        .expect("journal dir")
        .flatten()
        .map(|e| std::fs::read(e.path()).expect("entry reads"))
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(corpus.len(), 2);
    assert_mutants_never_open(0x5eed_0004, &corpus, open_entry);
}

#[test]
fn mutated_result_frames_never_open() {
    let meta = |ok: bool, error: &str| ResultMeta {
        artifact: "fig7".to_string(),
        fingerprint: 0x1234_5678_9abc_def0,
        ok,
        error: error.to_string(),
    };
    let corpus = vec![
        seal_result(&meta(true, ""), b"Fig. 7 ...\n\n"),
        seal_result(&meta(false, "fig7: fault at cycle 3"), b""),
    ];
    assert_mutants_never_open(0x5eed_0005, &corpus, open_result);
}

/// The four embedded kernels' source: the assembler fuzz's corpus.
fn kernel_sources() -> [String; 4] {
    [
        rt_kernels::traditional::source(),
        rt_kernels::ukernel::source(),
        rt_kernels::pt_traditional::source(),
        rt_kernels::pt_ukernel::source(),
    ]
}

/// `to_source` of each embedded kernel is the text it printed when the
/// instruction set's vocabulary moved into one declaration: the print
/// side of the fixed point whose byte side the pinned fingerprints hold.
#[test]
fn the_embedded_kernels_print_the_same_source() {
    let digests = kernel_sources().map(|src| {
        let program = assemble(&src).expect("an embedded kernel assembles");
        fnv1a64(program.to_source().as_bytes())
    });
    assert_eq!(
        digests,
        [
            0xa4d5_c7fb_5e17_a861,
            0x6282_ae71_90ae_5384,
            0x6e5c_a7ad_6ff9_03f1,
            0xaba8_06a7_4a3e_ebe2
        ],
        "{digests:#018x?}"
    );
}

/// What a program is made of: instructions, labels, entries (sorted) and
/// resources.
fn parts(p: &Program) -> impl PartialEq + std::fmt::Debug + '_ {
    let mut entries: Vec<_> = p.entry_points().iter().map(|e| (&e.name, e.pc)).collect();
    entries.sort();
    (p.instrs(), p.labels(), entries, p.resource_usage())
}

/// The largest single allocation assembling `len` bytes of source may
/// make. The assembler's allocations are copies of the input or of one of
/// its lines, error messages that quote one, and tables with one entry per
/// line: the pending lines (32 bytes each, doubled as the table grows) and
/// the instructions. A line takes at least two bytes, so no table exceeds
/// 32 bytes per input byte; the constant covers the fixed-size maps of a
/// small program.
fn assembler_cap(len: usize) -> usize {
    32 * len + 4096
}

#[test]
fn assembler_input_assembles_or_fails_within_its_cap() {
    let corpus: Vec<Vec<u8>> = kernel_sources().map(String::into_bytes).into();
    let mut rng = Rng(0x5eed_0006);
    let mut assembled = 0;
    for _ in 0..MUTANTS {
        let bytes = mutant(&mut rng, &corpus);
        let src = String::from_utf8_lossy(&bytes);
        let (got, largest) = largest_allocation(|| assemble(&src));
        assert!(
            largest <= assembler_cap(src.len()),
            "{largest}-byte allocation for {} bytes",
            src.len()
        );
        let Ok(program) = got else { continue };
        assembled += 1;
        let printed = program.to_source();
        let again = assemble(&printed)
            .unwrap_or_else(|e| panic!("printed source does not assemble: {e}\n{printed}"));
        assert_eq!(parts(&program), parts(&again), "{printed}");
    }
    // Enough mutants assemble that the round trip is exercised.
    assert!(assembled >= MUTANTS / 10, "{assembled} mutants assembled");
}
