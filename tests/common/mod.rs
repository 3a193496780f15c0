//! Helpers shared by the integration suites that pin recorded bytes
//! and hashes. Each suite uses part of them.
#![allow(dead_code)]

/// FNV-1a, 64-bit: the hash every recorded golden hash is taken with.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Asserts that `got` equals the golden `want` byte for byte. A failure
/// names the golden and reports the first differing line and both line
/// counts, instead of two multi-megabyte strings.
pub fn assert_bytes_eq(got: &str, want: &str, golden: &str) {
    if got == want {
        return;
    }
    let mismatch = got
        .lines()
        .zip(want.lines())
        .position(|(g, w)| g != w)
        .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
    let g = got.lines().nth(mismatch).unwrap_or("<eof>");
    let w = want.lines().nth(mismatch).unwrap_or("<eof>");
    panic!(
        "{golden}: output diverged from the checked-in golden at line {}:\n  got:  {g}\n  want: {w}\n\
         (got {} lines, want {} lines)",
        mismatch + 1,
        got.lines().count(),
        want.lines().count()
    );
}
