#![forbid(unsafe_code)]
// Clean fixture: everything xcheck must NOT flag. Never compiled.

use std::sync::Arc; // Arc alone is fine — it is not a sync primitive

pub struct Holder {
    // The facade's own types are the sanctioned spelling.
    slot: Arc<bsync::Mutex<Vec<u64>>>,
}

pub fn typed_errors(v: Option<u64>) -> Result<u64, String> {
    v.ok_or_else(|| "missing".to_string())
}

pub fn justified(v: Option<u64>) -> u64 {
    // xcheck:allow(unwrap) — v is checked non-empty by the caller
    v.unwrap()
}

pub fn sanctioned_boundary(f: impl FnOnce() + std::panic::UnwindSafe) -> bool {
    // xcheck:allow(catch-unwind) — reviewed worker isolation boundary
    std::panic::catch_unwind(f).is_ok()
}

pub fn checked_decode(bytes: &[u8]) -> Result<u64, bgp_types::CodecError> {
    // Calling .get_u32() on a Buf would panic on short input; the
    // Reader returns an error instead.
    let mut r = bgp_types::codec::Reader::new(bytes, "example");
    let time = r.u64()?;
    r.finish()?;
    Ok(time)
}

pub fn prose_only() {
    // Mentioning Instant::now or .unwrap()
    // in a comment is fine.
    let doc = "and parking_lot::Mutex inside a string literal is fine";
    let raw = r#"std::sync::Condvar in a raw string is fine"#;
    let _ = (doc, raw);
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_sleep_and_unwrap() {
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert_eq!(Some(5).unwrap(), 5);
    }
}
