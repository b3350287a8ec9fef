//! Fixture: I/O error paths must propagate, not panic (the `sqs-store`
//! rule): the bare `expect` on fallible I/O below is the golden finding
//! (the `unwrap` is clippy's); `?`-propagation and invariant-expects pass.

use std::fs::File;
use std::io::{self, Read, Write};

pub fn bad_open(path: &str) -> File {
    File::open(path).unwrap()
}

pub fn bad_write(f: &mut File) {
    f.write_all(b"x").expect("disk never fails")
}

pub fn good_open(path: &str) -> io::Result<File> {
    File::open(path)
}

pub fn good_read(f: &mut File) -> io::Result<Vec<u8>> {
    let mut buf = Vec::new();
    f.read_to_end(&mut buf)?;
    Ok(buf)
}

pub fn good_expect(ready: Option<u8>) -> u8 {
    ready.expect("io invariant: caller checked readiness first")
}
