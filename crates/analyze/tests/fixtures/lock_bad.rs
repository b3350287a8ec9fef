//! Lock-discipline fixture: a nested guard, shard-over-shard pairs in
//! either order (left to `OrderedMutex`'s runtime check), and I/O under
//! a live guard.

pub fn nested(a: &Mutex<u32>, b: &Mutex<u32>) -> u32 {
    let ga = a.lock().expect("fixture invariant: unpoisoned");
    let gb = b.lock().expect("fixture invariant: unpoisoned");
    *ga + *gb
}

pub fn descending(e: &Engine) -> u32 {
    let hi = e.lock_shard(3);
    let lo = e.lock_shard(1);
    *hi + *lo
}

pub fn ascending_is_legal(e: &Engine) -> u32 {
    let lo = e.lock_shard(1);
    let hi = e.lock_shard(3);
    *lo + *hi
}

pub fn io_under_guard(m: &Mutex<Vec<u8>>, s: &mut TcpStream) {
    let g = m.lock().expect("fixture invariant: unpoisoned");
    s.write_all(&g).expect("fixture invariant: peer alive");
}
