//! Seeded SC110: two functions acquire the same pair of mutexes in
//! opposite orders — `forward` takes `a` then `b`, while `backward`
//! takes `b` then `a`. Concurrent execution can deadlock; the check
//! must name both witnesses. rustc accepts this, and no test run sees
//! the deadlock unless the schedule is unlucky.

use std::sync::Mutex;

pub struct Shared {
    a: Mutex<u32>,
    b: Mutex<u32>,
}

pub fn forward(s: &Shared) -> u32 {
    let ga = s.a.lock();
    let gb = s.b.lock();
    drop(gb);
    drop(ga);
    0
}

pub fn backward(s: &Shared) -> u32 {
    let gb = s.b.lock();
    let ga = s.a.lock();
    drop(ga);
    drop(gb);
    1
}
