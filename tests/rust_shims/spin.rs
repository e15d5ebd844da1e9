//! A stand-in for the `spin` crate, written for the type checks in `tests/`:
//! just enough of `spin::Mutex` for the statics that generated definitions
//! declare. It has no lock; nothing here is meant to run.
#![no_std]

use core::cell::UnsafeCell;

pub struct Mutex<T> {
    pub data: UnsafeCell<T>,
}

// spin's own bound: a Mutex is shared between threads when its value may move between them
unsafe impl<T: Send> Sync for Mutex<T> {}

impl<T> Mutex<T> {
    pub const fn new(data: T) -> Self {
        Mutex { data: UnsafeCell::new(data) }
    }
}
