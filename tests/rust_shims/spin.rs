//! A stand-in for the `spin` crate, written for the type checks in `tests/`:
//! `spin::Mutex` as the real crate shows it to its users. Its value is private
//! and reached only through `lock()`, whose guard derefs to it and unlocks on
//! drop, so a hand-written body that bypasses the lock fails to compile here as
//! it would against `spin`. The lock is a plain spin on an `AtomicBool`.
#![no_std]

use core::cell::UnsafeCell;
use core::ops::{Deref, DerefMut};
use core::sync::atomic::{AtomicBool, Ordering};

pub struct Mutex<T> {
    locked: AtomicBool,
    data: UnsafeCell<T>,
}

// spin's own bound: a Mutex is shared between threads when its value may move between them
unsafe impl<T: Send> Sync for Mutex<T> {}

impl<T> Mutex<T> {
    pub const fn new(data: T) -> Self {
        Mutex { locked: AtomicBool::new(false), data: UnsafeCell::new(data) }
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        while self.locked.compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            core::hint::spin_loop();
        }
        // the flag is ours until the guard drops, so no other reference to `data` exists
        MutexGuard { locked: &self.locked, data: unsafe { &mut *self.data.get() } }
    }
}

pub struct MutexGuard<'a, T> {
    locked: &'a AtomicBool,
    data: &'a mut T,
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.data
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.data
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        self.locked.store(false, Ordering::Release);
    }
}
