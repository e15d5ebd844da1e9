//! A stand-in for the `itron` crate, written for the type checks in `tests/`:
//! just the names that `ItronrsGenPlugin` definitions import, `abi`'s kernel
//! types and `TaskRef::TaskRef`. Nothing here is meant to run.
#![no_std]

pub mod abi {
    pub type ID = i32;
    pub type ATR = u32;
    pub type PRI = i32;
}

#[allow(non_snake_case)]
pub mod TaskRef {
    // a private import: `use itron::TaskRef::*` does not bring `NonZeroI32` along
    use core::num::NonZeroI32;

    pub struct TaskRef {
        id: NonZeroI32,
    }

    impl TaskRef {
        /// # Safety
        /// `id` must name a task of the kernel.
        pub const unsafe fn from_raw_nonnull(id: NonZeroI32) -> Self {
            TaskRef { id }
        }
    }
}
