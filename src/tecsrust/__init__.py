"""Batch generator for TECS-style component descriptions: parses a CDL
subset, links the component graph, and deterministically emits Rust
interface contracts, component definitions, impl skeletons, RTOS
configuration lines, and kernel-header constant bindings."""

__version__ = "0.1.0"
