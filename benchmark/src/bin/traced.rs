//! The traced binary: the same program plus the counting global allocator,
//! for the per-layer metrics (`--trace 1`).

use proteus_benchmark::alloc::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() -> std::process::ExitCode {
    proteus_benchmark::main_entry(true)
}
