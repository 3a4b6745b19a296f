//! The untraced binary: measures the end-to-end metrics with the system
//! allocator untouched.

fn main() -> std::process::ExitCode {
    proteus_benchmark::main_entry(false)
}
