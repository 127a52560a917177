//! The traced benchmark binary: same program with the counting allocator
//! installed, for the per-layer numbers of `--trace 1`.

#[global_allocator]
static ALLOC: at_benchmark::alloc::CountingAlloc = at_benchmark::alloc::CountingAlloc;

fn main() -> std::process::ExitCode {
    at_benchmark::main(true)
}
