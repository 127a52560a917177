//! The untraced benchmark binary: plain system allocator, every
//! end-to-end number comes from here.

fn main() -> std::process::ExitCode {
    at_benchmark::main(false)
}
