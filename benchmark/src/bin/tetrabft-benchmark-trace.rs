//! The benchmark binary for traced runs (`--trace 1`): the same program
//! under a counting global allocator, so allocation counts never touch
//! the untraced numbers.

use tetrabft_bench::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

fn main() -> std::process::ExitCode {
    tetrabft_benchmark::main(Some(&ALLOC))
}
