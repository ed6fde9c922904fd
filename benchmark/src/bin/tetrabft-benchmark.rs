//! The benchmark binary for untraced runs (`--trace 0`).

fn main() -> std::process::ExitCode {
    tetrabft_benchmark::main(None)
}
