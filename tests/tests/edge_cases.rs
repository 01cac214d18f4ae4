//! Edge cases aimed at the compiler's distance machinery: programs
//! engineered to sit near the limits of the ISA's distance bound, the
//! calling convention, and the frame shuffles.

use straight_compiler::{compile_straight, CodegenError, StraightOptions, MIN_MAX_DISTANCE};
use straight_ir::interp;
use straight_tests::{build_ir, check_chain, check_image};

#[test]
fn long_straightline_block_forces_relays() {
    // A single basic block much longer than max distance 31: the
    // first value is used at the very end, so bounding must relay it.
    // 14 values stay live across a block far longer than the bound;
    // more than ~20 would (correctly) exceed what distance 31 can hold.
    let mut body = String::from("int first = 17;\n");
    for i in 0..10 {
        body.push_str(&format!("int t{i} = {i} * 3 + {};\n", i % 7));
    }
    body.push_str("int pad = 0;\nint k;\nfor (k = 0; k < 1; k++) pad += k;\n");
    body.push_str("int acc = first + pad;\n");
    for i in 0..10 {
        body.push_str(&format!("acc = acc + t{i};\n"));
    }
    let src = format!("int main() {{ {body} print_int(acc); return 0; }}");
    check_chain(&src);
}

#[test]
fn deeply_nested_control_flow() {
    check_chain(
        "int main() {
             int s = 0;
             int a;
             int b;
             int c;
             for (a = 0; a < 4; a++)
                 for (b = 0; b < 4; b++)
                     for (c = 0; c < 4; c++) {
                         if (a == b) { if (b == c) s += 9; else s += 1; }
                         else if (a < b) { while (s % 7 != 0) s++; }
                         else s -= c;
                     }
             print_int(s);
             return 0;
         }",
    );
}

#[test]
fn chain_of_eight_calls_deep() {
    // Return-address handling and spilling through a deep, non-leaf
    // call chain (too big to inline end-to-end).
    let mut src = String::new();
    src.push_str("int f0(int x) { int arr[20]; int i; for (i = 0; i < 20; i++) arr[i] = x + i; return arr[x % 20] + 1; }\n");
    for k in 1..8 {
        src.push_str(&format!(
            "int f{k}(int x) {{ int keep = x * {k}; int r = f{}(x + {k}); return r + keep; }}\n",
            k - 1
        ));
    }
    src.push_str("int main() { print_int(f7(3)); return 0; }");
    check_chain(&src);
}

#[test]
fn arguments_survive_interleaved_calls() {
    check_chain(
        "int id(int x) { return x; }
         int combine(int a, int b, int c, int d) {
             return id(a) * 1000 + id(b) * 100 + id(c) * 10 + id(d);
         }
         int main() { print_int(combine(1, 2, 3, 4)); return 0; }",
    );
}

#[test]
fn loop_with_wide_live_set_at_distance_31() {
    // Twelve accumulators live around the loop back edge: the header
    // frame is wide but must stay within the 31-distance budget.
    let mut decls = String::new();
    let mut updates = String::new();
    let mut sum = String::from("0");
    for i in 0..8 {
        decls.push_str(&format!("int v{i} = {i};\n"));
        updates.push_str(&format!("v{i} = v{i} + i + {i};\n"));
        sum = format!("{sum} + v{i}");
    }
    let src = format!(
        "int main() {{
             {decls}
             int i;
             for (i = 0; i < 25; i++) {{ {updates} }}
             print_int({sum});
             return 0;
         }}"
    );
    check_chain(&src);
}

#[test]
fn raw_mode_relays_retaddr_through_loops() {
    // RAW keeps the return address in the frame of every merge
    // (Figure 10a); make sure a function with a long loop still
    // returns correctly under the tight bound.
    check_chain(
        "int work(int n) {
             int s = 0;
             int i;
             for (i = 0; i < n; i++) s = s * 3 + i;
             return s;
         }
         int main() { print_int(work(40)); return 0; }",
    );
}

#[test]
fn simulator_handles_tiny_iq_pressure() {
    // The 2-way model's 16-entry scheduler under a dependence chain
    // that cannot issue for a long time (division chains).
    check_chain(
        "int main() {
             int d = 1000000;
             int i;
             for (i = 1; i < 40; i++) d = d / (i % 5 + 1) + i;
             print_int(d);
             return 0;
         }",
    );
}

#[test]
fn frame_too_large_reported_not_panicked() {
    // A frame too large for the smallest accepted bound must be a clean
    // error that states the bound it needs, and following the stated
    // bounds must reach one that compiles correctly.
    let mut decls = String::new();
    let mut sum = String::from("0");
    for i in 0..24usize {
        decls.push_str(&format!("int w{i} = {i} * 3;\n"));
        sum = format!("{sum} + w{i}");
    }
    let src = format!(
        "int helper(int x) {{ return x + 1; }}
         int main() {{
             {decls}
             int i;
             for (i = 0; i < 5; i++) {{ if (i % 2) {{ }} }}
             print_int({sum} + helper(i));
             return 0;
         }}"
    );
    let module = build_ir(&src);
    let expected = interp::run_main(&module).expect("interpreter runs").stdout;
    for opts in [StraightOptions::raw(), StraightOptions::default()] {
        let mut d = MIN_MAX_DISTANCE;
        let prog = loop {
            match compile_straight(&module, &opts.clone().with_max_distance(d)) {
                Ok(prog) => break prog,
                Err(CodegenError::FrameTooLarge { max_distance, needs, .. }) => {
                    assert_eq!(max_distance, d);
                    assert!(needs > d, "d={d} needs {needs}");
                    d = needs;
                }
                Err(e) => panic!("d={d}: unexpected error: {e}"),
            }
        };
        assert!(d > MIN_MAX_DISTANCE, "the frame must not fit the smallest bound");
        let image = straight_asm::link_straight(&prog).unwrap();
        assert_eq!(check_image(&image, &format!("d={d}")).stdout, expected);
    }
}

#[test]
fn bounds_below_the_back_ends_minimum_are_rejected_up_front() {
    let module = build_ir("int main() { print_int(3); return 0; }");
    let expected = interp::run_main(&module).expect("interpreter runs").stdout;
    for opts in [StraightOptions::raw(), StraightOptions::default()] {
        for d in [8, MIN_MAX_DISTANCE - 1] {
            let err = compile_straight(&module, &opts.clone().with_max_distance(d)).unwrap_err();
            assert_eq!(err, CodegenError::MaxDistanceTooSmall { max_distance: d });
            assert!(err.to_string().contains(&MIN_MAX_DISTANCE.to_string()), "{err}");
        }
        let prog = compile_straight(&module, &opts.with_max_distance(MIN_MAX_DISTANCE)).unwrap();
        let image = straight_asm::link_straight(&prog).unwrap();
        assert_eq!(check_image(&image, "d=MIN_MAX_DISTANCE").stdout, expected);
    }
}

#[test]
fn globals_initializers_and_negative_values() {
    check_chain(
        "int big = 2147483647;
         int neg = -2147483647;
         byte small = 200;
         int main() {
             print_int(big);
             print_int(neg - 1);
             print_int(small + 100);
             big = big + 1;
             print_int(big);
             return 0;
         }",
    );
}
