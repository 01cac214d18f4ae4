//! Differential tests: every MinC program must behave identically on
//! the IR interpreter, the RV32IM baseline, and STRAIGHT in all four
//! compilation configurations (RAW/RE+ × max distance 1023/31), on
//! both emulator tiers and, at distance 31, on every cycle-accurate
//! core (`straight_tests::check_chain`).

use straight_tests::check_chain;

#[test]
fn arithmetic_constants() {
    let b = check_chain("int main() { print_int(6 * 7); print_int(-13 / 4); print_int(-13 % 4); return 1; }");
    assert_eq!(b.stdout, "42\n-3\n-1\n");
    assert_eq!(b.exit_code, Some(1));
}

#[test]
fn parameters_and_expressions() {
    check_chain(
        "int mix(int a, int b, int c) { return (a + b) * c - (a ^ b) + (a << 2) - (b >> 1); }
         int main() { print_int(mix(11, 4, 3)); print_int(mix(-5, 9, -2)); return 0; }",
    );
}

#[test]
fn counted_loop_sum() {
    let b = check_chain(
        "int main() {
             int s = 0;
             int i;
             for (i = 1; i <= 100; i++) s += i;
             print_int(s);
             return 0;
         }",
    );
    assert_eq!(b.stdout, "5050\n");
}

#[test]
fn nested_loops_and_breaks() {
    check_chain(
        "int main() {
             int total = 0;
             int i;
             int j;
             for (i = 0; i < 10; i++) {
                 for (j = 0; j < 10; j++) {
                     if (j == 7) break;
                     if ((i + j) % 3 == 0) continue;
                     total += i * j;
                 }
             }
             print_int(total);
             return total % 256;
         }",
    );
}

#[test]
fn while_and_do_while() {
    check_chain(
        "int main() {
             int n = 27;
             int steps = 0;
             while (n != 1) {
                 if (n % 2 == 0) n = n / 2;
                 else n = 3 * n + 1;
                 steps++;
             }
             print_int(steps);
             int k = 0;
             do { k++; } while (k < 5);
             print_int(k);
             return 0;
         }",
    );
}

#[test]
fn recursion_fibonacci() {
    let b = check_chain(
        "int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
         int main() { print_int(fib(15)); return 0; }",
    );
    assert_eq!(b.stdout, "610\n");
}

#[test]
fn mutual_recursion() {
    check_chain(
        "int is_even(int n) { if (n == 0) return 1; return is_odd(n - 1); }
         int is_odd(int n) { if (n == 0) return 0; return is_even(n - 1); }
         int main() { print_int(is_even(10)); print_int(is_odd(7)); return 0; }",
    );
}

#[test]
fn globals_and_arrays() {
    check_chain(
        "int acc = 3;
         int tab[16];
         int main() {
             int i;
             for (i = 0; i < 16; i++) tab[i] = i * acc;
             int s = 0;
             for (i = 0; i < 16; i++) s += tab[i];
             print_int(s);
             return 0;
         }",
    );
}

#[test]
fn local_arrays_and_pointers() {
    check_chain(
        "void fill(int* p, int n) { int i; for (i = 0; i < n; i++) p[i] = n - i; }
         int main() {
             int a[8];
             fill(a, 8);
             int s = 0;
             int i;
             for (i = 0; i < 8; i++) s = s * 10 + a[i];
             print_int(s);
             return 0;
         }",
    );
}

#[test]
fn addr_of_and_swap() {
    check_chain(
        "void swap(int* x, int* y) { int t = *x; *x = *y; *y = t; }
         int main() {
             int a = 3;
             int b = 9;
             swap(&a, &b);
             print_int(a * 10 + b);
             return 0;
         }",
    );
}

#[test]
fn strings_and_bytes() {
    let b = check_chain(
        "int strlen_(byte* s) { int n = 0; while (s[n]) n++; return n; }
         byte buf[32];
         int main() {
             byte* msg = \"straight\";
             int n = strlen_(msg);
             int i;
             for (i = 0; i < n; i++) buf[i] = msg[n - 1 - i];
             for (i = 0; i < n; i++) print_char(buf[i]);
             print_char('\\n');
             print_int(n);
             return 0;
         }",
    );
    assert_eq!(b.stdout, "thgiarts\n8\n");
}

#[test]
fn short_circuit_evaluation() {
    check_chain(
        "int calls = 0;
         int bump(int v) { calls++; return v; }
         int main() {
             if (bump(0) && bump(1)) print_int(111);
             if (bump(1) || bump(1)) print_int(222);
             print_int(calls);
             return 0;
         }",
    );
}

#[test]
fn many_live_values_across_merges() {
    // Stresses distance fixing: many values live across an if-else.
    check_chain(
        "int main() {
             int a = 1; int b = 2; int c = 3; int d = 4; int e = 5;
             int f = 6; int g = 7; int h = 8;
             int i;
             for (i = 0; i < 20; i++) {
                 if (i % 2 == 0) { a += b; c += d; }
                 else { e += f; g += h; }
             }
             print_int(a + c + e + g);
             print_int(b + d + f + h);
             return 0;
         }",
    );
}

#[test]
fn loop_live_through_value_re_plus() {
    // `secret` transits the loop untouched: the RE+ stack-storage rule
    // (Figure 10c) applies to it.
    check_chain(
        "int main() {
             int secret = 12345;
             int s = 0;
             int i;
             for (i = 0; i < 50; i++) s += i;
             print_int(s + secret);
             return 0;
         }",
    );
}

#[test]
fn call_inside_loop_spills() {
    check_chain(
        "int id(int x) { return x; }
         int main() {
             int s = 0;
             int keep = 777;
             int i;
             for (i = 0; i < 10; i++) s += id(i);
             print_int(s + keep);
             return 0;
         }",
    );
}

#[test]
fn division_corner_cases() {
    check_chain(
        "int main() {
             int zero = 0;
             int big = -2147483647 - 1;
             print_int(5 / zero);
             print_int(5 % zero);
             print_int(big / -1);
             print_int(big % -1);
             return 0;
         }",
    );
}

#[test]
fn byte_arithmetic_wraps() {
    check_chain(
        "int main() {
             byte b = 250;
             int i;
             for (i = 0; i < 10; i++) b = b + 1;
             print_int(b);
             return 0;
         }",
    );
}

#[test]
fn large_constants() {
    check_chain(
        "int main() {
             int big = 0x12345678;
             int neg = -123456789;
             print_int(big);
             print_int(neg);
             print_int(big ^ neg);
             return 0;
         }",
    );
}

#[test]
fn exit_mid_program() {
    let b = check_chain("int main() { print_int(1); exit(42); print_int(2); return 0; }");
    assert_eq!(b.stdout, "1\n");
    assert_eq!(b.exit_code, Some(42));
}

#[test]
fn deep_expression_pressure() {
    check_chain(
        "int main() {
             int a = 1; int b = 2; int c = 3; int d = 4;
             int r = ((a + b) * (c + d) - (a * c - b * d)) * ((a - d) * (b - c) + (a + d) * (b + c));
             print_int(r);
             return 0;
         }",
    );
}

#[test]
fn many_arguments() {
    check_chain(
        "int sum8(int a, int b, int c, int d, int e, int f, int g, int h) {
             return a + 2*b + 3*c + 4*d + 5*e + 6*f + 7*g + 8*h;
         }
         int main() { print_int(sum8(1, 2, 3, 4, 5, 6, 7, 8)); return 0; }",
    );
}
