"""Micro-scenario corpus for the solver-vs-enumeration agreement check.

Each entry is a complete program whose scenario `s` uses at most 16 bits of
nondeterminism, so exhaustive interpreter enumeration is feasible. The
handwritten ones deliberately stress choice-id alignment: anys inside both
branch arms, anys after a skipped arm, repeated calls, havoc, enums,
anys inside printf holes, and calls that merge cells inside both arms of
an outer branch.
"""

from __future__ import annotations

import random
from typing import List, Tuple

HANDWRITTEN: List[Tuple[str, str]] = [
    ("branch_arm_anys", """
module Main {
  mut fn s() {
    let c = any<Bool>;
    let v = if c { any<BitInt(3)> + 1u3 } else { any<BitInt(3)> };
    let w = any<BitInt(3)>;
    assert(v + w != 7u3)
  }
}
"""),
    ("repeated_calls", """
module Die {
  instance total: State<BitInt(4)>(0);
  mut fn roll() -> BitInt(4) {
    let r = any<BitInt(2)>;
    total.set(total.get() + zero_extend<4>(r));
    zero_extend<4>(r)
  }
}
module Main {
  instance d: Die;
  mut fn s() {
    let a = d.roll();
    let b = d.roll();
    let c = d.roll();
    assume(a == 3u4);
    assert(d.total.get() <= 8u4)
  }
}
"""),
    ("assume_prunes_all", """
module Main {
  mut fn s() {
    let x = any<BitInt(4)>;
    assume(x < 4u4);
    assert(x * x < 10u4)
  }
}
"""),
    ("enum_dispatch", """
enum Mode { Off, Slow, Fast }
module Main {
  instance speed: State<BitInt(3)>(0);
  mut fn s() {
    let m = any<Mode>;
    if m == Mode.Fast { speed.set(6u3) }
    else if m == Mode.Slow { speed.set(2u3) }
    else { () };
    assert(speed.get() != 6u3)
  }
}
"""),
    ("havoc_pair", """
module Pair {
  instance a: State<BitInt(3)>(0);
  instance b: State<BitInt(3)>(0);
}
module Main {
  instance p: Pair;
  mut fn s() {
    p.havoc();
    assume(p.a.get() != p.b.get());
    assert(p.a.get() + p.b.get() != 5u3)
  }
}
"""),
    ("vector_symbolic_index", """
module Main {
  mut fn s() {
    let v = [1u4, 2u4, 3u4, 4u4];
    let i = any<BitInt(2)>;
    assert(v[i] != 3u4)
  }
}
"""),
    ("nested_arm_anys", """
module Main {
  mut fn s() {
    let a = any<Bool>;
    let r = if a {
      if any<Bool> { any<BitInt(2)> } else { 3u2 }
    } else {
      any<BitInt(2)>
    };
    let t = any<BitInt(2)>;
    assert(r != t)
  }
}
"""),
    ("guarded_assume_unsat", """
module Main {
  mut fn s() {
    let c = any<Bool>;
    if c { assume(false) } else { () };
    assert(!c)
  }
}
"""),
    ("printf_hole_anys", """
module Main {
  mut fn s() {
    let x = any<BitInt(3)>;
    printf("x = {x}\\n");
    if any<Bool> { printf("hi\\n") } else { () };
    assert(x != 5u3)
  }
}
"""),
    ("record_any", """
type P = { a: BitInt(3), b: Bool };
module Main {
  mut fn s() {
    let p = any<P>;
    assume(p.b);
    assert(p.a < 6u3)
  }
}
"""),
    ("update_roundtrip", """
module Main {
  mut fn s() {
    let i = any<BitInt(2)>;
    let v = [0u3, 0u3, 0u3, 0u3][i := 5u3];
    let j = any<BitInt(2)>;
    assume(i == j);
    assert(v[j] == 5u3)
  }
}
"""),
    ("skipped_arm_then_more", """
module Helper {
  instance acc: State<BitInt(3)>(0);
  mut fn maybe_add(c: Bool) {
    if c { acc.set(acc.get() + any<BitInt(3)>) } else { () }
  }
}
module Main {
  instance h: Helper;
  mut fn s() {
    h.maybe_add(false);
    h.maybe_add(true);
    let probe = any<BitInt(3)>;
    assume(probe == h.acc.get());
    assert(probe < 7u3)
  }
}
"""),
    ("havoc_under_merge", """
module P { instance x: State<BitInt(3)>(0); }
module Main {
  instance p: P;
  mut fn s() {
    if any<Bool> { p.havoc() } else { p.x.set(3u3) };
    let probe = any<BitInt(3)>;
    assume(probe == p.x.get());
    assert(probe != 5u3)
  }
}
"""),
    ("anys_in_both_arms_of_callee", """
module H {
  instance acc: State<BitInt(2)>(0);
  mut fn poke(c: Bool) -> BitInt(2) {
    if c { acc.set(acc.get() + any<BitInt(2)>) }
    else { acc.set(acc.get() - any<BitInt(2)>) };
    acc.get()
  }
}
module Main {
  instance h: H;
  mut fn s() {
    let r0 = h.poke(any<Bool>);
    let r1 = h.poke(true);
    assume(r0 == 1u2);
    assert(r1 != 3u2)
  }
}
"""),
    # An `else if` chain is an `if` nested in an else arm, so each call
    # merges cells inside an arm of the outer `if`: a merge that restores a
    # cell to a value the inner else arm wrote starts the outer else arm
    # from the wrong state.
    ("nested_dispatch", """
module Regs {
  instance a: State<BitInt(2)>(1);
  instance b: State<BitInt(2)>(2);
  instance c: State<BitInt(2)>(3);
  mut fn dispatch(op: BitInt(2)) {
    if op == 0u2 { a.set(a.get() + 1u2) }
    else if op == 1u2 { b.set(a.get() + 2u2) }
    else if op == 2u2 { c.set(b.get() + 3u2) }
    else { a.set(c.get()); b.set(1u2) }
  }
}
module Main {
  instance p: Regs;
  instance q: Regs;
  mut fn s() {
    let first = any<BitInt(2)>;
    if any<Bool> { p.dispatch(first); q.dispatch(any<BitInt(2)>) }
    else { q.dispatch(first); p.dispatch(3u2 - first) };
    assert(p.a.get() + p.b.get() + q.c.get() != 3u2)
  }
}
"""),
]


def _gen_random(seed: int) -> str:
    """Small seeded random scenario over 2-3 bit values; <= 14 choice bits."""
    rng = random.Random(seed)
    bits_left = 14
    lines = []
    names = []

    def draw(width: int) -> str:
        nonlocal bits_left
        bits_left -= width
        name = f"v{len(names)}"
        names.append((name, width))
        lines.append(f"    let {name} = any<BitInt({width})>;")
        return name

    a = draw(rng.choice([2, 3]))
    b = draw(rng.choice([2, 3]))
    op = rng.choice(["+", "-", "*"])
    wa = dict(names)[a]
    wb = dict(names)[b]
    w = max(wa, wb)
    ea = a if wa == w else f"zero_extend<{w}>({a})"
    eb = b if wb == w else f"zero_extend<{w}>({b})"
    lines.append(f"    let combo = {ea} {op} {eb};")
    if rng.random() < 0.7:
        c = draw(1)
        arm_any = rng.random() < 0.5
        if arm_any and bits_left >= w:
            draw_width = w
            bits_left -= draw_width
            lines.append(f"    let adj = if {c} == 1u1 {{ any<BitInt({w})> }} "
                         f"else {{ combo }};")
        else:
            lines.append(f"    let adj = if {c} == 1u1 {{ combo + 1u{w} }} "
                         f"else {{ combo }};")
    else:
        lines.append("    let adj = combo;")
    bound1 = rng.randrange(1, 1 << w)
    bound2 = rng.randrange(0, 1 << w)
    cmp1 = rng.choice(["<", "<=", "!=", "=="])
    cmp2 = rng.choice(["<", "<=", "!=", "=="])
    lines.append(f"    assume(adj {cmp1} {bound1}u{w});")
    lines.append(f"    assert(adj {cmp2} {bound2}u{w})")
    body = "\n".join(lines)
    return f"module Main {{\n  mut fn s() {{\n{body}\n  }}\n}}\n"


def _gen_random_calls(seed: int) -> str:
    """Helper-call scenario: anys hide in both arms of the callee, which two
    calls run, so replay alignment depends on choice ids that tell the calls
    apart and do not shift when an arm is skipped."""
    rng = random.Random(1000 + seed)
    w = 2
    first_arg = rng.choice(["any<Bool>", "true", "false"])
    second_arg = rng.choice(["any<Bool>", "true", "false"])
    k1 = rng.randrange(1 << w)
    k2 = rng.randrange(1 << w)
    cmp1 = rng.choice(["==", "!=", "<="])
    cmp2 = rng.choice(["==", "!=", "<"])
    return f"""
module H {{
  instance acc: State<BitInt({w})>(0);
  mut fn poke(c: Bool) -> BitInt({w}) {{
    if c {{ acc.set(acc.get() + any<BitInt({w})>) }}
    else {{ acc.set(acc.get() - any<BitInt({w})>) }};
    acc.get()
  }}
}}
module Main {{
  instance h: H;
  mut fn s() {{
    let r0 = h.poke({first_arg});
    let r1 = h.poke({second_arg});
    assume(r0 {cmp1} {k1}u{w});
    assert(r1 {cmp2} {k2}u{w})
  }}
}}
"""


def all_micro_scenarios() -> List[Tuple[str, str]]:
    out = list(HANDWRITTEN)
    for seed in range(20):
        out.append((f"random_{seed}", _gen_random(seed)))
    for seed in range(8):
        out.append((f"random_calls_{seed}", _gen_random_calls(seed)))
    return out
