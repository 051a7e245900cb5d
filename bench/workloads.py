"""Seeded inputs for the three benchmark workloads.

Everything the CLI reads is generated here from the seed and written under
the work directory: renamed and unrolled copies of the corpus models, wide
models, crash probes and solver-style model files. The same seed gives the
same files and the same operation schedule.

The seed changes names, attack-step positions, assignments and the order of
operations, never the sizes: the unroll depths and wide-model widths are
fixed, so runs with different seeds do comparable work.
"""

from __future__ import annotations

import os
import random
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from smteval import BOOL, INT, BV, Arr, bv_sort, sort_text

STAND_IN_SOLVER = "sh -c 'echo unknown' {file}"

# Sizes. Probes are run once per traced run, never in the timed loop.
# The machine's speed drifts, so the 90th percentile of a run's op times is
# steady only where many samples of about the same size lie around it: in
# each workload, a cluster of ops of equal size holds the 90th percentile
# well inside it, and a run of 100 ops (two rounds of frontend and replay,
# four of vcgen) holds the cluster as often as the run's length allows.
# Frontend: the 12-copy wide models, ranks 36 to 53 of 54.
WIDE_COPIES = (2, 4, 8) + (12,) * 18 + (32,)
# The fixed model stops at 64 steps: from about 109 steps its emission hits
# the same RecursionError the 512-step probe shows. Vcgen: the 128-step
# inputs, ranks 18 to 24 of 25. Each is verified several times a round,
# which adds samples but no checking time.
VCGEN_STEPS = {"vulnerable": (8, 16, 32, 64, 128, 128, 256), "fixed": (8, 16, 32, 64)}
VCGEN_REPEATS = {128: (4, 3)}   # times a round, for each input of that size
REPLAY_STEPS = (8, 32, 128)
# Replay: these random models and the exploit traced on the largest
# vulnerable unroll, ranks 37 to 52 of 52.
REPLAY_TAIL_RANDOMS = 15
PROBE_STEPS = 512
PROBE_PAREN_DEPTH = 100

MINI_TX1 = {"vulnerable": "mini_tx1_vulnerable.soc", "fixed": "mini_tx1_fixed.soc"}
UNROLL_SCENARIO = "test_secure_area_unchanged"
STEP_PAIR = "    miniTX1.step();\n    miniTX1.step();\n"
# Type and module names of the mini_tx1 models that renaming replaces.
RENAMED = ("PhysAddr", "Request", "Response", "Region", "DRAM", "ASC", "CPU",
           "MiniThunderX1")

CONFIG_BASE = 0x8000_0000_0000   # region-configuration window of mini_tx1
DRAM_TOP = 0x3_ffff_ffff         # last byte address forwarded to DRAM
SECURE_WORDS = 0x20_0000         # words of the secure region0
LOCKED_ROWS = (0x11, 0x22, 0x33, 0x44)

ARRAY_FORMS = ("store", "as-array", "lambda")


@dataclass
class Op:
    """One CLI invocation and what its result must be."""

    name: str                      # names the distinct input, e.g. "verify:vuln-k64"
    argv: List[str]                # arguments after `python -m soclang.cli`
    file: str
    scenario: Optional[str] = None
    steps: int = 0                 # unrolled steps, 0 when not an unroll
    exits: Tuple[int, ...] = (0,)  # accepted exit codes
    diag_line: Optional[int] = None
    fragments: Tuple[str, ...] = ()
    probe: bool = False
    smt_path: Optional[str] = None
    model_path: Optional[str] = None
    assignment: Optional[Dict[str, object]] = None   # written to model_path
    vc: Optional["VcCheck"] = None

    @property
    def cmd(self) -> str:
        return self.argv[0]

    def spec(self) -> dict:
        """The JSON-ready description the traced run replays."""
        return {"name": self.name, "argv": self.argv, "file": self.file,
                "scenario": self.scenario, "model": self.model_path}


@dataclass
class VcCheck:
    """Assignments to evaluate against the query a verify op dumps."""

    verdict: str                                    # "exploit" or "proven"
    exploits: List[Dict[str, object]] = field(default_factory=list)
    samples: List[Dict[str, object]] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Corpus


def read_manifest(corpus: str) -> List[dict]:
    entries: List[dict] = []
    with open(os.path.join(corpus, "manifest.txt")) as f:
        for raw in f:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line == "[entry]":
                entries.append({"fragments": []})
                continue
            key, _, value = line.partition("=")
            if key.strip() == "fragment":
                entries[-1]["fragments"].append(value.strip())
            else:
                entries[-1][key.strip()] = value.strip()
    return entries


def marked_line(text: str) -> int:
    for i, line in enumerate(text.splitlines(), 1):
        if "//!" in line:
            return i
    raise ValueError("no //! marker")


# ---------------------------------------------------------------------------
# Source transformations

_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')


def rename(source: str, mapping: Dict[str, str]) -> str:
    """Replace whole-word identifiers outside string literals."""
    word = re.compile(r"\b(" + "|".join(map(re.escape, mapping)) + r")\b")
    parts = []
    pos = 0
    for m in _STRING.finditer(source):
        parts.append(word.sub(lambda w: mapping[w.group(1)], source[pos:m.start()]))
        parts.append(m.group(0))
        pos = m.end()
    parts.append(word.sub(lambda w: mapping[w.group(1)], source[pos:]))
    return "".join(parts)


def fresh_names(rng: random.Random, count: int) -> List[Dict[str, str]]:
    """`count` distinct renamings of RENAMED, each with its own suffix."""
    seen = set()
    out = []
    while len(out) < count:
        suffix = "".join(rng.choice("abcdefghjkmnpqrstuvwxyz23456789") for _ in range(4))
        if suffix not in seen:
            seen.add(suffix)
            out.append({n: f"{n}_{suffix}" for n in RENAMED})
    return out


def unrolled(source: str, steps: int) -> str:
    """The model with test_secure_area_unchanged taking `steps` steps."""
    if STEP_PAIR not in source:
        raise ValueError("model has no two-step scenario to unroll")
    return source.replace(STEP_PAIR, "    miniTX1.step();\n" * steps, 1)


def wide_model(source: str, names: List[Dict[str, str]]) -> str:
    """One renamed copy of every module but Main per mapping, and a Main
    that instantiates them all."""
    head, sep, main = source.partition("module Main {")
    if not sep:
        raise ValueError("model has no Main module")
    parts = [rename(head, m) for m in names]
    extra = "".join(f"  instance sys{i}: {m['MiniThunderX1']};\n"
                    for i, m in enumerate(names[1:], 1))
    parts.append(sep + "\n" + extra + rename(main, names[0]))
    return "\n".join(parts)


def deep_parens(depth: int) -> str:
    expr = "(" * depth + "1u8" + ")" * depth
    return ("module Main {\n  mut fn go() {\n"
            f"    let x = {expr};\n    assert(x == 1u8)\n  }}\n}}\n")


# ---------------------------------------------------------------------------
# Assignments and model files


def sort_from_engine(sort: tuple) -> tuple:
    """Translate a `soclang.terms` sort tuple into an smteval sort."""
    if sort[0] == "bool":
        return BOOL
    if sort[0] == "int":
        return INT
    if sort[0] == "bv":
        return bv_sort(sort[1])
    if sort[0] == "arr":
        return ("Array", bv_sort(sort[1]), sort_from_engine(sort[2]))
    raise ValueError(f"unknown sort {sort!r}")


def random_value(rng: random.Random, sort: tuple):
    if sort == BOOL:
        return rng.random() < 0.5
    if sort == INT:
        return rng.choice((0, 1, -1, rng.randint(-(1 << 31), 1 << 31)))
    if sort[0] == "BitVec":
        w = sort[1]
        pick = rng.randrange(4)
        v = (0, 1, rng.randrange(1 << min(w, 4)), rng.randrange(1 << w))[pick]
        return BV(w, v)
    key, leaf = sort[1], sort[2]
    mods = {random_value(rng, key): random_value(rng, leaf) for _ in range(rng.randrange(4))}
    return Arr(sort, random_value(rng, leaf), mods)


def random_assignment(rng: random.Random, decls) -> Dict[str, object]:
    return {name: random_value(rng, sort) for name, sort in decls}


def _expect(decls, pattern: List[tuple]) -> None:
    if [s for _, s in decls] != pattern:
        raise ValueError("choice variables do not have the expected layout")


def _pick(rng: random.Random, lo: int, hi: int, edge: int) -> int:
    """`lo` for edge 0, `hi` for edge 1, otherwise a value drawn from [lo, hi].
    Exploits at both edges tell `<` from `<=` in the query."""
    return (lo, hi)[edge] if edge < 2 else rng.randint(lo, hi)


def mini_tx1_exploit(rng: random.Random, decls, steps: int, edge: int) -> Dict[str, object]:
    """Two attacking requests among `steps` harmless ones: make secure
    region0 Non-Secure-accessible, then store to a secure word."""
    _expect(decls, [BOOL, bv_sort(48), bv_sort(64), bv_sort(64)] * steps + [bv_sort(31)])
    first, second = sorted(rng.sample(range(steps), 2))
    word = _pick(rng, 0, SECURE_WORDS - 1, edge)
    values: List[object] = []
    for i in range(steps):
        if i == first:
            req = (True, CONFIG_BASE + 0x10, 1)        # region0.ATTR := 1
        elif i == second:
            req = (True, word * 8, rng.randrange(1, 1 << 64))
        else:                                          # outside DRAM and config
            addr = rng.randrange(DRAM_TOP + 1, CONFIG_BASE)
            req = (rng.random() < 0.5, addr, rng.randrange(1 << 64))
        values += [req[0], BV(48, req[1]), BV(64, req[2]), BV(64, rng.randrange(1 << 64))]
    values.append(BV(31, word))
    return {name: v for (name, _), v in zip(decls, values)}


def monitor_exploit(rng: random.Random, decls, edge: int) -> Dict[str, object]:
    """A read of the protected low window, which the gate forwards."""
    _expect(decls, [bv_sort(1), bv_sort(8), bv_sort(32)])
    values = [BV(1, 0), BV(8, _pick(rng, 0, 0x0f, edge)), BV(32, rng.randrange(1 << 32))]
    return {name: v for (name, _), v in zip(decls, values)}


def table_exploit(rng: random.Random, decls, edge: int) -> Dict[str, object]:
    """Overwrite a locked row, then check that row."""
    _expect(decls, [bv_sort(8)] * 8 + [bv_sort(3), bv_sort(8), bv_sort(3)])
    row = _pick(rng, 0, len(LOCKED_ROWS) - 1, edge)
    value = rng.choice([v for v in range(256) if v != LOCKED_ROWS[row]])
    values = [BV(8, rng.randrange(256)) for _ in range(8)]
    values += [BV(3, row), BV(8, value), BV(3, row)]
    return {name: v for (name, _), v in zip(decls, values)}


def exploit_for(rng, family: str, scenario: str, decls, steps: int, edge: int = 2):
    """The hand-written exploit of an exploit entry; `family` is the corpus
    file the model was generated from, `edge` as in `_pick`."""
    if family == MINI_TX1["vulnerable"] and scenario == UNROLL_SCENARIO:
        return mini_tx1_exploit(rng, decls, steps or 2, edge)
    if family == "monitor_read_detect.soc" and scenario == "read_protection_holds":
        return monitor_exploit(rng, decls, edge)
    if family == "assume_assert_invariant.soc" and scenario == "unlocked_write_breaks_rows":
        return table_exploit(rng, decls, edge)
    raise ValueError(f"no hand-written exploit for {family}::{scenario}")


def mutant(rng: random.Random, decls, assignment: Dict[str, object]) -> Dict[str, object]:
    """`assignment` with one or two values replaced, bit-vectors often by a
    neighbour, so that the query lands on either side of its boundaries."""
    out = dict(assignment)
    for name, sort in rng.sample(decls, min(len(decls), rng.randint(1, 2))):
        v = out[name]
        if isinstance(v, BV) and rng.random() < 0.5:
            out[name] = BV(v.width, (v.value + rng.choice((-1, 1))) % (1 << v.width))
        else:
            out[name] = random_value(rng, sort)
    return out


def _bv_text(rng: random.Random, v: BV) -> str:
    forms = ["bin", "dec"] + (["hex"] if v.width % 4 == 0 else [])
    form = rng.choice(forms)
    if form == "bin":
        return "#b" + format(v.value, f"0{v.width}b")
    if form == "hex":
        return "#x" + format(v.value, f"0{v.width // 4}x")
    return f"(_ bv{v.value} {v.width})"


def _scalar_text(rng: random.Random, v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, BV):
        return _bv_text(rng, v)
    return str(v) if v >= 0 else f"(- {-v})"


class ModelWriter:
    """Writes z3-style `get-model` output, cycling through the array forms
    `soclang.smtlib.parse_model` accepts."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.next_form = rng.randrange(len(ARRAY_FORMS))
        self.aux = 0
        self.forms_used: set = set()

    def _array(self, sort: tuple, value: Arr, defs: List[str]) -> str:
        form = ARRAY_FORMS[self.next_form % len(ARRAY_FORMS)]
        self.next_form += 1
        self.forms_used.add(form)
        items = list(value.mods.items())
        self.rng.shuffle(items)
        rng = self.rng
        if form == "store":
            acc = f"((as const {sort_text(sort)}) {_scalar_text(rng, value.default)})"
            for k, v in items:
                acc = f"(store {acc} {_scalar_text(rng, k)} {_scalar_text(rng, v)})"
            return acc
        var = f"x!{self.aux}"
        body = _scalar_text(rng, value.default)
        for k, v in items:
            body = f"(ite (= {var} {_scalar_text(rng, k)}) {_scalar_text(rng, v)} {body})"
        arg = f"(({var} {sort_text(sort[1])}))"
        if form == "lambda":
            return f"(lambda {arg} {body})"
        name = f"k!{self.aux}"
        self.aux += 1
        defs.append(f"  (define-fun {name} {arg} {sort_text(sort[2])}\n    {body})")
        return f"(_ as-array {name})"

    def text(self, decls, assignment: Dict[str, object]) -> str:
        defs: List[str] = []
        for name, sort in decls:
            v = assignment[name]
            body = self._array(sort, v, defs) if isinstance(v, Arr) \
                else _scalar_text(self.rng, v)
            defs.append(f"  (define-fun {name} () {sort_text(sort)}\n    {body})")
        self.rng.shuffle(defs)
        opener = self.rng.choice(("(model", "("))
        return opener + "\n" + "\n".join(defs) + "\n)\n"


# ---------------------------------------------------------------------------
# Workloads


class Builder:
    """Writes a workload's input files and collects its operations."""

    def __init__(self, root: str, work: str, seed: int) -> None:
        self.corpus = os.path.join(root, "corpus")
        self.work = work
        self.rng = random.Random(seed)
        self.models = ModelWriter(random.Random(seed ^ 0x5EED))
        self.ops: List[Op] = []
        self.probes: List[Op] = []
        self.manifest = read_manifest(self.corpus)
        self._programs: Dict[Tuple[str, str], tuple] = {}

    def write(self, name: str, text: str) -> str:
        path = os.path.join(self.work, name)
        with open(path, "w") as f:
            f.write(text)
        return path

    def corpus_file(self, name: str) -> str:
        return os.path.join(self.corpus, name)

    def source(self, name: str) -> str:
        with open(self.corpus_file(name)) as f:
            return f.read()

    def program(self, path: str, scenario: str) -> tuple:
        """(tp, tree, layout, vc) of a scenario, from the package's public
        pipeline. Used to learn the choice variables and to replay
        assignments, outside any timed interval."""
        key = (path, scenario)
        if key not in self._programs:
            from soclang import engine
            from soclang.cli import load
            tp, tree, layout = load(path)
            self._programs[key] = (tp, tree, layout,
                                   engine.sym_exec(tp, tree, layout, scenario))
        return self._programs[key]

    def decls(self, path: str, scenario: str) -> List[Tuple[str, tuple]]:
        """The choice variables `verify` declares for a scenario, in order."""
        vc = self.program(path, scenario)[3]
        return [(f"c{i.vid}", sort_from_engine(i.sort)) for i in vc.registry.infos]

    def renamed_unroll(self, label: str, variant: str, steps: int) -> str:
        (names,) = fresh_names(self.rng, 1)
        text = unrolled(rename(self.source(MINI_TX1[variant]), names), steps)
        return self.write(f"{label}.soc", text)

    # -- frontend -------------------------------------------------------------

    def frontend(self) -> None:
        for name in sorted(os.listdir(self.corpus)):
            if name.endswith(".soc"):
                path = self.corpus_file(name)
                self.ops.append(Op(f"check:{name}", ["check", path], path))
        for name in ("mini_tx1_vulnerable.soc", "monitor_read_detect.soc"):
            path = self.corpus_file(name)
            self.ops.append(Op(f"dump-tree:{name}", ["dump-tree", path], path))
        ill = os.path.join(self.corpus, "ill-typed")
        for name in sorted(os.listdir(ill)):
            path = os.path.join(ill, name)
            with open(path) as f:
                line = marked_line(f.read())
            self.ops.append(Op(f"check:ill-typed/{name}", ["check", path], path,
                               exits=(1,), diag_line=line))
        source = self.source(MINI_TX1["vulnerable"])
        for i, n in enumerate(WIDE_COPIES):
            label = f"wide-{n}-{i}"
            path = self.write(f"{label}.soc", wide_model(source, fresh_names(self.rng, n)))
            self.ops.append(Op(f"check:{label}", ["check", path], path))
            if n == 8:
                self.ops.append(Op(f"dump-tree:{label}", ["dump-tree", path], path))
        path = self.write("probe-parens.soc", deep_parens(PROBE_PAREN_DEPTH))
        self.probes.append(Op(f"probe:parens-{PROBE_PAREN_DEPTH}", ["check", path], path,
                              exits=(0, 1), probe=True))

    # -- vcgen ----------------------------------------------------------------

    def verify_op(self, label: str, path: str, family: str, scenario: str,
                  verdict: str, steps: int = 0) -> Op:
        smt = os.path.join(self.work, f"{label}.smt2")
        argv = ["verify", path, "--scenario", scenario, "--solver", STAND_IN_SOLVER,
                "--dump-smt", smt]
        decls = self.decls(path, scenario)
        vc = VcCheck(verdict)
        if verdict == "exploit":
            vc.exploits = [exploit_for(self.rng, family, scenario, decls, steps, edge)
                           for edge in range(3)]
            vc.samples = [mutant(self.rng, decls, a) for a in vc.exploits[:2]]
        else:
            vc.samples = [random_assignment(self.rng, decls) for _ in range(2)]
        return Op(f"verify:{label}", argv, path, scenario, steps, exits=(3,),
                  smt_path=smt, vc=vc)

    def vcgen(self) -> None:
        for i, e in enumerate(self.manifest):
            path = self.corpus_file(e["file"])
            self.ops.append(self.verify_op(f"m{i}-{e['scenario']}", path, e["file"],
                                           e["scenario"], e["verify"]))
        repeats = {k: list(times) for k, times in VCGEN_REPEATS.items()}
        for variant in ("vulnerable", "fixed"):
            verdict = "exploit" if variant == "vulnerable" else "proven"
            for i, k in enumerate(VCGEN_STEPS[variant]):
                label = f"{variant}-k{k}-{i}"
                path = self.renamed_unroll(label, variant, k)
                op = self.verify_op(label, path, MINI_TX1[variant], UNROLL_SCENARIO,
                                    verdict, k)
                self.ops += [op] * (repeats[k].pop(0) if repeats.get(k) else 1)
        path = self.renamed_unroll(f"probe-k{PROBE_STEPS}", "vulnerable", PROBE_STEPS)
        smt = os.path.join(self.work, f"probe-k{PROBE_STEPS}.smt2")
        argv = ["verify", path, "--scenario", UNROLL_SCENARIO, "--solver",
                STAND_IN_SOLVER, "--dump-smt", smt]
        self.probes.append(Op(f"probe:vulnerable-k{PROBE_STEPS}", argv, path,
                              UNROLL_SCENARIO, PROBE_STEPS, exits=(0, 1, 2, 3),
                              probe=True))

    # -- replay ---------------------------------------------------------------

    def trace_op(self, label: str, path: str, scenario: str, assignment, exits,
                 steps: int, fragments=()) -> Op:
        text = self.models.text(self.decls(path, scenario), assignment)
        model = self.write(f"{label}.model.smt2", text)
        argv = ["trace", path, "--scenario", scenario, "--model", model]
        return Op(f"trace:{label}", argv, path, scenario, steps, exits=tuple(exits),
                  fragments=tuple(fragments), model_path=model, assignment=assignment)

    def run_op(self, label: str, path: str, scenario: str, exits, steps: int = 0) -> Op:
        argv = ["run", path, "--scenario", scenario, "--seed",
                str(self.rng.randrange(1 << 30))]
        return Op(f"run:{label}", argv, path, scenario, steps, exits=tuple(exits))

    def replay(self) -> None:
        cases = []
        for i, e in enumerate(self.manifest):
            cases.append((f"m{i}-{e['scenario']}", self.corpus_file(e["file"]), e["file"],
                          e["scenario"], e["verify"], 0, e["fragments"]))
        vuln = vulnerable_fragments(self.manifest)
        for variant in ("vulnerable", "fixed"):
            verdict = "exploit" if variant == "vulnerable" else "proven"
            for k in REPLAY_STEPS:
                cases.append((f"{variant}-k{k}", self.renamed_unroll(f"{variant}-k{k}",
                                                                     variant, k),
                              MINI_TX1[variant], UNROLL_SCENARIO, verdict, k,
                              vuln if verdict == "exploit" else []))
        for label, path, family, scenario, verdict, k, fragments in cases:
            # Models of proven scenarios and random runs must never fail an
            # assertion; a random model of an exploit scenario may.
            safe = (0, 4) if verdict == "proven" else (0, 2, 4)
            decls = self.decls(path, scenario)
            randoms = 2 if any(s[0] == "Array" for _, s in decls) else 1
            if verdict == "exploit" and k == REPLAY_STEPS[-1]:
                randoms = REPLAY_TAIL_RANDOMS
            for j in range(randoms):
                self.ops.append(self.trace_op(f"{label}-random{j}", path, scenario,
                                              random_assignment(self.rng, decls), safe, k))
            if verdict == "exploit":
                exploit = exploit_for(self.rng, family, scenario, decls, k)
                self.ops.append(self.trace_op(f"{label}-exploit", path, scenario, exploit,
                                              (2,), k, fragments))
            self.ops.append(self.run_op(label, path, scenario, safe, k))
        if self.models.forms_used != set(ARRAY_FORMS):
            raise ValueError("replay models do not cover every array form")


def vulnerable_fragments(manifest: List[dict]) -> List[str]:
    """The transcript fragments of the vulnerable mini_tx1 entry."""
    for e in manifest:
        if e["file"] == MINI_TX1["vulnerable"] and e["scenario"] == UNROLL_SCENARIO:
            return e["fragments"]
    raise ValueError("manifest lacks the vulnerable mini_tx1 entry")


WORKLOADS = ("frontend", "vcgen", "replay")


def build(workload: str, root: str, work: str, seed: int) -> Builder:
    """Generate the inputs of `workload` under `work`; returns the builder
    holding its operations (one round) and its crash probes."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(work, exist_ok=True)
    b = Builder(root, work, seed)
    getattr(b, workload)()
    return b
