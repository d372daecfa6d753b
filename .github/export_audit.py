#!/usr/bin/env python3
"""Export audit: every value a lib/*/*.mli exports must have a caller.

A `val` or `external` declared in lib/<lib>/<m>.mli (or in a
`module X : sig ... end` inside it) passes when
  - code outside test/ names it: lib/ outside its own .ml, bin/, bench/,
    perfbench/ or examples/; or
  - its own .ml uses it (the bare name appears again there) and test/
    names it; or
  - its doc comment carries a `Test support:` line, naming the kept path
    its tests check through it.
A use is `M.v`, or `Alias.v` through `module Alias = [Lib.]M` in the same
file, outside comments and literals.

Each failing value is printed as `Lib.Module.value: class`, the class
being "nowhere", "own module only" or "tests only".  Values on BACKLOG
are known failures still to be resolved; one that stops failing must
leave the list.  The exit status is 1 on any failure off the backlog or
any stale backlog entry.

Run from the repository root: python3 .github/export_audit.py
"""
import glob
import os
import re
import sys

# Test-only values whose tests check nothing else: deleting one takes
# its own test cases with it.
BACKLOG = frozenset("""
Evolving.Edge_markovian.edge_present Evolving.Edge_markovian.snapshot
Phonecall.Rumor.strategy_name
Prng.Rng.bool Prng.Rng.int_in Prng.Sample.binomial Prng.Sample.permutation
Prng.Splitmix64.copy Prng.Splitmix64.next_in Prng.Xoshiro256.jump
Sgraph.Gen.complete_bipartite Sgraph.Gen.gnm Sgraph.Gen.lollipop
Stats.Bounds.gnp_connectivity_threshold
Stats.Ci.mean_ci Stats.Ci.pp_interval Stats.Ci.proportion_point
Stats.Histogram.mode_bin Stats.Quantile.merge_sorted Stats.Summary.merge
Temporal.Label.count_in Temporal.Label.first_after
Temporal.Lifetime.expected_prefix_edge_probability
Temporal.Ops.restrict_window Temporal.Opt.clique_single
Temporal.Opt.single_label_always_preserves
Temporal.Opt.single_label_counterexample Temporal.Opt.tree_up_down
Temporal.Robustness.target_name Temporal.Tcc.condensation
""".split())

CHAR = re.compile(r"'(?:[^\\']|\\(?:[\\'\"ntbr ]|[0-9]{3}|x[0-9a-fA-F]{2}|o[0-7]{3}))'")
QUOTED = re.compile(r"\{([a-z_]*)\|")
QUAL = re.compile(r"\b([A-Z][\w']*)\.([a-z_][\w']*)")
ALIAS = re.compile(r"\bmodule\s+([A-Z][\w']*)\s*=\s*(?:[A-Z][\w']*\.)*([A-Z][\w']*)\s*$", re.M)
DECL = re.compile(r"\b(?:val|external)\s+([a-z_][\w']*)|\bmodule\s+([A-Z][\w']*)\s*:\s*sig\b|\bend\b"
                  r"|\b(?:type|exception|module|include|class)\b")


def strip(src):
    """Blank out comments (nested) and literals, keeping offsets and lines."""
    out, i, depth, n = list(src), 0, 0, len(src)
    while i < n:
        if src.startswith("(*", i):
            depth, j = depth + 1, i + 2
        elif depth and src.startswith("*)", i):
            depth, j = depth - 1, i + 2
        elif depth:
            j = i + 1
        elif src[i] == '"':
            j = i + 1
            while j < n and src[j] != '"':
                j += 2 if src[j] == "\\" else 1
            j += 1
        elif src[i] == "'" and CHAR.match(src, i):
            j = CHAR.match(src, i).end()
        elif src[i] == "{" and QUOTED.match(src, i):
            close = "|" + QUOTED.match(src, i).group(1) + "}"
            j = src.find(close, i) + len(close)
        else:
            i += 1
            continue
        out[i:j] = [c if c == "\n" else " " for c in src[i:j]]
        i = j
    return "".join(out)


def uses(path):
    """The set of (Module, value) pairs a source file names."""
    text = strip(open(path).read())
    alias = dict(ALIAS.findall(text))
    return {(alias.get(m, m), v) for m, v in QUAL.findall(text)}


def declarations(mli):
    """Yield (module path, value, doc text) for each value of an .mli."""
    src = open(mli).read()
    stack, pending = [os.path.basename(mli)[:-4].capitalize()], None
    for m in DECL.finditer(strip(src)):
        if pending:
            yield pending + (src[pending_end:m.start()],)
            pending = None
        if m.group(1):
            pending, pending_end = (list(stack), m.group(1)), m.end()
        elif m.group(2):
            stack.append(m.group(2))
        elif m.group(0) == "end" and len(stack) > 1:
            stack.pop()
    if pending:
        yield pending + (src[pending_end:],)


def failures():
    """Yield (Lib.Module.value, class) for each value without a caller."""
    files = {d: glob.glob(f"{d}/**/*.ml", recursive=True)
             for d in ("lib", "bin", "bench", "perfbench", "examples", "test")}
    used = {f: uses(f) for fs in files.values() for f in fs}
    outside = set().union(*(used[f] for d in ("bin", "bench", "perfbench", "examples")
                            for f in files[d]))
    tests = set().union(*(used[f] for f in files["test"]))
    for mli in sorted(glob.glob("lib/*/*.mli")):
        lib, ml = mli.split("/")[1].capitalize(), mli[:-1]
        own = strip(open(ml).read()) if os.path.exists(ml) else ""
        for path, v, doc in declarations(mli):
            key = (path[-1], v)
            if key in outside or any(key in used[f] for f in files["lib"] if f != ml):
                continue
            if "Test support:" in doc:
                continue
            own_use = len(re.findall(rf"(?<![\w'.]){re.escape(v)}(?![\w'])", own)) > 1
            tested = key in tests
            if own_use and tested:
                continue
            kind = "tests only" if tested else "own module only" if own_use else "nowhere"
            yield f"{lib}.{'.'.join(path)}.{v}", kind


def main():
    failing = dict(failures())
    errors = [f"{name}: {kind}" for name, kind in failing.items() if name not in BACKLOG]
    errors += [f"{name}: on the backlog, but has a caller or is gone"
               for name in sorted(BACKLOG - failing.keys())]
    for line in errors:
        print(line)
    print(f"export audit: {len(errors)} failing, {len(BACKLOG & failing.keys())} on the backlog",
          file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
