#!/usr/bin/env python
"""Data-mapping tuning: the paper's separation of correctness and cost.

The same UC source runs twice — once with the compiler's default mapping
and once with the program's ``map`` section honoured.  The results are
bit-identical (mappings cannot change program meaning, §4); only the
communication ledger and the elapsed time change.  This is the paper's
development workflow: get the program right first, then tune the map
section declaratively.

Run:  python examples/mapping_tuning.py
"""

import numpy as np

from repro.bench.workloads import (
    TRANSPOSE_KERNEL_MAP,
    TRANSPOSE_KERNEL_UC,
    with_map,
)
from repro.analysis.commlints import reference_rows
from repro.analysis.staticref import default_costs
from repro.interp.program import UCProgram
from repro.lang.ast import expr_to_text

n, reps = 128, 8
rng = np.random.default_rng(11)
inputs = {
    "a": rng.integers(0, 100, (n, n)),
    "b": rng.integers(0, 100, (n, n)),
    "c": rng.integers(0, 100, (n, n)),
}
defines = {"N": n, "REPS": reps}

# ---------------------------------------------------------------------------
# 1. Prototype first: default mappings, correct but router-bound
# ---------------------------------------------------------------------------

source_unmapped = with_map(TRANSPOSE_KERNEL_UC, TRANSPOSE_KERNEL_MAP, False)
prog = UCProgram(source_unmapped, defines=defines)
default_run = prog.run(dict(inputs))

print(f"kernel: a[i][j] += b[j][i] + c[j][i], {n}x{n}, {reps} sweeps")
print(f"\ndefault mapping:  {default_run.elapsed_us/1e3:9.2f} ms")
print(f"  router gets: {default_run.counts.get('router_get', 0)}")

# ---------------------------------------------------------------------------
# 2. Ask the compiler where the communication goes
# ---------------------------------------------------------------------------

rows = reference_rows(prog.frontend.model(), prog.frontend.verdicts(), default_costs())
print("\ncommunication analysis (compile-time):")
for node, tier, note, _hint in rows:
    print(f"  {expr_to_text(node):14s} -> {tier:9s} {note}")
for hint in dict.fromkeys(hint for *_row, hint in rows if hint):
    print(f"  suggestion: {hint}")

# ---------------------------------------------------------------------------
# 3. Add the map section — program logic untouched
# ---------------------------------------------------------------------------

source_mapped = with_map(TRANSPOSE_KERNEL_UC, TRANSPOSE_KERNEL_MAP, True)
mapped_run = UCProgram(source_mapped, defines=defines).run(dict(inputs))

print(f"\nwith map section: {mapped_run.elapsed_us/1e3:9.2f} ms "
      f"(speedup {default_run.elapsed_us/mapped_run.elapsed_us:.1f}x)")
print(f"  router gets: {mapped_run.counts.get('router_get', 0)}")

for name in ("a", "b", "c"):
    assert np.array_equal(default_run[name], mapped_run[name]), name
print("\nresults are identical — the map section changed layout, not meaning.")

# ---------------------------------------------------------------------------
# 4. The source-to-source view: what the optimizer did to the subscripts
# ---------------------------------------------------------------------------

from repro.lang import parse_statement
from repro.mapping.transform import rewrite_subscripts

stmt = parse_statement("a[i] = a[i] + b[i+1];")
simple_prog = UCProgram(
    """
    int N = 8;
    index_set I:i = {0..N-1};
    int a[8], b[8];
    map (I) { permute (I) b[i+1] :- a[i]; }
    main { par (I) a[i] = a[i] + b[i+1]; }
    """
)
rewritten = rewrite_subscripts(stmt, simple_prog.layouts)
print("\nthe paper's worked example (permute (I) b[i+1] :- a[i]):")
print("  before:", "a[i] = a[i] + b[i+1];")
print("  after :", expr_to_text(rewritten.expr) + ";")
