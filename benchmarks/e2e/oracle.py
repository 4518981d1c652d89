"""``run.py --regen-expected``: rewrite ``expected/seed-<N>.json``.

For every distinct (program, input) pair of every workload, run the
tree-walking oracle (``UCProgram(plans=False)``, private compile store),
cross-check its values against the NumPy reference, and record the value
hash and the Clock fingerprint digest.  A normal
benchmark run only reads these files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro import UCProgram

from trace import Tracer
from cases import cli_format, expected_path, fp_digest, text_digest, values_digest
from workloads import WORKLOADS, ColdCli


def regenerate(seed: int, smoke: bool) -> int:
    entries = {}
    for name, cls in WORKLOADS.items():
        wl = cls(seed, smoke, Path("unused"), Tracer(enabled=False))
        wl.make_inputs()
        wl.compute_references()
        for case in wl.all_cases():
            prog = UCProgram(
                case.source, defines=case.defines, plans=False, compile_store=None
            )
            if isinstance(wl, ColdCli):
                result = prog.run(seed=case.run_seed)
                printed = "\n".join(cli_format(v, result[v]) for v in case.prints)
                if case.reference_text is not None and printed != case.reference_text:
                    raise SystemExit(f"{name}/{case.key}: oracle disagrees with NumPy")
                if case.self_check is not None and not case.self_check(printed):
                    raise SystemExit(f"{name}/{case.key}: oracle output inconsistent")
                values = text_digest(printed)
            else:
                result = prog.run(case.inputs)
                for var, ref in case.reference.items():
                    if not np.array_equal(result[var], ref):
                        raise SystemExit(
                            f"{name}/{case.key}: oracle disagrees with NumPy on {var}"
                        )
                values = values_digest(result, case.reference)
            entries[f"{name}/{case.key}"] = {
                "values": values,
                "fingerprint": fp_digest(result.fingerprint),
            }
        print(f"{name}: {len(wl.all_cases())} cases")
    path = expected_path(seed, smoke)
    path.parent.mkdir(exist_ok=True)
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(entries.items())]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {path}")
    return 0
