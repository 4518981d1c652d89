"""Seeded inputs, NumPy references and expected digests for the workloads.

Every workload draws its inputs from ``numpy.random.default_rng`` seeded
with the harness seed; the program under test only ever receives the
generated inputs.  Values are checked against the NumPy references in
``repro.algorithms`` (never against the engine under test), and — when
``expected/`` holds a file for the seed — value hashes and Clock
fingerprints are checked against what the tree-walking oracle
(``plans=False``) produced at ``--regen-expected`` time.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional

import numpy as np

from repro.algorithms import (
    BIG,
    floyd_warshall,
    grid_reference_distances,
    prefix_sums,
    ranks,
    wavefront_matrix,
)
from repro.bench import workloads as uc

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
EXPECTED_DIR = HERE / "expected"

#: weight of a missing edge: above any path length, far below overflow
NO_EDGE = 10**6

FULL = {
    "apsp_n": 128, "apsp_inputs": 8,
    "grid_r": 64, "grid_inputs": 8,
    "kern_2d": 256, "kern_1d": 65536, "kern_reps": 32,
    "ranksort_n": 1024, "oddeven_n": 256, "digit_n": 16384,
    "prefix_n": 4096, "wavefront_n": 96, "matmul_n": 128,
    "batch_s": 32, "batch_n": 64, "batches": 4,
    "serve_apsp_n": 32, "serve_grid_r": 16, "serve_rank_n": 128,
    "serve_prefix_n": (256, 512, 1024), "serve_inputs": 16,
    "cli_apsp_n": 128, "cli_grid_r": 32, "cli_wavefront_n": 48,
    "cli_ranksort_n": 256, "cli_oddeven_n": 64, "cli_prefix_n": 1024,
    "cli_digit_n": 4096, "cli_transpose_n": 128,
}  # fmt: skip

#: ``--smoke``: roughly 10x less work per op; never compared with FULL
SMOKE = {
    "apsp_n": 32, "apsp_inputs": 3,
    "grid_r": 16, "grid_inputs": 3,
    "kern_2d": 32, "kern_1d": 1024, "kern_reps": 8,
    "ranksort_n": 128, "oddeven_n": 32, "digit_n": 1024,
    "prefix_n": 256, "wavefront_n": 16, "matmul_n": 32,
    "batch_s": 8, "batch_n": 16, "batches": 2,
    "serve_apsp_n": 16, "serve_grid_r": 8, "serve_rank_n": 32,
    "serve_prefix_n": (64, 128), "serve_inputs": 4,
    "cli_apsp_n": 32, "cli_grid_r": 8, "cli_wavefront_n": 12,
    "cli_ranksort_n": 64, "cli_oddeven_n": 16, "cli_prefix_n": 64,
    "cli_digit_n": 256, "cli_transpose_n": 16,
}  # fmt: skip


# ---------------------------------------------------------------------------
# digests and the expected files
# ---------------------------------------------------------------------------


def fp_digest(fingerprint) -> str:
    """Same digest ``repro run --fingerprint`` prints."""
    return hashlib.sha256(repr(fingerprint).encode()).hexdigest()[:16]


def values_digest(values: Mapping[str, Any], names) -> str:
    h = hashlib.sha256()
    for name in sorted(names):
        arr = np.ascontiguousarray(values[name])
        h.update(f"{name}:{arr.dtype}:{arr.shape}:".encode())
        h.update(arr.tobytes())
    return h.hexdigest()[:16]


def text_digest(printed: str) -> str:
    return hashlib.sha256(printed.encode()).hexdigest()[:16]


def expected_path(seed: int, smoke: bool) -> Path:
    return EXPECTED_DIR / f"seed-{seed}{'-smoke' if smoke else ''}.json"


def load_expected(workload: str, seed: int, smoke: bool) -> Optional[Dict[str, dict]]:
    """The oracle's digests for one workload's cases, or None when no file
    was committed for the seed (then only the NumPy references are checked)."""
    path = expected_path(seed, smoke)
    if not path.exists():
        return None
    prefix = workload + "/"
    return {
        key[len(prefix) :]: entry
        for key, entry in json.loads(path.read_text()).items()
        if key.startswith(prefix)
    }


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------


def program_key(case) -> tuple:
    """Identifies the program of a case (several cases share a program)."""
    return (case.source, tuple(sorted(case.defines.items())))


@dataclass
class Case:
    """One (program, input) pair and how to check its result."""

    key: str
    source: str
    defines: Dict[str, int]
    inputs: Optional[Dict[str, np.ndarray]]
    #: computes {variable: reference value} with NumPy only
    ref: Callable[[], Dict[str, np.ndarray]]
    reference: Dict[str, np.ndarray] = field(default_factory=dict)

    def compute_reference(self) -> None:
        self.reference = self.ref()

    def check(self, values, fingerprint, expected) -> bool:
        for name, ref in self.reference.items():
            if not np.array_equal(values[name], ref):
                return False
        if expected is None:
            return True
        exp = expected.get(self.key)
        return (
            exp is not None
            and values_digest(values, self.reference) == exp["values"]
            and fp_digest(fingerprint) == exp["fingerprint"]
        )


def chain_graph(n: int, rng) -> np.ndarray:
    """A path through a random permutation of the nodes, random weights.

    The hop diameter is n-1 whatever the seed, so ``*solve`` always needs
    the same number of min-plus sweeps and the work per op does not
    depend on the seed — only the values do.
    """
    d = np.full((n, n), NO_EDGE, dtype=np.int64)
    perm = rng.permutation(n)
    w = rng.integers(1, 10, size=n - 1)
    d[perm[:-1], perm[1:]] = w
    d[perm[1:], perm[:-1]] = w
    np.fill_diagonal(d, 0)
    return d


def dense_graph(n: int, rng) -> np.ndarray:
    """The paper's initialisation: d[i][j] = rand() % N + 1, d[i][i] = 0."""
    d = rng.integers(1, n + 1, size=(n, n)).astype(np.int64)
    np.fill_diagonal(d, 0)
    return d


def apsp_case(key: str, n: int, d: np.ndarray) -> Case:
    return Case(
        key, uc.APSP_SOLVE_UC, {"N": n}, {"dist": d},
        lambda: {"dist": floyd_warshall(d)},
    )  # fmt: skip


def grid_case(key: str, r: int, rng) -> Case:
    walls = rng.random((r, r)) < 0.1
    walls[0, 0] = False
    # relax from above (everything "disconnected", goal 0): cells the
    # random walls enclose simply stay at WALL instead of counting up
    a0 = np.full((r, r), BIG, dtype=np.int64)
    a0[0, 0] = 0
    return Case(
        key, uc.DYNAMIC_OBSTACLE_UC, {"R": r, "WALL": BIG},
        {"a": a0, "walls": walls.astype(np.int64)},
        lambda: {"a": grid_reference_distances(r, walls)},
    )  # fmt: skip


def _sorted_by_rank(a: np.ndarray) -> np.ndarray:
    out = np.empty_like(a)
    out[ranks(a)] = a
    return out


def _wavefront_ref(n: int) -> np.ndarray:
    with np.errstate(over="ignore"):  # int64 wrap-around is the C semantics
        return wavefront_matrix(n)


def kernel_cases(sizes, rng) -> List[Case]:
    """shift / transpose / fold / copy, each without and with its map."""
    n2, n1, reps = sizes["kern_2d"], sizes["kern_1d"], sizes["kern_reps"]

    def ints(*shape):
        return rng.integers(0, 100, size=shape).astype(np.int64)

    a1, b1 = ints(n1), ints(n1)
    a2, b2, c2 = ints(n2, n2), ints(n2, n2), ints(n2, n2)
    fa = ints(n1)
    v, w, m = ints(n2), ints(n2), ints(n2, n2)

    def shift_ref():
        out = a1.copy()
        out[:-1] += reps * b1[1:]
        return {"a": out}

    kernels = [
        ("shift", uc.SHIFT_KERNEL_UC, uc.SHIFT_KERNEL_MAP, n1,
         {"a": a1, "b": b1}, shift_ref),
        ("transpose", uc.TRANSPOSE_KERNEL_UC, uc.TRANSPOSE_KERNEL_MAP, n2,
         {"a": a2, "b": b2, "c": c2}, lambda: {"a": a2 + reps * (b2.T + c2.T)}),
        ("fold", uc.FOLD_KERNEL_UC, uc.FOLD_KERNEL_MAP, n1,
         {"a": fa}, lambda: {"s": fa[: n1 // 2] + fa[n1 // 2 :]}),
        ("copy", uc.COPY_KERNEL_UC, uc.COPY_KERNEL_MAP, n2,
         {"v": v, "w": w, "m": m}, lambda: {"m": m + reps * (v + w)[:, None]}),
    ]  # fmt: skip
    return [
        Case(
            f"{name}-{'map' if mapped else 'nomap'}",
            uc.with_map(src, map_src, mapped),
            {"N": n, "REPS": reps}, inputs, ref,
        )
        for name, src, map_src, n, inputs, ref in kernels
        for mapped in (False, True)
    ]  # fmt: skip


def construct_cases(sizes, rng) -> List[Case]:
    rn, on, dn = sizes["ranksort_n"], sizes["oddeven_n"], sizes["digit_n"]
    pn, wn, mn = sizes["prefix_n"], sizes["wavefront_n"], sizes["matmul_n"]
    keys = rng.permutation(rn).astype(np.int64)
    xs = rng.permutation(on).astype(np.int64)
    samples = rng.integers(0, 10, size=dn).astype(np.int64)
    ma = rng.integers(0, 10, size=(mn, mn)).astype(np.int64)
    mb = rng.integers(0, 10, size=(mn, mn)).astype(np.int64)
    return [
        Case("ranksort", uc.RANKSORT_UC, {"N": rn}, {"a": keys},
             lambda: {"a": _sorted_by_rank(keys)}),
        Case("oddeven", uc.ODDEVEN_UC, {"N": on}, {"x": xs},
             lambda: {"x": np.sort(xs)}),
        Case("digit-count", uc.DIGIT_COUNT_UC, {"N": dn}, {"samples": samples},
             lambda: {"count": np.bincount(samples, minlength=10)}),
        Case("prefix", uc.PREFIX_STARPAR_UC, {"N": pn}, None,
             lambda: {"a": prefix_sums(np.arange(pn))}),
        Case("wavefront", uc.WAVEFRONT_UC, {"N": wn}, None,
             lambda: {"a": _wavefront_ref(wn)}),
        Case("matmul", uc.MATMUL_UC, {"N": mn}, {"a": ma, "b": mb},
             lambda: {"c": np.matmul(ma, mb)}),
    ]  # fmt: skip


def serve_pool(sizes, rng) -> List[Case]:
    """The distinct job bodies ``serve_mix`` draws from: four shapes."""
    an, gr, rn = sizes["serve_apsp_n"], sizes["serve_grid_r"], sizes["serve_rank_n"]
    pool = []
    for k in range(sizes["serve_inputs"]):
        pool.append(apsp_case(f"apsp-{k}", an, dense_graph(an, rng)))
        keys = rng.permutation(rn).astype(np.int64)
        pool.append(
            Case(f"ranksort-{k}", uc.RANKSORT_UC, {"N": rn}, {"a": keys},
                 lambda keys=keys: {"a": _sorted_by_rank(keys)})
        )  # fmt: skip
    pool.append(
        Case("obstacle", uc.OBSTACLE_UC, {"R": gr, "WALL": BIG}, None,
             lambda: {"a": grid_reference_distances(gr)})
    )  # fmt: skip
    for pn in sizes["serve_prefix_n"]:
        pool.append(
            Case(f"prefix-{pn}", uc.PREFIX_STARPAR_UC, {"N": pn}, None,
                 lambda pn=pn: {"a": prefix_sums(np.arange(pn))})
        )  # fmt: skip
    return pool


# ---------------------------------------------------------------------------
# the cold-CLI corpus
# ---------------------------------------------------------------------------

CLI_APSP_UC = """
index_set I:i = {0..N-1}, J:j = I, K:k = I;
int dist[N][N];
main {
    par (I, J)
        st (i == j) dist[i][j] = 0;
        others dist[i][j] = (i * 7 + j * 13 + S) % N + 1;
    *solve (I, J)
        dist[i][j] = $<(K; dist[i][k] + dist[k][j]);
}
"""

CLI_RANKSORT_UC = """
index_set I:i = {0..N-1}, J:j = I;
int a[N];
main {
    par (I) a[i] = (i * 37 + S) % N;
    par (I) {
        int rank;
        rank = $+(J st (a[j] < a[i]) 1);
        a[rank] = a[i];
    }
}
"""

CLI_ODDEVEN_UC = """
index_set I:i = {0..N-2}, J:j = {0..N-1};
int x[N];
main {
    par (J) x[j] = (j * 29 + S) % N;
    *oneof (I)
      st (i % 2 == 0 && x[i] > x[i+1]) swap(x[i], x[i+1]);
      st (i % 2 != 0 && x[i] > x[i+1]) swap(x[i], x[i+1]);
}
"""

CLI_DIGIT_UC = """
index_set I:i = {0..N-1}, J:j = {0..9};
int samples[N];
int count[10];
main {
    par (I) samples[i] = (i * i + S) % 10;
    par (J)
        count[j] = $+(I st (samples[i] == j) 1);
}
"""

CLI_TRANSPOSE_UC = """
index_set I:i = {0..N-1}, J:j = I, T:t = {0..REPS-1};
int a[N][N], b[N][N], c[N][N];
map (I, J) {
    permute (I, J) b[j][i] :- a[i][j];
    permute (I, J) c[j][i] :- a[i][j];
}
main {
    par (I, J) { b[i][j] = i * N + j + S; c[i][j] = i - j; }
    seq (T)
        par (I, J) a[i][j] = a[i][j] + b[j][i] + c[j][i];
}
"""


def cli_format(name: str, value) -> str:
    """How ``repro run --print`` renders a variable."""
    if isinstance(value, np.ndarray):
        with np.printoptions(threshold=64, linewidth=100):
            return f"{name} = {value}"
    return f"{name} = {value}"


@dataclass
class CliCase:
    """One corpus program: file content, CLI arguments, printed reference."""

    key: str
    source: str
    defines: Dict[str, int]
    prints: List[str]
    #: {variable: reference value} by NumPy, or None when the program
    #: draws from rand() — then ``self_check`` ties the printed outputs
    #: to each other
    ref: Optional[Callable[[], Dict[str, np.ndarray]]]
    run_seed: int = 20250704
    self_check: Optional[Callable[[str], bool]] = None
    reference_text: Optional[str] = None

    def compute_reference(self) -> None:
        if self.ref is not None:
            ref = self.ref()
            self.reference_text = "\n".join(
                cli_format(name, ref[name]) for name in self.prints
            )

    def check(self, out: "CliResult", expected) -> bool:
        if self.reference_text is not None and out.printed != self.reference_text:
            return False
        if self.self_check is not None and not self.self_check(out.printed):
            return False
        if expected is None:
            return True
        exp = expected.get(self.key)
        return (
            exp is not None
            and text_digest(out.printed) == exp["values"]
            and out.fingerprint == exp["fingerprint"]
        )

    def argv(self, path: str) -> List[str]:
        args = ["run", path, "--seed", str(self.run_seed), "--fingerprint", "--ledger"]
        for name, value in sorted(self.defines.items()):
            args += ["-D", f"{name}={value}"]
        for name in self.prints:
            args += ["--print", name]
        return args


def _histogram_self_check(text: str) -> bool:
    """count must be the histogram of the samples printed next to it."""
    found = {
        name: [int(x) for x in re.findall(r"-?\d+", body)]
        for name, body in re.findall(r"^(\w+) = \[([^\]]*)\]", text, re.M)
    }
    if "samples" not in found or "count" not in found:
        return False
    return found["count"] == np.bincount(found["samples"], minlength=10).tolist()


def cli_cases(sizes, seed: int) -> List[CliCase]:
    s = seed % 1000
    an, gr, wn = sizes["cli_apsp_n"], sizes["cli_grid_r"], sizes["cli_wavefront_n"]
    rn, on, pn = sizes["cli_ranksort_n"], sizes["cli_oddeven_n"], sizes["cli_prefix_n"]
    dn, tn, reps = sizes["cli_digit_n"], sizes["cli_transpose_n"], sizes["kern_reps"]

    def apsp_ref():
        i, j = np.indices((an, an))
        d = (i * 7 + j * 13 + s) % an + 1
        np.fill_diagonal(d, 0)
        return {"dist": floyd_warshall(d)}

    def transpose_ref():
        i, j = np.indices((tn, tn))
        return {"a": reps * ((i * tn + j + s).T + (i - j).T)}

    def shifted_ref():
        b = np.arange(64)
        a = np.zeros(64, dtype=np.int64)
        a[:-1] = b[1:]
        return {"a": a, "b": b}

    examples = ROOT / "examples" / "uc"
    return [
        CliCase("apsp-solve", CLI_APSP_UC, {"N": an, "S": s}, ["dist"], apsp_ref),
        CliCase("obstacle", uc.OBSTACLE_UC, {"R": gr, "WALL": BIG}, ["a"],
                lambda: {"a": grid_reference_distances(gr)}),
        CliCase("wavefront", uc.WAVEFRONT_UC, {"N": wn}, ["a"],
                lambda: {"a": _wavefront_ref(wn)}),
        CliCase("ranksort", CLI_RANKSORT_UC, {"N": rn, "S": s}, ["a"],
                lambda: {"a": np.sort((np.arange(rn) * 37 + s) % rn)}),
        CliCase("oddeven", CLI_ODDEVEN_UC, {"N": on, "S": s}, ["x"],
                lambda: {"x": np.sort((np.arange(on) * 29 + s) % on)}),
        CliCase("prefix", uc.PREFIX_STARPAR_UC, {"N": pn}, ["a"],
                lambda: {"a": prefix_sums(np.arange(pn))}),
        CliCase("digit-count", CLI_DIGIT_UC, {"N": dn, "S": s}, ["count"],
                lambda: {"count": np.bincount((np.arange(dn) ** 2 + s) % 10, minlength=10)}),
        CliCase("histogram", (examples / "histogram.uc").read_text(), {"N": 64},
                ["samples", "count"], None, run_seed=seed,
                self_check=_histogram_self_check),
        CliCase("shifted", (examples / "shifted.uc").read_text(), {}, ["a", "b"],
                shifted_ref),
        CliCase("transpose-map", CLI_TRANSPOSE_UC, {"N": tn, "REPS": reps, "S": s},
                ["a"], transpose_ref),
    ]  # fmt: skip


_ELAPSED_RE = re.compile(r"^-- simulated elapsed: .*\((\d+) us\)$", re.M)
_FP_RE = re.compile(r"^-- clock fingerprint: (\w+)$", re.M)
_LEDGER_RE = re.compile(r"^   (\w+)\s+x(\d+)\s+(\d+) us$", re.M)
_STATS_RE = re.compile(r"^   compile\.(\w+_s)\s+([\d.]+) ms$", re.M)


@dataclass
class CliResult:
    """``repro run`` stdout split up; named like ``RunResult`` where the
    two overlap, so the per-layer code reads either."""

    printed: str
    elapsed_us: float
    fingerprint: str
    counts: Dict[str, int]
    times: Dict[str, float]
    #: the ``compile.*_s`` lines of ``--stats`` (milliseconds, as printed)
    compile_ms: Dict[str, float]
    # not visible through the CLI's plain output
    fusion = frontier = store = {}


def parse_cli_output(text: str) -> CliResult:
    """Split ``repro run`` stdout into printed values and the cost lines."""
    m = _ELAPSED_RE.search(text)
    fp = _FP_RE.search(text)
    if m is None or fp is None:
        raise ValueError("repro run output has no elapsed/fingerprint line")
    ledger = _LEDGER_RE.findall(text)
    return CliResult(
        printed=text[: m.start()].rstrip("\n"),
        elapsed_us=float(m.group(1)),
        fingerprint=fp.group(1),
        counts={kind: int(count) for kind, count, _ in ledger},
        times={kind: float(us) for kind, _, us in ledger},
        compile_ms={k: float(v) for k, v in _STATS_RE.findall(text)},
    )
