"""Write the byte-identity corpus: scenario files on which two versions of ssf-lab must write the same reports.

    python3 tools/make_corpus.py OUT_DIR

The corpus holds every kind at dims 1, 2, 3, 5, 8, 12 and 24 for seeds 1
and 2, each asking for json, csv and svg, plus edge files that generated
files never reach: a fractional bound with beta = 0 (the corollary form), a
generated fractional pair at dim 64 (the generator's limit, where the
quadrature pass scales most with n), a fractional file and a contraction
pair at the Schatten exponent p = 2000 (where the norms' sum of p-th
powers needs scaling by the largest singular value), a truncate ladder, a
kernel at spectral point -2.5, a kernel file without a grid (the schema
default of 1,024 Gauss nodes), a bump kernel on a 257-node trapezoid
grid, a table-potential kernel, a Schrodinger file with
a complex table potential, a dissipative pair whose Im L is singular (the
condition report becomes an error string), a determinant block on both
circle kinds, one at the smallest grid (256) and one at the schema's
limits (a random dim-128 unitary pair on 65,536 points, json and csv
only), a name with quotes and non-ASCII characters, explicit matrices
with integer and real-scalar cells (decoded cell by cell, as every decimal
matrix is), and a dissipative pair whose `tolerances` override one check
of an indexed family (resolvent-z0) and one plain check
(weighted-consistency), two
files without a `dilation_order`, a Schrodinger file (the run sizes its
block count) and a contraction pair whose test polynomials reach degree 5
(its kind's rule gives m = 8), and a dissipative pair with an explicit
`dilation_order` of 24, since generated line files no longer carry one. The
dissipative singular-Im file and the mixed-cells contraction file give no
`dilation_order` either. Then a contraction pair on m = 6 blocks whose
operators share the unimodular eigenvalue e^(i 7 pi/6): that is an eigenvalue
of both dilations and sits on their first Cayley pole, so each eigensolve
takes the second try. Last of all, two contraction pairs whose T0 has two
unit singular values, so that its defect has a kernel: at alpha = 0 the
weighted norms exist (the exponent -0.0 is no inverse power), and at the
default alpha = 1/2 they are None and the kernel is not certified. Generated
files hold their matrices as complex128 bytes, so the corpus ends with the
decimal twin of the dim-24 contraction pair of seed 1: the same numbers as
nested [re, im] floats, which parse cell by cell and hash alike.
Write the corpus from each version, since scenario files are output too,
run each version on its own corpus with one BLAS thread and compare both:

    python3 tools/make_corpus.py corpus_before
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 -m ssflab.cli run corpus_before/*.json --out-dir before
    (the same from the other checkout, into corpus_after and after)
    python3 tools/report_diff.py corpus_before corpus_after
    python3 tools/report_diff.py before after

Exit status 1 from a run only means some check failed; the reports are
still written and compared.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ssflab.scenario import KINDS, generate_scenario, parse_scenario, write_scenario  # noqa: E402

SEEDS = (1, 2)
DIMS = (1, 2, 3, 5, 8, 12, 24)
OUTPUTS = ["json", "csv", "svg"]


def _decimal(matrices) -> list:
    """Each matrix as nested [re, im] floats, the decimal form of a scenario file's matrices."""
    return [np.stack((m.real, m.imag), -1).tolist() for m in matrices]


def _edge_files() -> list[dict]:
    def generated(kind, name, drop=None, seed=3, **keys):
        payload = generate_scenario(kind, seed, 4)
        payload.pop(drop, None)
        payload.update(name=f"edge-{name}", outputs=OUTPUTS, **keys)
        return payload

    # Im L_0 = diag(1, 0, 1/2) has a kernel
    l0 = np.diag([1.0, 2.0, 3.0]) + 1j * np.diag([1.0, 0.0, 0.5])
    l1 = l0 + 0.1 + 0.2j * np.diag([0.0, 0.0, 1.0])
    pair = _decimal((l0, l1))
    # contractions with integer, real-scalar and [re, im] cells
    mixed = [[[0, 0.5], [-0.25, [0.25, 0.25]]], [[0.5, 0], [[0.0, 0.25], 0]]]
    # e^(i 7 pi/6) next to a non-normal 2 x 2 block of norm below 1
    tau = np.exp(7j * np.pi / 6)
    t0 = np.array([[tau, 0, 0], [0, 0.3, 0.4], [0, 0, -0.2]])
    t1 = np.array([[tau, 0, 0], [0, 0.3, 0.5], [0, 0.1, -0.2]])
    on_pole = _decimal((t0, t1))
    # T0 = Q diag(1, 1, 1/2, 1/5) Q*, Q a Householder reflection, has two unit
    # singular values, so its defect has a kernel; T1 is a strict contraction
    v = np.array([1.0, 1j, -1.0, 0.5])
    q = np.eye(4) - 2.0 * np.outer(v, v.conj()) / (v.conj() @ v).real
    t0 = (q * [1.0, 1.0, 0.5, 0.2]) @ q.conj().T
    t1 = 0.9 * t0 + 0.05 * np.eye(4, k=1)
    unit_singular = _decimal((t0, t1))
    sibling = generate_scenario("contraction_pair", 1, 24) | {"outputs": OUTPUTS}
    return [
        generated("fractional", "fractional-beta0", exponents={"sigma": 0.5, "alpha": 0.75, "beta": 0.0, "p": 1.0}),
        generate_scenario("fractional", 3, 64) | {"name": "edge-fractional-dim64", "outputs": OUTPUTS},
        generated(
            "fractional", "fractional-p2000", seed=5, exponents={"sigma": 0.5, "alpha": 0.5, "beta": 0.25, "p": 2000.0}
        ),
        generated("contraction_pair", "contraction-p2000", seed=5, exponents={"alpha": 0.5, "beta": 0.5, "p": 2000.0}),
        generated("kernel_trace", "truncate-ladder", monotone={"n": [2, 4, 8, 16, 32], "variant": "truncate"}),
        generated("kernel_trace", "spectral-point", spectral_point=-2.5),
        generated("kernel_trace", "default-grid-kernel", drop="grid"),
        generated(
            "kernel_trace",
            "trapezoid-bump",
            grid={"lo": -8.0, "hi": 8.0, "nodes": 257, "scheme": "trapezoid"},
            potential={"kind": "bump", "amplitude": 0.5, "half_width": 2.0, "taper": 0.5},
        ),
        generated("kernel_trace", "table-kernel", potential={"kind": "table", "x": [-2.0, 0.0, 2.0], "q": [0.0, 1.0, 0.0]}),
        generated(
            "schrodinger",
            "complex-table",
            grid={"lo": -8.0, "hi": 8.0, "nodes": 24},
            potential={"kind": "table", "x": [-2.0, 0.0, 2.0], "q": [[0.0, 0.0], [0.5, 1.0], [0.0, 0.25]]},
        ),
        {"name": "edge-singular-im", "kind": "dissipative_pair", "matrices": pair, "outputs": OUTPUTS},
        generated("unitary_pair", "unitary-determinant", determinant={"grid": 1024}),
        generated("contraction_pair", "contraction-determinant", determinant={"grid": 1024}),
        generated("unitary_pair", "determinant-grid256", determinant={"grid": 256}),
        {
            "name": "edge-determinant-limit",
            "kind": "unitary_pair",
            "matrices": {"seed": 3, "dim": 128},
            "determinant": {"grid": 65536},
            "outputs": ["json", "csv"],
        },
        generated("contraction_pair", 'quoted-"name"-ünïcode-名前'),
        {"name": "edge-mixed-cells", "kind": "contraction_pair", "matrices": mixed, "outputs": OUTPUTS},
        generated(
            "dissipative_pair",
            "tolerance-overrides",
            tolerances={"resolvent-z0": 1e-5, "weighted-consistency": 1e-10},
        ),
        generated("schrodinger", "default-blocks-schrodinger", drop="dilation_order"),
        generated("dissipative_pair", "explicit-blocks-dissipative", dilation_order=24),
        generated(
            "contraction_pair",
            "default-blocks-degree5",
            drop="dilation_order",
            test_polynomials=[[0, 1], [0, 0, 0, 0, 0, [1.0, 0.5]]],
        ),
        {
            "name": "edge-eigenvalue-on-the-pole",
            "kind": "contraction_pair",
            "matrices": on_pole,
            "dilation_order": 6,
            "outputs": OUTPUTS,
        },
        {
            "name": "edge-defect-kernel-alpha0",
            "kind": "contraction_pair",
            "matrices": unit_singular,
            "exponents": {"alpha": 0.0, "beta": 0.75, "p": 1.0},
            "outputs": OUTPUTS,
        },
        {"name": "edge-defect-kernel", "kind": "contraction_pair", "matrices": unit_singular, "outputs": OUTPUTS},
        {**sibling, "name": "edge-decimal-twin", "matrices": _decimal(parse_scenario(sibling).matrices)},
    ]


def corpus() -> list[dict]:
    """Every scenario of the corpus, generated files first."""
    files = []
    for kind in KINDS:
        for seed in SEEDS:
            for dim in DIMS:
                payload = generate_scenario(kind, seed, dim)
                payload["outputs"] = OUTPUTS
                files.append(payload)
    return files + _edge_files()


USAGE = "usage: python3 tools/make_corpus.py OUT_DIR"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if "-h" in args or "--help" in args:
        print(USAGE)
        return 0
    # an option is never taken for the output directory
    if len(args) != 1 or args[0].startswith("-"):
        print(USAGE, file=sys.stderr)
        return 2
    out = Path(args[0])
    out.mkdir(parents=True, exist_ok=True)
    files = corpus()
    for payload in files:
        write_scenario(payload, out / f"{payload['name']}.json")
    print(f"{len(files)} scenario files in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
