"""
Scenario files and the ssf-lab command line
===========================================

Everything in the library is drivable from JSON scenario files. This
script writes one, runs it through the same code path the `ssf-lab run`
command uses, and walks the report. Shell equivalents:

    ssf-lab generate --kind unitary_pair --seed 3 --dim 3 -o pair.json
    ssf-lab run pair.json --out-dir results/
    ssf-lab plot results/unitary_pair-seed3-dim3.ssf.csv

Exit codes: 0 all checks pass, 1 a numeric check failed (the report is
still written), 2 the scenario file itself is invalid.
"""

import json
import tempfile
from pathlib import Path

from ssflab.cli import main
from ssflab.scenario import generate_scenario, parse_scenario, run_scenario

# every file goes to a temporary directory that is removed at the end
with tempfile.TemporaryDirectory(prefix="ssf-demo-") as tmp:
    workdir = Path(tmp)

    # a scenario is plain JSON; complex entries are [re, im] pairs
    scenario = {
        "name": "quarter-turn",
        "kind": "unitary_pair",
        "matrices": [[[1.0]], [[[0.0, 1.0]]]],
        "determinant": {"radius": 1.0001, "grid": 4096},
        "outputs": ["json", "csv", "svg"],
    }
    path = workdir / "quarter-turn.json"
    path.write_text(json.dumps(scenario, indent=2))

    # the library route: parse, run, inspect
    report = run_scenario(parse_scenario(scenario))
    print(f"scenario {report.scenario}: all_pass = {report.all_pass}")
    for record in report.records:
        print(f"  {record.check_id:32s} [{record.anchor}] "
              f"residual {record.residual:.2e} tol {record.tolerance:.0e}")
    print("flags:", {k: v for k, v in report.flags.items() if not isinstance(v, dict)})

    # the command line route writes a report, a CSV table, and an SVG plot
    code = main(["run", str(path), "--out-dir", str(workdir)])
    print(f"\nssf-lab run exited {code}; files:")
    for p in sorted(workdir.iterdir()):
        print("  ", p.name)

    on_disk = json.loads((workdir / "quarter-turn.report.json").read_text())
    print("\nreport keys:", sorted(on_disk.keys()))
    print("config hash:", on_disk["provenance"]["config_hash"][:16], "...")

    # matrices can also be drawn reproducibly from a seed instead of written out
    generated = generate_scenario("dissipative_pair", seed=9, dim=4)
    gen_path = workdir / "generated.json"
    gen_path.write_text(json.dumps(generated, indent=2, sort_keys=True))
    code = main(["run", str(gen_path), "--out-dir", str(workdir)])
    print(f"\ngenerated dissipative scenario exited {code}")

    # rendering a step SSF straight from its CSV
    code = main(["plot", str(workdir / "quarter-turn.ssf.csv"),
                 "-o", str(workdir / "replot.svg")])
    print(f"plot exited {code}, wrote replot.svg")
